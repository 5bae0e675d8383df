"""Command-line surface.

Subcommands:

  generate <system> --out FILE     write a benchmark panel as CSV
  analyze <csv> --out DIR          full pairwise discovery, report files
  ssad <csv> --x A --y B           the SSAD analyze reports for (A, B)
  tssavr <csv> --x A --y B         one ordered pair's variance ratio
  baseline granger|ccm <csv> --x A --y B

ssad runs the pair's band test through the same code as analyze, seeded
from the sorted pair names, so swapping --x and --y prints the exact
negation; it takes no shift flags and runs no TS-SAVR.
generate takes --tau-d only for two_species_bidir.
baseline reads the raw channels; analyze's baseline columns read the
prepared ones, so they can differ in the last digits, or entirely under
--difference-order.  analyze's (x, y) granger_min_p is baseline granger
--x y --y x, and its ccm_max_r2 is baseline ccm --x x --y y.

Exit codes: 0 success, 1 usage or parameter error (a bad flag value, a
generator parameter the system does not take, one channel as both --x and
--y), 2 data error (unreadable or malformed input, under two channels,
analysis failure, out of memory).  The default seed is 0, or the value of
the SIGAREA_SEED environment variable when set; an explicit --seed always
wins.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import io as sio
from .direction import shift_profile, ts_savr
from .baselines import ccm, granger
from .errors import SigAreaError
from .pipeline import (
    RunConfig,
    _check_every_window,
    _name_ordered,
    discover,
    pair_band_test,
    prepare_channel,
)
from .synth import BIDIR_TAUS, SYSTEMS, SystemSpec, generate


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this package reserves 2
    # for data errors, so turn usage problems into a catchable exception.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _default_seed() -> int:
    raw = os.environ.get("SIGAREA_SEED")
    if raw is None:
        return RunConfig().seed
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"SIGAREA_SEED must be an integer, got {raw!r}") from None


def _add_run_flags(parser: argparse.ArgumentParser, shuffles: bool, taus: bool) -> None:
    # Each flag is named after the RunConfig field it sets and defaults to it.
    defaults = RunConfig()
    if shuffles:
        parser.add_argument("--window-length", type=int,
                            default=defaults.window_length, metavar="L")
        parser.add_argument("--n-shuffles", type=int,
                            default=defaults.n_shuffles, metavar="N")
        parser.add_argument("--stride", type=int, default=defaults.stride, metavar="S",
                            help="window step; default = window length (tiling)")
        parser.add_argument("--rho", type=float, default=defaults.rho)
        parser.add_argument("--alpha", type=float, default=defaults.alpha)
        parser.add_argument("--seed", type=int, default=None)
    if taus:
        parser.add_argument("--tau-min", type=int, default=defaults.tau_min)
        parser.add_argument("--tau-max", type=int, default=defaults.tau_max)
    parser.add_argument("--difference-order", type=int,
                        default=defaults.difference_order, metavar="K")
    parser.add_argument("--interp-step", type=float, default=None, metavar="DT",
                        help="resample onto a uniform grid (needs a time column)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sigarea", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a benchmark system as CSV")
    gen.add_argument("system", choices=SYSTEMS)
    gen.add_argument("--steps", type=int, default=None,
                     help="sample count (default 3000 for the bidirectional "
                          "system, 1000 otherwise)")
    gen.add_argument("--tau-d", type=int, default=0, choices=BIDIR_TAUS,
                     help="X->Y delay; two_species_bidir only")
    gen.add_argument("--seed", type=int, default=None,
                     help="accepted for interface symmetry; the map "
                          "generators are deterministic")
    gen.add_argument("--out", required=True, metavar="FILE")
    gen.set_defaults(handler=_generate)

    ana = sub.add_parser("analyze", help="pairwise discovery over a CSV panel")
    ana.add_argument("csv")
    ana.add_argument("--out", required=True, metavar="DIR")
    _add_run_flags(ana, shuffles=True, taus=True)
    ana.add_argument("--theta", type=float, default=RunConfig().theta,
                     help="|SSAD| edge threshold; omit for rank mode")
    ana.add_argument("--noise-channel", dest="add_noise_channel", action="store_true",
                     help="append a scaled white-noise control channel")
    ana.add_argument("--granger", dest="run_granger", action="store_true",
                     help="add lagged-regression baseline columns")
    ana.add_argument("--ccm", dest="run_ccm", action="store_true",
                     help="add cross-mapping baseline columns")
    ana.set_defaults(handler=_analyze)

    for name, handler in (("ssad", _ssad), ("tssavr", _tssavr)):
        single = sub.add_parser(name, help=f"run {name} on one ordered pair")
        single.add_argument("csv")
        single.add_argument("--x", required=True, metavar="NAME")
        single.add_argument("--y", required=True, metavar="NAME")
        _add_run_flags(single, shuffles=name == "ssad", taus=name == "tssavr")
        single.set_defaults(handler=handler)

    base = sub.add_parser("baseline", help="reference method on one pair")
    base.add_argument("method", choices=["granger", "ccm"])
    base.add_argument("csv")
    base.add_argument("--x", required=True, metavar="NAME")
    base.add_argument("--y", required=True, metavar="NAME")
    base.add_argument("--maxlag", type=int, default=10,
                      help="largest regression lag (granger)")
    base.add_argument("--embed-dim", type=int, default=2)
    base.add_argument("--lag", type=int, default=1)
    base.set_defaults(handler=_baseline)
    return parser


def _generate(args: argparse.Namespace) -> int:
    steps = args.steps
    if steps is None:
        steps = 3000 if args.system == "two_species_bidir" else 1000
    panel = generate(SystemSpec(args.system, steps, args.tau_d))
    sio.write_csv(panel, args.out)
    print(f"wrote {panel.length} samples of {', '.join(panel.names)} to {args.out}")
    return 0


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # A field the subcommand has no flag for keeps its RunConfig default;
    # SIGAREA_SEED is read only where an omitted --seed leaves it None.
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    given = {k: v for k, v in vars(args).items() if k in fields}
    if "seed" in given and given["seed"] is None:
        given["seed"] = _default_seed()
    return RunConfig(**given)


def _analyze(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    panel, _ = sio.read_csv(args.csv, args.interp_step)
    result = discover(panel, config)
    written = sio.write_report(result, args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def _channel_pair(args: argparse.Namespace, prepared: bool = True):
    """The --x and --y channels, prepared as analyze prepares them unless
    prepared=False; one channel as both raises ValueError."""
    panel, _ = sio.read_csv(args.csv, args.interp_step if prepared else None)
    pair = [panel.get(name) for name in (args.x, args.y)]
    _name_ordered(*pair)
    if prepared:
        pair = [prepare_channel(s, args.difference_order) for s in pair]
    return pair


def _ssad(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    x, y = _channel_pair(args)
    _check_every_window(len(x), config)
    forward, reverse, _, _ = pair_band_test(x, y, config)
    print(sio.format_float((reverse if y.name < x.name else forward).score))
    return 0


def _tssavr(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    a, b = _channel_pair(args)
    verdict = ts_savr(shift_profile(a, b, config.tau_min, config.tau_max))
    print(f"{sio.format_float(verdict.ratio)} {verdict.label}")
    return 0


def _baseline(args: argparse.Namespace) -> int:
    x, y = _channel_pair(args, prepared=False)
    if args.method == "granger":
        result = granger(x, y, args.maxlag)
        for lag in sorted(result.per_lag_p):
            print(f"lag {lag} p {sio.format_float(result.per_lag_p[lag])}")
        print(f"min_p {sio.format_float(result.min_p)}")
    else:
        result = ccm(x, y, args.embed_dim, args.lag)
        for size in result.library_sizes:
            print(f"library {size} r2 {sio.format_float(result.skill[size])}")
        print(f"max_r2 {sio.format_float(result.max_r2)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ValueError as exc:  # parameter errors, UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse --help exits 0 through here
        code = exc.code
        return code if isinstance(code, int) else 0
    except KeyError as exc:
        print(f"error: no channel named {exc.args[0]!r} in the input", file=sys.stderr)
        return 2
    except (SigAreaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
