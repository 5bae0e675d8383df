"""End-to-end pairwise discovery: scaling, SSAD screening, direction calls.

For every unordered pair of channels the pipeline runs the shuffled-null
band test once (the reverse order is its exact negation) and the shift
variance-ratio test in both orders, then reports each ordered pair.  On a
large enough input that first stage is shared with the workers of one
spawn ProcessPoolExecutor, one process per usable CPU; every pair is
seeded from its names alone, so the output bytes do not depend on how many
processes ran it.  Within a pair, nulltest.null_ensemble shuffles series
of 4096 samples or more on one thread per usable CPU, in whichever
process scores the pair.  The optional baselines run afterwards in the
calling process, each over all pairs in one burst of one call per
channel.  |SSAD| is the confidence of a lag/lead link; by default no
threshold is applied and the output is read as a ranking.  Optional
extras: a scaled white-noise control channel, and lagged-regression /
cross-mapping baseline columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .baselines import _check_granger_lag, ccm_many, granger_many
from .direction import _nonzero_taus, shift_profile, ts_savr
from .errors import InsufficientData, NameTaken, SigAreaError
from .nulltest import (
    NullBand, SsadResult, _check_n_shuffles, _usable_cpus, multiplier, ssad_pair_detail
)
from .rng import derive_seed
from .series import (
    Panel, Series, _check_difference_order, _reduce_through_init, difference, scale_unit_range
)
from .signature import AreaSequence, _check_window, window_count
from .synth import gen_white_noise


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one discovery run.

    stride=None tiles the series with non-overlapping windows (stride =
    window_length); signed_area_sequence, null_ensemble and ssad_pair_detail
    default to stride=1, maximally overlapping windows.  theta=None means
    rank mode: no hard edge threshold, every scored pair gets an edge with
    its confidence.  difference_order is applied before scaling;
    interpolation onto a uniform grid happens at CSV load time, not here.
    window_length is at least 3 samples.  The band always pools windows
    1..t, so no field chooses that.  Each field but theta, which only the
    pipeline reads, is checked by the one check of the module that reads
    it (rho and alpha at t = 1); discover checks rho and alpha again at
    every window of its input.
    """

    window_length: int = 10
    n_shuffles: int = 1000
    seed: int = 0
    stride: int | None = None
    rho: float = 1.0
    alpha: float = 0.05
    tau_min: int = -10
    tau_max: int = 10
    theta: float | None = None
    difference_order: int = 0
    add_noise_channel: bool = False
    run_granger: bool = False
    run_ccm: bool = False
    granger_tau_max: int = 10

    def __post_init__(self) -> None:
        _check_window(self.window_length, self.effective_stride)
        _check_n_shuffles(self.n_shuffles)
        multiplier(1, self.rho, self.alpha)
        _nonzero_taus(self.tau_min, self.tau_max)
        if self.theta is not None and not 0 <= self.theta <= 1:
            raise ValueError("theta must lie in [0, 1] when given")
        _check_difference_order(self.difference_order)
        _check_granger_lag(self.granger_tau_max)

    @property
    def effective_stride(self) -> int:
        return self.window_length if self.stride is None else self.stride


@dataclass(frozen=True)
class PairReport:
    """One ordered pair's scores; ``error`` is set when the pair, or one of
    its optional baselines, failed."""

    pair: tuple[str, str]
    ssad: float | None = None
    abs_ssad: float | None = None
    ts_savr: float | None = None
    direction: str | None = None
    edge: bool = False
    granger_min_p: float | None = None
    ccm_max_r2: float | None = None
    error: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pair", tuple(self.pair))


@dataclass(frozen=True)
class GraphEdge:
    """Directed (or mutual) link between two channels."""

    source: str
    target: str
    label: str
    confidence: float


@dataclass(frozen=True)
class PairTrace:
    """Per-window actual areas and the null band for one name-ordered pair."""

    actual: AreaSequence
    band: NullBand


@dataclass(frozen=True)
class DiscoveryResult:
    """Everything one run produced, enough to serialize a full report:
    the channels, every ordered pair's report, at most one edge per
    unordered pair, the traces of the scored pairs and the config."""

    nodes: tuple[str, ...]
    reports: tuple[PairReport, ...]
    edges: tuple[GraphEdge, ...]
    traces: Mapping[tuple[str, str], PairTrace]
    config: RunConfig

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "reports", tuple(self.reports))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "traces", MappingProxyType(dict(self.traces)))


def _noise_name(taken: tuple[str, ...]) -> str:
    for candidate in ("W", "W_noise"):
        if candidate not in taken:
            return candidate
    raise NameTaken("both 'W' and 'W_noise' are taken; rename a channel")


def prepare_channel(s: Series, difference_order: int) -> Series:
    """Difference (order 0 leaves the series untouched), then scale to unit range."""
    return scale_unit_range(difference(s, difference_order))


def _error_text(exc: SigAreaError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _prepare(panel: Panel, config: RunConfig) -> dict[str, Series | str]:
    """Each channel prepared on its own; one that fails keeps its error text."""
    prepared: dict[str, Series | str] = {}
    for s in panel.series:
        try:
            prepared[s.name] = prepare_channel(s, config.difference_order)
        except SigAreaError as exc:
            prepared[s.name] = _error_text(exc)
    if config.add_noise_channel:
        name = _noise_name(panel.names)
        # As long as a differenced channel, whether or not any prepared; when
        # that is under 2 samples every channel failed and no pair uses the noise.
        length = max(panel.length - config.difference_order, 2)
        noise = gen_white_noise(length, derive_seed(config.seed, "noise"), name)
        prepared[name] = scale_unit_range(noise)
    return prepared


def _name_ordered(a: Series, b: Series) -> tuple[Series, Series]:
    """The pair in name order; ValueError for two channels of one name."""
    if a.name == b.name:
        raise ValueError(f"both channels are named {a.name!r}")
    return (a, b) if a.name < b.name else (b, a)


def _check_every_window(t_len: int, config: RunConfig) -> None:
    """ValueError unless config's rho and alpha give a finite, positive band
    multiplier at every window of a prepared series of t_len samples.  A
    huge rho passes RunConfig's check at t = 1 and overflows only at later
    windows, which the band test would find after the whole ensemble is
    shuffled.  Below one window there is nothing to check: each pair then
    fails on its own with WindowTooLong."""
    if t_len >= config.window_length:
        windows = window_count(t_len, config.window_length, config.effective_stride)
        multiplier(np.arange(1, windows + 1), config.rho, config.alpha)


def pair_band_test(
    a: Series, b: Series, config: RunConfig
) -> tuple[SsadResult, SsadResult, AreaSequence, NullBand]:
    """The band test of a pair, put in name order and seeded from (seed,
    "pair", sorted names), so it does not depend on argument order.

    Returns ssad_pair_detail's results for the name-ordered pair: both
    ordered SSAD results, then its windowed areas and null band.  Two
    channels of one name raise ValueError.
    """
    a, b = _name_ordered(a, b)
    return ssad_pair_detail(
        a,
        b,
        window_length=config.window_length,
        n_shuffles=config.n_shuffles,
        seed=derive_seed(config.seed, "pair", a.name, b.name),
        stride=config.effective_stride,
        rho=config.rho,
        alpha=config.alpha,
    )


def _with_baselines(
    reports: list[PairReport], channels: Mapping[str, Series | str], config: RunConfig
) -> list[PairReport]:
    """Stage 2 of discover: each enabled baseline column over every
    error-free report of stage 1.

    Report (x, y) runs on channels[x] and channels[y]; a report that already
    carries an error is returned as it is.  Orderings are grouped by their
    y channel, which is all that the costly part of either baseline reads:
    the target of the lagged regressions granger(y, x), whose restricted
    fits granger_many makes once per lag, and the shadow manifold of the
    cross mapping ccm(x, y), whose neighbour search ccm_many makes once.
    Every Granger group runs back to back, then every CCM group; granger_many
    fits on one BLAS thread, so its regressions wake no BLAS worker.  A
    failing group leaves only its own column None and puts its error text on
    each of its orderings' reports (Granger's, when both fail); the error
    depends only on y and the length, so it is the text each would get alone.
    """
    groups: dict[str, list[int]] = {}
    for k, report in enumerate(reports):
        if report.error is None:
            groups.setdefault(report.pair[1], []).append(k)
    baselines = []
    if config.run_granger:
        tau_max = config.granger_tau_max
        baselines.append(
            ("granger_min_p", lambda xs, y: [r.min_p for r in granger_many(y, xs, tau_max)])
        )
    if config.run_ccm:
        baselines.append(("ccm_max_r2", lambda xs, y: [r.max_r2 for r in ccm_many(xs, y)]))
    extras: list[dict] = [{} for _ in reports]
    for column, run in baselines:
        for y, members in groups.items():
            try:
                values = run([channels[reports[k].pair[0]] for k in members], channels[y])
            except SigAreaError as exc:
                for k in members:
                    extras[k].setdefault("error", _error_text(exc))
                continue
            for k, value in zip(members, values):
                extras[k][column] = value
    return [replace(report, **extra) for report, extra in zip(reports, extras)]


def _stage_one(
    prepared: Mapping[str, Series | str], pairs: list[tuple[str, str]], config: RunConfig
) -> list[tuple[PairReport, PairReport, PairTrace | None, GraphEdge | None]]:
    """Stage 1 of each name-ordered pair (i, j), in the order given: TS-SAVR
    of the shift profile in both orders, the band test, then theta.

    A pair gives its (i, j) and (j, i) reports, without baseline columns,
    its trace, and its graph edge: None when |SSAD| < theta, else (j, i) if
    the (i, j) verdict leads -1 and (i, j) if not.  Ordering (x, y) gets
    edge=True when theta is set, |SSAD| >= theta and its verdict leads >= 0.
    A pair with a channel that could not be prepared gives two reports
    carrying that channel's error text (i's first), None and None; so does
    a pair whose shift profile, TS-SAVR or band test raises a SigAreaError,
    with the first text raised: ShiftTooLarge where the band test fails too.
    """
    outcomes: list[tuple[PairReport, PairReport, PairTrace | None, GraphEdge | None]] = []
    for i, j in pairs:
        a, b = prepared[i], prepared[j]
        error = a if isinstance(a, str) else b if isinstance(b, str) else None
        if error is None:
            try:
                profile = shift_profile(a, b, config.tau_min, config.tau_max)
                verdicts = (ts_savr(profile), ts_savr(profile.reversed()))
                fwd, rev, actual, band = pair_band_test(a, b, config)
            except SigAreaError as exc:
                error = _error_text(exc)
        if error is not None:
            outcomes.append(
                (PairReport((i, j), error=error), PairReport((j, i), error=error), None, None)
            )
            continue
        abs_ssad = abs(fwd.score)
        in_graph = config.theta is None or abs_ssad >= config.theta
        forward, reverse = [
            PairReport(
                (x, y),
                ssad=result.score,
                abs_ssad=abs_ssad,
                ts_savr=verdict.ratio,
                direction=verdict.label,
                edge=in_graph and config.theta is not None and verdict.leads >= 0,
            )
            for (x, y), result, verdict in zip(((i, j), (j, i)), (fwd, rev), verdicts)
        ]
        source, target = (j, i) if verdicts[0].leads < 0 else (i, j)
        edge = GraphEdge(source, target, verdicts[0].label, abs_ssad) if in_graph else None
        outcomes.append((forward, reverse, PairTrace(actual, band), edge))
    return outcomes


# Stage 1 takes another process only while each process's share of the
# run's shuffled samples (pairs x n_shuffles x T) is at least this many, so
# that the share outlasts starting a spawned worker.  On a 2-vCPU Xeon VM a
# worker took about 0.26 s to start (spawn, import numpy and sigarea) and
# stage 1 about 70 ns per shuffled sample, so a share of 2e7 samples runs
# about 1.4 s, some 5 start-ups.  Sized for the shuffle engine: a band
# that needs no shuffles changes the cost per pair, and this with it.
_SHARE_SAMPLES = 20_000_000


def _process_count(pairs: int, n_shuffles: int, length: int) -> int:
    """How many processes stage 1 runs in: at most one per usable CPU and
    per pair, each with a share of at least _SHARE_SAMPLES shuffled samples,
    and at least 1, which runs inline, even with no pair to score.  A
    daemonic process cannot start workers, so it gets 1."""
    count = max(1, min(_usable_cpus(), pairs, pairs * n_shuffles * length // _SHARE_SAMPLES))
    if count > 1:
        import multiprocessing

        if multiprocessing.current_process().daemon:
            return 1
    return count


def _stage_one_in_processes(
    prepared: Mapping[str, Series | str], pairs: list[tuple[str, str]], config: RunConfig,
    count: int,
) -> list[tuple[PairReport, PairReport, PairTrace | None, GraphEdge | None]]:
    """_stage_one over pairs[r::count] in process r: this process for r = 0
    and a spawned executor worker for each other r.  Every pair is seeded
    from its names alone, so the outcomes, put back in pair order, are
    _stage_one's over all pairs.  Every worker has exited before this
    returns or raises."""
    if count == 1:
        return _stage_one(prepared, pairs, config)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    outcomes: list = [None] * len(pairs)
    with ProcessPoolExecutor(count - 1, mp_context=multiprocessing.get_context("spawn")) as pool:
        shares = {
            r: pool.submit(_stage_one, prepared, pairs[r::count], config) for r in range(1, count)
        }
        outcomes[0::count] = _stage_one(prepared, pairs[0::count], config)
        for r, share in shares.items():
            outcomes[r::count] = share.result()
    return outcomes


def discover(panel: Panel, config: RunConfig | None = None) -> DiscoveryResult:
    """Score every channel pair of the panel.

    Each series is differenced (order 0 = untouched) and scaled; an
    optional white-noise control channel is appended and scaled the same
    way.  Unordered pairs are taken in lexicographic name order, so results
    do not depend on column order, and a pair's reports and trace do not
    depend on the panel's other channels.  Stage 1 (_stage_one: band test,
    TS-SAVR, theta) runs for every pair first; stage 2 then runs each enabled
    baseline over every ordering stage 1 scored.  Stage 1 runs in P
    processes, this one and the P - 1 workers of a ProcessPoolExecutor with
    the spawn start method, each taking every P-th pair, where P is the
    smallest of the usable CPUs, the pairs to score, and pairs x n_shuffles
    x T over _SHARE_SAMPLES (2e7) rounded down; P = 1 (one CPU, one pair, no
    pair of prepared channels, a smaller input, or a daemonic caller) runs
    it inline.  Each pair's null ensemble runs on threads in its process
    once T >= 4096 (see nulltest.null_ensemble).  Every result, trace
    arrays included, is the same for any P and any thread count.
    With P > 1 a calling script must guard its entry point with
    ``if __name__ == "__main__":``, as spawned processes import the main
    module.  An exception in a worker's share is raised here with its own
    type, and a worker that dies raises BrokenProcessPool; if this
    process's own share raises, the running worker shares finish before
    the exception leaves.  A channel that cannot be prepared, or a pair
    that fails stage 1, is reported with its error message and gets no
    baselines; other pairs are unaffected.  A pair whose only failure is an
    optional baseline keeps its scores, edge and trace, with that baseline's
    column empty and its error message set.  Fewer than 2 channels raise
    InsufficientData.  A rho and alpha whose band multiplier is not finite
    and positive at some window of the input (a huge rho overflows t rho^2
    at late windows only) raise ValueError before any channel is prepared.
    """
    config = config or RunConfig()
    if len(panel.series) < 2:
        raise InsufficientData("need at least 2 channels to form pairs")
    _check_every_window(panel.length - config.difference_order, config)
    prepared = _prepare(panel, config)
    pairs = list(combinations(sorted(prepared), 2))
    ready = sum(not isinstance(s, str) for s in prepared.values())
    count = _process_count(ready * (ready - 1) // 2, config.n_shuffles, panel.length)
    outcomes = _stage_one_in_processes(prepared, pairs, config, count)

    reports = [report for fwd, rev, _, _ in outcomes for report in (fwd, rev)]
    traces = {p: trace for p, (_, _, trace, _) in zip(pairs, outcomes) if trace is not None}
    edges = [edge for _, _, _, edge in outcomes if edge is not None]

    reports = _with_baselines(reports, prepared, config)
    return DiscoveryResult(tuple(prepared), reports, edges, traces, config)


def rank_pairs(reports: tuple[PairReport, ...] | list[PairReport]) -> list[PairReport]:
    """Unordered pairs by descending confidence.

    Takes the output of discover (or any report list), keeps one
    representative per unordered pair (the lexicographically forward one),
    and sorts by descending abs_ssad with ties broken by pair name.
    Failed pairs sort last.
    """
    if not reports:
        raise ValueError("no reports to rank")
    forward = [r for r in reports if r.pair[0] < r.pair[1]]
    return sorted(
        forward,
        key=lambda r: (r.abs_ssad is None, -(r.abs_ssad or 0.0), r.pair),
    )
