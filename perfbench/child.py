"""Run one benchmark workload in this process and print its measurements.

run.py starts this script once per workload run, in a fresh process, and
reads the JSON object it prints as its last line of standard output:

    python3 perfbench/child.py --workload panel_wide --seed 0 --seconds 10 \
        --trace 0 --work-dir .perfbench-out/work

With ``--setup-only`` it imports the package, builds the inputs and reports
only the set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import nullcontext

from tracing import CALL_SITES, COUNT_METRICS, SETUP_SITES, Tracer, call_metrics, run_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

WORKLOADS = ("panel_wide", "long_pair", "cli_full")
PANEL_CHANNELS = 12
PANEL_LENGTH = 1000
LONG_PAIR_LENGTH = 10000
CLI_LENGTH = 1000

# Planted-link gates.  White-noise SSAD has a per-pair spread of about
# 0.08, so the largest |SSAD| of 66 pairs reaches 0.31 on working code
# (seeds 0-31); 0.45 is over 5 spreads out.  The mean |SSAD| (about 0.06)
# catches a band that is off for every pair.  The planted links score
# SSAD(X,Y) 0.91 on long_pair and 0.74, 0.45 on cli_full's top two pairs.
PANEL_MAX_ABS_SSAD = 0.45
PANEL_MEAN_ABS_SSAD = 0.12
LONG_PAIR_MIN_SSAD = 0.55


def source_digest() -> str:
    """sha256 over the package sources, to tell which code was measured."""
    package = os.path.join(SRC, "sigarea")
    h = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                data = handle.read()
            h.update(f"{name}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def setup(workload: str, seed: int, work_dir: str, tracer: Tracer | None = None):
    """Import sigarea and build the workload's inputs; return (sigarea, inputs, seconds).

    numpy is loaded before the clock starts.  Its import, mostly loading the
    BLAS shared library, took anywhere from 40 to 160 ms on the same machine
    within an hour, which no change to this repository can affect and which
    would swamp the package's own import and input building.
    """
    import numpy  # noqa: F401

    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import sigarea
    import sigarea.cli

    if not os.path.abspath(sigarea.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported sigarea from {sigarea.__file__}, not from {SRC}")
    with nullcontext() if tracer is None else tracer.installed(SETUP_SITES):
        if workload == "panel_wide":
            inputs = sigarea.Panel(tuple(
                sigarea.gen_white_noise(
                    PANEL_LENGTH, sigarea.rng.derive_seed(seed, "bench", k), f"C{k:02d}"
                )
                for k in range(PANEL_CHANNELS)
            ))
        elif workload == "long_pair":
            inputs = sigarea.gen_two_species_sync(LONG_PAIR_LENGTH)
        else:
            os.makedirs(work_dir, exist_ok=True)
            inputs = os.path.join(work_dir, "four_species.csv")
            sigarea.write_csv(sigarea.gen_four_species(CLI_LENGTH), inputs)
    return sigarea, inputs, time.perf_counter() - start


def workload_call(sigarea, workload: str, inputs, seed: int, out_dir: str):
    """The timed operation; returns a DiscoveryResult, or None for the CLI."""
    if workload == "cli_full":
        code = sigarea.cli.main([
            "analyze", inputs, "--out", out_dir, "--noise-channel", "--granger",
            "--ccm", "--seed", str(seed),
        ])
        if code != 0:
            raise RuntimeError(f"sigarea analyze exited with code {code}")
        return None
    return sigarea.discover(inputs, sigarea.RunConfig(seed=seed))


def planted_links(workload: str, pairs: list[dict]) -> list[str]:
    """Problems with the links each workload plants (or must not find)."""
    by_pair = {(p["i"], p["j"]): p for p in pairs}
    if workload == "panel_wide":
        scores = [p.get("ssad") for p in pairs]
        if None in scores:
            return ["a white-noise pair has no SSAD"]
        worst = max(abs(s) for s in scores)
        mean = sum(abs(s) for s in scores) / len(scores)
        problems = []
        if worst > PANEL_MAX_ABS_SSAD:
            problems.append(f"white-noise max |SSAD| {worst} > {PANEL_MAX_ABS_SSAD}")
        if mean > PANEL_MEAN_ABS_SSAD:
            problems.append(f"white-noise mean |SSAD| {mean} > {PANEL_MEAN_ABS_SSAD}")
        return problems
    if workload == "long_pair":
        xy = by_pair.get(("X", "Y"), {})
        if xy.get("ssad") is None or xy["ssad"] < LONG_PAIR_MIN_SSAD:
            return [f"SSAD(X,Y) {xy.get('ssad')} < {LONG_PAIR_MIN_SSAD}"]
        if xy.get("direction") != "X->Y":
            return [f"direction of (X,Y) is {xy.get('direction')}, expected X->Y"]
        return []
    forward = [p for p in pairs if p["i"] < p["j"]]
    ranked = sorted(
        forward,
        key=lambda p: (p.get("abs_ssad") is None, -(p.get("abs_ssad") or 0.0), p["i"], p["j"]),
    )
    top = [(p["i"], p["j"]) for p in ranked[:2]]
    problems = []
    if top != [("V", "X"), ("X", "Y")]:
        problems.append(f"top two pairs are {top}, expected (V,X) then (X,Y)")
    for (i, j) in (("V", "X"), ("X", "Y")):
        direction = by_pair.get((i, j), {}).get("direction")
        if direction != f"{i}->{j}":
            problems.append(f"direction of ({i},{j}) is {direction}, expected {i}->{j}")
    return problems


def check_outputs(workload: str, seed: int, out_dir: str, reference: dict) -> dict:
    """Correctness gate of one call: output digests plus planted links.

    Two digests are compared with the reference for this workload and seed:
    report.json alone, and every file the call wrote (report.json, pairs.csv
    and the per-pair band traces), which also catches a band that moved
    without flipping any window's score.
    """
    with open(os.path.join(out_dir, "report.json"), "rb") as handle:
        report = handle.read()
    outputs = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            data = handle.read()
        outputs.update(f"{name}\0{len(data)}\0".encode())
        outputs.update(data)
    digests = {
        "report_sha256": hashlib.sha256(report).hexdigest(),
        "outputs_sha256": outputs.hexdigest(),
    }
    pairs = json.loads(report)["pairs"]
    problems = planted_links(workload, pairs)
    for key, digest in digests.items():
        expected = reference[key].get(workload, {}).get(str(seed))
        if expected is not None and digest != expected:
            problems.append(f"{key} {digest} differs from the reference {expected}")
    forward = [p for p in pairs if p["i"] < p["j"]]
    return {
        "digests": (digests["report_sha256"], digests["outputs_sha256"]),
        "pairs": len(forward),
        "pair_errors": sum("error" in p for p in forward),
        "problems": problems,
    }


class Runner:
    """Makes checked workload calls and tallies them."""

    def __init__(self, sigarea, workload, inputs, seed, work_dir, reference):
        self.sigarea, self.workload, self.inputs = sigarea, workload, inputs
        self.seed, self.reference = seed, reference
        self.out_dir = os.path.join(work_dir, "out")
        self.attempted = self.failed = self.pairs = self.pair_errors = 0
        self.problems: list[str] = []
        # (report.json sha256, all-outputs sha256) of each call; None if it failed
        self.digests: set[tuple[str, str] | None] = set()

    def call(self, tracer: Tracer | None = None) -> tuple[float, float]:
        """One checked call; returns its (wall, cpu) seconds."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        result = error = None
        with nullcontext() if tracer is None else tracer.installed(CALL_SITES):
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            try:
                result = workload_call(
                    self.sigarea, self.workload, self.inputs, self.seed, self.out_dir
                )
            except Exception as exc:  # a failed call is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        if error is None:
            try:
                if result is not None:
                    self.sigarea.write_report(result, self.out_dir)
                outcome = check_outputs(self.workload, self.seed, self.out_dir, self.reference)
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable outputs: {type(exc).__name__}: {exc}"
        if error is not None:
            outcome = {"digests": None, "pairs": 0, "pair_errors": 0, "problems": [error]}
        self.digests.add(outcome["digests"])
        self.pairs += outcome["pairs"]
        self.pair_errors += outcome["pair_errors"]
        if outcome["problems"]:
            self.failed += 1
            self.problems.extend(p for p in outcome["problems"] if p not in self.problems)
        return wall, cpu


def environment() -> dict:
    import numpy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    threads = {
        var: os.environ.get(var, "unset")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": threads,
        "machine": platform.machine(),
        "source_sha256": source_digest(),
    }


def run_untraced(runner: Runner, seconds: float) -> dict:
    runner.call()  # warm-up: caches, lazy imports, first-touch allocation
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu = runner.call()
        walls.append(wall)
        cpus.append(cpu)
    return {"wall_s": walls, "cpu_s": cpus}


def run_traced(runner: Runner, seconds: float, setup_tracer: Tracer, spans_path: str) -> dict:
    """Alternate untraced and traced calls; per-layer metrics from the traced ones."""
    runner.call()
    untraced, traced, per_call, ssad_durations = [], [], [], []
    start = time.perf_counter()
    tracer = None
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.call()[0])
        tracer = Tracer()
        wall, _ = runner.call(tracer)
        traced.append(wall)
        metrics, durations = call_metrics(tracer, wall)
        per_call.append(metrics)
        ssad_durations += durations
    tracer.write_spans(spans_path)
    problems = []
    for name in COUNT_METRICS:
        if len({call[name] for call in per_call}) != 1:
            problems.append(f"{name} differs between traced calls")
    metrics = run_metrics(per_call, ssad_durations, setup_tracer, traced, untraced)
    expected = runner.reference.get("exact_counts", {}).get(runner.workload, {})
    if runner.reference.get("source_sha256") == source_digest():
        for name, value in expected.items():
            if metrics[name] != value:
                problems.append(f"{name} = {metrics[name]}, the reference code gives {value}")
    return {
        "per_layer": metrics,
        "trace_problems": problems,
        "missing_sites": sorted(set(tracer.missing)),
        "traced_wall_s": traced,
        "untraced_wall_s": untraced,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup_tracer = Tracer() if args.trace else None
    sigarea, inputs, setup_s = setup(args.workload, args.seed, args.work_dir, setup_tracer)
    out: dict = {"setup_s": setup_s}
    if not args.setup_only:
        runner = Runner(sigarea, args.workload, inputs, args.seed, args.work_dir, load_reference())
        if args.trace:
            out.update(run_traced(runner, args.seconds, setup_tracer, args.spans_out))
        else:
            out.update(run_untraced(runner, args.seconds))
        out.update(
            attempted=runner.attempted,
            failed=runner.failed,
            problems=runner.problems,
            pairs=runner.pairs,
            pair_errors=runner.pair_errors,
            digests=sorted(d for d in runner.digests if d is not None),
            same_report=len(runner.digests) == 1,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            environment=environment(),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
