"""Benchmark of sigarea's pairwise discovery; see perfbench/README.md.

    python3 perfbench/run.py --workload panel_wide --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each run starts the workload in a fresh child process (perfbench/child.py),
after a few set-up-only child processes that time ``import sigarea`` plus
input building.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).  A full record, with the raw samples and the environment, is
written to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracing import LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("panel_wide", "long_pair", "cli_full")

SETUP_PROBES = 9
# A run must end within 180 s; leave room for start-up and clean-up.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# Reported alongside, but not as BENCHMARK.json metrics: on working code
# they are 0, and a metric compared as a share of its median must not be.
ZERO_ON_SUCCESS_UNITS = {"pair_error_rate": "ratio", "failed_ops_ratio": "ratio"}


class BenchError(Exception):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and return the JSON object it printed last."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *args], cwd=ROOT, capture_output=True,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child process killed after {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child process exited with code {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("child process printed nothing")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """Measure one workload; return its result line and human-readable lines.

    The full record, with raw samples and the environment, goes to OUT_DIR.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}-{workload}")
    common = ["--workload", workload, "--seed", str(seed), "--work-dir", work_dir]
    tag = f"{workload}-seed{seed}-trace{trace}"
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        probes = []
        if not trace:
            probes = [
                run_child(common + ["--seconds", "0", "--setup-only"], deadline)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
        spans = ["--spans-out", os.path.join(OUT_DIR, f"{tag}-spans.csv.gz")] if trace else []
        child = run_child(
            common + ["--seconds", str(seconds), "--trace", str(trace)] + spans, deadline
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = list(child["problems"])
    if not child["same_report"]:
        problems.append(f"calls wrote different reports: {child['digests']}")
    problems += child.get("trace_problems", [])
    lines = [f"{workload} seed={seed} trace={trace} calls={child['attempted']} "
             f"failed={child['failed']}"]
    lines += [f"problem: {p}" for p in problems]
    if trace:
        metrics = child["per_layer"]
        units = LAYER_UNITS
        lines.append(f"untraced wall_s {spread(child['untraced_wall_s'])}; "
                     f"traced wall_s {spread(child['traced_wall_s'])}")
        if child["missing_sites"]:
            lines.append(f"not traced, no longer in the package: {child['missing_sites']}")
    else:
        wall = statistics.median(child["wall_s"])
        pairs_per_call = child["pairs"] / child["attempted"]
        setups = probes + [child["setup_s"]]
        metrics = {
            "wall_s": wall,
            "pairs_per_s": pairs_per_call / wall,
            "cpu_s": statistics.median(child["cpu_s"]),
            "peak_rss_mb": child["peak_rss_mb"],
            "setup_s": statistics.median(setups),
            "pair_error_rate": child["pair_errors"] / child["pairs"] if child["pairs"] else 1.0,
            "failed_ops_ratio": child["failed"] / child["attempted"],
        }
        units = {**END_TO_END_UNITS, **ZERO_ON_SUCCESS_UNITS}
        lines.append(f"wall_s samples {spread(child['wall_s'])}; cpu_s samples "
                     f"{spread(child['cpu_s'])}; setup_s samples {spread(setups)}")
    lines += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
    env, commit = child["environment"], git_commit()
    lines.append(
        f"environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas'].get('name')} {env['blas'].get('version')} "
        f"threads={env['blas_thread_env']} commit={commit} "
        f"sources={env['source_sha256'][:12]}"
    )

    result = {
        "correct": child["failed"] == 0 and not problems,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in metrics if name not in ZERO_ON_SUCCESS_UNITS
        },
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": commit, "problems": problems, "result": result,
        "all_metrics": metrics, "child": child, "setup_probes_s": probes,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sigarea", "__init__.py")):
        print(f"error: no sigarea sources under {ROOT}/src", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            result, lines = run_workload(workload, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            results[workload] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
