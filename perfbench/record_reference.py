"""Record the reference values the benchmark's correctness gates compare to.

Run it on the commit whose behaviour is the reference, from the repository
root:

    python3 perfbench/record_reference.py --seeds 32

For every workload and each seed in 0..seeds-1 it makes one call, checks the
planted links and stores the sha256 of report.json and of all the files the
call wrote; one traced call per workload at seed 0 gives the exact work
counts.  It also stores the sha256 of the package sources, which decides
whether those counts apply.  The result replaces perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from child import REFERENCE, ROOT, WORKLOADS, Runner, setup, source_digest
from tracing import Tracer, call_metrics

# Work counts a traced run must reproduce exactly on the reference code.
EXACT_COUNT_NAMES = {
    "panel_wide": ("rng.permutation.calls", "signature.signed_area_sequence.calls"),
    "long_pair": ("signature.pair_area.calls",),
    "cli_full": ("baselines.ccm.calls",),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args(argv)

    work_dir = os.path.join(ROOT, ".perfbench-out", "record")
    unchecked = {"report_sha256": {}, "outputs_sha256": {}}
    reference = {
        "source_sha256": source_digest(), "report_sha256": {}, "outputs_sha256": {},
        "exact_counts": {},
    }
    try:
        for workload in WORKLOADS:
            reports = reference["report_sha256"][workload] = {}
            outputs = reference["outputs_sha256"][workload] = {}
            for seed in range(args.seeds):
                sigarea, inputs, _ = setup(workload, seed, work_dir)
                runner = Runner(sigarea, workload, inputs, seed, work_dir, unchecked)
                if seed == 0:
                    tracer = Tracer()
                    wall, _ = runner.call(tracer)
                    counts, _ = call_metrics(tracer, wall)
                    reference["exact_counts"][workload] = {
                        name: counts[name] for name in EXACT_COUNT_NAMES[workload]
                    }
                else:
                    runner.call()
                (digests,) = runner.digests
                if digests is None:
                    print(f"{workload} seed {seed}: not recorded: {runner.problems}")
                    continue
                reports[str(seed)], outputs[str(seed)] = digests
                print(f"{workload} seed {seed}: {digests[0]}", flush=True)
                for problem in runner.problems:
                    print(f"  fails its planted-link check: {problem}", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
