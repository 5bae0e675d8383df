"""In-memory span tracing of sigarea's public functions, from outside the package.

Each traced site is a (module, attribute) pair naming a function where its
caller looks it up: ``sigarea.nulltest.permutation`` is wrapped rather than
``sigarea.rng.permutation``, because ``null_ensemble`` resolves the name in
its own module's globals.  Wrappers are installed only around a traced call
and removed afterwards, so untraced calls run the unmodified package.

A span is ``[name, start, end, parent_index, cpu_seconds]``; spans stay in
memory until the benchmark writes them out.  Self time is a span's duration
minus the time covered by its direct children.  The package is single
threaded at the Python level, so children of one span never overlap and
their durations simply add.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name, record process CPU time)
CALL_SITES = (
    ("sigarea", "discover", "pipeline.discover", False),
    ("sigarea.cli", "main", "cli.main", False),
    ("sigarea.cli", "discover", "pipeline.discover", False),
    ("sigarea.io", "read_csv", "io.read_csv", False),
    ("sigarea.io", "write_report", "io.write_report", False),
    ("sigarea.pipeline", "derive_seed", "rng.derive_seed", False),
    ("sigarea.pipeline", "scale_unit_range", "series.scale_unit_range", False),
    ("sigarea.pipeline", "ssad_pair_detail", "nulltest.ssad_pair_detail", False),
    ("sigarea.pipeline", "shift_profile", "direction.shift_profile", False),
    ("sigarea.pipeline", "ts_savr", "direction.ts_savr", False),
    ("sigarea.pipeline", "granger", "baselines.granger", True),
    ("sigarea.pipeline", "ccm", "baselines.ccm", False),
    ("sigarea.nulltest", "signed_area_sequence", "signature.signed_area_sequence", False),
    ("sigarea.nulltest", "null_ensemble", "nulltest.null_ensemble", False),
    ("sigarea.nulltest", "derive_seed", "rng.derive_seed", False),
    ("sigarea.nulltest", "permutation", "rng.permutation", False),
    ("sigarea.nulltest", "confidence_band", "nulltest.confidence_band", False),
    ("sigarea.nulltest", "ssad", "nulltest.ssad", False),
    ("sigarea.direction", "time_shift_pair", "series.time_shift_pair", False),
    ("sigarea.direction", "pair_area", "signature.pair_area", False),
)

# Generators the benchmark itself calls while building inputs.
SETUP_SITES = (
    ("sigarea", "gen_white_noise", "synth.gen_white_noise", False),
    ("sigarea", "gen_two_species_sync", "synth.gen_two_species_sync", False),
    ("sigarea", "gen_four_species", "synth.gen_four_species", False),
)

_FLOAT_BYTES = 8


def _bound(function, args, kwargs) -> dict:
    bound = inspect.signature(function).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_ensemble(tracer, function, args, kwargs, result) -> None:
    # null_ensemble gathers one shuffled copy of each series per shuffle.
    arg = _bound(function, args, kwargs)
    tracer.counters["nulltest.ensemble_bytes_computed"] += (
        2 * arg["n_shuffles"] * len(arg["a"]) * _FLOAT_BYTES
    )


def _count_ccm(tracer, function, args, kwargs, result) -> None:
    # ccm materialises every pairwise manifold difference (n x n x E) and
    # the n x n distance matrix.
    arg = _bound(function, args, kwargs)
    n_points = len(arg["x"]) - (arg["embed_dim"] - 1) * arg["lag"]
    tracer.counters["baselines.ccm.bytes_computed"] += (
        n_points * n_points * (arg["embed_dim"] + 1) * _FLOAT_BYTES
    )


def _count_report(tracer, function, args, kwargs, result) -> None:
    tracer.counters["io.files_written"] += len(result)
    tracer.counters["io.bytes_written"] += sum(os.path.getsize(p) for p in result)


def _count_pairs(tracer, function, args, kwargs, result) -> None:
    forward = [r for r in result.reports if r.pair[0] < r.pair[1]]
    tracer.counters["pipeline.pairs_attempted"] += len(forward)
    tracer.counters["pipeline.pairs_failed"] += sum(r.error is not None for r in forward)


_HOOKS = {
    "nulltest.null_ensemble": _count_ensemble,
    "baselines.ccm": _count_ccm,
    "io.write_report": _count_report,
    "pipeline.discover": _count_pairs,
}


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, function, name: str, with_cpu: bool):
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self._stack
        clock, cpu_clock = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            cpu0 = cpu_clock() if with_cpu else 0.0
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                if with_cpu:
                    span[4] = cpu_clock() - cpu0
                stack.pop()
            if hook is not None:
                hook(self, function, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, sites):
        """Wrap every site for the duration of the block, then restore it.

        A site whose module or attribute no longer exists is skipped and
        listed in ``missing``, so its layer reads zero instead of the run
        crashing.
        """
        saved = []
        try:
            for module_name, attr, name, with_cpu in sites:
                try:
                    owner = importlib.import_module(module_name)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, with_cpu))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def by_name(self) -> dict[str, dict]:
        """Per span name: call count, durations, total and self seconds, CPU."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for index, (name, start, end, _, cpu) in enumerate(self.spans):
            row = table.setdefault(
                name, {"calls": 0, "durations": [], "s": 0.0, "self_s": 0.0, "cpu_s": 0.0}
            )
            row["calls"] += 1
            row["durations"].append(end - start)
            row["s"] += end - start
            row["self_s"] += end - start - child_time[index]
            row["cpu_s"] += cpu or 0.0
        return table

    def write_spans(self, path: str) -> None:
        """One CSV row per span: index, name, start, end, parent index."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("index,name,start,end,parent\n")
            for index, (name, start, end, parent, _) in enumerate(self.spans):
                handle.write(f"{index},{name},{start!r},{end!r},{parent}\n")


# Per-layer metric name -> unit.  Every traced run reports all of them; a
# layer a workload never calls reads 0.
LAYER_UNITS = {
    "rng.permutation.calls": "count",
    "rng.permutation.s": "s",
    "rng.permutation.share": "ratio",
    "rng.derive_seed.calls": "count",
    "nulltest.ssad_pair_detail.s.p50": "s",
    "nulltest.ssad_pair_detail.s.p90": "s",
    "nulltest.null_ensemble.s": "s",
    "nulltest.null_ensemble.self_s": "s",
    "nulltest.confidence_band.s": "s",
    "nulltest.ssad.s": "s",
    "nulltest.ensemble_bytes_computed": "B",
    "signature.signed_area_sequence.calls": "count",
    "signature.signed_area_sequence.calls_per_pair": "calls/pair",
    "signature.signed_area_sequence.s": "s",
    "signature.pair_area.calls": "count",
    "signature.pair_area.s": "s",
    "direction.shift_profile.s": "s",
    "direction.ts_savr.s": "s",
    "series.scale_unit_range.s": "s",
    "series.time_shift_pair.calls": "count",
    "series.time_shift_pair.s": "s",
    "baselines.granger.calls": "count",
    "baselines.granger.s": "s",
    "baselines.granger.cpu_s": "s",
    "baselines.ccm.calls": "count",
    "baselines.ccm.s": "s",
    "baselines.ccm.bytes_computed": "B",
    "io.read_csv.s": "s",
    "io.write_report.s": "s",
    "io.bytes_written": "B",
    "io.files_written": "count",
    "synth.s": "s",
    "pipeline.discover.s": "s",
    "pipeline.discover.self_s": "s",
    "pipeline.pairs_attempted": "count",
    "pipeline.pairs_failed": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Metrics that are counts of work: every traced call of a run must
# reproduce them exactly.
COUNT_METRICS = tuple(
    name for name, unit in LAYER_UNITS.items() if unit in ("count", "B", "calls/pair")
)


_SPAN_FIELDS = ("calls", "s", "self_s", "cpu_s")
_COUNTERS = (
    "nulltest.ensemble_bytes_computed", "baselines.ccm.bytes_computed", "io.bytes_written",
    "io.files_written", "pipeline.pairs_attempted", "pipeline.pairs_failed",
)


def call_metrics(tracer: Tracer, wall_s: float) -> tuple[dict[str, float], list[float]]:
    """Per-layer metrics of one traced workload call lasting ``wall_s``,
    and the durations of its ssad_pair_detail calls.

    A metric named ``<span>.<field>`` reads that field of the span table.
    """
    table = tracer.by_name()
    empty = {"calls": 0, "durations": [], "s": 0.0, "self_s": 0.0, "cpu_s": 0.0}
    out: dict[str, float] = {}
    for metric in LAYER_UNITS:
        span, _, field = metric.rpartition(".")
        if field in _SPAN_FIELDS:
            out[metric] = table.get(span, empty)[field]
        elif metric in _COUNTERS:
            out[metric] = tracer.counters[metric]
    out["rng.permutation.share"] = out["rng.permutation.s"] / wall_s
    pairs = out["pipeline.pairs_attempted"]
    out["signature.signed_area_sequence.calls_per_pair"] = (
        out["signature.signed_area_sequence.calls"] / pairs if pairs else 0.0
    )
    return out, table.get("nulltest.ssad_pair_detail", empty)["durations"]


def run_metrics(
    per_call: list[dict], ssad_durations: list[float], setup_tracer: Tracer,
    traced_walls: list[float], untraced_walls: list[float],
) -> dict[str, float]:
    """Combine the traced calls of one run into the reported per-layer metrics.

    Counts come from the first call (the caller checks that the others agree);
    times are medians over calls; the ssad_pair_detail percentiles pool the
    durations of every call.
    """
    out: dict[str, float] = {}
    for name in per_call[0]:
        values = [call[name] for call in per_call]
        out[name] = values[0] if name in COUNT_METRICS else statistics.median(values)
    durations = sorted(ssad_durations)
    if durations:
        out["nulltest.ssad_pair_detail.s.p50"] = statistics.median(durations)
        out["nulltest.ssad_pair_detail.s.p90"] = _percentile(durations, 0.9)
    else:
        out["nulltest.ssad_pair_detail.s.p50"] = 0.0
        out["nulltest.ssad_pair_detail.s.p90"] = 0.0
    out["synth.s"] = sum(
        row["s"] for name, row in setup_tracer.by_name().items() if name.startswith("synth.")
    )
    out["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    return {name: out[name] for name in LAYER_UNITS}


def _percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile of an ascending list."""
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
