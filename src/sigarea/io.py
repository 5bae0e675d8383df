"""CSV ingestion and report emission.

CSV is the one tabular format (inputs, generated panels, trace outputs);
JSON carries the structured run report.  Every float is serialized with 17
significant digits, which round-trips IEEE double exactly, and every file
is written atomically (temp file + rename in the target directory) so a
crashed run never leaves a half-written report behind.

The JSON emitter is a small recursive writer rather than json.dump because
the float formatting must be byte-stable across runs and platforms; the
stdlib encoder does not let the '%.17g' policy be applied per value.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import tempfile
from typing import Mapping

import numpy as np

from .errors import IoError, NonNumericCell, ParseError, RaggedRows
from .pipeline import DiscoveryResult, PairReport
from .series import Panel, Series, interpolate_uniform

FLOAT_FORMAT = "%.17g"


def format_float(value: float) -> str:
    """17-significant-digit decimal form; exact float64 round-trip."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return FLOAT_FORMAT % value


def _to_json(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in value) + "]"
    if isinstance(value, Mapping):
        items = (f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_csv(
    path: str, interpolation_step: float | None = None
) -> tuple[Panel, np.ndarray | None]:
    """Load a panel from a headed CSV file.

    The header names the channels; a first column named exactly "time" is
    treated as timestamps rather than a channel.  With a time column and an
    interpolation step, every channel is linearly resampled onto the
    uniform grid and the returned time array is that grid.  A file that
    is not UTF-8, or that the csv module cannot read (a field over its
    field size limit), raises ParseError.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            rows = [row for row in csv.reader(handle) if row]
    except (UnicodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if len(set(header)) != len(header):
        raise ParseError(f"{path}: duplicate column names in header")
    width = len(header)
    body = np.empty((len(rows) - 1, width))
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise RaggedRows(
                f"{path}: line {r} has {len(row)} cells, header has {width}"
            )
        for c, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise NonNumericCell(
                    f"{path}: line {r}, column {header[c]!r}: "
                    f"{cell.strip()!r} is not a finite number"
                )
            body[r - 2, c] = value
    if body.shape[0] == 0:
        raise ParseError(f"{path}: no data rows")

    has_time = header[0] == "time"
    times = body[:, 0] if has_time else None
    names = header[1:] if has_time else header
    columns = body[:, 1:] if has_time else body
    if not names:
        raise ParseError(f"{path}: no data columns besides time")
    if interpolation_step is not None:
        if times is None:
            raise ParseError(
                f"{path}: interpolation requested but there is no time column"
            )
        series = tuple(
            interpolate_uniform(times, columns[:, k], interpolation_step, name)
            for k, name in enumerate(names)
        )
        grid = times[0] + interpolation_step * np.arange(len(series[0]))
        return Panel(series), grid
    series = tuple(Series(name, columns[:, k]) for k, name in enumerate(names))
    return Panel(series), times


def write_csv(panel: Panel, path: str, times: np.ndarray | None = None) -> None:
    """Write a panel as a headed CSV, optionally with a leading time column,
    that read_csv reads back exactly; a name it would not raises ValueError."""
    if times is not None and len(times) != panel.length:
        raise ValueError("time column length does not match the panel")
    names = panel.names
    if "time" in (names if times is not None else names[:1]):
        raise ValueError("a channel named 'time' would not read back as a channel")
    if any(n != n.strip() for n in names):
        raise ValueError("a channel name with surrounding whitespace would not read back")
    header = (["time"] if times is not None else []) + list(names)
    lines = [",".join(map(_csv_quote, header))]
    columns = [s.values for s in panel.series]
    if times is not None:
        columns = [np.asarray(times, dtype=np.float64)] + columns
    for r in range(panel.length):
        lines.append(",".join(format_float(col[r]) for col in columns))
    _atomic_write(path, "\n".join(lines) + "\n")


# PairReport's fields in order, its pair split into i and j.
_PAIR_COLUMNS = ("i", "j", *(f.name for f in dataclasses.fields(PairReport)[1:]))
# report.json leaves out the baseline and error keys of a pair that lacks them.
_JSON_ALWAYS = _PAIR_COLUMNS[:7]


def _pair_record(report: PairReport) -> dict:
    """One pairs.csv row as a column -> value mapping, None where unset."""
    values = (*report.pair, *(getattr(report, c) for c in _PAIR_COLUMNS[2:]))
    return dict(zip(_PAIR_COLUMNS, values))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return _csv_quote(value)
    return format_float(value)


def _safe_name(name: str) -> str:
    """One-to-one file-name form of a channel name, free of ``_``.

    ASCII letters and digits stay; every other character becomes ``-``
    plus two lowercase hex digits per UTF-8 byte (``_`` -> ``-5f``, a space
    -> ``-20``, ``é`` -> ``-c3-a9``).  Every ``-`` in the result starts an
    escape, so the name can be read back, and with no ``_`` in either part
    ``trace_<i>_<j>.csv`` names each pair's file once.
    """
    return "".join(
        ch if ch.isascii() and ch.isalnum()
        else "".join(f"-{byte:02x}" for byte in ch.encode("utf-8", "surrogatepass"))
        for ch in name
    )


def write_report(result: DiscoveryResult, out_dir: str) -> list[str]:
    """Serialize a discovery run into ``out_dir``.

    Emits report.json (config, nodes, per-ordered-pair scores, and the
    nodes and edges again under "graph"), pairs.csv (the same scores as a
    flat table, one column per PairReport field), and one
    trace_<i>_<j>.csv per scored pair with columns window_index
    (1-based, the t of the band multiplier), actual_area, mu, lower,
    upper.  Channel names made of ASCII letters and digits appear as they
    are in <i> and <j>; other characters are escaped (see _safe_name), so
    distinct pairs never share a file.  Returns the written paths.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc

    written: list[str] = []
    document = {
        # The band always pools; the key stays until the report digests are
        # next re-recorded, so report.json keeps its bytes.
        "config": {**dataclasses.asdict(result.config), "pooled": True},
        "nodes": list(result.nodes),
        "pairs": [
            {k: v for k, v in _pair_record(r).items()
             if v is not None or k in _JSON_ALWAYS}
            for r in result.reports
        ],
        "graph": {
            "nodes": list(result.nodes),
            "edges": [dataclasses.asdict(e) for e in result.edges],
        },
    }
    report_path = os.path.join(out_dir, "report.json")
    _atomic_write(report_path, _to_json(document) + "\n")
    written.append(report_path)

    pairs_lines = [",".join(_PAIR_COLUMNS)]
    for report in result.reports:
        pairs_lines.append(",".join(map(_csv_cell, _pair_record(report).values())))
    pairs_path = os.path.join(out_dir, "pairs.csv")
    _atomic_write(pairs_path, "\n".join(pairs_lines) + "\n")
    written.append(pairs_path)

    for pair, trace in result.traces.items():
        name = f"trace_{_safe_name(pair[0])}_{_safe_name(pair[1])}.csv"
        band = trace.band
        columns = (trace.actual.values, band.mu, band.lower, band.upper)
        rows = ["window_index,actual_area,mu,lower,upper"]
        for w in range(trace.actual.count):
            rows.append(",".join([str(w + 1)] + [format_float(arr[w]) for arr in columns]))
        trace_path = os.path.join(out_dir, name)
        _atomic_write(trace_path, "\n".join(rows) + "\n")
        written.append(trace_path)
    return written


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell
