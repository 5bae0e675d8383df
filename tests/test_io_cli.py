"""CSV/JSON round trips and the command-line surface.

CLI tests call main() in-process and assert on exit codes, so the exit-code
contract (0 ok, 1 usage, 2 data) is pinned without spawning a process for
every case; one smoke test goes through a real interpreter.
"""

import csv
import dataclasses
import json
import os
import string
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sigarea
from sigarea import (
    IoError,
    NonNumericCell,
    Panel,
    ParseError,
    RaggedRows,
    RunConfig,
    Series,
    discover,
    gen_two_species_sync,
    gen_white_noise,
    gen_four_species,
    read_csv,
    window_count,
    write_csv,
    write_report,
)
from sigarea.io import _safe_name, format_float
from sigarea.rng import derive_seed
from sigarea import cli, nulltest


def test_format_float_round_trips_exactly():
    rng = np.random.default_rng(11)
    samples = list(rng.normal(size=50)) + [1e-300, 1e300, 0.1, -0.0, 2.0**-1074]
    for value in samples:
        assert float(format_float(float(value))) == float(value)
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_csv_round_trip_is_exact(tmp_path):
    # Names with CSV delimiters, quotes and line breaks are quoted in the
    # header; "time" after the first column is an ordinary channel.
    names = ("A", "B", "a,b", 'say "hi"', "line\nbreak", "carriage\rreturn", "time")
    panel = Panel(
        tuple(gen_white_noise(40, derive_seed(30, k), name=n) for k, n in enumerate(names))
    )
    path = str(tmp_path / "panel.csv")
    write_csv(panel, path)
    loaded, times = read_csv(path)
    assert times is None
    assert loaded.names == names
    for name in loaded.names:
        assert np.array_equal(loaded.get(name).values, panel.get(name).values)


def test_write_csv_rejects_names_that_would_not_read_back(tmp_path):
    path = str(tmp_path / "panel.csv")
    time = gen_white_noise(5, derive_seed(31, 0), name="time")
    a = gen_white_noise(5, derive_seed(31, 1), name="A")
    # First, it would read back as the time column; with times=, repeat it.
    with pytest.raises(ValueError, match="'time'"):
        write_csv(Panel((time, a)), path)
    with pytest.raises(ValueError, match="'time'"):
        write_csv(Panel((a, time)), path, times=np.arange(5.0))
    # read_csv strips the header cells.
    for name in (" A", "A\t", "\r"):
        with pytest.raises(ValueError, match="whitespace"):
            write_csv(Panel((Series(name, [1.0, 2.0]),)), path)
    assert not os.path.exists(path)


def test_csv_time_column_and_interpolation(tmp_path):
    times = np.array([0.0, 2.0, 3.0, 7.0])
    panel = Panel((Series("A", [0.0, 4.0, 6.0, 14.0]),))
    path = str(tmp_path / "timed.csv")
    write_csv(panel, path, times=times)
    loaded, loaded_times = read_csv(path)
    assert np.array_equal(loaded_times, times)
    assert np.array_equal(loaded.get("A").values, panel.get("A").values)

    resampled, grid = read_csv(path, interpolation_step=1.0)
    assert np.array_equal(grid, np.arange(8.0))
    # the source is y = 2t, so the linear resample is exact
    assert np.allclose(resampled.get("A").values, 2.0 * grid, atol=1e-12)


def test_csv_rejects_malformed_inputs(tmp_path):
    def load(text, **kwargs):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        return read_csv(str(path), **kwargs)

    with pytest.raises(ParseError, match="empty"):
        load("")
    with pytest.raises(ParseError, match="no data rows"):
        load("a,b\n")
    with pytest.raises(ParseError, match="duplicate"):
        load("a,a\n1,2\n")
    with pytest.raises(RaggedRows, match="line 3"):
        load("a,b\n1,2\n3\n")
    with pytest.raises(NonNumericCell, match="line 2, column 'b'"):
        load("a,b\n1,oops\n")
    for cell in ("nan", "inf", "-inf"):
        with pytest.raises(NonNumericCell, match="line 3, column 'a'"):
            load(f"a,b\n1,2\n{cell},4\n")
    with pytest.raises(ParseError, match="no time column"):
        load("a,b\n1,2\n3,4\n", interpolation_step=1.0)
    with pytest.raises(ParseError, match="no data columns"):
        load("time\n1\n2\n")


def test_csv_tolerates_byte_order_mark_and_blank_lines(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("﻿time,A\n0,1.5\n\n1,2.5\n", encoding="utf-8")
    panel, times = read_csv(str(path))
    assert panel.names == ("A",)
    assert np.array_equal(times, [0.0, 1.0])
    assert np.array_equal(panel.get("A").values, [1.5, 2.5])


def test_write_csv_validates_time_length(tmp_path):
    panel = Panel((Series("A", [1.0, 2.0]),))
    with pytest.raises(ValueError):
        write_csv(panel, str(tmp_path / "x.csv"), times=np.arange(3.0))


def test_write_to_unwritable_location_raises_io_error(tmp_path):
    panel = Panel((Series("A", [1.0, 2.0]),))
    with pytest.raises(IoError):
        write_csv(panel, str(tmp_path / "missing_dir" / "x.csv"))
    blocker = tmp_path / "file.txt"
    blocker.write_text("occupied")
    result = discover(
        Panel(
            (
                gen_white_noise(30, derive_seed(31, 0), name="A"),
                gen_white_noise(30, derive_seed(31, 1), name="B"),
            )
        ),
        RunConfig(n_shuffles=10),
    )
    with pytest.raises(IoError):
        write_report(result, str(blocker / "sub"))


def test_failed_rename_leaves_no_temp_file_and_keeps_the_target(tmp_path, monkeypatch):
    target = tmp_path / "panel.csv"
    target.write_bytes(b"A\n0.5\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(IoError, match="rename refused"):
        write_csv(Panel((Series("A", [1.0, 2.0]),)), str(target))
    assert os.listdir(tmp_path) == ["panel.csv"]
    assert target.read_bytes() == b"A\n0.5\n"


@pytest.fixture(scope="module")
def small_result():
    panel = Panel(
        (
            gen_white_noise(60, derive_seed(32, 0), name="A"),
            gen_white_noise(60, derive_seed(32, 1), name="B"),
        )
    )
    return discover(panel, RunConfig(n_shuffles=50, stride=1, run_granger=True))


def test_write_report_files_and_trace_rows(tmp_path, small_result):
    out = tmp_path / "out"
    written = write_report(small_result, str(out))
    assert [os.path.basename(p) for p in written] == [
        "report.json",
        "pairs.csv",
        "trace_A_B.csv",
    ]
    for path in written:
        assert os.path.exists(path)
    assert not [n for n in os.listdir(out) if n.startswith(".tmp-")]

    trace_lines = (out / "trace_A_B.csv").read_text().splitlines()
    assert trace_lines[0] == "window_index,actual_area,mu,lower,upper"
    assert len(trace_lines) - 1 == window_count(60, 10, 1) == 51
    assert trace_lines[1].split(",")[0] == "1"

    pairs_lines = (out / "pairs.csv").read_text().splitlines()
    assert pairs_lines[0] == "i,j,ssad,abs_ssad,ts_savr,direction,edge,granger_min_p,ccm_max_r2,error"
    assert len(pairs_lines) == 3
    first = pairs_lines[1].split(",")
    assert first[0] == "A" and first[1] == "B"
    assert float(first[2]) == small_result.reports[0].ssad
    assert first[6] == "false"
    assert first[8] == ""  # ccm was not requested


def test_report_json_parses_and_mirrors_the_run(tmp_path, small_result):
    out = tmp_path / "json_out"
    write_report(small_result, str(out))
    document = json.loads((out / "report.json").read_text())
    assert set(document) == {"config", "nodes", "pairs", "graph"}
    assert document["nodes"] == ["A", "B"]
    assert document["config"]["n_shuffles"] == 50
    assert document["config"]["stride"] == 1
    assert document["config"]["theta"] is None
    # The band always pools, so no field chooses it; the key stays last
    # until the report digests are re-recorded.
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert "pooled" not in fields
    assert list(document["config"]) == [*fields, "pooled"]
    assert document["config"]["pooled"] is True
    assert len(document["pairs"]) == 2
    fwd = document["pairs"][0]
    assert fwd["i"] == "A" and fwd["j"] == "B"
    assert fwd["ssad"] == small_result.reports[0].ssad
    assert fwd["granger_min_p"] == small_result.reports[0].granger_min_p
    assert "ccm_max_r2" not in fwd
    assert "error" not in fwd
    assert document["graph"]["edges"][0]["confidence"] == small_result.reports[0].abs_ssad


def test_write_report_is_byte_stable(tmp_path, small_result):
    first = tmp_path / "r1"
    second = tmp_path / "r2"
    write_report(small_result, str(first))
    write_report(small_result, str(second))
    for name in ("report.json", "pairs.csv", "trace_A_B.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def _sync_csv(tmp_path, steps=300):
    path = str(tmp_path / "sync.csv")
    assert cli.main(["generate", "two_species_sync", "--steps", str(steps), "--out", path]) == 0
    return path


def _underscore_panel():
    # Joined with a bare '_', ('a', 'b_c') and ('a_b', 'c') would both name
    # trace_a_b_c.csv, and mapping ' ' to '_' would merge 'a b' with 'a_b'.
    return Panel(
        tuple(
            gen_white_noise(60, derive_seed(33, k), name=name)
            for k, name in enumerate(("a", "b_c", "a_b", "c", "a b"))
        )
    )


def test_write_report_gives_every_pair_its_own_trace_file(tmp_path):
    result = discover(_underscore_panel(), RunConfig(n_shuffles=10))
    out = tmp_path / "out"
    written = write_report(result, str(out))
    traces = [os.path.basename(p) for p in written if os.path.basename(p).startswith("trace_")]
    assert len(traces) == len(set(traces)) == len(result.traces) == 10
    assert sorted(os.listdir(out)) == sorted(["report.json", "pairs.csv"] + traces)
    assert {"trace_a_b-5fc.csv", "trace_a-5fb_c.csv", "trace_a-20b_a-5fb.csv"} <= set(traces)
    # Each file holds its own pair's areas: none was overwritten by another.
    for name, (pair, trace) in zip(traces, result.traces.items()):
        first = (out / name).read_text().splitlines()[1].split(",")
        assert float(first[1]) == trace.actual.values[0], (name, pair)


def test_cli_analyze_writes_a_trace_per_pair_for_underscore_names(tmp_path, capsys):
    csv_path = str(tmp_path / "underscores.csv")
    write_csv(_underscore_panel(), csv_path)
    out = tmp_path / "run"
    assert cli.main(["analyze", csv_path, "--out", str(out), "--n-shuffles", "10"]) == 0
    assert capsys.readouterr().out.strip() == f"wrote 12 files to {out}"
    assert len([n for n in os.listdir(out) if n.startswith("trace_")]) == 10


def _unescape(safe):
    # Independent inverse of _safe_name: '-' plus two hex digits is a byte.
    raw, k = bytearray(), 0
    while k < len(safe):
        if safe[k] == "-":
            raw.append(int(safe[k + 1 : k + 3], 16))
            k += 3
        else:
            raw += safe[k].encode("ascii")
            k += 1
    return raw.decode("utf-8", "surrogatepass")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.text(st.one_of(st.sampled_from("_- aZ9"), st.characters()), max_size=6),
        min_size=2,
        max_size=6,
        unique=True,
    )
)
@example(["\x01" + "0", "\x10"])
@example(["a", "b_c", "a_b", "c", "a b"])
def test_trace_file_names_are_one_to_one(names):
    # Names full of '_', '-', spaces and non-ASCII characters (the empty
    # name too) read back exactly and give every ordered pair its own file.
    for name in names:
        assert set(_safe_name(name)) <= set(string.ascii_letters + string.digits + "-")
        assert _unescape(_safe_name(name)) == name
    files = {f"trace_{_safe_name(i)}_{_safe_name(j)}.csv" for i in names for j in names if i != j}
    assert len(files) == len(names) * (len(names) - 1)


@given(st.text(string.ascii_letters + string.digits))
def test_alphanumeric_names_keep_their_trace_file_names(name):
    assert _safe_name(name) == name


def test_cli_defaults_are_run_config_defaults(monkeypatch):
    monkeypatch.delenv("SIGAREA_SEED", raising=False)
    parser = cli._build_parser()
    for argv in (["analyze", "f.csv", "--out", "d"], ["ssad", "f.csv", "--x", "A", "--y", "B"]):
        assert cli._config_from_args(parser.parse_args(argv)) == RunConfig()
    tssavr = parser.parse_args(["tssavr", "f.csv", "--x", "A", "--y", "B"])
    defaults = RunConfig()
    assert (tssavr.tau_min, tssavr.tau_max, tssavr.difference_order) == (
        defaults.tau_min, defaults.tau_max, defaults.difference_order
    )


def test_cli_generate_writes_loadable_panel(tmp_path, capsys):
    path = _sync_csv(tmp_path)
    out = capsys.readouterr().out
    assert "300 samples" in out
    panel, times = read_csv(path)
    assert panel.names == ("X", "Y")
    assert times is None
    assert panel.length == 300
    direct = gen_two_species_sync(300)
    assert np.array_equal(panel.get("X").values, direct.get("X").values)


def test_cli_generate_default_steps(tmp_path):
    bidir = str(tmp_path / "bidir.csv")
    assert cli.main(["generate", "two_species_bidir", "--tau-d", "2", "--out", bidir]) == 0
    assert read_csv(bidir)[0].length == 3000
    four = str(tmp_path / "four.csv")
    assert cli.main(["generate", "four_species", "--out", four]) == 0
    panel, _ = read_csv(four)
    assert panel.names == ("V", "X", "Y", "Z")
    assert panel.length == 1000


def test_cli_analyze_end_to_end(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SIGAREA_SEED", raising=False)
    csv_path = _sync_csv(tmp_path)
    out_dir = str(tmp_path / "run")
    code = cli.main(
        ["analyze", csv_path, "--out", out_dir, "--n-shuffles", "100", "--noise-channel"]
    )
    assert code == 0
    assert "3 files" not in capsys.readouterr().out  # 5 files: report, pairs, 3 traces
    document = json.loads((tmp_path / "run" / "report.json").read_text())
    assert document["nodes"] == ["X", "Y", "W"]
    assert document["config"]["seed"] == 0
    by_pair = {(p["i"], p["j"]): p for p in document["pairs"]}
    assert by_pair[("X", "Y")]["ssad"] > 0.3


def test_cli_analyze_runs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("SIGAREA_SEED", raising=False)
    csv_path = _sync_csv(tmp_path, steps=200)
    args = [csv_path, "--n-shuffles", "100"]
    assert cli.main(["analyze", *args, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["analyze", *args, "--out", str(tmp_path / "b")]) == 0
    for name in ("report.json", "pairs.csv", "trace_X_Y.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_ssad_matches_discover(tmp_path, capsys):
    csv_path = _sync_csv(tmp_path)
    capsys.readouterr()
    printed = {}
    for x, y in (("X", "Y"), ("Y", "X")):
        args = ["ssad", csv_path, "--x", x, "--y", y, "--n-shuffles", "100", "--seed", "3"]
        assert cli.main(args) == 0
        printed[(x, y)] = capsys.readouterr().out.strip()
    panel, _ = read_csv(csv_path)
    result = discover(panel, RunConfig(n_shuffles=100, seed=3))
    for report in result.reports:
        assert printed[report.pair] == format_float(report.ssad)
    assert float(printed[("Y", "X")]) == -float(printed[("X", "Y")])


def test_cli_ssad_checks_rho_at_every_window_before_shuffling(tmp_path, capsys, monkeypatch):
    # m(1) is finite at rho = 1e153, so RunConfig accepts it, but m is not
    # from window 14 on; the pair has 991 windows at stride 1.
    calls = []
    ensemble = nulltest.null_ensemble

    def spy(*args, **kwargs):
        calls.append(args)
        return ensemble(*args, **kwargs)

    monkeypatch.setattr(nulltest, "null_ensemble", spy)
    csv_path = _sync_csv(tmp_path, steps=1000)
    capsys.readouterr()
    pair = ["ssad", csv_path, "--x", "X", "--y", "Y", "--stride", "1", "--n-shuffles", "20"]
    assert cli.main([*pair, "--rho", "1e153"]) == 1
    assert "non-finite or zero band multiplier" in capsys.readouterr().err
    assert calls == []
    assert cli.main(pair) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("flags", [["--window-length", "3"], ["--window-length", "4", "--stride", "1"]])
def test_cli_ssad_runs_no_shift_test(tmp_path, capsys, flags):
    # Eight rows leave no overlap for the default shifts of +-10, which
    # ssad has no flags for and does not need: it prints the band test's
    # SSAD, the one analyze reports with a range that fits.
    csv_path = tmp_path / "eight.csv"
    rows = zip([0.6, 0.3, 0.0, 0.0, 0.8, 0.9, 0.6, 0.7], [0.6, 0.8, 0.6, 0.0, 0.4, 0.4, 0.8, 0.4])
    csv_path.write_text("a,b\n" + "".join(f"{x},{y}\n" for x, y in rows))
    flags = [*flags, "--n-shuffles", "50"]
    capsys.readouterr()
    printed = {}
    for x, y in (("a", "b"), ("b", "a")):
        assert cli.main(["ssad", str(csv_path), "--x", x, "--y", y, *flags]) == 0
        printed[(x, y)] = capsys.readouterr().out.strip()
    out = tmp_path / "run"
    assert cli.main([
        "analyze", str(csv_path), "--out", str(out), *flags, "--tau-min", "-3", "--tau-max", "3",
    ]) == 0
    rows = [line.split(",") for line in (out / "pairs.csv").read_text().splitlines()[1:]]
    assert {(i, j): (ssad, error) for i, j, ssad, *_, error in rows} == {
        pair: (text, "") for pair, text in printed.items()
    }


def test_cli_analyze_survives_a_constant_channel(tmp_path):
    four = gen_four_species(300)
    csv_path = str(tmp_path / "const.csv")
    write_csv(Panel(four.series + (Series("C", np.full(300, 0.5)),)), csv_path)
    out = tmp_path / "run"
    assert cli.main(["analyze", csv_path, "--out", str(out), "--n-shuffles", "50"]) == 0
    pairs = json.loads((out / "report.json").read_text())["pairs"]
    broken = [p for p in pairs if "C" in (p["i"], p["j"])]
    assert len(broken) == 8
    assert all(p["error"].startswith("ConstantSeries") for p in broken)


def test_cli_ccm_on_a_short_csv_is_a_pair_error(tmp_path, capsys):
    # Five rows make four CCM manifold points: analyze reports the pair's
    # error and carries on; the baseline command exits with a data error.
    csv_path = tmp_path / "five.csv"
    csv_path.write_text("A,B\n0.1,0.5\n0.7,0.2\n0.3,0.9\n0.9,0.4\n0.2,0.6\n")
    out = tmp_path / "run"
    assert cli.main([
        "analyze", str(csv_path), "--out", str(out), "--window-length", "3",
        "--tau-min", "-2", "--tau-max", "2", "--n-shuffles", "50", "--ccm",
    ]) == 0
    pairs = json.loads((out / "report.json").read_text())["pairs"]
    assert [(p["i"], p["j"]) for p in pairs] == [("A", "B"), ("B", "A")]
    assert all(p["error"].startswith("TooShort: ") for p in pairs)
    capsys.readouterr()
    assert cli.main(["baseline", "ccm", str(csv_path), "--x", "A", "--y", "B"]) == 2
    assert "error: largest library" in capsys.readouterr().err


def test_cli_ccm_failure_keeps_the_pair_scores(tmp_path):
    # The same five-row pair with and without --ccm: only the CCM column
    # and the error differ, and the trace file is written byte for byte.
    csv_path = tmp_path / "five.csv"
    csv_path.write_text("A,B\n0.1,0.5\n0.7,0.2\n0.3,0.9\n0.9,0.4\n0.2,0.6\n")
    runs = {}
    for flags in ([], ["--ccm"]):
        out = tmp_path / f"run{len(flags)}"
        assert cli.main([
            "analyze", str(csv_path), "--out", str(out), "--window-length", "3",
            "--tau-min", "-2", "--tau-max", "2", "--n-shuffles", "50", *flags,
        ]) == 0
        runs[bool(flags)] = out
    plain = json.loads((runs[False] / "report.json").read_text())
    with_ccm = json.loads((runs[True] / "report.json").read_text())
    for p, bare in zip(with_ccm["pairs"], plain["pairs"]):
        assert p.pop("error") == "TooShort: largest library exceeds available manifold points"
        assert p == bare
        assert p["ssad"] is not None and p["ts_savr"] is not None
    assert with_ccm["graph"] == plain["graph"]
    trace = "trace_A_B.csv"
    assert (runs[True] / trace).read_bytes() == (runs[False] / trace).read_bytes()


def test_cli_shift_past_the_series_is_a_shift_error(tmp_path):
    # Eight rows: the first shift that leaves under two aligned samples is
    # tau = 7, and both orders carry its error rather than a path error.
    csv_path = tmp_path / "eight.csv"
    rows = [f"{0.1 * k:.1f},{(0.37 * k * k) % 1:.3f}" for k in range(8)]
    csv_path.write_text("A,B\n" + "\n".join(rows) + "\n")
    out = tmp_path / "run"
    assert cli.main([
        "analyze", str(csv_path), "--out", str(out), "--window-length", "3",
        "--tau-min", "-3", "--tau-max", "20", "--n-shuffles", "50",
    ]) == 0
    pairs = json.loads((out / "report.json").read_text())["pairs"]
    assert [(p["i"], p["j"]) for p in pairs] == [("A", "B"), ("B", "A")]
    assert all(
        p["error"] == "ShiftTooLarge: |tau| = 7 leaves 1 of 8 samples aligned, fewer than 2"
        for p in pairs
    )


def test_cli_tssavr_output_format(tmp_path, capsys):
    csv_path = _sync_csv(tmp_path)
    capsys.readouterr()
    assert cli.main(["tssavr", csv_path, "--x", "X", "--y", "Y"]) == 0
    ratio_text, label = capsys.readouterr().out.split()
    assert float(ratio_text) >= 1.1
    assert label == "X->Y"


def test_cli_tssavr_matches_analyze_in_each_ordering(tmp_path, capsys):
    # An asymmetric shift range gives each ordering its own verdict.
    path = str(tmp_path / "four.csv")
    assert cli.main(["generate", "four_species", "--steps", "300", "--out", path]) == 0
    taus = ["--tau-min", "-3", "--tau-max", "7"]
    out = str(tmp_path / "run")
    assert cli.main(["analyze", path, "--out", out, "--n-shuffles", "20", *taus]) == 0
    capsys.readouterr()
    with open(tmp_path / "run" / "pairs.csv", newline="") as handle:
        rows = {(row["i"], row["j"]): row for row in csv.DictReader(handle)}
    for x, y in (("X", "Y"), ("Y", "X"), ("V", "Z"), ("Z", "V")):
        assert cli.main(["tssavr", path, "--x", x, "--y", y, *taus]) == 0
        row = rows[(x, y)]
        assert capsys.readouterr().out == f"{row['ts_savr']} {row['direction']}\n"


def test_cli_baseline_output_format(tmp_path, capsys):
    csv_path = _sync_csv(tmp_path)
    capsys.readouterr()
    assert cli.main(["baseline", "granger", csv_path, "--x", "Y", "--y", "X", "--maxlag", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("lag 1 p ")
    assert lines[-1].startswith("min_p ")

    assert cli.main(["baseline", "ccm", csv_path, "--x", "X", "--y", "Y"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("library ")
    assert float(lines[-1].split()[-1]) >= 0.9


def test_cli_ccm_on_a_constant_target_prints_no_skill(tmp_path, capsys):
    noise = gen_white_noise(100, derive_seed(9, "flat"), "N")
    path = str(tmp_path / "flat.csv")
    write_csv(Panel((Series("F", np.full(100, 0.3)), noise)), path)
    assert cli.main(["baseline", "ccm", path, "--x", "F", "--y", "N"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "max_r2 0"


def test_cli_seed_env_and_flag_precedence(tmp_path, monkeypatch):
    csv_path = _sync_csv(tmp_path, steps=120)
    monkeypatch.setenv("SIGAREA_SEED", "777")
    out_env = str(tmp_path / "env_run")
    assert cli.main(["analyze", csv_path, "--out", out_env, "--n-shuffles", "50"]) == 0
    assert json.loads(
        (tmp_path / "env_run" / "report.json").read_text()
    )["config"]["seed"] == 777

    out_flag = str(tmp_path / "flag_run")
    assert cli.main(
        ["analyze", csv_path, "--out", out_flag, "--n-shuffles", "50", "--seed", "5"]
    ) == 0
    assert json.loads(
        (tmp_path / "flag_run" / "report.json").read_text()
    )["config"]["seed"] == 5

    monkeypatch.setenv("SIGAREA_SEED", "not-a-number")
    assert cli.main(["analyze", csv_path, "--out", str(tmp_path / "x"), "--n-shuffles", "50"]) == 1
    # tssavr takes no seed, so it does not read the variable.
    assert cli.main(["tssavr", csv_path, "--x", "X", "--y", "Y"]) == 0


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SIGAREA_SEED", raising=False)
    csv_path = _sync_csv(tmp_path, steps=120)
    capsys.readouterr()

    assert cli.main(["--help"]) == 0
    assert "generate" in capsys.readouterr().out

    assert cli.main(["analyze", csv_path]) == 1  # missing --out
    assert cli.main(["analyze", csv_path, "--out", str(tmp_path / "o"), "--bogus"]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(
        ["analyze", csv_path, "--out", str(tmp_path / "o"), "--alpha", "2.0"]
    ) == 1
    assert "error:" in capsys.readouterr().err

    assert cli.main(["analyze", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["ssad", csv_path, "--x", "NOPE", "--y", "Y"]) == 2
    assert "no channel named 'NOPE'" in capsys.readouterr().err

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,oops\n")
    assert cli.main(["analyze", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_text("a,b\n1,2\nnan,4\n3,5\n")
    assert cli.main(["analyze", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_text("W,W_noise\n1,2\n2,4\n3,1\n4,3\n")
    assert cli.main(["analyze", str(bad), "--out", str(tmp_path / "o"), "--noise-channel"]) == 2
    assert "'W_noise' are taken" in capsys.readouterr().err
    # Text that is not UTF-8, and a field over the csv module's size limit.
    for content in (b"A,B\n1,2\n\xff\xfe,3\n4,5\n", b'A,B\n1,"' + b"1" * 200_000 + b'"\n'):
        bad.write_bytes(content)
        assert cli.main(["analyze", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    four = str(tmp_path / "four.csv")
    assert cli.main(["generate", "four_species", "--tau-d", "2", "--out", four]) == 1
    assert "two_species_bidir" in capsys.readouterr().err
    assert cli.main(["generate", "four_species", "--out", four]) == 0

    # Every parameter error exits 1 with an error line, whatever the subcommand.
    pair = [csv_path, "--x", "X", "--y", "Y"]
    out = ["--out", str(tmp_path / "o")]
    timed = tmp_path / "timed.csv"
    timed.write_text("time,X,Y\n0,1,2\n1,3,1\n2,2,4\n3,5,3\n")
    for argv in (
        ["tssavr", *pair, "--tau-min", "5", "--tau-max", "-5"],
        ["tssavr", *pair, "--tau-min", "0", "--tau-max", "0"],
        ["tssavr", *pair, "--difference-order", "-1"],
        ["baseline", "granger", *pair, "--maxlag", "0"],
        ["baseline", "ccm", *pair, "--embed-dim", "0"],
        ["analyze", csv_path, *out, "--tau-min", "0", "--tau-max", "0"],
        ["analyze", csv_path, *out, "--tau-min", "2", "--tau-max", "9"],
        ["tssavr", *pair, "--tau-min", "2", "--tau-max", "9"],
        ["tssavr", *pair, "--tau-min", "-1", "--tau-max", "5"],
        ["tssavr", str(timed), "--x", "X", "--y", "Y", "--interp-step", "0"],
        # Non-finite parameters are usage errors too, not data errors.
        ["ssad", *pair, "--rho", "nan"],
        ["analyze", csv_path, *out, "--rho", "inf"],
        ["analyze", csv_path, *out, "--alpha", "nan"],
        # A window of two samples is one chord and encloses no area.
        ["analyze", csv_path, *out, "--window-length", "2"],
        ["ssad", *pair, "--window-length", "2"],
        # t^2 rho^2 overflows from window 135 on, which would give m = 0 there.
        ["ssad", four, "--x", "Y", "--y", "Z", "--n-shuffles", "50", "--stride", "1",
         "--rho", "1e152"],
        # A channel against itself.
        ["ssad", csv_path, "--x", "X", "--y", "X"],
        ["tssavr", csv_path, "--x", "Y", "--y", "Y"],
        ["baseline", "granger", csv_path, "--x", "X", "--y", "X"],
        ["baseline", "ccm", csv_path, "--x", "X", "--y", "X"],
    ):
        assert cli.main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    for step in ("inf", "nan"):
        assert cli.main(["analyze", str(timed), *out, "--interp-step", step]) == 1
        assert capsys.readouterr().err == "error: step must be a finite positive number\n"
    assert not os.path.exists(out[1])  # no analyze got as far as its pairs

    single = tmp_path / "single.csv"
    single.write_text("A\n1\n2\n3\n")
    assert cli.main(["analyze", str(single), *out]) == 2
    assert capsys.readouterr().err == "error: need at least 2 channels to form pairs\n"

    # One of two channels is constant: its pair is reported with the error.
    flat = tmp_path / "flat.csv"
    flat.write_text("A,C\n" + "".join(f"{v},0.5\n" for v in (1, 3, 2, 5, 4, 6)))
    assert cli.main(["analyze", str(flat), *out, "--n-shuffles", "10"]) == 0
    assert (tmp_path / "o" / "pairs.csv").read_text().count("ConstantSeries") == 2


@pytest.mark.parametrize("detail", ["Unable to allocate 218. TiB", ""])
def test_cli_out_of_memory_is_a_data_error_without_traceback(
    tmp_path, capsys, monkeypatch, detail
):
    # A huge --interp-step grid or --n-shuffles fails to allocate; whether a
    # real request fails at once depends on the machine, so it is simulated.
    def fail(*args, **kwargs):
        raise MemoryError(detail)

    err = f"error: out of memory: {detail}\n" if detail else "error: out of memory\n"
    csv_path = tmp_path / "two.csv"
    csv_path.write_text("A,B\n1,2\n2,1\n3,3\n")
    monkeypatch.setattr(cli, "discover", fail)
    assert cli.main(["analyze", str(csv_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == err
    monkeypatch.setattr(cli.sio, "read_csv", fail)
    assert cli.main(["tssavr", str(csv_path), "--x", "A", "--y", "B"]) == 2
    assert capsys.readouterr().err == err


def test_cli_module_entry_point_smoke():
    # The child must import the same sigarea as this process, installed or
    # not: pytest's own pythonpath setting does not reach a subprocess.
    package_root = os.path.dirname(os.path.dirname(sigarea.__file__))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root] + ([inherited] if inherited else [])
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "sigarea.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "sigarea" in proc.stdout
