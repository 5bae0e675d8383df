"""Acceptance suite: one test per shipped guarantee, numbered 1-10.

Each test prints exactly one "ACCEPTANCE n: PASS/FAIL" line on the real
terminal (bypassing capture) so a plain pytest run yields a scannable
checklist.  Criteria 4 and 5 need externally supplied datasets; when the
files are absent the tests skip with an explicit reason instead of
pretending to pass.  Expected dataset locations and schemas are documented
in the README.
"""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sigarea import (
    Panel,
    RunConfig,
    ccm,
    cli,
    discover,
    gen_white_noise,
    granger,
    multiplier,
    rank_pairs,
    read_csv,
    scale_unit_range,
    signature_depth2,
    signed_area,
    chen_concat,
)
from sigarea.rng import derive_seed


@contextmanager
def _verdict(n, capsys):
    try:
        yield
    except pytest.skip.Exception as exc:
        with capsys.disabled():
            print(f"\nACCEPTANCE {n}: SKIP ({exc})")
        raise
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {n}: FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"\nACCEPTANCE {n}: PASS")


def _by_pair(result):
    return {r.pair: r for r in result.reports}


def _data_file(name):
    base = os.environ.get(
        "SIGAREA_DATA_DIR",
        os.path.join(os.path.dirname(__file__), os.pardir, "data"),
    )
    return os.path.join(base, name)


def test_acceptance_01_two_species_synchrony(sync_panel, capsys):
    with _verdict(1, capsys):
        start = time.perf_counter()
        result = discover(sync_panel, RunConfig(add_noise_channel=True))
        elapsed = time.perf_counter() - start
        reports = _by_pair(result)
        fwd = reports[("X", "Y")]
        rev = reports[("Y", "X")]
        assert 0.55 <= fwd.ssad <= 0.85, f"SSAD(X,Y) = {fwd.ssad}"
        assert rev.ssad == -fwd.ssad, "reverse ordering must negate exactly"
        assert fwd.ts_savr >= 1.1, f"variance ratio = {fwd.ts_savr}"
        assert fwd.direction == "X->Y"
        for pair, report in reports.items():
            if "W" in pair:
                assert abs(report.ssad) <= 0.25, f"noise pair {pair}: {report.ssad}"
        assert elapsed <= 60.0, f"runtime {elapsed:.1f}s"


def test_acceptance_02_four_species_ranking(four_panel, capsys):
    with _verdict(2, capsys):
        result = discover(four_panel, RunConfig())
        ranked = rank_pairs(result.reports)
        top_two = [r.pair for r in ranked[:2]]
        assert top_two == [("V", "X"), ("X", "Y")], f"ranking {top_two}"
        reports = _by_pair(result)
        vx = reports[("V", "X")]
        xy = reports[("X", "Y")]
        assert vx.direction == "V->X" and vx.ts_savr >= 1.1, (
            vx.direction,
            vx.ts_savr,
        )
        assert xy.direction == "X->Y" and xy.ts_savr >= 1.1, (
            xy.direction,
            xy.ts_savr,
        )


def test_acceptance_03_bidirectional_blind_spot(bidir_panel_tau0, capsys):
    # With simultaneous two-way coupling the band-exit score must stay
    # small: the method genuinely cannot see this regime, and the suite
    # checks the limitation is reproduced rather than masked.
    with _verdict(3, capsys):
        result = discover(bidir_panel_tau0, RunConfig())
        score = _by_pair(result)[("X", "Y")].ssad
        assert abs(score) < 0.5, f"SSAD(X,Y) = {score}"


def test_acceptance_04_predator_prey_dataset(capsys):
    with _verdict(4, capsys):
        path = _data_file("paramecium_didinium.csv")
        if not os.path.exists(path):
            pytest.skip(f"dataset not present: {path}")
        panel, _ = read_csv(path)
        prey = panel.get("paramecium")
        predator = panel.get("didinium")
        assert panel.length == 71, f"expected the 71-sample table, got {panel.length}"
        result = discover(Panel((prey, predator)), RunConfig())
        score = _by_pair(result)[("paramecium", "didinium")].ssad
        assert abs(score) >= 0.9, f"|SSAD| = {abs(score)}"


def test_acceptance_05_ice_core_dataset(capsys):
    with _verdict(5, capsys):
        path = _data_file("vostok.csv")
        if not os.path.exists(path):
            pytest.skip(f"dataset not present: {path}")
        panel, _ = read_csv(path, interpolation_step=1000.0)
        resampled = Panel((panel.get("co2"), panel.get("temperature")))
        result = discover(resampled, RunConfig(add_noise_channel=True))
        reports = _by_pair(result)
        link = reports[("co2", "temperature")]
        assert link.ts_savr >= 1.1, f"variance ratio = {link.ts_savr}"
        for pair, report in reports.items():
            if "W" in pair:
                assert link.abs_ssad > report.abs_ssad, (
                    f"|SSAD|={link.abs_ssad} vs noise pair {pair}={report.abs_ssad}"
                )


def test_acceptance_06_signature_correctness(capsys):
    with _verdict(6, capsys):
        rng = np.random.default_rng(1234)

        # straight segments: level2 is the half outer product, area is zero
        for _ in range(20):
            p0 = rng.normal(size=2)
            delta = rng.normal(size=2)
            steps = np.linspace(0.0, 1.0, rng.integers(2, 12))
            path = p0 + steps[:, None] * delta
            sig = signature_depth2(path)
            assert np.allclose(sig.level1, delta, atol=1e-12)
            assert np.allclose(sig.level2, np.outer(delta, delta) / 2.0, atol=1e-12)
            assert abs(signed_area(path)) <= 1e-12

        # unit-square loop: oriented area is +1 one way, -1 the other
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        assert abs(signed_area(square) - 1.0) <= 1e-12
        assert abs(signed_area(square[::-1]) + 1.0) <= 1e-12

        # concatenation and symmetrization identities on 100 random paths
        for _ in range(100):
            n, d = int(rng.integers(4, 40)), int(rng.integers(2, 5))
            path = rng.normal(size=(n, d))
            k = int(rng.integers(1, n - 1))
            whole = signature_depth2(path)
            glued = chen_concat(
                signature_depth2(path[: k + 1]), signature_depth2(path[k:])
            )
            assert np.allclose(glued.level2, whole.level2, atol=1e-10)
            sym = whole.level2 + whole.level2.T
            assert np.allclose(sym, np.outer(whole.level1, whole.level1), atol=1e-10)

        # signed area against the shoelace formula on 100 closed polygons
        for _ in range(100):
            m = int(rng.integers(3, 30))
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=m))
            radii = rng.uniform(0.5, 2.0, size=m)
            ring = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
            poly = np.vstack([ring, ring[:1]])
            x, y = poly[:, 0], poly[:, 1]
            shoelace = 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
            assert abs(signed_area(poly) - shoelace) <= 1e-9


def test_acceptance_07_band_multiplier(capsys):
    with _verdict(7, capsys):
        direct = math.sqrt(2.0 * 2.0 * math.log(math.sqrt(2.0) / 0.025))
        assert abs(multiplier(1, rho=1.0, alpha=0.05) - direct) <= 1e-3
        grid = multiplier(np.arange(1, 10**6 + 1, dtype=np.float64))
        assert np.all(np.diff(grid) < 0.0)


def test_acceptance_08_null_calibration(capsys):
    with _verdict(8, capsys):
        clean = 0
        for run in range(50):
            channels = tuple(
                gen_white_noise(1000, derive_seed(99, "calib", run, k), name=f"N{k}")
                for k in range(3)
            )
            result = discover(Panel(channels), RunConfig(seed=run))
            if max(r.abs_ssad for r in result.reports) < 0.3:
                clean += 1
        assert clean >= 48, f"only {clean}/50 runs stayed under 0.3"  # >= 95%


def test_acceptance_09_baselines(sync_panel, capsys):
    with _verdict(9, capsys):
        xs = scale_unit_range(sync_panel.get("X"))
        ys = scale_unit_range(sync_panel.get("Y"))
        assert granger(ys, xs).min_p < 1e-4

        # (df1, df2, f, tail) from an arbitrary-precision evaluation
        table = (
            (1, 10, 0.5, 0.49564750438311994),
            (1, 10, 4.96, 0.05008765056646819),
            (2, 20, 3.49, 0.050104935024662602),
            (3, 5, 0.1, 0.95658134433426996),
            (5, 2, 19.3, 0.049991027393074317),
            (5, 100, 2.3, 0.050469625280776699),
            (10, 977, 1.85, 0.048551440009615083),
            (10, 977, 8.2, 7.6716157178012094e-13),
            (7, 30, 0.01, 0.9999991229972897),
            (4, 8, 123.4, 3.1939120227875723e-7),
            (12, 50, 1.0, 0.46277189346136103),
            (2, 2, 1.0, 0.5),
        )
        from sigarea import f_upper_tail

        for df1, df2, f, expect in table:
            assert abs(f_upper_tail(f, df1, df2) - expect) <= 1e-9

        assert ccm(xs, ys).max_r2 >= 0.95
        noise_a = scale_unit_range(gen_white_noise(1000, derive_seed(9, "ccmn", 0)))
        noise_b = scale_unit_range(gen_white_noise(1000, derive_seed(9, "ccmn", 1)))
        assert ccm(noise_a, noise_b).max_r2 <= 0.3


def test_acceptance_10_byte_identical_reports(tmp_path, capsys):
    with _verdict(10, capsys):
        csv_path = str(tmp_path / "panel.csv")
        assert cli.main(
            ["generate", "two_species_sync", "--steps", "300", "--out", csv_path]
        ) == 0
        common = ["analyze", csv_path, "--n-shuffles", "200", "--seed", "0"]
        assert cli.main([*common, "--out", str(tmp_path / "first")]) == 0
        assert cli.main([*common, "--out", str(tmp_path / "second")]) == 0
        first = (tmp_path / "first" / "report.json").read_bytes()
        second = (tmp_path / "second" / "report.json").read_bytes()
        assert first == second
        json.loads(first)  # and the byte-stable artifact is valid JSON
