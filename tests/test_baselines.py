"""Lagged-regression F-tests and cross-mapping skill.

The F-tail values are pinned against a 12-point table computed with mpmath
at 40 significant digits, and the same reference is recomputed live so the
table itself cannot go stale.
"""

import functools
import itertools
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from sigarea import baselines
from sigarea import (
    DegenerateEmbedding,
    LengthMismatch,
    RunConfig,
    SingularDesign,
    TooShort,
    ccm,
    ccm_many,
    default_library_sizes,
    discover,
    f_upper_tail,
    gen_four_species,
    gen_two_species_bidir,
    gen_two_species_sync,
    gen_white_noise,
    granger,
    granger_many,
    regularized_incomplete_beta,
    scale_unit_range,
)
from sigarea.rng import derive_seed, standard_normal
from sigarea.baselines import _lag_matrix, _ssr
from sigarea.series import Series

# (df1, df2, f, upper tail) computed with mpmath.betainc at dps=40.
F_TAIL_TABLE = (
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

# Exact bits, as float.hex, of f_upper_tail on the F_TAIL_TABLE inputs and of
# regularized_incomplete_beta on BETA_GRID (a, b, x), which reaches both sides
# of the symmetry switch.  The tolerance tests below would not see a rewrite
# of the continued fraction that moves one rounding; these would.
F_TAIL_HEX = (
    "0x1.fb8b04f6ad954p-2", "0x1.9a516aa3ba038p-5", "0x1.9a75aa29927b6p-5",
    "0x1.e9c507abc2415p-1", "0x1.9986c877e4eb0p-5", "0x1.9d7279c0b6d21p-5",
    "0x1.8dbbbfe07b1ddp-5", "0x1.afdfa25b0a7c4p-41", "0x1.ffffe2929aa51p-1",
    "0x1.56f195ce45a84p-22", "0x1.d9e0e00fb2b5cp-2", "0x1.0000000000000p-1",
)
BETA_GRID = ((0.5, 4.0, 60.0), (0.5, 3.0, 40.0), (0.1, 0.4, 0.6, 0.9))
BETA_GRID_HEX = (
    "0x1.a37f5c4c419e9p-3", "0x1.be5e15eb156bfp-2", "0x1.20d0f50a754a0p-1",
    "0x1.972028ecef986p-1", "0x1.1bf27e094d342p-1", "0x1.d0ad7f9d5cf3dp-1",
    "0x1.f3b5329832479p-1", "0x1.ffd567a8c2d14p-1", "0x1.fe0ddea49923bp-1",
    "0x1.fffffffe69ddbp-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    "0x1.de567370b50cbp-16", "0x1.170f9854c1202p-7", "0x1.976f092178a09p-5",
    "0x1.7e55fe8d8ec10p-2", "0x1.4cec41dd1a22cp-10", "0x1.6f0068db8bacap-3",
    "0x1.16b11c6d1e106p-1", "0x1.f7e28240b7803p-1", "0x1.4539f53baf19bp-1",
    "0x1.ffffd865ca931p-1", "0x1.ffffffffff417p-1", "0x1.0000000000000p+0",
    "0x1.f7d59d2f1c85bp-204", "0x1.3327612e2ee71p-83", "0x1.8fed9d8bf1fa2p-48",
    "0x1.96675491ba4a9p-12", "0x1.34cb113f6d246p-189", "0x1.1786e122c0366p-70",
    "0x1.113e280fba49dp-36", "0x1.7471acbb77389p-5", "0x1.025cc0a0d7cbep-113",
    "0x1.d299312db02a5p-16", "0x1.fa6eb90814a9ep-2", "0x1.fffffffffffeep-1",
)


def test_f_tail_bits_are_frozen():
    got = tuple(f_upper_tail(f, df1, df2).hex() for df1, df2, f, _ in F_TAIL_TABLE)
    assert got == F_TAIL_HEX
    got = tuple(
        regularized_incomplete_beta(a, b, x).hex()
        for a, b, x in itertools.product(*BETA_GRID)
    )
    assert got == BETA_GRID_HEX


def test_f_tail_matches_frozen_table():
    for df1, df2, f, expect in F_TAIL_TABLE:
        got = f_upper_tail(f, df1, df2)
        assert abs(got - expect) <= 1e-9
        assert got == pytest.approx(expect, rel=1e-12)


def test_f_tail_matches_live_high_precision_reference():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for df1, df2, f, _ in F_TAIL_TABLE:
        x = mp.mpf(df2) / (mp.mpf(df2) + mp.mpf(df1) * mp.mpf(f))
        ref = float(
            mp.betainc(mp.mpf(df2) / 2, mp.mpf(df1) / 2, 0, x, regularized=True)
        )
        assert f_upper_tail(f, df1, df2) == pytest.approx(ref, rel=1e-12)


def test_f_tail_edges():
    assert f_upper_tail(0.0, 3, 10) == 1.0
    assert f_upper_tail(-2.0, 3, 10) == 1.0
    assert f_upper_tail(float("inf"), 3, 10) == 0.0
    with pytest.raises(ValueError):
        f_upper_tail(1.0, 0, 10)
    with pytest.raises(ValueError):
        f_upper_tail(1.0, 3, -1)


def test_incomplete_beta_edges_and_symmetry():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, -0.5) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    for a, b, x in ((0.5, 0.5, 0.3), (4.0, 2.0, 0.8), (10.0, 3.0, 0.1)):
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-14)
    grid = [regularized_incomplete_beta(2.5, 1.5, x) for x in np.linspace(0, 1, 21)]
    assert all(u <= v + 1e-15 for u, v in zip(grid, grid[1:]))


@pytest.fixture(scope="module")
def sync_pair():
    panel = gen_two_species_sync(1000)
    return (
        scale_unit_range(panel.get("X")),
        scale_unit_range(panel.get("Y")),
    )


def test_granger_flags_logistic_driver(sync_pair):
    xs, ys = sync_pair
    res = granger(ys, xs)
    assert res.pair == ("Y", "X")
    assert res.min_p < 1e-4
    assert res.significant
    assert set(res.per_lag_p) == set(range(1, 11))
    assert res.min_p == min(res.per_lag_p.values())


def test_granger_nails_a_pure_lagged_copy():
    x = gen_white_noise(300, derive_seed(8, "copy"))
    shifted = np.empty(300)
    shifted[1:] = x.values[:-1]
    shifted[0] = 0.0
    y = Series("y", shifted)
    res = granger(y, x, tau_max=1)
    assert res.per_lag_p[1] < 1e-12
    # Deeper lag grids make the unrestricted design exactly collinear (the
    # copy lives in both lag blocks); the minimum-norm fit must still land
    # on zero residual instead of erroring out.
    assert granger(y, x, tau_max=5).min_p < 1e-6

    lag3 = np.empty(300)
    lag3[3:] = x.values[:-3]
    lag3[:3] = 0.0
    assert granger(Series("y3", lag3), x, tau_max=5).min_p < 1e-6


def test_granger_false_positive_rate_on_noise():
    clean = 0
    for k in range(100):
        u = Series("u", standard_normal(1000, derive_seed(5, "gn", k, 0)))
        v = Series("v", standard_normal(1000, derive_seed(5, "gn", k, 1)))
        if granger(u, v).min_p > 0.05:
            clean += 1
    assert clean >= 90


def test_granger_validation():
    noise = gen_white_noise(100, derive_seed(8, "val"))
    flat = Series("flat", np.full(100, 0.7))
    with pytest.raises(SingularDesign):
        granger(flat, noise, tau_max=2)
    with pytest.raises(TooShort):
        granger(
            gen_white_noise(31, derive_seed(8, 1)),
            gen_white_noise(31, derive_seed(8, 2)),
            tau_max=10,
        )
    with pytest.raises(LengthMismatch):
        granger(noise, gen_white_noise(99, derive_seed(8, 3)))
    with pytest.raises(ValueError):
        granger(noise, noise, tau_max=0)


def _per_pair_granger(x, y, tau_max=10):
    """The lagged-regression test of one driver as it was written before
    the restricted fits were shared: both fits per lag and pair."""
    if tau_max < 1:
        raise ValueError("tau_max must be >= 1")
    if len(x) != len(y):
        raise LengthMismatch("series must have equal length")
    t_len = len(x)
    if t_len <= 3 * tau_max + 1:
        raise TooShort(
            f"need more than {3 * tau_max + 1} samples for tau_max={tau_max}"
        )
    per_lag = {}
    for tau in range(1, tau_max + 1):
        target = x.values[tau:]
        n_rows = target.size
        ones = np.ones((n_rows, 1))
        own = _lag_matrix(x.values, tau)
        other = _lag_matrix(y.values, tau)
        ssr_r, rank_r = _ssr(np.hstack([ones, own]), target)
        if rank_r < tau + 1:
            raise SingularDesign(
                f"restricted design is rank-deficient at lag {tau}"
            )
        ssr_u, _ = _ssr(np.hstack([ones, own, other]), target)
        df2 = n_rows - 2 * tau - 1
        if ssr_u == 0.0:
            per_lag[tau] = 0.0
            continue
        f_stat = max((ssr_r - ssr_u) / tau, 0.0) / (ssr_u / df2)
        per_lag[tau] = f_upper_tail(f_stat, tau, df2)
    min_p = min(per_lag.values())
    return baselines.GrangerResult((x.name, y.name), per_lag, min_p, min_p < 0.05)


def _lagged_copy(s, lag):
    values = np.zeros(len(s))
    values[lag:] = s.values[:-lag]
    return Series(f"{s.name}_lag{lag}", values)


@pytest.mark.parametrize("tau_max", [1, 4, 10])
def test_granger_many_matches_the_per_pair_test_bit_for_bit(tau_max):
    four = gen_four_species(600)
    noise = gen_white_noise(600, derive_seed(8, "many"), "W")
    chans = [scale_unit_range(s) for s in (*four.series, noise)]
    # A lagged copy of the target makes one unrestricted fit exact (p = 0).
    for target in chans[:3]:
        drivers = [c for c in chans if c is not target] + [_lagged_copy(target, 1)]
        got = granger_many(target, drivers, tau_max)
        assert len(got) == len(drivers)
        for result, driver in zip(got, drivers):
            want = _per_pair_granger(target, driver, tau_max)
            assert result == want
            assert list(result.per_lag_p.items()) == list(want.per_lag_p.items())
            assert result.min_p == want.min_p
            assert granger(target, driver, tau_max) == want


def test_granger_many_errors_follow_the_target_not_the_drivers():
    noise = gen_white_noise(100, derive_seed(8, "grp", 0), "u")
    other = gen_white_noise(100, derive_seed(8, "grp", 1), "v")
    flat = Series("flat", np.full(100, 0.7))
    # A constant driver only makes its own unrestricted design collinear,
    # which the minimum-norm fit absorbs; its neighbours are untouched.
    got = granger_many(noise, [other, flat, other], tau_max=3)
    assert [r.pair for r in got] == [("u", "v"), ("u", "flat"), ("u", "v")]
    for result, driver in zip(got, (other, flat, other)):
        assert result == _per_pair_granger(noise, driver, 3)
    # A rank-deficient target fails every driver with the per-pair text.
    with pytest.raises(SingularDesign) as caught:
        _per_pair_granger(flat, noise, 3)
    for drivers in ([noise], [noise, other], [other, flat]):
        with pytest.raises(SingularDesign) as group:
            granger_many(flat, drivers, tau_max=3)
        assert str(group.value) == str(caught.value)
    assert str(caught.value) == "restricted design is rank-deficient at lag 1"
    with pytest.raises(LengthMismatch, match="^series lengths differ: 'u' 100 vs 'W' 99$"):
        granger_many(noise, [other, gen_white_noise(99, derive_seed(8, 3))])


def _blas_count(setter):
    """The thread count a setter holds, left as it was."""
    count = setter(1)
    setter(count)
    return count


@contextmanager
def _blas_threads(setters, count):
    """Every setter at count for the body, then back at what it held."""
    previous = [setter(count) for setter in setters]
    try:
        yield
    finally:
        for setter, held in zip(setters, previous):
            setter(held)


def _granger_inputs(name):
    if name == "four_species":
        return [scale_unit_range(s) for s in gen_four_species(1000).series]
    return [scale_unit_range(s) for s in gen_two_species_bidir(3000, 0).series]


@pytest.mark.parametrize("tau_max", [1, 10])
@pytest.mark.parametrize("inputs", ["four_species", "bidir_3000"])
def test_granger_many_on_one_blas_thread_keeps_the_threaded_bits(
    monkeypatch, inputs, tau_max
):
    chans = _granger_inputs(inputs)
    setters = baselines._locate_blas_setters()

    def every_target():
        return [
            granger_many(target, [c for c in chans if c is not target], tau_max)
            for target in chans
        ]

    scoped = every_target()
    # A lookup that finds nothing leaves the BLAS on its own threads; with a
    # setter at hand, 2 of them make the fits split over threads on any runner.
    finds_nothing = functools.cache(lambda: ())
    monkeypatch.setattr(baselines, "_locate_blas_setters", finds_nothing)
    with _blas_threads(setters, 2):
        threaded = every_target()
    assert finds_nothing.cache_info().misses == 1
    for got, want in zip(scoped, threaded):
        for one, other in zip(got, want):
            assert list(one.per_lag_p.items()) == list(other.per_lag_p.items())
            assert one == other


def test_granger_many_restores_the_blas_thread_count(monkeypatch):
    setters = baselines._locate_blas_setters()
    if not setters:
        pytest.skip(
            "no loaded OpenBLAS exports openblas_set_num_threads_local, "
            "so granger_many has no thread count to set or restore"
        )
    seen = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        seen.append([_blas_count(setter) for setter in setters])
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    noise = gen_white_noise(200, derive_seed(8, "blas", 0), "u")
    other = gen_white_noise(200, derive_seed(8, "blas", 1), "v")
    with _blas_threads(setters, 3):
        granger_many(noise, [other], tau_max=3)
        assert len(seen) == 6
        assert [_blas_count(setter) for setter in setters] == [3] * len(setters)
        with pytest.raises(SingularDesign):
            granger_many(Series("flat", np.full(200, 0.7)), [noise], tau_max=3)
        assert len(seen) == 7
        assert [_blas_count(setter) for setter in setters] == [3] * len(setters)
    assert seen == [[1] * len(setters)] * 7


def test_blas_setters_are_looked_up_once_and_not_at_import():
    # The lookup reads /proc/self/maps and opens libraries; import time
    # must not pay for it, and a run that fits no regression never does.
    import os
    import subprocess
    import sys

    import sigarea

    script = (
        "import sigarea, sigarea.cli\n"
        "from sigarea import baselines\n"
        "print(baselines._locate_blas_setters.cache_info().misses)\n"
    )
    package_root = os.path.dirname(os.path.dirname(sigarea.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"

    locate = baselines._locate_blas_setters
    locate.cache_clear()
    discover(gen_four_species(300), RunConfig(n_shuffles=20))
    assert locate.cache_info().misses == 0
    config = RunConfig(n_shuffles=20, run_granger=True)
    for _ in range(2):
        result = discover(gen_four_species(300), config)
        assert all(r.granger_min_p is not None for r in result.reports)
    info = locate.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits > 0


def test_ccm_skill_high_and_converging_for_forced_pair(sync_pair):
    xs, ys = sync_pair
    res = ccm(xs, ys)
    assert res.max_r2 >= 0.95
    profile = [res.skill[s] for s in res.library_sizes]
    assert profile[0] < profile[-1]
    assert all(0.0 <= v <= 1.0 for v in profile)
    assert res.pair == ("X", "Y")
    assert res.library_sizes == default_library_sizes(999)


def test_ccm_skill_grows_with_library_on_static_link():
    x = standard_normal(400, derive_seed(9, "ccm"))
    y = np.tanh(x) * 2.0 + 0.5
    res = ccm(Series("x", x), Series("y", y))
    profile = [res.skill[s] for s in res.library_sizes]
    assert all(u <= v + 1e-9 for u, v in zip(profile, profile[1:]))
    assert profile[-1] >= 0.9


def test_ccm_stays_low_on_independent_noise():
    a = scale_unit_range(gen_white_noise(1000, derive_seed(9, "ccmn", 0)))
    b = scale_unit_range(gen_white_noise(1000, derive_seed(9, "ccmn", 1)))
    assert ccm(a, b).max_r2 <= 0.3


def test_ccm_gives_a_constant_target_no_skill():
    # Centring a constant leaves rounding noise, not zeros, to correlate with.
    noise = gen_white_noise(100, derive_seed(9, "val"))
    got = ccm(Series("flat", np.full(100, 0.3)), noise)
    assert set(got.skill.values()) == {0.0} and got.max_r2 == 0.0


def test_ccm_gives_averages_of_equal_targets_no_skill():
    # No library reaches the last 12 samples, so every prediction averages
    # 0.25s; its rounding noise, not zeros, would correlate with x.
    y = gen_white_noise(200, derive_seed(3, "y"), "y")
    values = np.full(200, 0.25)
    values[-12:] = standard_normal(12, derive_seed(3, "x"))
    got = ccm(Series("x", values), y)
    assert set(got.skill.values()) == {0.0} and got.max_r2 == 0.0


def test_ccm_is_affine_invariant():
    x = standard_normal(400, derive_seed(9, "ccm"))
    y = np.tanh(x) * 2.0 + 0.5
    base = ccm(Series("x", x), Series("y", y))
    moved = ccm(Series("x", 3.5 * x + 11.0), Series("y", 0.2 * y - 4.0))
    for size in base.library_sizes:
        assert moved.skill[size] == pytest.approx(base.skill[size], abs=1e-12)


def test_default_library_sizes_counting():
    assert default_library_sizes(999) == (10, 109, 208, 306, 405, 504, 603, 701, 800, 899)
    assert default_library_sizes(20) == (10, 11, 12, 13, 14, 15, 16, 17, 18)


def test_ccm_validation():
    noise = gen_white_noise(100, derive_seed(9, "val"))
    flat = Series("flat", np.full(100, 0.3))
    with pytest.raises(DegenerateEmbedding):
        ccm(noise, flat)
    with pytest.raises(ValueError):
        ccm(noise, noise, embed_dim=0)
    with pytest.raises(ValueError):
        ccm(noise, noise, library_sizes=[50, 20])
    with pytest.raises(ValueError):
        ccm(noise, noise, library_sizes=[2, 40])
    with pytest.raises(TooShort):
        ccm(noise, noise, library_sizes=[10, 100])
    with pytest.raises(TooShort):
        ccm(
            gen_white_noise(4, derive_seed(9, 1)),
            gen_white_noise(4, derive_seed(9, 2)),
            embed_dim=3,
        )
    with pytest.raises(LengthMismatch):
        ccm(noise, gen_white_noise(99, derive_seed(9, 3)))


def test_ccm_on_four_manifold_points_is_too_short():
    # The default sizes for four points, (3, ..., 10), overrun the manifold
    # and also start below embed_dim + 2; the data error is the one raised.
    assert default_library_sizes(4) == tuple(range(3, 11))
    with pytest.raises(TooShort):
        ccm(
            gen_white_noise(5, derive_seed(9, 4)),
            gen_white_noise(5, derive_seed(9, 5)),
        )


def test_ccm_is_deterministic(sync_pair):
    xs, ys = sync_pair
    first = ccm(xs, ys, library_sizes=[10, 200, 900])
    second = ccm(xs, ys, library_sizes=[10, 200, 900])
    assert first.skill[900] == second.skill[900]
    assert first.max_r2 == second.max_r2


def _full_matrix_ccm(x, y, embed_dim, lag, sizes, lowest_index):
    """The all-pairs cross map: one n x n x E difference tensor and, per
    library size, either an argpartition of the whole prefix (the search
    the chunked one replaced) or a full stable argsort of it, which
    resolves equal distances to the lower library index."""
    t_len = len(x)
    offset = (embed_dim - 1) * lag
    manifold = np.column_stack(
        [y.values[offset - k * lag : t_len - k * lag] for k in range(embed_dim)]
    )
    targets = x.values[offset:]
    diffs = manifold[:, None, :] - manifold[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    np.fill_diagonal(dist, np.inf)
    n_neigh = embed_dim + 1
    skill = {}
    for lib in sizes:
        block = dist[:, :lib]
        if lowest_index:
            idx = np.argsort(block, axis=1, kind="stable")[:, :n_neigh]
            d = np.take_along_axis(block, idx, axis=1)
        else:
            idx = np.argpartition(block, n_neigh - 1, axis=1)[:, :n_neigh]
            d = np.take_along_axis(block, idx, axis=1)
            order = np.argsort(d, axis=1, kind="stable")
            d = np.take_along_axis(d, order, axis=1)
            idx = np.take_along_axis(idx, order, axis=1)
        nearest = d[:, :1]
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.exp(-d / nearest)
        w[~np.isfinite(w)] = 1.0
        w[nearest[:, 0] == 0.0] = 1.0
        w /= w.sum(axis=1, keepdims=True)
        pred = (w * targets[idx]).sum(axis=1)
        skill[lib] = baselines._squared_pearson(pred, targets)
    return skill


def _tie_free_channels(n):
    four = gen_four_species(n)
    noise = gen_white_noise(n, derive_seed(9, "oracle"))
    return [scale_unit_range(s) for s in (four.get("X"), four.get("Y"), noise)]


@pytest.mark.parametrize("n", [120, 600])
def test_ccm_matches_full_matrix_search_bit_for_bit(n):
    # 120 samples fit in one chunk; 600 need several.  The custom sizes
    # sit off the chunk edges (256, 512) and one chunk spans two of them.
    chans = _tie_free_channels(n)
    custom = (7, 100, 300, 511, 560) if n == 600 else (5, 50, 51, 90)
    for x, y in ((chans[0], chans[1]), (chans[2], chans[0])):
        for embed_dim in (1, 2, 3):
            for lag in (1, 2):
                for sizes in (None, custom):
                    got = ccm(x, y, embed_dim, lag, sizes)
                    want = _full_matrix_ccm(
                        x, y, embed_dim, lag, got.library_sizes, lowest_index=False
                    )
                    assert dict(got.skill) == want


@pytest.mark.parametrize("n", [120, 600])
@pytest.mark.parametrize("embed_dim, lag", [(1, 1), (2, 1), (3, 2)])
def test_ccm_many_matches_full_matrix_search_per_target(n, embed_dim, lag):
    # One neighbour search on the manifold of y scores every target; each
    # skill has the bits of the all-pairs search for that target alone.
    four = gen_four_species(n)
    noise = gen_white_noise(n, derive_seed(9, "oracle"))
    chans = [scale_unit_range(s) for s in (*four.series, noise)]
    custom = (7, 100, 300, 511, 560) if n == 600 else (5, 50, 51, 90)
    for y, xs in ((chans[1], [chans[0], chans[2], chans[3]]), (chans[4], chans[:4])):
        for sizes in (None, custom):
            got = ccm_many(xs, y, embed_dim, lag, sizes)
            assert [r.pair for r in got] == [(x.name, y.name) for x in xs]
            for result, x in zip(got, xs):
                want = _full_matrix_ccm(
                    x, y, embed_dim, lag, result.library_sizes, lowest_index=False
                )
                assert dict(result.skill) == want
                assert result.max_r2 == max(want.values())
                assert result == ccm(x, y, embed_dim, lag, sizes)


def test_ccm_many_errors_follow_the_manifold_not_the_targets():
    noise = gen_white_noise(100, derive_seed(9, "grp", 0), "u")
    other = gen_white_noise(100, derive_seed(9, "grp", 1), "v")
    flat = Series("flat", np.full(100, 0.3))
    # A constant target is scored like any other and leaves the rest alone.
    got = ccm_many([other, flat, other], noise)
    assert got[0] == got[2] == ccm(other, noise)
    assert got[1] == ccm(flat, noise)
    with pytest.raises(DegenerateEmbedding) as caught:
        ccm(noise, flat)
    for xs in ([noise], [noise, other]):
        with pytest.raises(DegenerateEmbedding) as group:
            ccm_many(xs, flat)
        assert str(group.value) == str(caught.value)
    assert str(caught.value) == "all shadow-manifold points coincide"
    with pytest.raises(LengthMismatch, match="^series lengths differ: 'W' 99 vs 'u' 100$"):
        ccm_many([other, gen_white_noise(99, derive_seed(9, 3))], noise)


@pytest.mark.parametrize("chunk", [baselines._CCM_CHUNK, 7, 1])
def test_ccm_ties_go_to_the_lower_library_index(monkeypatch, chunk):
    # Values on a 1/8 grid put many equal distances at the neighbour bound;
    # the result follows the lowest-index rule whatever the chunk width.
    monkeypatch.setattr(baselines, "_CCM_CHUNK", chunk)
    coarse = [
        Series(s.name, np.round(s.values * 8.0) / 8.0) for s in _tie_free_channels(300)
    ]
    assert len(np.unique(coarse[0].values)) <= 9
    for x, y in ((coarse[0], coarse[1]), (coarse[1], coarse[2])):
        for embed_dim in (1, 2, 3):
            got = ccm(x, y, embed_dim, 1, (5, 40, 131, 270))
            want = _full_matrix_ccm(
                x, y, embed_dim, 1, got.library_sizes, lowest_index=True
            )
            assert dict(got.skill) == want


def test_ccm_memory_is_bounded_by_the_chunk():
    # The all-pairs search peaked at 289 MB here (an n x n x E tensor).
    t_len = 3000
    x = gen_white_noise(t_len, derive_seed(9, "mem", 0))
    y = gen_white_noise(t_len, derive_seed(9, "mem", 1))
    tracemalloc.start()
    try:
        ccm(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * t_len * baselines._CCM_CHUNK * 8
