"""Lagged-regression F-tests and cross-mapping skill.

The F-tail values are pinned against a 12-point table computed with mpmath
at 40 significant digits, and the same reference is recomputed live so the
table itself cannot go stale.
"""

import tracemalloc

import numpy as np
import pytest

from sigarea import baselines
from sigarea import (
    DegenerateEmbedding,
    LengthMismatch,
    SingularDesign,
    TooShort,
    ccm,
    default_library_sizes,
    f_upper_tail,
    gen_four_species,
    gen_two_species_sync,
    gen_white_noise,
    granger,
    regularized_incomplete_beta,
    scale_unit_range,
)
from sigarea.rng import derive_seed, standard_normal
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
