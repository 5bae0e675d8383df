"""Band construction and SSAD scoring.

The width multiplier value at t=1 is frozen from a direct evaluation of the
documented formula (done again inline here, plus a pinned constant), and the
pooled running moments are cross-checked against a naive per-window
recomputation that shares no code with the implementation.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sigarea import (
    AreaSequence,
    InsufficientData,
    LengthMismatch,
    NullBand,
    Series,
    confidence_band,
    gen_white_noise,
    multiplier,
    null_ensemble,
    scale_unit_range,
    shuffle,
    signed_area_sequence,
    ssad,
    ssad_pair_detail,
)
from sigarea.nulltest import _BLOCK_VALUES
from sigarea.rng import derive_seed, permutation

M1_FROZEN = 4.017687416608669


def test_multiplier_at_t1_matches_direct_evaluation():
    # m(1) = sqrt(2*(1+1)/1 * ln(sqrt(2)/(0.05/2))), evaluated here from
    # scratch; the frozen constant guards against silent regressions.
    direct = math.sqrt(2.0 * 2.0 / 1.0 * math.log(math.sqrt(2.0) / 0.025))
    assert abs(multiplier(1) - direct) <= 1e-3
    assert multiplier(1) == pytest.approx(direct, abs=1e-12)
    assert multiplier(1) == pytest.approx(M1_FROZEN, abs=1e-12)


def test_multiplier_strictly_decreasing_to_1e6():
    t = np.arange(1, 10**6 + 1, dtype=np.float64)
    m = multiplier(t)
    assert np.all(np.diff(m) < 0)


def test_multiplier_validation():
    with pytest.raises(ValueError):
        multiplier(1, rho=0.0)
    with pytest.raises(ValueError):
        multiplier(1, alpha=1.0)
    with pytest.raises(ValueError):
        multiplier(0)
    # A rho whose square underflows, or a non-finite rho, gives no finite
    # width; numpy must not warn on the way (warnings are errors here).
    for rho in (1e-200, float("nan"), float("inf")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                multiplier(3, rho)
    # A huge rho overflows t^2 rho^2 before t rho^2 + 1, so m would be
    # exactly 0 from some window on: from t = 135 at 1e152 (no inf or nan
    # anywhere) and over t = 14..89 at 1e153.
    for t, rho in ((np.arange(1, 992), 1e152), (np.arange(1, 90), 1e153)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite or zero"):
                multiplier(t, rho)


def test_confidence_band_pooled_matches_naive_recomputation():
    rng = np.random.default_rng(5)
    ens = rng.normal(size=(40, 25))
    band = confidence_band(ens, rho=1.0, alpha=0.05)
    for t in range(1, 26):
        pool = ens[:, :t].ravel()
        mu = pool.mean()
        sigma = pool.std(ddof=1)
        m = multiplier(t)
        assert band.mu[t - 1] == pytest.approx(mu, abs=1e-12)
        assert band.sigma[t - 1] == pytest.approx(sigma, abs=1e-12)
        assert band.lower[t - 1] == pytest.approx(mu - sigma * m, abs=1e-12)
        assert band.upper[t - 1] == pytest.approx(mu + sigma * m, abs=1e-12)


def test_confidence_band_ordering_and_degenerate_ensemble():
    rng = np.random.default_rng(7)
    band = confidence_band(rng.normal(size=(10, 12)))
    assert np.all(band.lower <= band.mu + 1e-15)
    assert np.all(band.mu <= band.upper + 1e-15)
    flat = confidence_band(np.full((5, 4), 2.5))
    assert np.array_equal(flat.lower, flat.upper)
    assert np.allclose(flat.mu, 2.5, atol=1e-15)
    assert np.array_equal(flat.sigma, np.zeros(4))


@pytest.mark.parametrize("t_len", [23, 1000, 10000])
def test_confidence_band_ignores_memory_layout(t_len):
    # The same values in C and Fortran order must give the same bits: the
    # sums run in one fixed order whatever layout the caller passes.
    a = scale_unit_range(gen_white_noise(t_len, derive_seed(8, t_len, 0)))
    b = scale_unit_range(gen_white_noise(t_len, derive_seed(8, t_len, 1)))
    ens = null_ensemble(a, b, 10, 50, seed=2)
    c_ordered = np.ascontiguousarray(ens)
    assert c_ordered.flags.c_contiguous and not c_ordered.flags.f_contiguous
    want = confidence_band(ens)
    got = confidence_band(c_ordered)
    for name in ("lower", "upper", "mu", "sigma"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_confidence_band_insufficient_data():
    with pytest.raises(InsufficientData):
        confidence_band(np.ones((1, 5)))
    with pytest.raises(InsufficientData):
        confidence_band(np.empty((0, 0)))


def test_null_band_length_validation():
    with pytest.raises(LengthMismatch):
        NullBand([0.0], [0.0, 1.0], [0.0], [0.0])


def test_null_ensemble_shape_and_determinism():
    a = scale_unit_range(gen_white_noise(100, derive_seed(2, 0)))
    b = scale_unit_range(gen_white_noise(100, derive_seed(2, 1)))
    ens = null_ensemble(a, b, 10, 50, seed=99)
    assert ens.shape == (50, 91)
    assert np.array_equal(ens, null_ensemble(a, b, 10, 50, seed=99))
    assert not np.array_equal(ens, null_ensemble(a, b, 10, 50, seed=100))
    tiled = null_ensemble(a, b, 10, 50, seed=99, stride=10)
    assert tiled.shape == (50, 10)


def _assert_rows_match_documented_composition(t_len, n_shuffles, window_length, stride):
    # Row k must be bit-identical to permuting each series with the derived
    # per-row seeds and running the windowed-area op on the results.
    a = scale_unit_range(gen_white_noise(t_len, derive_seed(4, 0), "A"))
    b = scale_unit_range(gen_white_noise(t_len, derive_seed(4, 1), "B"))
    seed = 1
    ens = null_ensemble(a, b, window_length, n_shuffles, seed=seed, stride=stride)
    for k in range(n_shuffles):
        pa = permutation(t_len, derive_seed(seed, "shuffle", k, 0))
        pb = permutation(t_len, derive_seed(seed, "shuffle", k, 1))
        row = signed_area_sequence(
            Series("A", a.values[pa]), Series("B", b.values[pb]), window_length, stride
        ).values
        assert np.array_equal(ens[k], row)


def test_null_ensemble_rows_match_documented_composition():
    _assert_rows_match_documented_composition(80, 5, 10, 3)


def test_null_ensemble_rows_match_documented_composition_long_series():
    _assert_rows_match_documented_composition(5000, 120, 10, 10)


@pytest.mark.parametrize(
    "t_len, n_shuffles",
    [
        (1000, 70),  # blocks of 32 rows: 32, 32 and a partial 6
        (_BLOCK_VALUES + 7, 3),  # T above the block size: one row per block
    ],
)
def test_null_ensemble_rows_match_documented_composition_across_block_edges(
    t_len, n_shuffles
):
    block_rows = max(1, _BLOCK_VALUES // t_len)
    assert block_rows == 1 or n_shuffles % block_rows
    _assert_rows_match_documented_composition(t_len, n_shuffles, 10, 10)


def test_null_ensemble_memory_is_bounded_by_output_and_rows():
    # Beyond its n x W result, null_ensemble holds two length-T shuffle
    # buffers and the temporaries of one row's areas; the whole shuffled
    # ensemble (2 N T values, 64 MB here) is never materialised.
    t_len, n_shuffles = 20000, 200
    a = scale_unit_range(gen_white_noise(t_len, derive_seed(6, 0)))
    b = scale_unit_range(gen_white_noise(t_len, derive_seed(6, 1)))
    tracemalloc.start()
    try:
        ens = null_ensemble(a, b, 10, n_shuffles, seed=3, stride=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.shape == (n_shuffles, 2000)
    assert peak <= 2 * (ens.size + 2 * t_len) * 8


def test_null_ensemble_needs_two_rows():
    a = scale_unit_range(gen_white_noise(50, derive_seed(5, 0)))
    b = scale_unit_range(gen_white_noise(50, derive_seed(5, 1)))
    with pytest.raises(InsufficientData):
        null_ensemble(a, b, 10, 1, seed=0)


def test_null_ensemble_grand_mean_near_zero():
    # Shuffling destroys lag structure, so the ensemble of areas should be
    # centered; bound is 3 standard errors of the grand mean.
    a = scale_unit_range(gen_white_noise(500, derive_seed(3, "ge", 0)))
    b = scale_unit_range(gen_white_noise(500, derive_seed(3, "ge", 1)))
    ens = null_ensemble(a, b, 10, 200, derive_seed(3, "ge", 2), stride=10)
    assert abs(ens.mean()) <= 3.0 * ens.std(ddof=1) / math.sqrt(ens.size)


def _band(lower, upper):
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    mid = (lower + upper) / 2
    return NullBand(lower, upper, mid, upper - mid)


def test_ssad_all_above_scores_one():
    seq = AreaSequence(("a", "b"), 5, 1, [2.0, 3.0, 2.5])
    res = ssad(seq, _band([-1.0] * 3, [1.0] * 3))
    assert res.score == 1.0
    assert list(res.per_step) == [1, 1, 1]


def test_ssad_inside_scores_zero():
    seq = AreaSequence(("a", "b"), 5, 1, [0.0, 0.1, -0.1])
    res = ssad(seq, _band([-1.0] * 3, [1.0] * 3))
    assert res.score == 0.0
    assert list(res.per_step) == [0, 0, 0]


def test_ssad_alternating_cancels():
    seq = AreaSequence(("a", "b"), 5, 1, [2.0, -2.0, 2.0, -2.0])
    res = ssad(seq, _band([-1.0] * 4, [1.0] * 4))
    assert res.score == 0.0
    assert list(res.per_step) == [1, -1, 1, -1]


def test_ssad_boundary_equality_counts_as_outside():
    seq = AreaSequence(("a", "b"), 5, 1, [1.0, -1.0, 0.5])
    res = ssad(seq, _band([-1.0] * 3, [1.0] * 3))
    assert list(res.per_step) == [1, -1, 0]


def test_ssad_length_mismatch():
    seq = AreaSequence(("a", "b"), 5, 1, [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        ssad(seq, _band([0.0] * 3, [1.0] * 3))


def test_ssad_pair_antisymmetric_by_construction(sync_scaled):
    xs, ys = sync_scaled
    fwd, rev, _, _ = ssad_pair_detail(
        xs, ys, window_length=10, n_shuffles=200, seed=31, stride=10
    )
    assert fwd.score + rev.score == 0.0
    assert np.array_equal(rev.per_step, -fwd.per_step)
    assert fwd.pair == ("X", "Y")
    assert rev.pair == ("Y", "X")


def test_ssad_pair_detail_exposes_matching_parts(sync_scaled):
    xs, ys = sync_scaled
    fwd, rev, actual, band = ssad_pair_detail(
        xs, ys, window_length=10, n_shuffles=100, seed=5, stride=10
    )
    assert actual.count == len(band)
    redone = ssad(actual, band)
    assert redone.score == fwd.score
    assert np.array_equal(redone.per_step, fwd.per_step)


def test_driven_pair_scores_high_and_noise_pair_low(sync_scaled):
    # Strongly coupled logistic pair: score lands in a wide band around the
    # reference value 0.71; an independent noise channel stays near zero.
    xs, ys = sync_scaled
    fwd, _, _, _ = ssad_pair_detail(
        xs, ys, window_length=10, n_shuffles=1000, seed=7, stride=10
    )
    assert 0.55 <= fwd.score <= 0.85

    wn = scale_unit_range(gen_white_noise(1000, derive_seed(11, "noise")))
    xw, _, _, _ = ssad_pair_detail(
        xs,
        wn,
        window_length=10,
        n_shuffles=1000,
        seed=derive_seed(11, "pair", "W", "X"),
        stride=10,
    )
    assert abs(xw.score) <= 0.2


def test_shuffled_actual_rarely_flagged():
    # Feeding a shuffled pair as the "actual" trajectory should almost never
    # produce a notable score: 95 of 100 seeded trials under the default
    # non-overlapping windowing (measured 96).
    hits = 0
    for trial in range(100):
        seed = derive_seed(1234, "selftest", trial)
        a = scale_unit_range(gen_white_noise(500, derive_seed(seed, 0)))
        b = scale_unit_range(gen_white_noise(500, derive_seed(seed, 1)))
        actual = signed_area_sequence(
            shuffle(a, derive_seed(seed, 2)), shuffle(b, derive_seed(seed, 3)), 10, 10
        )
        band = confidence_band(
            null_ensemble(a, b, 10, 300, derive_seed(seed, 4), stride=10)
        )
        if abs(ssad(actual, band).score) < 0.2:
            hits += 1
    assert hits >= 95
