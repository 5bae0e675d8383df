"""Band construction and SSAD scoring.

The width multiplier value at t=1 is frozen from a direct evaluation of the
documented formula (done again inline here, plus a pinned constant), and the
pooled running moments are cross-checked against a naive per-window
recomputation that shares no code with the implementation.
"""

import itertools
import math
import sys
import threading
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
    gen_four_species,
    gen_white_noise,
    multiplier,
    null_ensemble,
    scale_unit_range,
    shuffle,
    signed_area,
    signed_area_sequence,
    ssad,
    ssad_pair_detail,
)
from sigarea import nulltest, signature
from sigarea.nulltest import _BLOCK_VALUES, _THREAD_MIN_LENGTH, _exact_sigma
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


def _one_pass_band(ensemble, rho=1.0, alpha=0.05):
    # The band as one pass over the whole matrix, two n x W temporaries
    # and all: the reference that the column blocks must match bit for bit.
    ens = np.asarray(ensemble, dtype=np.float64, order="F")
    n, w = ens.shape
    t = np.arange(1, w + 1)
    m0 = ens.mean()
    centered = ens - m0
    s1 = np.cumsum(centered.sum(axis=0))
    s2 = np.cumsum((centered * centered).sum(axis=0))
    count = n * t
    mu = m0 + s1 / count
    sigma = np.sqrt(np.maximum((s2 - s1 * s1 / count) / (count - 1), 0.0))
    m = multiplier(t, rho, alpha)
    return NullBand(mu - sigma * m, mu + sigma * m, mu, sigma)


# Every n with every w up to about 10^6 values: n = 1000 takes 32 columns
# per block (so w = 31, 32, 33 and 1025 end a block short, exact and one
# over) and n = 2^15 + 1 one column per block.
_BAND_SHAPES = [
    (n, w)
    for n in (2, 3, 1000, _BLOCK_VALUES + 1)
    for w in (1, 5, 31, 32, 33, 1025, 9991)
    if n * w <= 1_100_000
]


@pytest.mark.parametrize("n, w", _BAND_SHAPES)
def test_confidence_band_blocks_keep_the_one_pass_bits(n, w):
    rng = np.random.default_rng(derive_seed(12, n, w))
    values = rng.normal(loc=7.3, scale=0.01, size=(n, w))
    for ens in (values, np.full((n, w), -2.6)):
        want = _one_pass_band(ens)
        for layout in (np.ascontiguousarray(ens), np.asfortranarray(ens)):
            got = confidence_band(layout)
            for name in ("lower", "upper", "mu", "sigma"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(confidence_band(np.full((n, w), -2.6)).sigma, np.zeros(w))


def test_confidence_band_memory_is_one_block_beyond_its_input():
    # An F-ordered ensemble is read in place: beyond it the band holds one
    # block of centered values and O(W) arrays (1.25 MB measured here),
    # where one pass over the whole matrix held two 80 MB copies.
    n, w = 1000, 10**4
    ens = np.asfortranarray(np.random.default_rng(4).normal(3.0, 1.0, size=(n, w)))
    band, peak = _traced_peak(lambda: confidence_band(ens))
    assert len(band) == w
    assert peak <= (20 * w + 2 * _BLOCK_VALUES) * 8


def test_ssad_pair_detail_memory_is_one_ensemble_and_buffers(monkeypatch):
    # At stride 1 the ensemble (200 x 19991) dwarfs the rest: a pair holds
    # it, one pair of shuffle rows, one band block and O(T + W) arrays.
    monkeypatch.setattr(nulltest, "_usable_cpus", lambda: 1)
    t_len, n_shuffles, window = 20000, 200, 10
    a = scale_unit_range(gen_white_noise(t_len, derive_seed(6, 0), "A"))
    b = scale_unit_range(gen_white_noise(t_len, derive_seed(6, 1), "B"))
    (_, _, actual, _), peak = _traced_peak(
        lambda: ssad_pair_detail(
            a, b, window_length=window, n_shuffles=n_shuffles, seed=3, stride=1
        )
    )
    w = actual.count
    assert w == t_len - window + 1
    assert peak <= (n_shuffles * w + 16 * (t_len + w) + 2 * _BLOCK_VALUES) * 8


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


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _ensemble_peak(t_len, n_shuffles):
    a = scale_unit_range(gen_white_noise(t_len, derive_seed(6, 0)))
    b = scale_unit_range(gen_white_noise(t_len, derive_seed(6, 1)))
    ens, peak = _traced_peak(lambda: null_ensemble(a, b, 10, n_shuffles, seed=3, stride=10))
    assert ens.shape == (n_shuffles, t_len // 10)
    return ens, peak


def test_null_ensemble_memory_is_bounded_by_output_and_rows(monkeypatch):
    # Beyond its n x W result, null_ensemble holds two length-T shuffle
    # buffers and the temporaries of one row's areas; the whole shuffled
    # ensemble (2 N T values, 64 MB here) is never materialised.  One
    # thread, so one pair of buffers.
    monkeypatch.setattr(nulltest, "_usable_cpus", lambda: 1)
    t_len = 20000
    ens, peak = _ensemble_peak(t_len, 200)
    assert peak <= 2 * (ens.size + 2 * t_len) * 8


def test_null_ensemble_memory_grows_by_one_pair_of_rows_per_thread(monkeypatch):
    # Each of the three shares holds its own two length-T buffers.
    monkeypatch.setattr(nulltest, "_usable_cpus", lambda: 3)
    t_len = 20000
    ens, peak = _ensemble_peak(t_len, 200)
    assert peak <= 2 * (ens.size + 3 * 2 * t_len) * 8


def _white_pair(t_len):
    a = scale_unit_range(gen_white_noise(t_len, derive_seed(8, 0), "A"))
    b = scale_unit_range(gen_white_noise(t_len, derive_seed(8, 1), "B"))
    return a, b


@pytest.mark.parametrize("t_len", [_THREAD_MIN_LENGTH, 5000, _BLOCK_VALUES + 7])
@pytest.mark.parametrize("n_shuffles", [2, 7, 120])
def test_null_ensemble_bits_do_not_depend_on_thread_count(monkeypatch, t_len, n_shuffles):
    # Blocks hold up to 8 rows here, so at N = 2 and 7 there are fewer
    # blocks than threads at every T but the longest.  A short switch
    # interval interleaves the threads' writes into the shared result.
    a, b = _white_pair(t_len)
    ensembles = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 3, 5):
            monkeypatch.setattr(nulltest, "_usable_cpus", lambda: threads)
            ensembles.append(null_ensemble(a, b, 10, n_shuffles, seed=2, stride=10))
    finally:
        sys.setswitchinterval(interval)
    assert all(ens.flags.f_contiguous for ens in ensembles)
    assert len({ens.tobytes() for ens in ensembles}) == 1


def test_null_ensemble_threads_only_from_the_minimum_length(monkeypatch):
    import concurrent.futures

    built = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(nulltest, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    null_ensemble(*_white_pair(_THREAD_MIN_LENGTH - 1), 10, 20, seed=0, stride=10)
    assert built == []
    null_ensemble(*_white_pair(_THREAD_MIN_LENGTH), 10, 20, seed=0, stride=10)
    assert built == [(1,)]


class _FailingOffMainThread(nulltest.Shuffler):
    def shuffle_into(self, out, values, seed):
        if threading.current_thread() is not threading.main_thread():
            raise ZeroDivisionError("share failed")
        super().shuffle_into(out, values, seed)


def test_a_failing_thread_share_raises_its_error_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(nulltest, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(nulltest, "Shuffler", _FailingOffMainThread)
    before = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="share failed"):
        null_ensemble(*_white_pair(_THREAD_MIN_LENGTH), 10, 200, seed=0, stride=10)
    assert threading.active_count() == before


def test_null_ensemble_needs_two_rows():
    a = scale_unit_range(gen_white_noise(50, derive_seed(5, 0)))
    b = scale_unit_range(gen_white_noise(50, derive_seed(5, 1)))
    with pytest.raises(ValueError, match="^n_shuffles must be >= 2$"):
        null_ensemble(a, b, 10, 1, seed=0)


def test_null_ensemble_grand_mean_near_zero():
    # Shuffling destroys lag structure, so the ensemble of areas should be
    # centered; bound is 3 standard errors of the grand mean.
    a = scale_unit_range(gen_white_noise(500, derive_seed(3, "ge", 0)))
    b = scale_unit_range(gen_white_noise(500, derive_seed(3, "ge", 1)))
    ens = null_ensemble(a, b, 10, 200, derive_seed(3, "ge", 2), stride=10)
    assert abs(ens.mean()) <= 3.0 * ens.std(ddof=1) / math.sqrt(ens.size)


def _enumerated_null(a, b, window_length):
    """Mean and standard deviation of each stride-1 window's area over all
    (T!)^2 pairs of permutations of a and of b: the exact null, streamed one
    permutation of a at a time against every permutation of b."""
    perms = np.array(list(itertools.permutations(range(a.size))))
    b_rows = b[perms]
    total = squares = 0.0
    for p in perms:
        a_rows = np.broadcast_to(a[p], b_rows.shape)
        areas = signature._window_areas(a_rows, b_rows, window_length, 1)
        total = total + areas.sum(axis=0)
        squares = squares + (areas * areas).sum(axis=0)
    mean = total / len(perms) ** 2
    return mean, np.sqrt(squares / len(perms) ** 2 - mean * mean)


@pytest.mark.parametrize("t_len, window_length", [(4, 3), (5, 3), (5, 4), (6, 4)])
def test_exact_sigma_is_every_windows_enumerated_null_sd(t_len, window_length):
    # Every window of every stride is a stride-1 window, so one sigma at
    # each of them is one sigma at any stride.
    a = gen_white_noise(t_len, derive_seed(11, "exact", 0)).values + 3.0
    b = gen_white_noise(t_len, derive_seed(11, "exact", 1)).values
    sigma = _exact_sigma(Series("a", a), Series("b", b), window_length)
    mean, sd = _enumerated_null(a, b, window_length)
    assert mean.size == t_len - window_length + 1
    assert np.all(np.abs(mean) <= 1e-12 * sigma)
    np.testing.assert_allclose(sd, sigma, rtol=1e-12, atol=0)


@pytest.mark.parametrize("stride", [10, 1])
def test_exact_sigma_agrees_with_the_shuffle_band_at_every_stride(stride):
    # The band's last sigma pools all N x W shuffled areas; its rows are
    # independent, so their mean squared deviations give its standard error.
    four = gen_four_species(1000)
    a, b = (scale_unit_range(four.get(name)) for name in ("X", "Y"))
    ens = null_ensemble(a, b, 10, 4000, seed=0, stride=stride)
    band = confidence_band(ens)
    per_row = ((ens - band.mu[-1]) ** 2).mean(axis=1)
    se = per_row.std(ddof=1) / math.sqrt(per_row.size) / (2.0 * band.sigma[-1])
    assert abs(band.sigma[-1] - _exact_sigma(a, b, 10)) <= 3.0 * se


def test_exact_sigma_is_the_trace_formula_and_scales_with_the_moments():
    # sigma = sqrt(m2(a) m2(b) tr(C K C^T K)) / 2, with C read off
    # signed_area at unit vectors (2A = x^T C y on the path (x, y)) and
    # K = (T I - J) / (T - 1).
    for t_len, window_length in ((3, 3), (12, 5), (40, 10)):
        a = gen_white_noise(t_len, derive_seed(12, "trace", 0), "a")
        b = gen_white_noise(t_len, derive_seed(12, "trace", 1), "b")
        eye = np.eye(window_length)
        c = 2.0 * np.array(
            [[signed_area(np.column_stack([x, y])) for y in eye] for x in eye]
        )
        k = (t_len * eye - 1.0) / (t_len - 1)
        trace = np.trace(c @ k @ c.T @ k)
        m2 = np.var(a.values) * np.var(b.values)
        sigma = _exact_sigma(a, b, window_length)
        assert sigma == pytest.approx(0.5 * math.sqrt(m2 * trace), rel=1e-12)
        # Shifts leave it, and a factor on either channel scales it.
        for scaled, factor in (
            ((Series("a", 2.5 * a.values - 7.0), b), 2.5),
            ((a, Series("b", -0.1 * b.values)), 0.1),
            ((b, a), 1.0),
        ):
            assert _exact_sigma(*scaled, window_length) == pytest.approx(
                factor * sigma, rel=1e-12
            )


def _band(lower, upper):
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    mid = (lower + upper) / 2
    return NullBand(lower, upper, mid, upper - mid)


def test_ssad_all_above_scores_one():
    seq = AreaSequence(("a", "b"), [2.0, 3.0, 2.5])
    res = ssad(seq, _band([-1.0] * 3, [1.0] * 3))
    assert res.score == 1.0
    assert list(res.per_step) == [1, 1, 1]


def test_ssad_inside_scores_zero():
    seq = AreaSequence(("a", "b"), [0.0, 0.1, -0.1])
    res = ssad(seq, _band([-1.0] * 3, [1.0] * 3))
    assert res.score == 0.0
    assert list(res.per_step) == [0, 0, 0]


def test_ssad_alternating_cancels():
    seq = AreaSequence(("a", "b"), [2.0, -2.0, 2.0, -2.0])
    res = ssad(seq, _band([-1.0] * 4, [1.0] * 4))
    assert res.score == 0.0
    assert list(res.per_step) == [1, -1, 1, -1]


def test_ssad_boundary_equality_counts_as_outside():
    seq = AreaSequence(("a", "b"), [1.0, -1.0, 0.5])
    res = ssad(seq, _band([-1.0] * 3, [1.0] * 3))
    assert list(res.per_step) == [1, -1, 0]


def test_ssad_length_mismatch():
    seq = AreaSequence(("a", "b"), [1.0, 2.0])
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
