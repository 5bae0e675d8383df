import numpy as np
import pytest

from sigarea import (
    ConstantSeries,
    Divergence,
    EmptyRange,
    LengthMismatch,
    NonMonotonicTime,
    Panel,
    Series,
    TooShort,
    difference,
    interpolate_uniform,
    scale_unit_range,
    shuffle,
)


def test_series_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        Series("s", [])
    with pytest.raises(ValueError):
        Series("s", [1.0, np.nan])
    with pytest.raises(ValueError):
        Series("s", [1.0, np.inf])


def test_series_values_are_immutable():
    s = Series("s", [1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_panel_validates_names_and_lengths():
    with pytest.raises(ValueError, match="at least one series"):
        Panel(())
    a = Series("a", [1.0, 2.0])
    with pytest.raises(ValueError):
        Panel((a, Series("a", [3.0, 4.0])))
    with pytest.raises(LengthMismatch):
        Panel((a, Series("b", [1.0, 2.0, 3.0])))
    p = Panel((a, Series("b", [3.0, 4.0])))
    assert p.names == ("a", "b")
    assert p.length == 2
    assert p.get("b").values[0] == 3.0
    with pytest.raises(KeyError):
        p.get("c")


def test_scale_unit_range_small_example():
    out = scale_unit_range(Series("s", [1.0, 2.0, 3.0]))
    assert np.allclose(out.values, [-0.5, 0.0, 0.5], atol=1e-15)


def test_scale_unit_range_of_a_range_past_float64():
    # max - min overflows to inf here; the channel is scaled as its halved
    # copy is, bit for bit, not divided by inf into zeros.
    values = [1e308, -1e308, 5.0, 1.0]
    out = scale_unit_range(Series("A", values)).values
    half = scale_unit_range(Series("A", [v / 2 for v in values])).values
    assert np.array_equal(out, half)
    assert out[0] - out[1] == 1.0


def test_scale_unit_range_constant_rejected():
    with pytest.raises(ConstantSeries):
        scale_unit_range(Series("s", [5.0, 5.0, 5.0]))
    with pytest.raises(TooShort):
        scale_unit_range(Series("s", [5.0]))


def test_scale_unit_range_postconditions_and_idempotence():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = Series("s", rng.normal(3.0, 10.0, size=57))
        out = scale_unit_range(s)
        assert abs(out.values.mean()) <= 1e-12
        assert abs(out.values.max() - out.values.min() - 1.0) <= 1e-12
        again = scale_unit_range(out)
        assert np.max(np.abs(again.values - out.values)) <= 1e-12


def test_scale_unit_range_affine_invariance():
    # scale(a*x + b) must equal scale(x); checked by direct recomputation
    # over random series and random positive affine maps.
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.normal(size=40)
        a = float(rng.uniform(0.01, 100.0))
        b = float(rng.normal(scale=50.0))
        base = scale_unit_range(Series("s", x)).values
        mapped = scale_unit_range(Series("s", a * x + b)).values
        assert np.max(np.abs(base - mapped)) <= 1e-10


def test_difference_examples():
    assert np.array_equal(
        difference(Series("s", [1.0, 3.0, 6.0]), 1).values, [2.0, 3.0]
    )
    assert np.array_equal(
        difference(Series("s", [1.0, 3.0, 6.0, 10.0]), 2).values, [1.0, 1.0]
    )
    s = Series("s", [4.0, 4.5, 2.0])
    assert difference(s, 0) is s


def test_difference_inverts_by_cumsum():
    rng = np.random.default_rng(2)
    v = rng.normal(size=30)
    d = difference(Series("s", v), 1).values
    rebuilt = np.concatenate([[v[0]], v[0] + np.cumsum(d)])
    assert np.allclose(rebuilt, v, atol=1e-12)


def test_difference_too_short():
    with pytest.raises(TooShort):
        difference(Series("s", [1.0, 2.0]), 2)


def test_difference_past_float64_is_a_data_error():
    # 1e308 - (-1e308) overflows; a second order turns inf - inf into NaN.
    # Both are data errors naming the channel and the order, with no
    # numpy warning (the test run turns warnings into errors).
    values = [1e308, -1e308, 1e308, 0.0]
    for order in (1, 2):
        with pytest.raises(Divergence) as caught:
            difference(Series("A", values), order)
        assert str(caught.value) == f"series 'A': order-{order} differences overflow float64"
    # Differences that stay finite keep np.diff's values, near the limit too.
    near = [1e308, -7e307, 5.0]
    assert np.array_equal(difference(Series("A", near), 1).values, np.diff(near))


def test_interpolate_uniform_examples():
    out = interpolate_uniform(np.array([0.0, 2.0]), np.array([0.0, 4.0]), 1.0)
    assert np.allclose(out.values, [0.0, 2.0, 4.0], atol=1e-15)

    out = interpolate_uniform(
        np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]), 0.5
    )
    assert np.allclose(out.values, [1.0] * 5, atol=1e-15)

    out = interpolate_uniform(np.array([0.0, 10.0]), np.array([0.0, 10.0]), 3.0)
    assert np.allclose(out.values, [0.0, 3.0, 6.0, 9.0], atol=1e-15)


def test_interpolate_uniform_errors():
    with pytest.raises(NonMonotonicTime):
        interpolate_uniform(np.array([0.0, 2.0, 1.0]), np.array([1.0, 2.0, 3.0]), 1.0)
    with pytest.raises(EmptyRange):
        interpolate_uniform(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 5.0)
    with pytest.raises(EmptyRange, match="at least 2 samples"):
        interpolate_uniform(np.array([0.0]), np.array([1.0]), 1.0)
    with pytest.raises(LengthMismatch):
        interpolate_uniform(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]), 1.0)
    for step in (-1.0, 0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite positive"):
            interpolate_uniform(np.array([0.0, 1.0]), np.array([0.0, 1.0]), step)
    # A grid too long for any array to index, with no overflow warning.
    for step in (5e-324, 1e-300):
        with pytest.raises(ValueError, match="^step .* is too small: no array can index"):
            interpolate_uniform(np.array([0.0, 2.0]), np.array([0.0, 1.0]), step)


def test_shuffle_preserves_multiset_and_is_deterministic():
    s = Series("s", np.arange(50.0))
    for seed in (0, 7, 123456789):
        out = shuffle(s, seed)
        assert sorted(out.values) == sorted(s.values)
        assert np.array_equal(out.values, shuffle(s, seed).values)
    assert not np.array_equal(shuffle(s, 1).values, shuffle(s, 2).values)


def test_shuffle_permutations_uniform_over_seeds():
    # 10000 seeds on 3 elements: each of the 6 orderings should appear with
    # frequency 1/6 within 0.02, and the chi-square statistic against the
    # uniform law should be unremarkable (5 dof, 20.5 is the 0.001 tail).
    s = Series("s", [1.0, 2.0, 3.0])
    counts: dict[tuple, int] = {}
    for seed in range(10000):
        key = tuple(shuffle(s, seed).values)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expected = 10000 / 6
    for c in counts.values():
        assert abs(c / 10000 - 1 / 6) <= 0.02
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 20.5
