"""Signature and signed-area correctness against independent oracles.

The quadrature oracle integrates the iterated integrals directly on a
refined copy of the path; the shoelace oracle computes polygon areas from
the classical cross-product sum.  Neither shares code with the library.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigarea import (
    AreaSequence,
    DegeneratePath,
    LengthMismatch,
    Series,
    Sig2,
    WindowTooLong,
    chen_concat,
    signature_depth2,
    signed_area,
    signed_area_sequence,
)


def quadrature_level2(path: np.ndarray, refine: int = 10_000) -> np.ndarray:
    """S^{ij} = integral of (X^i_t - X^i_0) dX^j_t on a refined path.

    Each original segment is split into equal pieces; on every piece the
    integrand is linear, so using the midpoint value of X^i is plain
    numerical quadrature of the double integral.
    """
    n, d = path.shape
    per_seg = max(refine // (n - 1), 1)
    fine = [path[0]]
    for k in range(n - 1):
        for step in range(1, per_seg + 1):
            fine.append(path[k] + (path[k + 1] - path[k]) * step / per_seg)
    fp = np.asarray(fine)
    mids = (fp[:-1] + fp[1:]) / 2.0 - path[0]
    deltas = np.diff(fp, axis=0)
    out = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            out[i, j] = float(np.sum(mids[:, i] * deltas[:, j]))
    return out


def shoelace(xy: np.ndarray) -> float:
    x, y = xy[:, 0], xy[:, 1]
    return 0.5 * float(
        np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    )


def test_single_segment_closed_form():
    for a, b in [(3.0, -2.0), (0.25, 0.75), (-1.5, -4.0)]:
        sig = signature_depth2(np.array([[0.0, 0.0], [a, b]]))
        assert sig.level0 == 1.0
        assert np.max(np.abs(sig.level1 - [a, b])) <= 1e-12
        want = np.array([[a * a / 2, a * b / 2], [a * b / 2, b * b / 2]])
        assert np.max(np.abs(sig.level2 - want)) <= 1e-12


def test_unit_square_loop():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    sig = signature_depth2(square)
    assert np.max(np.abs(sig.level1)) <= 1e-12
    assert abs(sig.level2[0, 1] - sig.level2[1, 0] - 2.0) <= 1e-12
    assert abs(signed_area(square) - 1.0) <= 1e-12
    assert abs(signed_area(square[::-1]) + 1.0) <= 1e-12


def test_straight_segment_area_is_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p0, p1 = rng.normal(size=(2, 2))
        assert abs(signed_area(np.array([p0, p1]))) <= 1e-12


def test_signature_matches_quadrature_oracle():
    rng = np.random.default_rng(42)
    path = rng.normal(size=(20, 2))
    sig = signature_depth2(path)
    oracle = quadrature_level2(path)
    assert np.max(np.abs(sig.level2 - oracle)) <= 1e-6
    assert np.max(np.abs(sig.level1 - (path[-1] - path[0]))) <= 1e-12


def test_signature_quadrature_oracle_higher_dim():
    rng = np.random.default_rng(43)
    path = rng.normal(size=(12, 3))
    sig = signature_depth2(path)
    assert np.max(np.abs(sig.level2 - quadrature_level2(path))) <= 1e-6


def test_chen_concatenation_and_shuffle_identities():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        d = int(rng.integers(2, 4))
        path = rng.normal(size=(n, d))
        m = int(rng.integers(1, n - 1))
        whole = signature_depth2(path)
        joined = chen_concat(
            signature_depth2(path[: m + 1]), signature_depth2(path[m:])
        )
        assert np.max(np.abs(whole.level1 - joined.level1)) <= 1e-10
        assert np.max(np.abs(whole.level2 - joined.level2)) <= 1e-10
        # shuffle identity: sym part of level2 is determined by level1
        sym = whole.level2 + whole.level2.T
        outer = np.outer(whole.level1, whole.level1)
        assert np.max(np.abs(sym - outer)) <= 1e-10


def test_translation_invariance():
    rng = np.random.default_rng(8)
    path = rng.normal(size=(25, 2))
    shifted = path + np.array([17.5, -3.25])
    a, b = signature_depth2(path), signature_depth2(shifted)
    assert np.max(np.abs(a.level1 - b.level1)) <= 1e-10
    assert np.max(np.abs(a.level2 - b.level2)) <= 1e-10


def test_signed_area_equals_antisymmetric_signature_part():
    rng = np.random.default_rng(9)
    for _ in range(20):
        path = rng.normal(size=(15, 2))
        sig = signature_depth2(path)
        assert abs(
            signed_area(path) - 0.5 * (sig.level2[0, 1] - sig.level2[1, 0])
        ) <= 1e-12


def test_signed_area_matches_shoelace_on_closed_polygons():
    # Star-shaped polygons around the origin are simple by construction.
    rng = np.random.default_rng(10)
    for _ in range(100):
        k = int(rng.integers(3, 12))
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=k))
        radii = rng.uniform(0.1, 5.0, size=k)
        ring = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        closed = np.vstack([ring, ring[:1]])
        assert abs(signed_area(closed) - shoelace(ring)) <= 1e-9


def test_signature_input_validation():
    with pytest.raises(DegeneratePath):
        signature_depth2(np.array([[1.0, 2.0]]))
    # One coordinate per point is a path of n points in one dimension.
    with pytest.raises(ValueError, match="n x d array"):
        signature_depth2(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="d x d"):
        Sig2([1.0, 2.0], np.eye(3))
    planar = signature_depth2(np.array([[0.0, 0.0], [1.0, 2.0]]))
    spatial = signature_depth2(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
    with pytest.raises(LengthMismatch, match="different dimensions"):
        chen_concat(planar, spatial)
    with pytest.raises(DegeneratePath):
        signed_area(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        signed_area(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))


def _whole_window(a, b):
    # The pair's area over one window spanning the whole series.
    (area,) = signed_area_sequence(a, b, len(a)).values
    return area


def test_pair_path_orientation_fixed_once():
    # The ordered pair (a, b) is traced with b on the horizontal axis and a
    # on the vertical axis; everything downstream inherits this convention.
    a = Series("a", [0.0, 0.0, 1.0, 1.0, 0.0])
    b = Series("b", [0.0, 1.0, 1.0, 0.0, 0.0])
    # b moves first around this loop, so the (b, a)-plane traversal is
    # counterclockwise and the pair (a, b) gets the positive area
    assert _whole_window(a, b) == pytest.approx(1.0, abs=1e-12)
    assert _whole_window(b, a) == pytest.approx(-1.0, abs=1e-12)
    assert _whole_window(a, b) == signed_area(np.column_stack([b.values, a.values]))


def test_area_sequence_window_count_and_stride():
    rng = np.random.default_rng(11)
    a = Series("a", rng.normal(size=1000))
    b = Series("b", rng.normal(size=1000))
    assert signed_area_sequence(a, b, 10, 1).count == 991
    assert signed_area_sequence(a, b, 10, 10).count == 100
    assert signed_area_sequence(a, b, 17, 5).count == (1000 - 17) // 5 + 1


def test_area_sequence_windows_match_single_window_areas():
    # Each batched window must equal an independently computed whole-path
    # area of the same slice.
    rng = np.random.default_rng(12)
    a = Series("a", rng.normal(size=60))
    b = Series("b", rng.normal(size=60))
    for stride in (1, 3, 7):
        seq = signed_area_sequence(a, b, 9, stride)
        for w in range(seq.count):
            s = w * stride
            window = np.column_stack(
                [b.values[s : s + 9], a.values[s : s + 9]]
            )
            assert seq.values[w] == pytest.approx(signed_area(window), abs=1e-12)


def test_area_sequence_identical_series_is_zero():
    v = np.sin(np.linspace(0, 20, 300))
    a, b = Series("a", v), Series("b", v)
    assert np.max(np.abs(signed_area_sequence(a, b, 10, 1).values)) == 0.0


def test_area_sequence_antisymmetry_is_exact():
    rng = np.random.default_rng(13)
    a = Series("a", rng.normal(size=400))
    b = Series("b", rng.normal(size=400))
    fwd = signed_area_sequence(a, b, 10, 1).values
    rev = signed_area_sequence(b, a, 10, 1).values
    assert np.array_equal(fwd, -rev)


def test_area_sequence_errors():
    a = Series("a", np.arange(10.0))
    b = Series("b", np.arange(10.0) ** 2)
    with pytest.raises(WindowTooLong):
        signed_area_sequence(a, b, 11)
    with pytest.raises(LengthMismatch):
        signed_area_sequence(a, Series("c", [1.0, 2.0]), 2)
    with pytest.raises(ValueError):
        signed_area_sequence(a, b, 1)
    with pytest.raises(ValueError):
        signed_area_sequence(a, b, 5, 0)


def test_area_sequence_values_frozen():
    seq = AreaSequence(("a", "b"), [1.0, 2.0])
    with pytest.raises(ValueError):
        seq.values[0] = 9.0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=4,
        max_size=40,
    ),
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=4,
        max_size=40,
    ),
)
def test_property_pair_area_antisymmetry(xs, ys):
    n = min(len(xs), len(ys))
    a = Series("a", xs[:n])
    b = Series("b", ys[:n])
    assert _whole_window(a, b) == -_whole_window(b, a)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_property_chen_split_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 25))
    path = rng.normal(size=(n, 2))
    m = int(rng.integers(1, n - 1))
    whole = signature_depth2(path)
    joined = chen_concat(signature_depth2(path[: m + 1]), signature_depth2(path[m:]))
    assert np.max(np.abs(whole.level2 - joined.level2)) <= 1e-9
