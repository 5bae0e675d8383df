"""Depth-2 path signatures and Levy signed areas of sampled paths.

Samples are interpreted as the vertices of a piecewise-linear path.  The
depth-2 signature collects the increments (level 1) and the double iterated
integrals (level 2); the signed area of a planar path is the antisymmetric
part of level 2 and, for closed curves, equals the enclosed oriented area
with counterclockwise positive.

Pair orientation
----------------
When two series (a, b) are analysed as a pair, the path is traced through
the points (b_t, a_t): the first-named series rides the vertical axis.  A
positive windowed area therefore means counterclockwise circulation in that
plane.  The choice is a pure sign convention (swapping the pair negates every
area exactly); it is fixed here once and shared by the windowed sequences,
the null ensembles, and the shift profiles so their signs always agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePath, LengthMismatch, WindowTooLong
from .series import Series, _freeze, _reduce_through_init, check_lengths

# A window of two samples is one straight chord, which encloses no area.
_MIN_WINDOW_LENGTH = 3

# np.sum adds these contiguous term arrays pairwise, with an error that grows
# with their length; above this many terms math.fsum, correctly rounded but
# slower, sums the whole-interval areas of the shift profiles instead.
_FSUM_THRESHOLD = 1000


def _sum(terms: np.ndarray) -> float:
    if terms.size > _FSUM_THRESHOLD:
        return math.fsum(terms.tolist())
    return float(np.sum(terms))


@dataclass(frozen=True, eq=False)
class Sig2:
    """Depth-2 signature: level0 is the constant 1, level1 the increment
    vector, level2 the matrix of double iterated integrals.  Compares and
    hashes by identity."""

    level1: np.ndarray
    level2: np.ndarray

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        l1 = np.array(self.level1, dtype=np.float64, copy=True)
        l2 = np.array(self.level2, dtype=np.float64, copy=True)
        if l1.ndim != 1 or l2.shape != (l1.size, l1.size):
            raise ValueError("level1 must be a d-vector and level2 d x d")
        l1.setflags(write=False)
        l2.setflags(write=False)
        object.__setattr__(self, "level1", l1)
        object.__setattr__(self, "level2", l2)

    @property
    def level0(self) -> float:
        return 1.0

    @property
    def dim(self) -> int:
        return int(self.level1.size)


def _check_path(p: np.ndarray) -> None:
    if p.ndim != 2:
        raise ValueError("path must be an n x d array of points")
    if p.shape[0] < 2:
        raise DegeneratePath("path needs at least 2 points")
    if not np.all(np.isfinite(p)):
        raise ValueError("path contains non-finite coordinates")


def signature_depth2(path: np.ndarray) -> Sig2:
    """Depth-2 signature of the piecewise-linear path through ``path`` rows.

    Each straight segment with increment D contributes D (x) D / 2 at level
    2; segments combine by Chen's relation, which for the running path means
    adding outer(position-so-far, D) for the chord from the start.
    """
    p = np.asarray(path, dtype=np.float64)
    _check_path(p)
    delta = np.diff(p, axis=0)
    chord = p[:-1] - p[0]
    d = p.shape[1]
    level2 = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            level2[i, j] = _sum(chord[:, i] * delta[:, j]) + 0.5 * _sum(
                delta[:, i] * delta[:, j]
            )
    return Sig2(p[-1] - p[0], level2)


def chen_concat(first: Sig2, second: Sig2) -> Sig2:
    """Combine signatures of consecutive path pieces (Chen's relation)."""
    if first.dim != second.dim:
        raise LengthMismatch("signatures have different dimensions")
    level1 = first.level1 + second.level1
    level2 = first.level2 + second.level2 + np.outer(first.level1, second.level1)
    return Sig2(level1, level2)


def signed_area(path: np.ndarray) -> float:
    """Levy signed area of a planar path, counterclockwise positive.

    Closed form relative to the start point (x0, y0):

        A = 1/2 sum_k [(x_k - x0)(y_{k+1} - y_k) - (y_k - y0)(x_{k+1} - x_k)]

    which equals (S^{xy} - S^{yx}) / 2 of the depth-2 signature and, for a
    closed polygon, the shoelace area.
    """
    p = np.asarray(path, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ValueError("signed_area expects an n x 2 array of points")
    _check_path(p)
    return _whole_area(p[:, 1], p[:, 0])


def _whole_area(a: np.ndarray, b: np.ndarray) -> float:
    """signed_area of the pair path (b_t, a_t) of equal-length sample vectors."""
    x, y = b, a
    cross = x[:-1] * y[1:] - x[1:] * y[:-1]
    corr = y[0] * (x[-1] - x[0]) - x[0] * (y[-1] - y[0])
    return 0.5 * (_sum(cross) + corr)


@dataclass(frozen=True, eq=False)
class AreaSequence:
    """Windowed signed areas for an ordered pair, compared and hashed by
    identity; the window length and stride that cut them are the caller's."""

    pair: tuple[str, str]
    values: np.ndarray

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values))
        object.__setattr__(self, "pair", tuple(self.pair))

    @property
    def count(self) -> int:
        return int(self.values.size)


def window_count(t_len: int, window_length: int, stride: int) -> int:
    return (t_len - window_length) // stride + 1


def _window_areas(
    a: np.ndarray, b: np.ndarray, window_length: int, stride: int
) -> np.ndarray:
    """Windowed signed areas of the pair (a, b), along the last axis.

    ``a`` and ``b`` are one pair's sample vectors, or equal-shape stacks of
    rows with one pair per row.  Works on the cross-term prefix sums so
    every window costs O(1): with x = b, y = a (the pair orientation),
    window [s, e] has

        2 A = sum_{k=s}^{e-1} (x_k y_{k+1} - x_{k+1} y_k)
              + y_s (x_e - x_s) - x_s (y_e - y_s)

    and the sum telescopes out of one cumulative array.  Every step is
    elementwise or a running sum along a row, so a row of a stack gets the
    same bits as that row alone: single pairs and blocks of shuffle
    ensemble rows share this routine and agree bit for bit.
    """
    x, y = b, a
    t_len = x.shape[-1]
    cross = x[..., :-1] * y[..., 1:]
    cross -= x[..., 1:] * y[..., :-1]
    prefix = np.empty(x.shape)
    prefix[..., 0] = 0.0
    np.cumsum(cross, axis=-1, out=prefix[..., 1:])
    # Window starts and ends as strided views; fancy indexing would copy.
    span = (window_count(t_len, window_length, stride) - 1) * stride + 1
    starts = (..., slice(0, span, stride))
    ends = (..., slice(window_length - 1, window_length - 1 + span, stride))
    windowed = prefix[ends] - prefix[starts]
    corr = y[starts] * (x[ends] - x[starts]) - x[starts] * (y[ends] - y[starts])
    return 0.5 * (windowed + corr)


def _check_window(window_length: int, stride: int) -> None:
    if window_length < _MIN_WINDOW_LENGTH:
        raise ValueError(f"window_length must be >= {_MIN_WINDOW_LENGTH}")
    if stride < 1:
        raise ValueError("stride must be >= 1")


def check_windows(a: Series, b: Series, window_length: int, stride: int) -> None:
    """Raise unless the pair (a, b) can be cut into the requested windows."""
    check_lengths(a, b)
    _check_window(window_length, stride)
    if window_length > len(a):
        raise WindowTooLong(
            f"window {window_length} exceeds series length {len(a)}"
        )


def signed_area_sequence(
    a: Series, b: Series, window_length: int, stride: int = 1
) -> AreaSequence:
    """Signed areas of the pair (a, b) over sliding windows.

    Window w covers samples [w * stride, w * stride + window_length - 1];
    stride 1 slides one sample at a time (T - l + 1 windows), stride =
    window_length tiles the series with non-overlapping windows.
    """
    check_windows(a, b, window_length, stride)
    values = _window_areas(a.values, b.values, window_length, stride)
    return AreaSequence((a.name, b.name), values)
