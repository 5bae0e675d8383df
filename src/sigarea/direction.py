"""Time-shift variance-ratio direction test (TS-SAVR).

For an ordered pair (i, j), slide i against j by every integer shift tau in
a symmetric range around zero (zero itself excluded) and record the signed
area of the overlapping stretch as one whole-interval window.  If i drives
j, shifting i backwards (tau < 0) re-aligns cause with effect and the areas
swing hard, while shifting forwards decorrelates them; the sample-variance
ratio Var(tau < 0) / Var(tau > 0) therefore points from cause to effect.

The (j, i) area at tau is the exact negation of the (i, j) area at -tau
(the same samples with the path coordinates swapped), so shift_profile
also computes the mirror image of its range and one profile of (i, j)
serves both orderings: the pipeline profiles each pair once and reads the
reverse profile off it (ShiftProfile.reversed).  For a range symmetric
about zero the two ratios are reciprocals up to the rounding of the final
division; they differ only for asymmetric ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sized

import numpy as np

from .errors import ShiftTooLarge, ZeroVariance
from .series import Series, _reduce_through_init, check_lengths
from .signature import _whole_area


@dataclass(frozen=True)
class ShiftProfile:
    """Whole-interval signed areas of (a shifted by tau, b) over the range
    ``taus`` (tau != 0); ``areas`` may also hold the mirror shifts -tau."""

    pair: tuple[str, str]
    taus: tuple[int, ...]
    areas: Mapping[int, float]

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        taus = tuple(int(t) for t in self.taus)
        if 0 in taus:
            raise ValueError("shift profile must exclude tau = 0")
        areas = MappingProxyType({int(t): float(v) for t, v in self.areas.items()})
        shifts = set(taus)
        if not shifts <= set(areas) <= shifts | {-t for t in shifts}:
            raise ValueError("areas must hold the profiled shifts and only their mirrors")
        object.__setattr__(self, "pair", tuple(self.pair))
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "areas", areas)

    def side(self, positive: bool) -> np.ndarray:
        picked = [self.areas[t] for t in self.taus if (t > 0) == positive]
        return np.asarray(picked, dtype=np.float64)

    def reversed(self) -> ShiftProfile:
        """The swapped pair's profile over the same range, its area at tau
        minus this one's at -tau: shift_profile's bits for that pair.
        ValueError unless ``areas`` holds every profiled shift's mirror."""
        negated = {-t: -v for t, v in self.areas.items()}
        return ShiftProfile(self.pair[::-1], self.taus, negated)


_LOW = 0.9
_HIGH = 1.1


@dataclass(frozen=True)
class DirectionVerdict:
    """The variance ratio ts_savr measured for ``pair``.  Its cut at the
    fixed 0.9 and 1.1 is ``leads``, and ``label`` writes that out."""

    pair: tuple[str, str]
    ratio: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "pair", tuple(self.pair))
        object.__setattr__(self, "ratio", float(self.ratio))

    @property
    def leads(self) -> int:
        """+1 if pair[0] leads (ratio >= 1.1), -1 if pair[1] (<= 0.9), else 0."""
        return int(self.ratio >= _HIGH) - int(self.ratio <= _LOW)

    @property
    def label(self) -> str:
        """"i->j", "j->i" or "i<->j" (mutual) for leads +1, -1 or 0."""
        i, j = self.pair
        return (f"{i}<->{j}", f"{i}->{j}", f"{j}->{i}")[self.leads]


def _nonzero_taus(tau_min: int, tau_max: int) -> tuple[range, range]:
    """The negative and the positive shifts of [tau_min, tau_max], as ranges,
    so that no check on them walks the range; at least 2 on each side."""
    if tau_min > tau_max:
        raise ValueError("tau_min must not exceed tau_max")
    negative = range(tau_min, min(tau_max, -1) + 1)
    positive = range(max(tau_min, 1), tau_max + 1)
    if not negative and not positive:
        raise ValueError("shift range contains no nonzero tau")
    _check_sides(negative, positive)
    return negative, positive


def _check_sides(negative: Sized, positive: Sized) -> None:
    """ValueError unless at least 2 shifts lie on each side of zero, as the
    sample variances of ts_savr's ratio need."""
    if min(len(negative), len(positive)) < 2:
        raise ValueError("variance ratio needs at least 2 shifts on each side of zero")


def _shift_slices(t_len: int, tau: int) -> tuple[slice, slice]:
    """The slices of a and of b that pair a[t + tau] with b[t] on their
    common overlap of t_len - |tau| samples; ShiftTooLarge when the overlap
    holds fewer than the 2 samples a path needs."""
    overlap = max(t_len - abs(tau), 0)
    if overlap < 2:
        raise ShiftTooLarge(
            f"|tau| = {abs(tau)} leaves {overlap} of {t_len} samples aligned, fewer than 2"
        )
    if tau >= 0:
        return slice(tau, None), slice(0, t_len - tau)
    return slice(0, t_len + tau), slice(-tau, None)


def shift_profile(
    a: Series, b: Series, tau_min: int = -10, tau_max: int = 10
) -> ShiftProfile:
    """Signed areas of the pair across integer shifts of ``a``.

    For each tau in [tau_min, tau_max] except 0, a[t + tau] is paired with
    b[t] on their whole overlap, and that overlap is one window: its area
    has the bits of signed_area on the path (b[t], a[t + tau]).
    The truncated series are not re-scaled, so areas stay comparable
    across shifts.  A range with under 2 shifts on a side of zero raises
    ValueError, as ts_savr's variances need, before the series are read.
    A shift with |tau| >= T - 1 leaves under two samples
    to trace a path through and raises ShiftTooLarge, naming the first
    such shift of the range, before any area is computed.  The mirror
    shifts the range lacks come after it, for reversed(); each has the
    overlap of a requested shift, so it cannot fail.
    """
    negative, positive = _nonzero_taus(tau_min, tau_max)
    check_lengths(a, b)
    t_len = len(a)
    # The range is checked at its ends, so one far past the series costs
    # nothing: the first negative shift, and the first positive shift from
    # T - 1 on, are the first to leave fewer than 2 samples.
    if negative and negative[0] <= 1 - t_len:
        _shift_slices(t_len, negative[0])
    if positive and positive[-1] >= t_len - 1:
        _shift_slices(t_len, max(positive[0], t_len - 1))
    taus = (*negative, *positive)
    mirrors = [-t for t in taus if -t not in negative and -t not in positive]
    areas: dict[int, float] = {}
    for tau in (*taus, *mirrors):
        head, tail = _shift_slices(t_len, tau)
        areas[tau] = _whole_area(a.values[head], b.values[tail])
    return ShiftProfile((a.name, b.name), taus, areas)


def ts_savr(profile: ShiftProfile) -> DirectionVerdict:
    """Direction verdict from the variance ratio of a shift profile.

    ratio = Var(areas at tau < 0) / Var(areas at tau > 0), sample variances
    with the n-1 denominator.  The verdict's leads cuts it: >= _HIGH (1.1)
    is i->j, <= _LOW (0.9) is j->i, anything between is mutual (i<->j).
    A profile built by hand with under 2 shifts on a side raises the
    ValueError shift_profile raises for such a range.
    """
    neg = profile.side(positive=False)
    pos = profile.side(positive=True)
    _check_sides(neg, pos)
    var_pos = float(np.var(pos, ddof=1))
    if var_pos == 0.0:
        raise ZeroVariance(
            "positive-shift areas are constant; variance ratio undefined"
        )
    return DirectionVerdict(profile.pair, float(np.var(neg, ddof=1)) / var_pos)
