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
from typing import Mapping

import numpy as np

from .errors import InsufficientData, ShiftTooLarge, ZeroVariance
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


def _nonzero_taus(tau_min: int, tau_max: int) -> tuple[int, ...]:
    if tau_min > tau_max:
        raise ValueError("tau_min must not exceed tau_max")
    taus = tuple(t for t in range(tau_min, tau_max + 1) if t != 0)
    if not taus:
        raise ValueError("shift range contains no nonzero tau")
    return taus


def _check_sides(taus: tuple[int, ...], error: type[Exception]) -> None:
    """Raise ``error`` unless at least 2 of the shifts lie on each side of
    zero, as the sample variances of ts_savr's ratio need."""
    if min(sum(t < 0 for t in taus), sum(t > 0 for t in taus)) < 2:
        raise error("variance ratio needs at least 2 shifts on each side of zero")


def _shift_slices(t_len: int, tau: int) -> tuple[slice, slice]:
    """The slices of a and of b that pair a[t + tau] with b[t] on their
    common overlap of t_len - |tau| samples; ShiftTooLarge when there is none."""
    if abs(tau) >= t_len:
        raise ShiftTooLarge(f"|tau| = {abs(tau)} leaves no overlap at length {t_len}")
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
    across shifts.  A shift with |tau| >= T - 1 leaves under two samples
    to trace a path through and raises ShiftTooLarge.  The mirror shifts
    the range lacks come after it, for reversed(); each has the overlap of
    a requested shift, so it cannot fail.
    """
    taus = _nonzero_taus(tau_min, tau_max)
    check_lengths(a, b)
    areas: dict[int, float] = {}
    for tau in taus + tuple(-t for t in taus if -t not in taus):
        head, tail = _shift_slices(len(a), tau)
        if len(a) - abs(tau) < 2:
            raise ShiftTooLarge(
                f"|tau| = {abs(tau)} leaves a one-sample overlap at length {len(a)}"
            )
        areas[tau] = _whole_area(a.values[head], b.values[tail])
    return ShiftProfile((a.name, b.name), taus, areas)


def ts_savr(profile: ShiftProfile) -> DirectionVerdict:
    """Direction verdict from the variance ratio of a shift profile.

    ratio = Var(areas at tau < 0) / Var(areas at tau > 0), sample variances
    with the n-1 denominator.  The verdict's leads cuts it: >= _HIGH (1.1)
    is i->j, <= _LOW (0.9) is j->i, anything between is mutual (i<->j).
    """
    _check_sides(profile.taus, InsufficientData)
    neg = profile.side(positive=False)
    pos = profile.side(positive=True)
    var_pos = float(np.var(pos, ddof=1))
    if var_pos == 0.0:
        raise ZeroVariance(
            "positive-shift areas are constant; variance ratio undefined"
        )
    return DirectionVerdict(profile.pair, float(np.var(neg, ddof=1)) / var_pos)
