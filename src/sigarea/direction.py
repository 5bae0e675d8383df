"""Time-shift variance-ratio direction test (TS-SAVR).

For an ordered pair (i, j), slide i against j by every integer shift tau in
a symmetric range around zero (zero itself excluded) and record the signed
area of the overlapping stretch as one whole-interval window.  If i drives
j, shifting i backwards (tau < 0) re-aligns cause with effect and the areas
swing hard, while shifting forwards decorrelates them; the sample-variance
ratio Var(tau < 0) / Var(tau > 0) therefore points from cause to effect.

The (j, i) area at tau is the exact negation of the (i, j) area at -tau
(the same samples with the path coordinates swapped), so one profile of
(i, j) over a range and its mirror image serves both orderings: the
pipeline profiles each pair once and reads the reverse profile off it
(ShiftProfile.within).  For a range symmetric about zero the two ratios
are reciprocals up to the rounding of the final division; they differ only
for asymmetric ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import InsufficientData, ShiftTooLarge, ZeroVariance
from .series import Series, time_shift_pair
from .signature import pair_area


@dataclass(frozen=True)
class ShiftProfile:
    """Whole-interval signed areas of (a shifted by tau, b), tau != 0."""

    pair: tuple[str, str]
    taus: tuple[int, ...]
    areas: Mapping[int, float]

    def __post_init__(self) -> None:
        taus = tuple(int(t) for t in self.taus)
        if 0 in taus:
            raise ValueError("shift profile must exclude tau = 0")
        areas = MappingProxyType({int(t): float(v) for t, v in self.areas.items()})
        if set(areas) != set(taus):
            raise ValueError("areas must cover exactly the profiled shifts")
        object.__setattr__(self, "pair", tuple(self.pair))
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "areas", areas)

    def side(self, positive: bool) -> np.ndarray:
        picked = [self.areas[t] for t in self.taus if (t > 0) == positive]
        return np.asarray(picked, dtype=np.float64)

    def within(self, tau_min: int, tau_max: int, reverse: bool = False) -> ShiftProfile:
        """This pair's profile over [tau_min, tau_max], or with reverse=True
        the swapped pair's, whose area at tau is the exact negation of this
        one's at -tau.  Either way the areas are the bits shift_profile
        computes for that pair and range."""
        taus = _nonzero_taus(tau_min, tau_max)
        if reverse:
            return ShiftProfile(self.pair[::-1], taus, {t: -self.areas[-t] for t in taus})
        return ShiftProfile(self.pair, taus, {t: self.areas[t] for t in taus})


@dataclass(frozen=True)
class DirectionVerdict:
    """Variance ratio with its thresholded direction label."""

    pair: tuple[str, str]
    ratio: float
    label: str
    thresholds: tuple[float, float] = (0.9, 1.1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pair", tuple(self.pair))
        object.__setattr__(self, "ratio", float(self.ratio))
        object.__setattr__(
            self, "thresholds", (float(self.thresholds[0]), float(self.thresholds[1]))
        )


def _nonzero_taus(tau_min: int, tau_max: int) -> tuple[int, ...]:
    if tau_min > tau_max:
        raise ValueError("tau_min must not exceed tau_max")
    taus = tuple(t for t in range(tau_min, tau_max + 1) if t != 0)
    if not taus:
        raise ValueError("shift range contains no nonzero tau")
    return taus


def shift_profile(
    a: Series, b: Series, tau_min: int = -10, tau_max: int = 10, mirrored: bool = False
) -> ShiftProfile:
    """Signed areas of the pair across integer shifts of ``a``.

    For each tau in [tau_min, tau_max] except 0, the pair is aligned with
    time_shift_pair and the whole overlap is treated as a single window.
    The truncated series are not re-scaled, so areas stay comparable
    across shifts.  A shift with |tau| >= T - 1 leaves under two samples
    to trace a path through and raises ShiftTooLarge.  mirrored=True also
    profiles [-tau_max, -tau_min], so that ``within`` can give the (b, a)
    profile; those shifts come after the requested ones, so a shift that
    fails fails with the same error.
    """
    taus = _nonzero_taus(tau_min, tau_max)
    if mirrored:
        taus += tuple(-t for t in reversed(taus) if -t not in taus)
    areas: dict[int, float] = {}
    for tau in taus:
        shifted_a, shifted_b = time_shift_pair(a, b, tau)
        if len(shifted_a) < 2:
            raise ShiftTooLarge(
                f"|tau| = {abs(tau)} leaves a one-sample overlap at length {len(a)}"
            )
        areas[tau] = pair_area(shifted_a, shifted_b)
    return ShiftProfile((a.name, b.name), taus, areas)


def ts_savr(
    profile: ShiftProfile, low: float = 0.9, high: float = 1.1
) -> DirectionVerdict:
    """Direction verdict from the variance ratio of a shift profile.

    ratio = Var(areas at tau < 0) / Var(areas at tau > 0), sample variances
    with the n-1 denominator.  ratio >= high labels i->j, ratio <= low
    labels j->i, anything between is mutual (i<->j).
    """
    if not 0 < low <= high:
        raise ValueError("thresholds must satisfy 0 < low <= high")
    neg = profile.side(positive=False)
    pos = profile.side(positive=True)
    if neg.size < 2 or pos.size < 2:
        raise InsufficientData(
            "variance ratio needs at least 2 shifts on each side of zero"
        )
    var_pos = float(np.var(pos, ddof=1))
    if var_pos == 0.0:
        raise ZeroVariance(
            "positive-shift areas are constant; variance ratio undefined"
        )
    ratio = float(np.var(neg, ddof=1)) / var_pos
    i, j = profile.pair
    if ratio >= high:
        label = f"{i}->{j}"
    elif ratio <= low:
        label = f"{j}->{i}"
    else:
        label = f"{i}<->{j}"
    return DirectionVerdict(profile.pair, ratio, label, (low, high))
