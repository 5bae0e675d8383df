"""Time-shift variance-ratio direction test (TS-SAVR).

For an ordered pair (i, j), slide i against j by every integer shift tau in
a symmetric range around zero (zero itself excluded) and record the signed
area of the overlapping stretch as one whole-interval window.  If i drives
j, shifting i backwards (tau < 0) re-aligns cause with effect and the areas
swing hard, while shifting forwards decorrelates them; the sample-variance
ratio Var(tau < 0) / Var(tau > 0) therefore points from cause to effect.

Each ordered pair is profiled from its own shifts, not by mirroring (i, j).
For a range symmetric about zero the two still agree: the (j, i) area at
tau is the exact negation of the (i, j) area at -tau (the same samples with
the path coordinates swapped), so the two ratios are reciprocals up to the
rounding of the final division.  They differ only for asymmetric ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import InsufficientData, ZeroVariance
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


def shift_profile(
    a: Series, b: Series, tau_min: int = -10, tau_max: int = 10
) -> ShiftProfile:
    """Signed areas of the pair across integer shifts of ``a``.

    For each tau in [tau_min, tau_max] except 0, the pair is aligned with
    time_shift_pair and the whole overlap is treated as a single window.
    The truncated series are not re-scaled, so areas stay comparable
    across shifts.
    """
    if tau_min > tau_max:
        raise ValueError("tau_min must not exceed tau_max")
    taus = tuple(t for t in range(tau_min, tau_max + 1) if t != 0)
    if not taus:
        raise ValueError("shift range contains no nonzero tau")
    areas: dict[int, float] = {}
    for tau in taus:
        shifted_a, shifted_b = time_shift_pair(a, b, tau)
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
