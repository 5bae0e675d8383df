"""Shuffled-null ensemble, confidence-sequence band, and the SSAD score.

The test asks whether the windowed signed areas of an ordered pair stray
outside a band built from areas of time-index-shuffled copies of the same
pair.  Shuffling destroys lag structure while preserving the marginals, so
under "no lag/lead relation" the actual areas should sit inside the band.

SSAD (shuffled signed area deviation) is the mean of per-window indicators:
-1 where the actual area is at or below the lower bound, +1 at or above the
upper bound, 0 inside.  It lives in [-1, 1]; the sign says which way the
pair circulates relative to the null and the magnitude how persistently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, LengthMismatch
from .rng import Shuffler, derive_seed
from .series import Series
from .signature import (
    AreaSequence,
    _window_areas,
    check_windows,
    signed_area_sequence,
    window_count,
)


def multiplier(t, rho: float = 1.0, alpha: float = 0.05):
    """Confidence-sequence width multiplier at window index t (1-based).

        m(t) = sqrt( 2(t rho^2 + 1) / (t^2 rho^2)
                     * ln( sqrt(t rho^2 + 1) / (alpha / 2) ) )

    Strictly decreasing in t, so the band narrows as windows accumulate.
    Accepts scalars or arrays of window indices.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 1):
        raise ValueError("window index t is 1-based and must be >= 1")
    r2 = rho * rho
    inner = t_arr * r2 + 1.0
    out = np.sqrt(2.0 * inner / (t_arr * t_arr * r2) * np.log(np.sqrt(inner) / (alpha / 2.0)))
    return float(out) if np.isscalar(t) else out


@dataclass(frozen=True)
class NullBand:
    """Per-window confidence-sequence bounds from a shuffle ensemble."""

    lower: np.ndarray
    upper: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    rho: float = 1.0
    alpha: float = 0.05
    n_shuffles: int = 1000

    def __post_init__(self) -> None:
        for name in ("lower", "upper", "mu", "sigma"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True).reshape(-1)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.lower.size == self.upper.size == self.mu.size == self.sigma.size):
            raise LengthMismatch("band component lengths differ")

    def __len__(self) -> int:
        return int(self.mu.size)


@dataclass(frozen=True)
class SsadResult:
    """Per-window band-exit indicators and their mean."""

    pair: tuple[str, str]
    per_step: np.ndarray
    score: float

    def __post_init__(self) -> None:
        steps = np.array(self.per_step, dtype=np.int64, copy=True).reshape(-1)
        steps.setflags(write=False)
        object.__setattr__(self, "per_step", steps)
        object.__setattr__(self, "pair", tuple(self.pair))
        object.__setattr__(self, "score", float(self.score))


def null_ensemble(
    a: Series,
    b: Series,
    window_length: int,
    n_shuffles: int,
    seed: int,
    stride: int = 1,
) -> np.ndarray:
    """Windowed signed areas of n_shuffles independently shuffled copies.

    Row k equals signed_area_sequence(shuffle(a, s_k), shuffle(b, s_k'),
    window_length, stride).values where s_k and s_k' are derived from
    (seed, "shuffle", k, 0) and (seed, "shuffle", k, 1).  The two series get
    independent permutations within each row.  Rows are seeded per index, so
    any evaluation order reproduces the same matrix bit for bit.

    Each row is shuffled into two length-T buffers and reduced to its
    windowed areas at once, so beyond the n_shuffles x W result the memory
    used is O(T).  The result is Fortran-ordered, the layout
    confidence_band reads.
    """
    if n_shuffles < 2:
        raise InsufficientData("need at least 2 shuffles for a null ensemble")
    check_windows(a, b, window_length, stride)
    t_len = len(a)
    a_row = np.empty(t_len)
    b_row = np.empty(t_len)
    out = np.empty((n_shuffles, window_count(t_len, window_length, stride)), order="F")
    shuffler = Shuffler()
    for k in range(n_shuffles):
        shuffler.shuffle_into(a_row, a.values, derive_seed(seed, "shuffle", k, 0))
        shuffler.shuffle_into(b_row, b.values, derive_seed(seed, "shuffle", k, 1))
        out[k] = _window_areas(a_row, b_row, window_length, stride)
    return out


def confidence_band(
    ensemble: np.ndarray,
    rho: float = 1.0,
    alpha: float = 0.05,
    pooled: bool = True,
) -> NullBand:
    """Confidence-sequence band around the shuffled-null mean.

    With pooling (the default), mu[t] and sigma[t] are the sample mean and
    sample standard deviation (n-1 denominator) of every ensemble entry in
    windows 1..t, i.e. n*t values at window index t; bounds are
    mu[t] -/+ sigma[t] * multiplier(t).  The moments are accumulated as
    cumulative sums of grand-mean-centered values, which is algebraically
    the running pooled mean/std but keeps the subtraction well conditioned.

    pooled=False instead uses only the n entries of window t for mu[t] and
    sigma[t] (per-window ensemble moments), with the same multiplier.

    The sums run in the memory order of a Fortran-ordered copy of the input,
    so C- and Fortran-ordered ensembles with equal values give equal bits.
    """
    ens = np.asarray(ensemble, dtype=np.float64, order="F")
    if ens.ndim != 2 or ens.size == 0:
        raise InsufficientData("ensemble must be a nonempty n x W matrix")
    n, w = ens.shape
    if n < 2:
        raise InsufficientData("pooled sample count at the first window is < 2")
    t = np.arange(1, w + 1)
    if pooled:
        m0 = ens.mean()
        centered = ens - m0
        s1 = np.cumsum(centered.sum(axis=0))
        s2 = np.cumsum((centered * centered).sum(axis=0))
        count = n * t
        mu = m0 + s1 / count
        var = np.maximum((s2 - s1 * s1 / count) / (count - 1), 0.0)
        sigma = np.sqrt(var)
    else:
        mu = ens.mean(axis=0)
        sigma = ens.std(axis=0, ddof=1)
    m = multiplier(t, rho, alpha)
    return NullBand(mu - sigma * m, mu + sigma * m, mu, sigma, rho, alpha, n)


def ssad(actual: AreaSequence, band: NullBand) -> SsadResult:
    """Score the actual windowed areas against a null band.

    per_step[t] is -1 when A_t <= lower[t], +1 when A_t >= upper[t], else 0;
    bound equality counts as outside.  If a zero-width band makes both hold
    at once, the step counts as -1.  The score is the mean over windows.
    """
    if actual.count != len(band):
        raise LengthMismatch(
            f"area sequence has {actual.count} windows, band has {len(band)}"
        )
    a = actual.values
    per_step = np.where(a <= band.lower, -1, np.where(a >= band.upper, 1, 0))
    return SsadResult(actual.pair, per_step, float(per_step.mean()))


def ssad_pair_detail(
    a: Series,
    b: Series,
    *,
    window_length: int = 10,
    n_shuffles: int = 1000,
    seed: int = 0,
    stride: int = 1,
    rho: float = 1.0,
    alpha: float = 0.05,
    pooled: bool = True,
) -> tuple[SsadResult, SsadResult, AreaSequence, NullBand]:
    """Both ordered SSAD results plus the (a, b) areas and band behind them.

    The ensemble is computed once, for (a, b).  Swapping the pair negates
    every signed area exactly (the path coordinates swap), so the (b, a)
    result is the negated actual sequence scored against the negated band
    with its bounds swapped; step by step that is the literal negation of
    the forward indicators, which makes score(b, a) = -score(a, b) exact,
    including the zero-width tie case.
    """
    actual = signed_area_sequence(a, b, window_length, stride)
    ens = null_ensemble(a, b, window_length, n_shuffles, seed, stride)
    band = confidence_band(ens, rho, alpha, pooled)
    forward = ssad(actual, band)
    reverse = SsadResult((b.name, a.name), -forward.per_step, -forward.score)
    return forward, reverse, actual, band
