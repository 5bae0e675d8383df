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
from .rng import Shuffler, seed_family
from .series import Series, _freeze, _reduce_through_init
from .signature import (
    AreaSequence,
    _window_areas,
    check_windows,
    signed_area_sequence,
    window_count,
)

# Values per shuffle block buffer: 2**15 float64 values (256 KB) keep a
# block's area temporaries cache-sized; rows per block = this // T.
_BLOCK_VALUES = 2**15


def multiplier(t, rho: float = 1.0, alpha: float = 0.05):
    """Confidence-sequence width multiplier at window index t (1-based).

        m(t) = sqrt( 2(t rho^2 + 1) / (t^2 rho^2)
                     * ln( sqrt(t rho^2 + 1) / (alpha / 2) ) )

    Strictly decreasing in t, so the band narrows as windows accumulate.
    Accepts scalars or arrays of window indices.  The one check of rho and
    alpha: ValueError unless rho > 0, 0 < alpha < 1 and every m is finite
    and positive.  A huge rho makes t^2 rho^2 overflow before t rho^2 + 1
    does, which would give m = 0 and a zero-width band, not the true width.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 1):
        raise ValueError("window index t is 1-based and must be >= 1")
    r2 = rho * rho
    with np.errstate(all="ignore"):
        inner = t_arr * r2 + 1.0
        out = np.sqrt(2.0 * inner / (t_arr * t_arr * r2) * np.log(np.sqrt(inner) / (alpha / 2.0)))
    if not np.all(np.isfinite(out) & (out > 0)):
        raise ValueError(
            f"rho={rho!r} and alpha={alpha!r} give a non-finite or zero band multiplier"
        )
    return float(out) if np.isscalar(t) else out


@dataclass(frozen=True)
class NullBand:
    """Per-window confidence-sequence bounds from a shuffle ensemble: the
    bounds and the running mean and standard deviation behind them.  The
    rho, alpha and shuffle count that made them are the run's RunConfig."""

    lower: np.ndarray
    upper: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        for name in ("lower", "upper", "mu", "sigma"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
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

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_step", _freeze(self.per_step, np.int64))
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

    Rows are shuffled in blocks of max(1, _BLOCK_VALUES // T) into two
    block buffers, and each block is reduced to its windowed areas by one
    _window_areas call, which gives every row the bits it would get alone.
    Beyond the n_shuffles x W result the memory used is
    O(max(T, _BLOCK_VALUES)).  The result is Fortran-ordered, the layout
    confidence_band reads.
    """
    if n_shuffles < 2:
        raise InsufficientData("need at least 2 shuffles for a null ensemble")
    check_windows(a, b, window_length, stride)
    t_len = len(a)
    block_rows = max(1, _BLOCK_VALUES // t_len)
    a_block = np.empty((block_rows, t_len))
    b_block = np.empty((block_rows, t_len))
    out = np.empty((n_shuffles, window_count(t_len, window_length, stride)), order="F")
    shuffler = Shuffler()
    row_seed = seed_family(seed, "shuffle")
    for k0 in range(0, n_shuffles, block_rows):
        rows = min(block_rows, n_shuffles - k0)
        for r in range(rows):
            shuffler.shuffle_into(a_block[r], a.values, row_seed(k0 + r, 0))
            shuffler.shuffle_into(b_block[r], b.values, row_seed(k0 + r, 1))
        out[k0 : k0 + rows] = _window_areas(
            a_block[:rows], b_block[:rows], window_length, stride
        )
    return out


def confidence_band(
    ensemble: np.ndarray,
    rho: float = 1.0,
    alpha: float = 0.05,
) -> NullBand:
    """Confidence-sequence band around the shuffled-null mean.

    mu[t] and sigma[t] are the sample mean and sample standard deviation
    (n-1 denominator) of every ensemble entry in windows 1..t, i.e. n*t
    values at window index t, so the band narrows as windows accumulate;
    bounds are mu[t] -/+ sigma[t] * multiplier(t).  The moments are
    accumulated as cumulative sums of grand-mean-centered values, which is
    algebraically the running mean/std of windows 1..t but keeps the
    subtraction well conditioned.

    The sums run in the memory order of a Fortran-ordered copy of the input,
    so C- and Fortran-ordered ensembles with equal values give equal bits.
    """
    ens = np.asarray(ensemble, dtype=np.float64, order="F")
    if ens.ndim != 2 or ens.size == 0:
        raise InsufficientData("ensemble must be a nonempty n x W matrix")
    n, w = ens.shape
    if n < 2:
        raise InsufficientData("need at least 2 shuffles for a band")
    t = np.arange(1, w + 1)
    m0 = ens.mean()
    centered = ens - m0
    s1 = np.cumsum(centered.sum(axis=0))
    s2 = np.cumsum((centered * centered).sum(axis=0))
    count = n * t
    mu = m0 + s1 / count
    var = np.maximum((s2 - s1 * s1 / count) / (count - 1), 0.0)
    sigma = np.sqrt(var)
    m = multiplier(t, rho, alpha)
    return NullBand(mu - sigma * m, mu + sigma * m, mu, sigma)


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
) -> tuple[SsadResult, SsadResult, AreaSequence, NullBand]:
    """Both ordered SSAD results plus the (a, b) areas and band behind them.

    The ensemble is computed once, for (a, b), and confidence_band turns it
    into the band.  Swapping the pair negates every signed area exactly (the
    path coordinates swap), so the (b, a) result is the negated actual
    sequence scored against the negated band with its bounds swapped; step
    by step that is the literal negation of the forward indicators, which
    makes score(b, a) = -score(a, b) exact, including the zero-width tie
    case.
    """
    actual = signed_area_sequence(a, b, window_length, stride)
    ens = null_ensemble(a, b, window_length, n_shuffles, seed, stride)
    band = confidence_band(ens, rho, alpha)
    forward = ssad(actual, band)
    reverse = SsadResult((b.name, a.name), -forward.per_step, -forward.score)
    return forward, reverse, actual, band
