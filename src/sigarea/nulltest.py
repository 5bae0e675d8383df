"""Shuffled-null ensemble, confidence-sequence band, and the SSAD score.

The test asks whether the windowed signed areas of an ordered pair stray
outside a band built from areas of time-index-shuffled copies of the same
pair.  Shuffling destroys lag structure while preserving the marginals, so
under "no lag/lead relation" the actual areas should sit inside the band.

SSAD (shuffled signed area deviation) is the mean of per-window indicators:
-1 where the actual area is at or below the lower bound, +1 at or above the
upper bound, 0 inside.  It lives in [-1, 1]; the sign says which way the
pair circulates relative to the null and the magnitude how persistently.

The ensemble of a pair whose series have at least _THREAD_MIN_LENGTH
samples is shuffled on threads, one per usable CPU; rows are seeded by
their index, so the result does not depend on how many threads ran it.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import partial
from itertools import takewhile
from typing import Iterable

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

# Values per block: 2**15 float64 values (256 KB) keep a block's
# temporaries cache-sized.  null_ensemble shuffles this // T rows per block
# and confidence_band centers and reduces this // n columns per block.
_BLOCK_VALUES = 2**15

# null_ensemble shares its row blocks out to threads only from this series
# length on.  numpy's Generator.shuffle releases the GIL for about 16 ns x T
# while re-keying and seeding a row hold it for about 8 us, so short rows
# gain nothing.  On a 2-vCPU VM (N = 1000, L = stride = 10) two threads ran
# the ensemble 0.67x as fast as one at T = 1000, 0.99x at 2000, 1.55x at
# 3000, 1.57x at 10^4 and 1.76x at 2 x 10^4.
_THREAD_MIN_LENGTH = 4096


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


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


@dataclass(frozen=True, eq=False)
class NullBand:
    """Per-window confidence-sequence bounds from a shuffle ensemble: the
    bounds and the running mean and standard deviation behind them.  The
    rho, alpha and shuffle count that made them are the run's RunConfig.
    Compares and hashes by identity."""

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


@dataclass(frozen=True, eq=False)
class SsadResult:
    """Per-window band-exit indicators and their mean, compared and hashed by identity."""

    pair: tuple[str, str]
    per_step: np.ndarray
    score: float

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_step", _freeze(self.per_step, np.int64))
        object.__setattr__(self, "pair", tuple(self.pair))
        object.__setattr__(self, "score", float(self.score))


def _check_n_shuffles(n_shuffles: int) -> None:
    # A band needs a sample standard deviation, so at least 2 rows.
    if n_shuffles < 2:
        raise ValueError("n_shuffles must be >= 2")


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
    When T >= _THREAD_MIN_LENGTH and more than one CPU is usable, the blocks
    are dealt in turn to min(usable CPUs, blocks) shares: the caller runs
    the first and the threads of a ThreadPoolExecutor the others, each with
    its own buffers, writing only its own rows.  The bits do not depend on
    the number of threads.  An exception in a share is raised here with its
    own type; the other shares stop at their next block, and every thread
    has ended before this returns or raises.  Beyond the n_shuffles x W
    result the memory used is O(threads x max(T, _BLOCK_VALUES)).  The
    result is Fortran-ordered, the layout confidence_band reads.
    """
    _check_n_shuffles(n_shuffles)
    check_windows(a, b, window_length, stride)
    t_len = len(a)
    block_rows = max(1, _BLOCK_VALUES // t_len)
    out = np.empty((n_shuffles, window_count(t_len, window_length, stride)), order="F")
    blocks = -(-n_shuffles // block_rows)
    shares = min(_usable_cpus(), blocks) if t_len >= _THREAD_MIN_LENGTH else 1
    fill = partial(_shuffle_blocks, out, a, b, window_length, stride, seed, block_rows)
    if shares == 1:
        fill(range(0, n_shuffles, block_rows))
        return out
    from concurrent.futures import ThreadPoolExecutor

    stop = threading.Event()

    def share(r: int) -> None:
        starts = range(r * block_rows, n_shuffles, shares * block_rows)
        try:
            fill(takewhile(lambda _: not stop.is_set(), starts))
        except BaseException:
            stop.set()
            raise

    with ThreadPoolExecutor(shares - 1) as pool:
        futures = [pool.submit(share, r) for r in range(1, shares)]
        share(0)
        for future in futures:
            future.result()
    return out


def _shuffle_blocks(
    out: np.ndarray,
    a: Series,
    b: Series,
    window_length: int,
    stride: int,
    seed: int,
    block_rows: int,
    starts: Iterable[int],
) -> None:
    """Fill the blocks of null_ensemble's out whose first rows are starts,
    block_rows rows each or up to the end, with buffers of its own."""
    n_shuffles, t_len = out.shape[0], len(a)
    a_block = np.empty((block_rows, t_len))
    b_block = np.empty((block_rows, t_len))
    shuffler = Shuffler()
    row_seed = seed_family(seed, "shuffle")
    for k0 in starts:
        rows = min(block_rows, n_shuffles - k0)
        for r in range(rows):
            shuffler.shuffle_into(a_block[r], a.values, row_seed(k0 + r, 0))
            shuffler.shuffle_into(b_block[r], b.values, row_seed(k0 + r, 1))
        out[k0 : k0 + rows] = _window_areas(
            a_block[:rows], b_block[:rows], window_length, stride
        )


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

    The grand mean m0 is one numpy mean over the whole Fortran-ordered
    ensemble.  The centered values are then built and reduced in blocks of
    max(1, _BLOCK_VALUES // n) columns: each column of a block is the same
    contiguous run of n values that numpy would reduce in the whole
    matrix, so every column sum, and the band, has the bits of the
    one-pass formula.  Beyond its input the band holds one block and
    O(W) arrays: O(W + max(n, _BLOCK_VALUES)) values, never an n x W
    temporary.  A Fortran-ordered input (null_ensemble's result) is read in
    place; any other input is first copied into Fortran order, one n x W
    copy, so C- and Fortran-ordered ensembles with equal values give equal
    bits.
    """
    ens = np.asarray(ensemble, dtype=np.float64, order="F")
    if ens.ndim != 2 or ens.size == 0:
        raise InsufficientData("ensemble must be a nonempty n x W matrix")
    n, w = ens.shape
    if n < 2:
        raise InsufficientData("need at least 2 shuffles for a band")
    t = np.arange(1, w + 1)
    m0 = ens.mean()
    s1 = np.empty(w)
    s2 = np.empty(w)
    step = max(1, _BLOCK_VALUES // n)
    for j in range(0, w, step):
        centered = ens[:, j : j + step] - m0
        s1[j : j + step] = centered.sum(axis=0)
        centered *= centered
        s2[j : j + step] = centered.sum(axis=0)
    s1 = np.cumsum(s1)
    s2 = np.cumsum(s2)
    count = n * t
    mu = m0 + s1 / count
    var = np.maximum((s2 - s1 * s1 / count) / (count - 1), 0.0)
    sigma = np.sqrt(var)
    m = multiplier(t, rho, alpha)
    return NullBand(mu - sigma * m, mu + sigma * m, mu, sigma)


def _exact_sigma(a: Series, b: Series, window_length: int) -> float:
    """Standard deviation of one window's signed area under the null of
    null_ensemble, a and b shuffled by independent uniform permutations,
    whose mean area is exactly 0 (Hoeffding 1951).  It is the same at every
    window and stride.

    With x = b and y = a, a window of L samples has 2A = x^T C y for
    C = S - S^T, S the cyclic shift of L points (the closed polygon's
    area), so C1 = 0 and 1^T C = 0.  A shuffled window of a series has
    covariance m2 K, m2 the series' centred second moment and
    K = (T I - J) / (T - 1), J all ones; hence

        sigma^2 = m2(a) m2(b) tr(C K C^T K) / 4,

    and as C J = J C = 0 the trace is (T / (T - 1))^2 tr(C C^T)
    = 2 L (T / (T - 1))^2, one number per (L, T).
    """
    check_windows(a, b, window_length, 1)
    t_len = len(a)
    trace = 2 * window_length * (t_len / (t_len - 1)) ** 2
    return 0.5 * math.sqrt(float(np.var(a.values)) * float(np.var(b.values)) * trace)


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
