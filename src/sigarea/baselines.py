"""Reference baselines: lagged-regression F-tests and cross-mapping skill.

Both are self-contained so results do not drift with third-party versions:
the F-distribution tail comes from a regularized incomplete beta evaluated
by Lentz's continued fraction, and the cross-mapping routine implements the
delay embedding, nearest-neighbor weighting, and skill scoring directly.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateEmbedding, SingularDesign, TooShort
from .series import Series, _reduce_through_init, check_lengths

_CF_MAX_ITER = 400
_CF_EPS = 3e-16
_CF_TINY = 1e-300


def _nonzero(v: float) -> float:
    """v, or _CF_TINY when |v| is below it; a NaN passes through."""
    return _CF_TINY if abs(v) < _CF_TINY else v


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme:
    one update per even and odd term, converged when the odd one is ~1."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for num in (even, odd):
            d = 1.0 / _nonzero(1.0 + num * d)
            c = _nonzero(1.0 + num / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the CDF of the Beta(a, b) distribution at x."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on its own side of the
    # mean; use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) for the other side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def f_upper_tail(f: float, df1: float, df2: float) -> float:
    """P(F >= f) for an F(df1, df2) variable."""
    if df1 <= 0 or df2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


@dataclass(frozen=True)
class GrangerResult:
    """Per-lag F-test p-values for one directed hypothesis; min_p derives from them."""

    pair: tuple[str, str]
    per_lag_p: Mapping[int, float]

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        object.__setattr__(self, "pair", tuple(self.pair))
        object.__setattr__(
            self,
            "per_lag_p",
            MappingProxyType({int(k): float(v) for k, v in self.per_lag_p.items()}),
        )

    @property
    def min_p(self) -> float:
        return min(self.per_lag_p.values())


def _ssr(design: np.ndarray, target: np.ndarray) -> tuple[float, int]:
    beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ beta
    return float(resid @ resid), int(rank)


@functools.cache
def _locate_blas_setters() -> tuple:
    """openblas_set_num_threads_local of every OpenBLAS this process has
    already loaded; empty off Linux, under another BLAS, or where the
    symbol is missing (OpenBLAS before 0.3.27).  RTLD_NOLOAD opens only a
    library that is already mapped, so no second copy is ever loaded.
    Cached: the first lag loop looks it up, not the import, and two
    threads racing on that first call look up the same libraries."""
    if not sys.platform.startswith("linux"):
        return ()
    try:
        with open("/proc/self/maps") as maps:
            # The path is the sixth field, and may hold spaces.
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return ()
    setters = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            setter = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        setters.append(setter)
    return tuple(setters)


_BLAS_SCOPE_LOCK = threading.Lock()


@contextmanager
def _one_blas_thread():
    """Run the body with every OpenBLAS found set to one thread, and give
    each back the count it had on the way out, on an exception too.

    Despite its name, openblas_set_num_threads_local sets the count of the
    whole process in OpenBLAS's pthreads builds, numpy's wheels among them
    (a count set on one thread reads back on another), so scopes on several
    threads take turns: overlapping ones would restore out of order.  With
    no setter found the body runs as it is, on the BLAS's own settings.
    """
    setters = _locate_blas_setters()
    if not setters:
        yield
        return
    with _BLAS_SCOPE_LOCK:
        previous = [set_threads(1) for set_threads in setters]
        try:
            yield
        finally:
            for set_threads, count in zip(setters, previous):
                set_threads(count)


def _check_granger_lag(tau_max: int) -> None:
    # Named after RunConfig's field: tau_max alone is the shift range there.
    if tau_max < 1:
        raise ValueError("granger_tau_max must be >= 1")


def granger_many(
    x: Series, ys: Sequence[Series], tau_max: int = 10
) -> list[GrangerResult]:
    """Does the history of each ``y`` in ``ys`` improve least-squares
    prediction of ``x``?  One GrangerResult per driver, in order.

    For each lag tau in 1..tau_max, the restricted model regresses x_t on
    its own tau lags (plus intercept) and the unrestricted model adds the
    tau lags of y; both use the same rows t = tau+1..T.  The SSR F-statistic

        F = ((SSR_r - SSR_u) / tau) / (SSR_u / (T_eff - 2 tau - 1))

    is scored against the F(tau, T_eff - 2 tau - 1) upper tail.  min_p is
    the minimum over lags, uncorrected: on independent white noise at
    T=1000 and tau_max=10, min_p < 0.05 in about 16% of pairs, where each
    lag's own test rejects about 5%.  A lag fills one design: intercept,
    the lags of x, then each driver's lags in turn.  The restricted model
    reads only x, so it is fitted once per lag, on the first tau + 1
    columns, and shared by every driver; each result has the bits
    granger(x, y) gives alone.  Every driver must have len(x)
    (LengthMismatch).  A rank-deficient restricted design (constant input,
    say) raises SingularDesign for the whole call; exact collinearity that
    only affects an unrestricted model (a constant driver, say) is resolved
    by the minimum-norm solution, since a perfectly predictable target is
    signal, not an error.

    The lag loop runs on one BLAS thread (_one_blas_thread).  The designs
    are tall and skinny, T_eff x (2 tau + 1), and threaded OpenBLAS is not
    faster on them: it wakes a worker for each matrix-vector step inside
    the least-squares solver, and the worker then spins idle after the
    last fit.  OpenBLAS splits those steps over output rows or columns,
    not over the summed index, so every p-value has the bits the threaded
    path gives.
    """
    _check_granger_lag(tau_max)
    for y in ys:
        check_lengths(x, y)
    t_len = len(x)
    if t_len <= 3 * tau_max + 1:
        raise TooShort(
            f"need more than {3 * tau_max + 1} samples for tau_max={tau_max}"
        )
    per_lag: list[dict[int, float]] = [{} for _ in ys]
    with _one_blas_thread():
        for tau in range(1, tau_max + 1):
            target = x.values[tau:]
            n_rows = target.size
            design = np.ones((n_rows, 2 * tau + 1))
            for d in range(1, tau + 1):
                design[:, d] = x.values[tau - d : t_len - d]
            ssr_r, rank_r = _ssr(design[:, : tau + 1], target)
            if rank_r < tau + 1:
                raise SingularDesign(
                    f"restricted design is rank-deficient at lag {tau}"
                )
            df2 = n_rows - 2 * tau - 1
            for y, p_values in zip(ys, per_lag):
                for d in range(1, tau + 1):
                    design[:, tau + d] = y.values[tau - d : t_len - d]
                ssr_u, _ = _ssr(design, target)
                if ssr_u == 0.0:
                    p_values[tau] = 0.0
                    continue
                f_stat = max((ssr_r - ssr_u) / tau, 0.0) / (ssr_u / df2)
                p_values[tau] = f_upper_tail(f_stat, tau, df2)
    return [GrangerResult((x.name, y.name), p_values) for y, p_values in zip(ys, per_lag)]


def granger(x: Series, y: Series, tau_max: int = 10) -> GrangerResult:
    """Does the history of ``y`` improve least-squares prediction of ``x``?

    granger_many with the one driver ``y``: the same lagged-regression
    F-tests per lag, the same minimum p-value and the same errors.
    """
    return granger_many(x, (y,), tau_max)[0]


@dataclass(frozen=True)
class CcmResult:
    """Cross-mapping skill of estimating x from the shadow manifold of y, per
    library size; library_sizes (its keys) and max_r2 derive from it."""

    pair: tuple[str, str]
    skill: Mapping[int, float]

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        object.__setattr__(self, "pair", tuple(self.pair))
        object.__setattr__(
            self,
            "skill",
            MappingProxyType({int(k): float(v) for k, v in self.skill.items()}),
        )

    @property
    def library_sizes(self) -> tuple[int, ...]:
        return tuple(self.skill)

    @property
    def max_r2(self) -> float:
        return max(self.skill.values())


def _squared_pearson(pred: np.ndarray, actual: np.ndarray) -> float:
    pc = pred - pred.mean()
    ac = actual - actual.mean()
    denom = math.sqrt(float(pc @ pc) * float(ac @ ac))
    if denom == 0.0:
        return 0.0
    r = float(pc @ ac) / denom
    return r * r


def default_library_sizes(n_points: int) -> tuple[int, ...]:
    """Ten evenly spaced points from 10 to top = int(0.9 * n_points), rounded
    to integers, each kept once, ascending.

    That is ten sizes for n_points >= 22.  From 12 to 21 points the spacing
    is below 1, so every integer from 10 to top appears once: (10,) at 12.
    For 2 <= n_points < 12, top is below 10 and the points run down to it:
    every integer from top to 10, so (9, 10) at 11 and (3, ..., 10) at 4.
    """
    top = int(0.9 * n_points)
    # A set, not np.unique: that would import numpy.ma on first use.
    return tuple(sorted({int(s) for s in np.linspace(10, top, 10).round()}))


# Distances per block of the neighbour search.  A library step is searched
# in blocks of max(1, _CCM_BLOCK_VALUES // step columns) manifold rows, so
# every temporary stays cache-sized and independent of T.
_CCM_BLOCK_VALUES = 2**15

# Marks a distance already picked.  Distances are never negative, so their
# int64 bit views sort like their values, and this sits above +inf.
_PICKED = np.iinfo(np.int64).max


def _distances(
    manifold: np.ndarray, first: int, last: int, start: int, stop: int
) -> np.ndarray:
    """Distances from manifold rows first..last-1 to library columns
    start..stop-1: sqrt(d_0^2 + ... + d_{E-1}^2), summed left to right."""
    rows, cols = manifold[first:last], manifold[start:stop]
    dist = rows[:, 0, None] - cols[None, :, 0]
    np.square(dist, out=dist)
    diff = np.empty_like(dist)
    for k in range(1, manifold.shape[1]):
        np.subtract(rows[:, k, None], cols[None, :, k], out=diff)
        dist += np.square(diff, out=diff)
    np.sqrt(dist, out=dist)
    own = np.arange(max(first, start), min(last, stop))
    dist[own - first, own - start] = np.inf  # a point is not its own neighbour
    return dist


def _merge_nearest(
    near_d: np.ndarray, near_i: np.ndarray, dist: np.ndarray, start: int
) -> None:
    """Merge the k smallest of each row of ``dist`` (library columns from
    ``start`` on) into the held set, in place: near_d holds the k nearest
    distances and near_i their library indices, both sorted by
    (distance, index).

    Each row is scanned as the held set, whose indices are all below
    ``start``, then ``dist``, so among equal distances scan order is index
    order: each of k argmin passes over the scan's int64 bits takes the
    smallest (distance, index) left, and no sort is needed.
    """
    n_rows, k = near_d.shape
    scan = np.concatenate([near_d, dist], axis=1)
    bits = scan.view(np.int64)
    held_i = near_i.copy()
    rows = np.arange(n_rows)
    for j in range(k):
        col = bits.argmin(axis=1)
        near_d[:, j] = scan[rows, col]
        near_i[:, j] = np.where(col < k, held_i[rows, col % k], col + start - k)
        bits[rows, col] = _PICKED


def _neighbour_weights(d: np.ndarray) -> np.ndarray:
    """The normalized exp(-d/d_1) weights of sorted neighbour distances."""
    nearest = d[:, :1]
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.exp(-d / nearest)
    w[~np.isfinite(w)] = 1.0
    w[nearest[:, 0] == 0.0] = 1.0
    w /= w.sum(axis=1, keepdims=True)
    return w


def _cross_map_skill(w: np.ndarray, idx: np.ndarray, targets: np.ndarray) -> float:
    """Skill of the w-weighted average of the targets at the neighbours idx."""
    near = targets[idx]
    # Averages of equal targets (a constant target's among them) carry no
    # information; their rounding noise would pass the denominator guard.
    if near.max() == near.min():
        return 0.0
    pred = (w * near).sum(axis=1)
    return _squared_pearson(pred, targets)


def ccm_many(
    xs: Sequence[Series],
    y: Series,
    embed_dim: int = 2,
    lag: int = 1,
    library_sizes: Sequence[int] | None = None,
) -> list[CcmResult]:
    """Convergent cross mapping: estimate each ``x`` in ``xs`` from the
    manifold of ``y``.  One CcmResult per target, in order.

    The shadow manifold embeds y with delays (y_t, y_{t-lag}, ...,
    y_{t-(E-1)lag}).  For each library size L, the first L manifold points
    serve as neighbor candidates; every manifold point is predicted from
    its E+1 nearest library neighbors (itself excluded when inside the
    library) with weights exp(-d_k/d_1) normalized, d_1 the nearest
    distance; ties at d_1 = 0 fall back to equal weights.  A distance is
    sqrt(d_0^2 + ... + d_{E-1}^2) over the E coordinates, in order.  Among
    equidistant candidates the lower library index wins, so the neighbours
    are fully determined by the data.  Skill is the squared Pearson
    correlation between predicted and actual x, and high skill is evidence
    that x forces y.  Skill is 0 where x is constant, and at a library
    size whose chosen neighbours all hold one value of x.

    The neighbours depend on y alone, so y is embedded and searched once
    and every target is scored from the same neighbours at each library
    size, with weights computed once per size; each result has the bits
    ccm(x, y) gives alone.  Every target must have len(y) (LengthMismatch),
    and an error in the embedding or the library sizes is raised for the
    whole call.

    The library is read in one step per library size, the columns added
    since the previous size, each merged into a running set of the E+1
    nearest neighbours: E+1 argmin passes scan each row's held set, whose
    indices are all lower, then the step, so the first minimum keeps the
    lower-index rule without a sort.  A step is searched in blocks of
    max(1, _CCM_BLOCK_VALUES // step columns) manifold rows, so beyond
    O(n * E) arrays for n manifold points, memory holds two blocks of
    _CCM_BLOCK_VALUES values whatever T and E, rather than O(n^2 * E),
    until a step has more than _CCM_BLOCK_VALUES columns.  Columns past
    the largest library are never read.
    """
    if embed_dim < 1 or lag < 1:
        raise ValueError("embed_dim and lag must be >= 1")
    for x in xs:
        check_lengths(x, y)
    t_len = len(y)
    offset = (embed_dim - 1) * lag
    n_points = t_len - offset
    if n_points < embed_dim + 2:
        raise TooShort("series too short for the requested embedding")
    manifold = np.column_stack(
        [y.values[offset - k * lag : t_len - k * lag] for k in range(embed_dim)]
    )
    if np.all(manifold == manifold[0]):
        raise DegenerateEmbedding("all shadow-manifold points coincide")
    targets = [x.values[offset:] for x in xs]
    if library_sizes is None:
        sizes = default_library_sizes(n_points)
    else:
        sizes = tuple(int(s) for s in library_sizes)
        if not sizes or any(s2 <= s1 for s1, s2 in zip(sizes, sizes[1:])):
            raise ValueError("library sizes must be ascending and nonempty")
    # Checked first: on a short manifold the default sizes overrun it and
    # also start below embed_dim + 2, and that is a data error.
    if sizes[-1] > n_points:
        raise TooShort("largest library exceeds available manifold points")
    if sizes[0] < embed_dim + 2:
        raise ValueError("smallest library must hold at least embed_dim + 2 points")

    n_neigh = embed_dim + 1
    # Placeholders (inf, index 0) lose to any finite distance, and every row
    # has E+1 of those by the first library size.
    near_d = np.full((n_points, n_neigh), np.inf)
    near_i = np.zeros((n_points, n_neigh), dtype=np.intp)
    skills: list[dict[int, float]] = [{} for _ in xs]
    start = 0
    for lib in sizes:
        n_rows = max(1, _CCM_BLOCK_VALUES // (lib - start))
        for first in range(0, n_points, n_rows):
            last = min(first + n_rows, n_points)
            dist = _distances(manifold, first, last, start, lib)
            _merge_nearest(near_d[first:last], near_i[first:last], dist, start)
        start = lib
        weights = _neighbour_weights(near_d)
        for skill, target in zip(skills, targets):
            skill[int(lib)] = _cross_map_skill(weights, near_i, target)
    return [CcmResult((x.name, y.name), skill) for x, skill in zip(xs, skills)]


def ccm(
    x: Series,
    y: Series,
    embed_dim: int = 2,
    lag: int = 1,
    library_sizes: Sequence[int] | None = None,
) -> CcmResult:
    """Convergent cross mapping: estimate ``x`` from the manifold of ``y``.

    ccm_many with the one target ``x``: the same neighbours, skill per
    library size and errors.
    """
    return ccm_many((x,), y, embed_dim, lag, library_sizes)[0]
