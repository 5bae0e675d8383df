"""Reference baselines: lagged-regression F-tests and cross-mapping skill.

Both are self-contained so results do not drift with third-party versions:
the F-distribution tail comes from a regularized incomplete beta evaluated
by Lentz's continued fraction, and the cross-mapping routine implements the
delay embedding, nearest-neighbor weighting, and skill scoring directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateEmbedding, LengthMismatch, SingularDesign, TooShort
from .series import Series

_CF_MAX_ITER = 400
_CF_EPS = 3e-16
_CF_TINY = 1e-300


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # even step
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + num / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + num / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
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
    """Per-lag F-test p-values for one directed hypothesis."""

    pair: tuple[str, str]
    per_lag_p: Mapping[int, float]
    min_p: float
    significant: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "pair", tuple(self.pair))
        object.__setattr__(
            self,
            "per_lag_p",
            MappingProxyType({int(k): float(v) for k, v in self.per_lag_p.items()}),
        )


def _lag_matrix(values: np.ndarray, tau: int) -> np.ndarray:
    t_len = values.size
    return np.column_stack([values[tau - d : t_len - d] for d in range(1, tau + 1)])


def _ssr(design: np.ndarray, target: np.ndarray) -> tuple[float, int]:
    beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ beta
    return float(resid @ resid), int(rank)


def granger(x: Series, y: Series, tau_max: int = 10) -> GrangerResult:
    """Does the history of ``y`` improve least-squares prediction of ``x``?

    For each lag tau in 1..tau_max, the restricted model regresses x_t on
    its own tau lags (plus intercept) and the unrestricted model adds the
    tau lags of y; both use the same rows t = tau+1..T.  The SSR F-statistic

        F = ((SSR_r - SSR_u) / tau) / (SSR_u / (T_eff - 2 tau - 1))

    is scored against the F(tau, T_eff - 2 tau - 1) upper tail.  min_p is
    the minimum over lags, uncorrected.  A rank-deficient restricted design
    (constant input, say) raises SingularDesign; exact collinearity that
    only affects the unrestricted model is resolved by the minimum-norm
    solution, since a perfectly predictable target is signal, not an error.
    """
    if tau_max < 1:
        raise ValueError("tau_max must be >= 1")
    if len(x) != len(y):
        raise LengthMismatch("series must have equal length")
    t_len = len(x)
    if t_len <= 3 * tau_max + 1:
        raise TooShort(
            f"need more than {3 * tau_max + 1} samples for tau_max={tau_max}"
        )
    per_lag: dict[int, float] = {}
    for tau in range(1, tau_max + 1):
        target = x.values[tau:]
        n_rows = target.size
        ones = np.ones((n_rows, 1))
        own = _lag_matrix(x.values, tau)
        other = _lag_matrix(y.values, tau)
        ssr_r, rank_r = _ssr(np.hstack([ones, own]), target)
        if rank_r < tau + 1:
            raise SingularDesign(
                f"restricted design is rank-deficient at lag {tau}"
            )
        ssr_u, _ = _ssr(np.hstack([ones, own, other]), target)
        df2 = n_rows - 2 * tau - 1
        if ssr_u == 0.0:
            per_lag[tau] = 0.0
            continue
        f_stat = max((ssr_r - ssr_u) / tau, 0.0) / (ssr_u / df2)
        per_lag[tau] = f_upper_tail(f_stat, tau, df2)
    min_p = min(per_lag.values())
    return GrangerResult((x.name, y.name), per_lag, min_p, min_p < 0.05)


@dataclass(frozen=True)
class CcmResult:
    """Cross-mapping skill of estimating x from the shadow manifold of y."""

    pair: tuple[str, str]
    embed_dim: int
    lag: int
    library_sizes: tuple[int, ...]
    skill: Mapping[int, float]
    max_r2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "pair", tuple(self.pair))
        object.__setattr__(self, "library_sizes", tuple(int(s) for s in self.library_sizes))
        object.__setattr__(
            self,
            "skill",
            MappingProxyType({int(k): float(v) for k, v in self.skill.items()}),
        )


def _squared_pearson(pred: np.ndarray, actual: np.ndarray) -> float:
    pc = pred - pred.mean()
    ac = actual - actual.mean()
    denom = math.sqrt(float(pc @ pc) * float(ac @ ac))
    if denom == 0.0:
        return 0.0
    r = float(pc @ ac) / denom
    return r * r


def default_library_sizes(n_points: int) -> tuple[int, ...]:
    """Ten library sizes from 10 up to 90% of the manifold, ascending."""
    top = int(0.9 * n_points)
    sizes = np.unique(np.linspace(10, top, 10).round().astype(int))
    return tuple(int(s) for s in sizes)


# Library columns per step of the neighbour search.  A step holds an
# n x _CCM_CHUNK x E difference block, so ccm's memory is O(n * chunk * E).
_CCM_CHUNK = 256


def _distances(manifold: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Distances from every manifold point to library columns start..stop-1."""
    n_points, embed_dim = manifold.shape
    diffs = np.empty((n_points, stop - start, embed_dim))
    # One subtraction per dimension: the same values as broadcasting over
    # the short last axis, which runs about twice as slow.
    for k in range(embed_dim):
        np.subtract(
            manifold[:, k, None], manifold[None, start:stop, k], out=diffs[:, :, k]
        )
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    cols = np.arange(stop - start)
    dist[cols + start, cols] = np.inf  # a point is not its own neighbour
    return dist


def _nearest_positions(cand: np.ndarray, k: int) -> np.ndarray:
    """Per row, the positions of the k smallest values sorted by (value, position)."""
    kth = np.partition(cand, k - 1, axis=1)[:, k - 1 : k]
    chosen = cand <= kth
    over = np.flatnonzero(chosen.sum(axis=1) > k)
    if over.size:  # ties at the k-th value: keep the first of them by position
        rows, bound = cand[over], kth[over]
        below, ties = rows < bound, rows == bound
        room = k - below.sum(axis=1, keepdims=True)
        chosen[over] = below | (ties & (np.cumsum(ties, axis=1) <= room))
    pos = np.nonzero(chosen)[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(cand, pos, axis=1), axis=1, kind="stable")
    return np.take_along_axis(pos, order, axis=1)


def _cross_map_skill(d: np.ndarray, idx: np.ndarray, targets: np.ndarray) -> float:
    """Skill of the exp(-d/d_1)-weighted neighbour average of the targets."""
    nearest = d[:, :1]
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.exp(-d / nearest)
    w[~np.isfinite(w)] = 1.0
    w[nearest[:, 0] == 0.0] = 1.0
    w /= w.sum(axis=1, keepdims=True)
    pred = (w * targets[idx]).sum(axis=1)
    return _squared_pearson(pred, targets)


def ccm(
    x: Series,
    y: Series,
    embed_dim: int = 2,
    lag: int = 1,
    library_sizes: Sequence[int] | None = None,
) -> CcmResult:
    """Convergent cross mapping: estimate ``x`` from the manifold of ``y``.

    The shadow manifold embeds y with delays (y_t, y_{t-lag}, ...,
    y_{t-(E-1)lag}).  For each library size L, the first L manifold points
    serve as neighbor candidates; every manifold point is predicted from
    its E+1 nearest library neighbors (itself excluded when inside the
    library) with weights exp(-d_k/d_1) normalized, d_1 the nearest
    distance; ties at d_1 = 0 fall back to equal weights.  Among
    equidistant candidates the lower library index wins, so the neighbours
    are fully determined by the data.  Skill is the squared Pearson
    correlation between predicted and actual x, and high skill is evidence
    that x forces y.

    The library is read in steps of at most _CCM_CHUNK columns that end on
    every library size, each merged into a running set of the E+1 nearest
    neighbours, so memory is O(n * _CCM_CHUNK * E) for n manifold points
    rather than O(n^2 * E), and columns past the largest library are never
    read.
    """
    if embed_dim < 1 or lag < 1:
        raise ValueError("embed_dim and lag must be >= 1")
    if len(x) != len(y):
        raise LengthMismatch("series must have equal length")
    t_len = len(x)
    offset = (embed_dim - 1) * lag
    n_points = t_len - offset
    if n_points < embed_dim + 2:
        raise TooShort("series too short for the requested embedding")
    manifold = np.column_stack(
        [y.values[offset - k * lag : t_len - k * lag] for k in range(embed_dim)]
    )
    if np.all(manifold == manifold[0]):
        raise DegenerateEmbedding("all shadow-manifold points coincide")
    targets = x.values[offset:]
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
    # The running nearest set comes first in each merge, so a lower position
    # among equal distances is always a lower library index.  Its starting
    # placeholders (inf, index 0) lose to any finite distance, and every row
    # has E+1 of those by the first library size.
    near_d = np.full((n_points, n_neigh), np.inf)
    near_i = np.zeros((n_points, n_neigh), dtype=np.intp)
    skill: dict[int, float] = {}
    start = 0
    for lib in sizes:
        while start < lib:
            stop = min(start + _CCM_CHUNK, lib)
            cand = np.concatenate([near_d, _distances(manifold, start, stop)], axis=1)
            pos = _nearest_positions(cand, n_neigh)
            near_d = np.take_along_axis(cand, pos, axis=1)
            held = pos < n_neigh
            kept = np.take_along_axis(near_i, np.where(held, pos, 0), axis=1)
            near_i = np.where(held, kept, pos + (start - n_neigh))
            start = stop
        skill[int(lib)] = _cross_map_skill(near_d, near_i, targets)
    return CcmResult(
        (x.name, y.name), embed_dim, lag, sizes, skill, max(skill.values())
    )
