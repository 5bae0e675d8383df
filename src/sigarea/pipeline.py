"""End-to-end pairwise discovery: scaling, SSAD screening, direction calls.

For every unordered pair of channels the pipeline runs the shuffled-null
band test once (the reverse order is its exact negation) and the shift
variance-ratio test in both orders, then reports each ordered pair.  The
optional baselines run afterwards, each over all pairs in one burst.  |SSAD|
is the confidence of a lag/lead link; by default no threshold is applied
and the output is read as a ranking.  Optional extras: a scaled white-noise
control channel, and lagged-regression / cross-mapping baseline columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

from .baselines import ccm, granger
from .direction import ts_savr, shift_profile
from .errors import NameTaken, SigAreaError
from .nulltest import NullBand, SsadResult, ssad_pair_detail
from .rng import derive_seed
from .series import Panel, Series, difference, scale_unit_range
from .signature import AreaSequence
from .synth import gen_white_noise


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one discovery run.

    stride=None tiles the series with non-overlapping windows (stride =
    window_length), the default everywhere in this package; set stride=1
    for maximally overlapping windows.  theta=None means rank mode: no
    hard edge threshold, every pair lands in the graph with its
    confidence.  difference_order is applied before scaling; interpolation
    onto a uniform grid happens at CSV load time, not here.
    """

    window_length: int = 10
    n_shuffles: int = 1000
    seed: int = 0
    stride: int | None = None
    rho: float = 1.0
    alpha: float = 0.05
    tau_min: int = -10
    tau_max: int = 10
    theta: float | None = None
    difference_order: int = 0
    add_noise_channel: bool = False
    run_granger: bool = False
    run_ccm: bool = False
    granger_tau_max: int = 10
    pooled: bool = True

    def __post_init__(self) -> None:
        if self.window_length < 2:
            raise ValueError("window_length must be >= 2")
        if self.n_shuffles < 2:
            raise ValueError("n_shuffles must be >= 2")
        if self.stride is not None and self.stride < 1:
            raise ValueError("stride must be >= 1 when given")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.tau_min > self.tau_max:
            raise ValueError("tau_min must not exceed tau_max")
        if self.theta is not None and not 0 <= self.theta <= 1:
            raise ValueError("theta must lie in [0, 1] when given")
        if self.difference_order < 0:
            raise ValueError("difference_order must be >= 0")
        if self.granger_tau_max < 1:
            raise ValueError("granger_tau_max must be >= 1")

    @property
    def effective_stride(self) -> int:
        return self.window_length if self.stride is None else self.stride


@dataclass(frozen=True)
class PairReport:
    """One ordered pair's scores; ``error`` is set when the pair, or one of
    its optional baselines, failed."""

    pair: tuple[str, str]
    ssad: float | None = None
    abs_ssad: float | None = None
    ts_savr: float | None = None
    direction: str | None = None
    edge: bool = False
    granger_min_p: float | None = None
    ccm_max_r2: float | None = None
    error: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pair", tuple(self.pair))


@dataclass(frozen=True)
class GraphEdge:
    """Directed (or mutual) link between two channels."""

    source: str
    target: str
    label: str
    confidence: float


@dataclass(frozen=True)
class CausalGraph:
    """Channels plus at most one edge record per unordered pair."""

    nodes: tuple[str, ...]
    edges: tuple[GraphEdge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))


@dataclass(frozen=True)
class PairTrace:
    """Per-window actual areas and the null band for one name-ordered pair."""

    actual: AreaSequence
    band: NullBand


@dataclass(frozen=True)
class DiscoveryResult:
    """Everything one run produced, enough to serialize a full report."""

    nodes: tuple[str, ...]
    reports: tuple[PairReport, ...]
    graph: CausalGraph
    traces: Mapping[tuple[str, str], PairTrace]
    config: RunConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "reports", tuple(self.reports))
        object.__setattr__(self, "traces", MappingProxyType(dict(self.traces)))


def _noise_name(taken: tuple[str, ...]) -> str:
    for candidate in ("W", "W_noise"):
        if candidate not in taken:
            return candidate
    raise NameTaken("both 'W' and 'W_noise' are taken; rename a channel")


def prepare_channel(s: Series, difference_order: int) -> Series:
    """Difference (order 0 leaves the series untouched), then scale to unit range."""
    return scale_unit_range(difference(s, difference_order))


def _error_text(exc: SigAreaError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _prepare(panel: Panel, config: RunConfig) -> dict[str, Series | str]:
    """Each channel prepared on its own; one that fails keeps its error text."""
    prepared: dict[str, Series | str] = {}
    for s in panel.series:
        try:
            prepared[s.name] = prepare_channel(s, config.difference_order)
        except SigAreaError as exc:
            prepared[s.name] = _error_text(exc)
    if config.add_noise_channel:
        name = _noise_name(panel.names)
        # As long as a differenced channel, whether or not any prepared; when
        # that is under 2 samples every channel failed and no pair uses the noise.
        length = max(panel.length - config.difference_order, 2)
        noise = gen_white_noise(length, derive_seed(config.seed, "noise"), name)
        prepared[name] = scale_unit_range(noise)
    return prepared


def _supports(label: str, source: str, target: str) -> bool:
    return label in (f"{source}->{target}", f"{source}<->{target}", f"{target}<->{source}")


def pair_band_test(
    a: Series, b: Series, config: RunConfig
) -> tuple[SsadResult, SsadResult, AreaSequence, NullBand]:
    """The band test of a pair, put in name order and seeded from (seed,
    "pair", sorted names), so it does not depend on argument order.

    Returns ssad_pair_detail's results for the name-ordered pair: both
    ordered SSAD results, then its windowed areas and null band.
    """
    if b.name < a.name:
        a, b = b, a
    return ssad_pair_detail(
        a,
        b,
        window_length=config.window_length,
        n_shuffles=config.n_shuffles,
        seed=derive_seed(config.seed, "pair", a.name, b.name),
        stride=config.effective_stride,
        rho=config.rho,
        alpha=config.alpha,
        pooled=config.pooled,
    )


_Scored = tuple[PairReport, Series, Series]


def _pair_statistics(
    a: Series, b: Series, config: RunConfig
) -> tuple[list[_Scored], PairTrace]:
    """Stage 1: the band test and TS-SAVR of one pair, no baseline columns.

    Returns both orderings of the name-ordered pair, each as its report and
    the (x, y) series stage 2 runs on, and the pair's trace.  A failing band
    test or TS-SAVR raises its SigAreaError.
    """
    if b.name < a.name:
        a, b = b, a
    fwd, rev, actual, band = pair_band_test(a, b, config)
    # One profile over the range and its mirror image serves both orders.
    profile = shift_profile(a, b, config.tau_min, config.tau_max, mirrored=True)
    verdicts = [
        ts_savr(profile.within(config.tau_min, config.tau_max, reverse))
        for reverse in (False, True)
    ]
    abs_ssad = abs(fwd.score)
    passes = config.theta is not None and abs_ssad >= config.theta
    scored = [
        (
            PairReport(
                (x.name, y.name),
                ssad=result.score,
                abs_ssad=abs_ssad,
                ts_savr=verdict.ratio,
                direction=verdict.label,
                edge=passes and _supports(verdict.label, x.name, y.name),
            ),
            x,
            y,
        )
        for (x, y), result, verdict in zip(((a, b), (b, a)), (fwd, rev), verdicts)
    ]
    return scored, PairTrace(actual, band)


def _with_baselines(scored: list[_Scored], config: RunConfig) -> list[PairReport]:
    """Stage 2: each enabled baseline column over every scored ordering.

    All lagged regressions run back to back, then every cross mapping, so
    the BLAS worker threads spin once after the burst rather than once per
    pair.  A failing baseline leaves only its own column None and puts its
    error text on that ordering's report (Granger's, when both fail).
    """
    baselines = []
    if config.run_granger:
        baselines.append(
            ("granger_min_p", lambda x, y: granger(y, x, config.granger_tau_max).min_p)
        )
    if config.run_ccm:
        baselines.append(("ccm_max_r2", lambda x, y: ccm(x, y).max_r2))
    extras: list[dict] = [{} for _ in scored]
    for column, run in baselines:
        for extra, (_, x, y) in zip(extras, scored):
            try:
                extra[column] = run(x, y)
            except SigAreaError as exc:
                extra.setdefault("error", _error_text(exc))
    return [replace(report, **extra) for (report, _, _), extra in zip(scored, extras)]


def score_pair(
    a: Series, b: Series, config: RunConfig
) -> tuple[PairReport, PairReport, PairTrace]:
    """Score one pair of prepared channels: stage 1, then stage 2 on it.

    The band test runs once for the name-ordered pair and the other
    ordering takes the exactly negated SSAD; TS-SAVR and the optional
    baselines cover both orders.  Returns the (a, b) and (b, a) reports and
    the name-ordered pair's trace, none of which depends on argument order.
    A failing band test or TS-SAVR raises its SigAreaError; a failing
    baseline only empties its own column and sets that report's error.
    """
    scored, trace = _pair_statistics(a, b, config)
    fwd, rev = _with_baselines(scored, config)
    if b.name < a.name:
        fwd, rev = rev, fwd
    return fwd, rev, trace


def discover(panel: Panel, config: RunConfig | None = None) -> DiscoveryResult:
    """Score every channel pair of the panel.

    Each series is differenced (order 0 = untouched) and scaled; an
    optional white-noise control channel is appended and scaled the same
    way.  Unordered pairs are taken in lexicographic name order, so results
    do not depend on column order.  Stage 1 (band test and TS-SAVR) runs
    for every pair first; stage 2 then runs each enabled baseline over
    every ordering stage 1 scored, so the reports equal score_pair's pair by
    pair.  A channel that cannot be prepared, or a pair that fails stage 1,
    is reported with its error message and gets no baselines; other pairs
    are unaffected.  A pair whose only failure is an optional baseline
    keeps its scores, edge and trace, with that baseline's column empty and
    its error message set.
    """
    config = config or RunConfig()
    if len(panel.series) < 2:
        raise ValueError("need at least 2 channels to form pairs")
    prepared = _prepare(panel, config)

    reports: list[PairReport] = []
    scored: list[_Scored] = []
    edges: list[GraphEdge] = []
    traces: dict[tuple[str, str], PairTrace] = {}
    for i, j in combinations(sorted(prepared), 2):
        a, b = prepared[i], prepared[j]
        error = a if isinstance(a, str) else b if isinstance(b, str) else None
        if error is None:
            try:
                orders, traces[(i, j)] = _pair_statistics(a, b, config)
            except SigAreaError as exc:
                error = _error_text(exc)
        if error is not None:
            reports += (PairReport((i, j), error=error), PairReport((j, i), error=error))
            continue
        scored += orders
        reports += [report for report, _, _ in orders]
        fwd = orders[0][0]
        if config.theta is None or fwd.abs_ssad >= config.theta:
            source, target = (j, i) if fwd.direction == f"{j}->{i}" else (i, j)
            edges.append(GraphEdge(source, target, fwd.direction, fwd.abs_ssad))

    finished = {report.pair: report for report in _with_baselines(scored, config)}
    reports = [finished.get(report.pair, report) for report in reports]
    nodes = tuple(prepared)
    graph = CausalGraph(nodes, tuple(edges))
    return DiscoveryResult(nodes, tuple(reports), graph, traces, config)


def rank_pairs(reports: tuple[PairReport, ...] | list[PairReport]) -> list[PairReport]:
    """Unordered pairs by descending confidence.

    Takes the output of discover (or any report list), keeps one
    representative per unordered pair (the lexicographically forward one),
    and sorts by descending abs_ssad with ties broken by pair name.
    Failed pairs sort last.
    """
    if not reports:
        raise ValueError("no reports to rank")
    forward = [r for r in reports if r.pair[0] < r.pair[1]]
    return sorted(
        forward,
        key=lambda r: (r.abs_ssad is None, -(r.abs_ssad or 0.0), r.pair),
    )
