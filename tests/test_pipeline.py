"""End-to-end discovery runs on the benchmark panels."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from sigarea import (
    InsufficientData,
    NameTaken,
    PairReport,
    Panel,
    RunConfig,
    Series,
    discover,
    gen_four_species,
    gen_two_species_sync,
    gen_white_noise,
    rank_pairs,
    score_pair,
    window_count,
)
from sigarea import pipeline
from sigarea.rng import derive_seed


@pytest.fixture(scope="module")
def sync_result(sync_panel):
    return discover(sync_panel, RunConfig(add_noise_channel=True))


def _report(result, pair):
    matches = [r for r in result.reports if r.pair == pair]
    assert len(matches) == 1
    return matches[0]


def test_run_config_stride_defaulting():
    assert RunConfig().effective_stride == 10
    assert RunConfig(window_length=7).effective_stride == 7
    assert RunConfig(stride=3).effective_stride == 3


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window_length": 1},
        {"n_shuffles": 1},
        {"stride": 0},
        {"rho": 0.0},
        {"alpha": 1.0},
        {"tau_min": 4, "tau_max": 2},
        {"theta": 1.5},
        {"difference_order": -1},
        {"granger_tau_max": 0},
    ],
)
def test_run_config_validation(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_discover_needs_two_channels():
    single = Panel((gen_white_noise(50, derive_seed(14, 0), name="A"),))
    with pytest.raises(ValueError):
        discover(single, RunConfig(n_shuffles=10))


def test_discover_report_inventory(sync_result):
    # 3 channels (X, Y, appended noise) -> 6 ordered reports, 3 traces.
    assert sync_result.nodes == ("X", "Y", "W")
    assert len(sync_result.reports) == 6
    assert sorted(sync_result.traces) == [("W", "X"), ("W", "Y"), ("X", "Y")]
    assert sync_result.graph.nodes == ("X", "Y", "W")
    # rank mode: every pair carries a graph record, no hard edges flagged
    assert len(sync_result.graph.edges) == 3
    assert all(not r.edge for r in sync_result.reports)


def test_discover_finds_the_planted_link(sync_result):
    fwd = _report(sync_result, ("X", "Y"))
    rev = _report(sync_result, ("Y", "X"))
    assert 0.55 <= fwd.ssad <= 0.85
    assert rev.ssad == -fwd.ssad
    assert rev.abs_ssad == fwd.abs_ssad
    assert fwd.ts_savr >= 1.1
    assert fwd.direction == "X->Y"
    for pair in (("W", "X"), ("W", "Y")):
        assert abs(_report(sync_result, pair).ssad) <= 0.25
    ranked = rank_pairs(sync_result.reports)
    assert ranked[0].pair == ("X", "Y")


def test_trace_reproduces_the_reported_score(sync_result):
    trace = sync_result.traces[("X", "Y")]
    expected_windows = window_count(1000, 10, 10)
    actual, band = trace.actual.values, trace.band
    assert len(actual) == expected_windows
    assert len(band.lower) == len(band.upper) == len(band.mu) == expected_windows
    per_step = np.where(actual <= band.lower, -1, np.where(actual >= band.upper, 1, 0))
    assert per_step.mean() == _report(sync_result, ("X", "Y")).ssad


def test_theta_turns_ranking_into_edges():
    panel = gen_two_species_sync(600)
    hit = discover(panel, RunConfig(n_shuffles=200, theta=0.5))
    fwd = _report(hit, ("X", "Y"))
    assert fwd.abs_ssad >= 0.5
    assert fwd.edge
    assert len(hit.graph.edges) == 1
    edge = hit.graph.edges[0]
    assert (edge.source, edge.target, edge.label) == ("X", "Y", "X->Y")
    assert edge.confidence == fwd.abs_ssad

    miss = discover(panel, RunConfig(n_shuffles=200, theta=0.99))
    assert miss.graph.edges == ()
    assert all(not r.edge for r in miss.reports)


def test_failing_pair_is_isolated():
    # A period-2 channel makes the lagged-regression design rank-deficient
    # whenever it is the regression's target.  Only those rows lose their
    # Granger column and carry the error; every pair keeps the scores, edge
    # and trace it gets without the baseline, and the other rows are whole.
    t_len = 200
    alt = Series("P", np.tile([0.0, 1.0], t_len // 2))
    x = gen_white_noise(t_len, derive_seed(20, 0), name="X")
    y = gen_white_noise(t_len, derive_seed(20, 1), name="Y")
    panel = Panel((x, y, alt))
    result = discover(panel, RunConfig(n_shuffles=50, run_granger=True))
    plain = discover(panel, RunConfig(n_shuffles=50))

    broken = [r for r in result.reports if r.error is not None]
    assert [r.pair for r in broken] == [("X", "P"), ("Y", "P")]
    for r in broken:
        assert r.error.startswith("SingularDesign: ")
        assert r.granger_min_p is None
    for r, bare in zip(result.reports, plain.reports):
        assert r.error is not None or r.granger_min_p is not None
        assert replace(r, granger_min_p=None, error=None) == bare
    assert sorted(result.traces) == sorted(plain.traces) == [("P", "X"), ("P", "Y"), ("X", "Y")]
    assert result.graph == plain.graph
    ranked = rank_pairs(result.reports)
    assert ranked[0].pair == ("X", "Y")
    assert [r.pair for r in ranked[1:]] == [("P", "X"), ("P", "Y")]


def test_failing_baseline_keeps_the_pair_scores():
    # Five samples make four CCM manifold points, too few for the default
    # library sizes: both orderings carry TooShort and no CCM skill, and
    # keep the band test, TS-SAVR, direction and trace.
    panel = Panel((
        Series("A", np.array([0.1, 0.7, 0.3, 0.9, 0.2])),
        Series("B", np.array([0.5, 0.2, 0.9, 0.4, 0.6])),
    ))
    config = RunConfig(window_length=2, tau_min=-2, tau_max=2, n_shuffles=50)
    plain = discover(panel, config)
    result = discover(panel, replace(config, run_ccm=True))
    for r, bare in zip(result.reports, plain.reports):
        assert r.error == "TooShort: largest library exceeds available manifold points"
        assert r.ccm_max_r2 is None
        assert r.ssad is not None and r.ts_savr is not None and r.direction is not None
        assert replace(r, error=None) == bare
    assert list(result.traces) == [("A", "B")]
    assert result.graph == plain.graph


def test_constant_channel_only_fails_its_own_pairs():
    four = gen_four_species(300)
    cfg = RunConfig(n_shuffles=100)
    clean = discover(four, cfg)
    mixed = discover(Panel(four.series + (Series("C", np.full(300, 0.5)),)), cfg)
    assert mixed.nodes == ("V", "X", "Y", "Z", "C")
    assert [r for r in mixed.reports if "C" not in r.pair] == list(clean.reports)
    broken = [r for r in mixed.reports if "C" in r.pair]
    assert len(broken) == 8
    assert all(r.error == "ConstantSeries: series 'C' has zero range" for r in broken)
    assert mixed.graph.edges == clean.graph.edges
    assert sorted(mixed.traces) == sorted(clean.traces)


def test_noise_channel_does_not_need_the_first_channel():
    t_len = 120
    flat = Series("A", np.ones(t_len))
    b = gen_white_noise(t_len, derive_seed(23, 0), name="B")
    cfg = RunConfig(n_shuffles=50, difference_order=1, add_noise_channel=True)
    result = discover(Panel((flat, b)), cfg)
    assert result.nodes == ("A", "B", "W")
    assert _report(result, ("A", "B")).error.startswith("ConstantSeries")
    assert _report(result, ("B", "W")).error is None
    assert len(result.traces[("B", "W")].actual.values) == window_count(t_len - 1, 10, 10)


def test_score_pair_ignores_argument_order(sync_scaled):
    xs, ys = sync_scaled
    cfg = RunConfig(n_shuffles=100)
    xy, yx, trace = score_pair(xs, ys, cfg)
    assert score_pair(ys, xs, cfg)[:2] == (yx, xy)
    assert xy.pair == ("X", "Y") and yx.pair == ("Y", "X")
    assert yx.ssad == -xy.ssad
    assert trace.actual.pair == ("X", "Y")


def test_discover_runs_band_tests_then_each_baseline_in_one_burst(monkeypatch):
    # Every band test comes before the first lagged regression, the
    # regressions run back to back, and every cross mapping follows them.
    # A pair whose band test fails gets no baselines.
    calls = []

    def recorder(kind, function):
        def record(*args, **kwargs):
            x, y = args[:2]
            calls.append((kind, x.name, y.name))
            if kind == "band" and (x.name, y.name) == ("V", "X"):
                raise InsufficientData("band test refused")
            return function(*args, **kwargs)

        return record

    for kind, name in (("band", "ssad_pair_detail"), ("granger", "granger"), ("ccm", "ccm")):
        monkeypatch.setattr(pipeline, name, recorder(kind, getattr(pipeline, name)))
    config = RunConfig(n_shuffles=50, add_noise_channel=True, run_granger=True, run_ccm=True)
    result = discover(gen_four_species(300), config)

    kinds = [kind for kind, _, _ in calls]
    assert kinds == ["band"] * 10 + ["granger"] * 18 + ["ccm"] * 18
    for kind in ("granger", "ccm"):
        pairs = {frozenset(pair) for k, *pair in calls if k == kind}
        assert len(pairs) == 9 and frozenset(("V", "X")) not in pairs
    failed = [r for r in result.reports if r.error is not None]
    assert [r.pair for r in failed] == [("V", "X"), ("X", "V")]
    assert all(r.error == "InsufficientData: band test refused" for r in failed)
    assert all(r.granger_min_p is None and r.ccm_max_r2 is None for r in failed)


def test_discover_equals_score_pair_pair_by_pair():
    panel = gen_four_species(300)
    config = RunConfig(n_shuffles=100, add_noise_channel=True, run_granger=True, run_ccm=True)
    result = discover(panel, config)
    by_pair = {r.pair: r for r in result.reports}
    prepared = pipeline._prepare(panel, config)
    assert sorted(prepared) == ["V", "W", "X", "Y", "Z"]
    for k, (i, j) in enumerate(combinations(sorted(prepared), 2)):
        # Half the pairs are handed to score_pair in reverse order.
        a, b = (prepared[i], prepared[j]) if k % 2 else (prepared[j], prepared[i])
        first, second, trace = score_pair(a, b, config)
        assert (first, second) == (by_pair[(a.name, b.name)], by_pair[(b.name, a.name)])
        assert first.error is None and first.granger_min_p is not None
        kept = result.traces[(i, j)]
        assert trace.actual.pair == kept.actual.pair == (i, j)
        assert trace.actual.values.tobytes() == kept.actual.values.tobytes()
        for field in ("lower", "upper", "mu", "sigma"):
            assert getattr(trace.band, field).tobytes() == getattr(kept.band, field).tobytes()


def test_reports_do_not_depend_on_column_order():
    base = gen_two_species_sync(300)
    flipped = Panel((base.get("Y"), base.get("X")))
    cfg = RunConfig(n_shuffles=100)
    first = _report(discover(base, cfg), ("X", "Y"))
    second = _report(discover(flipped, cfg), ("X", "Y"))
    assert first.ssad == second.ssad
    assert first.ts_savr == second.ts_savr
    assert first.direction == second.direction


def test_noise_channel_avoids_name_collision():
    t_len = 120
    w = gen_white_noise(t_len, derive_seed(21, 0), name="W")
    y = gen_white_noise(t_len, derive_seed(21, 1), name="Y")
    result = discover(Panel((w, y)), RunConfig(n_shuffles=50, add_noise_channel=True))
    assert result.nodes == ("W", "Y", "W_noise")
    both_taken = Panel((w, Series("W_noise", y.values)))
    with pytest.raises(NameTaken):
        discover(both_taken, RunConfig(n_shuffles=50, add_noise_channel=True))


def test_rank_pairs_ordering_rules():
    reports = [
        PairReport(("A", "B"), ssad=0.5, abs_ssad=0.5),
        PairReport(("B", "A"), ssad=-0.5, abs_ssad=0.5),
        PairReport(("A", "C"), ssad=-0.9, abs_ssad=0.9),
        PairReport(("C", "A"), ssad=0.9, abs_ssad=0.9),
        PairReport(("B", "C"), ssad=0.5, abs_ssad=0.5),
        PairReport(("C", "B"), ssad=-0.5, abs_ssad=0.5),
        PairReport(("A", "D"), error="boom"),
        PairReport(("D", "A"), error="boom"),
    ]
    ranked = rank_pairs(reports)
    assert [r.pair for r in ranked] == [
        ("A", "C"),
        ("A", "B"),
        ("B", "C"),
        ("A", "D"),
    ]
    with pytest.raises(ValueError):
        rank_pairs([])


def test_differencing_is_applied_before_scaling():
    # A common linear trend is invisible to the windowed-area score once
    # first differences are taken, so the config knob must change results.
    t_len = 400
    trend = np.linspace(0.0, 5.0, t_len)
    a = Series("A", gen_white_noise(t_len, derive_seed(22, 0)).values + trend)
    b = Series("B", gen_white_noise(t_len, derive_seed(22, 1)).values + trend)
    panel = Panel((a, b))
    raw = _report(discover(panel, RunConfig(n_shuffles=100)), ("A", "B"))
    diffed = _report(
        discover(panel, RunConfig(n_shuffles=100, difference_order=1)), ("A", "B")
    )
    assert abs(diffed.ssad) <= 0.25
    assert raw.ssad != diffed.ssad
