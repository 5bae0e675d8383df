"""End-to-end discovery runs on the benchmark panels."""

from dataclasses import is_dataclass, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from sigarea import (
    DegeneratePath,
    GraphEdge,
    InsufficientData,
    LengthMismatch,
    NameTaken,
    PairReport,
    Panel,
    RunConfig,
    Series,
    ShiftTooLarge,
    SigAreaError,
    ccm,
    discover,
    gen_four_species,
    gen_two_species_sync,
    gen_white_noise,
    granger,
    rank_pairs,
    window_count,
)
from sigarea import nulltest, pipeline
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
        # A window of two samples is one chord and encloses no area.
        {"window_length": 2},
        {"n_shuffles": 1},
        {"stride": 0},
        {"rho": 0.0},
        {"rho": float("nan")},
        {"rho": float("inf")},
        {"rho": 1e-200},
        {"alpha": 1.0},
        {"tau_min": 4, "tau_max": 2},
        {"tau_min": 0, "tau_max": 0},
        # Fewer than 2 shifts on a side: TS-SAVR would fail every pair.
        {"tau_min": 2, "tau_max": 9},
        {"tau_min": -9, "tau_max": -2},
        {"tau_min": -1, "tau_max": 5},
        {"theta": 1.5},
        {"difference_order": -1},
        {"granger_tau_max": 0},
    ],
)
def test_run_config_validation(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def _rule_cases():
    """Per input rule: the owner's error type and text, and a call through
    each public entry point that breaks the rule."""
    from sigarea import (
        ccm_many, difference, gen_two_species_bidir, granger_many, null_ensemble,
        shift_profile, signature_depth2, signed_area,
    )
    from sigarea.signature import check_windows

    a = Series("a", np.sin(np.arange(50.0)))
    b = Series("b", np.cos(0.7 * np.arange(50.0)))
    c = Series("c", np.arange(49.0))
    a8, b8 = Series("a", a.values[:8]), Series("b", b.values[:8])
    lone, unfinished = np.zeros((1, 2)), np.array([[0.0, 0.0], [np.nan, 1.0]])
    return {
        "window_length": (ValueError, "window_length must be >= 3", [
            lambda: RunConfig(window_length=2), lambda: check_windows(a, b, 2, 1),
        ]),
        "stride": (ValueError, "stride must be >= 1", [
            lambda: RunConfig(stride=0), lambda: check_windows(a, b, 5, 0),
        ]),
        "n_shuffles": (ValueError, "n_shuffles must be >= 2", [
            lambda: RunConfig(n_shuffles=1), lambda: null_ensemble(a, b, 5, 1, seed=0),
        ]),
        "difference_order": (ValueError, "difference_order must be >= 0", [
            lambda: RunConfig(difference_order=-1), lambda: difference(a, -1),
        ]),
        "granger_tau_max": (ValueError, "granger_tau_max must be >= 1", [
            lambda: RunConfig(granger_tau_max=0), lambda: granger_many(a, [b], 0),
            lambda: granger(a, b, 0),
        ]),
        "equal_lengths": (LengthMismatch, "series lengths differ: 'a' 50 vs 'c' 49", [
            lambda: check_windows(a, c, 5, 1), lambda: granger_many(a, [b, c], 3),
            lambda: ccm_many([a, b], c), lambda: shift_profile(a, c),
        ]),
        "shift_overlap": (ShiftTooLarge, "|tau| = 7 leaves 1 of 8 samples aligned, fewer than 2", [
            lambda: shift_profile(a8, b8, -3, 7), lambda: shift_profile(b8, a8, -7, 3),
        ]),
        "path_points": (DegeneratePath, "path needs at least 2 points", [
            lambda: signed_area(lone), lambda: signature_depth2(lone),
        ]),
        "path_finite": (ValueError, "path contains non-finite coordinates", [
            lambda: signed_area(unfinished), lambda: signature_depth2(unfinished),
        ]),
        "generator_length": (ValueError, "need at least 4 samples", [
            lambda: gen_two_species_bidir(3, tau_d=2),
        ]),
        "generator_length_no_delay": (ValueError, "need at least 2 samples", [
            lambda: gen_two_species_sync(1), lambda: gen_two_species_bidir(1),
            lambda: gen_four_species(1), lambda: gen_white_noise(1, 0),
        ]),
    }


@pytest.mark.parametrize("rule", list(_rule_cases()))
def test_each_input_rule_has_one_type_and_text_at_every_entry_point(rule):
    error, text, calls = _rule_cases()[rule]
    for call in calls:
        with pytest.raises(Exception) as caught:
            call()
        assert (type(caught.value), str(caught.value)) == (error, text)


def test_discover_checks_rho_at_every_window_before_any_pair(monkeypatch):
    # m(1) is finite at rho = 1e153, so RunConfig accepts it, but m is not
    # from window 14 on; the run has 100 windows.  With T below the window
    # length there are no windows to check, and each pair fails on its own.
    calls = []
    band_test = pipeline.pair_band_test

    def spy(*args):
        calls.append(args)
        return band_test(*args)

    monkeypatch.setattr(pipeline, "pair_band_test", spy)
    config = RunConfig(rho=1e153, n_shuffles=20, window_length=3)
    with pytest.raises(ValueError, match="non-finite or zero band multiplier"):
        discover(gen_four_species(300), config)
    assert calls == []
    result = discover(gen_four_species(300), replace(config, window_length=301))
    assert len(calls) == 6
    assert all(r.error.startswith("WindowTooLong") for r in result.reports)


def test_discover_needs_two_channels():
    single = Panel((gen_white_noise(50, derive_seed(14, 0), name="A"),))
    with pytest.raises(InsufficientData):
        discover(single, RunConfig(n_shuffles=10))


def test_discover_report_inventory(sync_result):
    # 3 channels (X, Y, appended noise) -> 6 ordered reports, 3 traces.
    assert sync_result.nodes == ("X", "Y", "W")
    assert len(sync_result.reports) == 6
    assert sorted(sync_result.traces) == [("W", "X"), ("W", "Y"), ("X", "Y")]
    # rank mode: every pair carries an edge record, no hard edges flagged
    assert len(sync_result.edges) == 3
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
    assert len(hit.edges) == 1
    edge = hit.edges[0]
    assert (edge.source, edge.target, edge.label) == ("X", "Y", "X->Y")
    assert edge.confidence == fwd.abs_ssad

    miss = discover(panel, RunConfig(n_shuffles=200, theta=0.99))
    assert miss.edges == ()
    assert all(not r.edge for r in miss.reports)


@pytest.mark.parametrize("theta, flags", [(0.5, [True, False]), (None, [False, False])])
def test_edge_direction_comes_from_the_ratio_not_the_label(theta, flags):
    # Named a and a->a, both one-way labels read "a->a->a", so the label
    # alone cannot tell which channel leads.
    x, y = gen_two_species_sync(600).series
    panel = Panel((Series("a", x.values), Series("a->a", y.values)))
    result = discover(panel, RunConfig(n_shuffles=200, theta=theta))
    assert result.edges == (GraphEdge("a", "a->a", "a->a->a", 0.6666666666666666),)
    assert [_report(result, pair).edge for pair in (("a", "a->a"), ("a->a", "a"))] == flags


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
    assert result.edges == plain.edges
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
    config = RunConfig(window_length=3, tau_min=-2, tau_max=2, n_shuffles=50)
    plain = discover(panel, config)
    result = discover(panel, replace(config, run_ccm=True))
    for r, bare in zip(result.reports, plain.reports):
        assert r.error == "TooShort: largest library exceeds available manifold points"
        assert r.ccm_max_r2 is None
        assert r.ssad is not None and r.ts_savr is not None and r.direction is not None
        assert replace(r, error=None) == bare
    assert list(result.traces) == [("A", "B")]
    assert result.edges == plain.edges


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
    assert mixed.edges == clean.edges
    assert sorted(mixed.traces) == sorted(clean.traces)


def test_discover_with_one_channel_that_prepares_reports_the_pair():
    # No pair of prepared channels is left to score: stage 1 runs inline.
    noise = gen_white_noise(300, 1, "A")
    result = discover(Panel((noise, Series("C", np.full(300, 0.5)))), RunConfig(n_shuffles=50))
    assert [r.pair for r in result.reports] == [("A", "C"), ("C", "A")]
    assert all(r.error == "ConstantSeries: series 'C' has zero range" for r in result.reports)
    assert result.traces == {} and result.edges == ()


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


def test_pair_band_test_ignores_argument_order(sync_scaled):
    xs, ys = sync_scaled
    cfg = RunConfig(n_shuffles=100)
    fwd, rev, actual, band = pipeline.pair_band_test(xs, ys, cfg)
    swapped = pipeline.pair_band_test(ys, xs, cfg)
    assert fwd.pair == actual.pair == ("X", "Y") and rev.pair == ("Y", "X")
    assert rev.score == -fwd.score
    for result, other in zip((fwd, rev), swapped[:2]):
        assert other.pair == result.pair and other.score == result.score
        assert other.per_step.tobytes() == result.per_step.tobytes()
    assert swapped[2].pair == actual.pair
    assert swapped[2].values.tobytes() == actual.values.tobytes()
    for field in ("lower", "upper", "mu", "sigma"):
        assert getattr(swapped[3], field).tobytes() == getattr(band, field).tobytes()


def test_pair_band_test_rejects_two_channels_of_one_name(sync_scaled):
    # The pair is seeded by its names, so two channels of one name have no
    # seed of their own, and stage 2 could not tell them apart.
    xs, ys = sync_scaled
    with pytest.raises(ValueError, match="both channels are named 'X'"):
        pipeline.pair_band_test(xs, Series("X", ys.values), RunConfig(n_shuffles=10))


def test_discover_runs_band_tests_then_each_baseline_in_one_burst(monkeypatch):
    # Every band test comes before the first lagged regression, the
    # regressions run back to back, and every cross mapping follows them.
    # Each baseline makes one call per y channel, covering each scored
    # ordering (x, y) once.  A pair whose band test fails gets no baselines.
    calls = []

    def band(function):
        def record(a, b, *args, **kwargs):
            calls.append(("band", {(a.name, b.name)}))
            if (a.name, b.name) == ("V", "X"):
                raise InsufficientData("band test refused")
            return function(a, b, *args, **kwargs)

        return record

    def granger_group(function):
        def record(target, drivers, *args, **kwargs):
            calls.append(("granger", {(d.name, target.name) for d in drivers}))
            return function(target, drivers, *args, **kwargs)

        return record

    def ccm_group(function):
        def record(targets, manifold, *args, **kwargs):
            calls.append(("ccm", {(t.name, manifold.name) for t in targets}))
            return function(targets, manifold, *args, **kwargs)

        return record

    for name, recorder in (
        ("ssad_pair_detail", band),
        ("granger_many", granger_group),
        ("ccm_many", ccm_group),
    ):
        monkeypatch.setattr(pipeline, name, recorder(getattr(pipeline, name)))
    config = RunConfig(n_shuffles=50, add_noise_channel=True, run_granger=True, run_ccm=True)
    result = discover(gen_four_species(300), config)

    kinds = [kind for kind, _ in calls]
    assert kinds == ["band"] * 10 + ["granger"] * 5 + ["ccm"] * 5
    channels = ["V", "W", "X", "Y", "Z"]
    scored = {
        (i, j) for i in channels for j in channels if i != j and {i, j} != {"V", "X"}
    }
    for kind in ("granger", "ccm"):
        groups = [orderings for k, orderings in calls if k == kind]
        pairs = {frozenset(pair) for orderings in groups for pair in orderings}
        assert len(pairs) == 9 and frozenset(("V", "X")) not in pairs
        assert sum(len(orderings) for orderings in groups) == 18
        assert set().union(*groups) == scored
        assert sorted({y for orderings in groups for _, y in orderings}) == channels
        assert all(len({y for _, y in orderings}) == 1 for orderings in groups)
    failed = [r for r in result.reports if r.error is not None]
    assert [r.pair for r in failed] == [("V", "X"), ("X", "V")]
    assert all(r.error == "InsufficientData: band test refused" for r in failed)
    assert all(r.granger_min_p is None and r.ccm_max_r2 is None for r in failed)


def _single(run, *args):
    try:
        return run(*args), None
    except SigAreaError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def test_grouped_baselines_give_each_ordering_its_own_result():
    # P alternates, so its lag-2 restricted design is rank-deficient: every
    # regression that targets P fails with the per-ordering text, and the
    # regressions of A and B on P are unaffected.  C is constant: it fails
    # both baselines as y (Granger's error wins) and is a harmless x.
    t_len = 200
    a = gen_white_noise(t_len, derive_seed(21, "grp", 0), "A")
    b = gen_white_noise(t_len, derive_seed(21, "grp", 1), "B")
    p = Series("P", np.tile([0.0, 1.0], t_len // 2))
    c = Series("C", np.full(t_len, 0.5))
    chans = {s.name: s for s in (a, b, p, c)}
    scored = [PairReport((x, y)) for x in chans for y in chans if x != y]
    config = RunConfig(run_granger=True, run_ccm=True, granger_tau_max=3)
    reports = pipeline._with_baselines(scored, chans, config)
    assert [r.pair for r in reports] == [r.pair for r in scored]
    errors = set()
    for report in reports:
        x, y = (chans[name] for name in report.pair)
        gr, gr_error = _single(granger, y, x, 3)
        cm, cm_error = _single(ccm, x, y)
        assert report.granger_min_p == (gr and gr.min_p)
        assert report.ccm_max_r2 == (cm and cm.max_r2)
        assert report.error == (gr_error or cm_error)
        errors.add((y.name, report.error))
    assert errors == {
        ("A", None),
        ("B", None),
        ("P", "SingularDesign: restricted design is rank-deficient at lag 2"),
        ("C", "SingularDesign: restricted design is rank-deficient at lag 1"),
    }


def test_a_pair_does_not_depend_on_the_rest_of_the_panel():
    # A pair is seeded from its names, and its baselines read its own two
    # channels, so the two-channel panel (columns reversed) gives the same
    # reports, baseline columns and noise-channel rows included, and the
    # same trace bytes as the whole panel.
    panel = gen_four_species(300)
    config = RunConfig(n_shuffles=50, add_noise_channel=True, run_granger=True, run_ccm=True)
    whole = discover(panel, config)
    assert sorted(whole.nodes) == ["V", "W", "X", "Y", "Z"]
    by_pair = {r.pair: r for r in whole.reports}
    for i, j in (("V", "X"), ("X", "Z"), ("Y", "Z")):
        part = discover(Panel((panel.get(j), panel.get(i))), config)
        assert part.nodes == (j, i, "W") and len(part.reports) == 6
        for report in part.reports:
            assert report.error is None
            assert None not in (report.granger_min_p, report.ccm_max_r2)
            assert report == by_pair[report.pair]
        assert len(part.traces) == 3
        for key, trace in part.traces.items():
            kept = whole.traces[key]
            assert trace.actual.pair == kept.actual.pair == key
            assert [a.tobytes() for a in _trace_arrays(trace)] == [
                a.tobytes() for a in _trace_arrays(kept)
            ]


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


# Stage 1 in worker processes.  The gate is lowered and the CPU count raised
# by patching the private constant and helper, so these run on any machine.


def _mixed_panel():
    # C is constant: it fails preparation, so error rows cross the process
    # boundary alongside scored pairs.
    return Panel(gen_four_species(300).series + (Series("C", np.full(300, 0.5)),))


_MIXED_CONFIG = RunConfig(n_shuffles=50, add_noise_channel=True, run_granger=True)


def _trace_arrays(trace):
    band = trace.band
    return [trace.actual.values, band.lower, band.upper, band.mu, band.sigma]


def _assert_same_result(result, inline):
    assert result.nodes == inline.nodes
    assert result.reports == inline.reports
    assert result.edges == inline.edges
    assert list(result.traces) == list(inline.traces)
    for key, trace in inline.traces.items():
        other = result.traces[key]
        assert other.actual.pair == trace.actual.pair
        assert [a.tobytes() for a in _trace_arrays(other)] == [
            a.tobytes() for a in _trace_arrays(trace)
        ]


def _force_processes(monkeypatch, count):
    monkeypatch.setattr(pipeline, "_SHARE_SAMPLES", 1)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: count)


@pytest.mark.parametrize("count", [2, 3])
def test_stage_one_in_worker_processes_equals_the_inline_run(tmp_path, monkeypatch, count):
    import multiprocessing

    from sigarea import write_report

    panel = _mixed_panel()
    inline = discover(panel, _MIXED_CONFIG)
    assert [r.pair for r in inline.reports if r.error][:2] == [("C", "V"), ("V", "C")]
    _force_processes(monkeypatch, count)
    counts = []

    def record(prepared, pairs, config, processes):
        counts.append(processes)
        return spawned(prepared, pairs, config, processes)

    spawned = pipeline._stage_one_in_processes
    monkeypatch.setattr(pipeline, "_stage_one_in_processes", record)
    result = discover(panel, _MIXED_CONFIG)
    assert counts == [count]
    assert multiprocessing.active_children() == []
    _assert_same_result(result, inline)
    written = [
        [Path(path).read_bytes() for path in write_report(run, str(tmp_path / name))]
        for run, name in ((inline, "inline"), (result, "workers"))
    ]
    assert written[0] == written[1] and len(written[0]) == 2 + len(inline.traces)


def test_a_long_pair_on_threads_equals_the_one_thread_run(monkeypatch):
    # T = 5000 puts each pair's null ensemble on threads; one pair keeps
    # stage 1 in this process.
    panel = gen_two_species_sync(5000)
    config = RunConfig(n_shuffles=100)
    runs = []
    for threads in (1, 3):
        monkeypatch.setattr(nulltest, "_usable_cpus", lambda: threads)
        runs.append(discover(panel, config))
    _assert_same_result(runs[1], runs[0])


def test_trace_arrays_from_worker_processes_are_read_only(monkeypatch):
    _force_processes(monkeypatch, 3)
    result = discover(_mixed_panel(), _MIXED_CONFIG)
    arrays = [a for trace in result.traces.values() for a in _trace_arrays(trace)]
    assert len(arrays) == 5 * 10
    assert not any(a.flags.writeable for a in arrays)


def _worker_share(c):
    # Stage 1 of the pairs (A, B) and (A, C) at P = 2: the caller scores
    # (A, B) and the worker its share pairs[1::2], (A, C), with C = c.
    a, b = gen_four_species(40).series[:2]
    prepared = {"A": Series("A", a.values), "B": Series("B", b.values), "C": c}
    return pipeline._stage_one_in_processes(
        prepared, [("A", "B"), ("A", "C")], RunConfig(window_length=5, n_shuffles=20), 2
    )


def test_a_worker_exception_keeps_its_type():
    import multiprocessing

    # A second channel named A, which _name_ordered rejects in the worker.
    with pytest.raises(ValueError, match="both channels are named 'A'"):
        _worker_share(Series("A", gen_white_noise(40, 1).values))
    assert multiprocessing.active_children() == []


class _ExitOnUnpickle:
    """Unpickling this ends the process at once, as a crash would."""

    def __reduce__(self):
        import os

        return os._exit, (3,)


def test_a_worker_that_dies_raises_runtime_error():
    import multiprocessing
    import time

    started = time.monotonic()
    with pytest.raises(RuntimeError):
        _worker_share(_ExitOnUnpickle())
    assert time.monotonic() - started < 60
    assert multiprocessing.active_children() == []


def _assert_same_frozen(kept, value):
    # Arrays keep their bytes and stay read-only, mappings stay read-only
    # mappings, and dataclasses are checked field by field.
    assert type(kept) is type(value)
    if isinstance(value, np.ndarray):
        assert kept.dtype == value.dtype and kept.tobytes() == value.tobytes()
        assert not kept.flags.writeable
    elif isinstance(value, MappingProxyType):
        assert list(kept) == list(value)
        for key in value:
            _assert_same_frozen(kept[key], value[key])
    elif is_dataclass(value):
        for name, field_value in vars(value).items():
            _assert_same_frozen(vars(kept)[name], field_value)
    else:
        assert kept == value


def test_frozen_arrays_stay_read_only_through_pickle():
    import copy
    import pickle

    from sigarea import shift_profile
    from sigarea.nulltest import NullBand, SsadResult
    from sigarea.signature import AreaSequence, Sig2

    values = np.arange(4.0)
    panel = gen_four_species(300)
    x, y = panel.get("X"), panel.get("Y")
    for frozen in (
        Series("A", values),
        AreaSequence(("A", "B"), 2, 1, values),
        NullBand(values - 1, values + 1, values, values),
        SsadResult(("A", "B"), np.array([0, 1, -1]), 0.0),
        Sig2(values[:2], np.eye(2)),
        granger(x, y, 3),
        ccm(x, y),
        shift_profile(x, y),
        discover(panel, RunConfig(n_shuffles=20)),
    ):
        _assert_same_frozen(pickle.loads(pickle.dumps(frozen)), frozen)
        _assert_same_frozen(copy.deepcopy(frozen), frozen)


def test_records_that_hold_arrays_compare_and_hash_by_identity():
    import pickle

    from sigarea.nulltest import NullBand, SsadResult
    from sigarea.signature import AreaSequence, Sig2

    values = np.arange(4.0)
    for make in (
        lambda: Series("A", values),
        lambda: AreaSequence(("A", "B"), 3, 1, values),
        lambda: NullBand(values - 1, values + 1, values, values),
        lambda: SsadResult(("A", "B"), np.array([0, 1, -1]), 0.0),
        lambda: Sig2(values[:2], np.eye(2)),
    ):
        record, twin = make(), make()
        assert record == record and record != twin
        assert len({record, record, twin}) == 2
    result = discover(gen_four_species(300), RunConfig(n_shuffles=20))
    assert result == result
    # The copy's traces hold new arrays, so the records differ.
    assert pickle.loads(pickle.dumps(result)) != result


def _discover_in_a_daemonic_worker(_):
    # Runs in a pool worker: this process's own copy of the module is patched.
    pipeline._SHARE_SAMPLES = 1
    pipeline._usable_cpus = lambda: 3
    result = discover(_mixed_panel(), _MIXED_CONFIG)
    return result.nodes, result.reports, result.edges, dict(result.traces)


def test_discover_in_a_daemonic_process_runs_inline():
    import multiprocessing

    with multiprocessing.get_context("spawn").Pool(1) as pool:
        nodes, reports, edges, traces = pool.apply_async(
            _discover_in_a_daemonic_worker, (None,)
        ).get(timeout=120)
    inline = discover(_mixed_panel(), _MIXED_CONFIG)
    _assert_same_result(
        pipeline.DiscoveryResult(nodes, reports, edges, traces, _MIXED_CONFIG), inline
    )


def test_process_count_follows_the_input(monkeypatch):
    cpus = pipeline._usable_cpus()
    assert cpus >= 1
    # long_pair: one pair at T = 10^4 stays inline.
    assert pipeline._process_count(1, 1000, 10_000) == 1
    # cli_full: 10 pairs x 1000 shuffles x T = 1000, below the gate.
    assert pipeline._process_count(10, 1000, 1000) == 1
    # panel_wide: 66 pairs x 1000 shuffles x T = 1000.
    assert pipeline._process_count(66, 1000, 1000) == min(cpus, 3)
    # No pair of prepared channels: still one process, the caller.
    assert pipeline._process_count(0, 1000, 1000) == 1
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    assert pipeline._process_count(66, 1000, 1000) == 1


def test_an_inline_run_does_not_import_multiprocessing():
    # Importing multiprocessing or concurrent.futures costs start-up time
    # that the small runs, which start no worker process and no thread,
    # should not pay.
    import os
    import subprocess
    import sys

    import sigarea

    script = (
        "import sys\n"
        "from sigarea import RunConfig, discover, gen_four_species\n"
        "discover(gen_four_species(1000), RunConfig(add_noise_channel=True))\n"
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))\n"
    )
    package_root = os.path.dirname(os.path.dirname(sigarea.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
