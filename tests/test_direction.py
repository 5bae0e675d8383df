"""Shift profiles and the variance-ratio direction test."""

import numpy as np
import pytest

from sigarea import (
    DirectionVerdict,
    ShiftProfile,
    ShiftTooLarge,
    ZeroVariance,
    gen_four_species,
    gen_white_noise,
    scale_unit_range,
    shift_profile,
    shuffle,
    signed_area,
    ts_savr,
)
from sigarea import direction
from sigarea.rng import derive_seed


def test_profile_covers_symmetric_range_without_zero(sync_scaled):
    xs, ys = sync_scaled
    prof = shift_profile(xs, ys)
    assert prof.taus == tuple(t for t in range(-10, 11) if t != 0)
    assert len(prof.areas) == 20
    assert 0 not in prof.areas
    assert prof.pair == ("X", "Y")
    assert prof.side(positive=True).shape == (10,)
    assert prof.side(positive=False).shape == (10,)


def test_profile_validation(sync_scaled):
    xs, ys = sync_scaled
    with pytest.raises(ValueError):
        shift_profile(xs, ys, tau_min=5, tau_max=4)
    with pytest.raises(ValueError):
        shift_profile(xs, ys, tau_min=0, tau_max=0)
    short_x = scale_unit_range(gen_white_noise(8, derive_seed(0, 0)))
    short_y = scale_unit_range(gen_white_noise(8, derive_seed(0, 1)))
    with pytest.raises(ShiftTooLarge):
        shift_profile(short_x, short_y, tau_min=-8, tau_max=8)


def test_profile_dataclass_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ShiftProfile(("a", "b"), (0, 1), {0: 0.0, 1: 1.0})
    with pytest.raises(ValueError):
        ShiftProfile(("a", "b"), (-1, 1), {1: 1.0})
    # Beyond the profiled shifts, areas may hold only their mirrors.
    mirrored = ShiftProfile(("a", "b"), (1, 2), {1: 1.0, 2: 2.0, -2: 3.0})
    assert set(mirrored.areas) == {1, 2, -2}
    with pytest.raises(ValueError):
        ShiftProfile(("a", "b"), (1, 2), {1: 1.0, 2: 2.0, 3: 3.0})


def test_swapping_the_pair_mirrors_and_negates_the_profile(sync_scaled):
    # Shifting a forward against b visits the same sample pairs as shifting
    # b backward against a with the roles swapped, so the areas negate
    # exactly, not just approximately.
    xs, ys = sync_scaled
    fwd = shift_profile(xs, ys)
    rev = shift_profile(ys, xs)
    for tau in fwd.taus:
        assert rev.areas[-tau] == -fwd.areas[tau]


def _bits(profile):
    # float.hex tells -0.0 from 0.0, which == does not.
    return {t: float.hex(v) for t, v in profile.areas.items()}


def _shifted_area(a, b, tau):
    # a[t + tau] against b[t] on their overlap, sliced here rather than by
    # the code under test, through the public path area of (b, a).
    t_len = len(a)
    if tau > 0:
        head, tail = a.values[tau:], b.values[: t_len - tau]
    else:
        head, tail = a.values[: t_len + tau], b.values[-tau:]
    return signed_area(np.column_stack([tail, head]))


def _chans(t_len):
    four = gen_four_species(t_len)
    noise = gen_white_noise(t_len, derive_seed(11, "mirror", t_len), "W")
    return [scale_unit_range(s) for s in (*four.series, noise)]


@pytest.mark.parametrize("t_len", [200, 1000, 1001, 1003, 3000])
@pytest.mark.parametrize("tau_min, tau_max", [(-10, 10), (-3, 7), (-2, 9)])
def test_profile_areas_have_the_bits_of_the_shifted_series_path(t_len, tau_min, tau_max):
    # The public path area of the shifted samples is the oracle for every
    # area, mirror shifts included.  At T=1003 a one-shift overlap sums its
    # 1001 products with math.fsum and a two-shift overlap with np.sum;
    # T=3000 is all fsum.
    chans = _chans(t_len)
    for a, b in ((chans[0], chans[1]), (chans[1], chans[3]), (chans[2], chans[4])):
        profile = shift_profile(a, b, tau_min, tau_max)
        assert profile.taus == tuple(t for t in range(tau_min, tau_max + 1) if t != 0)
        assert set(profile.areas) == set(profile.taus) | {-t for t in profile.taus}
        oracle = {t: float.hex(_shifted_area(a, b, t)) for t in profile.areas}
        assert _bits(profile) == oracle


@pytest.mark.parametrize("t_len", [200, 1000, 3000])
@pytest.mark.parametrize("tau_min, tau_max", [(-10, 10), (-3, 7)])
def test_one_mirrored_profile_gives_both_orders_bit_for_bit(t_len, tau_min, tau_max):
    # T=3000 takes the math.fsum path of the whole-overlap areas.
    chans = _chans(t_len)
    for a, b in ((chans[0], chans[1]), (chans[1], chans[3]), (chans[2], chans[4])):
        full = shift_profile(a, b, tau_min, tau_max)
        assert full.reversed().reversed() == full
        for x, y, derived in ((a, b, full), (b, a, full.reversed())):
            direct = shift_profile(x, y, tau_min, tau_max)
            assert derived.pair == direct.pair and derived.taus == direct.taus
            assert _bits(derived) == _bits(direct)
            assert ts_savr(derived) == ts_savr(direct)


def test_reversing_needs_every_mirror_shift():
    lacking = ShiftProfile(("a", "b"), (-1, 1, 2), {-1: 0.5, 1: 1.0, 2: 2.0})
    with pytest.raises(ValueError):
        lacking.reversed()
    mirrored = ShiftProfile(("a", "b"), (1, 2), {1: 1.0, 2: 2.0, -1: 3.0, -2: 4.0})
    assert mirrored.reversed() == ShiftProfile(
        ("b", "a"), (1, 2), {1: -3.0, 2: -4.0, -1: -1.0, -2: -2.0}
    )


_RANGE_ERRORS = {
    (-10, 10): "|tau| = 10 leaves 0 of 8 samples aligned, fewer than 2",
    (-3, 20): "|tau| = 7 leaves 1 of 8 samples aligned, fewer than 2",
    (-20, 3): "|tau| = 20 leaves 0 of 8 samples aligned, fewer than 2",
    (-3, 7): "|tau| = 7 leaves 1 of 8 samples aligned, fewer than 2",
    (-8, 2): "|tau| = 8 leaves 0 of 8 samples aligned, fewer than 2",
    (-2, 9): "|tau| = 7 leaves 1 of 8 samples aligned, fewer than 2",
}


@pytest.mark.parametrize("tau_min, tau_max", list(_RANGE_ERRORS))
def test_mirrored_profile_fails_with_the_requested_range_error(tau_min, tau_max):
    # Eight samples: |tau| >= 8 leaves no overlap and |tau| = 7 one point.
    # The mirror shifts come after the requested range, so the first shift
    # of the range that fails names the error, in either order of the pair.
    a = scale_unit_range(gen_white_noise(8, derive_seed(0, 0), "a"))
    b = scale_unit_range(gen_white_noise(8, derive_seed(0, 1), "b"))
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ShiftTooLarge) as caught:
            shift_profile(x, y, tau_min, tau_max)
        assert str(caught.value) == _RANGE_ERRORS[(tau_min, tau_max)]


def test_a_range_past_the_series_fails_before_any_area(monkeypatch):
    # The range is checked against the series at its ends, before the first
    # area and without walking it, so a range of 6e6 shifts fails at once.
    areas = []
    whole_area = direction._whole_area
    monkeypatch.setattr(
        direction, "_whole_area", lambda a, b: areas.append(a.size) or whole_area(a, b)
    )
    a = scale_unit_range(gen_white_noise(8, derive_seed(0, 0), "a"))
    b = scale_unit_range(gen_white_noise(8, derive_seed(0, 1), "b"))
    ranges = {**_RANGE_ERRORS, (-3_000_000, 3_000_000):
              "|tau| = 3000000 leaves 0 of 8 samples aligned, fewer than 2"}
    for (tau_min, tau_max), message in ranges.items():
        with pytest.raises(ShiftTooLarge) as caught:
            shift_profile(a, b, tau_min, tau_max)
        assert str(caught.value) == message
    assert areas == []
    shift_profile(a, b, -3, 6)  # nine shifts and the mirrors of 4, 5 and 6
    assert sorted(areas) == [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7]


@pytest.mark.parametrize("swapped", [False, True])
def test_a_one_sample_overlap_is_a_shift_error(swapped):
    # Eight samples: tau = +-7 leaves one aligned point, which traces no
    # path; the error names the shift and the length.
    a = scale_unit_range(gen_white_noise(8, derive_seed(0, 0), "a"))
    b = scale_unit_range(gen_white_noise(8, derive_seed(0, 1), "b"))
    if swapped:
        a, b = b, a
    assert len(shift_profile(a, b, -6, 6).taus) == 12
    for tau_min, tau_max in ((-3, 7), (-7, 3), (-2, 7)):
        with pytest.raises(ShiftTooLarge) as caught:
            shift_profile(a, b, tau_min, tau_max)
        assert str(caught.value) == "|tau| = 7 leaves 1 of 8 samples aligned, fewer than 2"


def _profile(neg, pos):
    taus = tuple(range(-len(neg), 0)) + tuple(range(1, len(pos) + 1))
    areas = {t: v for t, v in zip(taus, list(neg) + list(pos))}
    return ShiftProfile(("i", "j"), taus, areas)


def test_ts_savr_labels_follow_thresholds():
    fwd = ts_savr(_profile([0.0, 2.0, 4.0], [0.0, 1.0, 2.0]))
    assert fwd.ratio == pytest.approx(4.0, abs=1e-15)
    assert fwd.label == "i->j" and fwd.leads == 1

    rev = ts_savr(_profile([0.0, 1.0, 2.0], [0.0, 2.0, 4.0]))
    assert rev.ratio == pytest.approx(0.25, abs=1e-15)
    assert rev.label == "j->i" and rev.leads == -1

    flat = ts_savr(_profile([0.0, 1.0, 2.0], [5.0, 6.0, 7.0]))
    assert flat.ratio == pytest.approx(1.0, abs=1e-15)
    assert flat.label == "i<->j" and flat.leads == 0


def test_ts_savr_threshold_boundaries_are_inclusive():
    # Sample variances 11 and 10, then 9 and 10: ratios of exactly 1.1 and 0.9.
    at_high = ts_savr(_profile([-3, -3, -1, 3, 4], [-4, -2, 0, 2, 4]))
    assert at_high.ratio == 1.1
    assert at_high.label == "i->j" and at_high.leads == 1
    at_low = ts_savr(_profile([-3, 0, 3], [-4, -2, 0, 2, 4]))
    assert at_low.ratio == 0.9
    assert at_low.label == "j->i" and at_low.leads == -1


def test_ts_savr_validation():
    with pytest.raises(ZeroVariance):
        ts_savr(_profile([0.0, 1.0], [3.0, 3.0]))
    with pytest.raises(ValueError, match="at least 2 shifts on each side"):
        ts_savr(_profile([1.0], [2.0]))


def test_ts_savr_points_from_driver_to_driven(sync_scaled):
    xs, ys = sync_scaled
    verdict = ts_savr(shift_profile(xs, ys))
    assert verdict.ratio >= 1.1
    assert verdict.label == "X->Y"


def test_ts_savr_flips_when_pair_is_stated_backwards(four_panel):
    # V drives X in the four-species chain; profiling the pair as (X, V)
    # must still point the edge from V to X via the low branch.
    xs = scale_unit_range(four_panel.get("X"))
    vs = scale_unit_range(four_panel.get("V"))
    verdict = ts_savr(shift_profile(xs, vs))
    assert verdict.ratio <= 0.9
    assert verdict.label == "V->X"


def test_white_noise_profile_stays_inside_null_band():
    # No shift of one noise channel against another should stand out: the
    # largest observed |area| stays within 5 sigma of whole-interval areas
    # from shuffled copies (measured 1.69 vs 2.80).
    a = scale_unit_range(gen_white_noise(1000, derive_seed(7, "dir", 0)))
    b = scale_unit_range(gen_white_noise(1000, derive_seed(7, "dir", 1)))
    prof = shift_profile(a, b)
    observed = max(abs(v) for v in prof.areas.values())
    nulls = np.array(
        [
            signed_area(np.column_stack([
                shuffle(b, derive_seed(7, "dirnull", k, 1)).values,
                shuffle(a, derive_seed(7, "dirnull", k, 0)).values,
            ]))
            for k in range(1000)
        ]
    )
    assert observed <= 5.0 * nulls.std(ddof=1)


def test_verdict_is_immutable():
    verdict = DirectionVerdict(("a", "b"), 2)
    assert verdict.ratio == 2.0 and isinstance(verdict.ratio, float)
    with pytest.raises(AttributeError):
        verdict.ratio = 1.0
