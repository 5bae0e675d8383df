"""Shift profiles and the variance-ratio direction test."""

import numpy as np
import pytest

from sigarea import (
    DirectionVerdict,
    InsufficientData,
    ShiftProfile,
    ShiftTooLarge,
    SigAreaError,
    ZeroVariance,
    gen_four_species,
    gen_white_noise,
    scale_unit_range,
    shift_profile,
    shuffle,
    ts_savr,
)
from sigarea.rng import derive_seed
from sigarea.signature import pair_area


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


def test_swapping_the_pair_mirrors_and_negates_the_profile(sync_scaled):
    # Shifting a forward against b visits the same sample pairs as shifting
    # b backward against a with the roles swapped, so the areas negate
    # exactly, not just approximately.
    xs, ys = sync_scaled
    fwd = shift_profile(xs, ys)
    rev = shift_profile(ys, xs)
    for tau in fwd.taus:
        assert rev.areas[-tau] == -fwd.areas[tau]


@pytest.mark.parametrize("t_len", [200, 1000, 3000])
@pytest.mark.parametrize("tau_min, tau_max", [(-10, 10), (-3, 7)])
def test_one_mirrored_profile_gives_both_orders_bit_for_bit(t_len, tau_min, tau_max):
    # T=3000 takes the math.fsum path of the whole-overlap areas.
    four = gen_four_species(t_len)
    noise = gen_white_noise(t_len, derive_seed(11, "mirror", t_len), "W")
    chans = [scale_unit_range(s) for s in (*four.series, noise)]
    for a, b in ((chans[0], chans[1]), (chans[1], chans[3]), (chans[2], chans[4])):
        full = shift_profile(a, b, tau_min, tau_max, mirrored=True)
        for x, y, reverse in ((a, b, False), (b, a, True)):
            direct = shift_profile(x, y, tau_min, tau_max)
            derived = full.within(tau_min, tau_max, reverse)
            assert derived.pair == direct.pair and derived.taus == direct.taus
            assert dict(derived.areas) == dict(direct.areas)
            assert ts_savr(derived) == ts_savr(direct)


@pytest.mark.parametrize(
    "tau_min, tau_max", [(-10, 10), (-3, 20), (-20, 3), (-3, 7), (-8, -2), (2, 9)]
)
def test_mirrored_profile_fails_with_the_requested_range_error(tau_min, tau_max):
    # Eight samples: |tau| >= 8 leaves no overlap and |tau| = 7 one point.
    a = scale_unit_range(gen_white_noise(8, derive_seed(0, 0), "a"))
    b = scale_unit_range(gen_white_noise(8, derive_seed(0, 1), "b"))
    with pytest.raises(SigAreaError) as plain:
        shift_profile(a, b, tau_min, tau_max)
    with pytest.raises(SigAreaError) as mirrored:
        shift_profile(a, b, tau_min, tau_max, mirrored=True)
    assert type(mirrored.value) is type(plain.value)
    assert str(mirrored.value) == str(plain.value)


def _profile(neg, pos):
    taus = tuple(range(-len(neg), 0)) + tuple(range(1, len(pos) + 1))
    areas = {t: v for t, v in zip(taus, list(neg) + list(pos))}
    return ShiftProfile(("i", "j"), taus, areas)


def test_ts_savr_labels_follow_thresholds():
    fwd = ts_savr(_profile([0.0, 2.0, 4.0], [0.0, 1.0, 2.0]))
    assert fwd.ratio == pytest.approx(4.0, abs=1e-15)
    assert fwd.label == "i->j"

    rev = ts_savr(_profile([0.0, 1.0, 2.0], [0.0, 2.0, 4.0]))
    assert rev.ratio == pytest.approx(0.25, abs=1e-15)
    assert rev.label == "j->i"

    flat = ts_savr(_profile([0.0, 1.0, 2.0], [5.0, 6.0, 7.0]))
    assert flat.ratio == pytest.approx(1.0, abs=1e-15)
    assert flat.label == "i<->j"


def test_ts_savr_threshold_boundaries_are_inclusive():
    assert ts_savr(_profile([0.0, 1.0], [0.0, 1.0]), low=1.0, high=1.0).label == "i->j"
    assert ts_savr(_profile([0.0, 1.0], [0.0, 2.0]), low=0.25, high=1.1).label == "j->i"


def test_ts_savr_validation():
    with pytest.raises(ValueError):
        ts_savr(_profile([0.0, 1.0], [0.0, 1.0]), low=1.2, high=1.1)
    with pytest.raises(ZeroVariance):
        ts_savr(_profile([0.0, 1.0], [3.0, 3.0]))
    with pytest.raises(InsufficientData):
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
            pair_area(
                shuffle(a, derive_seed(7, "dirnull", k, 0)),
                shuffle(b, derive_seed(7, "dirnull", k, 1)),
            )
            for k in range(1000)
        ]
    )
    assert observed <= 5.0 * nulls.std(ddof=1)


def test_verdict_carries_its_thresholds():
    verdict = DirectionVerdict(("a", "b"), 2.0, "a->b", (0.8, 1.2))
    assert verdict.thresholds == (0.8, 1.2)
    with pytest.raises(AttributeError):
        verdict.ratio = 1.0
