"""Benchmark generators.

First-step values are checked against hand-evaluated recurrences written out
inline, so a mistyped coefficient in the generator cannot hide.
"""

import numpy as np
import pytest

from sigarea import (
    Divergence,
    SystemSpec,
    gen_four_species,
    gen_two_species_bidir,
    gen_two_species_sync,
    gen_white_noise,
    generate,
)
from sigarea.rng import standard_normal


def test_sync_first_step_by_hand():
    panel = gen_two_species_sync(3)
    x = panel.get("X").values
    y = panel.get("Y").values
    assert (x[0], y[0]) == (0.2, 0.4)
    assert x[1] == pytest.approx(0.2 * (3.8 - 3.8 * 0.2), abs=1e-15)  # 0.608
    assert y[1] == pytest.approx(0.4 * (3.1 - 3.1 * 0.4 - 0.8 * 0.2), abs=1e-15)  # 0.68


def test_bidir_first_step_by_hand():
    panel = gen_two_species_bidir(3, tau_d=0)
    x = panel.get("X").values
    y = panel.get("Y").values
    assert x[1] == pytest.approx(0.2 * (3.78 - 3.78 * 0.2 - 0.07 * 0.4), abs=1e-15)
    assert y[1] == pytest.approx(0.4 * (3.77 - 3.77 * 0.4 - 0.08 * 0.2), abs=1e-15)


def test_bidir_warmup_reads_initial_x():
    # With tau_d = 2 the lagged term is pinned to X_0 for t < 2, so Y agrees
    # with the tau_d = 0 run through index 1, splits at index 2, and the
    # split reaches X one step later through the Y feedback.
    base = gen_two_species_bidir(8, tau_d=0)
    lagged = gen_two_species_bidir(8, tau_d=2)
    y0, y2 = base.get("Y").values, lagged.get("Y").values
    x0, x2 = base.get("X").values, lagged.get("X").values
    assert np.array_equal(y0[:2], y2[:2]) and y0[2] != y2[2]
    assert np.array_equal(x0[:3], x2[:3]) and x0[3] != x2[3]
    assert lagged.get("Y").values[1] == pytest.approx(
        0.4 * (3.77 - 3.77 * 0.4 - 0.08 * 0.2), abs=1e-15
    )


def test_four_species_first_step_by_hand():
    panel = gen_four_species(3)
    first = {name: panel.get(name).values[1] for name in ("V", "X", "Y", "Z")}
    assert first["V"] == pytest.approx(0.4 * (3.9 - 3.9 * 0.4), abs=1e-15)  # 0.936
    assert first["X"] == pytest.approx(0.4 * (3.6 - 0.4 * 0.4 - 3.6 * 0.4), abs=1e-15)
    assert first["Y"] == pytest.approx(0.4 * (3.6 - 0.4 * 0.4 - 3.6 * 0.4), abs=1e-15)
    assert first["Z"] == pytest.approx(0.4 * (3.8 - 0.35 * 0.4 - 3.8 * 0.4), abs=1e-15)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: gen_two_species_sync(2000),
        lambda: gen_two_species_bidir(2000, tau_d=4),
        lambda: gen_four_species(2000),
    ],
)
def test_trajectories_stay_strictly_inside_unit_interval(factory):
    panel = factory()
    for name in panel.names:
        vals = panel.get(name).values
        assert np.all((vals > 0.0) & (vals < 1.0))


def test_generators_are_deterministic():
    a = gen_four_species(500)
    b = gen_four_species(500)
    for name in a.names:
        assert np.array_equal(a.get(name).values, b.get(name).values)


def test_generator_validation():
    with pytest.raises(ValueError):
        gen_two_species_sync(1)
    with pytest.raises(ValueError, match="non-negative"):
        standard_normal(-1, 0)
    with pytest.raises(ValueError):
        gen_two_species_bidir(100, tau_d=3)
    with pytest.raises(ValueError):
        gen_two_species_bidir(5, tau_d=4)
    with pytest.raises(ValueError):
        gen_four_species(0)


def test_white_noise_moments_and_determinism():
    w = gen_white_noise(100_000, seed=424242)
    vals = w.values
    assert w.name == "W"
    assert abs(vals.mean()) <= 0.02
    assert abs(vals.var(ddof=1) - 1.0) <= 0.02
    lag1 = np.corrcoef(vals[:-1], vals[1:])[0, 1]
    assert abs(lag1) <= 0.02
    again = gen_white_noise(100_000, seed=424242)
    assert np.array_equal(vals, again.values)
    assert not np.array_equal(vals, gen_white_noise(100_000, seed=424243).values)
    assert gen_white_noise(10, seed=1, name="N2").name == "N2"
    with pytest.raises(ValueError):
        gen_white_noise(1, seed=0)


def test_system_spec_dispatch_and_validation():
    spec = SystemSpec("two_species_bidir", 50, tau_d=2)
    direct = gen_two_species_bidir(50, tau_d=2)
    generated = generate(spec)
    for name in direct.names:
        assert np.array_equal(generated.get(name).values, direct.get(name).values)
    assert np.array_equal(
        generate(SystemSpec("two_species_sync", 40)).get("X").values,
        gen_two_species_sync(40).get("X").values,
    )
    assert generate(SystemSpec("four_species", 40)).names == ("V", "X", "Y", "Z")
    with pytest.raises(ValueError):
        SystemSpec("lorenz", 100)
    with pytest.raises(ValueError):
        SystemSpec("two_species_sync", 100, tau_d=2)


def test_divergence_error_is_importable():
    # The bounds check is unreachable with the shipped coefficients; this
    # pins the error type those checks promise to raise.
    assert issubclass(Divergence, Exception)
