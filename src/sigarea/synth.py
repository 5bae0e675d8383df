"""Benchmark system generators: coupled logistic maps and a noise control.

Three deterministic discrete-time systems with known causal wiring, used to
exercise the discovery pipeline end to end:

  two_species_sync   X drives Y, strong unidirectional coupling
  two_species_bidir  X and Y drive each other, Y reads X with delay tau_d
  four_species       chain V -> X -> Y -> Z

plus an i.i.d. standard-normal control channel.  All map generators are
pure arithmetic; every run reproduces the same panel bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Divergence
from .rng import standard_normal
from .series import Panel, Series

BIDIR_TAUS = (0, 2, 4)


def _check_bounds(states: dict[str, np.ndarray]) -> None:
    # Logistic maps with these coefficients stay strictly inside (0, 1);
    # anything on or past a boundary means the recurrence was mistyped.
    for name, vals in states.items():
        if not np.all((vals > 0.0) & (vals < 1.0)):
            raise Divergence(f"state {name!r} left the interval (0, 1)")


def _check_length(n: int, tau_d: int = 0) -> None:
    if n < tau_d + 2:
        raise ValueError(f"need at least {tau_d + 2} samples")


def gen_two_species_sync(n: int) -> Panel:
    """Unidirectionally coupled logistic pair, X -> Y.

        X_{t+1} = X_t (3.8 - 3.8 X_t)
        Y_{t+1} = Y_t (3.1 - 3.1 Y_t - 0.8 X_t)

    from X_0 = 0.2, Y_0 = 0.4; the panel holds n samples including the
    initial state.
    """
    _check_length(n)
    x = np.empty(n)
    y = np.empty(n)
    x[0], y[0] = 0.2, 0.4
    for t in range(n - 1):
        x[t + 1] = x[t] * (3.8 - 3.8 * x[t])
        y[t + 1] = y[t] * (3.1 - 3.1 * y[t] - 0.8 * x[t])
    _check_bounds({"X": x, "Y": y})
    return Panel((Series("X", x), Series("Y", y)))


def gen_two_species_bidir(n: int, tau_d: int = 0) -> Panel:
    """Bidirectionally coupled logistic pair with a delayed X -> Y link.

        X_{t+1} = X_t (3.78 - 3.78 X_t - 0.07 Y_t)
        Y_{t+1} = Y_t (3.77 - 3.77 Y_t - 0.08 X_{t - tau_d})

    from X_0 = 0.2, Y_0 = 0.4.  While t - tau_d < 0 the lagged term reads
    the initial condition X_0 (constant-history warm-up), so the first
    tau_d steps of Y evolve against a flat X history.
    """
    if tau_d not in BIDIR_TAUS:
        raise ValueError(f"tau_d must be one of {BIDIR_TAUS}")
    _check_length(n, tau_d)
    x = np.empty(n)
    y = np.empty(n)
    x[0], y[0] = 0.2, 0.4
    for t in range(n - 1):
        lagged_x = x[t - tau_d] if t >= tau_d else x[0]
        x[t + 1] = x[t] * (3.78 - 3.78 * x[t] - 0.07 * y[t])
        y[t + 1] = y[t] * (3.77 - 3.77 * y[t] - 0.08 * lagged_x)
    _check_bounds({"X": x, "Y": y})
    return Panel((Series("X", x), Series("Y", y)))


def gen_four_species(n: int) -> Panel:
    """Logistic chain V -> X -> Y -> Z.

        V_{t+1} = V_t (3.9 - 3.9 V_t)
        X_{t+1} = X_t (3.6 - 0.4 V_t - 3.6 X_t)
        Y_{t+1} = Y_t (3.6 - 0.4 X_t - 3.6 Y_t)
        Z_{t+1} = Z_t (3.8 - 0.35 Y_t - 3.8 Z_t)

    all started at 0.4.
    """
    _check_length(n)
    v = np.empty(n)
    x = np.empty(n)
    y = np.empty(n)
    z = np.empty(n)
    v[0] = x[0] = y[0] = z[0] = 0.4
    for t in range(n - 1):
        v[t + 1] = v[t] * (3.9 - 3.9 * v[t])
        x[t + 1] = x[t] * (3.6 - 0.4 * v[t] - 3.6 * x[t])
        y[t + 1] = y[t] * (3.6 - 0.4 * x[t] - 3.6 * y[t])
        z[t + 1] = z[t] * (3.8 - 0.35 * y[t] - 3.8 * z[t])
    _check_bounds({"V": v, "X": x, "Y": y, "Z": z})
    return Panel((Series("V", v), Series("X", x), Series("Y", y), Series("Z", z)))


def gen_white_noise(n: int, seed: int, name: str = "W") -> Series:
    """i.i.d. standard-normal series from the package's seeded generator."""
    _check_length(n)
    return Series(name, standard_normal(n, seed))


# System name -> generator of the panel a SystemSpec describes.
_GENERATORS = {
    "two_species_sync": lambda spec: gen_two_species_sync(spec.n_steps),
    "two_species_bidir": lambda spec: gen_two_species_bidir(spec.n_steps, spec.tau_d),
    "four_species": lambda spec: gen_four_species(spec.n_steps),
}
SYSTEMS = tuple(_GENERATORS)


@dataclass(frozen=True)
class SystemSpec:
    """Named benchmark system with its generation parameters."""

    name: str
    n_steps: int
    tau_d: int = 0

    def __post_init__(self) -> None:
        if self.name not in SYSTEMS:
            raise ValueError(f"unknown system {self.name!r}; choose from {SYSTEMS}")
        if self.name != "two_species_bidir" and self.tau_d != 0:
            raise ValueError("tau_d applies only to two_species_bidir")


def generate(spec: SystemSpec) -> Panel:
    """Generate the panel described by ``spec``."""
    return _GENERATORS[spec.name](spec)
