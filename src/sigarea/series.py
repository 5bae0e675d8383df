"""Time-series containers and sample-level primitives.

A :class:`Series` is an immutable named vector of finite float64 samples; a
:class:`Panel` is an ordered collection of equal-length series with distinct
names.  Every operation here is a pure function returning new objects.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import MappingProxyType

import numpy as np

from .errors import (
    ConstantSeries,
    EmptyRange,
    LengthMismatch,
    NonMonotonicTime,
    TooShort,
)
from . import rng


def _freeze(values: np.ndarray, dtype: type = np.float64) -> np.ndarray:
    """A read-only flat copy of ``values``."""
    out = np.array(values, dtype=dtype, copy=True).reshape(-1)
    out.setflags(write=False)
    return out


def _reduce_through_init(obj) -> tuple:
    """``__reduce__`` of an immutable dataclass that freezes its fields:
    unpickling calls the constructor, which freezes them again; plain
    unpickling would give arrays back writeable.  A read-only mapping, which
    pickle cannot take, goes as a dict for the constructor to wrap."""
    values = (getattr(obj, f.name) for f in fields(obj))
    return type(obj), tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in values)


@dataclass(frozen=True)
class Series:
    """Named, immutable vector of finite samples."""

    name: str
    values: np.ndarray

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        frozen = _freeze(self.values)
        if frozen.size == 0:
            raise ValueError(f"series {self.name!r} is empty")
        if not np.all(np.isfinite(frozen)):
            raise ValueError(f"series {self.name!r} contains non-finite values")
        object.__setattr__(self, "values", frozen)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class Panel:
    """Equal-length series under distinct names, in a fixed order."""

    series: tuple[Series, ...]

    def __post_init__(self) -> None:
        members = tuple(self.series)
        if not members:
            raise ValueError("panel needs at least one series")
        names = [s.name for s in members]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate series names: {names}")
        lengths = {len(s) for s in members}
        if len(lengths) != 1:
            raise LengthMismatch(f"panel series lengths differ: {sorted(lengths)}")
        object.__setattr__(self, "series", members)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.series)

    @property
    def length(self) -> int:
        return len(self.series[0])

    def get(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(name)


def scale_unit_range(s: Series) -> Series:
    """Rescale to range exactly 1 and sample mean 0.

    The transform divides by (max - min) and then subtracts the mean of the
    divided values; subtracting the mean first gives the identical result.
    """
    v = s.values
    if len(s) < 2:
        raise TooShort(f"series {s.name!r}: need at least 2 samples to scale")
    span = float(v.max()) - float(v.min())
    if span == 0.0:
        raise ConstantSeries(f"series {s.name!r} has zero range")
    scaled = v / span
    return Series(s.name, scaled - scaled.mean())


def difference(s: Series, order: int) -> Series:
    """Iterated first differences; order 0 returns the input unchanged."""
    if order < 0:
        raise ValueError("difference order must be >= 0")
    if order == 0:
        return s
    if len(s) <= order:
        raise TooShort(
            f"series {s.name!r}: length {len(s)} cannot be differenced {order} times"
        )
    return Series(s.name, np.diff(s.values, n=order))


def interpolate_uniform(
    times: np.ndarray, values: np.ndarray, step: float, name: str = "x"
) -> Series:
    """Linearly resample onto the uniform grid times[0], times[0]+step, ...

    The grid runs up to the largest point not exceeding times[-1], so grid
    points that coincide with input samples reproduce them exactly.  A step
    that is not finite and positive raises ValueError, a parameter error.
    """
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if t.shape != v.shape or t.ndim != 1:
        raise LengthMismatch("times and values must be equal-length vectors")
    if t.size < 2:
        raise EmptyRange("need at least 2 samples to interpolate")
    if not (np.isfinite(step) and step > 0):
        raise ValueError("step must be a finite positive number")
    if np.any(np.diff(t) <= 0):
        raise NonMonotonicTime("time stamps must be strictly increasing")
    # Tiny relative slack so an endpoint that lands on the grid in exact
    # arithmetic is not dropped by float rounding.
    count = int(np.floor((t[-1] - t[0]) / step * (1.0 + 1e-12))) + 1
    if count < 2:
        raise EmptyRange(
            f"step {step} fits fewer than 2 grid points in [{t[0]}, {t[-1]}]"
        )
    grid = t[0] + step * np.arange(count)
    return Series(name, np.interp(grid, t, v))


def check_lengths(a: Series, b: Series) -> None:
    """Raise LengthMismatch unless the pair (a, b) has one length."""
    if len(a) != len(b):
        raise LengthMismatch(
            f"series lengths differ: {a.name!r} {len(a)} vs {b.name!r} {len(b)}"
        )


def shuffle(s: Series, seed: int) -> Series:
    """Uniformly random permutation of the samples, determined by ``seed``."""
    return Series(s.name, s.values[rng.permutation(len(s), seed)])
