"""Deterministic randomness.

All randomness in the package flows through one named construction so that
every shuffle, noise draw, and ensemble member is reproducible from a single
master seed regardless of execution order:

* Seed derivation: ``derive_seed(master, *parts)`` renders the master seed
  and each part as text, joins them with ``":"``, hashes with SHA-256, and
  keeps the low 128 bits.  Distinct label paths give independent keys.
  ``seed_family(master, *parts)`` hashes that text plus ``":"`` once and
  finishes a copy of the hash per call, so ``seed_family(m, *p)(*q)`` is
  ``derive_seed(m, *p, *q)`` for any nonempty ``q`` at the cost of hashing
  only ``q``'s text.
* Bit source: numpy's ``Philox`` (Philox4x64-10: four 64-bit counter words
  and two 64-bit key words) keyed by the low 128 bits of the derived value,
  low word first.  Counter-based generators have no sequential hidden state,
  so streams for different keys may be drawn in any order, in parallel, with
  identical results.
* Permutations: ``permutation(n, seed)`` is the generator's Fisher-Yates
  shuffle of ``range(n)``.  :class:`Shuffler` runs the same shuffle directly
  on a copy of the values, re-keying one generator per row through its
  ``state`` (counter 0, key ``[seed & (2**64 - 1), seed >> 64]``, empty
  buffer).  Fisher-Yates applies the same swaps whatever it is moving, so
  ``shuffle_into(out, values, seed)`` leaves ``out`` bit-identical to
  ``values[permutation(len(values), seed)]`` without building a generator
  or an index array per row.
* Normal variates: the Box-Muller transform of Philox uniforms, spelled out
  in :func:`standard_normal` rather than delegated to the generator's own
  normal method, so the exact stream is documented and portable.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

_KEY_BITS = (1 << 128) - 1
_WORD_BITS = (1 << 64) - 1


def _seed_text(parts: tuple) -> bytes:
    return ":".join(map(str, parts)).encode("utf-8")


def _seed_of(digest) -> int:
    return int.from_bytes(digest.digest()[:16], "big")


def derive_seed(master: int, *parts: object) -> int:
    """Derive a 128-bit child seed from a master seed and a label path."""
    return _seed_of(hashlib.sha256(_seed_text((int(master), *parts))))


def seed_family(master: int, *parts: object) -> Callable[..., int]:
    """Seeds below one label path: ``f(*more) == derive_seed(master, *parts, *more)``.

    The shared text ``"master:parts...:"`` is hashed once; each call copies
    that hash and adds only ``more`` (which must be nonempty).
    """
    head = hashlib.sha256(_seed_text((int(master), *parts, "")))

    def child(*more: object) -> int:
        digest = head.copy()
        digest.update(_seed_text(more))
        return _seed_of(digest)

    return child


def generator(seed: int) -> np.random.Generator:
    """Philox4x64-10 generator keyed by ``seed`` (low 128 bits used)."""
    return np.random.Generator(np.random.Philox(key=seed & _KEY_BITS))


def permutation(n: int, seed: int) -> np.ndarray:
    """Uniformly random permutation of range(n), determined by ``seed``."""
    return generator(seed).permutation(n)


class Shuffler:
    """Keyed in-place shuffles from one reusable Philox generator.

    Equivalent to :func:`permutation` row by row, but the generator is built
    once and re-keyed per call, which skips both the per-row construction
    (and the OS-entropy seeding it does before the key overrides it) and
    the index array.
    """

    def __init__(self) -> None:
        self._bits = np.random.Philox(key=0)
        self._generator = np.random.Generator(self._bits)
        # The state of a freshly keyed Philox: buffer_pos 4 of 4 means the
        # output buffer is empty, so the first draw starts at counter 0.
        # Only the key words change between calls; the state setter copies
        # them, so one dict serves every call.
        self._key = np.zeros(2, dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def shuffle_into(self, out: np.ndarray, values: np.ndarray, seed: int) -> None:
        """Write ``values[permutation(len(values), seed)]`` into the 1-D ``out``."""
        key = seed & _KEY_BITS
        self._key[0] = key & _WORD_BITS
        self._key[1] = key >> 64
        self._bits.state = self._state
        out[...] = values
        self._generator.shuffle(out)


def standard_normal(n: int, seed: int) -> np.ndarray:
    """n i.i.d. standard-normal draws via Box-Muller.

    Uniform pairs (u1, u2) from the keyed Philox stream map to

        r = sqrt(-2 ln(1 - u1))
        z = (r cos(2 pi u2), r sin(2 pi u2))

    using 1 - u1 (never zero, since u1 < 1) to keep the logarithm finite.
    Odd ``n`` drops the final sine draw.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    g = generator(seed)
    half = (n + 1) // 2
    u1 = g.random(half)
    u2 = g.random(half)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    z = np.empty(2 * half)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:n]
