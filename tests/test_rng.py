"""The seeded generator contract: documented construction, frozen anchors.

The anchors pin the exact streams so a refactor that silently changes them
(and with them every reported score) fails loudly.
"""

import hashlib

import numpy as np
import pytest

from sigarea.rng import (
    Shuffler,
    derive_seed,
    generator,
    permutation,
    seed_family,
    standard_normal,
)


def test_derive_seed_matches_documented_construction():
    # Independent recomputation: text "master:part:..." -> SHA-256 -> first
    # 16 bytes big-endian.
    def oracle(master, *parts):
        text = ":".join([str(master)] + [str(p) for p in parts])
        return int.from_bytes(
            hashlib.sha256(text.encode("utf-8")).digest()[:16], "big"
        )

    assert derive_seed(0, "noise") == oracle(0, "noise")
    assert derive_seed(7, "pair", "X", "Y") == oracle(7, "pair", "X", "Y")
    assert derive_seed(2**80, "shuffle", 3, 1) == oracle(2**80, "shuffle", 3, 1)


def test_derive_seed_frozen_values():
    assert derive_seed(0, "noise") == 146528731532662522952804516954956153991
    assert derive_seed(7, "pair", "X", "Y") == 106672477891678664717727913373906057263


def test_derive_seed_distinct_paths_differ():
    seen = {
        derive_seed(0, "noise"),
        derive_seed(0, "pair"),
        derive_seed(1, "noise"),
        derive_seed(0, "noise", 0),
        derive_seed(0),
    }
    assert len(seen) == 5


def test_generator_uniform_frozen_values():
    got = generator(12345).random(3)
    want = [0.6463801884227345, 0.7742675977164786, 0.7864362639285933]
    assert np.allclose(got, want, rtol=0, atol=0)


def test_permutation_frozen_and_valid():
    assert list(permutation(5, 42)) == [2, 0, 1, 4, 3]
    p = permutation(100, 7)
    assert sorted(p) == list(range(100))
    assert np.array_equal(p, permutation(100, 7))


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 10001])
def test_shuffler_matches_permutation_gather(n):
    # One Shuffler re-keyed per call must reproduce values[permutation(n, s)]
    # for every seed in turn, including seeds past 128 bits, which both
    # constructions mask to their low 128 bits.
    values = np.linspace(-1.0, 1.0, n) ** 3
    shuffler = Shuffler()
    out = np.empty(n)
    seeds = [0, 42, derive_seed(5, "shuffle", n, 0), 2**64 - 1, 2**64, 2**128 + 42, 2**200 + 7]
    for seed in seeds:
        shuffler.shuffle_into(out, values, seed)
        assert np.array_equal(out, values[permutation(n, seed)])
    shuffler.shuffle_into(out, values, 2**128 + 42)
    assert np.array_equal(out, values[permutation(n, 42)])


@pytest.mark.parametrize("master", [0, 7, -3, -(2**70), 2**128 + 5, 2**200 + 7])
def test_seed_family_matches_derive_seed(master):
    # k = 0..1000 crosses the 1-, 2- and 3-digit (and one 4-digit) renderings
    # of the row index that null_ensemble hashes after the shared prefix.
    row_seed = seed_family(master, "shuffle")
    for k in range(1001):
        for s in (0, 1):
            assert row_seed(k, s) == derive_seed(master, "shuffle", k, s)
    assert seed_family(master)("noise") == derive_seed(master, "noise")
    assert seed_family(master, "pair", "X")("Y") == derive_seed(master, "pair", "X", "Y")


def test_shuffler_rekeys_in_place_across_row_seeds():
    # The key words live in one array that every call overwrites; each row
    # must still be the gather by its own seed's permutation, including keys
    # whose words have the top bit set and negative seeds (masked to 128 bits).
    values = np.linspace(-1.0, 1.0, 37) ** 3
    row_seed = seed_family(11, "shuffle")
    seeds = [row_seed(k, s) for k in range(100) for s in (0, 1)]
    seeds += [2**63, 2**127 + 2**63, -1, -(2**64) + 3, 0]
    assert any(seed & (2**63) for seed in seeds) and any(seed >> 127 for seed in seeds)
    shuffler = Shuffler()
    block = np.empty((len(seeds), values.size))
    for row, seed in zip(block, seeds):
        shuffler.shuffle_into(row, values, seed)
    for row, seed in zip(block, seeds):
        assert np.array_equal(row, values[permutation(values.size, seed)])


def test_standard_normal_matches_box_muller_recomputation():
    # Same uniforms through an explicit Box-Muller, written independently.
    seed = 7
    n = 9
    g = generator(seed)
    half = (n + 1) // 2
    u1 = g.random(half)
    u2 = g.random(half)
    r = np.sqrt(-2.0 * np.log(1.0 - u1))
    want = np.empty(2 * half)
    want[0::2] = r * np.cos(2.0 * np.pi * u2)
    want[1::2] = r * np.sin(2.0 * np.pi * u2)
    got = standard_normal(n, seed)
    assert got.shape == (n,)
    assert np.allclose(got, want[:n], rtol=0, atol=1e-15)


def test_standard_normal_frozen_values():
    got = standard_normal(4, 7)
    want = [
        -1.7777090465697407,
        0.9758835160444307,
        -0.693217299119905,
        0.46861662426817696,
    ]
    assert np.allclose(got, want, rtol=0, atol=0)


def test_standard_normal_moments_and_whiteness():
    v = standard_normal(100000, 424242)
    assert -0.02 < v.mean() < 0.02
    assert 0.98 < v.var(ddof=1) < 1.02
    lag1 = float(np.corrcoef(v[:-1], v[1:])[0, 1])
    assert -0.01 < lag1 < 0.01


def test_streams_are_order_independent():
    # Counter-based keying: drawing stream A before or after stream B must
    # not change either stream.
    a_first = generator(derive_seed(3, "a")).random(5)
    b_first = generator(derive_seed(3, "b")).random(5)
    b_again = generator(derive_seed(3, "b")).random(5)
    a_again = generator(derive_seed(3, "a")).random(5)
    assert np.array_equal(a_first, a_again)
    assert np.array_equal(b_first, b_again)
