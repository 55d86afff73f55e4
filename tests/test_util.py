"""Unit tests for repro.util: modmath, rng, errors."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.experiments.runner import trial_registry, trial_seeds
from repro.util.errors import ConfigurationError, ProtocolViolation, ReproError
from repro.util.modmath import canonical_mod, mod_sub, mod_sum
from repro.util.rng import RngRegistry, derive_seed, derive_seeds, reseed


class TestModMath:
    def test_canonical_mod_positive(self):
        assert canonical_mod(7, 5) == 2

    def test_canonical_mod_negative(self):
        assert canonical_mod(-3, 5) == 2

    def test_canonical_mod_zero_value(self):
        assert canonical_mod(0, 5) == 0

    def test_canonical_mod_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            canonical_mod(1, 0)
        with pytest.raises(ValueError):
            canonical_mod(1, -5)

    def test_mod_sum(self):
        assert mod_sum([1, 2, 3], 5) == 1

    def test_mod_sum_empty(self):
        assert mod_sum([], 7) == 0

    def test_mod_sub(self):
        assert mod_sub(2, 4, 5) == 3

    @given(
        st.lists(st.integers(-1000, 1000)),
        st.integers(1, 97),
    )
    def test_mod_sum_matches_builtin(self, values, modulus):
        assert mod_sum(values, modulus) == sum(values) % modulus

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
    def test_canonical_mod_in_range(self, value, modulus):
        r = canonical_mod(value, modulus)
        assert 0 <= r < modulus
        assert (r - value) % modulus == 0


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_derive_seed_label_sensitive(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_derive_seed_seed_sensitive(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_stream_identity(self):
        reg = RngRegistry(7)
        assert reg.stream("x") is reg.stream("x")

    def test_stream_reproducible_across_registries(self):
        a = RngRegistry(7).stream("p").random()
        b = RngRegistry(7).stream("p").random()
        assert a == b

    def test_streams_independent(self):
        reg = RngRegistry(7)
        seq_x = [reg.stream("x").randrange(100) for _ in range(5)]
        reg2 = RngRegistry(7)
        _ = [reg2.stream("y").randrange(100) for _ in range(50)]
        seq_x2 = [reg2.stream("x").randrange(100) for _ in range(5)]
        assert seq_x == seq_x2

    def test_spawn_differs_from_parent(self):
        reg = RngRegistry(7)
        child = reg.spawn("c")
        assert child.seed != reg.seed

    def test_spawn_deterministic(self):
        assert RngRegistry(7).spawn("c").seed == RngRegistry(7).spawn("c").seed

    def test_none_seed_draws_fresh(self):
        reg = RngRegistry()
        assert isinstance(reg.seed, int)


_BASES = [0, 1, 2**63 - 1] + [
    random.Random("derive-seeds:bases").randrange(2**63) for _ in range(50)
]


def _suffix_sets():
    rng = random.Random("derive-seeds:suffixes")
    shuffled = list(range(64))
    rng.shuffle(shuffled)
    return {
        "contiguous": range(64),
        "shuffled": shuffled,
        "non-contiguous": sorted(rng.sample(range(10**6), 40)),
        "empty": [],
    }


class TestDeriveSeeds:
    @pytest.mark.parametrize("prefix", ["spawn:", "proc:", "spawn:coin-round:"])
    @pytest.mark.parametrize("shape", sorted(_suffix_sets()))
    def test_bit_identical_to_derive_seed(self, prefix, shape):
        suffixes = _suffix_sets()[shape]
        for base in _BASES:
            assert list(derive_seeds(base, prefix, suffixes)) == [
                derive_seed(base, prefix + str(s)) for s in suffixes
            ]

    @pytest.mark.parametrize("shape", sorted(_suffix_sets()))
    def test_trial_seeds_are_the_trial_registry_seeds(self, shape):
        indices = tuple(_suffix_sets()[shape])
        for base in _BASES[:5]:
            seeds = trial_seeds(base, indices)
            expected = [trial_registry(base, i).seed for i in indices]
            assert len(seeds) == len(indices)
            assert list(seeds) == expected
            assert [seeds[p] for p in range(len(indices))] == expected
            if indices:
                assert seeds[-1] == expected[-1]
                assert list(seeds[1:]) == expected[1:]

    def test_trial_seeds_unpack_one(self):
        (seed,) = trial_seeds(2**63 - 1, [17])
        assert seed == trial_registry(2**63 - 1, 17).seed

    def test_trial_seeds_index_out_of_range(self):
        with pytest.raises(IndexError):
            trial_seeds(1, [3, 4])[2]


def _rejection_draw(getrandbits, m: int) -> int:
    """The draw the stream-exact kernels inline for ``randrange(m)``."""
    bits = m.bit_length()
    r = getrandbits(bits)
    while r >= m:
        r = getrandbits(bits)
    return r


class TestCPythonDrawAssumption:
    """The kernels in ``ring_kernels`` and ``fullinfo.scenarios`` rest on
    two CPython details; a CPython that changes either fails here rather
    than in the golden rows."""

    BOUNDS = sorted(
        set(range(1, 1101))
        | {2**j + d for j in range(21) for d in (-1, 0, 1) if 2**j + d >= 1}
    )

    @pytest.mark.parametrize("seed", range(20))
    def test_randrange_is_the_getrandbits_rejection_loop(self, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        for m in self.BOUNDS:
            assert _rejection_draw(ours.getrandbits, m) == theirs.randrange(m), m
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("value", [0, 1, 7, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
    def test_c_reseed_is_stream_seed(self, value):
        ours, theirs = random.Random(99), random.Random(99)
        ours.random(), theirs.random()
        reseed(ours, value)
        theirs.seed(value)
        assert ours.getstate()[1] == theirs.getstate()[1]
        assert [ours.getrandbits(32) for _ in range(700)] == [
            theirs.getrandbits(32) for _ in range(700)
        ]


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ConfigurationError, ReproError)
        assert issubclass(ProtocolViolation, ReproError)
