"""util/mtcompat: the CPython↔numpy MT19937 bridge, fallbacks included.

The vectorized batch kernels stand on :func:`mt_random_state` returning
either a *bit-identical* stream or ``None`` (never "close enough"), so
the fallback branches — a seed that fits one 32-bit word, and an
interpreter without numpy — get exercised here explicitly: in the
numpy-equipped CI image they otherwise only run by accident.
"""

import os
import random
import subprocess
import sys

import pytest

import repro
from repro.util import mtcompat
from repro.util.mtcompat import HAVE_NUMPY, mt_key_words, mt_random_state

BIG_SEED = (123 << 64) | (456 << 32) | 789  # three 32-bit words


class TestKeyWords:
    def test_zero_is_the_single_zero_word(self):
        assert mt_key_words(0) == [0]

    def test_words_are_little_endian_32_bit(self):
        assert mt_key_words(BIG_SEED) == [789, 456, 123]
        assert mt_key_words(2**32) == [0, 1]
        assert mt_key_words(2**32 - 1) == [0xFFFFFFFF]

    @pytest.mark.parametrize("seed", [1, 2**31, 2**32 + 7, BIG_SEED])
    def test_round_trips_back_to_the_seed(self, seed):
        words = mt_key_words(seed)
        assert sum(w << (32 * i) for i, w in enumerate(words)) == seed


class TestOneWordSeedFallback:
    """Seeds below 2**32: numpy's scalar-seed path (init_genrand)
    diverges from CPython's init_by_array, so no state is offered —
    with or without numpy present."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1])
    def test_returns_none(self, seed):
        assert mt_random_state(seed) is None

    def test_into_is_untouched_on_the_fallback(self):
        if not HAVE_NUMPY:
            pytest.skip("needs numpy to build the reusable state")
        import numpy as np

        state = np.random.RandomState(0)
        before = state.get_state()[1].tolist()
        assert mt_random_state(7, into=state) is None
        assert state.get_state()[1].tolist() == before

    def test_boundary_seed_gets_a_state(self):
        if not HAVE_NUMPY:
            pytest.skip("needs numpy")
        assert mt_random_state(2**32) is not None


class TestNoNumpyFallback:
    """The no-numpy branch: every call answers None and the callers'
    scalar path carries the whole load."""

    def test_returns_none_for_every_seed(self, monkeypatch):
        monkeypatch.setattr(mtcompat, "_np", None)
        assert mt_random_state(BIG_SEED) is None
        assert mt_random_state(2**32) is None
        assert mt_random_state(1) is None

    def test_into_is_untouched_without_numpy(self, monkeypatch):
        if not HAVE_NUMPY:
            pytest.skip("needs numpy to build the reusable state")
        import numpy as np

        state = np.random.RandomState(3)
        before = state.get_state()[1].tolist()
        monkeypatch.setattr(mtcompat, "_np", None)
        assert mt_random_state(BIG_SEED, into=state) is None
        assert state.get_state()[1].tolist() == before

    def test_key_words_need_no_numpy(self, monkeypatch):
        monkeypatch.setattr(mtcompat, "_np", None)
        assert mt_key_words(BIG_SEED) == [789, 456, 123]


def test_importing_the_catalog_leaves_numpy_unloaded():
    """numpy loads on the first numpy kernel, not on import: CLI, node
    and worker start-up do not pay for it."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, repro.experiments; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
class TestBitIdentity:
    def test_stream_matches_cpython_random(self):
        rng = random.Random(BIG_SEED)
        state = mt_random_state(BIG_SEED)
        assert state.random_sample(64).tolist() == [
            rng.random() for _ in range(64)
        ]

    def test_into_reseeds_in_place_identically(self):
        fresh = mt_random_state(BIG_SEED)
        reused = mt_random_state(2**32)  # arbitrary pre-used state
        reused.random_sample(8)  # advance it so the reseed must matter
        assert mt_random_state(BIG_SEED, into=reused) is reused
        assert reused.random_sample(16).tolist() == (
            fresh.random_sample(16).tolist()
        )
