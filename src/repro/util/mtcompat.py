"""CPython-faithful Mersenne-Twister streams for vectorized kernels.

Batch kernels (see :attr:`repro.experiments.scenario.ScenarioSpec.run_batch`)
must reproduce the scalar path's randomness *bit for bit*: trial ``i`` of an
experiment always draws from ``random.Random`` streams derived by
:func:`repro.util.rng.derive_seed`, and a kernel that vectorizes the trial
must consume exactly the same underlying MT19937 output.

``numpy.random.RandomState`` runs the same generator, and for multi-word
seeds both libraries initialise it with the same ``init_by_array`` routine
over the seed's little-endian 32-bit words — so
``RandomState(words(seed)).random_sample(m)`` is bit-identical to ``m``
calls of ``random.Random(seed).random()``. The one divergence is a seed
that fits in a single 32-bit word: CPython still uses ``init_by_array``
on the 1-word key while numpy falls back to ``init_genrand``, and the
streams differ. :func:`mt_random_state` therefore returns ``None`` for
seeds below ``2**32`` and callers fall back to ``random.Random`` for that
trial — a ~``2**-32`` event under BLAKE2b-derived 64-bit seeds, so the
vectorized path covers essentially every trial while staying exact for
all of them.

numpy is imported on first use (:func:`numpy_module`), not with this
module: most processes that import the experiment catalog never run a
numpy kernel, and the import costs about as much as the rest of the
package together.
"""

import importlib.util
from typing import Optional

#: Whether vectorized kernels can run at all on this interpreter
#: (found without importing numpy).
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

_UNLOADED = object()
#: numpy once :func:`numpy_module` has run, ``None`` when it is absent,
#: ``_UNLOADED`` before the first call.
_np = _UNLOADED


def numpy_module():
    """numpy, imported on the first call, or ``None`` without it."""
    global _np
    if _np is _UNLOADED:
        try:  # gate: environments without numpy keep the scalar path working
            import numpy
        except ImportError:  # pragma: no cover - the CI image ships numpy
            numpy = None
        _np = numpy
    return _np


def mt_key_words(seed: int):
    """The seed's little-endian 32-bit words — CPython's init_by_array key."""
    if seed == 0:
        return [0]
    words = []
    s = seed
    while s:
        words.append(s & 0xFFFFFFFF)
        s >>= 32
    return words


def mt_random_state(
    seed: int, into: Optional["numpy.random.RandomState"] = None
) -> Optional["numpy.random.RandomState"]:
    """A ``RandomState`` bit-identical to ``random.Random(seed)``, or None.

    ``None`` means "no exact vectorized stream exists here" — numpy is
    absent, or the seed fits one 32-bit word (where numpy's scalar-seed
    path diverges from CPython's). Callers must then fall back to
    ``random.Random(seed)`` for that stream; both paths produce the same
    doubles whenever this function does return a state.

    ``into`` re-seeds an existing state in place instead of constructing
    a fresh one (and returns it): ``RandomState`` construction costs
    ~6x a re-seed, so per-trial loops should allocate one state and pass
    it back in. ``into`` is untouched when this returns ``None``.
    """
    np = numpy_module()
    if np is None or seed < 2**32:
        return None
    key = np.array(mt_key_words(seed), dtype=np.int64)
    if into is None:
        return np.random.RandomState(key)
    into.seed(key)
    return into
