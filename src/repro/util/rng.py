"""Deterministic randomness management.

Every source of randomness in the library flows through a single
:class:`RngRegistry` so that executions are exactly reproducible from one
integer seed. Each processor (and the scheduler) receives an independent
``random.Random`` stream derived from the registry seed and a stable label,
mirroring the paper's model where each processor owns an infinite private
random string.
"""

import hashlib
import random
from _random import Random as _CRandom
from typing import Dict, Iterable, Iterator, Optional

#: ``reseed(stream, seed)`` re-seeds a ``random.Random`` from an int
#: exactly as ``stream.seed(seed)`` does: ``random.Random.seed`` checks
#: the seed's type, makes this C call and resets ``gauss_next``. Kernels
#: that re-seed one private stream per trial or per processor, and never
#: draw ``gauss``, call it directly to skip the Python layer.
reseed = _CRandom.seed


def derive_seed(base_seed: int, label: str) -> int:
    """Derive a child seed from ``base_seed`` and a stable string label.

    Uses BLAKE2b so distinct labels give statistically independent streams
    and the derivation is stable across Python versions (unlike ``hash``).
    """
    digest = hashlib.blake2b(
        f"{base_seed}:{label}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def derive_seeds(base_seed: int, prefix: str, suffixes: Iterable) -> Iterator[int]:
    """Yield ``derive_seed(base_seed, prefix + str(s))`` for each suffix.

    The hash of the shared ``f"{base_seed}:{prefix}"`` is computed once;
    each seed copies that primed hasher and feeds it only ``str(s)``,
    which BLAKE2b's streaming interface makes bit-identical to hashing
    the whole label and about twice as fast per seed.
    """
    primed = hashlib.blake2b(f"{base_seed}:{prefix}".encode("utf-8"), digest_size=8)
    copy, from_bytes = primed.copy, int.from_bytes
    for suffix in suffixes:
        hasher = copy()
        hasher.update(str(suffix).encode("utf-8"))
        yield from_bytes(hasher.digest(), "big")


class RngRegistry:
    """Factory for named, reproducible ``random.Random`` streams.

    Parameters
    ----------
    seed:
        Master seed. ``None`` draws a fresh random seed (non-reproducible,
        but the drawn value is kept in ``.seed`` so it can be reported).
    """

    def __init__(self, seed: Optional[int] = None):
        if seed is None:
            # repro-lint: allow[R102] explicit seed=None opt-in: non-reproducible by contract, and the drawn seed is recorded on .seed
            seed = random.SystemRandom().randrange(2**63)
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, label: str) -> random.Random:
        """Return the stream for ``label``, creating it on first use.

        Repeated calls with the same label return the *same* stream object,
        so consuming from it advances shared state — exactly what a
        processor's private random string should do.
        """
        if label not in self._streams:
            self._streams[label] = random.Random(derive_seed(self.seed, label))
        return self._streams[label]

    def spawn(self, label: str) -> "RngRegistry":
        """Return a child registry with an independent derived master seed."""
        return RngRegistry(derive_seed(self.seed, f"spawn:{label}"))
