"""The random output function ``f`` of PhaseAsyncLead.

Theorem 6.1 is proved *with high probability over a uniformly random*
``f : [n]^n × [m]^(n-l) → [n]``. A literal random function is an
exponentially large table, so we instantiate ``f`` as a keyed BLAKE2b hash
of the canonically-serialized input tuple, reduced modulo ``n`` — the
standard random-oracle instantiation. Documented substitution:

- everything in the paper interacts with ``f`` only by evaluating it and by
  its lack of exploitable algebraic structure; a keyed cryptographic hash
  preserves both;
- the E.4 attack specifically exploits the linearity of ``sum``; running it
  against both the ``sum`` variant and this ``f`` shows the contrast the
  paper draws;
- experiments can re-key ``f`` to sample the "probability over f" the
  theorem quantifies, via the ``key`` parameter.
"""

import hashlib
import math
from typing import Sequence

from repro.protocols.outcome import residue_to_id


def default_ell(n: int) -> int:
    """The paper's validation-suffix cut ``l = ⌈10√n⌉``, capped at ``n``.

    ``f`` reads validation values ``v_1..v_{n-l}``. The paper assumes n is
    large enough that ``l ≤ n/k``; for the small-to-moderate rings a
    simulation can afford, ``⌈10√n⌉`` may exceed ``n``, in which case we cap
    at ``n`` and ``f`` reads no validation values at all (the protocol still
    runs all validation rounds — only the output function's input shrinks).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return min(int(math.ceil(10 * math.sqrt(n))), n)


class RandomFunction:
    """Keyed instantiation of the paper's random function ``f``.

    Parameters
    ----------
    n:
        Ring size; the output is a processor id in ``{1..n}``.
    ell:
        The suffix cut ``l``; ``f`` consumes ``n - ell`` validation values.
        Defaults to :func:`default_ell`.
    key:
        Re-keying ``f`` samples a fresh function from the family, which is
        how experiments estimate "with high probability over f" claims.
    """

    def __init__(self, n: int, ell: int = None, key: int = 0):
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        self.n = n
        self.ell = default_ell(n) if ell is None else ell
        if not 0 <= self.ell <= n:
            raise ValueError(f"ell={self.ell} out of range [0, {n}]")
        self.key = key

    @property
    def num_validation_inputs(self) -> int:
        """How many validation values ``f`` reads (``n - l``)."""
        return self.n - self.ell

    def __call__(
        self, data_values: Sequence[int], validation_values: Sequence[int]
    ) -> int:
        """Evaluate ``f(d_1..d_n, v_1..v_{n-l})`` → elected id in ``{1..n}``.

        ``validation_values`` may be passed at full length ``n``; only the
        first ``n - l`` entries are consumed, mirroring the protocol where
        later validation values must not influence the output.
        """
        if len(data_values) != self.n:
            raise ValueError(
                f"expected {self.n} data values, got {len(data_values)}"
            )
        used_validations = list(validation_values[: self.num_validation_inputs])
        if len(used_validations) < self.num_validation_inputs:
            raise ValueError(
                f"expected at least {self.num_validation_inputs} validation "
                f"values, got {len(validation_values)}"
            )
        payload = "|".join(
            [
                f"k={self.key}",
                f"n={self.n}",
                f"l={self.ell}",
                "d=" + ",".join(str(int(d)) for d in data_values),
                "v=" + ",".join(str(int(v)) for v in used_validations),
            ]
        ).encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=16).digest()
        residue = int.from_bytes(digest, "big") % self.n
        return residue_to_id(residue, self.n)
