"""Fair (order-preserving) renaming on the ring (Afek et al. [5]).

Renaming assigns each processor a distinct new name in ``[n]`` such that
no coalition can bias who gets which name. The construction: elect a
uniform *origin of names* with the A-LEADuni rule, then name processors
by ring distance from it — the elected position gets name 1, its
successor 2, and so on. A uniform rotation makes every processor's new
name uniform over ``[n]`` while preserving ring order.

Every processor terminates with the *full assignment* (the same tuple
everywhere, so the unanimity outcome convention applies); use
:func:`my_name` to read a processor's own name out of the output.
"""

from typing import Dict, Hashable, List, Tuple

from repro.blocks.knowledge import KnowledgeSharingStrategy
from repro.protocols.outcome import residue_to_id
from repro.sim.strategy import Context, Strategy
from repro.sim.topology import Topology
from repro.util.errors import ConfigurationError
from repro.util.modmath import mod_sum

Assignment = Tuple[Tuple[int, int], ...]


class FairRenamingStrategy(KnowledgeSharingStrategy):
    """Knowledge sharing specialized to fair renaming."""

    __slots__ = ()

    def __init__(self, pid: int, n: int):
        super().__init__(
            pid,
            n,
            payload_fn=lambda ctx: ctx.rng.randrange(n),
            finish_fn=self._finish,
        )

    def _finish(self, values: List[int], ctx: Context) -> None:
        residues = [int(v) % self.n for v in values]
        leader = residue_to_id(mod_sum(residues, self.n), self.n)
        ctx.terminate(names_from_origin(leader, self.n))


def names_from_origin(leader: int, n: int) -> Assignment:
    """The renaming with origin ``leader``: every position's new name is
    its ring distance from ``leader``, plus one."""
    return tuple((pos, (pos - leader) % n + 1) for pos in range(1, n + 1))


def my_name(assignment: Assignment, pid: int) -> int:
    """Read processor ``pid``'s new name from a renaming output."""
    mapping = dict(assignment)
    if pid not in mapping:
        raise ConfigurationError(f"pid {pid} not in assignment")
    return mapping[pid]


def fair_renaming_protocol(topology: Topology) -> Dict[Hashable, Strategy]:
    """Fair-renaming strategy vector for a unidirectional ring 1..n."""
    n = len(topology)
    if set(topology.nodes) != set(range(1, n + 1)):
        raise ConfigurationError("fair renaming requires node ids 1..n")
    return {pid: FairRenamingStrategy(pid, n) for pid in topology.nodes}
