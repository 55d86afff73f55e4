"""Exact ``run_batch`` kernels for the executor-backed ring scenarios.

Every processor of a unidirectional ring has exactly one in-link and
reacts deterministically to the values arriving on it (its own secret
is drawn once, at wakeup). So the message sequence on each link, and
with it every output and the number of deliveries of a quiescent run,
does not depend on the order in which the scheduler interleaves the
links. The kernels below use that to fold a chunk of trials without
building a topology per trial, a strategy vector or an
:class:`~repro.sim.execution.Executor`:

- :func:`run_election_batch` folds every scenario whose honest run
  elects ``residue_to_id(sum of the n secrets)``, each secret being the
  first ``randrange(n)`` of that processor's ``proc:<pid>`` stream
  (Lemma 3.3: honest validation always passes). The catalogs register
  it, with each scenario's own step count, for ``honest/alead-uni``,
  ``honest/basic-lead``, ``honest/wakeup-alead``, ``cointoss/fle-coin``,
  ``blocks/fair-consensus``, ``blocks/fair-renaming``, ``sync/broadcast``
  and ``sync/ring``;
- ``attack/basic-cheat`` (Claim B.1), ``cointoss/biased-coin`` (the
  same cheat), ``attack/equal-spacing`` (Lemma 4.1 / Theorem 4.2) and
  ``attack/cubic`` (Theorem 4.3) force the target for *every* secret
  vector once their placement validates, so a chunk is
  ``{target: trials}`` with no randomness replayed;
- ``attack/random-location`` (Theorem C.1) draws each trial's placement
  and takes the closed form only where :func:`random_location_forces`
  proves the attack succeeds; every other trial runs through the
  executor inside the kernel, so the fold is exact by construction.

Every honest processor and every adversary in the ring scenarios sends
exactly ``n`` messages, so a run that elects costs ``n²`` deliveries
(:func:`ring_steps`). Kernels histogram raw outcomes (elected ids); the
runner re-keys them through the scenario's ``map_outcome``. They only
run where the runner's batch contract holds (folded path, no trace,
default step budget), and the ``2n²`` of the longest, the wake-up
composition, is far inside the executor's default ``40n² + 1000``.
"""

import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.attacks.placement import RingPlacement
from repro.attacks.random_location import recommended_probability
from repro.experiments.scenario import Params, ProtocolFactory, ring_topology
from repro.protocols.outcome import residue_to_id
from repro.sim.execution import run_protocol
from repro.util.errors import ConfigurationError
from repro.util.rng import RngRegistry, derive_seed, derive_seeds, reseed

#: What a kernel returns: ``(outcome -> count, steps total)``, or None.
Fold = Optional[Tuple[Dict[object, int], int]]


def _is_int(value) -> bool:
    """A plain int parameter (bools and floats go to the scalar path)."""
    return type(value) is int


def _secret_draws(
    seed: int, pids: Iterable[int], n: int, stream: random.Random
) -> List[int]:
    """Each processor's wakeup secret under the trial registry ``seed``:
    the first ``randrange(n)`` of its ``proc:<pid>`` stream.

    ``stream`` is re-seeded once per processor instead of building a
    ``random.Random`` each time, through the C call
    :data:`~repro.util.rng.reseed` that ``random.Random.seed`` ends in
    for an int seed (nothing here reads ``gauss_next``). The draw is
    ``randrange(n)``'s own ``getrandbits(n.bit_length())`` rejection
    loop, inlined, so the stream yields the same words in the same
    order. The n ``proc:<pid>`` seeds come from one primed hasher
    (:func:`~repro.util.rng.derive_seeds`). A processor costs about
    7 µs, nearly all of it the C seeding of the Mersenne Twister, and
    that is the floor: a numpy ``RandomState`` re-seed costs more than
    twice as much.
    """
    getrandbits = stream.getrandbits
    bits = n.bit_length()
    draws = []
    for proc_seed in derive_seeds(seed, "proc:", pids):
        reseed(stream, proc_seed)
        secret = getrandbits(bits)
        while secret >= n:
            secret = getrandbits(bits)
        draws.append(secret)
    return draws


def alead_leader(seed: int, n: int, stream: random.Random) -> int:
    """The id an honest A-LEADuni election on ``n`` processors elects
    from the trial registry ``seed``."""
    return residue_to_id(sum(_secret_draws(seed, range(1, n + 1), n, stream)) % n, n)


def fold_leaders(seeds: Sequence[int], n: int, steps_per_trial: int) -> Fold:
    """Fold a chunk of elections that each elect :func:`alead_leader`:
    every processor ``pid`` draws its secret as the first
    ``randrange(n)`` of its ``proc:<pid>`` stream and all elect
    ``residue_to_id(sum mod n)``, in ``steps_per_trial`` steps."""
    stream = random.Random(0)
    counts: Dict[object, int] = {}
    for seed in seeds:
        leader = alead_leader(seed, n, stream)
        counts[leader] = counts.get(leader, 0) + 1
    return counts, steps_per_trial * len(seeds)


def ring_steps(n: int) -> int:
    """Deliveries of an elected ring run: each of the ``n`` processors
    sends exactly ``n`` messages."""
    return n * n


def run_election_batch(
    steps: Callable[[int], int], seeds: Sequence[int], params: Params
) -> Fold:
    """Fold a chunk of honest elections that each elect
    :func:`alead_leader`, in ``steps(n)`` steps a trial. The histogram
    keys are elected ids; the runner applies the scenario's
    ``map_outcome``."""
    n = params["n"]
    if not _is_int(n) or n < 2:
        return None  # let the scalar path report the bad ring
    return fold_leaders(seeds, n, steps(n))


def run_forcing_batch(
    builder: ProtocolFactory, seeds: Sequence[int], params: Params
) -> Fold:
    """Fold a chunk of a placement-fixed forcing attack.

    The placement depends on the parameters alone, so the scenario's own
    ``builder`` runs once, to validate exactly as every scalar trial
    would. If it raises, the kernel declines and the scalar path raises
    the same error. Otherwise every trial elects the target.
    """
    n, target = params["n"], params["target"]
    if not (_is_int(n) and _is_int(target)):
        return None
    try:
        builder(ring_topology(params), params, random.Random(0))
    except ConfigurationError:
        return None
    counts = {target: len(seeds)} if seeds else {}
    return counts, ring_steps(n) * len(seeds)


def random_location_forces(
    placement: RingPlacement, window: int, seed: int, stream: random.Random
) -> bool:
    """Whether the Theorem C.1 coalition of ``placement`` certainly
    elects its target in the trial with registry ``seed``.

    Each adversary forwards until it sees its first ``window`` inputs
    again. Before any adversary bursts, every adversary receives the
    ``P = n - k`` honest secrets in reverse ring order, over and over.
    If the ``P`` cyclic ``window``-windows of that sequence are pairwise
    distinct, the first repeat is at input ``P + window``, so each
    adversary estimates ``k`` exactly. It then replays the last
    ``k - window - 1`` of its first ``P`` inputs. Those end with the
    secrets of the segment it heads whenever that segment is no longer.
    Every honest validation then passes and every sum is the target,
    as in Lemma 4.1. Window distinctness does not depend on the
    direction, so the secrets are checked in ring order; they are only
    drawn (on ``stream``) once the placement's shape qualifies.
    """
    k = placement.k
    honest = placement.n - k
    replay = k - window - 1
    if replay < 1 or honest < window or replay > honest:
        return False
    if max(placement.distances()) > replay:
        return False
    secrets = _secret_draws(seed, placement.honest(), placement.n, stream)
    cyclic = secrets + secrets[:window]
    windows = {tuple(cyclic[i : i + window]) for i in range(honest)}
    return len(windows) == honest


def _scalar_trial(
    builder: ProtocolFactory, params: Params, seed: int
) -> Tuple[object, int]:
    """One trial through the executor, wired exactly as the runner
    wires it (FIFO, default budget, no trace)."""
    registry = RngRegistry(seed)
    topology = ring_topology(params)
    protocol = builder(topology, params, registry.stream("scenario"))
    result = run_protocol(topology, protocol, rng=registry, record_trace=False)
    return result.outcome, result.steps


def run_random_location_batch(
    builder: ProtocolFactory, seeds: Sequence[int], params: Params
) -> Fold:
    """Fold a chunk of ``attack/random-location`` trials.

    Each trial draws its placement from its own ``scenario`` stream, as
    ``builder`` does. No placement means an honest A-LEADuni run. A
    placement that :func:`random_location_forces` certifies elects the
    target in ``n²`` deliveries. Any other trial runs through the
    executor. Parameters the scalar trial would reject, or could only
    read loosely (non-int sizes, a float window), are declined whole.
    """
    n, p = params["n"], params["p"]
    target, window = params["target"], params["window"]
    if not (_is_int(n) and n >= 2 and _is_int(target) and 1 <= target <= n):
        return None
    if not (_is_int(window) and window >= 1):
        return None
    if p is None:
        p = recommended_probability(n)
    elif type(p) not in (int, float) or not 0 <= p <= 1:
        return None
    stream = random.Random(0)
    counts: Dict[object, int] = {}
    steps_total = 0
    for seed in seeds:
        stream.seed(derive_seed(seed, "scenario"))
        placement = RingPlacement.random_locations(n, p, stream)
        if placement is None:
            outcome, steps = alead_leader(seed, n, stream), n * n
        elif random_location_forces(placement, window, seed, stream):
            outcome, steps = target, n * n
        else:
            outcome, steps = _scalar_trial(builder, params, seed)
        counts[outcome] = counts.get(outcome, 0) + 1
        steps_total += steps
    return counts, steps_total
