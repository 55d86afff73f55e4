"""Randomized deviations: searching for attacks the paper didn't write.

Theorem 5.1 proves no small coalition can bias A-LEADuni, but the
experiments so far only run the paper's *structured* attacks. The fuzzer
samples a space of unstructured deviations — per-receive behaviour drawn
from {forward, buffer, drop, inject-random, replay-history} with a
randomized final burst — and measures what they achieve. The resilience
claim predicts: every sampled deviation either triggers punishment
(``FAIL``) or leaves the outcome distribution effectively uniform;
:func:`deviation_search` quantifies exactly that.

This is *empirical support*, not proof — but it is the strongest kind of
evidence a reproduction can add beyond re-running the author's own
attacks, and it would catch a broken punishment mechanism instantly.
"""

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from repro.attacks.placement import RingPlacement
from repro.protocols.alead_uni import alead_uni_protocol
from repro.sim.execution import FAIL
from repro.sim.strategy import Context, Strategy
from repro.sim.topology import Topology
from repro.util.errors import ConfigurationError
from repro.util.modmath import canonical_mod

#: Per-receive actions the fuzzer samples from.
ACTIONS = ("forward", "buffer", "drop", "inject", "replay")


@dataclass(frozen=True)
class FuzzBehavior:
    """A sampled deviation: per-receive action weights + burst shape.

    ``weights`` orders :data:`ACTIONS`; ``burst_at`` is the receive count
    at which the adversary emits ``burst_len`` extra values (steering-
    style), drawn randomly; ``final_claim`` is the output it terminates
    with once its receive budget ``lifetime`` is spent.
    """

    seed: int
    weights: tuple
    burst_at: int
    burst_len: int
    lifetime: int

    @classmethod
    def sample(cls, n: int, rng: random.Random) -> "FuzzBehavior":
        return cls(
            seed=rng.randrange(2**31),
            weights=tuple(rng.random() + 0.05 for _ in ACTIONS),
            burst_at=rng.randrange(1, n + 1),
            burst_len=rng.randrange(0, 4),
            lifetime=n,
        )


class RandomDeviationStrategy(Strategy):
    """Executes a :class:`FuzzBehavior` on the A-LEADuni message plane."""

    def __init__(self, n: int, behavior: FuzzBehavior):
        self.n = n
        self.behavior = behavior
        self.rng = random.Random(behavior.seed)
        self.buffered: Optional[int] = None
        self.history: List[int] = []
        self.receives = 0

    def on_wakeup(self, ctx: Context) -> None:
        pass

    def on_receive(self, ctx: Context, value, sender) -> None:
        value = canonical_mod(int(value), self.n)
        self.history.append(value)
        self.receives += 1
        action = self.rng.choices(ACTIONS, weights=self.behavior.weights)[0]
        if action == "forward":
            ctx.send_next(value)
        elif action == "buffer":
            if self.buffered is not None:
                ctx.send_next(self.buffered)
            self.buffered = value
        elif action == "inject":
            ctx.send_next(self.rng.randrange(self.n))
        elif action == "replay":
            ctx.send_next(self.rng.choice(self.history))
        # "drop": send nothing.
        if self.receives == self.behavior.burst_at:
            for _ in range(self.behavior.burst_len):
                ctx.send_next(self.rng.randrange(self.n))
        if self.receives >= self.behavior.lifetime and not ctx.terminated:
            ctx.terminate(self.rng.randrange(1, self.n + 1))


def random_deviation_protocol(
    topology: Topology,
    placement: RingPlacement,
    behaviors: List[FuzzBehavior],
) -> Dict[Hashable, Strategy]:
    """Honest A-LEADuni + one sampled behaviour per coalition member."""
    n = len(topology)
    if len(behaviors) != placement.k:
        raise ConfigurationError("one behaviour per coalition member required")
    protocol = alead_uni_protocol(topology)
    for behavior, pid in zip(behaviors, placement.positions):
        protocol[pid] = RandomDeviationStrategy(n, behavior)
    return protocol


@dataclass
class DeviationSearchReport:
    """Aggregate of a fuzz campaign against A-LEADuni."""

    n: int
    k: int
    samples: int
    punished: int  # runs with outcome FAIL
    valid_outcomes: Dict[int, int]  # histogram of non-FAIL outcomes

    @property
    def punishment_rate(self) -> float:
        return self.punished / self.samples if self.samples else 0.0

    @property
    def max_outcome_rate(self) -> float:
        """Highest single-outcome frequency among *all* samples.

        A deviation family that biased the election would concentrate
        mass here; resilience predicts this stays near the uniform noise
        floor of the surviving runs.
        """
        if not self.valid_outcomes:
            return 0.0
        return max(self.valid_outcomes.values()) / self.samples


def deviation_search(
    n: int,
    k: int,
    samples: int,
    master_seed: int = 0,
    workers: int = 1,
    pool=None,
) -> DeviationSearchReport:
    """Sample ``samples`` random k-coalition deviations and score them.

    Each sample is one trial of the registered ``fuzz/random-deviation``
    scenario (:mod:`repro.testing.scenarios`): the coalition's behaviours
    are drawn from that trial's private stream, so sample ``i`` is a pure
    function of ``(master_seed, i)`` — reproducible at any ``workers``
    count, and campaigns parallelise over worker processes for free.
    Repeated searches (parameter scans, CI fuzz loops) can pass a shared
    ``pool`` so worker processes spawn once; trial outcomes come back as
    worker-side folded counters, never per-sample lists.
    """
    from repro.experiments.campaign import run_scenario

    result = run_scenario(
        "fuzz/random-deviation",
        samples,
        master_seed,
        {"n": n, "k": k},
        workers=workers,
        keep_outcomes=False,
        pool=pool,
    )
    histogram: Dict[int, int] = {
        outcome: count
        for outcome, count in result.distribution.counts.items()
        if outcome != FAIL
    }
    return DeviationSearchReport(
        n=n,
        k=k,
        samples=samples,
        punished=result.distribution.fail_count,
        valid_outcomes=histogram,
    )
