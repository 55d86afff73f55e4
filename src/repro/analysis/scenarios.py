"""Scenario specs behind the analysis tooling (Figure 1).

``placement/random-segments`` turns the Figure-1c measurement into a
Monte-Carlo scenario: each trial draws an i.i.d. placement from the
trial's private stream and reports the longest honest segment; success
means the maximum stayed under the Theorem C.1 logarithmic envelope.

The Conjecture 4.7 frontier scan (:mod:`repro.analysis.frontier`) needs
no scenario of its own: it asks the :class:`RingPlacement` rules the
registered ``attack/cubic`` and ``attack/equal-spacing`` builders check
whether they accept a coalition size.

Registered here (imported for effect by
:mod:`repro.experiments.catalog`).
"""

import math
import random
from typing import Dict, Optional, Sequence, Tuple

from repro.attacks.placement import RingPlacement
from repro.attacks.random_location import recommended_probability
from repro.analysis.segments import segment_statistics
from repro.experiments.scenario import (
    Params,
    ScenarioSpec,
    no_valid_ids,
    register_scenario,
)
from repro.util.rng import derive_seed


def segment_probability(params: Params) -> float:
    """The placement density: explicit ``p`` or the Thm C.1 half-rate."""
    p = params["p"]
    return p if p is not None else recommended_probability(params["n"]) / 2


def run_random_segments_trial(
    params: Params, registry, max_steps: Optional[int]
) -> Tuple[object, int]:
    """Draw one i.i.d. placement; outcome = longest honest segment."""
    n = params["n"]
    placement = RingPlacement.random_locations(
        n, segment_probability(params), registry.stream("scenario")
    )
    if placement is None:
        return 0, 0  # empty coalition: no segments to expose
    return segment_statistics(placement).max_length, 0


def within_envelope(outcome, params: Params) -> bool:
    """Success predicate: max segment under the ln(n)/p envelope."""
    return outcome <= math.log(params["n"]) / segment_probability(params)


# ----------------------------------------------------------------------
# Batch kernel
# ----------------------------------------------------------------------


def run_random_segments_batch(
    seeds: Sequence[int], params: Params
) -> Optional[Tuple[Dict[object, int], int]]:
    """Fold a chunk of ``placement/random-segments`` trials.

    Each trial re-seeds one shared ``random.Random`` with the seed its
    ``scenario`` stream would get (a re-seed costs well under building
    a generator) and draws exactly what
    :meth:`RingPlacement.random_locations` draws: one ``random()`` per
    pid ``2..n``, kept where ``< p``. The outcome is the longest honest
    segment, as :meth:`RingPlacement.distances` measures it: the largest
    gap between consecutive positions, the wrap-around through the
    origin included, minus one; 0 when fewer than two were kept.
    """
    n = params["n"]
    p = segment_probability(params)
    if n < 2 or not 0 <= p <= 1:
        return None  # degenerate draws / invalid p: scalar path decides
    counts: Dict[object, int] = {}
    rng = random.Random()
    draw = rng.random
    pids = range(2, n + 1)
    for seed in seeds:
        rng.seed(derive_seed(seed, "scenario"))
        positions = [pid for pid in pids if draw() < p]
        longest = 0
        if len(positions) >= 2:
            prev = positions[-1] - n  # the wrap-around gap ends at the first
            for pid in positions:
                if pid - prev > longest:
                    longest = pid - prev
                prev = pid
            longest -= 1
        counts[longest] = counts.get(longest, 0) + 1
    return counts, 0


register_scenario(
    ScenarioSpec(
        name="placement/random-segments",
        description="Figure 1c: longest honest segment of an i.i.d. placement",
        run_trial=run_random_segments_trial,
        run_batch=run_random_segments_batch,
        outcome_size=no_valid_ids,  # outcomes are segment lengths, not ids
        defaults={"n": 256, "p": None},
        success=within_envelope,
        tags=("placement",),
    )
)
