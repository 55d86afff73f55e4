"""E13 (engineering): the experiment engine's zero-trace fast path.

Not a paper claim — a systems regression gate for the Monte-Carlo
engine. The seed code estimated every distribution with a serial loop
that recorded a full event ``Trace`` per trial and then read only the
outcome; the experiment runner executes the same trials with trace
recording off. This bench asserts the two agree outcome-for-outcome and
benchmarks the fast path (``BENCH_experiment_engine.json`` keeps the
historical wall-clock comparison; ``perfbench/`` is the benchmark
today).
"""

import pytest

from repro import run_protocol, unidirectional_ring
from repro.attacks import basic_cheat_protocol
from repro.experiments import run_scenario
from repro.util.rng import RngRegistry

N = 64
TRIALS = 60
TARGET = 40


def seed_style_traced_loop(trials: int):
    """The pre-engine idiom: serial run_protocol with full tracing."""
    ring = unidirectional_ring(N)
    outcomes = []
    for t in range(trials):
        result = run_protocol(
            ring,
            basic_cheat_protocol(ring, 2, TARGET),
            rng=RngRegistry(0).spawn(str(t)),
        )
        outcomes.append(result.outcome)
    return outcomes


@pytest.mark.smoke
def test_e13_fast_path_agrees_and_benchmarks(benchmark, experiment_report):
    traced = seed_style_traced_loop(TRIALS)

    def fast_path():
        result = run_scenario(
            "attack/basic-cheat",
            trials=TRIALS,
            base_seed=0,
            params={"n": N, "target": TARGET},
        )
        return [t.outcome for t in result.outcomes]

    fast = benchmark(fast_path)
    assert fast == traced  # same trials, same seeds, same outcomes
    experiment_report(
        "E13 zero-trace engine fast path",
        [
            f"n={N} trials={TRIALS}: trace-off outcomes == seed-style "
            f"traced outcomes ({fast.count(TARGET)}/{TRIALS} forced)"
        ],
    )
