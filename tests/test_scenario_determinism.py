"""Registry-wide determinism: the engine's core contract, per scenario.

The experiment engine promises that the rows an experiment produces are
a pure function of ``(scenario, params, trials, base_seed)`` — the
worker count, chunking, and process boundaries must never show. PR 1
asserted this for one ring scenario; with the registry now spanning
every subsystem (sync engine, tree games, coin-toss reductions,
full-information games, building blocks, fuzzer, placements),
this suite holds *every* registered name to the contract.

A spec that closes over process-local state — a module-level
``random.Random``, an unseeded cache, behaviour sampled outside the
trial's private registry — produces different rows under ``workers=4``
(real subprocesses) than under ``workers=1`` and fails here by name.
"""

import json

import pytest

from repro.experiments import run_one_trial, run_scenario, scenario_names
from repro.experiments.scenario import get_scenario

#: Per-scenario parameter shrinkage so the sweep stays test-suite fast.
#: Determinism must hold at *any* parameters, so probing small ones is
#: as binding as the defaults.
SMALL_PARAMS = {
    "attack/random-location": {"n": 64},
    "attack/cubic": {"n": 34, "k": 4},
    "attack/basic-cheat": {"n": 16},
    "attack/equal-spacing": {"n": 25},
    "attack/partial-sum": {"n": 24},
    "attack/phase-rushing": {"n": 25},
    "honest/basic-lead": {"n": 8},
    "honest/alead-uni": {"n": 8},
    "honest/phase-async": {"n": 8},
    "honest/wakeup-alead": {"n": 8},
    "fullinfo/baton": {"n": 16, "k": 3},
    "fuzz/random-deviation": {"n": 16, "k": 2},
    "placement/random-segments": {"n": 64},
    "tree/clique-caterpillar": {"blocks": 2},
}

TRIALS = 8
BASE_SEED = 7


def _row(name, **layout):
    result = run_scenario(
        name, trials=TRIALS, base_seed=BASE_SEED,
        params=SMALL_PARAMS.get(name), **layout,
    )
    return result.to_row(), [
        (t.index, t.outcome, t.steps, t.success) for t in result.outcomes
    ]


@pytest.mark.parametrize("name", scenario_names())
def test_rows_identical_across_worker_counts(name):
    """workers=1 and workers=4 (real processes) must agree exactly."""
    serial_row, serial_outcomes = _row(name, workers=1)
    parallel_row, parallel_outcomes = _row(name, workers=4)
    assert serial_row == parallel_row
    assert serial_outcomes == parallel_outcomes
    # Rows must be JSON-stable too: the sweep command streams them.
    assert json.loads(json.dumps(serial_row, sort_keys=True)) == serial_row


@pytest.mark.parametrize("name", scenario_names())
def test_trial_is_pure_in_base_seed_and_index(name):
    """Re-running one trial reproduces it; the worker layout cannot leak
    in because there is none at this level."""
    spec = get_scenario(name)
    params = spec.resolve_params(SMALL_PARAMS.get(name))
    first = run_one_trial(spec, params, base_seed=3, index=5)
    again = run_one_trial(spec, params, base_seed=3, index=5)
    assert first == again


def test_chunk_size_never_changes_rows():
    """Chunking is pure scheduling — spot-check on a randomised spec."""
    name = "fuzz/random-deviation"
    a, _ = _row(name, workers=2, chunk_size=1)
    b, _ = _row(name, workers=2, chunk_size=7)
    assert a == b
