"""The facts the ring-family batch kernels stand on.

``tests/test_batch_kernels.py`` pins every kernel's fold against the
scalar loop. This file pins the reasons the folds in
:mod:`repro.experiments.ring_kernels` may skip the executor at all:

- the placement-fixed attacks (Claim B.1, Lemma 4.1, Theorem 4.3)
  elect their target in exactly ``n²`` deliveries on every seed;
- their delivery schedule does not depend on the secrets: the traced
  ``(sender, receiver)`` sequence is the same for every seed;
- the random-location fast-path predicate only certifies trials the
  executor also sees elect the target in ``n²`` deliveries, including
  on small rings where most trials fail;
- at the scenario's default size the predicate covers nearly every
  trial, so the kernel rarely pays for the executor fallback.
"""

import random

import pytest

from repro.attacks import RingPlacement, recommended_probability
from repro.experiments import get_scenario, run_one_trial, run_traced_trial
from repro.experiments.ring_kernels import random_location_forces
from repro.experiments.runner import trial_seeds
from repro.sim.events import KIND_RECEIVE
from repro.util.errors import ConfigurationError
from repro.util.rng import derive_seed


def _basic_cheat(rng):
    n = rng.randrange(2, 41)
    return {"n": n, "cheater": rng.randrange(1, n + 1), "target": rng.randrange(1, n + 1)}


def _equal_spacing(rng):
    k = rng.randrange(2, 8)
    n = rng.randrange(2 * k, k * k + 1)
    return {"n": n, "k": k, "target": rng.randrange(1, n + 1)}


def _cubic(rng):
    while True:
        k = rng.randrange(3, 6)
        n = rng.randrange(2 * k, k + (k - 1) * k * (k + 1) // 2 + 1)
        try:
            RingPlacement.cubic(n, k)
        except ConfigurationError:
            continue
        return {"n": n, "k": k, "target": rng.randrange(1, n + 1)}


FORCING = {
    "attack/basic-cheat": _basic_cheat,
    "attack/equal-spacing": _equal_spacing,
    "attack/cubic": _cubic,
}


@pytest.mark.parametrize("name", sorted(FORCING))
def test_forcing_attack_elects_target_in_n_squared_on_every_seed(name):
    """Sixty trials, each at a fresh random valid point and seed."""
    spec = get_scenario(name)
    rng = random.Random(f"ring-kernels:{name}")
    for _ in range(60):
        params = spec.resolve_params(FORCING[name](rng))
        trial = run_one_trial(spec, params, rng.randrange(2**31), rng.randrange(100))
        assert (trial.outcome, trial.steps) == (params["target"], params["n"] ** 2), params


@pytest.mark.parametrize("name", sorted(FORCING))
def test_forcing_attack_delivery_order_ignores_the_secrets(name):
    """Every processor has one in-link and reacts to counts, not values,
    so the traced delivery sequence is a function of the parameters."""
    rng = random.Random(f"ring-kernels:trace:{name}")
    for _ in range(3):
        params = FORCING[name](rng)
        sequences = set()
        for seed in range(6):
            trace = run_traced_trial(name, params, base_seed=seed).trace
            sequences.add(
                tuple((e.sender, e.receiver) for e in trace if e.kind == KIND_RECEIVE)
            )
        assert len(sequences) == 1, params


def _placement(seed, params):
    n = params["n"]
    p = params["p"] if params["p"] is not None else recommended_probability(n)
    return RingPlacement.random_locations(
        n, p, random.Random(derive_seed(seed, "scenario"))
    )


def test_random_location_predicate_agrees_with_the_executor():
    """320 trials over random (n, p, window), n <= 128: every certified
    trial elects the target in n² deliveries, and the kernel's one-seed
    fold equals the scalar trial whichever branch it takes."""
    spec = get_scenario("attack/random-location")
    rng = random.Random("ring-kernels:random-location")
    certified = fallback = 0
    for _ in range(320):
        n = rng.randrange(8, 129)
        params = spec.resolve_params(
            {
                "n": n,
                "p": round(rng.uniform(0.1, 0.95), 3),
                "window": rng.randrange(1, 6),
                "target": rng.randrange(1, n + 1),
            }
        )
        base_seed, index = rng.randrange(2**31), rng.randrange(1000)
        (seed,) = trial_seeds(base_seed, [index])
        trial = run_one_trial(spec, params, base_seed, index)
        scalar = (trial.outcome, trial.steps)
        placement = _placement(seed, params)
        if placement is not None and random_location_forces(
            placement, params["window"], seed, random.Random(0)
        ):
            certified += 1
            assert scalar == (params["target"], n * n), params
        else:
            fallback += 1
        assert spec.run_batch([seed], params) == ({scalar[0]: 1}, scalar[1]), params
    assert certified >= 50 and fallback >= 50  # both branches exercised


def test_random_location_fast_path_covers_the_default_size():
    spec = get_scenario("attack/random-location")
    params = spec.resolve_params({"n": 256})
    stream = random.Random(0)
    seeds = trial_seeds(11, range(200))
    covered = sum(
        random_location_forces(_placement(seed, params), params["window"], seed, stream)
        for seed in seeds
    )
    assert covered >= 0.95 * len(seeds)
