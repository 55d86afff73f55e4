"""Property tests: batch kernels are bit-identical to the scalar loop.

``ScenarioSpec.run_batch`` is purely an acceleration — the contract
(:data:`repro.experiments.scenario.BatchRunner`) says a kernel must
reproduce the per-trial fold bit for bit, so no row can depend on
whether a chunk ran vectorized. The equivalence scripts that shaped each
kernel don't survive their session; this layer pins the contract in the
suite, for *every* batch-capable scenario the catalog registers:

- random parameter points and base seeds (drawn from a fixed, per-
  scenario RNG, so failures replay exactly) run once through
  ``use_batch=True`` and once through ``use_batch=False``, at one worker
  and at four, and the folded rows — outcome histogram, success
  proportion, ``steps_total`` — must match key for key;
- the folded batch row is also checked against the *unfolded* scalar
  run (``keep_outcomes=True``), tying the kernel all the way back to the
  per-trial ``TrialOutcome`` stream, not merely to the scalar fold;
- kernels that decline a parameter point (return ``None``) must leave
  the scalar fallback's results untouched, and a kernel that miscounts
  its chunk must be rejected loudly rather than folded.

The catalog of batch-capable names is pinned too: a scenario silently
dropping out of batch coverage would otherwise shrink this suite to
vacuity without a single failure.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.attacks import RingPlacement
from repro.cli import main
from repro.experiments import WorkerPool, all_scenarios, get_scenario, run_scenario
from repro.util.errors import ConfigurationError

#: Every batch-capable scenario in the registered catalog.
BATCH_NAMES = sorted(
    spec.name for spec in all_scenarios() if spec.run_batch is not None
)

#: The names expected to carry kernels — update alongside the catalog.
EXPECTED_BATCH_NAMES = [
    "attack/basic-cheat",
    "attack/cubic",
    "attack/equal-spacing",
    "attack/random-location",
    "blocks/fair-consensus",
    "blocks/fair-renaming",
    "cointoss/biased-coin",
    "cointoss/coin-fle",
    "cointoss/fle-coin",
    "fullinfo/baton",
    "fullinfo/sequential-coin",
    "honest/alead-uni",
    "honest/basic-lead",
    "honest/wakeup-alead",
    "placement/random-segments",
    "sync/broadcast",
    "sync/ring",
]


def _sample_biased_coin(rng):
    n = rng.randrange(2, 17)
    return {"n": n, "cheater": rng.randrange(1, n + 1), "target": rng.randrange(1, n + 1)}


def _sample_baton(rng):
    n = rng.randrange(1, 41)
    return {"n": n, "k": rng.randrange(0, n + 1)}


def _sample_sequential(rng):
    game = rng.choice(["parity", "majority"])
    n = rng.randrange(2, 9)
    if game == "majority":
        n |= 1  # the majority game is defined on odd player counts
    return {
        "game": game,
        "n": n,
        "k": rng.randrange(0, n + 1),
        "target": rng.randrange(0, 2),
    }


def _sample_basic_cheat(rng):
    n = rng.randrange(2, 65)
    return {"n": n, "cheater": rng.randrange(1, n + 1), "target": rng.randrange(1, n + 1)}


def _sample_equal_spacing(rng):
    k = rng.randrange(2, 9)
    n = rng.randrange(2 * k, k * k + 1)  # Lemma 4.1: every gap at most k - 1
    return {"n": n, "k": k, "target": rng.randrange(1, n + 1)}


def _sample_cubic(rng):
    while True:
        k = rng.randrange(3, 7)
        n = rng.randrange(2 * k, k + (k - 1) * k * (k + 1) // 2 + 1)
        try:
            RingPlacement.cubic(n, k)
        except ConfigurationError:
            continue  # no Theorem 4.3 staircase at this (n, k)
        return {"n": n, "k": k, "target": rng.randrange(1, n + 1)}


def _sample_random_location(rng):
    # Small rings: most placements miss the fast path (long segments,
    # window >= k) and take the kernel's per-trial executor fallback.
    n = rng.randrange(8, 97)
    return {
        "n": n,
        "p": rng.choice([None, round(rng.uniform(0.05, 0.95), 3)]),
        "window": rng.randrange(1, 6),
        "target": rng.randrange(1, n + 1),
    }


#: Per-scenario random parameter points. Ranges stay inside each
#: scenario's valid domain (the decline paths get their own test) but
#: deliberately stress the edges the kernels special-case: coalition of
#: everybody, cheater at either end of the ring, single-player batons.
PARAM_SAMPLERS = {
    "attack/basic-cheat": _sample_basic_cheat,
    "attack/cubic": _sample_cubic,
    "attack/equal-spacing": _sample_equal_spacing,
    "attack/random-location": _sample_random_location,
    "honest/alead-uni": lambda rng: {"n": rng.randrange(2, 33)},
    "honest/basic-lead": lambda rng: {"n": rng.randrange(2, 33)},
    "honest/wakeup-alead": lambda rng: {"n": rng.randrange(2, 17)},
    "cointoss/fle-coin": lambda rng: {"n": rng.randrange(2, 33)},
    "cointoss/biased-coin": _sample_biased_coin,
    "cointoss/coin-fle": lambda rng: {"n": 2 ** rng.randrange(1, 6)},
    "fullinfo/baton": _sample_baton,
    "fullinfo/sequential-coin": _sample_sequential,
    "blocks/fair-consensus": lambda rng: {"n": rng.randrange(2, 17)},
    "blocks/fair-renaming": lambda rng: {"n": rng.randrange(2, 17)},
    "placement/random-segments": lambda rng: {
        "n": rng.randrange(2, 257),
        "p": round(rng.uniform(0.01, 0.99), 3),
    },
    "sync/broadcast": lambda rng: {"n": rng.randrange(2, 13)},
    "sync/ring": lambda rng: {"n": rng.randrange(2, 13)},
}


def _scenario_rng(name: str) -> random.Random:
    """A fixed per-scenario RNG, so every sampled point replays exactly."""
    return random.Random(f"batch-kernels:{name}")


def _run(scenario, trials, base_seed, params, *, use_batch, pool=None, **kwargs):
    return run_scenario(
        scenario,
        trials,
        base_seed,
        params,
        keep_outcomes=kwargs.pop("keep_outcomes", False),
        pool=pool,
        use_batch=use_batch,
        **kwargs,
    )


def _comparable(result):
    """Everything a row publishes, plus the step counter the row keeps."""
    return (result.to_row(), result.steps_total, dict(result.distribution.counts))


def _assert_modes_agree(scenario, trials, base_seed, params, pool=None):
    batch = _run(scenario, trials, base_seed, params, use_batch=True, pool=pool)
    scalar = _run(scenario, trials, base_seed, params, use_batch=False, pool=pool)
    assert _comparable(batch) == _comparable(scalar), (
        f"{scenario} {params} diverged between batch and scalar folds "
        f"(trials={trials}, base_seed={base_seed})"
    )
    return batch


@pytest.fixture(scope="module")
def shared_pool():
    """One 4-worker pool for every parallel case in the module."""
    with WorkerPool(4) as pool:
        yield pool


def test_batch_capable_catalog_is_pinned():
    assert BATCH_NAMES == EXPECTED_BATCH_NAMES


@pytest.mark.parametrize("name", BATCH_NAMES)
def test_batch_fold_matches_scalar_fold_serial(name):
    """Three random points per scenario, batch vs scalar, one worker."""
    rng = _scenario_rng(name)
    sampler = PARAM_SAMPLERS[name]
    for _ in range(3):
        params = sampler(rng)
        trials = rng.randrange(16, 65)
        base_seed = rng.randrange(2**31)
        _assert_modes_agree(name, trials, base_seed, params)


@pytest.mark.parametrize("name", BATCH_NAMES)
def test_batch_fold_matches_unfolded_per_trial_run(name):
    """The kernel ties back to the per-trial outcome stream itself, not
    just to the scalar fold: a ``keep_outcomes=True`` run (which can
    never take the batch path) must publish the same row."""
    rng = _scenario_rng(name)
    params = PARAM_SAMPLERS[name](rng)
    trials, base_seed = 32, rng.randrange(2**31)
    batch = _run(name, trials, base_seed, params, use_batch=True)
    unfolded = _run(
        name, trials, base_seed, params, use_batch=True, keep_outcomes=True
    )
    assert len(unfolded.outcomes) == trials
    assert _comparable(batch) == _comparable(unfolded)


@pytest.mark.parametrize("name", BATCH_NAMES)
def test_batch_fold_matches_scalar_fold_4_workers(name, shared_pool):
    """One random point per scenario through the real 4-worker pool —
    and the parallel batch row must equal the serial batch row, so the
    kernel is chunking-invariant as well as mode-invariant."""
    rng = random.Random(f"batch-kernels:parallel:{name}")
    params = PARAM_SAMPLERS[name](rng)
    trials = rng.randrange(48, 97)
    base_seed = rng.randrange(2**31)
    parallel = _assert_modes_agree(name, trials, base_seed, params, pool=shared_pool)
    serial = _run(name, trials, base_seed, params, use_batch=True)
    assert _comparable(parallel) == _comparable(serial)


@pytest.mark.parametrize(
    "scenario, params",
    [
        ("cointoss/fle-coin", {"n": 8}),
        ("cointoss/biased-coin", {"n": 8, "cheater": 2, "target": 4}),
        ("cointoss/coin-fle", {"n": 16}),
        # Big ring: the baton kernel's incremental pools, far past the
        # sampler's n <= 40.
        ("fullinfo/baton", {"n": 256, "k": 16}),
        ("fullinfo/sequential-coin", {"game": "majority", "n": 7, "k": 2, "target": 1}),
        ("blocks/fair-consensus", {"n": 6}),
        ("blocks/fair-renaming", {"n": 6}),
        ("placement/random-segments", {"n": 256}),
    ],
)
def test_fixed_kernel_points_match_scalar(scenario, params):
    """Fixed points at the sizes the kernels were tuned on, 64 trials
    each, batch vs scalar."""
    _assert_modes_agree(scenario, 64, 0, params)


def test_biased_coin_edge_cheaters_match_scalar():
    """The biased-coin kernel's O(1) closed form covers the parameter
    edges explicitly: the cheater in the origin slot and the cheater
    forcing itself from the far end of the ring."""
    for params in (
        {"n": 8, "cheater": 1, "target": 5},
        {"n": 8, "cheater": 8, "target": 8},
        {"n": 2, "cheater": 2, "target": 1},
    ):
        _assert_modes_agree("cointoss/biased-coin", 24, 7, params)


def test_declined_points_defer_to_scalar_validation():
    """Kernels decline (return ``None`` on) points outside their domain
    rather than guessing an answer, so the scalar path's own validation
    error surfaces identically in both modes — the kernel never masks
    it. coin-fle only vectorizes power-of-two rings; n=6 is declined,
    and the scalar reduction rejects it."""
    for use_batch in (True, False):
        with pytest.raises(ConfigurationError):
            _run("cointoss/coin-fle", 8, 3, {"n": 6}, use_batch=use_batch)


@pytest.mark.parametrize(
    "scenario, params",
    [
        ("attack/cubic", {"n": 111, "k": 3}),  # k too small for a staircase
        ("attack/equal-spacing", {"n": 10, "k": 6}),  # n < 2k
        ("attack/basic-cheat", {"n": 8, "cheater": 9}),  # cheater off the ring
        ("attack/random-location", {"n": 16, "p": 0.9, "target": 17}),
        ("attack/random-location", {"n": 16, "p": 0.9, "window": 0}),
        ("sync/broadcast", {"n": 1}),  # no complete graph on one node
        ("sync/ring", {"n": 1}),
    ],
)
def test_ring_kernels_decline_what_the_builder_rejects(scenario, params):
    """The forcing kernels run the scenario's own builder once per chunk
    and decline when it raises; random-location and the sync kernels
    decline parameters their builders would reject. Either way the
    scalar error surfaces unchanged."""
    spec = get_scenario(scenario)
    assert spec.run_batch([1, 2, 3], spec.resolve_params(params)) is None
    for use_batch in (True, False):
        with pytest.raises(ConfigurationError):
            _run(scenario, 8, 3, params, use_batch=use_batch)


def test_sync_ring_kernel_declines_past_the_round_budget():
    """A synchronous ring of ``n`` needs ``n + 1`` rounds; past the
    default budget of 1000 the scalar trial FAILs, so the kernel folds
    n = 999 and declines n = 1000."""
    spec = get_scenario("sync/ring")
    counts, steps = spec.run_batch([1], {"n": 999})
    assert sum(counts.values()) == 1 and steps == 1000
    assert spec.run_batch([1], {"n": 1000}) is None


def test_kernel_decline_is_per_spec_not_per_runner():
    """An always-declining kernel grafted onto a live spec must be
    consulted and then fully bypassed: results identical to the
    kernel-free spec, with the decline actually exercised."""
    base = get_scenario("cointoss/fle-coin")
    calls = []

    def declining_kernel(seeds, params):
        calls.append(len(seeds))
        return None

    # Same name on both variants: rows embed the scenario name, and the
    # comparison below is about results, not labels. Neither spec is
    # registered, so the live catalog entry is untouched.
    declined = replace(base, run_batch=declining_kernel)
    bare = replace(base, run_batch=None)
    got = _run(declined, 24, 11, {"n": 8}, use_batch=True)
    want = _run(bare, 24, 11, {"n": 8}, use_batch=True)
    assert calls and sum(calls) == 24
    assert _comparable(got) == _comparable(want)


def test_miscounting_kernel_is_rejected():
    """A kernel whose counts don't cover its chunk is a contract breach
    the runner must refuse to fold."""
    base = get_scenario("cointoss/fle-coin")

    def lossy_kernel(seeds, params):
        return {0: len(seeds) - 1}, 0

    lossy = replace(base, name="test/fle-coin-lossy", run_batch=lossy_kernel)
    with pytest.raises(ConfigurationError):
        _run(lossy, 16, 0, {"n": 8}, use_batch=True)


def test_kernel_fold_is_rekeyed_through_map_outcome():
    """A kernel histograms raw outcomes; the runner maps each key with
    the scenario's ``map_outcome``, merging keys that map alike, before
    it scores ``success``. Here raw outcomes 1 and 3 both map to 1."""
    raw_folds = []

    def raw_kernel(seeds, params):
        counts = {}
        for seed in seeds:
            counts[seed % 3 + 1] = counts.get(seed % 3 + 1, 0) + 1
        raw_folds.append(counts)
        return counts, 2 * len(seeds)

    def raw_trial(params, registry, max_steps):
        return registry.seed % 3 + 1, 2

    spec = replace(
        get_scenario("honest/alead-uni"),
        name="test/raw-kernel",
        build_topology=None,
        build_protocol=None,
        run_trial=raw_trial,
        run_batch=raw_kernel,
        map_outcome=lambda outcome, params: 1 if outcome in (1, 3) else outcome,
        success=lambda outcome, params: outcome == 1,
    )
    batch = _run(spec, 60, 0, {"n": 8}, use_batch=True)
    scalar = _run(spec, 60, 0, {"n": 8}, use_batch=False)
    raw = {}
    for fold in raw_folds:
        for outcome, count in fold.items():
            raw[outcome] = raw.get(outcome, 0) + count
    assert sorted(raw) == [1, 2, 3]
    assert dict(batch.distribution.counts) == {1: raw[1] + raw[3], 2: raw[2]}
    assert _comparable(batch) == _comparable(scalar)
    assert batch.successes.successes == scalar.successes.successes == raw[1] + raw[3]


def test_biased_coin_float_target_fails_on_both_paths(tmp_path, capsys):
    """A float target is not an id: the scalar trial's coin map rejects
    it, and the forcing kernel declines it, so both modes raise the same
    error and ``--out`` gets no row that ``target=5`` would later alias
    on resume."""
    params = {"target": 5.0}
    errors = []
    for use_batch in (True, False):
        with pytest.raises(ConfigurationError) as info:
            _run("cointoss/biased-coin", 4, 0, params, use_batch=use_batch)
        errors.append(str(info.value))
    assert errors[0] == errors[1] and "invalid FLE outcome 5.0" in errors[0]

    out_file = tmp_path / "rows.jsonl"
    argv = ["sweep", "--scenario", "cointoss/biased-coin", "--trials", "4",
            "--out", str(out_file)]
    with pytest.raises(SystemExit, match="invalid FLE outcome 5.0"):
        main(argv + ["--param", "target=5.0"])
    assert not out_file.exists() or out_file.read_text() == ""
    assert main(argv + ["--param", "target=5", "--resume"]) == 0
    assert "ran 1 of 1" in capsys.readouterr().err
    (row,) = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert row["params"]["target"] == 5 and row["outcomes"] == {"1": 4}
