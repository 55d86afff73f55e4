"""Tests for the experiment engine: registry, runner, determinism."""

import json

import pytest

from repro.experiments import (
    ScenarioSpec,
    expand_grid,
    expand_manifest,
    get_scenario,
    register_scenario,
    run_campaign,
    run_one_trial,
    run_scenario,
    scenario_names,
    trial_registry,
    unregister_scenario,
)
from repro.protocols import alead_uni_protocol
from repro.sim.execution import run_protocol
from repro.sim.topology import unidirectional_ring
from repro.util.errors import ConfigurationError
from repro.util.rng import RngRegistry
from test_chunking import run_inline


def sweep(scenario, trials):
    """A sweep: ``run_campaign`` on a one-entry manifest."""
    return run_campaign(expand_manifest([{"scenario": scenario, "trials": trials}]))


def _build_ring6(params):
    return unidirectional_ring(6)


def _build_alead(topo, params, rng):
    return alead_uni_protocol(topo)


BUILTIN_SCENARIOS = {
    "honest/basic-lead",
    "honest/alead-uni",
    "honest/phase-async",
    "honest/async-complete",
    "honest/wakeup-alead",
    "attack/basic-cheat",
    "attack/equal-spacing",
    "attack/random-location",
    "attack/cubic",
    "attack/partial-sum",
    "attack/phase-rushing",
    "attack/shamir-pool",
    "sync/broadcast",
    "sync/ring",
    "sync/last-round-cheat",
    "tree/xor-coin",
    "tree/xor-chain",
    "tree/clique-caterpillar",
    "cointoss/fle-coin",
    "cointoss/biased-coin",
    "cointoss/coin-fle",
    "fullinfo/baton",
    "fullinfo/sequential-coin",
    "blocks/fair-consensus",
    "blocks/fair-renaming",
    "fuzz/random-deviation",
    "placement/random-segments",
}


class TestRegistry:
    def test_builtin_catalog_registered(self):
        assert BUILTIN_SCENARIOS <= set(scenario_names())

    def test_every_subsystem_has_scenarios(self):
        """The acceptance bar: the registry reaches the whole paper."""
        prefixes = {name.split("/", 1)[0] for name in scenario_names()}
        assert {
            "honest", "attack", "sync", "tree", "cointoss", "fullinfo",
            "blocks", "fuzz", "placement",
        } <= prefixes

    def test_tags_partition_protocols_and_attacks(self):
        honest = set(scenario_names(tag="honest"))
        attacks = set(scenario_names(tag="attack"))
        assert not honest & attacks
        assert {n for n in honest if n.startswith("honest/")} == {
            n for n in BUILTIN_SCENARIOS if n.startswith("honest/")
        }
        assert {n for n in attacks if n.startswith("attack/")} == {
            n for n in BUILTIN_SCENARIOS if n.startswith("attack/")
        }
        # Punishment demos and forcing families count as attacks too.
        assert "sync/last-round-cheat" in attacks
        assert "fuzz/random-deviation" in attacks

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError):
            get_scenario("attack/does-not-exist")

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("honest/alead-uni")
        with pytest.raises(ConfigurationError):
            register_scenario(spec)
        register_scenario(spec, replace=True)  # explicit replace is fine

    def test_register_unregister_roundtrip(self):
        spec = ScenarioSpec(
            name="test/tmp",
            description="temporary",
            build_topology=lambda params: unidirectional_ring(params["n"]),
            build_protocol=lambda topo, params, rng: alead_uni_protocol(topo),
            defaults={"n": 6},
        )
        register_scenario(spec)
        try:
            assert get_scenario("test/tmp") is spec
        finally:
            unregister_scenario("test/tmp")
        with pytest.raises(ConfigurationError):
            get_scenario("test/tmp")

    def test_resolve_params_rejects_unknown_keys(self):
        spec = get_scenario("attack/cubic")
        assert spec.resolve_params({"n": 66})["n"] == 66
        with pytest.raises(ConfigurationError):
            spec.resolve_params({"coalition_size": 5})


class TestRunnerDeterminism:
    """Same (scenario, params, trials, base_seed) -> same outcomes, always."""

    @staticmethod
    def _outcomes(run=run_scenario, **layout):
        result = run("honest/alead-uni", 24, base_seed=11, params={"n": 8}, **layout)
        return [t.outcome for t in result.outcomes], result.to_row()

    def test_identical_across_worker_counts(self):
        serial, serial_row = self._outcomes(workers=1)
        # The 4-worker chunk layout with no processes.
        forced_off, off_row = self._outcomes(run_inline, workers=4)
        parallel, par_row = self._outcomes(workers=4)
        assert serial == forced_off == parallel
        assert serial_row == off_row == par_row

    def test_chunk_size_never_changes_results(self):
        a, row_a = self._outcomes(workers=2, chunk_size=1)
        b, row_b = self._outcomes(workers=2, chunk_size=7)
        assert a == b and row_a == row_b

    def test_trial_seed_depends_only_on_base_seed_and_index(self):
        spec = get_scenario("honest/alead-uni")
        params = spec.resolve_params()
        first = run_one_trial(spec, params, base_seed=3, index=5)
        again = run_one_trial(spec, params, base_seed=3, index=5)
        other = run_one_trial(spec, params, base_seed=4, index=5)
        assert first == again
        assert other is not None
        # the registry seed itself must differ even when outcomes collide:
        assert trial_registry(3, 5).seed != trial_registry(4, 5).seed
        assert trial_registry(3, 5).seed != trial_registry(3, 6).seed

    def test_matches_legacy_serial_loop_exactly(self):
        """The runner preserves the seed code's per-trial seed derivation."""
        ring = unidirectional_ring(8)
        legacy = [
            run_protocol(
                ring, alead_uni_protocol(ring), rng=RngRegistry(17).spawn(str(t))
            ).outcome
            for t in range(20)
        ]
        result = run_scenario(
            "honest/alead-uni", trials=20, base_seed=17, params={"n": 8}
        )
        assert [t.outcome for t in result.outcomes] == legacy

    def test_user_registered_scenario_ships_by_value_in_parallel(self):
        """Non-builtin specs must not be sent to workers by bare name:
        under the spawn start method a worker rebuilds only the builtin
        catalog, so a user registration would not resolve there."""
        from repro.experiments.runner import _is_builtin

        builtin = get_scenario("honest/alead-uni")
        assert _is_builtin(builtin)

        custom = ScenarioSpec(
            name="test/custom-parallel",
            description="user-registered scenario",
            build_topology=_build_ring6,
            build_protocol=_build_alead,
        )
        register_scenario(custom)
        try:
            assert not _is_builtin(custom)
            # And the parallel path still runs it (spec shipped by value).
            result = run_scenario(custom, trials=6, workers=2)
            assert result.trials == 6 and result.fail_rate == 0.0
        finally:
            unregister_scenario("test/custom-parallel")


class TestRngStreamIndependence:
    """Processor streams must be private per trial and per processor."""

    @staticmethod
    def _draws(registry, label, k=8):
        stream = registry.stream(label)
        return [stream.randrange(2**30) for _ in range(k)]

    def test_proc_streams_independent_across_trials(self):
        a = self._draws(trial_registry(0, 0), "proc:1")
        b = self._draws(trial_registry(0, 1), "proc:1")
        assert a != b  # same processor, different trial -> fresh randomness

    def test_proc_streams_reproducible_within_a_trial(self):
        assert self._draws(trial_registry(0, 3), "proc:2") == self._draws(
            trial_registry(0, 3), "proc:2"
        )

    def test_proc_streams_independent_across_processors(self):
        registry = trial_registry(0, 0)
        assert self._draws(registry, "proc:1") != self._draws(registry, "proc:2")


class TestSeedsOnDemand:
    """Closed-form kernels read only ``len(seeds)``, so their chunks
    must build no BLAKE2b hasher at all; a kernel that iterates its
    seeds is the control that the counter sees derivation."""

    @pytest.fixture
    def hashers(self, monkeypatch):
        import repro.util.rng

        built = []
        blake2b = repro.util.rng.hashlib.blake2b

        def counting(*args, **kwargs):
            built.append(1)
            return blake2b(*args, **kwargs)

        monkeypatch.setattr(repro.util.rng.hashlib, "blake2b", counting)
        return built

    @staticmethod
    def _fold(name, params, trials):
        from repro.experiments.runner import _run_chunk_folded

        spec = get_scenario(name)
        params = spec.resolve_params(params)
        return _run_chunk_folded(
            (name, params, 3, tuple(range(trials)), False, None, True)
        )

    @pytest.mark.parametrize(
        "name, params",
        [
            ("cointoss/biased-coin", {}),
            ("fullinfo/sequential-coin", {}),
            ("attack/basic-cheat", {"n": 16, "target": 5}),
        ],
    )
    def test_closed_form_chunk_derives_no_seed(self, hashers, name, params):
        fold = self._fold(name, params, 40_000)
        assert fold[3] == 40_000
        assert hashers == []

    def test_iterating_kernel_derives_through_the_counted_hasher(self, hashers):
        self._fold("honest/alead-uni", {"n": 4}, 10)
        assert hashers


class TestRunnerResults:
    def test_success_predicate_forced_target(self):
        result = run_scenario(
            "attack/basic-cheat",
            trials=6,
            base_seed=0,
            params={"n": 16, "target": 5},
        )
        assert result.success_rate == 1.0
        assert result.distribution.counts[5] == 6
        assert result.successes.trials == 6

    def test_honest_scenario_success_is_not_fail(self):
        result = run_scenario("honest/basic-lead", trials=5, params={"n": 6})
        assert result.success_rate == 1.0
        assert result.fail_rate == 0.0

    def test_to_row_is_json_stable(self):
        import json

        result = run_scenario("honest/alead-uni", trials=4, params={"n": 6})
        row = result.to_row()
        assert json.loads(json.dumps(row)) == row
        assert row["trials"] == 4
        assert sum(row["outcomes"].values()) == 4

    def test_max_steps_override_fails_trials(self):
        result = run_scenario(
            "honest/alead-uni", trials=3, params={"n": 8}, max_steps=2
        )
        assert result.fail_rate == 1.0

    def test_invalid_runner_config_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario("honest/alead-uni", trials=1, workers=0)
        with pytest.raises(ConfigurationError):
            run_scenario("honest/alead-uni", trials=1, chunk_size=0)
        with pytest.raises(ConfigurationError):
            run_scenario("honest/alead-uni", trials=-1)

    @pytest.mark.parametrize("trials", [2.5, True, "4"])
    @pytest.mark.parametrize("entry", [run_scenario, sweep])
    def test_non_integer_trials_rejected(self, entry, trials):
        # True would run one trial under a resume key that says "true",
        # which its own row never matches; the others used to escape as
        # a raw TypeError.
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            entry("honest/alead-uni", trials)

    def test_outcomes_hold_every_trial_in_index_order(self):
        result = run_scenario(
            "honest/alead-uni", trials=7, params={"n": 6}, chunk_size=3
        )
        assert [t.index for t in result.outcomes] == list(range(7))


class TestSweep:
    def test_expand_grid_cartesian_product(self):
        points = expand_grid({"n": [8, 16], "target": 1})
        assert points == [{"n": 8, "target": 1}, {"n": 16, "target": 1}]
        assert expand_grid(None) == [{}]
        assert expand_grid({}) == [{}]

    def test_sweep_rows_worker_invariant(self):
        entry = {
            "scenario": "attack/basic-cheat",
            "trials": 8,
            "grid": {"n": [8, 12], "target": [2]},
            "base_seed": 1,
        }

        def rows(workers):
            return [
                r.to_row()
                for r in run_campaign(expand_manifest([entry]), workers=workers)
            ]

        def text(row):
            return json.dumps(row, sort_keys=True)

        serial, parallel = rows(1), rows(2)
        # The row set is the contract at any worker count (INVARIANTS
        # R1); a parallel sweep yields in completion order.
        assert sorted(serial, key=text) == sorted(parallel, key=text)
        # A serial pool keeps admission order: rows come in grid order.
        assert [r["params"]["n"] for r in serial] == [8, 12]

    def test_sweep_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError):
            list(sweep("no/such", 1))
