"""Property tests for grid expansion and the sweep resume machinery."""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.experiments import (
    WilsonWidthPolicy,
    canonical_params,
    expand_grid,
    expand_manifest,
    parse_out_lines,
    resume_key,
    row_resume_key,
    row_retry_identity,
    run_campaign,
    run_scenario,
)
from repro.util.errors import ConfigurationError


def sweep(completed=None, **entry):
    """A sweep: ``run_campaign`` on the one-entry manifest ``entry``."""
    return run_campaign(expand_manifest([entry]), completed=completed)


def completed_keys(lines):
    """Resume keys of the completed rows among ``--out`` lines."""
    return {row.key for row in parse_out_lines(lines) if row.key is not None}


# Hypothesis building blocks: JSON-ish scalar values and identifier keys.
scalars = st.one_of(
    st.integers(-100, 100),
    st.booleans(),
    st.none(),
    st.text("abcxyz", min_size=0, max_size=4),
)
keys = st.text("abcdefgh", min_size=1, max_size=6)


class TestExpandGrid:
    def test_empty_and_none_yield_the_defaults_point(self):
        assert expand_grid(None) == [{}]
        assert expand_grid({}) == [{}]

    @given(grid=st.dictionaries(keys, st.lists(scalars, min_size=1, max_size=4), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_point_count_is_product_of_axis_lengths(self, grid):
        expected = 1
        for values in grid.values():
            expected *= len(values)
        points = expand_grid(grid)
        assert len(points) == expected
        assert all(set(p) == set(grid) for p in points)

    @given(
        values=st.lists(st.integers(-50, 50), min_size=1, max_size=5),
        pinned=scalars,
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_axis_equals_singleton_list_axis(self, values, pinned):
        as_scalar = expand_grid({"a": values, "b": pinned})
        as_list = expand_grid({"a": values, "b": [pinned]})
        assert as_scalar == as_list

    def test_axis_order_controls_row_order(self):
        fast_inner = expand_grid({"a": [1, 2], "b": [10, 20]})
        assert fast_inner == [
            {"a": 1, "b": 10},
            {"a": 1, "b": 20},
            {"a": 2, "b": 10},
            {"a": 2, "b": 20},
        ]
        fast_outer = expand_grid({"b": [10, 20], "a": [1, 2]})
        # Same set of points, different enumeration order.
        canonical = lambda points: [json.dumps(p, sort_keys=True) for p in points]
        assert canonical(fast_outer) != canonical(fast_inner)
        assert sorted(canonical(fast_outer)) == sorted(canonical(fast_inner))


class TestResumeKey:
    @given(params=st.dictionaries(keys, scalars, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_param_insertion_order_is_irrelevant(self, params):
        forward = dict(sorted(params.items()))
        backward = dict(sorted(params.items(), reverse=True))
        assert resume_key("s", forward, 10, 0) == resume_key("s", backward, 10, 0)

    @given(params=st.dictionaries(keys, scalars, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_key_is_json_and_roundtrips_the_identity(self, params):
        key = resume_key("attack/x", params, 7, 3)
        identity = json.loads(key)
        assert identity["scenario"] == "attack/x"
        assert identity["trials"] == 7
        assert identity["base_seed"] == 3
        assert identity["params"] == {
            k: params[k] for k in sorted(params)
        }

    def test_any_identity_field_change_changes_the_key(self):
        base = resume_key("a", {"n": 8}, 10, 0)
        assert resume_key("b", {"n": 8}, 10, 0) != base
        assert resume_key("a", {"n": 9}, 10, 0) != base
        assert resume_key("a", {"n": 8}, 11, 0) != base
        assert resume_key("a", {"n": 8}, 10, 1) != base
        # max_steps changes trial outcomes, so it is part of the identity:
        # rows run under a different delivery budget must not be skipped.
        assert resume_key("a", {"n": 8}, 10, 0, max_steps=5) != base

    def test_rows_written_before_max_steps_field_count_as_default_budget(self):
        legacy_row = {
            "scenario": "a", "params": {"n": 8}, "trials": 10, "base_seed": 0,
        }
        assert row_resume_key(legacy_row) == resume_key("a", {"n": 8}, 10, 0)

    def test_row_key_matches_grid_point_key(self):
        """The key of a written row equals the key of its grid point —
        the exact equation --resume relies on."""
        result = run_scenario(
            "attack/basic-cheat", trials=3, base_seed=5, params={"n": 8}
        )
        assert row_resume_key(result.to_row()) == resume_key(
            "attack/basic-cheat", result.params, 3, 5
        )

    def test_fixed_budget_key_format_is_frozen(self):
        """Fixed-budget keys must stay byte-identical to the pre-budget
        format, or every existing --out file stops resuming."""
        assert resume_key("a", {"n": 8}, 10, 0) == json.dumps(
            {
                "scenario": "a",
                "params": {"n": 8},
                "trials": 10,
                "base_seed": 0,
                "max_steps": None,
            },
            sort_keys=True,
        )

    def test_budget_policy_is_part_of_the_identity(self):
        """Fixed and adaptive requests — and different policies — must
        never satisfy each other's resume lookups."""
        from repro.experiments import WilsonWidthPolicy

        fixed = resume_key("a", {"n": 8}, 10, 0)
        loose = WilsonWidthPolicy(ci_width=0.2, min_trials=4, max_trials=10)
        tight = WilsonWidthPolicy(ci_width=0.1, min_trials=4, max_trials=10)
        assert resume_key("a", {"n": 8}, None, 0, budget=loose) != fixed
        assert resume_key("a", {"n": 8}, None, 0, budget=loose) != resume_key(
            "a", {"n": 8}, None, 0, budget=tight
        )

    def test_adaptive_row_keys_back_to_its_policy_not_realized_trials(self):
        """An adaptive row records the realized trial count, but its key
        is the *request* identity: (scenario, params, policy, seed)."""
        from repro.experiments import WilsonWidthPolicy

        policy = WilsonWidthPolicy(ci_width=0.2, min_trials=8, max_trials=64)
        row = run_scenario(
            "attack/basic-cheat",
            base_seed=5,
            params={"n": 8},
            budget=policy,
            keep_outcomes=False,
        ).to_row()
        assert row["trials"] < 64  # converged early: realized != ceiling
        assert row_resume_key(row) == resume_key(
            "attack/basic-cheat", row["params"], None, 5, budget=policy
        )
        # And the policy round-trips through the row's JSON form.
        assert row_resume_key(json.loads(json.dumps(row))) == row_resume_key(row)


class TestBudgetPolicyKeyProperties:
    """Seeded-random property tests over the budget-policy registry:
    policy identity must be collision-free across the whole parameter
    space, not just at hand-picked examples."""

    def _policy_triple(self, rng):
        """Three different policies sharing one random numeric profile —
        the adversarial case for key separation, since the criterion
        value and all bounds coincide."""
        from repro.experiments import (
            FailRateTargetPolicy,
            RelativePrecisionPolicy,
            WilsonWidthPolicy,
        )

        min_trials = rng.randint(1, 64)
        shared = {
            "min_trials": min_trials,
            "max_trials": min_trials + rng.randint(0, 500),
            "z": rng.choice([1.0, 1.645, 1.96, 2.576]),
        }
        x = rng.uniform(0.01, 1.0)
        return [
            WilsonWidthPolicy(ci_width=x, **shared),
            RelativePrecisionPolicy(rel_precision=x, **shared),
            FailRateTargetPolicy(target=x, **shared),
        ]

    def test_random_policy_params_never_collide_across_policies(self):
        import random

        rng = random.Random(20260729)
        for _ in range(200):
            policies = self._policy_triple(rng)
            keys = {
                resume_key("s", {"n": 8}, None, 0, budget=p) for p in policies
            }
            assert len(keys) == len(policies)
            # ...and none of them collides with the fixed-budget key of
            # any trial count, including the policies' own bounds.
            for trials in {policies[0].min_trials, policies[0].max_trials}:
                assert resume_key("s", {"n": 8}, trials, 0) not in keys

    def test_random_policies_roundtrip_their_identity_dicts(self):
        import random

        from repro.experiments import as_policy

        rng = random.Random(95)
        for _ in range(100):
            for policy in self._policy_triple(rng):
                rehydrated = as_policy(json.loads(json.dumps(policy.to_key())))
                assert rehydrated == policy
                assert resume_key(
                    "s", {}, None, 0, budget=rehydrated
                ) == resume_key("s", {}, None, 0, budget=policy)

    def test_wilson_key_format_is_frozen_without_policy_field(self):
        """The pre-registry identity dict must stay byte-identical —
        every adaptive row written before the registry resumes on it."""
        policy = WilsonWidthPolicy(ci_width=0.1, min_trials=4, max_trials=64)
        assert policy.to_key() == {
            "ci_width": 0.1,
            "min_trials": 4,
            "max_trials": 64,
            "z": 1.96,
        }

    def test_policyless_mapping_parses_as_wilson_width(self):
        from repro.experiments import BudgetPolicy

        legacy = {"ci_width": 0.1, "min_trials": 4, "max_trials": 64}
        assert BudgetPolicy.from_mapping(legacy) == WilsonWidthPolicy(
            ci_width=0.1, min_trials=4, max_trials=64
        )

    def test_unknown_policy_name_lists_known_policies(self):
        from repro.experiments import BudgetPolicy, policy_names

        with pytest.raises(ConfigurationError) as excinfo:
            BudgetPolicy.from_mapping(
                {"policy": "no-such", "min_trials": 1, "max_trials": 2}
            )
        message = str(excinfo.value)
        for name in policy_names():
            assert name in message

    def test_base_class_construction_fails_eagerly_with_guidance(self):
        """The pre-registry class took WilsonWidthPolicy's arguments; a
        direct BudgetPolicy(...) — legacy or bare — must point at the
        concrete policies instead of building a hollow instance that
        only crashes deep inside a run."""
        from repro.experiments import BudgetPolicy

        for call in (
            lambda: BudgetPolicy(),
            lambda: BudgetPolicy(ci_width=0.1, min_trials=8, max_trials=100),
        ):
            with pytest.raises(ConfigurationError) as excinfo:
                call()
            assert "WilsonWidthPolicy" in str(excinfo.value)

    def test_non_string_policy_values_fail_eagerly_not_with_typeerror(self):
        """A foreign 'policy' value — even an unhashable one — must raise
        the same eager ConfigurationError as every other malformed
        budget, so resume loaders skip such rows instead of crashing."""
        from repro.experiments import BudgetPolicy

        for bad in (["wilson-width"], {"name": "x"}, 7, None):
            with pytest.raises(ConfigurationError):
                BudgetPolicy.from_mapping(
                    {"policy": bad, "min_trials": 1, "max_trials": 2}
                )
        corrupt_row = json.dumps({
            "scenario": "a", "params": {}, "trials": 4, "base_seed": 0,
            "budget": {"policy": ["wilson-width"], "ci_width": 0.1,
                       "min_trials": 2, "max_trials": 4},
        })
        assert completed_keys([corrupt_row]) == set()


class TestNumericAliasing:
    """``n=1`` and ``n=1.0`` are equal values and identical experiments;
    their resume keys must collide (the re-run-done-points regression)."""

    def test_integral_floats_alias_to_ints(self):
        assert resume_key("a", {"n": 1.0}, 10, 0) == resume_key(
            "a", {"n": 1}, 10, 0
        )
        # ...and to the exact pre-fix byte format of the int spelling,
        # so no existing golden key moves.
        assert '"n": 1' in resume_key("a", {"n": 1.0}, 10, 0)

    def test_non_integral_floats_are_untouched(self):
        key = json.loads(resume_key("a", {"p": 0.5}, 10, 0))
        assert key["params"] == {"p": 0.5}
        assert resume_key("a", {"p": 0.5}, 10, 0) != resume_key(
            "a", {"p": 0}, 10, 0
        )

    def test_bools_are_not_folded(self):
        """bool is an int subclass but never a float: flags keep their
        pre-fix identity, distinct from 0/1."""
        assert resume_key("a", {"f": True}, 10, 0) != resume_key(
            "a", {"f": 1}, 10, 0
        )
        key = json.loads(resume_key("a", {"f": True}, 10, 0))
        assert key["params"] == {"f": True}

    def test_nested_containers_canonicalise_recursively(self):
        assert resume_key("a", {"v": [1.0, 2.5]}, 10, 0) == resume_key(
            "a", {"v": [1, 2.5]}, 10, 0
        )
        assert resume_key("a", {"v": {"m": 4.0}}, 10, 0) == resume_key(
            "a", {"v": {"m": 4}}, 10, 0
        )

    def test_row_side_and_request_side_agree(self):
        """A row whose params were written as floats must satisfy the
        int-spelled request — both sides canonicalise through one
        function."""
        row = {
            "scenario": "a", "params": {"n": 16.0}, "trials": 10,
            "base_seed": 0,
        }
        assert row_resume_key(row) == resume_key("a", {"n": 16}, 10, 0)

    def test_canonical_params_is_sorted_and_folded(self):
        assert canonical_params({"b": 2.0, "a": 1}) == {"a": 1, "b": 2}
        assert list(canonical_params({"b": 2.0, "a": 1})) == ["a", "b"]

    def test_budget_identity_floats_are_not_folded(self):
        """Policy identity dicts keep their float spellings (z=1.96,
        ci_width) — folding them would move every frozen adaptive key.
        The wilson frozen-format test pins the exact dict; here we pin
        that an integral float criterion stays a float in the key."""
        policy = WilsonWidthPolicy(ci_width=1.0, min_trials=4, max_trials=8)
        key = json.loads(resume_key("a", {}, None, 0, budget=policy))
        assert key["budget"]["ci_width"] == pytest.approx(1.0)
        assert '"ci_width": 1.0' in resume_key("a", {}, None, 0, budget=policy)


class TestClassifyRowLine:
    """How :func:`parse_out_lines` classifies each ``--out`` line: a
    completed row under its resume key, a timed-out marker (key
    ``None``), or a skip whose reason tells text that is not JSON from
    JSON that is not a row."""

    def _good_row(self):
        return run_scenario(
            "honest/basic-lead", trials=2, params={"n": 6}
        ).to_row()

    def test_reason_labels_are_pinned(self):
        good = self._good_row()
        timed = dict(good, timed_out=True)
        cases = [
            (json.dumps(good, sort_keys=True), None, row_resume_key(good)),
            (json.dumps(timed, sort_keys=True), None, None),
            ("not json {", "not-json", None),
            (json.dumps({"unrelated": 1}), "not-a-row", None),
            ("[1, 2, 3]", "not-a-row", None),
            # Parsed fine, but identity fields are broken: that is
            # damage, not a deadline — it must label "not-a-row" even
            # though row_resume_key raised after a successful parse.
            (json.dumps(dict(good, budget=[1])), "not-a-row", None),
            (json.dumps({k: v for k, v in good.items() if k != "trials"}),
             "not-a-row", None),
            # A params list indexes out of range inside canonical_params.
            (json.dumps(dict(good, params=[3])), "not-a-row", None),
        ]
        for line, expected, key in cases:
            skips = []
            rows = parse_out_lines(
                [line], on_skip=lambda _number, _line, reason: skips.append(reason)
            )
            if expected is None:
                assert skips == [], line
                (row,) = rows
                assert row.key == key
                assert json.loads(row.values[-1]) == json.loads(line)
                assert row.retry == row_retry_identity(json.loads(line))
            else:
                assert skips == [expected], line
                assert rows == []

    def test_timed_out_false_with_corrupt_budget_is_malformed(self):
        """Only a *truthy* timed_out makes a keyless marker; a row that
        merely failed identity reconstruction is damage."""
        good = self._good_row()
        row = dict(
            good,
            timed_out=False,
            budget={"ci_width": 5, "min_trials": 1, "max_trials": 2},
        )
        skips = []
        assert parse_out_lines(
            [json.dumps(row)], on_skip=lambda *skip: skips.append(skip[2])
        ) == []
        assert skips == ["not-a-row"]

    def test_on_skip_reasons_flow_through_parse_out_lines(self):
        good = self._good_row()
        timed = dict(good, timed_out=True)
        lines = [
            json.dumps(good, sort_keys=True),
            "torn {",
            json.dumps(timed, sort_keys=True),
            json.dumps({"unrelated": 1}),
        ]
        observed = []
        rows = parse_out_lines(
            lines, on_skip=lambda number, _line, reason: observed.append(
                (number, reason)
            )
        )
        assert [row.key for row in rows] == [row_resume_key(good), None]
        assert observed == [(2, "not-json"), (4, "not-a-row")]

    def test_each_line_is_parsed_exactly_once(self):
        """The old skip path re-ran json.loads on the very line that
        just failed; the parser must not."""
        from unittest import mock

        good = self._good_row()
        lines = [
            json.dumps(good, sort_keys=True),
            "torn {",
            json.dumps(dict(good, timed_out=True), sort_keys=True),
            json.dumps(dict(good, budget=[1])),
        ]
        real = json.loads
        with mock.patch.object(json, "loads", side_effect=real) as spy:
            parse_out_lines(lines, on_skip=lambda *args: None)
        assert spy.call_count == len(lines)

    def test_sweep_resume_parses_each_out_line_once(self, tmp_path, capsys):
        """A resume over a JSONL-era ``--out`` (no store beside it) that
        runs nothing parses each non-blank line once, for the check, the
        completed keys and the import together."""
        from unittest import mock

        out = tmp_path / "rows.jsonl"
        argv = ["sweep", "--scenario", "sync/broadcast", "--trials", "2",
                "--param", "n=4,5,6", "--out", str(out)]
        assert main(argv) == 0
        os.remove(tmp_path / "rows.jsonl.db")
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        capsys.readouterr()
        real = json.loads
        with mock.patch.object(json, "loads", side_effect=real) as spy:
            assert main(argv + ["--resume"]) == 0
        assert "ran 0 of 3 grid points" in capsys.readouterr().err
        assert spy.call_count == len(lines) == 3


class TestLoadCompletedKeys:
    """Which ``--out`` lines count as completed points: only rows that
    :func:`parse_out_lines` gives a resume key."""

    def test_ignores_foreign_and_malformed_lines(self):
        row = run_scenario("honest/basic-lead", trials=2, params={"n": 6}).to_row()
        lines = [
            "",
            "not json at all {",
            json.dumps({"unrelated": True}),
            json.dumps(row, sort_keys=True),
            "[1, 2, 3]",
        ]
        keys = completed_keys(lines)
        assert keys == {row_resume_key(row)}

    def test_empty_input_completes_nothing(self):
        assert completed_keys([]) == set()

    def test_malformed_budget_fields_are_ignored_not_fatal(self):
        """A corrupt 'budget' object in a previous --out file must cause
        a re-run of that point, never a crash of the resume itself."""
        good = run_scenario("honest/basic-lead", trials=2, params={"n": 6}).to_row()
        corrupt = dict(good, budget={"ci_width": 5, "min_trials": 1, "max_trials": 2})
        foreign = dict(good, budget=[1, 2, 3])
        keys = completed_keys(
            [json.dumps(r, sort_keys=True) for r in (corrupt, foreign, good)]
        )
        assert keys == {row_resume_key(good)}


class TestSweepScenarioValidation:
    def test_unknown_grid_key_raises_eagerly_with_known_params(self):
        """The error must fire at call time (before any trial runs) and
        name the scenario's real parameters."""
        with pytest.raises(ConfigurationError) as excinfo:
            sweep(
                scenario="attack/cubic", trials=2, grid={"coalition_size": [4, 5]}
            )
        message = str(excinfo.value)
        assert "coalition_size" in message
        assert "k" in message and "n" in message and "target" in message

    def test_unknown_scenario_raises_eagerly(self):
        with pytest.raises(ConfigurationError):
            sweep(scenario="no/such", trials=1)

    @pytest.mark.parametrize("trials", [None, -1])
    def test_missing_or_negative_trials_raise_eagerly(self, trials):
        """No trials and no budget, or a negative count, fails at call
        time — not on the first next()."""
        with pytest.raises(ConfigurationError):
            sweep(scenario="attack/basic-cheat", trials=trials, grid={"n": [8]})


class TestSweepResume:
    def _rows(self, grid, completed=None):
        return [
            r.to_row()
            for r in sweep(
                scenario="attack/basic-cheat",
                trials=4,
                grid=grid,
                base_seed=2,
                completed=completed,
            )
        ]

    def test_completed_points_are_skipped(self):
        full = self._rows({"n": [8, 12, 16], "target": [2]})
        done = {row_resume_key(full[0]), row_resume_key(full[2])}
        remaining = self._rows({"n": [8, 12, 16], "target": [2]}, completed=done)
        assert remaining == [full[1]]

    def test_resume_with_everything_done_runs_nothing(self):
        full = self._rows({"n": [8, 12]})
        done = {row_resume_key(r) for r in full}
        assert self._rows({"n": [8, 12]}, completed=done) == []

    def test_resumed_rows_equal_fresh_rows(self):
        """Skipping points never changes the rows that do run."""
        full = self._rows({"n": [8, 12]})
        resumed = self._rows(
            {"n": [8, 12]}, completed={row_resume_key(full[0])}
        )
        assert resumed == full[1:]

    def test_rows_from_a_different_step_budget_are_not_skipped(self):
        """A budget-truncated run must not satisfy a default-budget
        resume (its rows are all-FAIL artifacts of the budget)."""
        truncated = [
            r.to_row()
            for r in sweep(
                scenario="attack/basic-cheat",
                trials=4,
                grid={"n": [8]},
                base_seed=2,
                max_steps=5,
            )
        ]
        assert truncated[0]["fail_rate"] == 1.0
        done = {row_resume_key(r) for r in truncated}
        fresh = self._rows({"n": [8]}, completed=done)
        assert len(fresh) == 1
        assert fresh[0]["fail_rate"] == 0.0

    def test_different_base_seed_does_not_match_completed(self):
        full = self._rows({"n": [8]})
        done = {row_resume_key(r) for r in full}
        other_seed = [
            r.to_row()
            for r in sweep(
                scenario="attack/basic-cheat",
                trials=4,
                grid={"n": [8]},
                base_seed=3,
                completed=done,
            )
        ]
        assert len(other_seed) == 1  # not skipped: different identity
