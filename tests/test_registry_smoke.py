"""Smoke sweep: every registered scenario must run end to end.

A 2-trial sweep across the whole registry, marked ``smoke`` so CI runs
it as its own job step: a scenario whose defaults stopped being
feasible, whose builder broke, or whose outcome stopped being hashable/
JSON-serialisable fails the build here — not the user's overnight grid.
"""

import json

import pytest

from repro.experiments import expand_manifest, run_campaign, scenario_names


@pytest.mark.smoke
@pytest.mark.parametrize("name", scenario_names())
def test_two_trial_sweep_runs_for_every_scenario(name):
    rows = [
        result.to_row()
        for result in run_campaign(
            expand_manifest([{"scenario": name, "trials": 2, "base_seed": 0}])
        )
    ]
    assert len(rows) == 1
    row = rows[0]
    assert row["scenario"] == name
    assert row["trials"] == 2
    assert sum(row["outcomes"].values()) == 2
    # Rows must survive the JSON round trip the CLI streams them through.
    assert json.loads(json.dumps(row, sort_keys=True)) == row


@pytest.mark.smoke
def test_registry_is_nonempty_and_covers_the_paper():
    names = scenario_names()
    assert len(names) >= 25
    for prefix in ("sync/", "tree/", "cointoss/", "fullinfo/"):
        assert any(n.startswith(prefix) for n in names), prefix
