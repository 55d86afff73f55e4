"""Integration tests: honest executions of all three protocols.

Covers the FLE definition (Section 2): every honest execution terminates
with a unanimous valid output, and outcomes are uniform over repeated runs
(chi-square at generous thresholds given trial counts).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.distribution import chi_square_uniformity
from repro.experiments import run_scenario
from repro.protocols.alead_uni import alead_uni_protocol
from repro.protocols.basic_lead import basic_lead_protocol
from repro.protocols.phase_async import (
    PhaseAsyncParams,
    phase_async_protocol,
)
from repro.sim.execution import run_protocol
from repro.sim.topology import unidirectional_ring

PROTOCOLS = {
    "basic": basic_lead_protocol,
    "alead": alead_uni_protocol,
    "phase": phase_async_protocol,
}
#: The registered scenario running each protocol honestly.
SCENARIOS = {
    "basic": "honest/basic-lead",
    "alead": "honest/alead-uni",
    "phase": "honest/phase-async",
}


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 25])
def test_honest_run_succeeds(name, n):
    topo = unidirectional_ring(n)
    res = run_protocol(topo, PROTOCOLS[name](topo), seed=1000 + n)
    assert not res.failed, res.fail_reason
    assert 1 <= res.outcome <= n
    # Unanimity: every processor terminated with the same output.
    assert set(res.outputs.values()) == {res.outcome}
    assert len(res.outputs) == n


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
@given(n=st.integers(2, 20), seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_honest_run_succeeds_property(name, n, seed):
    topo = unidirectional_ring(n)
    res = run_protocol(topo, PROTOCOLS[name](topo), seed=seed)
    assert not res.failed, res.fail_reason
    assert 1 <= res.outcome <= n


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_message_counts(name):
    """Each processor sends exactly its prescribed number of messages."""
    n = 9
    topo = unidirectional_ring(n)
    res = run_protocol(topo, PROTOCOLS[name](topo), seed=5)
    expected = 2 * n if name == "phase" else n
    for pid in topo.nodes:
        assert res.trace.sent_count(pid) == expected, pid


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_uniformity(name):
    """Outcome distribution is indistinguishable from uniform."""
    dist = run_scenario(
        SCENARIOS[name], 400, base_seed=42, params={"n": 8},
        keep_outcomes=False,
    ).distribution
    assert dist.fail_count == 0
    p = chi_square_uniformity(dist)
    assert p > 1e-4, f"uniformity rejected: p={p}, counts={dist.valid_counts()}"


def test_alead_all_processors_same_sum():
    """Lemma 3.4 in the honest case: all processors compute one sum."""
    n = 11
    topo = unidirectional_ring(n)
    res = run_protocol(topo, alead_uni_protocol(topo), seed=77)
    assert len(set(res.outputs.values())) == 1


def test_phase_async_sum_variant_runs():
    n = 10
    topo = unidirectional_ring(n)
    params = PhaseAsyncParams.sum_variant(n)
    res = run_protocol(topo, phase_async_protocol(topo, params), seed=3)
    assert not res.failed
    assert 1 <= res.outcome <= n


def test_phase_async_key_changes_output():
    """Re-keying f samples a different random function (usually)."""
    n = 12
    topo = unidirectional_ring(n)
    outcomes = set()
    for key in range(6):
        params = PhaseAsyncParams(n=n, key=key)
        res = run_protocol(topo, phase_async_protocol(topo, params), seed=99)
        assert not res.failed
        outcomes.add(res.outcome)
    assert len(outcomes) > 1


def test_phase_async_rejects_mismatched_params():
    from repro.util.errors import ConfigurationError

    topo = unidirectional_ring(6)
    with pytest.raises(ConfigurationError):
        phase_async_protocol(topo, PhaseAsyncParams(n=7))


def test_phase_async_requires_consecutive_ids():
    from repro.sim.topology import Topology
    from repro.util.errors import ConfigurationError

    topo = Topology([5, 6, 7], [(5, 6), (6, 7), (7, 5)])
    with pytest.raises(ConfigurationError):
        phase_async_protocol(topo)
