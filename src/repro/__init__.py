"""repro — reproduction of "Fair Leader Election for Rational Agents in
Asynchronous Rings and Networks" (Yifrach & Mansour, PODC 2018).

Public API highlights:

- :func:`repro.sim.run_protocol` + topologies — the asynchronous
  message-passing substrate.
- :mod:`repro.protocols` — Basic-LEAD, A-LEADuni, PhaseAsyncLead.
- :mod:`repro.attacks` — every adversarial deviation the paper analyses.
- :mod:`repro.experiments` — the Monte-Carlo experiment engine: the
  scenario registry, deterministic single runs (``run_scenario``), and
  parameter-grid sweeps (``python -m repro sweep``).
- :mod:`repro.analysis` — outcome distributions, bias estimation,
  synchronization-gap traces.
- :mod:`repro.cointoss` — FLE ⇔ fair coin toss reductions (Section 8).
- :mod:`repro.trees` — k-simulated tree impossibility machinery
  (Section 7 / Appendix F).
"""

from repro.sim import (
    FAIL,
    ABORT,
    run_protocol,
    unidirectional_ring,
    ExecutionResult,
)
from repro.protocols import (
    basic_lead_protocol,
    alead_uni_protocol,
    phase_async_protocol,
    PhaseAsyncParams,
    RandomFunction,
)
from repro.experiments import (
    ScenarioSpec,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
)

__version__ = "1.1.0"

__all__ = [
    "FAIL",
    "ABORT",
    "run_protocol",
    "unidirectional_ring",
    "ExecutionResult",
    "basic_lead_protocol",
    "alead_uni_protocol",
    "phase_async_protocol",
    "PhaseAsyncParams",
    "RandomFunction",
    "ScenarioSpec",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "scenario_names",
    "__version__",
]
