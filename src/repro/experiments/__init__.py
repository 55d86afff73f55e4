"""Unified Monte-Carlo experiment engine.

Five layers, each usable on its own:

- **Scenarios** (:mod:`~repro.experiments.scenario`): a
  :class:`ScenarioSpec` names a (topology, protocol/attack, scheduler,
  parameters, success predicate) bundle; the registry maps names like
  ``"attack/cubic"`` to specs. The builtin catalog
  (:mod:`~repro.experiments.catalog`) registers every protocol and
  attack from the paper at import time.
- **Worker pool** (:mod:`~repro.experiments.pool`): a persistent,
  context-managed :class:`WorkerPool` shared by consecutive experiments
  — grid points, fuzz campaigns — so worker processes
  spawn once, not once per experiment; ``resolve_workers("auto")``
  derives a clamped count from the machine.
- **Trials** (:mod:`~repro.experiments.runner`): trial ``i`` always
  derives its seed from ``(base_seed, i)`` alone, so results are
  identical at any worker count. Trials run with trace recording off
  (the executor's Monte-Carlo fast path); workers fold their own chunks
  and ship counters, plus the trials as columns when per-trial outcomes
  are requested. :func:`run_scenario` runs one experiment as a
  one-point campaign through the campaign's point loop, on the caller's
  pool or on one it opens for the call. An adaptive budget from the
  :mod:`~repro.experiments.budget` policy registry (``wilson-width``,
  ``relative-precision``, ``fail-rate-target``) can replace the fixed
  trial count with a deterministic batch-boundary stop.
- **Sweeps** (:mod:`~repro.experiments.sweep`): cartesian parameter
  grids over a scenario, run as a one-entry campaign, one JSON-stable
  row per grid point; surfaced on the command line as ``python -m repro
  sweep``.
- **Campaigns** (:mod:`~repro.experiments.campaign`): a JSON manifest of
  ``(scenario | tag, grid, trials, base_seed)`` entries run against one
  resume store with grid-level parallelism — chunks from many grid
  points interleave in the shared pool, admitted in manifest order;
  surfaced as ``python -m repro campaign`` with a ``--dry-run`` plan
  listing.
- **Results store** (:mod:`~repro.experiments.store`): the same rows in
  SQLite (WAL) instead of JSONL — resume keys unique-indexed, timed-out
  markers superseded transactionally, queries indexed by (scenario,
  params). Every ``sweep``/``campaign --out`` appends its rows to a
  store (:meth:`ResultStore.append_row`) and renders a JSONL ``--out``
  from it; :func:`parse_out_lines` is the one JSONL row parser (``python
  -m repro db import`` converts existing files with it); and ``python -m
  repro serve`` (:mod:`repro.serve`) answers precision queries from it.

Quick taste::

    from repro.experiments import run_scenario

    result = run_scenario(
        "attack/cubic", trials=200, params={"n": 111, "k": 6}, workers=4
    )
    print(result.successes)          # forcing rate with Wilson interval
    print(result.distribution.counts)
"""

from repro.experiments.budget import (
    BudgetPolicy,
    FailRateTargetPolicy,
    OutcomeRateTargetPolicy,
    RelativePrecisionPolicy,
    WilsonWidthPolicy,
    as_policy,
    policy_names,
    register_policy,
)
from repro.experiments.campaign import (
    CampaignDeadline,
    CampaignPoint,
    PointState,
    expand_manifest,
    load_manifest,
    run_campaign,
    run_scenario,
    slice_ranges,
)
from repro.experiments.chunking import (
    CALIBRATION_TRIALS,
    MIN_CHUNK_SECONDS,
    TARGET_CHUNK_SECONDS,
    AdaptiveChunker,
)
from repro.experiments.coordinator import (
    DEFAULT_LEASE_TRIALS,
    DEFAULT_LEASE_TTL,
    CampaignCoordinator,
    make_coordinator_server,
    serve_coordinator,
)
from repro.experiments.node import CoordinatorClient, lease_fold, run_node
from repro.experiments.pool import WorkerPool, resolve_workers
from repro.experiments.scenario import (
    Params,
    ScenarioSpec,
    all_scenarios,
    forced_target,
    get_scenario,
    known_tags,
    no_valid_ids,
    punished,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from repro.experiments.runner import (
    ExperimentResult,
    TrialOutcome,
    run_one_trial,
    run_traced_trial,
    trial_registry,
)
from repro.experiments.store import (
    ResultStore,
    StoreRowWriter,
    is_store_path,
    params_blob,
    parse_out_lines,
    timing_record,
)
from repro.experiments.sweep import (
    canonical_params,
    coerce_param,
    expand_grid,
    resume_key,
    retry_identity,
    row_resume_key,
    row_retry_identity,
)

# Importing the catalog registers the builtin scenarios as a side effect;
# keep it last so the registry machinery above is fully initialised.
from repro.experiments import catalog  # noqa: F401  (import for effect)

__all__ = [
    "AdaptiveChunker",
    "BudgetPolicy",
    "CALIBRATION_TRIALS",
    "CampaignCoordinator",
    "CampaignDeadline",
    "CampaignPoint",
    "CoordinatorClient",
    "DEFAULT_LEASE_TRIALS",
    "DEFAULT_LEASE_TTL",
    "MIN_CHUNK_SECONDS",
    "TARGET_CHUNK_SECONDS",
    "FailRateTargetPolicy",
    "OutcomeRateTargetPolicy",
    "PointState",
    "RelativePrecisionPolicy",
    "WilsonWidthPolicy",
    "WorkerPool",
    "as_policy",
    "expand_manifest",
    "lease_fold",
    "load_manifest",
    "make_coordinator_server",
    "policy_names",
    "register_policy",
    "resolve_workers",
    "retry_identity",
    "row_retry_identity",
    "run_campaign",
    "run_node",
    "serve_coordinator",
    "slice_ranges",
    "timing_record",
    "Params",
    "ScenarioSpec",
    "all_scenarios",
    "forced_target",
    "get_scenario",
    "known_tags",
    "no_valid_ids",
    "punished",
    "register_scenario",
    "scenario_names",
    "unregister_scenario",
    "ExperimentResult",
    "TrialOutcome",
    "run_one_trial",
    "run_scenario",
    "run_traced_trial",
    "trial_registry",
    "ResultStore",
    "StoreRowWriter",
    "canonical_params",
    "coerce_param",
    "expand_grid",
    "is_store_path",
    "params_blob",
    "parse_out_lines",
    "resume_key",
    "row_resume_key",
]
