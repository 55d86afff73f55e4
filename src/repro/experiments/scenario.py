"""Scenario specifications and the scenario registry.

A *scenario* names everything needed to run one Monte-Carlo trial of an
experiment: how to build the topology, how to build the protocol vector
(honest or adversarial), which scheduler to use, the default parameters,
and what counts as *success* for a trial. Bundling these behind a name
means the CLI, the benchmarks, and the examples all share one wiring
instead of each hand-rolling topology/protocol/scheduler glue.

Registry usage::

    from repro.experiments import get_scenario, register_scenario

    spec = get_scenario("attack/basic-cheat")
    params = spec.resolve_params({"n": 64, "target": 40})

Scenario names are flat strings; the builtin catalog uses the
``honest/<protocol>`` and ``attack/<name>`` convention. The registry is
import-time populated (see :mod:`repro.experiments.catalog`), so worker
processes that merely ``import repro.experiments`` can resolve any
builtin scenario by name — the key property that lets the parallel
runner ship ``(name, params)`` pairs across process boundaries instead
of pickled closures.
"""

import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.sim.execution import FAIL
from repro.sim.strategy import Strategy
from repro.sim.topology import Topology, unidirectional_ring
from repro.util.errors import ConfigurationError

#: Scenario parameters: plain JSON-ish dict (ints/floats/strs/bools).
Params = Dict[str, Any]

#: Builds the communication graph for one trial.
TopologyFactory = Callable[[Params], Topology]

#: Builds the full strategy vector for one trial. The third argument is a
#: private random stream (label ``scenario``) drawn from the trial's
#: :class:`~repro.util.rng.RngRegistry`, for scenarios that randomise
#: their own setup (e.g. random adversary placement); deterministic
#: scenarios simply ignore it.
ProtocolFactory = Callable[[Topology, Params, random.Random], Mapping[Hashable, Strategy]]

#: Classifies one finished trial's outcome as success/failure.
SuccessPredicate = Callable[[Any, Params], bool]

#: A self-contained trial for scenarios that do not run on the
#: asynchronous executor (lockstep sync engine, tree games, coin-toss
#: reductions, full-information games). Receives the resolved parameters,
#: the trial's private :class:`~repro.util.rng.RngRegistry` (derived from
#: ``(base_seed, index)`` exactly like executor trials), and the runner's
#: per-trial step budget override (``None`` = subsystem default). Must
#: return ``(outcome, steps)`` with a hashable outcome — and must derive
#: *all* randomness from the given registry so the registry-wide
#: determinism contract (identical rows at any worker count) holds.
TrialRunner = Callable[[Params, Any, Optional[int]], Tuple[Any, int]]

#: Post-processes a trial's raw outcome before scoring/histogramming
#: (e.g. leader id -> coin bit, renaming assignment -> one name). The
#: runner applies it on both paths: to each scalar trial, and to each
#: key of a kernel's histogram (merging keys that map alike).
OutcomeMap = Callable[[Any, Params], Any]

#: Vectorized whole-chunk trial kernel. Receives the chunk's per-trial
#: registry master seeds (trial ``i`` of an experiment always gets
#: ``derive_seed(base_seed, f"spawn:{i}")`` — exactly the seed of
#: :func:`repro.experiments.runner.trial_registry`) as a lazy
#: ``Sequence[int]`` whose ``len`` is free and whose iteration derives
#: the seeds, so a closed-form kernel that reads only ``len(seeds)``
#: hashes nothing. It also receives the resolved parameters, and
#: returns ``(outcome_counts, steps_total)`` where ``outcome_counts``
#: histograms the *raw* outcomes (before ``map_outcome``, which the
#: runner applies to the fold) and ``steps_total`` sums the per-trial
#: step counts.
#: The contract is bit-exactness: the counts must equal what running
#: ``run_one_trial`` per seed would fold to, which means deriving all
#: randomness from the same labelled streams (``derive_seed(seed,
#: label)``) the scalar path uses. A kernel may return ``None`` to
#: decline a batch (an unsupported parameter corner); the runner then
#: falls back to the per-trial loop for that chunk, so declining is
#: always safe, never wrong.
BatchRunner = Callable[[Sequence[int], Params], Optional[Tuple[Dict[Any, int], int]]]

#: Size of the election-shaped outcome space (valid ids ``1..n``) for
#: scenarios whose outcomes are not the network's processor ids.
OutcomeSize = Callable[[Params], int]


def no_valid_ids(params: Params) -> int:
    """``outcome_size`` for scenarios whose outcomes are not ids at all
    (coin bits, probabilities, certificate bounds): the histogram keeps
    every count, but the valid-id-range statistics
    (:meth:`~repro.analysis.distribution.OutcomeDistribution.max_probability`
    and friends) report an empty range instead of silently misreading
    foreign outcomes as processor ids."""
    return 0


def ring_topology(params: Params) -> Topology:
    """Unidirectional ring of ``params['n']`` processors — the builder
    most scenarios share (module-level, so it pickles to workers)."""
    return unidirectional_ring(params["n"])


def _default_success(outcome: Any, params: Params) -> bool:
    """Default success predicate: the execution did not globally fail."""
    return outcome != FAIL


def forced_target(outcome: Any, params: Params) -> bool:
    """Success predicate for forcing attacks: outcome equals ``target``."""
    return outcome == params["target"]


def punished(outcome: Any, params: Params) -> bool:
    """Success predicate for punishment demos: the deviation was caught.

    Used by scenarios whose *claim* is that cheating ends in ``FAIL``
    (the sync last-round cheater, the fuzzer's unstructured deviations):
    a "successful" trial is one where the punishment mechanism fired.
    """
    return outcome == FAIL


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, parameterised experiment setup.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"attack/cubic"``.
    description:
        One-line human summary (shown by ``python -m repro sweep --list``).
    build_topology / build_protocol:
        Factories invoked once per trial; trials run under the default
        :class:`~repro.sim.scheduler.FifoScheduler`. Both builders may
        be omitted when ``run_trial`` is given instead.
    run_trial:
        Self-contained trial function for scenarios outside the
        asynchronous executor (sync engine, tree games, coin-toss
        reductions, full-information games); mutually exclusive with the
        topology/protocol builders. See :data:`TrialRunner`.
    run_batch:
        Optional vectorized kernel folding a whole chunk of trials at
        once (see :data:`BatchRunner`). Purely an acceleration: the
        runner prefers it on the folded (no per-trial outcomes, no
        trace, default step budget) path and the kernel must reproduce
        the per-trial fold bit for bit, so rows cannot change. Composes
        with either trial style — it replaces the loop, not the trial
        definition.
    map_outcome:
        Optional post-map applied to each trial's raw outcome before the
        success predicate and histogram see it (e.g. leader id -> coin
        bit), on the scalar and the kernel path alike: a kernel
        histograms raw outcomes and the runner re-keys its fold.
        ``FAIL`` should normally be passed through unchanged.
    outcome_size:
        Overrides :meth:`size` — the ``n`` of the outcome histogram's
        valid-id range ``1..n``. Set this when the (possibly mapped)
        outcomes are not the topology's processor ids; use
        :func:`no_valid_ids` when they are not ids at all.
    defaults:
        Default parameter values; ``resolve_params`` overlays caller
        overrides on top and rejects unknown keys, so typos fail loudly
        instead of silently running the default grid point.
    success:
        Per-trial success classifier; defaults to "outcome is not FAIL".
    tags:
        Free-form labels (``"honest"``, ``"attack"``, ``"ring"``, ...).
    """

    name: str
    description: str
    build_topology: Optional[TopologyFactory] = None
    build_protocol: Optional[ProtocolFactory] = None
    run_trial: Optional[TrialRunner] = None
    run_batch: Optional[BatchRunner] = None
    map_outcome: Optional[OutcomeMap] = None
    outcome_size: Optional[OutcomeSize] = None
    defaults: Mapping[str, Any] = field(default_factory=dict)
    success: SuccessPredicate = _default_success
    tags: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.run_trial is not None:
            if self.build_topology or self.build_protocol:
                raise ConfigurationError(
                    f"scenario {self.name!r}: run_trial is mutually "
                    "exclusive with the topology/protocol builders"
                )
        elif not (self.build_topology and self.build_protocol):
            raise ConfigurationError(
                f"scenario {self.name!r} needs either run_trial or both "
                "build_topology and build_protocol"
            )

    def size(self, params: Params) -> int:
        """Outcome-space size for ``params`` — drives the histogram's
        valid-id range ``1..n``. An explicit ``outcome_size`` wins (the
        outcomes may not be processor ids, e.g. after ``map_outcome``);
        executor scenarios then measure their topology; ``run_trial``
        scenarios fall back to the ``n`` parameter (0 when absent, which
        leaves the histogram without a valid-id range)."""
        if self.outcome_size is not None:
            return self.outcome_size(params)
        if self.build_topology is not None:
            return len(self.build_topology(params))
        n = params.get("n", 0)
        return n if isinstance(n, int) else 0

    def resolve_params(self, overrides: Optional[Mapping[str, Any]] = None) -> Params:
        """Overlay ``overrides`` on the defaults, rejecting unknown keys."""
        params: Params = dict(self.defaults)
        if overrides:
            unknown = sorted(set(overrides) - set(params))
            if unknown:
                raise ConfigurationError(
                    f"scenario {self.name!r} has no parameters {unknown}; "
                    f"known: {sorted(params)}"
                )
            params.update(overrides)
        return params


_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the global registry (returned for chaining).

    Re-registering an existing name requires ``replace=True``; accidental
    collisions raise :class:`~repro.util.errors.ConfigurationError`.
    """
    if spec.name in _REGISTRY and not replace:
        raise ConfigurationError(f"scenario {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_scenario(name: str) -> None:
    """Remove ``name`` from the registry (no-op if absent); test helper."""
    _REGISTRY.pop(name, None)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered: {known}"
        ) from None


def scenario_names(tag: Optional[str] = None) -> List[str]:
    """Sorted names of all registered scenarios (optionally by tag)."""
    return sorted(
        name
        for name, spec in _REGISTRY.items()
        if tag is None or tag in spec.tags
    )


def known_tags() -> List[str]:
    """Sorted union of every registered scenario's tags — what an error
    message should offer when a requested tag matches nothing."""
    return sorted({tag for spec in _REGISTRY.values() for tag in spec.tags})


def all_scenarios() -> List[ScenarioSpec]:
    """All registered specs, sorted by name."""
    return [_REGISTRY[name] for name in scenario_names()]
