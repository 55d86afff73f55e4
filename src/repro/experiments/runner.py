"""Trials and work orders: what one Monte-Carlo trial is, and how a
range of them is cut, shipped and folded.

One *experiment* is a set of independent executions of a scenario, each
with its own derived seed. This module holds the pieces every backend
shares; the loop that drives an experiment is
:func:`~repro.experiments.campaign.run_scenario`, a one-point campaign.

- **Determinism by construction.** Trial ``i`` of an experiment with
  ``base_seed`` always runs from the registry seed
  ``derive_seed(base_seed, f"spawn:{i}")`` — a pure function of
  ``(base_seed, i)``. How trials are sliced into worker chunks, and how
  many workers there are, cannot change any trial's randomness; the same
  ``(scenario, params, trials, base_seed)`` produces the same outcomes
  in-process, on one worker, or on sixteen.
- **Lean hot path.** Trials run with the executor's trace off:
  Monte-Carlo estimation reads only outcomes, so the executor skips all
  event-object allocation.
- **Constant-size work orders.** :func:`chunk_payloads` cuts a trial
  range into :class:`ChunkPayload` work orders whose ``indices`` are
  themselves a ``range``, so a work order pickles to the same hundred
  or so bytes at any size.
- **Folded aggregates.** Every worker chunk comes back as a
  :class:`ChunkFold`: an outcome-count dict plus success/step counters.
  Counter addition is commutative, so the fold order never shows in the
  result and IPC volume stops scaling with the trial count. When the
  caller asks for per-trial outcomes (``keep_outcomes=True``), the chunk
  runs the scalar loop and fills the same fold's trial columns, so one
  worker entry point (:func:`_run_chunk_folded`) serves both. A node
  reports a lease's fold to the coordinator through the one codec,
  :meth:`ChunkFold.to_report` and :meth:`ChunkFold.from_report`.
"""

import collections.abc
import math
import time
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.distribution import OutcomeDistribution
from repro.analysis.stats import Proportion
from repro.experiments.budget import BudgetPolicy, BudgetRef, as_policy
from repro.experiments.chunking import CALIBRATION_TRIALS, AdaptiveChunker
from repro.experiments.scenario import Params, ScenarioSpec, get_scenario
from repro.sim.execution import run_protocol
from repro.util.errors import ConfigurationError
from repro.util.rng import RngRegistry, derive_seed, derive_seeds

#: A scenario argument: registered name or an (ad-hoc) spec object.
ScenarioRef = Union[str, ScenarioSpec]


def trial_registry(base_seed: int, index: int) -> RngRegistry:
    """The :class:`RngRegistry` trial ``index`` runs from — pure in
    ``(base_seed, index)``, independent of worker layout. Delegates to
    :meth:`RngRegistry.spawn` so the derivation stays structurally
    identical to the legacy serial loops' ``spawn(str(t))``."""
    return RngRegistry(base_seed).spawn(str(index))


@dataclass(frozen=True)
class TrialOutcome:
    """One finished trial, reduced to what experiments aggregate."""

    index: int
    outcome: Any
    steps: int
    success: bool


@dataclass
class ExperimentResult:
    """Aggregated result of one experiment (one scenario, one grid point)."""

    scenario: str
    params: Params
    trials: int
    base_seed: int
    outcomes: List[TrialOutcome]
    distribution: OutcomeDistribution
    successes: Proportion
    max_steps: Optional[int] = None  # per-trial budget the rows ran under
    elapsed: float = 0.0  # wall-clock; excluded from to_row() determinism
    steps_total: int = 0  # summed delivery steps across all trials
    #: Worker chunks this experiment dispatched — scheduling metadata
    #: (like ``elapsed``), excluded from ``to_row()``; what the
    #: cost-adaptive tests measure.
    dispatches: int = 0
    budget: Optional[BudgetPolicy] = None  # adaptive policy, if one ran
    #: The experiment was abandoned at a chunk boundary by a deadline
    #: (campaign --point-timeout / --max-wall-clock): ``trials`` is then
    #: a scheduling-dependent partial count, so the row is marked and
    #: excluded from resume identities — a rerun retries the point.
    timed_out: bool = False

    @property
    def success_rate(self) -> float:
        return self.successes.estimate

    @property
    def fail_rate(self) -> float:
        return self.distribution.fail_rate

    def to_row(self) -> Dict[str, Any]:
        """A JSON-stable summary row (identical across worker counts).

        Fixed-budget rows keep the exact PR-2 schema; adaptive rows add
        one ``"budget"`` object (the policy identity) on top — their
        ``"trials"`` field records the *realized* count the stop rule
        settled on, which is itself deterministic.
        """
        row = {
            "scenario": self.scenario,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "trials": self.trials,
            "base_seed": self.base_seed,
            "max_steps": self.max_steps,
            "successes": self.successes.successes,
            "success_rate": round(self.success_rate, 6),
            "success_low": round(self.successes.low, 6),
            "success_high": round(self.successes.high, 6),
            "fail_rate": round(self.fail_rate, 6),
            "outcomes": {
                str(outcome): count
                for outcome, count in sorted(
                    self.distribution.counts.items(), key=lambda kv: str(kv[0])
                )
            },
        }
        if self.budget is not None:
            row["budget"] = self.budget.to_key()
        if self.timed_out:
            # Only present on abandoned experiments, so every completed
            # row stays byte-identical to the pre-deadline format.
            row["timed_out"] = True
        return row


def run_one_trial(
    spec: ScenarioSpec,
    params: Params,
    base_seed: int,
    index: int,
    max_steps: Optional[int] = None,
) -> TrialOutcome:
    """Run trial ``index`` of an experiment and score it.

    This is *the* definition of a trial — the parallel and in-process
    paths both funnel through it, which is what makes them agree.
    Scenarios with a custom ``run_trial`` (sync engine, tree games,
    coin-toss reductions, full-information games) bypass the executor but
    keep the same registry derivation, so the determinism contract is
    identical for every registered scenario.
    """
    registry = trial_registry(base_seed, index)
    if spec.run_trial is not None:
        outcome, steps = spec.run_trial(params, registry, max_steps)
    else:
        result = _execute_trial(spec, params, registry, False, max_steps)
        outcome, steps = result.outcome, result.steps
    if spec.map_outcome is not None:
        outcome = spec.map_outcome(outcome, params)
    return TrialOutcome(
        index=index,
        outcome=outcome,
        steps=steps,
        success=spec.success(outcome, params),
    )


def _execute_trial(
    spec: ScenarioSpec,
    params: Params,
    registry: RngRegistry,
    record_trace: bool,
    max_steps: Optional[int],
):
    """The executor wiring of one trial — the single definition both the
    Monte-Carlo path and :func:`run_traced_trial` share, so a traced run
    is byte-for-byte the execution the untraced trial would have been."""
    topology = spec.build_topology(params)
    protocol = spec.build_protocol(topology, params, registry.stream("scenario"))
    return run_protocol(
        topology,
        protocol,
        rng=registry,
        max_steps=max_steps,
        record_trace=record_trace,
    )


def run_traced_trial(
    scenario: ScenarioRef,
    params: Optional[Mapping[str, Any]] = None,
    base_seed: int = 0,
    index: int = 0,
    max_steps: Optional[int] = None,
):
    """Run one executor trial of a scenario with the event trace ON.

    Same wiring and registry derivation as :func:`run_one_trial`, but
    returns the full :class:`~repro.sim.execution.ExecutionResult` so
    observability tooling (sync-gap ablations, message-complexity
    counts) can read the trace of exactly the execution the Monte-Carlo
    path would have run. Only available for executor-backed scenarios —
    ``run_trial`` scenarios have no event trace to record.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if spec.run_trial is not None:
        raise ConfigurationError(
            f"scenario {spec.name!r} runs outside the executor; "
            "it has no event trace"
        )
    resolved = spec.resolve_params(params)
    return _execute_trial(
        spec, resolved, trial_registry(base_seed, index), True, max_steps
    )


class ChunkPayload(NamedTuple):
    """One chunk's work order, shipped to a worker.

    ``scenario`` is a builtin name (resolved from the worker's own
    catalog) or a full spec by value. ``indices`` is the chunk's trial
    ``range``: it pickles in a few dozen bytes however many trials it
    spans, so a work order costs the same to cut, ship and unpack at
    ten trials or a million. ``keep_outcomes`` asks for the chunk's
    trials back as columns; ``use_batch`` opts the chunk in or out of a
    scenario's vectorized kernel.
    """

    scenario: ScenarioRef
    params: Params
    base_seed: int
    indices: range
    keep_outcomes: bool
    max_steps: Optional[int]
    use_batch: bool


class ChunkFold(NamedTuple):
    """A folded chunk: what a worker sends back, and what a node reports.

    ``counts`` (outcome -> count), ``successes``, ``steps_total`` and
    ``trials`` fold commutatively and alone decide results. ``elapsed``
    is the chunk's measured wall seconds: scheduling metadata that feeds
    the cost models and never reaches a row. It is carried unvalidated,
    so a report's missing or non-finite value arrives as is and the
    cost model drops it. A ``keep_outcomes`` chunk also fills the four
    trial columns, one entry per trial: the payload's ``indices`` range,
    then ``outcomes``, ``trial_steps`` and ``trial_successes`` tuples,
    which pickle in a fraction of the bytes per-trial objects would.
    """

    counts: Dict[Any, int]
    successes: int
    steps_total: int
    trials: int
    elapsed: Any
    indices: Optional[range] = None
    outcomes: Optional[Tuple[Any, ...]] = None
    trial_steps: Optional[Tuple[int, ...]] = None
    trial_successes: Optional[Tuple[bool, ...]] = None

    def kept(self) -> Iterator[TrialOutcome]:
        """The chunk's trials, from its columns (none unless the chunk
        ran with ``keep_outcomes``)."""
        if self.indices is None:
            return iter(())
        return map(
            TrialOutcome,
            self.indices,
            self.outcomes,
            self.trial_steps,
            self.trial_successes,
        )

    def to_report(self) -> Dict[str, Any]:
        """The fold's fields of a node's ``/report`` body.

        Outcome keys become ``str(outcome)``: the stringification
        :meth:`ExperimentResult.to_row` applies, so the coordinator's
        JSON-keyed fold matches a local one."""
        counts: Dict[str, int] = {}
        for outcome, count in self.counts.items():
            key = str(outcome)
            counts[key] = counts.get(key, 0) + count
        return {
            "counts": counts,
            "successes": self.successes,
            "steps_total": self.steps_total,
            "trials": self.trials,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_report(cls, payload: Mapping[str, Any]) -> "ChunkFold":
        """Parse and check the fold of a ``/report`` body.

        Raises :class:`ConfigurationError` on a count that is not a
        non-negative integer, ``successes`` above ``trials``, or counts
        that do not sum to ``trials``. ``elapsed`` is taken as is."""
        trials = checked_int(payload.get("trials"), "trials")
        successes = checked_int(payload.get("successes"), "successes")
        steps_total = checked_int(payload.get("steps_total"), "steps_total")
        if successes > trials:
            raise ConfigurationError(
                f"successes ({successes}) cannot exceed trials ({trials})"
            )
        raw_counts = payload.get("counts")
        if not isinstance(raw_counts, Mapping):
            raise ConfigurationError(
                f"counts must be an object, got {raw_counts!r}"
            )
        counts = {
            str(outcome): checked_int(count, f"counts[{outcome!r}]")
            for outcome, count in raw_counts.items()
        }
        if sum(counts.values()) != trials:
            raise ConfigurationError(
                f"counts sum to {sum(counts.values())} but the report "
                f"claims {trials} trials"
            )
        return cls(counts, successes, steps_total, trials, payload.get("elapsed"))


def checked_int(value: Any, name: str, minimum: int = 0) -> int:
    """An integer from the wire, with the bool-excluding guard every
    numeric field in this codebase uses (``isinstance(True, int)``)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return value


def _resolve_chunk_spec(scenario: ScenarioRef) -> ScenarioSpec:
    if isinstance(scenario, str):
        import repro.experiments  # noqa: F401 - registers the builtin catalog

        return get_scenario(scenario)
    return scenario


class TrialSeeds(collections.abc.Sequence):
    """The lazy sequence :func:`trial_seeds` returns.

    ``len`` is free; iterating derives each seed from one hasher primed
    with ``f"{base_seed}:spawn:"``; an int index derives that one seed.
    So a closed-form kernel that reads only ``len(seeds)`` hashes
    nothing.
    """

    __slots__ = ("base_seed", "indices")

    def __init__(self, base_seed: int, indices: Sequence[int]):
        self.base_seed = base_seed
        self.indices = indices

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return derive_seeds(self.base_seed, "spawn:", self.indices)

    def __getitem__(self, position):
        if isinstance(position, slice):
            return TrialSeeds(self.base_seed, self.indices[position])
        return derive_seed(self.base_seed, f"spawn:{self.indices[position]}")


def trial_seeds(base_seed: int, indices: Sequence[int]) -> TrialSeeds:
    """The registry master seeds trials ``indices`` run from — what a
    :attr:`~repro.experiments.scenario.ScenarioSpec.run_batch` kernel
    receives. Seed ``i`` is exactly ``trial_registry(base_seed, i).seed``,
    computed without building the registry objects. The result is a
    lazy ``Sequence[int]``: ``len`` is free, and only iterating or
    indexing it derives seeds."""
    return TrialSeeds(base_seed, indices)


def _kernel_applies(
    spec: ScenarioSpec,
    use_batch: bool,
    keep_outcomes: bool,
    max_steps: Optional[int],
) -> bool:
    """Whether a chunk of ``spec`` runs through its ``run_batch`` kernel.

    Only where the kernel's contract holds: batching allowed, no
    per-trial outcomes requested, and the default step budget (a custom
    ``max_steps`` can change executor outcomes, which closed-form
    kernels cannot see). The worker decides its path with this, and
    chunk sizing and the cost model key by it, so sizing never assumes
    a kernel the worker then skips.
    """
    return (
        use_batch
        and spec.run_batch is not None
        and not keep_outcomes
        and max_steps is None
    )


def cost_key(
    spec: ScenarioSpec,
    max_steps: Optional[int] = None,
    use_batch: bool = True,
    keep_outcomes: bool = False,
) -> str:
    """The cost-model key chunks of ``spec`` are timed and sized under.

    A kernel and the scalar loop of one scenario can differ by four
    orders of magnitude per trial, so they never share an EWMA: the
    scalar-path chunks of a kernel-capable scenario are keyed
    ``"<name> (scalar)"``. The kernel path, and every scenario without
    a kernel, keep the bare name, which is what timings recorded before
    the split carry, so old stores keep replaying.
    """
    if spec.run_batch is None or _kernel_applies(
        spec, use_batch, keep_outcomes, max_steps
    ):
        return spec.name
    return f"{spec.name} (scalar)"


def _fold_batch(
    spec: ScenarioSpec, params: Params, base_seed: int, indices: Sequence[int]
) -> Optional[Tuple[Dict[Any, int], int, int, int]]:
    """Fold one chunk through the scenario's vectorized kernel.

    The kernel histograms raw outcomes. This re-keys them through the
    scenario's ``map_outcome``, as :func:`run_one_trial` maps each
    trial, and scores each distinct outcome once with ``success``, so
    both paths share one definition of each. Returns ``(counts,
    successes, steps_total, trials)``; ``None`` (kernel declined) sends
    the chunk to the scalar loop, and a trial-count mismatch raises.
    """
    result = spec.run_batch(trial_seeds(base_seed, indices), params)
    if result is None:
        return None
    raw, steps_total = result
    if sum(raw.values()) != len(indices):
        raise ConfigurationError(
            f"scenario {spec.name!r}: run_batch returned "
            f"{sum(raw.values())} outcomes for {len(indices)} seeds"
        )
    counts: Dict[Any, int] = {}
    for outcome, count in raw.items():
        if spec.map_outcome is not None:
            outcome = spec.map_outcome(outcome, params)
        counts[outcome] = counts.get(outcome, 0) + count
    successes = sum(
        count for outcome, count in counts.items() if spec.success(outcome, params)
    )
    return (counts, successes, steps_total, len(indices))


def _run_chunk_folded(payload: ChunkPayload) -> ChunkFold:
    """Worker entry point: run a chunk, returning its folded aggregates.

    The worker folds its own trials into an outcome histogram and
    success/step counters, so what crosses the process boundary is a
    handful of counts however many trials the chunk held. Addition is
    commutative, so the master can fold chunk results in arrival order.

    When the scenario's vectorized ``run_batch`` kernel applies (see
    :func:`_kernel_applies`), the fold is computed by the kernel instead
    of the per-trial loop — same counts bit for bit, fraction of the
    interpreter time. A ``keep_outcomes`` chunk runs the scalar loop and
    fills the fold's trial columns (see :class:`ChunkFold`). A plain
    7-tuple in :class:`ChunkPayload` order is accepted too.
    """
    scenario, params, base_seed, indices, keep_outcomes, max_steps, use_batch = payload
    spec = _resolve_chunk_spec(scenario)
    started = time.perf_counter()
    if _kernel_applies(spec, use_batch, keep_outcomes, max_steps):
        batched = _fold_batch(spec, params, base_seed, indices)
        if batched is not None:
            return ChunkFold(*batched, time.perf_counter() - started)
    counts: Dict[Any, int] = {}
    successes = 0
    steps_total = 0
    kept: List[TrialOutcome] = []
    for i in indices:
        trial = run_one_trial(spec, params, base_seed, i, max_steps)
        counts[trial.outcome] = counts.get(trial.outcome, 0) + 1
        successes += int(trial.success)
        steps_total += trial.steps
        if keep_outcomes:
            kept.append(trial)
    elapsed = time.perf_counter() - started
    fold = ChunkFold(counts, successes, steps_total, len(indices), elapsed)
    if not keep_outcomes:
        return fold
    return fold._replace(
        indices=indices,
        outcomes=tuple(trial.outcome for trial in kept),
        trial_steps=tuple(trial.steps for trial in kept),
        trial_successes=tuple(trial.success for trial in kept),
    )


def check_trials(trials: Optional[int], budget: BudgetRef) -> Optional[BudgetPolicy]:
    """Require exactly one of a fixed ``trials`` count and an adaptive
    ``budget``; returns the budget as a policy (or None).

    A count must be an ``int`` >= 0, as in manifest entries: ``True``
    would run one trial under a resume key (``true``) that its own row
    (``1``) never matches, so a resumed sweep would re-run it forever.
    """
    policy = as_policy(budget)
    if policy is not None and trials is not None:
        raise ConfigurationError(
            "pass either a fixed trials count or an adaptive budget, not both"
        )
    if policy is None:
        if trials is None:
            raise ConfigurationError("trials is required without a budget")
        if isinstance(trials, bool) or not isinstance(trials, int) or trials < 0:
            raise ConfigurationError(
                f"trials must be a non-negative integer, got {trials!r}"
            )
    return policy


def chunk_payloads(
    spec: ScenarioSpec,
    params: Params,
    base_seed: int,
    indices: range,
    keep_outcomes: bool = False,
    max_steps: Optional[int] = None,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    use_batch: bool = True,
    chunker: Optional[AdaptiveChunker] = None,
) -> List[ChunkPayload]:
    """Slice a trial-index range into worker chunk payloads.

    Shared by every backend (local campaigns and single runs,
    coordinator nodes) so all of them ship the exact same work orders. Each
    payload's indices are a slice of the ``indices`` range, itself a
    ``range``, so cutting allocates nothing per trial and a payload
    pickles to the same few dozen bytes at any size. Builtin
    scenarios go by *name* (workers resolve them from their own catalog
    import instead of unpickling arbitrary callables); user-registered
    and ad-hoc specs go by value — a worker under the spawn/forkserver
    start methods rebuilds only the builtin catalog, so a bare name
    would not resolve there.

    Sizing precedence: an explicit ``chunk_size`` always wins; otherwise
    a ``chunker`` with observed per-trial seconds for the chunks'
    :func:`cost_key` sizes them toward its wall-seconds target (see
    :class:`~repro.experiments.chunking.AdaptiveChunker`); otherwise a
    cold rule fitted to the path that will run them. A kernel chunk
    costs microseconds to a few milliseconds a trial, so the range is
    split at most once per worker, and no chunk exceeds
    :data:`~repro.experiments.chunking.CALIBRATION_TRIALS` (the largest
    chunk ever shipped blind); scalar-loop chunks are cut ~4 per worker
    so slow trials load-balance. Chunking never affects results, only
    scheduling.
    """
    count = len(indices)
    size = chunk_size
    if size is None and chunker is not None:
        size = chunker.chunk_size(
            cost_key(spec, max_steps, use_batch, keep_outcomes), count, workers
        )
    if size is None:
        if _kernel_applies(spec, use_batch, keep_outcomes, max_steps):
            size = min(math.ceil(count / workers), CALIBRATION_TRIALS)
        else:
            size = count // (workers * 4)
        size = max(1, size)
    ship = spec.name if _is_builtin(spec) else spec
    return [
        ChunkPayload(
            ship,
            params,
            base_seed,
            indices[start : start + size],
            keep_outcomes,
            max_steps,
            use_batch,
        )
        for start in range(0, count, size)
    ]


def _is_builtin(spec: ScenarioSpec) -> bool:
    from repro.experiments.catalog import BUILTIN_SCENARIO_NAMES
    from repro.experiments.scenario import _REGISTRY

    return spec.name in BUILTIN_SCENARIO_NAMES and _REGISTRY.get(spec.name) is spec
