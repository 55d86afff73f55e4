"""The Monte-Carlo trial runner: deterministic fan-out over workers.

One *experiment* is a set of independent executions of a scenario, each
with its own derived seed. The runner owns the loop every caller used to
hand-roll:

- **Determinism by construction.** Trial ``i`` of an experiment with
  ``base_seed`` always runs from the registry seed
  ``derive_seed(base_seed, f"spawn:{i}")`` — a pure function of
  ``(base_seed, i)``. How trials are sliced into worker chunks, and how
  many workers there are, cannot change any trial's randomness; the same
  ``(scenario, params, trials, base_seed)`` produces the same outcomes
  with ``parallel=False``, one worker, or sixteen. (This derivation is
  exactly the one :func:`repro.analysis.distribution.estimate_distribution`
  has always used, so historical results are preserved bit-for-bit.)
- **Lean hot path.** Trials run with ``record_trace=False`` by default:
  Monte-Carlo estimation reads only outcomes, so the executor skips all
  event-object allocation.
- **Pool reuse.** The runner dispatches through a persistent
  :class:`~repro.experiments.pool.WorkerPool` — injected by the caller
  (sweeps, campaigns, frontier/fuzz loops share one pool across every
  experiment), or created lazily on first parallel use and kept for the
  runner's lifetime. Worker processes are never re-spawned between
  experiments.
- **Folded aggregates.** When the caller doesn't ask for per-trial
  outcomes (``keep_outcomes=False`` and no ``on_outcome``), worker
  chunks come back as outcome-count dicts plus success/step counters
  instead of pickled per-trial lists — counter addition is commutative,
  so the fold order never shows in the result and IPC volume stops
  scaling with the trial count.
- **Streamed per-trial outcomes.** When a consumer *does* ask for every
  trial (``on_outcome`` or ``keep_outcomes=True``) under a parallel
  pool, dispatches are capped at
  :data:`~repro.experiments.pool.STREAM_CHUNK_TRIALS` trials and come
  back as columnar packed tuples, so consumers receive outcomes in
  bounded, cheap IPC messages instead of one arbitrarily large pickled
  object list per dispatch.
- **Adaptive budgets.** ``run(budget=...)`` replaces the fixed trial
  count with a registered stop rule (Wilson width, relative precision,
  fail-rate target — see :mod:`~repro.experiments.budget`), evaluated
  on a deterministic batch schedule so the realized trial count is
  identical at any worker count.

The in-process mode (``parallel=False`` or one worker) runs the same
per-trial function with no multiprocessing at all — the mode tests use,
and the fallback for ad-hoc scenario specs built from closures that
cannot cross process boundaries.
"""

import time
from collections import Counter
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.distribution import OutcomeDistribution
from repro.analysis.stats import Proportion
from repro.experiments.budget import BudgetPolicy, BudgetRef, as_policy
from repro.experiments.chunking import AdaptiveChunker
from repro.experiments.pool import (
    STREAM_CHUNK_TRIALS,
    WorkerCount,
    WorkerPool,
    resolve_workers,
)
from repro.experiments.scenario import Params, ScenarioSpec, get_scenario
from repro.sim.execution import run_protocol
from repro.util.errors import ConfigurationError
from repro.util.rng import RngRegistry, derive_seed

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.experiments.campaign import PointState

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
    #: (like ``elapsed``), excluded from ``to_row()``; what the chunking
    #: benchmark and the cost-adaptive tests measure.
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
    record_trace: bool = False,
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
        result = _execute_trial(spec, params, registry, record_trace, max_steps)
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
    scheduler = spec.build_scheduler(params) if spec.build_scheduler else None
    return run_protocol(
        topology,
        protocol,
        scheduler=scheduler,
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


#: One chunk's work order, shipped to a worker. ``scenario`` is a builtin
#: name (resolved from the worker's own catalog) or a full spec by value.
#: The trailing ``use_batch`` flag opts the folded path in or out of a
#: scenario's vectorized kernel; it is optional (older 6-tuples still
#: parse, defaulting to batch-on) so pickled payloads stay compatible.
ChunkPayload = Tuple[ScenarioRef, Params, int, Tuple[int, ...], bool, Optional[int], bool]

#: A worker-side folded chunk: (outcome -> count, successes, steps total,
#: trial count, worker-measured elapsed seconds). Plain tuples pickle
#: small and fold commutatively. The trailing ``elapsed`` is scheduling
#: metadata — the cost-adaptive chunker's in-run feedback signal — and
#: never reaches a row: the first four elements alone decide results.
ChunkFold = Tuple[Dict[Any, int], int, int, int, float]


def _resolve_chunk_spec(scenario: ScenarioRef) -> ScenarioSpec:
    if isinstance(scenario, str):
        import repro.experiments  # noqa: F401 - registers the builtin catalog

        return get_scenario(scenario)
    return scenario


def _run_chunk(payload: ChunkPayload) -> List[TrialOutcome]:
    """Worker entry point: run a chunk, returning per-trial outcomes."""
    scenario, params, base_seed, indices, record_trace, max_steps = payload[:6]
    spec = _resolve_chunk_spec(scenario)
    return [
        run_one_trial(spec, params, base_seed, i, record_trace, max_steps)
        for i in indices
    ]


#: A worker-side *packed* chunk for the streamed outcome path: columnar
#: ``(indices, outcomes, steps, successes, elapsed)`` tuples. Per-trial
#: :class:`TrialOutcome` objects pickle as one class reference plus four
#: boxed fields *each*; four flat tuples carry the same data in a
#: fraction of the bytes, and the master rebuilds the objects locally.
#: The trailing worker-measured ``elapsed`` seconds feed the
#: cost-adaptive chunker and never reach a trial outcome.
PackedChunk = Tuple[
    Tuple[int, ...], Tuple[Any, ...], Tuple[int, ...], Tuple[bool, ...], float
]


def _run_chunk_packed(payload: ChunkPayload) -> PackedChunk:
    """Worker entry point for the streamed outcome path: run a chunk and
    return its trials as columnar tuples (see :data:`PackedChunk`).

    Paired with the :data:`~repro.experiments.pool.STREAM_CHUNK_TRIALS`
    chunk cap, this is what lets ``on_outcome`` consumers receive every
    trial in bounded, cheap IPC messages instead of one arbitrarily
    large pickled object list per dispatch.
    """
    scenario, params, base_seed, indices, record_trace, max_steps = payload[:6]
    spec = _resolve_chunk_spec(scenario)
    started = time.perf_counter()
    outcomes = []
    steps = []
    successes = []
    for i in indices:
        trial = run_one_trial(spec, params, base_seed, i, record_trace, max_steps)
        outcomes.append(trial.outcome)
        steps.append(trial.steps)
        successes.append(trial.success)
    return (
        tuple(indices),
        tuple(outcomes),
        tuple(steps),
        tuple(successes),
        time.perf_counter() - started,
    )


def _unpack_chunk(packed: PackedChunk) -> List[TrialOutcome]:
    """Rebuild a packed chunk's :class:`TrialOutcome` objects master-side
    (the trailing elapsed element, when present, is timing metadata the
    dispatcher consumes — trials never see it)."""
    indices, outcomes, steps, successes = packed[:4]
    return [
        TrialOutcome(index=i, outcome=o, steps=s, success=w)
        for i, o, s, w in zip(indices, outcomes, steps, successes)
    ]


def trial_seeds(base_seed: int, indices: Sequence[int]) -> List[int]:
    """The registry master seeds trials ``indices`` run from — what a
    :attr:`~repro.experiments.scenario.ScenarioSpec.run_batch` kernel
    receives. Seed ``i`` is exactly ``trial_registry(base_seed, i).seed``,
    computed without building the registry objects."""
    return [derive_seed(base_seed, f"spawn:{i}") for i in indices]


def _fold_batch(
    spec: ScenarioSpec, params: Params, base_seed: int, indices: Sequence[int]
) -> Optional[Tuple[Dict[Any, int], int, int, int]]:
    """Fold one chunk through the scenario's vectorized kernel.

    The kernel histograms final (post-``map_outcome``) outcomes, so the
    success counter is recovered here by scoring each distinct outcome
    once — the scenario's own ``success`` predicate stays the single
    definition of success on both paths. ``None`` (kernel declined, or
    trial-count mismatch) sends the chunk to the scalar loop.
    """
    result = spec.run_batch(trial_seeds(base_seed, indices), params)
    if result is None:
        return None
    counts, steps_total = result
    if sum(counts.values()) != len(indices):
        raise ConfigurationError(
            f"scenario {spec.name!r}: run_batch returned "
            f"{sum(counts.values())} outcomes for {len(indices)} seeds"
        )
    successes = sum(
        count for outcome, count in counts.items() if spec.success(outcome, params)
    )
    return (dict(counts), successes, steps_total, len(indices))


def _run_chunk_folded(payload: ChunkPayload) -> ChunkFold:
    """Worker entry point: run a chunk, returning only folded aggregates.

    The worker folds its own trials into an outcome histogram and
    success/step counters, so what crosses the process boundary is a
    handful of counts however many trials the chunk held. Addition is
    commutative, so the master can fold chunk results in arrival order.

    When the scenario carries a vectorized ``run_batch`` kernel, the
    fold is computed by the kernel instead of the per-trial loop —
    same counts bit for bit, fraction of the interpreter time. The
    kernel only applies where its contract does: the folded path with
    no trace and the default step budget (a custom ``max_steps`` can
    change executor outcomes, which closed-form kernels cannot see).
    """
    scenario, params, base_seed, indices, record_trace, max_steps = payload[:6]
    use_batch = payload[6] if len(payload) > 6 else True
    spec = _resolve_chunk_spec(scenario)
    started = time.perf_counter()
    if (
        use_batch
        and spec.run_batch is not None
        and not record_trace
        and max_steps is None
    ):
        batched = _fold_batch(spec, params, base_seed, indices)
        if batched is not None:
            return batched + (time.perf_counter() - started,)
    counts: Dict[Any, int] = {}
    successes = 0
    steps_total = 0
    for i in indices:
        trial = run_one_trial(spec, params, base_seed, i, record_trace, max_steps)
        counts[trial.outcome] = counts.get(trial.outcome, 0) + 1
        successes += int(trial.success)
        steps_total += trial.steps
    return (counts, successes, steps_total, len(indices), time.perf_counter() - started)


def chunk_payloads(
    spec: ScenarioSpec,
    params: Params,
    base_seed: int,
    indices: Sequence[int],
    record_trace: bool = False,
    max_steps: Optional[int] = None,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    max_chunk: Optional[int] = None,
    use_batch: bool = True,
    chunker: Optional[AdaptiveChunker] = None,
) -> List[ChunkPayload]:
    """Slice a trial-index range into worker chunk payloads.

    Shared by the runner and the campaign orchestrator so both ship the
    exact same work orders. Builtin scenarios go by *name* (workers
    resolve them from their own catalog import instead of unpickling
    arbitrary callables); user-registered and ad-hoc specs go by value —
    a worker under the spawn/forkserver start methods rebuilds only the
    builtin catalog, so a bare name would not resolve there.

    Sizing precedence: an explicit ``chunk_size`` always wins; otherwise
    a ``chunker`` with observed per-trial seconds for the scenario sizes
    chunks toward its wall-seconds target (see
    :class:`~repro.experiments.chunking.AdaptiveChunker`); otherwise the
    static count heuristic (~4 chunks per worker). ``max_chunk`` caps
    the result whatever chose it — the streamed outcome path uses it to
    bound per-dispatch IPC message size. Chunking never affects results,
    only scheduling.
    """
    count = len(indices)
    size = None
    if chunk_size is not None:
        size = chunk_size
    elif chunker is not None:
        size = chunker.chunk_size(spec.name, count, workers)
    if size is None:
        size = max(1, count // (workers * 4) or 1)
    if max_chunk is not None:
        size = min(size, max_chunk)
    ship = spec.name if _is_builtin(spec) else spec
    return [
        (
            ship,
            params,
            base_seed,
            tuple(indices[start : start + size]),
            record_trace,
            max_steps,
            use_batch,
        )
        for start in range(0, count, size)
    ]


class ExperimentRunner:
    """Fans a trial budget out over worker processes, deterministically.

    Parameters
    ----------
    workers:
        Worker-process count; ``1`` (the default) runs in-process and
        ``"auto"`` derives a clamped count from the machine (see
        :func:`~repro.experiments.pool.resolve_workers`). Ignored when
        ``pool`` is given — the pool's size wins.
    parallel:
        Force (``True``) or forbid (``False``) multiprocessing; ``None``
        derives it from ``workers > 1``. ``parallel=False`` with many
        workers is the test mode: same chunking, no processes.
    chunk_size:
        Trials per worker task; defaults to ~4 tasks per worker so slow
        chunks load-balance. Never affects results, only scheduling.
    record_trace:
        Forwarded to the executor; ``False`` (default) is the Monte-Carlo
        fast path.
    max_steps:
        Per-trial delivery budget override (``None`` = executor default).
    pool:
        A shared :class:`~repro.experiments.pool.WorkerPool` to dispatch
        through — the caller keeps ownership (the runner never closes
        it), so many runners and many experiments reuse one set of warm
        workers. Without one, the runner lazily creates its own pool on
        first parallel use and keeps it until :meth:`close` (or GC), so
        even a single runner amortises spawn cost across its ``run()``
        calls.
    use_batch:
        Whether folded chunks may run through a scenario's vectorized
        ``run_batch`` kernel (the default). ``False`` forces the
        per-trial loop everywhere — the equivalence tests' control
        mode; results are identical either way by contract.
    chunker:
        A :class:`~repro.experiments.chunking.AdaptiveChunker` sizing
        chunks from observed per-trial seconds (every folded chunk's
        measured elapsed feeds it back). ``None`` keeps the static
        count heuristic. Callers that own a ``.timings`` sidecar (the
        sweep/campaign/serve layers) pass a chunker seeded from it; an
        explicit ``chunk_size`` always wins over both. Chunking never
        affects results, only scheduling.
    """

    def __init__(
        self,
        workers: WorkerCount = 1,
        parallel: Optional[bool] = None,
        chunk_size: Optional[int] = None,
        record_trace: bool = False,
        max_steps: Optional[int] = None,
        pool: Optional[WorkerPool] = None,
        use_batch: bool = True,
        chunker: Optional[AdaptiveChunker] = None,
    ):
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if pool is not None:
            self.workers = pool.workers
        else:
            self.workers = resolve_workers(workers)
        self.parallel = parallel if parallel is not None else self.workers > 1
        self.chunk_size = chunk_size
        self.record_trace = record_trace
        self.max_steps = max_steps
        self.use_batch = use_batch
        self.chunker = chunker
        self._pool = pool
        self._owns_pool = pool is None

    # -- pool lifecycle ------------------------------------------------

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The pool this runner dispatches through (None until first use
        when self-owned)."""
        return self._pool

    def close(self) -> None:
        """Shut down a self-owned pool; injected pools are left alone."""
        if self._owns_pool and self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _shared_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(self.workers)
        return self._pool

    # -- internals -----------------------------------------------------

    def _dispatch(
        self, state: "PointState", start: int, end: int, fold: bool
    ) -> Iterable[Union[List[TrialOutcome], ChunkFold]]:
        """Run trials ``[start, end)`` of ``state``'s point, yielding
        chunk results as they arrive (folds, or per-trial lists)."""
        spec, point = state.spec, state.point
        indices = range(start, end)
        use_pool = self.parallel and self.workers > 1 and len(indices) > 1
        payloads = chunk_payloads(
            spec,
            point.params,
            point.base_seed,
            indices,
            self.record_trace,
            self.max_steps,
            workers=self.workers,
            # The calibration probe ships as one bounded chunk; otherwise
            # the runner-wide setting outranks the adaptive chunker.
            chunk_size=(
                state.probe if state.probe and end <= state.probe else self.chunk_size
            ),
            # Streamed outcome path: per-trial results cross the process
            # boundary, so bound every dispatch's pickled payload.
            max_chunk=STREAM_CHUNK_TRIALS if use_pool and not fold else None,
            use_batch=self.use_batch,
            chunker=self.chunker,
        )
        state.dispatches += len(payloads)
        # Per-trial chunks travel as packed columns (cheap, bounded IPC)
        # and are rebuilt into trial objects here.
        fn = _run_chunk_folded if fold else _run_chunk_packed
        if use_pool:
            results = self._shared_pool().imap_unordered(fn, payloads)
        else:
            results = map(fn, payloads)  # in-process: no pickling
        for result in results:
            if self.chunker is not None:
                trials = result[3] if fold else len(result[0])
                self.chunker.observe(spec.name, trials, result[4])
            yield result if fold else _unpack_chunk(result)

    # -- public API ----------------------------------------------------

    def run(
        self,
        scenario: ScenarioRef,
        trials: Optional[int] = None,
        base_seed: int = 0,
        params: Optional[Mapping[str, Any]] = None,
        on_outcome: Optional[Callable[[TrialOutcome], None]] = None,
        keep_outcomes: bool = True,
        budget: BudgetRef = None,
    ) -> ExperimentResult:
        """Run one experiment and fold the outcomes.

        Exactly one of ``trials`` (classic fixed budget) and ``budget``
        (adaptive Wilson stop, see
        :class:`~repro.experiments.budget.BudgetPolicy`) must be given.

        ``on_outcome`` (if given) observes every trial as its chunk
        arrives — arrival order is nondeterministic under parallelism,
        but the folded result and the final ``outcomes`` list (sorted by
        trial index) are not. With ``keep_outcomes=False`` and no
        ``on_outcome``, chunks are folded *inside the workers* and only
        aggregate counters cross the process boundary; the result's
        ``outcomes`` list is then empty (the distribution, success
        proportion, and row are identical either way).

        The experiment is one campaign point, batched, folded, and
        stopped by the same :class:`~repro.experiments.campaign.PointState`
        campaigns use.
        """
        # campaign.py builds on this module, so its point state is
        # imported at call time.
        from repro.experiments.campaign import CampaignPoint, PointState

        spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
        resolved = spec.resolve_params(params)
        policy = as_policy(budget)
        if policy is not None and trials is not None:
            raise ConfigurationError(
                "pass either a fixed trials count or an adaptive budget, not both"
            )
        if policy is None:
            if trials is None:
                raise ConfigurationError("trials is required without a budget")
            if trials < 0:
                raise ConfigurationError(f"trials must be >= 0, got {trials}")
        fold = not keep_outcomes and on_outcome is None
        probe = 0
        if (
            policy is None
            and fold
            and self.chunker is not None
            and self.chunk_size is None
        ):
            # In-run calibration: an unseen scenario's first chunk
            # runs at a bounded size so its measured elapsed seeds
            # the cost model, and the rest of this same point is
            # chunked from evidence instead of the count heuristic.
            probe = self.chunker.calibration_trials(spec.name, trials)
        point = CampaignPoint(
            spec.name, resolved, trials, base_seed, self.max_steps, policy
        )
        state = PointState(0, point, spec, probe)
        outcomes: List[TrialOutcome] = []

        def _fold_trials(chunk: List[TrialOutcome]) -> Tuple[Counter, int, int, int]:
            for trial in chunk:
                if keep_outcomes:
                    outcomes.append(trial)
                if on_outcome is not None:
                    on_outcome(trial)
            return (
                Counter(trial.outcome for trial in chunk),
                sum(int(trial.success) for trial in chunk),
                sum(trial.steps for trial in chunk),
                len(chunk),
            )

        for start, end in iter(state.next_batch, None):
            for chunk in self._dispatch(state, start, end, fold):
                state.fold(chunk if fold else _fold_trials(chunk))
            if state.converged():
                break
        result = state.finalize()
        result.outcomes = sorted(outcomes, key=lambda t: t.index)
        return result


def _is_builtin(spec: ScenarioSpec) -> bool:
    from repro.experiments.catalog import BUILTIN_SCENARIO_NAMES
    from repro.experiments.scenario import _REGISTRY

    return spec.name in BUILTIN_SCENARIO_NAMES and _REGISTRY.get(spec.name) is spec


def run_scenario(
    scenario: ScenarioRef,
    trials: Optional[int] = None,
    base_seed: int = 0,
    params: Optional[Mapping[str, Any]] = None,
    workers: WorkerCount = 1,
    keep_outcomes: bool = True,
    budget: BudgetRef = None,
    pool: Optional[WorkerPool] = None,
    on_outcome: Optional[Callable[[TrialOutcome], None]] = None,
    chunker: Optional[AdaptiveChunker] = None,
    **runner_kwargs: Any,
) -> ExperimentResult:
    """One-shot convenience: build a runner and run one experiment.

    Chunk sizing is cost-adaptive by default (a fresh
    :class:`~repro.experiments.chunking.AdaptiveChunker` per call);
    pass ``chunker=...`` to share a seeded model, or
    ``chunk_size=...`` (via ``runner_kwargs``) to pin it.
    """
    if chunker is None and "chunk_size" not in runner_kwargs:
        chunker = AdaptiveChunker()
    runner = ExperimentRunner(
        workers=workers, pool=pool, chunker=chunker, **runner_kwargs
    )
    try:
        return runner.run(
            scenario,
            trials,
            base_seed=base_seed,
            params=params,
            on_outcome=on_outcome,
            keep_outcomes=keep_outcomes,
            budget=budget,
        )
    finally:
        runner.close()
