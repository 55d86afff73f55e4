"""Campaigns: a manifest of scenario grids run against one resume store.

A *campaign* is the unit above a sweep: a JSON manifest of ``(scenario |
tag, grid, trials, base_seed)`` entries — the whole experimental section
of the paper as one file — expanded into concrete
:class:`CampaignPoint`\\ s and run through one shared
:class:`~repro.experiments.pool.WorkerPool` with **grid-level
parallelism**: chunks from *different* grid points interleave in the
pool, so a wide, shallow grid (many points, few trials each) keeps every
worker busy instead of serialising point-by-point. Points are admitted
in manifest order. Exposed on the command line as ``python -m repro
campaign manifest.json --out rows.jsonl --resume --workers N
[--dry-run]``.

Manifest format (top-level defaults overlaid by per-entry values; a bare
JSON list is accepted as ``entries`` with no defaults)::

    {
      "trials": 400,
      "base_seed": 0,
      "entries": [
        {"scenario": "attack/cubic", "grid": {"n": [66, 111], "target": 7}},
        {"tag": "sync", "trials": 100, "grid": {"n": [4, 8]}},
        {"scenario": "fuzz/random-deviation",
         "budget": {"ci_width": 0.1, "min_trials": 32, "max_trials": 2000}}
      ]
    }

``tag`` entries expand to every registered scenario carrying that tag.
An entry (or the campaign) may replace its fixed ``trials`` with an
adaptive ``budget`` (see :class:`~repro.experiments.budget.BudgetPolicy`).
Everything is validated eagerly at expansion time — unknown scenarios,
empty tags, grid keys a scenario does not declare, and malformed budgets
all raise before any trial runs.

Determinism contract: every row a campaign emits is identical to the row
a lone ``run_scenario``/``sweep`` call with the same identity would emit,
whatever the worker count or chunk interleaving — chunk folds are
commutative counters, and adaptive stop decisions happen only at batch
boundaries whose schedule is a pure function of the policy. Only the
*order* rows complete in is scheduling-dependent, which is why resume
keys, not file order, identify finished points.

Unattended robustness (the overnight contract):

- **Per-point deadlines** (``point_timeout=`` / ``--point-timeout``): a
  point that exceeds its budget is abandoned *cooperatively* at the next
  chunk boundary — its partial result is emitted as a ``timed_out`` row
  (excluded from resume identities, so a rerun retries it) while every
  other point keeps draining. The point's clock starts at its first
  chunk result, at every worker count. One pathological grid point can
  no longer stall a whole manifest.
- **A global wall-clock deadline** (``max_wall_clock=`` /
  ``--max-wall-clock``): when it expires the campaign stops admitting
  work, drains in-flight chunks into ``timed_out`` rows, and raises
  :class:`CampaignDeadline` — by then every finished row has been
  yielded, so the caller's stream is a complete checkpoint (the CLI
  finalises ``--out`` and exits with a distinct code).
"""

import json
import queue
import time
from collections import Counter, deque
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.distribution import OutcomeDistribution
from repro.analysis.stats import proportion
from repro.experiments.budget import BudgetPolicy, BudgetRef, as_policy
from repro.experiments.chunking import AdaptiveChunker
from repro.experiments.pool import WorkerCount, WorkerPool
from repro.experiments.runner import (
    ChunkFold,
    ChunkPayload,
    ExperimentResult,
    ScenarioRef,
    TrialOutcome,
    _run_chunk_folded,
    check_trials,
    checked_int,
    chunk_payloads,
    cost_key,
)
from repro.experiments.scenario import (
    Params,
    ScenarioSpec,
    get_scenario,
    known_tags,
    scenario_names,
)
from repro.experiments.sweep import expand_grid, resume_key
from repro.util.errors import ConfigurationError

#: Keys a manifest entry may carry.
_ENTRY_KEYS = {"scenario", "tag", "grid", "trials", "base_seed", "max_steps", "budget"}
#: Keys the manifest's top level may carry (campaign-wide defaults).
_TOP_KEYS = {"entries", "trials", "base_seed", "max_steps", "budget"}


@dataclass(frozen=True)
class CampaignPoint:
    """One fully-resolved experiment a campaign will run.

    ``params`` are resolved (defaults overlaid); exactly one of
    ``trials`` (fixed budget) and ``budget`` (adaptive) is set.
    """

    scenario: str
    params: Params
    trials: Optional[int]
    base_seed: int
    max_steps: Optional[int]
    budget: Optional[BudgetPolicy]

    def key(self) -> str:
        """The point's resume key — same function sweep rows use, so one
        output file can be shared by sweeps and campaigns."""
        return resume_key(
            self.scenario,
            self.params,
            self.trials,
            self.base_seed,
            self.max_steps,
            self.budget,
        )


def load_manifest(source: Union[str, Mapping, Sequence]) -> List[CampaignPoint]:
    """Load and expand a campaign manifest into concrete points.

    ``source`` is a JSON file path, an already-parsed manifest mapping,
    or a bare entry list. Expansion validates everything eagerly and
    deduplicates points by resume key (tag overlaps, repeated entries),
    preserving first-occurrence order.
    """
    if isinstance(source, str):
        try:
            with open(source) as f:
                raw = json.load(f)
        except OSError as exc:
            raise ConfigurationError(f"cannot read manifest: {exc}") from None
        except ValueError as exc:
            raise ConfigurationError(
                f"manifest {source!r} is not valid JSON: {exc}"
            ) from None
    else:
        raw = source
    return expand_manifest(raw)


def expand_manifest(raw: Union[Mapping, Sequence]) -> List[CampaignPoint]:
    """Expand a parsed manifest into validated, deduplicated points."""
    if isinstance(raw, Mapping):
        unknown = sorted(set(raw) - _TOP_KEYS)
        if unknown:
            raise ConfigurationError(
                f"manifest has unknown top-level keys {unknown}; "
                f"known: {sorted(_TOP_KEYS)}"
            )
        entries = raw.get("entries")
        defaults = raw
    elif isinstance(raw, Sequence) and not isinstance(raw, (str, bytes)):
        entries, defaults = raw, {}
    else:
        raise ConfigurationError(
            "manifest must be an object with 'entries' or a list of entries"
        )
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise ConfigurationError("manifest 'entries' must be a list")
    if not entries:
        raise ConfigurationError("manifest has no entries")

    points: List[CampaignPoint] = []
    seen_keys = set()
    for position, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ConfigurationError(
                f"manifest entry #{position} must be an object"
            )
        unknown = sorted(set(entry) - _ENTRY_KEYS)
        if unknown:
            raise ConfigurationError(
                f"manifest entry #{position} has unknown keys {unknown}; "
                f"known: {sorted(_ENTRY_KEYS)}"
            )
        for point in _expand_entry(position, entry, defaults):
            key = point.key()
            if key not in seen_keys:
                seen_keys.add(key)
                points.append(point)
    return points


def _expand_entry(
    position: int, entry: Mapping[str, Any], defaults: Mapping[str, Any]
) -> Iterator[CampaignPoint]:
    where = f"manifest entry #{position}"
    has_scenario = "scenario" in entry
    has_tag = "tag" in entry
    if has_scenario == has_tag:
        raise ConfigurationError(
            f"{where} needs exactly one of 'scenario' or 'tag'"
        )
    if has_tag:
        names = scenario_names(tag=entry["tag"])
        if not names:
            tags = ", ".join(known_tags()) or "<none>"
            raise ConfigurationError(
                f"{where}: no registered scenario has tag {entry['tag']!r}; "
                f"known tags: {tags}"
            )
    else:
        names = [get_scenario(entry["scenario"]).name]

    def _setting(key: str) -> Any:
        return entry[key] if key in entry else defaults.get(key)

    if "budget" in entry and "trials" in entry:
        raise ConfigurationError(
            f"{where} sets both 'trials' and 'budget'; pick one"
        )
    budget = as_policy(_setting("budget")) if "budget" in entry else None
    trials = None
    if budget is None:
        # No entry-level budget: an entry-level trials wins, then the
        # campaign default trials, then the campaign default budget.
        if entry.get("trials") is not None:
            trials = entry["trials"]
        elif defaults.get("trials") is not None:
            trials = defaults["trials"]
        elif defaults.get("budget") is not None:
            budget = as_policy(defaults["budget"])
        else:
            raise ConfigurationError(
                f"{where} has no 'trials' or 'budget' "
                "(own or campaign-level)"
            )
    if trials is not None:
        if not isinstance(trials, int) or isinstance(trials, bool) or trials < 0:
            raise ConfigurationError(
                f"{where}: trials must be a non-negative integer, got {trials!r}"
            )
    base_seed = _setting("base_seed") or 0
    max_steps = _setting("max_steps")
    grid = entry.get("grid")
    if grid is not None and not isinstance(grid, Mapping):
        raise ConfigurationError(f"{where}: 'grid' must be an object")
    for name in names:
        spec = get_scenario(name)
        for grid_point in expand_grid(grid):
            yield CampaignPoint(
                scenario=name,
                params=spec.resolve_params(grid_point),
                trials=trials,
                base_seed=base_seed,
                max_steps=max_steps,
                budget=budget,
            )


# ----------------------------------------------------------------------
# The orchestrator
# ----------------------------------------------------------------------


def check_seconds(name: str, value: Any) -> None:
    """Reject a duration that is not a positive number of seconds."""
    # `not >` (instead of `<=`) so NaN is rejected too: every comparison
    # against a NaN deadline is False, which would silently disarm the
    # guard the caller asked for.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise ConfigurationError(
            f"{name} must be a positive number of seconds, got {value!r}"
        )


def pending_points(
    points: Sequence[CampaignPoint],
    completed: Optional[Collection[str]],
) -> Tuple[Dict[str, ScenarioSpec], List[CampaignPoint]]:
    """Resolve ``points`` eagerly and drop the ``completed`` resume
    keys, keeping manifest order; returns ``(specs, todo)``.

    Eager resolution means a stale manifest or an unknown parameter
    fails before work starts, hand-built points with partial params run
    identically on every backend (workers and nodes get fully-resolved
    params), and resume keys are computed on resolved params — the same
    normalisation sweep rows get.
    """
    specs: Dict[str, ScenarioSpec] = {}
    normalized: List[CampaignPoint] = []
    for point in points:
        spec = specs.get(point.scenario)
        if spec is None:
            spec = specs[point.scenario] = get_scenario(point.scenario)
        resolved = spec.resolve_params(point.params)
        if resolved != point.params:
            point = replace(point, params=resolved)
        normalized.append(point)
    done = frozenset(completed) if completed else frozenset()
    return specs, [p for p in normalized if p.key() not in done]


class CampaignDeadline(Exception):
    """The campaign's global wall-clock budget (``max_wall_clock``) ran out.

    Raised by the :func:`run_campaign` iterator *after* it has yielded a
    row for every point that finished — and a ``timed_out`` row for each
    point the deadline abandoned mid-run — so the stream the caller
    consumed is a complete checkpoint: persist it, resume later, and
    only the unfinished points re-run. ``pending`` counts points that
    never started a trial. The CLI maps this to its own distinct exit
    code so overnight wrappers can tell "deadline, resume me" from
    success and from real failures.
    """

    def __init__(self, pending: int):
        self.pending = pending
        super().__init__(
            f"campaign wall-clock deadline reached; {pending} point(s) "
            "not started (finished rows were checkpointed)"
        )


def _campaign_chunk(tagged: Tuple[int, ChunkPayload]) -> Tuple[int, ChunkFold]:
    """Worker entry point: a point-tagged folded chunk, so results from
    interleaved grid points find their way back to the right fold."""
    point_id, payload = tagged
    return (point_id, _run_chunk_folded(payload))


def slice_ranges(
    start: int, end: int, lease_trials: int
) -> List[Tuple[int, int]]:
    """Split the trial range ``[start, end)`` into consecutive
    ``[s, e)`` slices of at most ``lease_trials`` trials each.

    The distributed coordinator's shard rule: trial ``i``'s seed is a
    pure function of ``(base_seed, i)`` and folds are commutative, so a
    batch sliced into leases produces byte-identical rows however the
    slices land on nodes — slicing is pure scheduling metadata, exactly
    like chunk sizing.
    """
    checked_int(lease_trials, "lease_trials", 1)
    return [
        (s, min(s + lease_trials, end)) for s in range(start, end, lease_trials)
    ]


class PointState:
    """Master-side fold state of one in-flight campaign point.

    The one implementation of a point's batch protocol: batching
    (``next_batch`` — where stop decisions are allowed to happen),
    folding (commutative counters), the stop rule (``converged``), and
    finalization into an :class:`ExperimentResult`. :class:`PointDriver`
    runs it for campaigns, single runs (:func:`run_scenario`), and the
    distributed coordinator — which is most of why rows match byte for
    byte whatever executes the trials.
    """

    def __init__(
        self,
        point_id: int,
        point: CampaignPoint,
        spec: ScenarioSpec,
        probe: int = 0,
    ):
        self.point_id = point_id
        self.point = point
        self.spec = spec
        self.counts: Counter = Counter()
        self.successes = 0
        self.steps_total = 0
        self.ran = 0
        #: Per-trial outcomes carried by ``keep_outcomes`` chunk folds.
        self.outcomes: List[TrialOutcome] = []
        self.dispatched = 0  # trial indices handed to workers so far
        self.dispatches = 0  # chunk payloads enqueued (scheduling metadata)
        self.pending = 0  # chunks of the current batch still out
        #: Calibration split for fixed-trial points of an unseen
        #: scenario: the first ``probe`` trials go out as their own
        #: batch (one bounded chunk) so the measured fold seeds the cost
        #: model before the remainder is chunked adaptively. Batch
        #: boundaries are where stop decisions happen, but a fixed
        #: budget has no stop rule — the split cannot change results.
        self.probe = probe
        self.started = time.perf_counter()
        #: Monotonic instant the point's timeout expires; armed by
        #: :class:`PointDriver` when its first chunk *result arrives*
        #: (not at admission or submission — a point must not burn
        #: budget on pool spawn, worker imports, or sitting queued
        #: behind another point's chunks).
        self.deadline: Optional[float] = None
        #: A deadline abandoned this point: no further batches dispatch,
        #: and it finalizes into a ``timed_out`` row once its in-flight
        #: chunks drain.
        self.timed_out = False
        if point.budget is not None:
            self._batch_ends = point.budget.batch_ends()
        elif probe and point.trials and probe < point.trials:
            self._batch_ends = iter([probe, point.trials])
        else:
            self._batch_ends = iter([point.trials])

    def next_batch(self) -> Optional[Tuple[int, int]]:
        """The next ``[start, end)`` trial range to dispatch, or None."""
        for end in self._batch_ends:
            if end > self.dispatched:
                start, self.dispatched = self.dispatched, end
                return (start, end)
        return None

    def fold(self, chunk_fold: ChunkFold) -> None:
        self.counts.update(chunk_fold.counts)
        self.successes += chunk_fold.successes
        self.steps_total += chunk_fold.steps_total
        self.ran += chunk_fold.trials
        self.outcomes.extend(chunk_fold.kept())

    def converged(self) -> bool:
        """Whether the stop rule fires at the current batch boundary."""
        budget = self.point.budget
        return budget is not None and budget.satisfied(
            self.successes, self.ran, counts=self.counts
        )

    def exhausted(self) -> bool:
        """Whether every requested trial has already arrived — i.e. the
        result is complete and a deadline lapsing *now* has nothing left
        to save. Decided without touching the batch iterator, so the
        deadline sweep can consult it safely mid-flight."""
        if self.pending > 0 or self.ran < self.dispatched:
            return False
        budget = self.point.budget
        if budget is None:
            return self.dispatched >= (self.point.trials or 0)
        return self.converged() or self.dispatched >= budget.max_trials

    def finalize(self) -> ExperimentResult:
        point = self.point
        return ExperimentResult(
            scenario=point.scenario,
            params=point.params,
            trials=self.ran,
            base_seed=point.base_seed,
            outcomes=sorted(self.outcomes, key=lambda trial: trial.index),
            distribution=OutcomeDistribution(
                n=self.spec.size(point.params), trials=self.ran, counts=self.counts
            ),
            successes=proportion(
                self.successes,
                self.ran,
                z=point.budget.z if point.budget else 1.96,
            ),
            max_steps=point.max_steps,
            elapsed=time.perf_counter() - self.started,
            steps_total=self.steps_total,
            dispatches=self.dispatches,
            budget=point.budget,
            timed_out=self.timed_out,
        )


class PointDriver:
    """Admits points, cuts their batches, and applies stop rules and
    deadlines — the one driver behind every campaign backend.

    A plain object with no threads and no clock of its own: the caller
    passes ``now`` (a ``time.monotonic()`` reading) into :meth:`arrive`.
    ``cut(state, start, end)`` turns a batch into dispatch units, tuples
    whose first element is the point id: ``(point_id, payload)`` worker
    chunks for a campaign, ``(point_id, start, end)`` lease ranges for
    the coordinator. A backend keeps only its dispatch step: take units
    off :attr:`queue`, run them somewhere, and hand each unit's fold
    back through :meth:`arrive`. :meth:`admit` and :meth:`arrive`
    return the results of the points that finished.

    Up to ``max_active`` points are in flight at once. Each is
    dispatched batch by batch, and its next batch is cut only after
    every unit of the current one has folded — the barrier that keeps
    adaptive stop decisions independent of workers, chunking, and nodes.

    Deadlines have one rule for every backend. A point's
    ``point_timeout`` clock starts when its first result arrives (pool
    spawn, worker imports, and queue wait are not its fault); at any
    arrival past it the point is abandoned — its queued units are
    dropped, its in-flight ones drain — and it finishes as a
    ``timed_out`` row. Past ``wall_deadline`` every active point is
    abandoned the same way and no further point is admitted. A point
    whose every trial already arrived is complete and never abandoned.
    """

    def __init__(
        self,
        points: Sequence[CampaignPoint],
        specs: Mapping[str, ScenarioSpec],
        cut: Callable[[PointState, int, int], List[tuple]],
        max_active: int,
        chunker: Optional[AdaptiveChunker] = None,
        point_timeout: Optional[float] = None,
        wall_deadline: Optional[float] = None,
    ):
        self.waiting = deque(enumerate(points))
        self.active: Dict[int, PointState] = {}
        #: Units cut but not yet handed to the backend.
        self.queue: deque = deque()
        self.specs = specs
        self.cut = cut
        self.max_active = max_active
        #: Sizes calibration probes for fixed-trial points whose cost
        #: key is unseen (``None``: no probes); ``cut`` then names the
        #: key, as a :class:`_ChunkCutter` does.
        self.chunker = chunker
        self.point_timeout = point_timeout
        self.wall_deadline = wall_deadline
        self.draining = False  # wall deadline passed: no admissions, no batches
        self.never_started = 0  # drained points that ran zero trials
        self.cut_short = False  # a drained point finished with a partial row

    @property
    def pending(self) -> int:
        """Points that never started a trial."""
        return len(self.waiting) + self.never_started

    def deadline_hit(self) -> bool:
        """Whether the wall deadline left work owed to a resume."""
        return self.draining and (self.pending > 0 or self.cut_short)

    def admit(self) -> List[ExperimentResult]:
        """Admit waiting points until ``max_active`` are in flight;
        points with no trials to run finish right here."""
        finished = []
        while (
            self.waiting and len(self.active) < self.max_active and not self.draining
        ):
            point_id, point = self.waiting.popleft()
            spec = self.specs[point.scenario]
            probe = 0
            if self.chunker is not None and point.budget is None:
                probe = self.chunker.calibration_trials(
                    self.cut.cost_key(spec, point), point.trials or 0
                )
            state = PointState(point_id, point, spec, probe)
            if self._enqueue_batch(state):
                self.active[point_id] = state
            else:
                finished.append(state.finalize())
        return finished

    def arrive(
        self, point_id: int, chunk_fold: ChunkFold, now: float
    ) -> List[ExperimentResult]:
        """Fold one unit's result. Every arrival is a chunk boundary —
        the one place stop decisions and deadlines may act."""
        state = self.active[point_id]
        state.fold(chunk_fold)
        state.pending -= 1
        boundary = [state]
        if self.point_timeout is not None or self.wall_deadline is not None:
            self._expire(state, now)
            # Abandoning drops queued units, so any point may now have
            # nothing left in flight.
            boundary = list(self.active.values())
        finished = []
        for other in boundary:
            if other.pending == 0:
                result = self._settle(other)
                if result is not None:
                    finished.append(result)
        finished.extend(self.admit())
        return finished

    def _expire(self, state: PointState, now: float) -> None:
        """Arm ``state``'s clock on its first result, then abandon every
        point past its deadline."""
        if state.deadline is None and self.point_timeout is not None:
            state.deadline = now + self.point_timeout
        if self.wall_deadline is not None and now >= self.wall_deadline:
            self.draining = True
        for other in self.active.values():
            if (
                not other.timed_out
                # A complete point has nothing left to save: abandoning
                # it would discard a finished result and retry it forever.
                and not other.exhausted()
                and (
                    self.draining
                    or (other.deadline is not None and now >= other.deadline)
                )
            ):
                other.timed_out = True
                kept = [unit for unit in self.queue if unit[0] != other.point_id]
                other.pending -= len(self.queue) - len(kept)
                self.queue.clear()
                self.queue.extend(kept)

    def _settle(self, state: PointState) -> Optional[ExperimentResult]:
        """A point with nothing in flight: cut its next batch (None), or
        finish it (its result; None when it never ran a trial)."""
        if state.timed_out:
            # The abandoned point's in-flight units may have been all of
            # it: then the result is complete and nothing was lost.
            state.timed_out = not state.exhausted()
        elif not state.converged() and self._enqueue_batch(state):
            return None
        del self.active[state.point_id]
        if not state.timed_out:
            return state.finalize()
        if not state.ran:
            # Abandoned while fully queued: no partial fold to record.
            self.never_started += 1
            return None
        self.cut_short = self.cut_short or self.draining
        return state.finalize()

    def _enqueue_batch(self, state: PointState) -> bool:
        """Cut the point's next batch onto the queue; False when no work
        is left to send (zero-trial points, exhausted schedules)."""
        batch = state.next_batch()
        if batch is None:
            return False
        units = self.cut(state, *batch)
        if not units:
            return False
        state.dispatches += len(units)
        state.pending = len(units)
        self.queue.extend(units)
        return True


class _ChunkCutter:
    """Cuts batches into point-tagged worker chunk payloads, and names
    the cost key (:func:`~repro.experiments.runner.cost_key`) those
    chunks are timed and probed under. The calibration batch ships as
    one bounded chunk, so its measured fold is a clean per-trial
    estimate."""

    def __init__(
        self,
        workers: int,
        chunk_size: Optional[int],
        chunker: Optional[AdaptiveChunker],
        use_batch: bool = True,
        keep_outcomes: bool = False,
    ):
        self.workers = workers
        self.chunk_size = chunk_size
        self.chunker = chunker
        self.use_batch = use_batch
        self.keep_outcomes = keep_outcomes

    def cost_key(self, spec: ScenarioSpec, point: CampaignPoint) -> str:
        return cost_key(spec, point.max_steps, self.use_batch, self.keep_outcomes)

    def __call__(self, state: PointState, start: int, end: int) -> List[tuple]:
        point = state.point
        size = self.chunk_size
        if size is None and state.probe and end <= state.probe:
            size = state.probe
        return [
            (state.point_id, payload)
            for payload in chunk_payloads(
                state.spec,
                point.params,
                point.base_seed,
                range(start, end),
                self.keep_outcomes,
                point.max_steps,
                workers=self.workers,
                chunk_size=size,
                use_batch=self.use_batch,
                chunker=self.chunker,
            )
        ]


def _dispatcher(
    driver: PointDriver, pool: WorkerPool
) -> Callable[[], Tuple[int, ChunkFold]]:
    """The local backend's dispatch step: run queued chunks and return
    the next ``(point_id, chunk fold)`` to arrive.

    A serial pool runs the head of the queue in-process, one chunk at a
    time, through :meth:`WorkerPool.imap_unordered`, so its chunk
    counters (and ``/metrics``) see every chunk. A parallel pool trickles chunks into
    :meth:`WorkerPool.submit` at most two per worker at a time and takes
    results off its callback thread; the surplus stays in the driver's
    queue, where an abandoned point's chunks can still be dropped. On
    either pool, a chunk's exception surfaces as a
    :class:`ConfigurationError` naming the point, chained from the
    original; a ``KeyboardInterrupt`` is not wrapped.
    """

    def failure(point_id: int, error: BaseException) -> ConfigurationError:
        point = driver.active[point_id].point
        return ConfigurationError(
            f"point {point.scenario!r} {point.params} failed: {error}"
        )

    if not pool.parallel:

        def serial() -> Tuple[int, ChunkFold]:
            unit = driver.queue.popleft()
            try:
                return next(pool.imap_unordered(_campaign_chunk, (unit,)))
            except Exception as exc:
                raise failure(unit[0], exc) from exc

        return serial
    results: "queue.Queue" = queue.Queue()
    # In-flight cap: 2x the worker count, so every worker has a spare
    # chunk queued and never waits a master round-trip.
    window = 2 * pool.workers
    inflight = 0

    def step() -> Tuple[int, ChunkFold]:
        nonlocal inflight
        while driver.queue and inflight < window:
            unit = driver.queue.popleft()
            pool.submit(
                _campaign_chunk,
                unit,
                callback=results.put,
                error_callback=lambda exc, pid=unit[0]: results.put((pid, exc)),
            )
            inflight += 1
        point_id, outcome = results.get()
        inflight -= 1
        if isinstance(outcome, BaseException):
            raise failure(point_id, outcome) from outcome
        return point_id, outcome

    return step


def _drive(
    driver: PointDriver,
    pool: WorkerPool,
    chunker: Optional[AdaptiveChunker],
) -> Iterator[ExperimentResult]:
    """The one local point loop: admit, dispatch a chunk, feed its
    measured cost to ``chunker``, and fold it back into the driver —
    yielding each point's result as it finishes. :func:`_launch` runs
    it; a serial ``pool`` dispatches in-process."""
    dispatch = _dispatcher(driver, pool)
    yield from driver.admit()
    while driver.active:
        point_id, chunk_fold = dispatch()
        if chunker is not None:
            state = driver.active[point_id]
            chunker.observe(
                driver.cut.cost_key(state.spec, state.point),
                chunk_fold.trials,
                chunk_fold.elapsed,
            )
        yield from driver.arrive(point_id, chunk_fold, time.monotonic())


def _launch(
    todo: Sequence[CampaignPoint],
    specs: Mapping[str, ScenarioSpec],
    workers: WorkerCount,
    pool: Optional[WorkerPool],
    chunk_size: Optional[int],
    chunker: Optional[AdaptiveChunker],
    point_timeout: Optional[float] = None,
    max_wall_clock: Optional[float] = None,
    use_batch: bool = True,
    keep_outcomes: bool = False,
) -> Iterator[ExperimentResult]:
    """The one local launch behind :func:`run_campaign` and
    :func:`run_scenario`: a pool (``pool``, left open, or a
    ``WorkerPool(workers)`` this generator owns), a default
    :class:`AdaptiveChunker` unless ``chunk_size`` pins the size, and
    one :class:`PointDriver` run through :func:`_drive`."""
    if chunker is None and chunk_size is None:
        chunker = AdaptiveChunker()
    with (
        nullcontext(pool) if pool is not None else WorkerPool(workers)
    ) as active_pool:
        driver = PointDriver(
            todo,
            specs,
            _ChunkCutter(
                active_pool.workers, chunk_size, chunker, use_batch, keep_outcomes
            ),
            # Enough active points that the payload queue never drains
            # while points with tiny budgets finish; serial pools run
            # one, so rows keep admission order. A lone point is
            # admitted the same way at any worker count.
            max_active=2 * active_pool.workers if active_pool.parallel else 1,
            chunker=chunker if chunk_size is None else None,
            point_timeout=point_timeout,
            wall_deadline=(
                time.monotonic() + max_wall_clock
                if max_wall_clock is not None
                else None
            ),
        )
        yield from _drive(driver, active_pool, chunker)
        if driver.deadline_hit():
            raise CampaignDeadline(pending=driver.pending)


def run_campaign(
    points: Sequence[CampaignPoint],
    workers: WorkerCount = 1,
    pool: Optional[WorkerPool] = None,
    completed: Optional[Collection[str]] = None,
    chunk_size: Optional[int] = None,
    point_timeout: Optional[float] = None,
    max_wall_clock: Optional[float] = None,
    chunker: Optional[AdaptiveChunker] = None,
) -> Iterator[ExperimentResult]:
    """Run campaign points against one shared pool, yielding results.

    Points whose resume key is in ``completed`` are skipped; the
    remainder are admitted in manifest order. With a parallel pool,
    chunks from up to ``2 × workers`` points are interleaved so shallow
    grids keep the workers saturated; results then arrive in
    *completion* order. Serial pools (``workers == 1``) run one point at
    a time, in manifest order. The emitted row *set* is identical
    whatever the worker count — only ordering differs.

    ``point_timeout`` (seconds) bounds each point: an exceeded point is
    abandoned cooperatively at its next chunk boundary and yielded as a
    ``timed_out`` partial result (``result.timed_out``; excluded from
    resume identities so a rerun retries it) while the other points keep
    draining. At every worker count the clock starts when the point's
    first chunk result arrives, so pool spawn and queue wait are not
    charged. ``max_wall_clock`` (seconds, measured from the first
    iteration) bounds the whole campaign: on expiry no new work is
    admitted, in-flight points drain into ``timed_out`` rows, and the
    iterator raises :class:`CampaignDeadline` — everything yielded
    before the raise is a complete checkpoint. Timed-out rows are exact
    partial folds of the trials that ran; completed points' rows are
    untouched by either guard. :class:`PointDriver` holds the one
    definition of both rules.

    Chunk sizing is cost-adaptive by default: a shared
    :class:`~repro.experiments.chunking.AdaptiveChunker` (a fresh one
    unless ``chunker`` is given — pass one replayed from an ``--out``
    store's timings to start warm) learns per-trial seconds from every
    folded chunk and sizes later dispatches toward its wall-seconds
    target.
    An explicit ``chunk_size`` disables it and pins the size instead.
    Chunking never affects the emitted rows, only scheduling.

    The iterator is lazy. A self-created pool lives in a ``with``
    block: exhausting the iterator closes it, and an error or closing
    the iterator early terminates its workers. An injected ``pool``
    stays open for the caller's next campaign.
    """
    if point_timeout is not None:
        check_seconds("point_timeout", point_timeout)
    if max_wall_clock is not None:
        check_seconds("max_wall_clock", max_wall_clock)
    if chunk_size is not None:
        checked_int(chunk_size, "chunk_size", 1)
    specs, todo = pending_points(points, completed)
    return _launch(
        todo, specs, workers, pool, chunk_size, chunker, point_timeout, max_wall_clock
    )


def run_scenario(
    scenario: ScenarioRef,
    trials: Optional[int] = None,
    base_seed: int = 0,
    params: Optional[Mapping[str, Any]] = None,
    workers: WorkerCount = 1,
    keep_outcomes: bool = True,
    budget: BudgetRef = None,
    pool: Optional[WorkerPool] = None,
    chunker: Optional[AdaptiveChunker] = None,
    *,
    max_steps: Optional[int] = None,
    chunk_size: Optional[int] = None,
    use_batch: bool = True,
) -> ExperimentResult:
    """Run one experiment — a one-point campaign — and fold its outcomes.

    ``scenario`` is a registered name or an ad-hoc
    :class:`~repro.experiments.scenario.ScenarioSpec`. Exactly one of
    ``trials`` (fixed count) and ``budget`` (adaptive stop, see
    :class:`~repro.experiments.budget.BudgetPolicy`) must be given.

    The point runs through :func:`run_campaign`'s launch on ``pool`` (the
    caller's, left open, whose size wins over ``workers``) or on a
    ``WorkerPool(workers)`` that lives for this call only; one worker
    runs in-process, which is the only mode for ad-hoc specs built from
    closures that cannot cross process boundaries.

    With ``keep_outcomes`` (the default) the result's ``outcomes`` list
    holds every trial, sorted by index; without it only aggregate
    counters cross the process boundary, chunks may run through the
    scenario's vectorized kernel (``use_batch=False`` forces the scalar
    loop, the equivalence tests' control), and ``outcomes`` is empty.
    ``max_steps`` overrides the per-trial delivery budget. Chunk sizing
    is cost-adaptive (a fresh
    :class:`~repro.experiments.chunking.AdaptiveChunker` unless
    ``chunker`` shares a seeded one); a ``chunk_size`` pins it. The row
    is identical whatever the pool, chunking or keep_outcomes.
    """
    if chunk_size is not None:
        checked_int(chunk_size, "chunk_size", 1)
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    resolved = spec.resolve_params(params)
    policy = check_trials(trials, budget)
    point = CampaignPoint(spec.name, resolved, trials, base_seed, max_steps, policy)
    (result,) = _launch(
        [point],
        {spec.name: spec},
        workers,
        pool,
        chunk_size,
        chunker,
        use_batch=use_batch,
        keep_outcomes=keep_outcomes,
    )
    return result
