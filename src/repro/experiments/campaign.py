"""Campaigns: a manifest of scenario grids run against one resume store.

A *campaign* is the unit above a sweep: a JSON manifest of ``(scenario |
tag, grid, trials, base_seed)`` entries — the whole experimental section
of the paper as one file — expanded into concrete
:class:`CampaignPoint`\\ s and run through one shared
:class:`~repro.experiments.pool.WorkerPool` with **grid-level
parallelism**: chunks from *different* grid points interleave in the
pool, so a wide, shallow grid (many points, few trials each) keeps every
worker busy instead of serialising point-by-point. A
:class:`PointScheduler` decides the admission order (``manifest-order``
default, ``longest-first`` to start expensive stragglers early); the
row set is schedule-invariant. Exposed on the command line as ``python
-m repro campaign manifest.json --out rows.jsonl --resume --workers N
[--schedule longest-first] [--dry-run]``.

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
- **Observed-cost scheduling**: a :class:`CostModel` (EWMA per-trial
  seconds per scenario, learned from the ``<out>.timings`` sidecar of
  previous runs) feeds ``longest-first`` real seconds instead of the
  ``trials × outcome-size`` proxy, falling back to the proxy for
  scenarios it has never seen. Scheduling stays pure admission metadata:
  rows and resume keys are identical whatever the cost source.
"""

import json
import math
import queue
import time
from collections import Counter, deque
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
from repro.experiments.budget import BudgetPolicy, as_policy
from repro.experiments.chunking import AdaptiveChunker
from repro.experiments.pool import WorkerCount, WorkerPool
from repro.experiments.runner import (
    ExperimentResult,
    _run_chunk_folded,
    chunk_payloads,
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


def retry_identity(
    scenario: str,
    params: Params,
    base_seed: int,
    max_steps: Optional[int],
    budget: Any,
) -> str:
    """What identifies a timed-out row with the point that retries it.

    The canonical :func:`~repro.experiments.sweep.resume_key` with
    ``trials=None`` — the full resume identity *minus* trials (a
    timed-out row's trial count is a scheduling artifact, which is
    exactly why it has no real resume key). Delegating keeps marker
    matching in lockstep with whatever the identity rules are; both the
    CLI's JSONL marker hold-back and the SQLite store's marker
    supersession key off this one function.
    """
    return resume_key(scenario, params, None, base_seed, max_steps, budget)


def row_retry_identity(row: Mapping[str, Any]) -> str:
    """:func:`retry_identity` of a previously written row (timed-out
    marker or completed), raising the same way :func:`row_resume_key`
    does on rows whose identity fields are missing or broken."""
    # Subscript access first: foreign shapes (lists, strings) raise the
    # TypeError/KeyError the tolerant loaders already catch, before any
    # .get could raise something they don't.
    return retry_identity(
        row["scenario"],
        row["params"],
        row["base_seed"],
        row.get("max_steps"),
        row.get("budget"),
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
# Point scheduling
# ----------------------------------------------------------------------


def scheduled_cost(point: CampaignPoint, spec: Optional[ScenarioSpec] = None) -> int:
    """Rough units of work one campaign point is expected to cost.

    ``trials × outcome-space size`` — the trial count is the dominant
    axis and the scenario's outcome-space size (usually the network size
    ``n``) is the cheap, always-available proxy for per-trial work.
    Adaptive points are costed at their budget's
    :meth:`~repro.experiments.budget.BudgetPolicy.planning_trials`: the
    scheduler plans for the worst case, since the realized count is only
    known after the point runs. The estimate feeds the ``longest-first``
    strategy and the ``--dry-run`` listing; it never affects rows.
    """
    if spec is None:
        spec = get_scenario(point.scenario)
    return _planning_trials(point) * max(spec.size(point.params), 1)


def _planning_trials(point: CampaignPoint) -> int:
    """Trials to budget for when planning ``point`` (realized count for
    fixed points, the policy ceiling for adaptive ones)."""
    if point.budget is not None:
        return point.budget.planning_trials()
    return point.trials or 0


#: An admission plan: (point, scheduled cost) pairs in admission order.
CostedPoints = List[Tuple[CampaignPoint, int]]


class CostModel:
    """Observed wall-clock costs: an EWMA of per-trial seconds per scenario.

    The ``trials × outcome-size`` proxy behind :func:`scheduled_cost`
    ranks points of one scenario correctly but knows nothing about how
    expensive scenarios are *relative to each other* — a 50-trial cubic
    attack on a 170-ring dwarfs a 5000-trial coin toss in real seconds.
    A ``CostModel`` closes that gap from evidence: every completed
    (never timed-out) point contributes its realized
    ``(trials, elapsed)`` to an exponentially-weighted moving average of
    per-trial seconds for its scenario, newest observation weighted
    ``alpha``. The CLI persists observations in a ``<out>.timings``
    sidecar (see :func:`timing_record` / :func:`load_cost_model`), so a
    resumed or repeated campaign schedules on what the machine actually
    measured last time.

    Two estimation tiers, so every point stays comparable on one scale:

    - a scenario the model has **seen** is estimated at
      ``planned trials × EWMA per-trial seconds``;
    - an **unseen** scenario falls back to its proxy cost times a
      global seconds-per-proxy-unit EWMA (calibrated from the same
      observations), keeping the ranking in seconds;
    - an **empty** model estimates nothing — callers keep the raw proxy
      ordering, byte-compatible with cost-model-free campaigns.

    Determinism: the model is a pure fold over observation order, and
    estimation reads only ``(point, model)`` — the same sidecar file
    yields the same admission order at any worker count. Estimates are
    scheduling metadata only; rows and resume keys never see them.
    """

    def __init__(self, alpha: float = 0.5):
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._per_trial: Dict[str, float] = {}
        self._per_unit: Optional[float] = None

    @property
    def observed(self) -> bool:
        """Whether the model has absorbed at least one observation."""
        return bool(self._per_trial) or self._per_unit is not None

    def scenarios(self) -> List[str]:
        """Sorted scenario names with an observed per-trial cost."""
        return sorted(self._per_trial)

    def per_trial_seconds(self, scenario: str) -> Optional[float]:
        """The scenario's EWMA per-trial seconds (None when unseen)."""
        return self._per_trial.get(scenario)

    def observe(
        self,
        scenario: Any,
        trials: Any,
        elapsed: Any,
        cost_units: Any = None,
    ) -> bool:
        """Fold one completed point's wall clock into the model.

        Returns whether the observation was accepted. Foreign or
        non-positive values are *rejected*, not raised — sidecar records
        come from a file a crash may have torn, and a bad record must
        only cost the model an observation, never the campaign a run.
        """
        if not isinstance(scenario, str):
            return False
        if not isinstance(trials, int) or isinstance(trials, bool) or trials <= 0:
            return False
        # `not >` plus isfinite (instead of `<= 0`): JSON happily parses
        # NaN/Infinity, and one such record folded into the EWMA would
        # poison every estimate — and the sort built on them — forever.
        if (
            not isinstance(elapsed, (int, float))
            or isinstance(elapsed, bool)
            or not elapsed > 0
            or not math.isfinite(elapsed)
        ):
            return False
        per = elapsed / trials
        prev = self._per_trial.get(scenario)
        self._per_trial[scenario] = (
            per if prev is None else self.alpha * per + (1 - self.alpha) * prev
        )
        if (
            isinstance(cost_units, (int, float))
            and not isinstance(cost_units, bool)
            and cost_units > 0
            and math.isfinite(cost_units)
        ):
            unit = elapsed / cost_units
            self._per_unit = (
                unit
                if self._per_unit is None
                else self.alpha * unit + (1 - self.alpha) * self._per_unit
            )
        return True

    def estimate_seconds(
        self,
        point: CampaignPoint,
        cost_units: Optional[int] = None,
        spec: Optional[ScenarioSpec] = None,
    ) -> Optional[float]:
        """Estimated wall-clock seconds for ``point`` (None when the
        model is empty). ``cost_units`` (the point's already-computed
        proxy cost) spares the unseen-scenario tier a spec lookup."""
        per = self._per_trial.get(point.scenario)
        if per is not None:
            return _planning_trials(point) * per
        if self._per_unit is not None:
            units = cost_units
            if units is None:
                units = scheduled_cost(point, spec)
            return units * self._per_unit
        return None


def timings_path(out_path: str) -> str:
    """The timing-sidecar path belonging to a row store.

    Timing lives *next to* the rows, never inside them: rows are the
    deterministic artifact (byte-identical across runs, schedules, and
    worker counts — the property every resume and golden-row contract
    stands on), while wall-clock is machine noise. One sidecar line per
    completed point keeps both.
    """
    return f"{out_path}.timings"


def timing_record(result) -> Optional[Dict[str, Any]]:
    """The sidecar record of one finished result, or ``None`` when it
    carries no usable cost signal (timed-out or empty results: their
    elapsed is an artifact of the guard, and feeding it to the EWMA
    would teach the scheduler that pathological points are cheap)."""
    if result.timed_out or not result.trials or result.elapsed <= 0:
        return None
    record = {
        "scenario": result.scenario,
        "trials": result.trials,
        "elapsed": round(result.elapsed, 6),
    }
    try:
        spec = get_scenario(result.scenario)
    except ConfigurationError:
        return record  # ad-hoc scenario: per-trial tier only
    record["cost"] = result.trials * max(spec.size(result.params), 1)
    return record


def load_cost_model(path: str, alpha: float = 0.5) -> CostModel:
    """Rebuild a :class:`CostModel` from a timing sidecar file.

    Missing or unreadable files and torn/foreign lines cost
    observations, never the campaign: the model simply knows less and
    the scheduler degrades to the proxy ordering.
    """
    model = CostModel(alpha=alpha)
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError:
        return model
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, Mapping):
            model.observe(
                record.get("scenario"),
                record.get("trials"),
                record.get("elapsed"),
                record.get("cost"),
            )
    return model


#: Registered scheduling-strategy names.
_SCHEDULES = ("manifest-order", "longest-first")


def schedule_names() -> List[str]:
    """Sorted names of the registered scheduling strategies."""
    return sorted(_SCHEDULES)


class PointScheduler:
    """Decides the order campaign points are admitted to the pool.

    Two strategies:

    - ``manifest-order`` (default): points run in manifest order — the
      byte-compatible behaviour every earlier campaign had.
    - ``longest-first``: points are admitted by descending cost, so the
      expensive stragglers start while the pool still has company and
      the tail of the campaign is made of short points — the classic
      LPT heuristic for shaving makespan on wide grids. Cost is the
      ``cost_model``'s estimated *seconds* when it has observations
      (real measured time, the quantity LPT actually wants), and the
      :func:`scheduled_cost` proxy otherwise.

    Scheduling is pure admission metadata: the same rows with the same
    resume keys are emitted under every strategy (each point's trials
    depend only on its own ``(base_seed, index)`` derivation), so
    ``--schedule`` — and the cost model behind it — can change between
    a run and its ``--resume`` without invalidating anything. Only
    completion order — and wall-clock on multicore hosts — changes.
    """

    def __init__(
        self,
        name: str = "manifest-order",
        cost_model: Optional[CostModel] = None,
    ):
        if name not in _SCHEDULES:
            raise ConfigurationError(
                f"unknown schedule {name!r}; "
                f"known: {', '.join(schedule_names())}"
            )
        self.name = name
        self.cost_model = cost_model

    def estimate_seconds(
        self, point: CampaignPoint, cost_units: Optional[int] = None
    ) -> Optional[float]:
        """The cost model's seconds estimate for ``point`` (None without
        an observed model) — what ``--dry-run`` prints per line."""
        if self.cost_model is None:
            return None
        return self.cost_model.estimate_seconds(point, cost_units=cost_units)

    def plan(self, points: Sequence[CampaignPoint]) -> CostedPoints:
        """Admission-ordered ``(point, scheduled cost)`` pairs.

        Costs are computed once per point (specs resolved once per
        scenario) and carried through the ordering — the ``--dry-run``
        listing reads them straight off the plan instead of re-deriving
        them per line. The recorded cost is always the proxy; when an
        observed cost model drives ``longest-first``, the *ordering*
        uses its seconds estimates while the pairs keep the proxy
        (stable units for consumers and tests).
        """
        specs: Dict[str, ScenarioSpec] = {}
        costed = []
        for point in points:
            spec = specs.get(point.scenario)
            if spec is None:
                spec = specs[point.scenario] = get_scenario(point.scenario)
            costed.append((point, scheduled_cost(point, spec)))
        if self.name == "manifest-order":
            return costed
        ranks = self._seconds_ranks(costed)
        if ranks is None:
            ranks = [float(cost) for _, cost in costed]
        # Stable sort on descending cost: equal-cost points keep manifest
        # order, so the schedule is a pure function of (points, model).
        return [
            pair
            for _, (_, pair) in sorted(
                zip(ranks, enumerate(costed)),
                key=lambda entry: (-entry[0], entry[1][0]),
            )
        ]

    def _seconds_ranks(self, costed: CostedPoints) -> Optional[List[float]]:
        """Per-point seconds estimates, or ``None`` unless the model can
        price *every* point — a model that has per-trial observations
        but no per-unit calibration (e.g. a sidecar of cost-less
        records) cannot rank unseen scenarios in seconds, and mixing
        seconds with proxy units in one sort would be meaningless, so
        the whole plan falls back to the proxy scale together."""
        model = self.cost_model
        if model is None or not model.observed:
            return None
        ranks = []
        for point, cost in costed:
            seconds = model.estimate_seconds(point, cost_units=cost)
            if seconds is None:
                return None
            ranks.append(seconds)
        return ranks

    def order(self, points: Sequence[CampaignPoint]) -> List[CampaignPoint]:
        """The admission order of ``points`` under this strategy."""
        if self.name == "manifest-order":
            # Admission order needs no costs here — don't pay a topology
            # build per point for the default schedule.
            return list(points)
        return [point for point, _ in self.plan(points)]


#: A schedule argument as APIs accept it: a scheduler, a strategy name,
#: or ``None`` for the default (manifest order).
ScheduleRef = Union[str, PointScheduler, None]


def as_scheduler(schedule: ScheduleRef) -> PointScheduler:
    """Normalise a schedule argument to a :class:`PointScheduler`."""
    if isinstance(schedule, PointScheduler):
        return schedule
    return PointScheduler(schedule if schedule is not None else "manifest-order")


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
    schedule: ScheduleRef,
) -> Tuple[Dict[str, ScenarioSpec], List[CampaignPoint]]:
    """Resolve ``points`` eagerly, drop the ``completed`` resume keys,
    and order the rest by ``schedule``; returns ``(specs, todo)``.

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
    todo = as_scheduler(schedule).order(
        [p for p in normalized if p.key() not in done]
    )
    return specs, todo


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


def _campaign_chunk(tagged: Tuple[int, Any]) -> Tuple[int, Any]:
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
    if isinstance(lease_trials, bool) or not isinstance(lease_trials, int):
        raise ConfigurationError(
            f"lease_trials must be an integer, got {lease_trials!r}"
        )
    if lease_trials < 1:
        raise ConfigurationError(
            f"lease_trials must be >= 1, got {lease_trials}"
        )
    return [
        (s, min(s + lease_trials, end)) for s in range(start, end, lease_trials)
    ]


class PointState:
    """Master-side fold state of one in-flight campaign point.

    The one implementation of a point's batch protocol: batching
    (``next_batch`` — where stop decisions are allowed to happen),
    folding (commutative counters), the stop rule (``converged``), and
    finalization into an :class:`ExperimentResult`. :class:`PointDriver`
    runs it for campaigns and the distributed coordinator, and
    :meth:`~repro.experiments.runner.ExperimentRunner.run` runs its one
    point through it — which is most of why rows match byte for byte
    whatever executes the trials.
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

    def fold(self, chunk_fold) -> None:
        counts, successes, steps_total, trials = chunk_fold[:4]
        self.counts.update(counts)
        self.successes += successes
        self.steps_total += steps_total
        self.ran += trials

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
            outcomes=[],
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
        #: Sizes calibration probes for fixed-trial points of unseen
        #: scenarios (``None``: no probes).
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
            probe = 0
            if self.chunker is not None and point.budget is None:
                probe = self.chunker.calibration_trials(
                    point.scenario, point.trials or 0
                )
            state = PointState(point_id, point, self.specs[point.scenario], probe)
            if self._enqueue_batch(state):
                self.active[point_id] = state
            else:
                finished.append(state.finalize())
        return finished

    def arrive(self, point_id: int, chunk_fold, now: float) -> List[ExperimentResult]:
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


def _chunk_cutter(
    workers: int, chunk_size: Optional[int], chunker: Optional[AdaptiveChunker]
) -> Callable[[PointState, int, int], List[tuple]]:
    """Cut batches into point-tagged worker chunk payloads. The
    calibration batch ships as one bounded chunk, so its measured fold
    is a clean per-trial estimate."""

    def cut(state: PointState, start: int, end: int) -> List[tuple]:
        point = state.point
        size = chunk_size
        if size is None and state.probe and end <= state.probe:
            size = state.probe
        return [
            (state.point_id, payload)
            for payload in chunk_payloads(
                state.spec,
                point.params,
                point.base_seed,
                range(start, end),
                False,
                point.max_steps,
                workers=workers,
                chunk_size=size,
                chunker=chunker,
            )
        ]

    return cut


def _dispatcher(
    driver: PointDriver, pool: WorkerPool
) -> Callable[[], Tuple[int, Any]]:
    """The campaign backend's dispatch step: run queued chunks and
    return the next ``(point_id, chunk fold)`` to arrive.

    A serial pool runs the head of the queue inline, one chunk at a
    time. A parallel pool trickles chunks into :meth:`WorkerPool.submit`
    at most a window at a time and takes results off its callback
    thread; the surplus stays in the driver's queue, where an abandoned
    point's chunks can still be dropped.
    """
    if not pool.parallel:
        return lambda: _campaign_chunk(driver.queue.popleft())
    results: "queue.Queue" = queue.Queue()
    # In-flight cap: the pool's oversubscription window when workers
    # exceed cores; otherwise 2x the worker count, so every worker has a
    # spare chunk queued and never waits a master round-trip.
    window = pool.dispatch_window
    if window >= pool.workers:
        window = 2 * pool.workers
    inflight = 0

    def step() -> Tuple[int, Any]:
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
            point = driver.active[point_id].point
            raise ConfigurationError(
                f"campaign point {point.scenario!r} {point.params} "
                f"failed: {outcome}"
            ) from outcome
        return point_id, outcome

    return step


def run_campaign(
    points: Sequence[CampaignPoint],
    workers: WorkerCount = 1,
    pool: Optional[WorkerPool] = None,
    completed: Optional[Collection[str]] = None,
    chunk_size: Optional[int] = None,
    schedule: ScheduleRef = None,
    point_timeout: Optional[float] = None,
    max_wall_clock: Optional[float] = None,
    chunker: Optional[AdaptiveChunker] = None,
) -> Iterator[ExperimentResult]:
    """Run campaign points against one shared pool, yielding results.

    Points whose resume key is in ``completed`` are skipped; the
    remainder are admitted in the order ``schedule`` dictates (a
    :class:`PointScheduler`, a strategy name, or ``None`` for manifest
    order). With a parallel pool, chunks from up to ``2 × workers``
    points are interleaved so shallow grids keep the workers saturated;
    results then arrive in *completion* order. Serial pools
    (``workers == 1``) run one point at a time, in admission order. The
    emitted row *set* is identical whatever the schedule and worker
    count — only ordering differs.

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
    unless ``chunker`` is given — pass one seeded from a ``.timings``
    sidecar to start warm) learns per-trial seconds from every folded
    chunk and sizes later dispatches toward its wall-seconds target.
    An explicit ``chunk_size`` disables it and pins the size instead.
    Chunking never affects the emitted rows, only scheduling.

    The iterator is lazy; closing it (or exhausting it) closes a
    self-created pool, while an injected ``pool`` stays open for the
    caller's next campaign.
    """
    if point_timeout is not None:
        check_seconds("point_timeout", point_timeout)
    if max_wall_clock is not None:
        check_seconds("max_wall_clock", max_wall_clock)
    if chunker is None and chunk_size is None:
        chunker = AdaptiveChunker()
    specs, todo = pending_points(points, completed, schedule)

    def _run() -> Iterator[ExperimentResult]:
        own_pool = pool is None
        active_pool = pool if pool is not None else WorkerPool(workers)
        driver = PointDriver(
            todo,
            specs,
            _chunk_cutter(active_pool.workers, chunk_size, chunker),
            # Enough active points that the payload queue never drains
            # while points with tiny budgets finish; serial pools run
            # one, so rows keep admission order.
            max_active=max(2 * active_pool.workers, 4) if active_pool.parallel else 1,
            chunker=chunker if chunk_size is None else None,
            point_timeout=point_timeout,
            wall_deadline=(
                time.monotonic() + max_wall_clock
                if max_wall_clock is not None
                else None
            ),
        )
        dispatch = _dispatcher(driver, active_pool)
        try:
            yield from driver.admit()
            while driver.active:
                point_id, chunk_fold = dispatch()
                if chunker is not None:
                    chunker.observe(
                        driver.active[point_id].point.scenario,
                        chunk_fold[3],
                        chunk_fold[4],
                    )
                yield from driver.arrive(point_id, chunk_fold, time.monotonic())
            if driver.deadline_hit():
                raise CampaignDeadline(pending=driver.pending)
        except BaseException:
            # Error path (including KeyboardInterrupt and an abandoned
            # iterator's GeneratorExit): a graceful close would block on
            # whatever is still queued — kill a self-created pool's
            # workers instead. Injected pools stay the caller's problem.
            if own_pool:
                active_pool.terminate()
            raise
        if own_pool:
            active_pool.close()

    return _run()
