"""Command-line interface: run protocols, attacks, and measurements.

Examples::

    python -m repro run --protocol phase-async --n 64 --seed 3
    python -m repro attack --name cubic --n 111 --k 6 --target 42
    python -m repro bias --protocol alead-uni --n 8 --trials 500
    python -m repro sweep --scenario attack/cubic --trials 200 --workers 4
    python -m repro sweep --list
    python -m repro campaign manifest.json --out rows.jsonl --resume --workers auto
    python -m repro certificate --graph ring --n 12

Everything printed is derived from the same public API the examples and
benches use; the CLI exists so downstream users can poke the system
without writing a script. Protocol and attack wiring comes from the
scenario registry (:mod:`repro.experiments`), so the CLI, benchmarks,
and examples all run exactly the same setups.
"""

import argparse
import json
import os
import sqlite3
import sys
from typing import Optional

from repro.analysis.bias import BiasReport
from repro.analysis.distribution import chi_square_uniformity
from repro.experiments import (
    AdaptiveChunker,
    CampaignDeadline,
    ResultStore,
    WorkerPool,
    all_scenarios,
    coerce_param,
    expand_manifest,
    get_scenario,
    is_store_path,
    load_manifest,
    parse_out_lines,
    resolve_workers,
    run_campaign,
    run_scenario,
    scenario_names,
)
from repro.experiments.budget import DEFAULT_MAX_TRIALS, DEFAULT_MIN_TRIALS
from repro.experiments.campaign import check_seconds
from repro.experiments.runner import _execute_trial, cost_key
from repro.trees import impossibility_certificate
from repro.util.errors import ConfigurationError
from repro.util.rng import RngRegistry

#: CLI attack name -> registered scenario. The CLI predates the registry
#: and keeps its short names; the wiring behind them is shared.
ATTACK_SCENARIOS = {
    "basic-cheat": "attack/basic-cheat",
    "rushing": "attack/equal-spacing",
    "random-location": "attack/random-location",
    "cubic": "attack/cubic",
    "partial-sum": "attack/partial-sum",
    "phase-rushing": "attack/phase-rushing",
    "shamir-pool": "attack/shamir-pool",
}


#: Exit code when `campaign --max-wall-clock` expires: the run is neither
#: a success (work remains) nor a failure (finished rows were
#: checkpointed to --out) — overnight wrappers key a `--resume` off it.
EXIT_DEADLINE = 3


def _execute(scenario: str, overrides, args):
    """One traced execution of a registered scenario: its topology and
    protocol at the overridden parameters, all randomness drawn from
    ``RngRegistry(--seed)`` (the protocol build from its ``scenario``
    stream), stopped after ``--max-steps`` deliveries."""
    spec = get_scenario(scenario)
    params = spec.resolve_params(overrides)
    return _execute_trial(
        spec, params, RngRegistry(args.seed), True, args.max_steps
    )


def _cmd_run(args) -> int:
    result = _execute(f"honest/{args.protocol}", {"n": args.n}, args)
    print(f"protocol : {args.protocol} (n={args.n}, seed={args.seed})")
    print(f"outcome  : {result.outcome}")
    print(f"steps    : {result.steps}")
    if result.failed:
        print(f"reason   : {result.fail_reason}")
    return 0 if not result.failed else 1


def _cmd_attack(args) -> int:
    overrides = {"n": args.n, "target": args.target}
    if args.k is not None:
        # A scenario without a k parameter rejects it in resolve_params.
        overrides["k"] = args.k
    result = _execute(ATTACK_SCENARIOS[args.name], overrides, args)
    forced = result.outcome == args.target
    print(f"attack   : {args.name} (n={args.n}, target={args.target})")
    print(f"outcome  : {result.outcome} ({'FORCED' if forced else 'not forced'})")
    if result.failed:
        print(f"reason   : {result.fail_reason}")
    return 0 if forced else 1


def _cmd_bias(args) -> int:
    dist = run_scenario(
        f"honest/{args.protocol}",
        trials=args.trials,
        base_seed=args.seed,
        params={"n": args.n},
        workers=resolve_workers(args.workers),
        keep_outcomes=False,
        max_steps=args.max_steps,
    ).distribution
    report = BiasReport.from_distribution(dist)
    print(f"protocol : {args.protocol} (n={args.n}, {args.trials} trials)")
    print(f"fail rate: {report.fail_rate:.4f}")
    print(f"max Pr   : {report.max_probability:.4f} (1/n = {1/args.n:.4f})")
    print(f"epsilon  : {report.epsilon:.4f}")
    print(f"chi2 p   : {chi_square_uniformity(dist):.4f}")
    # Every single trial failing means the estimate is vacuous (e.g. the
    # step budget was set below what the protocol needs).
    return 1 if dist.trials and dist.fail_count == dist.trials else 0


def _workers_arg(text: str):
    """``--workers`` value: a positive integer, or ``auto`` to derive a
    clamped count from ``os.cpu_count()`` (see ``resolve_workers``)."""
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}"
        ) from None


def _parse_grid(pairs):
    """``["n=8,16", "k=4"]`` -> ``{"n": [8, 16], "k": [4]}`` (literals
    coerced by the shared :func:`~repro.experiments.sweep.coerce_param`
    grammar the estimate service's query strings use too)."""
    grid = {}
    for pair in pairs:
        key, sep, values = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects KEY=VALUE[,VALUE...], got {pair!r}")
        try:
            grid[key] = [coerce_param(v) for v in values.split(",")]
        except ConfigurationError as exc:
            raise SystemExit(f"--param {pair!r}: {exc}") from None
    return grid


def _read_rows_file(path: str, strict: bool = True):
    """Lines of ``path`` (empty if absent).

    ``strict=False`` turns an unreadable file into a warning plus an
    empty result instead of death — what ``--dry-run`` wants, since it
    only *reports* resume status and writes nothing.
    """
    if not os.path.exists(path):
        return []
    try:
        with open(path) as f:
            return f.readlines()
    except OSError as exc:
        if not strict:
            print(
                f"  [warning: cannot read {path}: {exc}; "
                "treating every point as pending]",
                file=sys.stderr,
            )
            return []
        raise SystemExit(f"cannot read --out file: {exc}") from None


def _out_store_path(out: str) -> str:
    """The results store behind an ``--out`` target: the target itself
    when it has a store suffix (:func:`is_store_path`), otherwise the
    sibling ``X.jsonl.db`` that ``X.jsonl`` is a rendering of."""
    return out if is_store_path(out) else f"{out}.db"


def _out_rows(args):
    """The rows of a JSONL ``--out`` that a run imports into its store,
    parsed once (:func:`parse_out_lines`).

    Every non-blank line must be a row or a timed-out marker. The one
    exception is a final line that is not JSON at all: a torn write
    from a killed run, skipped with a warning so its point re-runs. Any
    other line ends the run here, before a trial runs or a store is
    created: the rendering that replaces ``--out`` when the run stops
    holds only rows, so the line would be lost. Store targets (and runs
    without ``--out``) have no JSONL to import.
    """
    if not args.out or is_store_path(args.out):
        return []
    lines = _read_rows_file(args.out)
    skips = []
    rows = parse_out_lines(
        lines, on_skip=lambda number, _line, reason: skips.append((number, reason))
    )
    last = max((n for n, line in enumerate(lines, 1) if line.strip()), default=0)
    for number, reason in skips:
        if (number, reason) != (last, "not-json"):
            raise SystemExit(
                f"{args.out}:{number}: not a result row; --out may hold only "
                "sweep/campaign rows (move the file aside or remove the "
                "line); nothing was run"
            )
    if skips:
        print(
            f"  [warning: skipped 1 malformed line(s) in {args.out} (torn "
            "trailing write from a killed run?); its point will re-run]",
            file=sys.stderr,
        )
    return rows


def _completed(rows):
    """Resume keys of the completed rows among parsed ``rows``."""
    return {row.key for row in rows if row.key is not None}


def _read_out_store(args, strict: bool = True):
    """``(completed keys, cost model)`` of the store behind ``--out``,
    read in one read-only open that creates and writes nothing. The
    model is replayed from the store's timings
    (:meth:`ResultStore.load_chunker`); a missing store holds neither.
    ``strict=False`` (the ``--dry-run`` posture) turns an unreadable
    store into a warning instead of death."""
    path = _out_store_path(args.out)
    if os.path.exists(path):
        try:
            with ResultStore(path, read_only=True) as store:
                return store.completed_keys(), store.load_chunker()
        except ConfigurationError as exc:
            if strict:
                raise SystemExit(f"cannot read --out store: {exc}") from None
            print(
                f"  [warning: cannot read {path}: {exc}; "
                "treating its points as pending]",
                file=sys.stderr,
            )
    return set(), AdaptiveChunker()


def _load_resume_state(args):
    """``(rows, completed, cost model)`` for a real ``sweep``/``campaign``
    run: the checked JSONL rows to import (:func:`_out_rows`); under
    ``--resume`` the resume keys to skip, which are the store's
    completed keys plus those of ``rows`` (exactly the store's key set
    once the rows are imported); and the ``--out`` store's cost model,
    a fresh one without ``--out``."""
    if args.resume and not args.out:
        raise SystemExit("--resume requires --out (the file to resume into)")
    if not args.out:
        return [], set(), AdaptiveChunker()
    rows = _out_rows(args)
    stored, model = _read_out_store(args)
    completed = stored | _completed(rows) if args.resume else set()
    return rows, completed, model


def _open_out_store(args, rows) -> ResultStore:
    """Open (on first use, create) the store behind ``--out`` and import
    the JSONL ``rows`` into it. :meth:`ResultStore.import_rows` is
    idempotent, so re-importing the store's own rendering changes
    nothing; a timed-out marker is replaced or superseded there too."""
    path = _out_store_path(args.out)
    try:
        store = ResultStore(path)
    except ConfigurationError as exc:
        raise SystemExit(f"cannot open --out store: {exc}") from None
    try:
        store.import_rows(rows)
        markers = len(store.pending_retries()) if args.resume else 0
    except (sqlite3.Error, ConfigurationError) as exc:
        store.close()
        raise SystemExit(f"cannot import {args.out} into {path}: {exc}") from None
    if markers:
        print(
            f"  [note: {markers} timed-out row(s) in {args.out} "
            "will be retried]",
            file=sys.stderr,
        )
    return store


def _render_out(args, store: ResultStore) -> Optional[str]:
    """Rewrite a JSONL ``--out`` as its store's rendering; returns an
    error message instead of raising, since the rows are durable in the
    store either way."""
    if is_store_path(args.out):
        return None
    try:
        store.render_jsonl(args.out)
    except (OSError, ConfigurationError) as exc:
        return (
            f"cannot render {args.out} from {store.path}: {exc} (every row "
            f"is in the store; 'repro db export {store.path}' renders it)"
        )
    return None


class _EmitOutcome:
    """What streaming a result set actually did: rows run, points a
    deadline abandoned, and whether the global deadline fired."""

    def __init__(self):
        self.ran = 0
        self.timed_out = 0
        self.deadline: Optional[CampaignDeadline] = None


def _emit_rows(results, args, rows, what: str) -> _EmitOutcome:
    """Stream result rows to stdout and into the ``--out`` store.

    Every ``--out`` is backed by a :class:`ResultStore`
    (:func:`_out_store_path`), and :meth:`ResultStore.append_row` is the
    one row sink: each row is durable once appended, and timed-out
    markers are replaced or superseded inside the store's transaction.
    The JSONL ``rows`` are imported first, so the store always holds
    every row the file does. However the run stops — success,
    :class:`CampaignDeadline` (reported on the outcome), Ctrl-C
    (re-raised), a ``ConfigurationError`` from infeasible parameter
    values, or a store write error (both exit non-zero) — a JSONL
    ``--out`` is then rewritten atomically from the store
    (:meth:`ResultStore.render_jsonl`). A rendering can therefore never
    lose a row, and a failed one leaves the previous file in place.

    Completed results also record their wall-clock in the store's
    timings (:meth:`ResultStore.record_timing`), which later runs read
    back for adaptive chunk sizing and ``--dry-run`` estimates.
    """
    store = None
    if args.out:
        store = _open_out_store(args, rows)
    outcome = _EmitOutcome()
    failure = None
    interrupted = False
    try:
        for result in results:
            outcome.ran += 1
            outcome.timed_out += bool(result.timed_out)
            row = result.to_row()
            print(json.dumps(row, sort_keys=True))
            if store is not None:
                store.append_row(row)
                store.record_timing(result)
            status = " TIMED OUT after" if result.timed_out else " trials in"
            print(
                f"  [{result.scenario} {result.params}: "
                f"{result.trials}{status} {result.elapsed:.2f}s]",
                file=sys.stderr,
            )
    except ConfigurationError as exc:
        failure = f"{what} failed: {exc}"
    except CampaignDeadline as exc:
        outcome.deadline = exc
    except sqlite3.Error as exc:
        failure = f"{what} stopped: cannot write to --out store {store.path}: {exc}"
    except KeyboardInterrupt:
        interrupted = True
        raise
    finally:
        if store is not None:
            rendered = _render_out(args, store)
            store.close()
            failure = failure or rendered
            if interrupted:
                note = rendered or (
                    f"{outcome.ran} finished row(s) checkpointed to {args.out}"
                )
                print(
                    f"  [interrupted: {note}; --resume continues]",
                    file=sys.stderr,
                )
    if failure is not None:
        raise SystemExit(failure)
    return outcome


def _budget_from_args(args):
    """The adaptive-budget flags -> a manifest budget mapping (or None).

    Exactly one stop criterion may be given: ``--ci-width W``
    (wilson-width), ``--rel-precision R`` (relative-precision), or
    ``--fail-rate-target T`` (fail-rate-target). ``--max-trials``
    defaults to ``--trials``: the adaptive budget is early stopping of
    the fixed budget you would otherwise burn, with ``--min-trials`` as
    the floor before the stop rule may fire. Only the *implicit* floor
    (:data:`~repro.experiments.budget.DEFAULT_MIN_TRIALS`) is capped at
    the ceiling; an explicit ``--min-trials`` above ``--max-trials`` is
    rejected by the policy itself, since the mapping is parsed exactly
    as the same budget object in a manifest is.
    """
    criteria = [
        ("--ci-width", args.ci_width, "wilson-width", "ci_width"),
        ("--rel-precision", args.rel_precision, "relative-precision", "rel_precision"),
        ("--fail-rate-target", args.fail_rate_target, "fail-rate-target", "target"),
    ]
    given = [entry for entry in criteria if entry[1] is not None]
    if len(given) > 1:
        raise SystemExit(
            "pick one stop criterion: "
            + " / ".join(flag for flag, *_ in criteria)
        )
    if not given:
        for flag in ("--max-trials", "--min-trials"):
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                raise SystemExit(
                    f"{flag} requires a stop criterion "
                    "(--ci-width / --rel-precision / --fail-rate-target)"
                )
        return None
    flag, value, policy, field = given[0]
    max_trials = args.max_trials if args.max_trials is not None else args.trials
    if args.min_trials is None:
        min_trials = min(DEFAULT_MIN_TRIALS, max_trials)
    else:
        min_trials = args.min_trials
    return {
        "policy": policy,
        field: value,
        "min_trials": min_trials,
        "max_trials": max_trials,
    }


def _cmd_sweep(args) -> int:
    if args.list:
        for name, desc, _tags, defaults, _batch in _scenario_rows():
            print(f"{name:<26} {desc}  [{defaults}]")
        return 0
    if not args.scenario:
        raise SystemExit("sweep requires --scenario NAME (or --list)")
    if args.trials < 0:
        raise SystemExit(f"--trials must be >= 0, got {args.trials}")
    budget = _budget_from_args(args)
    entry = {
        "scenario": args.scenario,
        "grid": _parse_grid(args.param),
        "base_seed": args.seed,
        "max_steps": args.max_steps,
    }
    if budget is None:
        entry["trials"] = args.trials
    else:
        entry["budget"] = budget
    # The one-entry manifest validates the scenario, the budget and the
    # whole grid eagerly — a typo'd re-run fails here, before a store is
    # created.
    points = expand_manifest([entry])
    rows, completed, model = _load_resume_state(args)
    results = run_campaign(
        points,
        workers=resolve_workers(args.workers),
        completed=completed,
        chunk_size=args.chunk_size,
        chunker=None if args.chunk_size is not None else model,
    )
    ran = _emit_rows(results, args, rows, "sweep").ran
    if args.resume:
        print(
            f"  [resume: ran {ran} of {len(points)} grid points; "
            f"{len(points) - ran} already in {args.out}]",
            file=sys.stderr,
        )
    return 0


def _campaign_dry_run(args, points, model, completed) -> int:
    """``campaign --dry-run``: the plan, not the trials.

    One stdout line per point in manifest (admission) order — status
    (``done`` = its resume key already has a row in ``--out``,
    ``pending`` = it would run), the point's full identity, and its
    estimated seconds when the store's cost ``model`` has seen the path
    it runs on (an adaptive point is priced at its ``max_trials``) —
    then a stderr summary matching the real run's footer, with an
    estimated total and ideal makespan when costs are observed.
    Nothing is executed, and no store is created, imported into or
    written.
    """
    done = 0
    pending_seconds = total_seconds = 0.0
    estimates = 0
    for point in points:
        status = "done" if point.key() in completed else "pending"
        done += status == "done"
        if point.budget is None:
            trials = point.trials
            budget = f"trials={trials}"
        else:
            trials = point.budget.max_trials
            budget = f"budget={point.budget.policy}[max_trials={trials}]"
        params = json.dumps(
            {k: point.params[k] for k in sorted(point.params)}, sort_keys=True
        )
        seconds = model.estimate_seconds(
            cost_key(get_scenario(point.scenario), point.max_steps), trials
        )
        est = ""
        if seconds is not None:
            estimates += 1
            total_seconds += seconds
            if status == "pending":
                pending_seconds += seconds
            est = f" est={seconds:.2f}s"
        print(
            f"{status:<8} {point.scenario} {params} {budget} "
            f"seed={point.base_seed}{est}"
        )
    # 'done' statuses describe what --resume would skip; without it the
    # real run recomputes everything, so say so instead of printing a
    # plan the actual invocation would contradict.
    hint = (
        "; add --resume to skip them"
        if done and not args.resume
        else ""
    )
    print(
        f"  [campaign dry run: {len(points)} points; {done} already in "
        f"{args.out or '<no --out>'}{hint}, {len(points) - done} to run]",
        file=sys.stderr,
    )
    if estimates:
        # Ideal makespan: observed trial-seconds spread perfectly over
        # the workers — a lower bound, not a promise.
        workers = resolve_workers(args.workers)
        run_seconds = pending_seconds if args.resume else total_seconds
        print(
            f"  [observed-cost estimate: ~{total_seconds:.1f}s of trial "
            f"work ({estimates} of {len(points)} points estimated); "
            f"makespan >= ~{run_seconds / workers:.1f}s at "
            f"{workers} worker(s)]",
            file=sys.stderr,
        )
    return 0


def _campaign_metrics(pool, cost_model, total_points):
    """Registry + row observer behind ``campaign --metrics-port``.

    Returns ``(registry, observe)``: the registry scrapes the pool's
    chunk counters and the cost model's per-trial seconds live
    (:func:`~repro.metrics.register_run_metrics`), and ``observe`` wraps
    the campaign's result iterator so every emitted row feeds the
    trial/point counters and the throughput meter as it streams past —
    the same numbers the coordinator exports for distributed runs, for
    the single-host case.
    """
    from repro.metrics import MetricsRegistry, register_run_metrics

    registry = MetricsRegistry()
    count_trials = register_run_metrics(
        registry,
        "Trials folded into emitted rows",
        workers=pool.workers,
        pool=lambda: pool,
        cost_model=cost_model,
    )
    points_done = registry.gauge(
        "repro_points_completed",
        "Campaign points emitted (timed-out partials included)",
    )
    timed_out = registry.counter(
        "repro_points_timed_out_total", "Timed-out partial rows emitted"
    )
    registry.gauge(
        "repro_points_total", "Points in the expanded manifest"
    ).set(total_points)

    def observe(results):
        for result in results:
            points_done.inc()
            if result.timed_out:
                timed_out.inc()
            count_trials(result.trials)
            yield result

    return registry, observe


def _cmd_campaign(args) -> int:
    # Manifest expansion first: unknown scenarios/tags/grid keys/budgets
    # all fail before any trial runs and before a previous --out file is
    # touched.
    points = load_manifest(args.manifest)
    for flag, value in (
        ("--point-timeout", args.point_timeout),
        ("--max-wall-clock", args.max_wall_clock),
    ):
        if value is not None:
            check_seconds(flag, value)
    if args.dry_run:
        # The dry run answers "what is left?" whenever --out exists,
        # without requiring --resume, and never creates, imports into or
        # writes a store. A missing or unreadable --out means every
        # point is pending, never a crash.
        if args.resume and not args.out:
            raise SystemExit("--resume requires --out (the file to resume into)")
        completed, model = set(), AdaptiveChunker()
        if args.out:
            completed, model = _read_out_store(args, strict=False)
            if not is_store_path(args.out):
                completed |= _completed(
                    parse_out_lines(_read_rows_file(args.out, strict=False))
                )
        return _campaign_dry_run(args, points, model, completed)
    rows, completed, model = _load_resume_state(args)
    if args.coordinate:
        if args.metrics_port is not None:
            raise SystemExit(
                "--metrics-port is redundant with --coordinate: the "
                "coordinator already serves /metrics on --listen"
            )
        outcome = _coordinate_campaign(args, points, completed, rows)
        where = " across worker nodes"
    else:
        outcome = _local_campaign(args, points, model, completed, rows)
        where = ""
    # Count skips from the completed set, not len(points) - ran: under a
    # deadline, points that never started are pending, not "already in".
    skipped = sum(point.key() in completed for point in points)
    notes = ""
    if args.resume:
        notes += f"; {skipped} already in {args.out}"
    if outcome.timed_out:
        notes += (
            f"; {outcome.timed_out} timed out (a --resume run retries them)"
        )
    print(
        f"  [campaign: ran {outcome.ran} of {len(points)} points{where}{notes}]",
        file=sys.stderr,
    )
    if outcome.deadline is not None:
        print(
            f"  [campaign: wall-clock deadline reached; "
            f"{outcome.deadline.pending} point(s) never started; "
            f"finished rows checkpointed"
            + (f" to {args.out}" if args.out else "")
            + "; re-run with --resume to continue]",
            file=sys.stderr,
        )
        return EXIT_DEADLINE
    return 0


def _local_campaign(args, points, model, completed, rows) -> _EmitOutcome:
    """The local arm of ``campaign``: run every point on this host's
    worker pool, its chunks sized from the replayed cost ``model``. The
    CLI owns the pool (``run_campaign`` never closes an injected one), so
    ``--metrics-port`` can scrape its live chunk counters while trials
    run."""
    with WorkerPool(resolve_workers(args.workers)) as pool:
        results = run_campaign(
            points,
            pool=pool,
            completed=completed,
            point_timeout=args.point_timeout,
            max_wall_clock=args.max_wall_clock,
            chunk_size=args.chunk_size,
            chunker=None if args.chunk_size is not None else model,
        )
        if args.metrics_port is None:
            return _emit_rows(results, args, rows, "campaign")
        from repro.httpd import serve_metrics

        registry, observe = _campaign_metrics(pool, model, len(points))
        try:
            server, thread = serve_metrics(registry, port=args.metrics_port)
        except OSError as exc:
            raise SystemExit(
                f"cannot serve /metrics on port {args.metrics_port}: {exc}"
            ) from None
        bound_host, bound_port = server.server_address[:2]
        print(
            f"  [campaign: serving http://{bound_host}:{bound_port}/metrics]",
            file=sys.stderr,
        )
        try:
            return _emit_rows(observe(results), args, rows, "campaign")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


def _parse_listen(text: str):
    """``HOST:PORT`` -> ``(host, port)`` (``:PORT`` binds all
    interfaces' loopback default; port 0 asks for an ephemeral one)."""
    host, sep, port = text.rpartition(":")
    if not sep:
        raise SystemExit(f"--listen/--join expects HOST:PORT, got {text!r}")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"bad port in {text!r}") from None


def _coordinate_campaign(args, points, completed, rows) -> _EmitOutcome:
    """The ``--coordinate`` arm of ``campaign``: serve leases to runner
    nodes instead of running trials locally, writing the identical row
    stream to the identical ``--out`` targets."""
    from repro.experiments.coordinator import (
        DEFAULT_LEASE_TRIALS,
        DEFAULT_LEASE_TTL,
        CampaignCoordinator,
        serve_coordinator,
    )

    if args.max_wall_clock is not None:
        raise SystemExit(
            "--max-wall-clock is not supported with --coordinate yet; "
            "bound node loss with --lease-ttl / --point-timeout instead"
        )
    # Lease expiry IS the point-timeout machinery at distributed
    # granularity: a range unreported within the TTL is presumed lost
    # with its node and re-leased, exactly as a timed-out point's
    # trials are retried.
    lease_ttl = args.lease_ttl
    if lease_ttl is None:
        lease_ttl = (
            args.point_timeout
            if args.point_timeout is not None
            else DEFAULT_LEASE_TTL
        )
    host, port = _parse_listen(args.listen)
    try:
        coordinator = CampaignCoordinator(
            points,
            completed=completed,
            lease_trials=(
                args.lease_trials
                if args.lease_trials is not None
                else DEFAULT_LEASE_TRIALS
            ),
            lease_ttl=lease_ttl,
        )
        server, thread = serve_coordinator(coordinator, host, port)
    except OSError as exc:
        raise SystemExit(f"cannot listen on {args.listen!r}: {exc}") from None
    try:
        outcome = _emit_rows(coordinator.results(), args, rows, "campaign")
        # Linger until every live node has polled "done" (and so exits
        # 0) before tearing the server down; dead nodes aren't waited on.
        coordinator.await_nodes_done()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return outcome


def _cmd_node(args) -> int:
    """``node``: join a coordinator and run leased trial ranges."""
    # Imported lazily, like serve: only this subcommand pays for it.
    from repro.experiments.node import run_node

    try:
        return run_node(
            args.join,
            workers=resolve_workers(args.workers),
            poll=args.poll,
            name=args.name,
            retries=args.retries,
            verbose=args.verbose,
        )
    except KeyboardInterrupt:
        return 0


def _cmd_db(args) -> int:
    """``db import``: JSONL rows -> SQLite store; ``db export``: store
    back to JSONL; ``db stats``: counts."""
    if args.db_command == "export":
        # A missing store is refused by the read-only open below.
        # The default target of a run's sibling store X.jsonl.db is its
        # rendering X.jsonl (the inverse of _out_store_path), rewritten
        # by the same renderer the run uses; any other store X.db
        # exports to X.jsonl.
        out = args.out
        if not out:
            if args.db.endswith(".jsonl.db"):
                out = args.db[: -len(".db")]
            else:
                out = os.path.splitext(args.db)[0] + ".jsonl"
        if os.path.abspath(out) == os.path.abspath(args.db):
            raise SystemExit(f"refusing to export {args.db!r} over itself")
        try:
            with ResultStore(args.db, read_only=True) as store:
                exported = store.render_jsonl(out)
        except OSError as exc:
            raise SystemExit(f"cannot write {out!r}: {exc}") from None
        print(f"exported {args.db} to {out}: {exported} line(s)")
        return 0
    if args.db_command == "import":
        if not os.path.exists(args.rows):
            raise SystemExit(f"cannot read rows file: {args.rows!r} does not exist")
        db = args.db or os.path.splitext(args.rows)[0] + ".db"
        skipped = []
        rows = parse_out_lines(
            _read_rows_file(args.rows), on_skip=lambda *skip: skipped.append(skip)
        )
        with ResultStore(db) as store:
            report = store.import_rows(rows)
        print(
            f"imported {args.rows} into {db}: {report['stored']} stored, "
            f"{report['duplicate']} duplicate, {report['marker']} "
            f"timed-out marker(s), {report['superseded']} superseded, "
            f"{len(skipped)} skipped"
        )
        return 0
    with ResultStore(args.db, read_only=True) as store:
        stats = store.stats()
    print(
        f"{args.db}: {stats['completed']} completed row(s), "
        f"{stats['timed_out']} timed-out marker(s), "
        f"{stats['scenarios']} scenario(s)"
    )
    return 0


def _cmd_serve(args) -> int:
    """``serve``: the estimate service over a results database."""
    # Imported lazily: every other subcommand works without ever paying
    # for the HTTP layer.
    from repro.serve import run_server

    return run_server(
        args.db,
        host=args.host,
        port=args.port,
        workers=resolve_workers(args.workers),
        read_only=args.read_only,
        min_trials=args.min_trials,
        max_trials=args.max_trials,
        base_seed=args.seed,
        verbose=args.verbose,
    )


#: Column layout of the ``scenarios`` listing (shared by --markdown).
_SCENARIO_COLUMNS = ("Scenario", "Description", "Tags", "Defaults", "Batch")


def _scenario_rows():
    rows = []
    for spec in all_scenarios():
        defaults = ", ".join(
            f"{k}={v}" for k, v in sorted(spec.defaults.items())
        )
        batch = "yes" if spec.run_batch is not None else ""
        rows.append(
            (spec.name, spec.description, ", ".join(spec.tags), defaults, batch)
        )
    return rows


def _cmd_scenarios(args) -> int:
    """List every registered scenario (the README table's source)."""
    rows = _scenario_rows()
    if args.tag:
        rows = [r for r in rows if args.tag in r[2].split(", ")]
    if args.markdown:
        print("| " + " | ".join(_SCENARIO_COLUMNS) + " |")
        print("|" + "---|" * len(_SCENARIO_COLUMNS))
        for name, desc, tags, defaults, batch in rows:
            print(f"| `{name}` | {desc} | {tags} | `{defaults}` | {batch} |")
        return 0
    widths = [
        max(len(str(row[i])) for row in rows + [_SCENARIO_COLUMNS])
        for i in range(len(_SCENARIO_COLUMNS))
    ]
    for row in rows:
        print(
            "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip()
        )
    return 0


def _cmd_certificate(args) -> int:
    n = args.n
    nodes = list(range(1, n + 1))
    if args.graph == "ring":
        edges = [(i, i % n + 1) for i in nodes]
    else:  # "complete", the only other argparse choice
        edges = [(u, v) for u in nodes for v in nodes if u < v]
    cert = impossibility_certificate(nodes, edges)
    print(cert["statement"])
    print(f"parts    : {cert['parts']}")
    return 0


def _cmd_frontier(args) -> int:
    from repro.analysis.frontier import forcing_frontier

    for point in forcing_frontier(args.sizes):
        print(
            f"n={point.n:<5} smallest forcing k={point.k_min:<3} "
            f"({point.family}), "
            f"k/n^(1/3)={point.k_min / point.conjecture:.2f}; proven gap "
            f"[n^(1/4)={point.lower_bound:.1f}, "
            f"2n^(1/3)={point.upper_bound:.1f}], "
            f"conjecture n^(1/3)={point.conjecture:.1f}"
        )
    return 0


def _cmd_fuzz(args) -> int:
    from repro.testing.fuzz import deviation_search

    report = deviation_search(
        args.n,
        args.k,
        samples=args.samples,
        master_seed=args.seed,
        workers=resolve_workers(args.workers),
    )
    print(f"sampled deviations : {report.samples} (n={args.n}, k={args.k})")
    print(f"punished (FAIL)    : {report.punished} "
          f"({report.punishment_rate:.0%})")
    print(f"max outcome rate   : {report.max_outcome_rate:.3f} "
          f"(attack-level forcing would be ~1.0)")
    return 0


def _cmd_lint(args) -> int:
    """``lint``: run the project-invariant static analyzer.

    Exit status is the gate CI keys on: 0 means no findings, non-zero
    otherwise (configuration mistakes — unknown rule selectors, missing
    paths — report on stderr with no findings listing).
    """
    # Imported lazily, like serve/node: only this subcommand pays for it.
    from repro.lint import lint_paths, render_json, render_text

    findings = lint_paths(args.paths, select=args.select, ignore=args.ignore)
    if args.format == "json":
        sys.stdout.write(render_json(findings))
    else:
        sys.stdout.write(render_text(findings))
        print(
            f"  [lint: {len(findings)} finding(s)]",
            file=sys.stderr,
        )
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fair leader election for rational agents — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags several subcommands share, each declared once and attached
    # through argparse ``parents``.
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument(
        "--workers", type=_workers_arg, default=1, metavar="N|auto",
        help="worker processes (auto = derive from the machine)",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    max_steps = argparse.ArgumentParser(add_help=False)
    max_steps.add_argument(
        "--max-steps", type=int, default=None,
        help="per-execution delivery budget before declaring "
             "non-termination",
    )
    out_store = argparse.ArgumentParser(add_help=False)
    out_store.add_argument(
        "--out", default=None,
        help="also write JSON rows to this file, rendered from its "
             "SQLite results store FILE.db (a .db/.sqlite suffix "
             "targets the store itself)",
    )
    out_store.add_argument(
        "--resume",
        action="store_true",
        help="skip points whose rows are already in --out; append the rest",
    )
    out_store.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="pin trials per worker chunk (default: cost-adaptive "
             "sizing from observed per-trial seconds; never affects "
             "results, only scheduling)",
    )
    # run/bias --protocol X runs the registered scenario honest/X.
    honest = [
        name[len("honest/"):]
        for name in scenario_names()
        if name.startswith("honest/")
    ]

    p = sub.add_parser(
        "run", parents=[seed, max_steps], help="run a protocol honestly"
    )
    p.add_argument("--protocol", choices=honest, required=True)
    p.add_argument("--n", type=int, default=16)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "attack", parents=[seed, max_steps], help="run an adversarial deviation"
    )
    p.add_argument(
        "--name",
        choices=sorted(ATTACK_SCENARIOS),
        required=True,
    )
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--target", type=int, default=1)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser(
        "bias", parents=[seed, workers, max_steps], help="estimate a protocol's bias"
    )
    p.add_argument("--protocol", choices=honest, required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=400)
    p.set_defaults(func=_cmd_bias)

    p = sub.add_parser(
        "sweep",
        parents=[seed, workers, max_steps, out_store],
        help="run a registered scenario grid; one JSON row per grid point",
    )
    p.add_argument("--scenario", default=None, help="registry name, e.g. attack/cubic")
    p.add_argument("--list", action="store_true", help="list registered scenarios")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=V[,V...]",
        help="pin a parameter or sweep comma-separated values (repeatable)",
    )
    p.add_argument(
        "--ci-width", type=float, default=None, metavar="W",
        help="adaptive budget (wilson-width policy): stop a grid point "
             "once its Wilson interval is narrower than W "
             "(see also --min-trials/--max-trials)",
    )
    p.add_argument(
        "--rel-precision", type=float, default=None, metavar="R",
        help="adaptive budget (relative-precision policy): stop once the "
             "Wilson half-width is at most R times the estimate",
    )
    p.add_argument(
        "--fail-rate-target", type=float, default=None, metavar="T",
        help="adaptive budget (fail-rate-target policy): stop once the "
             "Wilson interval lies entirely above or below T",
    )
    p.add_argument(
        "--min-trials", type=int, default=None,
        help="adaptive budget: never stop before this many trials "
             f"(default {DEFAULT_MIN_TRIALS}, capped at the ceiling)",
    )
    p.add_argument(
        "--max-trials", type=int, default=None,
        help="adaptive budget: hard trial ceiling (default: --trials)",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "campaign",
        parents=[workers, out_store],
        help="run a JSON manifest of scenario grids against one resume store",
    )
    p.add_argument(
        "manifest",
        help="JSON file of (scenario|tag, grid, trials, base_seed) entries",
    )
    p.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help="abandon any grid point that exceeds this wall-clock budget "
             "(at its next chunk boundary): it is recorded as a "
             "timed_out row that --resume retries, while the remaining "
             "points keep running",
    )
    p.add_argument(
        "--max-wall-clock", type=float, default=None, metavar="SECONDS",
        help="global campaign deadline: on expiry the campaign "
             "checkpoints every finished row to --out and exits with "
             f"code {EXIT_DEADLINE} (resume with --resume)",
    )
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded point list in manifest order with "
             "resume status and observed-cost estimates from the --out "
             "store instead of running anything",
    )
    p.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus-text /metrics (and /healthz) on "
             "127.0.0.1:PORT for the duration of the run — live trial "
             "throughput, point progress, and pool chunk counters "
             "(port 0 binds an ephemeral port; not with --coordinate, "
             "whose --listen endpoint already serves /metrics)",
    )
    p.add_argument(
        "--coordinate", action="store_true",
        help="run no trials locally: serve (point, trial-range) leases "
             "over HTTP to 'repro node' workers and fold their reports "
             "into --out (rows are byte-identical to a local run)",
    )
    p.add_argument(
        "--listen", default="127.0.0.1:8765", metavar="HOST:PORT",
        help="coordinator listen address (with --coordinate; "
             "port 0 binds an ephemeral port; default %(default)s)",
    )
    p.add_argument(
        "--lease-trials", type=int, default=None, metavar="N",
        help="trials per lease handed to a node (with --coordinate; "
             "default 1024; never affects results, only scheduling)",
    )
    p.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="re-lease a range not reported within this window — the "
             "point-timeout retry machinery applied to lost nodes "
             "(with --coordinate; default: --point-timeout, else 30)",
    )
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "node",
        parents=[workers],
        help="join a 'campaign --coordinate' coordinator and run leased "
             "trial ranges on a local worker pool",
    )
    p.add_argument(
        "--join", required=True, metavar="HOST:PORT",
        help="coordinator address (the campaign --listen value)",
    )
    p.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="sleep between empty lease polls (default %(default)s)",
    )
    p.add_argument(
        "--name", default=None,
        help="node name reported to the coordinator "
             "(default: short hostname)",
    )
    p.add_argument(
        "--retries", type=int, default=30,
        help="consecutive connection failures before giving up "
             "(default %(default)s)",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="log leases and reports to stderr",
    )
    p.set_defaults(func=_cmd_node)

    p = sub.add_parser(
        "db", help="manage a SQLite results store (import / export / stats)"
    )
    db_sub = p.add_subparsers(dest="db_command", required=True)
    q = db_sub.add_parser(
        "import",
        help="import a JSONL --out file into a results database "
             "(losslessly; torn lines are skipped, timed-out rows "
             "become retry markers)",
    )
    q.add_argument("rows", help="JSONL rows file (a sweep/campaign --out)")
    q.add_argument(
        "--db", default=None,
        help="database path (default: the rows file with a .db suffix)",
    )
    q.set_defaults(func=_cmd_db)
    q = db_sub.add_parser(
        "export",
        help="export a results database back to a JSONL rows file "
             "(lossless inverse of import: a run or db import reads the "
             "file back, so export -> import merges stores)",
    )
    q.add_argument("db", help="database path")
    q.add_argument(
        "--out", default=None,
        help="JSONL output path (default: X.jsonl for a run's store "
             "X.jsonl.db, otherwise the database with a .jsonl suffix)",
    )
    q.set_defaults(func=_cmd_db)
    q = db_sub.add_parser("stats", help="row counts of a results database")
    q.add_argument("db", help="database path")
    q.set_defaults(func=_cmd_db)

    p = sub.add_parser(
        "serve",
        parents=[workers],
        help="serve estimate queries over HTTP from a results database "
             "(stored rows when precise enough, adaptive points on miss)",
    )
    p.add_argument("--db", required=True, help="SQLite results database")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 binds an ephemeral port)",
    )
    p.add_argument(
        "--read-only", action="store_true",
        help="answer only from stored rows; a query nothing stored "
             "satisfies is refused (HTTP 409) instead of computed",
    )
    p.add_argument(
        "--min-trials", type=int, default=DEFAULT_MIN_TRIALS,
        help="adaptive floor for cold-miss points (default %(default)s)",
    )
    p.add_argument(
        "--max-trials", type=int, default=DEFAULT_MAX_TRIALS,
        help="adaptive ceiling for cold-miss points (default %(default)s)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="base seed for cold-miss points",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="log each HTTP request to stderr",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "scenarios",
        help="list every registered scenario (source of the README table)",
    )
    p.add_argument("--tag", default=None, help="only scenarios with this tag")
    p.add_argument(
        "--markdown", action="store_true", help="emit a Markdown table"
    )
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser(
        "certificate", help="Theorem 7.2 impossibility certificate"
    )
    p.add_argument("--graph", choices=["ring", "complete"], default="ring")
    p.add_argument("--n", type=int, default=12)
    p.set_defaults(func=_cmd_certificate)

    p = sub.add_parser(
        "frontier",
        help="Conjecture 4.7: smallest forcing coalition per ring size",
    )
    p.add_argument("--sizes", type=int, nargs="+", default=[64, 144, 256])
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser(
        "fuzz",
        parents=[seed, workers],
        help="random-deviation search against A-LEADuni (Thm 5.1)",
    )
    p.add_argument("--n", type=int, default=25)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "lint",
        help="static invariant checks: determinism (R1), lock "
             "discipline (R2), row integrity (R3); exit 1 on findings",
    )
    p.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="text: path:line:col: RULE message per finding; "
             "json: a stable {\"findings\": [...]} document",
    )
    p.add_argument(
        "--select", default=None, metavar="RULES",
        help="only report these comma-separated rule ids/prefixes "
             "(R2 selects every R2xx rule)",
    )
    p.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="drop these comma-separated rule ids/prefixes from the "
             "report",
    )
    p.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    # Infeasible values (a ring too small, a coalition too large, a bad
    # store or manifest) raise ConfigurationError wherever they are
    # checked; on the command line each is a one-line usage error.
    try:
        return args.func(args)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
