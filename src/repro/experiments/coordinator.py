"""The campaign coordinator: multi-host sharding over trial leases.

``python -m repro campaign manifest.json --coordinate --listen H:P``
turns the campaign master into a network service. Because trial ``i``'s
seed is a pure function of ``(base_seed, i)`` and chunk folds are
commutative counters, a grid point shards into disjoint
``(point, trial-range)`` *leases* for free: runner nodes
(``python -m repro node --join H:P``) register, lease ranges, run them
on their local :class:`~repro.experiments.pool.WorkerPool`, and report
the folded ``(outcome_counts, successes, steps_total, trials,
elapsed)`` back. The coordinator is the lease backend of the same
:class:`~repro.experiments.campaign.PointDriver` the single-host
campaign runs: the driver admits points, cuts batches, and folds
reports, and the coordinator keeps only lease slicing, the exactly-once
range table, lease expiry, and HTTP. It emits the same
:class:`~repro.experiments.runner.ExperimentResult` stream into the one
fsync'd results store — rows are byte-identical to a single-host run
because sharding, like chunking, is pure scheduling metadata.

The contracts that keep that true:

- **Batch barriers.** Adaptive budgets decide stop/continue only at
  batch boundaries (:meth:`PointState.next_batch`). The driver cuts a
  batch into leases, and the point's next batch is scheduled only after
  *every* slice of the current one has folded — the same barrier every
  campaign backend runs under — so the trial count an adaptive point
  converges at cannot depend on node count or lease timing.
- **No deadlines.** The coordinator arms neither ``--point-timeout``
  nor ``--max-wall-clock``: its only clock is the lease TTL below.
- **Exactly-once folding.** Every range has one state
  (queued → leased → done); the first report for a range wins and
  duplicates are acknowledged but dropped. Trials are deterministic, so
  a duplicate's payload is identical anyway — the state machine only
  protects the fold from double counting.
- **Lease expiry = retry.** A lease not reported within ``lease_ttl``
  seconds (default: the campaign's ``--point-timeout``, else
  :data:`DEFAULT_LEASE_TTL`) is assumed lost with its node and the
  range is re-queued — a ``kill -9``'d node costs wall-clock, never
  rows. A late report from the presumed-dead node is still accepted if
  the range has not refolded yet, and harmlessly dropped if it has.

Protocol (JSON over stdlib HTTP; all POST bodies/responses are
objects): ``POST /register {name?, workers?} -> {node, lease_trials,
lease_ttl}``; ``POST /lease {node} -> {done, leases: [{lease, point,
scenario, params, base_seed, max_steps, start, end}]}`` (leasing doubles
as the heartbeat); ``POST /report {node, lease, point, start, end,
counts, successes, steps_total, trials, elapsed} -> {status}`` with
status ``accepted`` | ``duplicate`` | ``unknown``; ``GET /status``,
``GET /healthz``, and ``GET /metrics`` (Prometheus text format:
trials/sec, lease queue depth, active leases, per-node EWMA per-trial
seconds, node health, report/expiry counters).
"""

import itertools
import queue
import sys
import threading
import time
from collections import Counter
from http.server import ThreadingHTTPServer
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple
from urllib.parse import urlparse

from repro.experiments.campaign import (
    CampaignPoint,
    CostModel,
    PointDriver,
    PointState,
    ScheduleRef,
    check_seconds,
    pending_points,
    slice_ranges,
)
from repro.experiments.runner import ExperimentResult
from repro.httpd import JsonRequestHandler, bind_handler
from repro.metrics import MetricsRegistry, ThroughputMeter
from repro.util.errors import ConfigurationError

#: Trials per lease: coarse enough that lease round-trips vanish next to
#: trial work, fine enough that a batch spreads across a few nodes and a
#: dead node forfeits a bounded amount of work.
DEFAULT_LEASE_TRIALS = 1024

#: Seconds before an unreported lease is presumed lost with its node.
DEFAULT_LEASE_TTL = 30.0

#: A node is reported healthy while its last lease call is within this
#: many TTLs — one in-flight lease plus scheduling slack.
_HEALTH_TTLS = 3.0


def _checked_int(value: Any, name: str, minimum: int = 0) -> int:
    """An integer from the wire, with the bool-excluding guard every
    numeric field in this codebase uses (``isinstance(True, int)``)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return value


class _Node:
    """Coordinator-side bookkeeping for one registered runner node."""

    __slots__ = ("node_id", "name", "workers", "last_seen", "trials", "saw_done")

    def __init__(self, node_id: str, name: str, workers: int, now: float):
        self.node_id = node_id
        self.name = name
        self.workers = workers
        self.last_seen = now
        self.trials = 0
        self.saw_done = False


class CampaignCoordinator:
    """Shards campaign points into trial-range leases for runner nodes.

    Thread-safe: every state transition happens under one lock, driven
    by HTTP handler threads calling :meth:`register` / :meth:`lease` /
    :meth:`report` and by the consumer draining :meth:`results` (whose
    idle ticks also expire leases, so a campaign whose every node died
    still re-queues the lost ranges). Finished
    :class:`ExperimentResult`\\ s stream out of :meth:`results` in
    completion order — feed them to the same row writer a single-host
    campaign uses.
    """

    #: Lock discipline, checked by ``python -m repro lint`` (R201).
    #: ``_driver`` is the whole admit/batch/fold state, so every driver
    #: call happens under the lock. Not listed: ``_results`` (a
    #: thread-safe queue.Queue), and ``_meter`` and the metric objects
    #: (internally locked).
    _GUARDED_BY = {
        "_driver": "_lock",
        "_ranges": "_lock",
        "_leases": "_lock",
        "_nodes": "_lock",
        "_node_costs": "_lock",
        "_lease_ids": "_lock",
        "_node_ids": "_lock",
    }

    def __init__(
        self,
        points: List[CampaignPoint],
        completed: Optional[Any] = None,
        schedule: ScheduleRef = None,
        lease_trials: int = DEFAULT_LEASE_TRIALS,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_active: int = 4,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.lease_trials = _checked_int(lease_trials, "lease_trials", 1)
        check_seconds("lease_ttl", lease_ttl)
        self.lease_ttl = float(lease_ttl)
        self.max_active = _checked_int(max_active, "max_active", 1)
        # The same resolution as run_campaign — a precondition of
        # byte-identical rows.
        specs, todo = pending_points(points, completed, schedule)
        self.total_points = len(points)
        self.skipped_points = len(points) - len(todo)

        self._lock = threading.Lock()
        # Its queue holds the leasable (point_id, start, end) ranges.
        self._driver = PointDriver(todo, specs, self._cut_locked, self.max_active)
        self._ranges: Dict[Tuple[int, int, int], str] = {}
        self._leases: Dict[str, dict] = {}
        self._nodes: Dict[str, _Node] = {}
        #: EWMA per-trial seconds of each node, keyed by node id.
        self._node_costs = CostModel()
        self._results: "queue.Queue" = queue.Queue()
        self._lease_ids = itertools.count(1)
        self._node_ids = itertools.count(1)

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._wire_metrics()
        with self._lock:
            self._finish_locked(self._driver.admit())

    # -- metrics -------------------------------------------------------

    def _wire_metrics(self) -> None:
        metrics = self.metrics
        self._trials_total = metrics.counter(
            "repro_trials_total", "Trials folded from node reports"
        )
        self._leases_granted = metrics.counter(
            "repro_leases_granted_total", "Leases handed to nodes"
        )
        self._leases_expired = metrics.counter(
            "repro_leases_expired_total",
            "Leases that expired unreported and were re-queued",
        )
        self._reports = metrics.counter(
            "repro_reports_total", "Node reports received, by disposition"
        )
        self.disconnects = metrics.counter(
            "repro_http_disconnects_total",
            "Clients that hung up before the response was fully written",
        )
        self._meter = ThroughputMeter()
        rate = metrics.gauge(
            "repro_trials_per_second",
            "Trials folded over the last sliding window",
        )
        queue_depth = metrics.gauge(
            "repro_lease_queue_depth", "Trial ranges queued and leasable now"
        )
        active_leases = metrics.gauge(
            "repro_leases_active", "Leases currently held by nodes"
        )
        points_active = metrics.gauge(
            "repro_points_active", "Campaign points currently in flight"
        )
        points_pending = metrics.gauge(
            "repro_points_pending", "Campaign points not yet finished"
        )
        points_done = metrics.gauge(
            "repro_points_completed", "Campaign points finished"
        )
        nodes = metrics.gauge(
            "repro_nodes_registered", "Runner nodes ever registered"
        )
        healthy = metrics.gauge(
            "repro_node_healthy",
            "Whether the node leased work recently (1 healthy, 0 stale)",
        )
        node_cost = metrics.gauge(
            "repro_node_per_trial_seconds",
            "EWMA per-trial seconds by node (observed from reports)",
        )

        def scrape() -> None:
            rate.set(self._meter.rate())
            now = time.monotonic()
            with self._lock:
                queue_depth.set(len(self._driver.queue))
                active_leases.set(len(self._leases))
                points_active.set(len(self._driver.active))
                outstanding = self._outstanding_locked()
                points_pending.set(outstanding)
                points_done.set(
                    self.total_points - self.skipped_points - outstanding
                )
                nodes.set(len(self._nodes))
                snapshot = [
                    (node, self._node_costs.per_trial_seconds(node.node_id))
                    for node in self._nodes.values()
                ]
            horizon = _HEALTH_TTLS * self.lease_ttl
            for node, per_trial in snapshot:
                healthy.set(
                    1 if now - node.last_seen <= horizon else 0,
                    node=node.name,
                )
                if per_trial is not None:
                    node_cost.set(per_trial, node=node.name)

        metrics.collect(scrape)

    # -- the node-facing API -------------------------------------------

    def register(
        self, name: Optional[str] = None, workers: Any = 1
    ) -> Dict[str, Any]:
        """Admit a runner node; returns its id and the lease settings."""
        workers = _checked_int(workers, "workers", 1)
        now = time.monotonic()
        with self._lock:
            node_id = f"{name or 'node'}-{next(self._node_ids)}"
            self._nodes[node_id] = _Node(node_id, node_id, workers, now)
        return {
            "node": node_id,
            "lease_trials": self.lease_trials,
            "lease_ttl": self.lease_ttl,
        }

    def lease(self, node_id: str, max_leases: int = 1) -> Dict[str, Any]:
        """Grant up to ``max_leases`` queued ranges to ``node_id``.

        Also the heartbeat: the call stamps the node's liveness and
        sweeps expired leases first, so the queue a node draws from
        already contains any ranges its dead peers forfeited. An empty
        grant with ``done: false`` means "poll again" (every range is
        out on lease or the active points are between batches)."""
        max_leases = _checked_int(max_leases, "max_leases", 1)
        now = time.monotonic()
        granted: List[Dict[str, Any]] = []
        with self._lock:
            self._tick_locked(now)
            node = self._nodes.get(node_id)
            if node is None:
                # A node the coordinator does not know (it restarted, or
                # the node re-joined a different instance): adopt it
                # rather than strand it — registration is bookkeeping,
                # not authorization.
                node = self._nodes[node_id] = _Node(node_id, str(node_id), 1, now)
            node.last_seen = now
            if not self._outstanding_locked():
                node.saw_done = True
                return {"done": True, "leases": []}
            leasable = self._driver.queue
            while leasable and len(granted) < max_leases:
                rng = leasable.popleft()
                point_id, start, end = rng
                state = self._driver.active.get(point_id)
                if state is None or self._ranges.get(rng) != "queued":
                    continue
                lease_id = f"L{next(self._lease_ids)}"
                self._ranges[rng] = "leased"
                self._leases[lease_id] = {
                    "range": rng,
                    "node": node_id,
                    "expires": now + self.lease_ttl,
                }
                self._leases_granted.inc()
                point = state.point
                granted.append(
                    {
                        "lease": lease_id,
                        "point": point_id,
                        "scenario": point.scenario,
                        "params": dict(point.params),
                        "base_seed": point.base_seed,
                        "max_steps": point.max_steps,
                        "start": start,
                        "end": end,
                    }
                )
        return {"done": False, "leases": granted}

    def report(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Fold one lease's result; exactly-once per range.

        ``status: accepted`` — the range folded (first report wins);
        ``duplicate`` — the range already folded (late twin of a
        retried lease; dropped, which is harmless because deterministic
        trials make the copies identical); ``unknown`` — the range does
        not belong to any in-flight point (the point finalized, or the
        echo is corrupt). Malformed payloads raise
        :class:`ConfigurationError` (the HTTP layer answers 400)."""
        node_id = payload.get("node")
        lease_id = payload.get("lease")
        point_id = _checked_int(payload.get("point"), "point")
        start = _checked_int(payload.get("start"), "start")
        end = _checked_int(payload.get("end"), "end")
        trials = _checked_int(payload.get("trials"), "trials")
        successes = _checked_int(payload.get("successes"), "successes")
        steps_total = _checked_int(payload.get("steps_total"), "steps_total")
        if trials != end - start:
            raise ConfigurationError(
                f"report covers {trials} trials but echoes the range "
                f"[{start}, {end}) — a partial fold must not poison the row"
            )
        if successes > trials:
            raise ConfigurationError(
                f"successes ({successes}) cannot exceed trials ({trials})"
            )
        raw_counts = payload.get("counts")
        if not isinstance(raw_counts, Mapping):
            raise ConfigurationError(
                f"counts must be an object, got {raw_counts!r}"
            )
        counts: Counter = Counter()
        for outcome, count in raw_counts.items():
            counts[str(outcome)] = _checked_int(count, f"counts[{outcome!r}]")
        if sum(counts.values()) != trials:
            raise ConfigurationError(
                f"counts sum to {sum(counts.values())} but the report "
                f"claims {trials} trials"
            )

        now = time.monotonic()
        rng = (point_id, start, end)
        with self._lock:
            if isinstance(node_id, str):
                node = self._nodes.get(node_id)
                if node is not None:
                    node.last_seen = now
                    # The cost model rejects a missing, non-positive, or
                    # non-finite elapsed: one bad report costs an
                    # observation, never the node's estimate.
                    if self._node_costs.observe(
                        node_id, trials, payload.get("elapsed")
                    ):
                        node.trials += trials
            if lease_id is not None:
                self._leases.pop(lease_id, None)
            tag = self._ranges.get(rng)
            if tag is None:
                self._reports.inc(status="unknown")
                return {"status": "unknown"}
            if tag == "done":
                self._reports.inc(status="duplicate")
                return {"status": "duplicate"}
            if tag == "queued":
                # The lease expired and the range was re-queued, but the
                # original node finished after all: accept its fold and
                # pull the range back off the queue.
                try:
                    self._driver.queue.remove(rng)
                except ValueError:
                    pass
            self._ranges[rng] = "done"
            self._trials_total.inc(trials)
            self._reports.inc(status="accepted")
            self._finish_locked(
                self._driver.arrive(
                    point_id, (counts, successes, steps_total, trials), now
                )
            )
        self._meter.observe(trials)
        return {"status": "accepted"}

    # -- consumer side -------------------------------------------------

    @property
    def done(self) -> bool:
        with self._lock:
            return not self._outstanding_locked()

    def results(self) -> Iterator[ExperimentResult]:
        """Yield finished point results until the campaign completes.

        Blocks between arrivals; idle waits double as the lease-expiry
        sweep, so progress resumes even if every node died (once a new
        one joins)."""
        while True:
            try:
                item = self._results.get(timeout=0.5)
            except queue.Empty:
                with self._lock:
                    self._tick_locked(time.monotonic())
                continue
            if item is None:
                return
            yield item

    def await_nodes_done(
        self, timeout: float = 5.0, stale_after: float = 2.0
    ) -> bool:
        """Linger until every live node has polled ``done`` (so it exits
        0 cleanly) or ``timeout`` elapses. Nodes silent for longer than
        ``stale_after`` seconds are presumed dead (a ``kill -9``'d node
        never polls again) and not waited for. True when every live node
        was notified."""
        deadline = time.monotonic() + timeout
        while True:
            now = time.monotonic()
            with self._lock:
                waiting = [
                    node
                    for node in self._nodes.values()
                    if not node.saw_done and now - node.last_seen < stale_after
                ]
            if not waiting:
                return True
            if now >= deadline:
                return False
            time.sleep(0.05)

    def status(self) -> Dict[str, Any]:
        """A JSON-ready snapshot for ``GET /status``."""
        now = time.monotonic()
        with self._lock:
            nodes = {
                node.name: {
                    "workers": node.workers,
                    "trials": node.trials,
                    "per_trial_seconds": self._node_costs.per_trial_seconds(
                        node.node_id
                    ),
                    "seconds_since_seen": round(now - node.last_seen, 3),
                }
                for node in self._nodes.values()
            }
            outstanding = self._outstanding_locked()
            return {
                "points": self.total_points,
                "skipped": self.skipped_points,
                "completed": self.total_points - self.skipped_points - outstanding,
                "pending": outstanding,
                "active": len(self._driver.active),
                "lease_queue": len(self._driver.queue),
                "leases_out": len(self._leases),
                "done": outstanding == 0,
                "nodes": nodes,
            }

    # -- internals (call with self._lock held) -------------------------

    def _tick_locked(self, now: float) -> None:
        """Expire overdue leases: their ranges go back to the front of
        the queue (a retried range is the oldest work outstanding)."""
        expired = [
            lease_id
            for lease_id, lease in self._leases.items()
            if now >= lease["expires"]
        ]
        for lease_id in expired:
            lease = self._leases.pop(lease_id)
            rng = lease["range"]
            if self._ranges.get(rng) == "leased":
                self._ranges[rng] = "queued"
                self._driver.queue.appendleft(rng)
                self._leases_expired.inc()

    def _cut_locked(
        self, state: PointState, start: int, end: int
    ) -> List[Tuple[int, int, int]]:
        """The driver's batch cutter: slice a batch into lease ranges."""
        ranges = [
            (state.point_id, s, e)
            for s, e in slice_ranges(start, end, self.lease_trials)
        ]
        for rng in ranges:
            self._ranges[rng] = "queued"
        return ranges

    def _outstanding_locked(self) -> int:
        """Points not finished yet: with no deadlines armed, every point
        is waiting, active, or done."""
        return len(self._driver.waiting) + len(self._driver.active)

    def _finish_locked(self, results: List[ExperimentResult]) -> None:
        """Publish the driver's finished points; ``None`` ends the stream."""
        if results:
            # Purge finished points' range states so duplicate late
            # reports map to "unknown" and the table stays small.
            active = self._driver.active
            self._ranges = {
                rng: tag for rng, tag in self._ranges.items() if rng[0] in active
            }
        for result in results:
            self._results.put(result)
        if not self._outstanding_locked():
            self._results.put(None)


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


class CoordinatorHandler(JsonRequestHandler):
    """Routes node traffic to the class-attribute ``coordinator``
    (installed per server by :func:`make_coordinator_server`)."""

    coordinator: CampaignCoordinator = None  # type: ignore[assignment]

    def do_GET(self) -> None:  # noqa: N802 (http.server's casing)
        path = urlparse(self.path).path
        if path == "/healthz":
            self._send(200, {"status": "ok", "done": self.coordinator.done})
        elif path == "/metrics":
            self._send_text(200, self.coordinator.metrics.render())
        elif path == "/status":
            self._send(200, self.coordinator.status())
        else:
            self._send(404, {"error": f"unknown path {path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        path = urlparse(self.path).path
        body = self.read_json_body()
        if body is None:
            body = {}
        try:
            if path == "/register":
                self._send(
                    200,
                    self.coordinator.register(
                        name=body.get("name"), workers=body.get("workers", 1)
                    ),
                )
            elif path == "/lease":
                node = body.get("node")
                if not isinstance(node, str) or not node:
                    self._send(400, {"error": "missing 'node'"})
                    return
                self._send(
                    200,
                    self.coordinator.lease(
                        node, max_leases=body.get("max_leases", 1)
                    ),
                )
            elif path == "/report":
                self._send(200, self.coordinator.report(body))
            else:
                self._send(404, {"error": f"unknown path {path!r}"})
        except ConfigurationError as exc:
            self._send(400, {"error": str(exc)})


def make_coordinator_server(
    coordinator: CampaignCoordinator, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A threading HTTP server bound to ``coordinator`` (``port=0``
    binds an ephemeral port — read ``server.server_address`` back)."""
    handler = bind_handler(
        CoordinatorHandler,
        "BoundCoordinatorHandler",
        coordinator=coordinator,
        disconnects=coordinator.disconnects,
    )
    return ThreadingHTTPServer((host, port), handler)


def serve_coordinator(
    coordinator: CampaignCoordinator,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> Tuple[ThreadingHTTPServer, threading.Thread]:
    """Start the coordinator's server on a daemon thread and announce
    the bound address on stderr; the caller drains ``results()`` and
    shuts the pair down when the campaign finishes."""
    server = make_coordinator_server(coordinator, host, port)
    if verbose:
        server.RequestHandlerClass.verbose = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    bound_host, bound_port = server.server_address[:2]
    print(
        f"coordinating campaign on http://{bound_host}:{bound_port} "
        f"({coordinator.total_points} point(s), "
        f"{coordinator.skipped_points} already done); nodes join with: "
        f"python -m repro node --join {bound_host}:{bound_port}",
        file=sys.stderr,
    )
    return server, thread
