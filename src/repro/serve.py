"""The estimate service: stored results first, trials only on a miss.

``python -m repro serve --db results.db`` puts a long-running HTTP
front end (:mod:`repro.httpd` on stdlib sockets — no new dependencies)
over a :class:`~repro.experiments.store.ResultStore`, so consumers of the
reproduction ask one question —

    GET /estimate?scenario=attack/basic-cheat&ci_width=0.1&n=16&target=5

— and never care whether the answer was measured last night or must be
measured now:

- **Cache hit:** some completed row for the (scenario, canonical
  params) point already pins the success rate to within the requested
  ``ci_width`` (the Wilson interval from its stored counters is narrow
  enough — the same
  :func:`~repro.experiments.budget.precision_satisfied` rule the
  ``wilson-width`` budget policy stops on). The stored row is returned
  without dispatching a single trial; ``"source": "store"``.
- **Cache miss:** the service runs one adaptive-budget campaign point
  (``trials=None`` + a :class:`WilsonWidthPolicy` at the requested
  width) on its shared :class:`~repro.experiments.pool.WorkerPool`,
  persists the converged row to the store, and returns it;
  ``"source": "computed"``. Identical queries arriving while the point
  runs queue behind that point's lock and are answered from the store;
  queries for *different* cold points take different locks and compute
  concurrently on the shared pool. A chunk the shared cost model
  already prices under 1 ms
  (:data:`~repro.experiments.chunking.INLINE_CHUNK_SECONDS`), such as
  every batch of a warm kernel scenario's miss, is computed in the
  request's own thread instead, since a pool round trip would cost more
  than the chunk itself.
- **Read-only (``--read-only``):** a miss is refused with HTTP 409
  instead of computed — the mode for pointing the service at a store
  some other process owns.

Endpoints: ``GET /estimate`` (query string: ``scenario``, ``ci_width``,
every other key a parameter literal — same grammar as ``--param``;
repeated keys and blank values are rejected with 400 rather than
silently last-winning or vanishing), ``POST /estimate`` (JSON body
``{"scenario": ..., "ci_width": ..., "params": {...}}``),
``GET /scenarios``, ``GET /healthz``, and ``GET /metrics`` (Prometheus
text format — store hit/miss counters, trials/sec, in-flight computes,
pool chunk counters, per-scenario EWMA cost, client disconnects).
Errors: 400 for malformed queries and malformed POST bodies (a bad
``Content-Length``, or a body that is not a JSON object), 404 for
unknown paths, 409 for a read-only refusal.
"""

import sys
import threading
from typing import Any, Dict, Mapping, Optional
from urllib.parse import parse_qsl

from repro.analysis.stats import wilson_interval
from repro.experiments.budget import (
    DEFAULT_MAX_TRIALS,
    DEFAULT_MIN_TRIALS,
    WilsonWidthPolicy,
    precision_satisfied,
)
from repro.experiments.campaign import CampaignPoint, run_campaign
from repro.experiments.chunking import AdaptiveChunker
from repro.experiments.pool import WorkerPool
from repro.experiments.scenario import get_scenario, scenario_names
from repro.experiments.store import ResultStore
from repro.experiments.sweep import coerce_param
from repro.httpd import JsonHTTPServer, RouteError, make_json_server
from repro.metrics import MetricsRegistry, register_run_metrics
from repro.util.errors import ConfigurationError

class ComputeRefused(RouteError):
    """A cold query hit a read-only service: nothing stored satisfies
    the requested precision and computing is disabled."""

    status = 409


class EstimateService:
    """The query layer: one store, one shared pool, one precision rule.

    Thread-safe by construction: the store serialises its connection
    internally, and trial-running is serialised **per point** — a
    refcounted lock table keyed by the adaptive point's resume key
    ``(scenario, canonical params, budget key)`` means identical
    in-flight queries still coalesce (whoever waited re-probes the
    store before computing; their answer usually just arrived), while
    queries for distinct cold points hold distinct locks and run their
    campaigns concurrently against the shared pool —
    ``multiprocessing.Pool`` submission is thread-safe, and each
    campaign drains its own results queue. One shared
    :class:`~repro.experiments.chunking.AdaptiveChunker` sizes every
    compute's chunks, so each request sharpens the cost model the next
    one schedules by.

    Every service owns a :class:`~repro.metrics.MetricsRegistry`
    (``self.metrics``) rendered by ``GET /metrics``: store hits/misses,
    refusals, trials run and trials/sec, in-flight computes (the lock
    table's live size), the shared pool's chunk counters, per-scenario
    EWMA cost from the chunker, and client disconnects counted by the
    HTTP layer.
    """

    #: Lock discipline, checked by ``python -m repro lint`` (R201).
    _GUARDED_BY = {"_pool": "_pool_lock", "_locks": "_locks_guard"}

    def __init__(
        self,
        store: ResultStore,
        workers: int = 1,
        read_only: bool = False,
        min_trials: int = DEFAULT_MIN_TRIALS,
        max_trials: int = DEFAULT_MAX_TRIALS,
        base_seed: int = 0,
        z: float = 1.96,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.store = store
        self.workers = workers
        self.read_only = read_only or store.read_only
        self.min_trials = min_trials
        self.max_trials = max_trials
        self.base_seed = base_seed
        self.z = z
        # Bounds no cold query could run under (a zero trial bound, a bad
        # z) are the operator's error: refuse them here, not per request.
        self._policy(1.0)
        self._pool: Optional[WorkerPool] = None
        self._pool_lock = threading.Lock()
        # Per-point compute locks: key -> [lock, waiter refcount]. The
        # guard covers only table bookkeeping; the per-key lock is held
        # across the (re-probe, compute, persist) critical section.
        self._locks: Dict[str, list] = {}
        self._locks_guard = threading.Lock()
        self._chunker = AdaptiveChunker()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._wire_metrics()

    def _wire_metrics(self) -> None:
        metrics = self.metrics
        self._hits = metrics.counter(
            "repro_store_hits_total",
            "Estimates answered from a stored row without running trials",
        )
        self._misses = metrics.counter(
            "repro_store_misses_total",
            "Estimates that had to compute (no stored row was precise enough)",
        )
        self._refusals = metrics.counter(
            "repro_compute_refused_total",
            "Cold estimates refused because the service is read-only",
        )
        self._count_trials = register_run_metrics(
            metrics,
            "Trials run by this process",
            workers=self.workers,
            pool=self._current_pool,
            cost_model=self._chunker,
        )
        self.disconnects = metrics.counter(
            "repro_http_disconnects_total",
            "Clients that hung up before the response was fully written",
        )
        if self.store.observer is None:
            appends = metrics.counter(
                "repro_store_appends_total",
                "Rows offered to the results store, by append outcome",
            )
            self.store.observer = lambda outcome: appends.inc(outcome=outcome)
        inflight = metrics.gauge(
            "repro_inflight_computes",
            "Points currently holding or queued on a compute lock",
        )
        pool_alive = metrics.gauge(
            "repro_pool_alive", "Whether the shared worker pool is started"
        )

        def scrape() -> None:
            with self._locks_guard:
                inflight.set(len(self._locks))
            pool_alive.set(0 if self._current_pool() is None else 1)

        metrics.collect(scrape)

    def _current_pool(self) -> Optional[WorkerPool]:
        """The shared pool, or ``None`` before the first compute."""
        with self._pool_lock:
            return self._pool

    # -- the one question ----------------------------------------------

    def estimate(
        self, scenario: str, params: Mapping[str, Any], ci_width: float
    ) -> Dict[str, Any]:
        """Answer ``estimate(scenario, params, ci_width)`` (see module
        docstring). Raises :class:`ConfigurationError` for malformed
        requests and :class:`ComputeRefused` for a read-only miss."""
        if (
            isinstance(ci_width, bool)
            or not isinstance(ci_width, (int, float))
            or not 0.0 < ci_width <= 1.0
        ):
            raise ConfigurationError(
                f"ci_width must be in (0, 1], got {ci_width!r}"
            )
        spec = get_scenario(scenario)  # raises on unknown scenarios
        resolved = spec.resolve_params(dict(params or {}))
        cached = self._cached(spec.name, resolved, ci_width)
        if cached is not None:
            self._hits.inc()
            return cached
        if self.read_only:
            self._refusals.inc()
            raise ComputeRefused(
                "no stored row satisfies the requested precision and the "
                "service is read-only"
            )
        key = self._point(spec.name, resolved, ci_width).key()
        entry = self._checkout_lock(key)
        entry[0].acquire()
        try:
            # Re-probe: an identical query that held the lock first has
            # usually just persisted exactly the row this one needs.
            # Distinct points hold distinct locks, so a cold grid of
            # queries computes concurrently instead of single-file.
            cached = self._cached(spec.name, resolved, ci_width)
            if cached is not None:
                self._hits.inc()
                return cached
            self._misses.inc()
            row = self._compute(spec.name, resolved, ci_width)
            return self._response(row, ci_width, source="computed")
        finally:
            entry[0].release()
            self._checkin_lock(key, entry)

    # -- internals -----------------------------------------------------

    def _checkout_lock(self, key: str) -> list:
        """The point's ``[lock, refcount]`` entry, refcount bumped. The
        bump happens under the table guard *before* anyone blocks on the
        lock, so a nonzero refcount proves the entry is still live and
        zero proves no thread holds or wants it."""
        with self._locks_guard:
            entry = self._locks.get(key)
            if entry is None:
                entry = self._locks[key] = [threading.Lock(), 0]
            entry[1] += 1
            return entry

    def _checkin_lock(self, key: str, entry: list) -> None:
        with self._locks_guard:
            entry[1] -= 1
            if entry[1] == 0:
                # Last interested thread: drop the entry so the table
                # tracks in-flight points, not the whole query history.
                del self._locks[key]

    def _policy(self, ci_width: float) -> WilsonWidthPolicy:
        return WilsonWidthPolicy(
            ci_width=ci_width,
            min_trials=min(self.min_trials, self.max_trials),
            max_trials=self.max_trials,
            z=self.z,
        )

    def _cached(
        self, scenario: str, params: Mapping[str, Any], ci_width: float
    ) -> Optional[Dict[str, Any]]:
        """The stored answer, if any stored row is good enough.

        Any completed row for the point whose Wilson width is within
        ``ci_width`` qualifies — whatever run produced it (fixed-trials
        sweep, another budget, another seed): precision is a property of
        the counters, not of how they were requested. The narrowest
        (most-trials) qualifying row wins. Failing that, a row stored
        under *exactly* the adaptive key this query would run is also
        returned — it ran to the policy ceiling without converging, and
        re-running it would burn the same trials to learn the same thing
        (the response carries ``"satisfied": false`` so the caller
        knows).
        """
        best = None
        for row in self.store.lookup(scenario, params):
            trials, successes = row.get("trials"), row.get("successes")
            # bool is excluded explicitly: isinstance(True, int) holds,
            # so a foreign row with "successes": true would otherwise
            # pass this guard and poison the Wilson arithmetic below.
            if (
                isinstance(trials, bool)
                or isinstance(successes, bool)
                or not isinstance(trials, int)
                or not isinstance(successes, int)
            ):
                continue
            if precision_satisfied(successes, trials, ci_width, self.z):
                if best is None or trials > best["trials"]:
                    best = row
        if best is not None:
            return self._response(best, ci_width, source="store")
        exact = self.store.get(self._point(scenario, params, ci_width).key())
        if exact is not None:
            return self._response(exact, ci_width, source="store")
        return None

    def _point(
        self, scenario: str, params: Mapping[str, Any], ci_width: float
    ) -> CampaignPoint:
        return CampaignPoint(
            scenario=scenario,
            params=dict(params),
            trials=None,
            base_seed=self.base_seed,
            max_steps=None,
            budget=self._policy(ci_width),
        )

    def _compute(
        self, scenario: str, params: Mapping[str, Any], ci_width: float
    ) -> Dict[str, Any]:
        """Run the adaptive point on the shared pool and persist it."""
        point = self._point(scenario, params, ci_width)
        results = list(
            run_campaign(
                [point], pool=self._shared_pool(), chunker=self._chunker
            )
        )
        row = results[0].to_row()
        self.store.append_row(row)
        trials = row.get("trials")
        if isinstance(trials, int) and not isinstance(trials, bool):
            self._count_trials(trials)
        return row

    def _shared_pool(self) -> WorkerPool:
        with self._pool_lock:
            if self._pool is None:
                self._pool = WorkerPool(self.workers)
            return self._pool

    def _response(
        self, row: Mapping[str, Any], ci_width: float, source: str
    ) -> Dict[str, Any]:
        trials = row["trials"]
        successes = row["successes"]
        low, high = wilson_interval(successes, trials, self.z)
        return {
            "scenario": row["scenario"],
            "params": row["params"],
            "ci_width": ci_width,
            "trials": trials,
            "successes": successes,
            "estimate": successes / trials if trials else None,
            "low": low,
            "high": high,
            "width": high - low,
            "satisfied": precision_satisfied(
                successes, trials, ci_width, self.z
            ),
            "source": source,
        }

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


def _estimate(service, scenario, params, ci_width) -> Dict[str, Any]:
    """The request checks both ``/estimate`` routes share."""
    if not scenario:
        raise ConfigurationError("missing 'scenario'")
    if ci_width is None:
        raise ConfigurationError("missing 'ci_width'")
    try:
        ci_width = float(ci_width)
    except (TypeError, ValueError):
        raise ConfigurationError(f"bad ci_width {ci_width!r}") from None
    if not isinstance(params, dict):
        raise ConfigurationError("'params' must be an object")
    return service.estimate(scenario, params, ci_width)


def _get_estimate(service, query: str) -> Dict[str, Any]:
    """``GET /estimate``: every query key but ``scenario`` and
    ``ci_width`` is a parameter literal."""
    # keep_blank_values: "?flag=" must reach coerce_param and be
    # rejected there, not silently vanish from the params dict.
    pairs = parse_qsl(query, keep_blank_values=True)
    keys = [key for key, _ in pairs]
    duplicates = sorted({key for key in keys if keys.count(key) > 1})
    if duplicates:
        # "?n=8&n=64" used to estimate n=64 (dict() last-wins); an
        # ambiguous query is the client's bug to hear about.
        raise ConfigurationError(
            "duplicate query parameter(s): " + ", ".join(duplicates)
        )
    params = dict(pairs)
    scenario = params.pop("scenario", None)
    ci_width = params.pop("ci_width", None)
    for key, value in params.items():
        try:
            params[key] = coerce_param(value)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{key}: {exc}") from None
    return _estimate(service, scenario, params, ci_width)


def make_server(
    service: EstimateService, host: str = "127.0.0.1", port: int = 0
) -> JsonHTTPServer:
    """A threading HTTP server bound to ``service`` (``port=0`` binds an
    ephemeral port — read it back from ``server.server_address``)."""
    routes = {
        ("GET", "/scenarios"): lambda query: {"scenarios": scenario_names()},
        ("GET", "/estimate"): lambda query: _get_estimate(service, query),
        ("POST", "/estimate"): lambda body: _estimate(
            service,
            body.get("scenario"),
            body.get("params") or {},
            body.get("ci_width"),
        ),
    }
    return make_json_server(
        host,
        port,
        routes,
        service.metrics,
        lambda: {"status": "ok", "read_only": service.read_only},
        service.disconnects,
    )


def run_server(
    db: str,
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 1,
    read_only: bool = False,
    min_trials: int = DEFAULT_MIN_TRIALS,
    max_trials: int = DEFAULT_MAX_TRIALS,
    base_seed: int = 0,
    verbose: bool = False,
) -> int:
    """``python -m repro serve``: serve estimates until interrupted."""
    store = ResultStore(db, read_only=read_only)
    service = EstimateService(
        store,
        workers=workers,
        read_only=read_only,
        min_trials=min_trials,
        max_trials=max_trials,
        base_seed=base_seed,
    )
    server = make_server(service, host, port)
    if verbose:
        server.RequestHandlerClass.verbose = True
    bound_host, bound_port = server.server_address[:2]
    mode = " (read-only)" if service.read_only else ""
    print(
        f"serving estimates on http://{bound_host}:{bound_port} "
        f"from {db}{mode}",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
        store.close()
    return 0
