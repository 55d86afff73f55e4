"""serve-mixed: the estimate service under a closed loop of two clients.

The store is pre-filled (untimed, serially in-process — these rows are
also the reference for hits). Two client threads then send ``GET
/estimate`` in a closed loop: each sends its next request when the last
one answered. Every :data:`workloads.SERVE_MISS_EVERY`-th request of a
client asks for a distinct unseen point, which the service computes on its shared
2-worker pool, appends, and which the same client re-hits later; the
rest ask for a stored point. Every response must be a 200 with the
expected ``source`` and the counts of the point's stored row; a sample
of computed rows is recomputed serially and compared byte for byte.
"""

import http.client
import json
import os
import random
import shutil
import threading
import time
from collections import namedtuple
from contextlib import ExitStack
from urllib.parse import urlencode

import repro.serve
from repro.experiments.budget import WilsonWidthPolicy
from repro.experiments.campaign import CampaignPoint, expand_manifest, run_campaign
from repro.experiments.chunking import AdaptiveChunker
from repro.experiments.pool import WorkerPool
from repro.experiments.scenario import get_scenario
from repro.experiments.store import ResultStore
from repro.metrics import parse_text
from repro.serve import EstimateService, make_server

import bench
import campaigns
import tracing
import workloads

#: Computed rows per client recomputed serially as a reference.
MISS_SAMPLE = 8
#: Untimed client traffic before the measured window.
WARMUP_SECONDS = 1.0
#: Stretch of the window the throughput figures are taken over: the
#: fastest one counts, as the fastest round does on the campaign
#: workloads.
BUCKET_SECONDS = 2.0

#: One answered request, as the client saw it.
Request = namedtuple(
    "Request", "client phase kind scenario params t0 t1 status body"
)


def _get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _path(scenario: str, params: dict) -> str:
    query = {"scenario": scenario, "ci_width": workloads.SERVE_CI_WIDTH}
    query.update(params)
    return "/estimate?" + urlencode(query)


class Client:
    """One closed-loop client; its request sequence is a function of the
    seed and its index alone, so a run's inputs are a seeded prefix."""

    def __init__(self, index: int, seed: int, hits, port: int):
        self.index = index
        self.port = port
        self.rng = random.Random(seed * 7919 + index)
        self.hits = list(hits)
        self.misses = iter(workloads.serve_misses(seed, index))
        self.computed = []  # this client's misses, re-hit later
        self.records = []
        self.sent = 0

    def run_phase(self, phase: str, stop_at: float) -> None:
        while time.perf_counter() < stop_at:
            point = None
            self.sent += 1
            if self.sent % workloads.SERVE_MISS_EVERY == 0:
                point = next(self.misses, None)
            if point is not None:
                kind = "miss"
            else:
                kind = "hit"
                pick = self.rng.randrange(len(self.hits) + len(self.computed))
                if pick < len(self.hits):
                    point = self.hits[pick]
                else:
                    point = self.computed[pick - len(self.hits)]
            scenario, params = point
            t0 = time.perf_counter()
            status, body = _get(self.port, _path(scenario, params))
            t1 = time.perf_counter()
            self.records.append(
                Request(self.index, phase, kind, scenario, params, t0, t1, status, body)
            )
            if kind == "miss" and status == 200:
                self.computed.append(point)


def _run_phase(clients, phase: str, budget: float) -> tuple:
    """Run the clients for ``budget`` seconds; returns the phase's
    ``(start, seconds)``."""
    start = time.perf_counter()
    threads = [
        threading.Thread(target=c.run_phase, args=(phase, start + budget))
        for c in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, time.perf_counter() - start


def _phase_e2e(records, start: float, window: float) -> dict:
    """Latencies over the whole window; computed points and trials per
    second in the fastest :data:`BUCKET_SECONDS` stretch of it."""
    hits = [r.t1 - r.t0 for r in records if r.kind == "hit"]
    misses = [r for r in records if r.kind == "miss"]
    miss_ms = [(r.t1 - r.t0) * 1000.0 for r in misses]
    buckets = max(1, int(window // BUCKET_SECONDS))
    points = [0] * buckets
    trials = [0] * buckets
    for r in misses:
        bucket = int((r.t1 - start) // BUCKET_SECONDS)
        if r.status == 200 and bucket < buckets:
            points[bucket] += 1
            trials[bucket] += json.loads(r.body).get("trials", 0)
    return {
        "trials_per_s": (max(trials) / BUCKET_SECONDS, "1/s"),
        "points_per_s": (max(points) / BUCKET_SECONDS, "1/s"),
        "estimate_hit_p50_ms": (bench.percentile(hits, 50) * 1000.0, "ms"),
        "estimate_hit_p99_ms": (bench.percentile(hits, 99) * 1000.0, "ms"),
        "estimate_miss_p50_ms": (bench.percentile(miss_ms, 50), "ms"),
        "estimate_miss_p90_ms": (bench.percentile(miss_ms, 90), "ms"),
        "requests_per_s": (len(records) / window, "1/s"),
        "hit_samples": (len(hits), "count"),
        "miss_samples": (len(misses), "count"),
    }


def _miss_point(scenario: str, params: dict, seed: int) -> CampaignPoint:
    """The adaptive point the service computes for a miss."""
    return CampaignPoint(
        scenario=scenario,
        params=get_scenario(scenario).resolve_params(params),
        trials=None,
        base_seed=seed,
        max_steps=None,
        budget=WilsonWidthPolicy(
            ci_width=workloads.SERVE_CI_WIDTH,
            min_trials=workloads.SERVE_MIN_TRIALS,
            max_trials=workloads.SERVE_MAX_TRIALS,
        ),
    )


def _new_service(store, seed: int, service_class):
    return service_class(
        store,
        workers=bench.WORKERS,
        min_trials=workloads.SERVE_MIN_TRIALS,
        max_trials=workloads.SERVE_MAX_TRIALS,
        base_seed=seed,
    )


def _pool_chunks(service) -> dict:
    scrape = parse_text(service.metrics.render())
    return {
        labels.get("state"): value
        for labels, value in scrape.get("repro_pool_chunks_total", [])
    }


def run_serve(seed: int, seconds: float, trace: bool) -> bench.Outcome:
    name = "serve-mixed"
    outcome = bench.Outcome(name)
    work = bench.work_dir(name)
    tracer = tracing.Tracer() if trace else None
    store_class = tracing.TracedStore if trace else ResultStore
    service_class = tracing.TracedService if trace else EstimateService
    log = tracing.ChunkLog(enabled=False)
    store_path = os.path.join(work, "serve.db")
    try:
        prefill = expand_manifest(workloads.serve_prefill(seed))
        expected = {}
        with ResultStore(store_path) as store:
            for line in campaigns.reference_rows(prefill, tracer):
                row = json.loads(line)
                store.append_row(row)
                expected[tracing.point_id(row["scenario"], row["params"])] = row
        hits = [(p.scenario, dict(p.params)) for p in prefill]

        times = bench.SetupTimes()
        store = service = server = None
        for rep in range(bench.SETUP_REPS):
            if server is not None:
                server.server_close()
                service.close()
                store.close()
            import_s = bench.import_seconds()
            with bench.Stopwatch() as store_open:
                store = store_class(store_path)
            with ExitStack() as patches:
                if trace:
                    patches.callback(setattr, repro.serve, "AdaptiveChunker", AdaptiveChunker)
                    repro.serve.AdaptiveChunker = log.chunker_class()
                service = _new_service(store, seed, service_class)
            scenario, params = workloads.serve_warmup(rep)
            with bench.Stopwatch() as spawn:
                warm = service.estimate(scenario, params, workloads.SERVE_CI_WIDTH)
            if warm["source"] != "computed":
                raise RuntimeError("set-up warm-up point was already stored")
            with bench.Stopwatch() as bind:
                server = make_server(service)
            times.add(
                import_s=import_s,
                store_open_s=store_open.seconds,
                pool_spawn_s=spawn.seconds,
                server_bind_s=bind.seconds,
            )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            clients = [Client(i, seed, hits, port) for i in range(bench.WORKERS)]
            # Untimed traffic first; its responses are checked like the rest.
            _run_phase(clients, "warm-up", WARMUP_SECONDS)
            windows = {"plain": _run_phase(clients, "plain", seconds / 2 if trace else seconds)}
            if trace:
                before = _pool_chunks(service)
                service.tracer = store.tracer = tracer
                log.enabled = True
                windows["traced"] = _run_phase(clients, "traced", seconds / 2)
                service.tracer = store.tracer = None
                log.enabled = False
                after = _pool_chunks(service)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            service.close()
            store.close()

        records = [r for c in clients for r in c.records]
        _check_responses(outcome, records, expected, store_path, seed, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = _phase_e2e([r for r in records if r.phase == "plain"], *windows["plain"])
    outcome.e2e.update(plain)
    outcome.e2e["setup_s"] = (times.setup_s(), "s")
    outcome.e2e["peak_rss_mb"] = (bench.peak_rss_mb(), "MB")
    outcome.layers.update(times.layer_metrics())
    if trace:
        traced_records = [r for r in records if r.phase == "traced"]
        delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        client_hits = [
            (tracing.point_id(r.scenario, r.params), r.t0, r.t1)
            for r in traced_records
            if r.kind == "hit"
        ]
        outcome.layers.update(tracing.compute_metrics(tracer))
        outcome.layers.update(
            tracing.dispatch_metrics(log.records, delta, bench.WORKERS, windows["traced"][1])
        )
        outcome.layers.update(tracing.store_metrics(tracer))
        outcome.layers.update(tracing.serve_metrics(tracer, client_hits))
        outcome.layers.update(tracing.coordinator_metrics(tracer))
        outcome.extra["traced_e2e"] = {
            k: v for k, (v, _) in _phase_e2e(traced_records, *windows["traced"]).items()
        }
        outcome.tracer = tracer
    return outcome


def _check_responses(outcome, records, expected, store_path, seed, tracer) -> None:
    """Every response: a 200, the expected source, and the counts of the
    point's stored row. Then each client's first computed rows against
    a serial recomputation."""
    computed = {}
    sample = []
    sampled = dict.fromkeys(range(bench.WORKERS), 0)
    with ResultStore(store_path, read_only=True) as store:
        for r in records:
            ident = tracing.point_id(r.scenario, r.params)
            what = f"{r.kind} {ident}"
            if r.status != 200:
                outcome.check(False, f"{what}: HTTP {r.status}")
                continue
            answer = json.loads(r.body)
            row = expected.get(ident)
            if row is None:
                if ident not in computed:
                    resolved = get_scenario(r.scenario).resolve_params(r.params)
                    stored = store.lookup(r.scenario, resolved)
                    computed[ident] = stored[0] if len(stored) == 1 else None
                row = computed[ident]
            ok = (
                row is not None
                and answer.get("source") == ("computed" if r.kind == "miss" else "store")
                and answer.get("scenario") == r.scenario
                and answer.get("trials") == row["trials"]
                and answer.get("successes") == row["successes"]
            )
            outcome.check(ok, f"{what}: answer {answer} does not match stored row {row}")
            if r.kind == "miss" and row is not None and sampled[r.client] < MISS_SAMPLE:
                sampled[r.client] += 1
                sample.append((r.scenario, r.params, row))
    hooks = (
        tracing.compute_hooks(tracer, [s for s, _, _ in sample])
        if tracer is not None
        else ExitStack()
    )
    with WorkerPool(1) as pool, hooks:
        for scenario, params, row in sample:
            point = _miss_point(scenario, params, seed)
            (result,) = run_campaign([point], pool=pool, chunker=AdaptiveChunker())
            outcome.check(
                campaigns.row_line(result) == json.dumps(row, sort_keys=True),
                f"recomputed {scenario} {params} differs from the stored row",
            )
