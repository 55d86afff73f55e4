"""The three campaign workloads: ring-executor, kernel-grid, sharded-lease.

Each run:

1. computes the serial in-process reference rows for its manifest (a
   ``WorkerPool(1)`` campaign; traced runs record the compute-layer
   spans here);
2. sets up :data:`bench.SETUP_REPS` times and keeps the last set-up;
3. runs timed *rounds* until ``--seconds`` have been measured. A round
   is one campaign over the whole manifest into a fresh SQLite store,
   on a ``WorkerPool(2)`` with a ``/metrics`` server, as ``campaign
   --metrics-port`` runs. sharded-lease instead runs one coordinator
   campaign over the manifest repeated to fill ``--seconds``, served
   over HTTP to two ``python -m repro node --workers 1`` processes and
   timed from the first lease granted; its rounds are the intervals in
   which each further manifest's worth of points completed;
4. compares every round's stored rows, sorted, byte for byte against
   the reference, outside the timed region.

Throughput metrics are the fastest round's (ring-executor, kernel-grid)
or the median round's (sharded-lease).
"""

import json
import math
import os
import queue
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext

from repro.experiments.campaign import expand_manifest, run_campaign
from repro.experiments.chunking import AdaptiveChunker
from repro.experiments.coordinator import CampaignCoordinator, make_coordinator_server
from repro.experiments.pool import WorkerPool
from repro.experiments.store import ResultStore, StoreRowWriter
from repro.httpd import serve_metrics
from repro.metrics import MetricsRegistry, parse_text

import bench
import tracing
import workloads

#: Sharded-lease: manifest repetitions per measured second (one
#: repetition takes about 0.5 s with two nodes on a 2-CPU host).
SHARDED_REPEATS_PER_SECOND = 2.0
#: Seconds a node waits between empty lease polls (the default is 0.2).
NODE_POLL_SECONDS = 0.01
#: Longest a sharded round may take before the run is failed.
SHARDED_ROUND_TIMEOUT = 120.0


def row_line(result) -> str:
    """A result's canonical row: the JSON the store keeps."""
    return json.dumps(result.to_row(), sort_keys=True)


def reference_rows(points, tracer=None) -> list:
    """Sorted rows of a serial in-process run of ``points``."""
    hooks = (
        tracing.compute_hooks(tracer, [p.scenario for p in points])
        if tracer is not None
        else nullcontext()
    )
    with WorkerPool(1) as pool, hooks:
        return sorted(
            row_line(result)
            for result in run_campaign(points, pool=pool, chunker=AdaptiveChunker())
        )


def check_rows(outcome: bench.Outcome, expected, got, label: str) -> None:
    """One check per expected row (present byte for byte) plus one
    failed check per row that was not expected."""
    remaining = Counter(got)
    for line in expected:
        ok = remaining[line] > 0
        if ok:
            remaining[line] -= 1
        outcome.check(ok, f"{label}: missing or different row {line[:160]}")
    for line, count in remaining.items():
        for _ in range(count):
            outcome.check(False, f"{label}: unexpected row {line[:160]}")


class Rounds:
    """Per-round throughput of one timed phase, summarised by
    ``statistic`` over rounds."""

    def __init__(self, statistic):
        self.statistic = statistic
        self.seconds = []
        self.trials = []
        self.points = []

    def add(self, seconds: float, trials: int, points: int) -> None:
        self.seconds.append(seconds)
        self.trials.append(trials)
        self.points.append(points)

    def e2e(self) -> dict:
        return {
            "trials_per_s": (
                self.statistic([t / s for t, s in zip(self.trials, self.seconds)]),
                "1/s",
            ),
            "points_per_s": (
                self.statistic([p / s for p, s in zip(self.points, self.seconds)]),
                "1/s",
            ),
        }


def _remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


# ----------------------------------------------------------------------
# ring-executor and kernel-grid
# ----------------------------------------------------------------------


def _metrics_registry(pool: WorkerPool) -> MetricsRegistry:
    """The pool's chunk counters as ``campaign --metrics-port`` serves
    them."""
    registry = MetricsRegistry()
    chunks = registry.counter(
        "repro_pool_chunks_total", "Chunks through the campaign pool, by state"
    )

    def scrape() -> None:
        for state, total in pool.counters().items():
            chunks.set_total(total, state=state)

    registry.collect(scrape)
    return registry


class LocalSetup:
    """One complete local set-up: store, warm pool, metrics server."""

    def __init__(self, work: str, rep: int, times: bench.SetupTimes):
        import_s = bench.import_seconds()
        self.store_path = os.path.join(work, f"setup-{rep}.db")
        with bench.Stopwatch() as store_open:
            self.store = ResultStore(self.store_path)
        with bench.Stopwatch() as spawn:
            self.pool = WorkerPool(bench.WORKERS)
            bench.warm_pool(self.pool)
        with bench.Stopwatch() as bind:
            self.server, self.thread = serve_metrics(_metrics_registry(self.pool))
        times.add(
            import_s=import_s,
            store_open_s=store_open.seconds,
            pool_spawn_s=spawn.seconds,
            server_bind_s=bind.seconds,
        )

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.pool.close()
        self.store.close()


def _local_round(points, pool, path, chunker, tracer=None):
    store = tracing.TracedStore(path, tracer) if tracer else ResultStore(path)
    writer = StoreRowWriter(path, store=store)
    trials = 0
    with bench.Stopwatch() as sw:
        for result in run_campaign(points, pool=pool, chunker=chunker):
            writer.append(row_line(result))
            trials += result.trials
    lines = sorted(store.export_lines())
    writer.close()
    _remove_store(path)
    return sw.seconds, trials, lines


def run_local(name: str, manifest: dict, seconds: float, trace: bool) -> bench.Outcome:
    outcome = bench.Outcome(name)
    points = expand_manifest(manifest)
    work = bench.work_dir(name)
    tracer = tracing.Tracer() if trace else None
    try:
        expected = reference_rows(points, tracer)
        times = bench.SetupTimes()
        setup = None
        for rep in range(bench.SETUP_REPS):
            if setup is not None:
                setup.close()
            setup = LocalSetup(work, rep, times)
        try:
            # The fastest round counts: every round is the same campaign,
            # and on a shared host the slower ones measure interference
            # from other tenants, not the program.
            plain = Rounds(max)
            traced = Rounds(max)
            log = tracing.ChunkLog()
            counters_before = counters_after = {}
            # Traced runs measure half the time untraced, half traced:
            # the difference is the tracing overhead.
            phases = [(plain, None, seconds / 2 if trace else seconds)]
            if trace:
                phases.append((traced, tracer, seconds / 2))
            # One untimed round first, so lazy set-up inside the workers
            # and the store's first-use costs are not in the figures.
            path = os.path.join(work, "warmup.db")
            _, _, lines = _local_round(points, setup.pool, path, AdaptiveChunker())
            check_rows(outcome, expected, lines, "warm-up round")
            index = 0
            for rounds, phase_tracer, budget in phases:
                if phase_tracer is not None:
                    counters_before = setup.pool.counters()
                chunker_class = log.chunker_class() if phase_tracer else AdaptiveChunker
                ends = time.perf_counter() + budget
                while not rounds.seconds or time.perf_counter() < ends:
                    path = os.path.join(work, f"round-{index}.db")
                    took, trials, lines = _local_round(
                        points, setup.pool, path, chunker_class(), phase_tracer
                    )
                    rounds.add(took, trials, len(points))
                    check_rows(outcome, expected, lines, f"round {index}")
                    index += 1
                if phase_tracer is not None:
                    counters_after = setup.pool.counters()
        finally:
            if setup is not None:
                setup.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome.e2e.update(plain.e2e())
    outcome.e2e["setup_s"] = (times.setup_s(), "s")
    outcome.e2e["peak_rss_mb"] = (bench.peak_rss_mb(), "MB")
    outcome.layers.update(times.layer_metrics())
    outcome.extra["round_seconds"] = plain.seconds + traced.seconds
    if trace:
        delta = {k: counters_after[k] - counters_before.get(k, 0) for k in counters_after}
        outcome.layers.update(tracing.compute_metrics(tracer))
        outcome.layers.update(
            tracing.dispatch_metrics(
                log.records, delta, bench.WORKERS, sum(traced.seconds)
            )
        )
        outcome.layers.update(tracing.store_metrics(tracer))
        outcome.layers.update(tracing.serve_metrics(tracer))
        outcome.layers.update(tracing.coordinator_metrics(tracer))
        outcome.extra["traced_e2e"] = {k: v for k, (v, _) in traced.e2e().items()}
        outcome.tracer = tracer
    return outcome


# ----------------------------------------------------------------------
# sharded-lease
# ----------------------------------------------------------------------


class BenchCoordinator(CampaignCoordinator):
    """A coordinator that notes registrations and the first lease it
    grants (where the timed window starts), and records spans around
    ``lease``/``report`` while ``tracer`` is set."""

    def __init__(self, *args, tracer=None, **kwargs):
        self.tracer = tracer
        self.registrations = []
        self.first_lease = None
        self.reports = []  # (trials, node-measured seconds) of accepted reports
        self._bench_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def register(self, name=None, workers=1):
        answer = super().register(name=name, workers=workers)
        with self._bench_lock:
            self.registrations.append(time.perf_counter())
        return answer

    def lease(self, node_id, max_leases=1):
        if self.tracer is None:
            answer = super().lease(node_id, max_leases=max_leases)
        else:

            def info(span, result):
                span.info["empty"] = not result["leases"] and not result["done"]
                span.info["trials"] = sum(
                    lease["end"] - lease["start"] for lease in result["leases"]
                )

            answer = self.tracer.call(
                "coordinator.lease", super().lease, (node_id,),
                {"max_leases": max_leases}, ident=str(node_id), info=info,
            )
        if answer["leases"] and self.first_lease is None:
            with self._bench_lock:
                if self.first_lease is None:
                    self.first_lease = time.perf_counter()
        return answer

    def report(self, payload):
        if self.tracer is None:
            return super().report(payload)
        answer = self.tracer.call(
            "coordinator.report", super().report, (payload,),
            ident=str(payload.get("node")),
        )
        if answer.get("status") == "accepted":
            with self._bench_lock:
                self.reports.append(
                    (payload.get("trials", 0), float(payload.get("elapsed") or 0.0))
                )
        return answer

    def wait_registered(self, count: int, nodes, timeout: float) -> float:
        """perf_counter instant the ``count``-th node registered."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with self._bench_lock:
                if len(self.registrations) >= count:
                    return self.registrations[count - 1]
            # A node may finish a tiny campaign and exit 0 before its
            # peer registers; any other exit is a failure.
            for node in nodes:
                if node.poll() not in (None, 0):
                    raise RuntimeError(f"node exited with {node.returncode}")
            time.sleep(0.002)
        raise RuntimeError(f"nodes did not register within {timeout}s")


def _node_command(port: int, index: int) -> list:
    return [
        sys.executable, "-m", "repro", "node",
        "--join", f"127.0.0.1:{port}",
        "--workers", "1",
        "--poll", str(NODE_POLL_SECONDS),
        "--name", f"bench{index}",
        "--retries", "3",
    ]


def sharded_campaign(points, work: str, tag: str, tracer=None) -> dict:
    """One coordinator campaign over ``points`` with fresh nodes."""
    path = os.path.join(work, f"{tag}.db")
    with bench.Stopwatch() as store_open:
        store = tracing.TracedStore(path, tracer) if tracer else ResultStore(path)
    writer = StoreRowWriter(path, store=store)
    coordinator = BenchCoordinator(
        points, lease_trials=workloads.LEASE_TRIALS, lease_ttl=30.0, tracer=tracer
    )
    with bench.Stopwatch() as bind:
        server = make_coordinator_server(coordinator)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
    port = server.server_address[1]
    logs = []
    nodes = []
    results: "queue.Queue" = queue.Queue()
    try:
        spawned = time.perf_counter()
        for index in range(bench.WORKERS):
            log = open(os.path.join(work, f"{tag}-node{index}.log"), "w")
            logs.append(log)
            nodes.append(
                subprocess.Popen(
                    _node_command(port, index),
                    cwd=bench.ROOT,
                    env=os.environ.copy(),
                    stdin=subprocess.DEVNULL,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                )
            )
        registered = coordinator.wait_registered(bench.WORKERS, nodes, 60.0)

        def drain() -> None:
            try:
                for result in coordinator.results():
                    results.put(result)
            finally:
                results.put(None)

        threading.Thread(target=drain, daemon=True).start()
        lines = []
        completions = []  # (perf_counter, trials) per finished point
        deadline = time.perf_counter() + SHARDED_ROUND_TIMEOUT
        while True:
            try:
                result = results.get(timeout=1.0)
            except queue.Empty:
                if time.perf_counter() > deadline or all(
                    node.poll() is not None for node in nodes
                ):
                    raise RuntimeError("sharded round stalled")
                continue
            if result is None:
                break
            line = row_line(result)
            writer.append(line)
            lines.append(line)
            completions.append((time.perf_counter(), result.trials))
        coordinator.await_nodes_done(timeout=10.0)
        for node in nodes:
            if node.wait(timeout=30) != 0:
                raise RuntimeError(f"node exited with {node.returncode}")
    finally:
        for node in nodes:
            if node.poll() is None:
                node.kill()
                node.wait()
        for log in logs:
            log.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    scrape = parse_text(coordinator.metrics.render())
    stored = sorted(store.export_lines())
    writer.close()
    _remove_store(path)
    return {
        "store_open_s": store_open.seconds,
        "server_bind_s": bind.seconds,
        "pool_spawn_s": registered - spawned,
        "first_lease": coordinator.first_lease,
        "completions": completions,
        "lines": lines,
        "stored": stored,
        "scrape": scrape,
        "reports": coordinator.reports,
    }


def _scraped(scrape, family, **labels) -> float:
    return sum(
        value
        for sample_labels, value in scrape.get(family, [])
        if all(sample_labels.get(k) == v for k, v in labels.items())
    )


def run_sharded(manifest: dict, seconds: float, trace: bool) -> bench.Outcome:
    name = "sharded-lease"
    outcome = bench.Outcome(name)
    unit = expand_manifest(manifest)
    work = bench.work_dir(name)
    tracer = tracing.Tracer() if trace else None
    try:
        expected = reference_rows(unit, tracer)
        times = bench.SetupTimes()
        warmup = expand_manifest(
            {"trials": 4, "entries": [{"scenario": "honest/alead-uni", "grid": {"n": 8}}]}
        )
        for rep in range(bench.SETUP_REPS):
            import_s = bench.import_seconds()
            campaign = sharded_campaign(warmup, work, f"setup-{rep}")
            times.add(
                import_s=import_s,
                store_open_s=campaign["store_open_s"],
                pool_spawn_s=campaign["pool_spawn_s"],
                server_bind_s=campaign["server_bind_s"],
            )
        # Rounds here are stretches of one campaign whose lengths vary
        # with how completions bunch up; their median is the steadier
        # figure.
        plain = Rounds(bench.median)
        traced = Rounds(bench.median)
        # Traced runs measure half the repetitions untraced, half traced.
        repeats = max(2, math.ceil(seconds * SHARDED_REPEATS_PER_SECOND))
        phases = [(plain, None, repeats // 2 if trace else repeats)]
        if trace:
            phases.append((traced, tracer, repeats // 2))
        for rounds, phase_tracer, count in phases:
            tag = "traced" if phase_tracer else "plain"
            campaign = sharded_campaign(unit * count, work, tag, phase_tracer)
            start = campaign["first_lease"]
            done = campaign["completions"]
            for k in range(count):
                window = done[k * len(unit):(k + 1) * len(unit)]
                rounds.add(window[-1][0] - start, sum(t for _, t in window), len(window))
                start = window[-1][0]
            check_rows(outcome, expected * count, campaign["lines"], f"{tag} campaign")
            check_rows(outcome, expected, campaign["stored"], f"{tag} campaign store")
            if phase_tracer is not None:
                traced_campaign = campaign
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome.e2e.update(plain.e2e())
    outcome.e2e["setup_s"] = (times.setup_s(), "s")
    outcome.e2e["peak_rss_mb"] = (bench.peak_rss_mb(), "MB")
    outcome.layers.update(times.layer_metrics())
    outcome.extra["round_seconds"] = plain.seconds + traced.seconds
    if trace:
        # The node's pool and chunker live in the node processes; from
        # here, one dispatched chunk is one lease, timed by the node.
        reports = traced_campaign["reports"]
        scrape = traced_campaign["scrape"]
        expired = _scraped(scrape, "repro_leases_expired_total")
        rejected = sum(
            _scraped(scrape, "repro_reports_total", status=status)
            for status in ("duplicate", "unknown")
        )
        counters = {
            "dispatched": _scraped(scrape, "repro_leases_granted_total"),
            "completed": len(reports),
            "failed": expired + rejected,
        }
        outcome.layers.update(tracing.compute_metrics(tracer))
        outcome.layers.update(
            tracing.dispatch_metrics(
                [("lease", t, s) for t, s in reports],
                counters,
                bench.WORKERS,
                sum(traced.seconds),
            )
        )
        outcome.layers.update(tracing.store_metrics(tracer))
        outcome.layers.update(tracing.serve_metrics(tracer))
        outcome.layers.update(tracing.coordinator_metrics(tracer, expired, rejected))
        outcome.extra["traced_e2e"] = {k: v for k, (v, _) in traced.e2e().items()}
        outcome.tracer = tracer
    return outcome
