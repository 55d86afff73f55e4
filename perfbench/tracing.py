"""Spans recorded around calls into the program's public functions.

The program is not instrumented. A traced pass installs wrappers from
this file — module attributes of :mod:`repro.experiments.runner`,
scenario hooks re-registered through ``register_scenario``, and
subclasses of the store, chunker and service the benchmark creates —
and removes them when the pass ends. Spans live in memory and are
written out once, when the run ends.

A span is ``(name, start, end, parent, id)``: ``parent`` is the span
open on the same thread when it started, and ``id`` names the point
(scenario plus canonical parameters) or request it belongs to, inherited
from the parent when the wrapped call does not say. A layer's *self
time* is its spans' durations minus the part covered by their child
spans.
"""

import dataclasses
import json
import threading
import time
from contextlib import ExitStack, contextmanager

from repro.experiments import runner as runner_module
from repro.experiments.chunking import AdaptiveChunker
from repro.experiments.scenario import get_scenario, register_scenario
from repro.experiments.store import ResultStore
from repro.serve import EstimateService

import bench


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "ident", "info")

    def __init__(self, name, parent, ident):
        self.name = name
        self.parent = parent
        self.ident = ident
        self.info = {}
        self.start = self.end = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span list; thread-safe, nesting tracked per thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def call(self, name, fn, args=(), kwargs=None, ident=None, info=None):
        """Run ``fn(*args, **kwargs)`` inside a span; ``info(span,
        result)`` annotates it afterwards (outside the timed interval)."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if ident is None and parent is not None:
            ident = parent.ident
        span = Span(name, parent, ident)
        with self._lock:
            span.index = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if info is not None:
            info(span, result)
        return result

    def named(self, name):
        return [s for s in self.spans if s.name == name and s.end is not None]

    def self_seconds(self) -> dict:
        """Per span name: (calls, total seconds, self seconds)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None and span.end is not None:
                covered[span.parent.index] += span.seconds
        table = {}
        for span in self.spans:
            if span.end is None:
                continue
            calls, total, own = table.get(span.name, (0, 0.0, 0.0))
            table[span.name] = (
                calls + 1,
                total + span.seconds,
                own + span.seconds - covered[span.index],
            )
        return table

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                if span.end is None:
                    continue
                f.write(
                    json.dumps(
                        {
                            "i": span.index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": None if span.parent is None else span.parent.index,
                            "id": span.ident,
                            "info": span.info,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def point_id(scenario, params) -> str:
    return f"{scenario} {json.dumps(params, sort_keys=True)}"


# ----------------------------------------------------------------------
# Compute layers: rng, runner, sim, run_batch (in-process passes only)
# ----------------------------------------------------------------------


def _patch(stack: ExitStack, owner, attr: str, value) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    stack.callback(setattr, owner, attr, original)


@contextmanager
def compute_hooks(tracer: Tracer, scenarios):
    """Wrap trial seeding, the trial, the executor and the batch
    kernels of ``scenarios`` for the duration of the block.

    Only in-process passes (``WorkerPool(1)``) see these wrappers:
    worker processes were started before the block and keep the
    unwrapped functions.
    """
    trial_registry = runner_module.trial_registry
    trial_seeds = runner_module.trial_seeds
    run_one_trial = runner_module.run_one_trial
    run_protocol = runner_module.run_protocol
    ids = {}

    def ident(spec, params):
        key = (spec.name, id(params))
        hit = ids.get(key)
        if hit is None or hit[0] is not params:
            hit = ids[key] = (params, point_id(spec.name, params))
        return hit[1]

    def seeds_info(span, result):
        span.info["seeds"] = len(result)

    def steps_info(span, result):
        span.info["steps"] = result.steps

    def traced_registry(*args, **kwargs):
        return tracer.call("rng", trial_registry, args, kwargs)

    def traced_seeds(*args, **kwargs):
        return tracer.call("rng", trial_seeds, args, kwargs, info=seeds_info)

    def traced_trial(spec, params, *args, **kwargs):
        return tracer.call(
            "runner.trial", run_one_trial, (spec, params) + args, kwargs,
            ident=ident(spec, params),
        )

    def traced_protocol(*args, **kwargs):
        return tracer.call("sim", run_protocol, args, kwargs, info=steps_info)

    with ExitStack() as stack:
        _patch(stack, runner_module, "trial_registry", traced_registry)
        _patch(stack, runner_module, "trial_seeds", traced_seeds)
        _patch(stack, runner_module, "run_one_trial", traced_trial)
        _patch(stack, runner_module, "run_protocol", traced_protocol)
        for name in sorted(set(scenarios)):
            spec = get_scenario(name)
            if spec.run_batch is None:
                continue
            register_scenario(
                dataclasses.replace(
                    spec, run_batch=_traced_kernel(tracer, spec, spec.run_batch)
                ),
                replace=True,
            )
            stack.callback(register_scenario, spec, True)
        yield


def _traced_kernel(tracer, spec, kernel):
    def traced(seeds, params):
        def info(span, result):
            span.info["trials"] = 0 if result is None else len(seeds)
            span.info["declined"] = result is None

        return tracer.call(
            "run_batch", kernel, (seeds, params),
            ident=point_id(spec.name, params), info=info,
        )

    return traced


# ----------------------------------------------------------------------
# Dispatch layers: chunking, store, serve (subclasses the benchmark owns)
# ----------------------------------------------------------------------


class ChunkLog:
    """Every ``(scenario, trials, worker-measured seconds)`` the
    master-side chunker observed while ``enabled``."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records = []

    def chunker_class(self):
        log = self

        class TracedChunker(AdaptiveChunker):
            def observe(self, scenario, trials, elapsed):
                if log.enabled:
                    log.records.append((scenario, trials, elapsed))
                return super().observe(scenario, trials, elapsed)

        return TracedChunker


class TracedStore(ResultStore):
    """A :class:`ResultStore` whose appends and reads are spans while
    ``tracer`` is set."""

    def __init__(self, path, tracer=None, **kwargs):
        super().__init__(path, **kwargs)
        self.tracer = tracer

    def append_row(self, row):
        if self.tracer is None:
            return super().append_row(row)
        return self.tracer.call(
            "store.append", super().append_row, (row,),
            ident=point_id(row.get("scenario"), row.get("params")),
        )

    def lookup(self, scenario, params):
        if self.tracer is None:
            return super().lookup(scenario, params)
        return self.tracer.call(
            "store.lookup", super().lookup, (scenario, params),
            ident=point_id(scenario, params),
        )

    def get(self, resume_key):
        if self.tracer is None:
            return super().get(resume_key)
        return self.tracer.call("store.lookup", super().get, (resume_key,))


class TracedService(EstimateService):
    """An :class:`EstimateService` whose ``estimate`` calls are spans
    while ``tracer`` is set."""

    tracer = None

    def estimate(self, scenario, params, ci_width):
        if self.tracer is None:
            return super().estimate(scenario, params, ci_width)

        def info(span, result):
            span.info["source"] = result.get("source")

        return self.tracer.call(
            "serve.estimate", super().estimate, (scenario, params, ci_width),
            ident=point_id(scenario, params), info=info,
        )


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def _ms(seconds) -> float:
    return seconds * 1000.0


def compute_metrics(tracer: Tracer) -> dict:
    """rng, runner, sim and run_batch metrics from compute spans."""
    rng = tracer.named("rng")
    trials = tracer.named("runner.trial")
    sims = tracer.named("sim")
    kernels = tracer.named("run_batch")
    own = tracer.self_seconds()
    sim_busy = sum(s.seconds for s in sims)
    deliveries = sum(s.info.get("steps", 0) for s in sims)
    kernel_busy = sum(s.seconds for s in kernels)
    kernel_trials = sum(s.info.get("trials", 0) for s in kernels)
    trial_time = sum(s.seconds for s in trials) + kernel_busy
    return {
        "rng.calls": (len(rng), "count"),
        "rng.busy_s": (sum(s.seconds for s in rng), "s"),
        "runner.trials": (len(trials), "count"),
        "runner.trial_self_s": (own.get("runner.trial", (0, 0.0, 0.0))[2], "s"),
        "sim.runs": (len(sims), "count"),
        "sim.deliveries": (deliveries, "count"),
        "sim.busy_s": (sim_busy, "s"),
        "sim.us_per_delivery": (
            sim_busy / deliveries * 1e6 if deliveries else 0.0, "us"
        ),
        "sim.share": (sim_busy / trial_time if trial_time else 0.0, "ratio"),
        "run_batch.calls": (len(kernels), "count"),
        "run_batch.trials": (kernel_trials, "count"),
        "run_batch.busy_s": (kernel_busy, "s"),
        "run_batch.declined": (
            sum(1 for s in kernels if s.info.get("declined")), "count"
        ),
        "run_batch.trials_per_s": (
            kernel_trials / kernel_busy if kernel_busy else 0.0, "1/s"
        ),
    }


def dispatch_metrics(chunks, counters, workers: int, makespan: float) -> dict:
    """pool and chunking metrics from observed chunks, pool counter
    deltas, and the wall time the chunks were spread over."""
    seconds = [elapsed for _, _, elapsed in chunks]
    trials = sum(t for _, t, _ in chunks)
    busy = sum(seconds)
    capacity = workers * makespan
    return {
        "pool.dispatched": (counters.get("dispatched", 0), "count"),
        "pool.completed": (counters.get("completed", 0), "count"),
        "pool.failed": (counters.get("failed", 0), "count"),
        "chunking.chunks": (len(chunks), "count"),
        "chunking.chunk_p50_s": (bench.percentile(seconds, 50), "s"),
        "chunking.chunk_p90_s": (bench.percentile(seconds, 90), "s"),
        "chunking.trials_per_chunk": (trials / len(chunks) if chunks else 0.0, "count"),
        "pool.worker_busy_s": (busy, "s"),
        "pool.utilization": (busy / capacity if capacity else 0.0, "ratio"),
        "pool.overhead_s": (capacity - busy, "s"),
    }


def store_metrics(tracer: Tracer) -> dict:
    appends = tracer.named("store.append")
    lookups = tracer.named("store.lookup")
    return {
        "store.appends": (len(appends), "count"),
        "store.append_ms_p50": (
            _ms(bench.percentile([s.seconds for s in appends], 50)), "ms"
        ),
        "store.append_busy_s": (sum(s.seconds for s in appends), "s"),
        "store.lookups": (len(lookups), "count"),
        "store.lookup_ms_p50": (
            _ms(bench.percentile([s.seconds for s in lookups], 50)), "ms"
        ),
    }


def serve_metrics(tracer: Tracer, client_hits=()) -> dict:
    """serve metrics; ``client_hits`` are ``(id, start, end)`` of hit
    requests as the client timed them, matched to the service span of
    the same point that lies inside each one."""
    spans = tracer.named("serve.estimate")
    hits = [s for s in spans if s.info.get("source") == "store"]
    misses = [s for s in spans if s.info.get("source") == "computed"]
    by_id = {}
    for span in hits:
        by_id.setdefault(span.ident, []).append(span)
    overhead = []
    for ident, start, end in client_hits:
        for span in by_id.get(ident, ()):
            if start <= span.start and span.end <= end:
                overhead.append((end - start) - span.seconds)
                break
    return {
        "serve.hit_service_ms_p50": (
            _ms(bench.percentile([s.seconds for s in hits], 50)), "ms"
        ),
        "serve.miss_service_ms_p50": (
            _ms(bench.percentile([s.seconds for s in misses], 50)), "ms"
        ),
        "serve.http_overhead_ms_p50": (_ms(bench.percentile(overhead, 50)), "ms"),
        "serve.hit_frac": (len(hits) / len(spans) if spans else 0.0, "ratio"),
    }


def coordinator_metrics(tracer: Tracer, expired: float = 0, rejected: float = 0) -> dict:
    leases = tracer.named("coordinator.lease")
    reports = tracer.named("coordinator.report")
    empty = sum(1 for s in leases if s.info.get("empty"))
    return {
        "coordinator.lease_calls": (len(leases), "count"),
        "coordinator.empty_lease_frac": (empty / len(leases) if leases else 0.0, "ratio"),
        "coordinator.lease_trials": (
            sum(s.info.get("trials", 0) for s in leases), "count"
        ),
        "coordinator.lease_ms_p50": (
            _ms(bench.percentile([s.seconds for s in leases], 50)), "ms"
        ),
        "coordinator.report_ms_p50": (
            _ms(bench.percentile([s.seconds for s in reports], 50)), "ms"
        ),
        "coordinator.expired_leases": (expired, "count"),
        "coordinator.rejected_reports": (rejected, "count"),
    }


def self_time_lines(tracer: Tracer):
    """Human-readable per-layer self-time table."""
    lines = []
    for name, (calls, total, own) in sorted(tracer.self_seconds().items()):
        lines.append(
            f"  span {name:20s} calls={calls:<8d} total_s={total:.4f} self_s={own:.4f}"
        )
    return lines
