"""Prometheus text-format metrics: counters, gauges, and a registry.

The served surfaces — the :mod:`repro.serve` estimate service and the
campaign coordinator in :mod:`repro.experiments.coordinator` — expose a
``GET /metrics`` endpoint in the Prometheus text exposition format
(version 0.0.4), so a stock Prometheus scrape (or a plain ``curl``)
observes trials/sec, lease and queue depth, per-node cost, worker
health, store hit/miss rates, and client disconnects without the
service growing a dependency: everything here is stdlib.

Three pieces:

- :class:`Counter` / :class:`Gauge`: thread-safe metric families with
  optional labels (``counter.inc(3, node="n1")`` →
  ``name{node="n1"} 3``). Counters only go up; gauges are set.
- :class:`MetricsRegistry`: owns the families, renders the text format
  (``render()``), and runs registered *collector* callbacks first — the
  hook that refreshes gauges from live state (queue depths, lock-table
  sizes, pool counters) exactly at scrape time instead of on every
  mutation.
- :class:`ThroughputMeter`: a sliding-window events/sec estimator
  feeding the ``*_per_second`` gauges — a counter alone would leave
  rate computation to the scraper, and the acceptance question
  ("how fast is it *now*?") deserves a direct answer.

:func:`register_run_metrics` registers the families all three run
surfaces share (``campaign --metrics-port``, ``repro serve`` and the
coordinator), so they cannot drift apart in name, help text or labels.

:func:`parse_text` is the format's own checker — tests and the CI smoke
parse the endpoint's output back through it, so "valid Prometheus text"
is a pinned property, not a hope.
"""

import math
import re
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.util.errors import ConfigurationError

#: The Content-Type a /metrics response must carry (text format 0.0.4).
TEXT_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: One rendered sample line: ``name{label="value",...} number``.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)

#: Canonical label-set key: sorted (name, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """A sample value in the exposition format's number grammar:
    integral values print without a trailing ``.0`` (so ``grep -q
    'name 5'`` in a smoke script means what it looks like)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


class Metric:
    """One metric family: a name, a help line, and labeled samples.

    Thread-safe: every sample mutation and read holds the family lock.
    Concrete kinds (:class:`Counter`, :class:`Gauge`) differ only in
    the mutators they expose and the ``# TYPE`` line they render.
    """

    kind = "untyped"

    #: Lock discipline, checked by ``python -m repro lint`` (R201);
    #: Counter/Gauge inherit both the samples dict and its lock.
    _GUARDED_BY = {"_samples": "_lock"}

    def __init__(self, name: str, help_text: str = ""):
        if not _NAME_RE.match(name or ""):
            raise ConfigurationError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self._samples: Dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, object]) -> LabelKey:
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ConfigurationError(
                    f"invalid label name {label!r} on metric {self.name!r}"
                )
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def value(self, **labels) -> float:
        """The sample's current value (0.0 when never touched)."""
        key = self._key(labels)
        with self._lock:
            return self._samples.get(key, 0.0)

    def samples(self) -> Dict[LabelKey, float]:
        """A snapshot of every (label set, value) sample."""
        with self._lock:
            return dict(self._samples)

    def clear(self, **labels) -> None:
        """Drop one labeled sample (e.g. a deregistered node's gauge)."""
        key = self._key(labels)
        with self._lock:
            self._samples.pop(key, None)

    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        samples = self.samples()
        if not samples:
            # An untouched family still reports: a flat 0 line keeps
            # "the counter exists and is zero" distinguishable from
            # "the endpoint forgot the counter".
            lines.append(f"{self.name} 0")
            return lines
        for key in sorted(samples):
            if key:
                labels = ",".join(
                    f'{k}="{_escape_label_value(v)}"' for k, v in key
                )
                lines.append(
                    f"{self.name}{{{labels}}} {_format_value(samples[key])}"
                )
            else:
                lines.append(f"{self.name} {_format_value(samples[key])}")
        return lines


class Counter(Metric):
    """A monotonically increasing sample per label set."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc({amount!r}))"
            )
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def set_total(self, value: float, **labels) -> None:
        """Overwrite the running total — the mirror hook for totals
        tracked elsewhere (e.g. :meth:`WorkerPool.counters` snapshots
        copied in by a registry collector). Never below the current
        value: a counter that goes backwards breaks every scraper."""
        key = self._key(labels)
        with self._lock:
            if value < self._samples.get(key, 0.0):
                raise ConfigurationError(
                    f"counter {self.name!r} cannot decrease "
                    f"(set_total({value!r}))"
                )
            self._samples[key] = value


class Gauge(Metric):
    """A freely settable sample per label set."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def inc(self, amount: float = 1, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)


class MetricsRegistry:
    """The metric families one service exposes, rendered on demand.

    ``counter(name)`` / ``gauge(name)`` are idempotent per name — the
    first call creates the family, later calls return it (a name can
    never be both kinds). ``collect(fn)`` registers a callback run at
    the top of every :meth:`render`, which is where gauges derived from
    live state (queue depths, node health) get refreshed — the scrape
    sees the instant's truth without the hot path paying a gauge write
    per event.
    """

    #: Lock discipline, checked by ``python -m repro lint`` (R201).
    _GUARDED_BY = {"_metrics": "_lock", "_collectors": "_lock"}

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}
        self._collectors: List[Callable[[], None]] = []
        self._lock = threading.Lock()

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._family(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._family(Gauge, name, help_text)

    def _family(self, cls, name: str, help_text: str) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ConfigurationError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {cls.kind}"
                    )
                return existing
            metric = self._metrics[name] = cls(name, help_text)
            return metric

    def collect(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` at the start of every render (scrape-time refresh)."""
        with self._lock:
            self._collectors.append(fn)

    def render(self) -> str:
        """The full exposition document, trailing newline included."""
        with self._lock:
            collectors = list(self._collectors)
            metrics = list(self._metrics.values())
        for fn in collectors:
            fn()
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


class ThroughputMeter:
    """Sliding-window events/second (the ``*_per_second`` gauges).

    ``observe(n)`` records ``n`` events now; ``rate()`` divides the
    window's events by the window span. The span is clamped below at
    one second so a burst in the first milliseconds does not report an
    absurd instantaneous rate, and above at ``window`` so old traffic
    ages out.
    """

    #: Lock discipline, checked by ``python -m repro lint`` (R201).
    _GUARDED_BY = {"_events": "_lock"}

    def __init__(self, window: float = 60.0, clock=time.monotonic):
        if not window > 0:
            raise ConfigurationError(f"window must be positive, got {window!r}")
        self.window = window
        self._clock = clock
        self._events: "deque" = deque()  # (timestamp, count)
        self._started = clock()
        self._lock = threading.Lock()

    def _trim_locked(self, now: float) -> None:
        horizon = now - self.window
        while self._events and self._events[0][0] < horizon:
            self._events.popleft()

    def observe(self, count: float = 1) -> None:
        now = self._clock()
        with self._lock:
            self._events.append((now, count))
            self._trim_locked(now)

    def rate(self) -> float:
        now = self._clock()
        with self._lock:
            self._trim_locked(now)
            total = sum(count for _, count in self._events)
            span = min(now - self._started, self.window)
        return total / max(span, 1.0)


def register_run_metrics(
    registry: MetricsRegistry,
    trials_help: str,
    workers: Optional[int] = None,
    pool: Optional[Callable[[], Any]] = None,
    cost_model: Any = None,
) -> Callable[[float], None]:
    """Register the metric families the run surfaces share.

    Every surface gets ``repro_trials_total`` (described by
    ``trials_help``) and its sliding-window ``repro_trials_per_second``;
    the returned ``count(trials)`` feeds both. Surfaces that own a
    worker pool pass ``workers`` (the configured count), ``pool`` (a
    callable returning the live pool, or ``None`` before it starts) and
    ``cost_model`` (the :class:`~repro.experiments.chunking.
    AdaptiveChunker`), and also get ``repro_pool_workers``,
    ``repro_pool_chunks_total{state}`` and
    ``repro_per_trial_seconds{scenario}``, refreshed at scrape time.
    """
    trials = registry.counter("repro_trials_total", trials_help)
    meter = ThroughputMeter()
    rate = registry.gauge(
        "repro_trials_per_second", "Trials folded over the last sliding window"
    )

    def count(amount: float) -> None:
        trials.inc(amount)
        meter.observe(amount)

    if workers is None:
        registry.collect(lambda: rate.set(meter.rate()))
        return count
    registry.gauge(
        "repro_pool_workers", "Worker processes in the shared pool"
    ).set(workers)
    chunks = registry.counter(
        "repro_pool_chunks_total", "Chunks through the shared pool, by state"
    )
    per_trial = registry.gauge(
        "repro_per_trial_seconds",
        "EWMA per-trial seconds by scenario (observed cost model)",
    )

    def scrape() -> None:
        rate.set(meter.rate())
        live = pool()
        if live is not None:
            for state, total in live.counters().items():
                chunks.set_total(total, state=state)
        for scenario in cost_model.scenarios():
            seconds = cost_model.per_trial_seconds(scenario)
            if seconds is not None:
                per_trial.set(seconds, scenario=scenario)

    registry.collect(scrape)
    return count


def _unescape_label_value(value: str) -> str:
    out, i = [], 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append("\n" if nxt == "n" else nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def parse_text(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse (and thereby validate) a text-format exposition document.

    Returns ``{family name: [(labels, value), ...]}``. Raises
    :class:`~repro.util.errors.ConfigurationError` on any line that is
    neither a comment nor a well-formed sample — the assertion the
    tests and the CI ``curl | parse`` smoke stand on.
    """
    families: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    typed: Dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4 or not _NAME_RE.match(parts[2]):
                raise ConfigurationError(f"line {number}: bad TYPE line {line!r}")
            typed[parts[2]] = parts[3]
            families.setdefault(parts[2], [])
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ConfigurationError(f"line {number}: bad sample line {line!r}")
        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            for pair in re.split(r',(?=[a-zA-Z_])', raw.rstrip(",")):
                pair_match = _LABEL_PAIR_RE.match(pair)
                if pair_match is None:
                    raise ConfigurationError(
                        f"line {number}: bad label pair {pair!r}"
                    )
                labels[pair_match.group("name")] = _unescape_label_value(
                    pair_match.group("value")
                )
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ConfigurationError(
                f"line {number}: bad sample value {line!r}"
            ) from None
        name = match.group("name")
        if name not in typed:
            raise ConfigurationError(
                f"line {number}: sample {name!r} has no preceding TYPE line"
            )
        families.setdefault(name, []).append((labels, value))
    return families
