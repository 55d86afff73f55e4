"""Shared pieces of the benchmark: paths, host block, statistics, set-up
timing helpers and the result line.

Nothing here imports ``repro`` at module level: :func:`require_program`
puts the checkout's ``src/`` on the path first and refuses to run when
it is missing, so the benchmark never measures some other installed
copy of the program.
"""

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Where runs leave their result files, span dumps and temporary stores.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Workers, client threads or node processes a workload may use.
WORKERS = 2
#: Complete set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5


class ProgramMissing(Exception):
    """The checkout has no importable program source."""


def require_program() -> None:
    """Make ``src/repro`` importable, or raise :class:`ProgramMissing`."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ProgramMissing(f"no program source at {SRC}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"repro imported from {repro.__file__}, not {SRC}")


def work_dir(name: str) -> str:
    """A fresh directory under :data:`OUT_DIR` for one run's stores."""
    path = os.path.join(OUT_DIR, "work", f"{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Host block and memory
# ----------------------------------------------------------------------


def host_block() -> dict:
    """What a result must carry to be compared with another one."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "loadavg_1m_at_start": round(os.getloadavg()[0], 2),
    }


def peak_rss_mb() -> float:
    """The larger peak RSS of this process and its largest waited-for
    child (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


# ----------------------------------------------------------------------
# Set-up phases
# ----------------------------------------------------------------------


def import_seconds() -> float:
    """Seconds a fresh interpreter spends in ``import repro``, as that
    interpreter measures it (interpreter start-up is not counted)."""
    code = (
        "import time; t = time.perf_counter(); import repro; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=os.environ.copy(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def worker_pid(delay: float) -> int:
    """Pool task for the warm-up ping: hold the worker briefly so the
    next ping lands on another one."""
    time.sleep(delay)
    return os.getpid()


def warm_pool(pool) -> None:
    """Block until every worker of ``pool`` has answered a ping."""
    pool.warm_up()
    seen = set()
    for _ in range(50):
        seen.update(pool.imap_unordered(worker_pid, [0.01] * pool.workers))
        if len(seen) >= pool.workers:
            return
    raise RuntimeError(f"only {len(seen)} of {pool.workers} workers answered")


class SetupTimes:
    """Per-phase seconds of each complete set-up in a run."""

    PHASES = ("import_s", "store_open_s", "pool_spawn_s", "server_bind_s")

    def __init__(self):
        self.reps = []

    def add(self, **phases: float) -> None:
        self.reps.append({name: phases.get(name, 0.0) for name in self.PHASES})

    def setup_s(self) -> float:
        return median([sum(rep.values()) for rep in self.reps])

    def layer_metrics(self) -> dict:
        return {
            f"setup.{name}": (median([rep[name] for rep in self.reps]), "s")
            for name in self.PHASES
        }


class Stopwatch:
    """``with Stopwatch() as sw: ...`` then ``sw.seconds``."""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.seconds = time.perf_counter() - self.start


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


class Outcome:
    """Everything one run measured, before it is printed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []  # first few mismatch descriptions
        self.e2e = {}  # name -> (value, unit)
        self.layers = {}  # name -> (value, unit)
        self.extra = {}  # anything else worth keeping in the result file
        self.tracer = None  # the traced run's spans

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failed check counts in
        ``failed_frac``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def write_result(outcome: Outcome, seed: int, trace: int, host: dict) -> str:
    """Keep the whole result (host block included) beside the checkout;
    ``compare.py`` reads two of these."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"result-{outcome.workload}-seed{seed}-trace{trace}.json"
    )
    payload = {
        "workload": outcome.workload,
        "seed": seed,
        "trace": trace,
        "host": host,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_frac": outcome.failed_frac,
        "failures": outcome.failures,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in outcome.e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in outcome.layers.items()},
        "extra": outcome.extra,
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    return path


def result_line(outcome: Outcome, names_units) -> str:
    """The last stdout line: the metrics named in ``BENCHMARK.json``."""
    merged = dict(outcome.e2e)
    merged.update(outcome.layers)
    metrics = {}
    for name, unit in names_units:
        value, _ = merged[name]
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": outcome.failed == 0 and outcome.attempted > 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        }
    )
