"""SQLite results store: the resume contract as a queryable database.

Answering "is this point done?" or "what is the forcing rate at n=64?"
against a JSONL file costs a linear scan and a full re-parse. A
:class:`ResultStore` keeps the same rows in SQLite so those questions
are index lookups, and it is the one resume authority: every CLI
``--out`` is backed by a store, and a JSONL ``--out`` is only its
atomic rendering (:meth:`ResultStore.render_jsonl`). It keeps every
contract the JSONL files established:

- **The resume key is the schema's spine.** Each completed row is
  stored under the exact :func:`~repro.experiments.sweep.resume_key`
  string :func:`parse_out_lines` computes for its line, unique-indexed
  — so :meth:`ResultStore.completed_keys` of an imported file is
  *identical* to the keys of its parsed rows, and a campaign resuming
  against a ``.db`` target skips exactly the points it would have
  skipped against the JSONL original.
- **Timed-out markers keep their non-identity.** Rows with
  ``"timed_out": true`` have no resume key (column NULL — SQLite's
  UNIQUE index admits any number of NULLs), so they can never satisfy a
  resume lookup; they are stored under their
  :func:`~repro.experiments.sweep.retry_identity` instead, and the
  marker lifecycle is two indexed statements: a fresh completed row
  deletes its stale markers, and a marker arriving after its point
  already completed is dropped as superseded. A marker whose retry
  never runs simply stays.
- **Lossless.** The original row JSON rides along in the ``row``
  column, so nothing the JSONL format carried is lost to the schema —
  export is ``SELECT row``.
- **Self-contained.** The observed cost model lives beside the rows:
  each finished point also records its wall-clock in a ``timings``
  table (:meth:`ResultStore.record_timing`), and
  :meth:`ResultStore.load_chunker` replays it, so a later run against
  the same ``--out`` sizes chunks (and ``--dry-run`` prices points) from
  what this machine measured. Timing never reaches the ``row`` column.
- **Durable and concurrent.** WAL journal mode plus ``synchronous=FULL``
  makes every committed row survive a kill or a power loss, and lets
  one writer (a campaign streaming into the store) coexist with any
  number of readers (the estimate service in :mod:`repro.serve`)
  without either blocking the other.

Rows enter through :meth:`ResultStore.append_row` (one row dict) or
:meth:`ResultStore.import_rows` (the rows :func:`parse_out_lines` read
from a JSONL file, in one transaction), and reach a JSONL file only
through :meth:`ResultStore.render_jsonl`.
"""

import json
import os
import sqlite3
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.experiments.chunking import AdaptiveChunker
from repro.experiments.runner import cost_key
from repro.experiments.scenario import get_scenario
from repro.experiments.sweep import (
    canonical_params,
    retry_identity,
    row_resume_key,
    row_retry_identity,
)
from repro.util.errors import ConfigurationError

#: File extensions routed to the SQLite backend by ``--out``/``--db``.
STORE_SUFFIXES = (".db", ".sqlite", ".sqlite3")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    id          INTEGER PRIMARY KEY,
    resume_key  TEXT,
    retry_key   TEXT NOT NULL,
    scenario    TEXT NOT NULL,
    params      TEXT NOT NULL,
    trials      INTEGER,
    base_seed   INTEGER,
    max_steps   INTEGER,
    successes   INTEGER,
    outcomes    TEXT,
    budget      TEXT,
    steps_total INTEGER,
    timed_out   INTEGER NOT NULL DEFAULT 0,
    created     REAL NOT NULL,
    row         TEXT NOT NULL
);
CREATE UNIQUE INDEX IF NOT EXISTS results_resume_key
    ON results(resume_key);
CREATE INDEX IF NOT EXISTS results_point ON results(scenario, params);
CREATE INDEX IF NOT EXISTS results_retry ON results(retry_key);
CREATE TABLE IF NOT EXISTS timings (
    id       INTEGER PRIMARY KEY,
    scenario TEXT,
    trials   INTEGER,
    elapsed  REAL
);
"""


def is_store_path(path: Optional[str]) -> bool:
    """Whether an ``--out``/``--db`` path names a SQLite store (by
    suffix) rather than a JSONL file."""
    return bool(path) and path.lower().endswith(STORE_SUFFIXES)


def fsync_directory(path: str) -> None:
    """Best-effort fsync of a directory, pinning entries it names.

    A file's own fsync makes its *contents* durable; the entry that
    makes it reachable lives in the directory, which has its own dirty
    state. Creations and renames therefore need the parent flushed too.
    Failures are swallowed: platforms that refuse ``open``/``fsync`` on
    directories lose the hardening, not the run.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def timing_record(result) -> Optional[Tuple[str, int, float]]:
    """The ``(key, trials, elapsed)`` timing record of one finished
    result, or ``None`` when it carries no usable cost signal (timed-out
    or empty results: their elapsed is an artifact of the guard, and
    feeding it to the EWMA would teach the cost model that pathological
    points are cheap). ``key`` is the cost-model key of the path the
    campaign ran the result on
    (:func:`~repro.experiments.runner.cost_key`; the ``timings`` table
    keeps it in its ``scenario`` column). An unregistered scenario is
    keyed by its name."""
    if result.timed_out or not result.trials or result.elapsed <= 0:
        return None
    try:
        key = cost_key(get_scenario(result.scenario), result.max_steps)
    except ConfigurationError:
        key = result.scenario  # ad-hoc scenario
    return (key, result.trials, result.elapsed)


def params_blob(params: Mapping[str, Any]) -> str:
    """The indexed ``params`` column value: canonical sorted JSON.

    Built on :func:`~repro.experiments.sweep.canonical_params`, so a
    lookup spelled ``n=16.0`` finds rows stored under ``n=16`` — the
    same numeric-aliasing rule resume keys follow.
    """
    return json.dumps(canonical_params(params), sort_keys=True)


class PreparedRow(NamedTuple):
    """One row ready for the ``results`` table (see :func:`_prepare`)."""

    #: Resume key; ``None`` for a timed-out marker.
    key: Optional[str]
    #: :func:`~repro.experiments.sweep.retry_identity` of the point.
    retry: str
    #: Column values in ``_COLUMNS`` order.
    values: tuple


class ResultStore:
    """One SQLite results database (see the module docstring).

    Opens (and on first use creates) the database at ``path``;
    ``read_only=True`` requires the file to exist and refuses every
    mutation with :class:`~repro.util.errors.ConfigurationError` — the
    mode the estimate service's ``--read-only`` flag stands on. The
    connection is shared across threads behind one lock
    (``check_same_thread=False``), because the HTTP layer in
    :mod:`repro.serve` answers each request on its own thread.
    """

    #: Lock discipline, checked by ``python -m repro lint`` (R201):
    #: sqlite3 connections are not concurrency-safe under
    #: ``check_same_thread=False`` — ours, uniquely, is shared across
    #: the HTTP threads, so every use holds the store lock.
    _GUARDED_BY = {"_conn": "_lock"}

    def __init__(self, path: str, read_only: bool = False, timeout: float = 30.0):
        self.path = path
        self.read_only = read_only
        #: Optional callable fed every :meth:`append_row` outcome string
        #: ("stored"/"duplicate"/"marker"/"superseded") — the metrics
        #: endpoints hang append counters here. Observability only:
        #: called outside the store lock, after the row is durable.
        self.observer: Optional[Callable[[str], None]] = None
        if read_only and not os.path.exists(path):
            raise ConfigurationError(
                f"results store {path!r} does not exist (read-only mode "
                "never creates one)"
            )
        created = not os.path.exists(path)
        try:
            self._conn = sqlite3.connect(
                path, timeout=timeout, check_same_thread=False
            )
        except sqlite3.Error as exc:
            raise ConfigurationError(
                f"cannot open results store {path!r}: {exc}"
            ) from None
        self._lock = threading.Lock()
        try:
            cursor = self._conn.cursor()
            # Writers queue behind the busy handler instead of failing
            # fast: a campaign appending while the service reads is the
            # designed steady state, not a conflict.
            cursor.execute("PRAGMA busy_timeout = 5000")
            if not read_only:
                # WAL: readers never block the writer and vice versa.
                # synchronous=FULL: a committed row survives power loss.
                cursor.execute("PRAGMA journal_mode = WAL")
                cursor.execute("PRAGMA synchronous = FULL")
                cursor.executescript(_SCHEMA)
                self._conn.commit()
                if created:
                    # A freshly created database is only durable once
                    # its directory entry is.
                    fsync_directory(os.path.dirname(os.path.abspath(path)))
            cursor.close()
        except sqlite3.Error as exc:
            # Not-a-database files, foreign schemas, truncated stores:
            # surface them as the one configuration error callers
            # already handle instead of a backend-specific exception.
            self._conn.close()
            raise ConfigurationError(
                f"{path!r} is not a usable results store: {exc}"
            ) from None

    # -- writes --------------------------------------------------------

    def append_row(self, row: Mapping[str, Any]) -> str:
        """Store one row, returning what happened to it.

        ``"stored"``
            A completed row was inserted (any stale timed-out marker for
            the same point was deleted — the retry it announced is this
            row).
        ``"duplicate"``
            A completed row with the same resume key already exists; the
            store keeps the first copy (rows are deterministic, so the
            copies are interchangeable).
        ``"marker"``
            A timed-out marker was recorded (replacing any previous
            marker for the same point — the newest partial count wins,
            exactly like the CLI's write-back).
        ``"superseded"``
            A timed-out marker arrived for a point that already has a
            completed row; the marker is dropped — the retry it
            announces already happened.

        Malformed rows raise the exceptions :func:`parse_out_lines`
        turns into ``"not-a-row"`` skips
        (:class:`~repro.util.errors.ConfigurationError`, ``LookupError``,
        ``TypeError``).
        """
        self._writable()
        prepared = _prepare(row)
        with self._lock, self._conn:
            outcome = self._insert_locked(self._conn.cursor(), prepared)
        if self.observer is not None:
            self.observer(outcome)
        return outcome

    def _insert_locked(self, cursor, prepared: PreparedRow) -> str:
        """Apply one row prepared by :func:`_prepare` inside the
        caller's transaction; returns its :meth:`append_row` outcome."""
        key, retry, values = prepared
        if key is None:
            cursor.execute(
                "SELECT 1 FROM results WHERE retry_key = ? "
                "AND timed_out = 0 LIMIT 1",
                (retry,),
            )
            if cursor.fetchone() is not None:
                return "superseded"
            cursor.execute(
                "DELETE FROM results WHERE retry_key = ? AND timed_out = 1",
                (retry,),
            )
            cursor.execute(_INSERT, values)
            return "marker"
        cursor.execute(
            "DELETE FROM results WHERE retry_key = ? AND timed_out = 1",
            (retry,),
        )
        cursor.execute(_INSERT_OR_IGNORE, values)
        return "stored" if cursor.rowcount else "duplicate"

    def import_rows(self, rows: Iterable[PreparedRow]) -> Dict[str, int]:
        """Store the rows :func:`parse_out_lines` read from a JSONL file.

        Completed rows are stored under their resume keys and timed-out
        markers as markers, so a resume against the database retries
        exactly what a resume against the file would. Returns a count
        per :meth:`append_row` outcome.

        The whole import is one transaction (one fsync, however many
        rows): a write error leaves none of its rows behind, and the
        :attr:`observer` hears each outcome only after the commit.
        """
        self._writable()
        with self._lock, self._conn:
            cursor = self._conn.cursor()
            outcomes = [self._insert_locked(cursor, row) for row in rows]
        report = dict.fromkeys(("stored", "duplicate", "marker", "superseded"), 0)
        for outcome in outcomes:
            report[outcome] += 1
            if self.observer is not None:
                self.observer(outcome)
        return report

    def record_timing(self, result) -> None:
        """Persist one finished result's :func:`timing_record` (a no-op
        for results without a usable cost signal)."""
        record = timing_record(result)
        if record is None:
            return
        self._writable()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO timings (scenario, trials, elapsed) "
                "VALUES (?, ?, ?)",
                record,
            )

    # -- reads ---------------------------------------------------------

    def completed_keys(self) -> Set[str]:
        """Resume keys of every completed row. Markers (NULL keys) are
        excluded, so their points re-run, as always."""
        return {
            key
            for (key,) in self._query(
                "SELECT resume_key FROM results WHERE resume_key IS NOT NULL"
            )
        }

    def get(self, resume_key: str) -> Optional[Dict[str, Any]]:
        """The completed row stored under ``resume_key``, or ``None``."""
        found = self._query(
            "SELECT row FROM results WHERE resume_key = ?", (resume_key,)
        )
        return json.loads(found[0][0]) if found else None

    def lookup(
        self, scenario: str, params: Mapping[str, Any]
    ) -> List[Dict[str, Any]]:
        """Every completed row for one (scenario, canonical params)
        point, whatever its trials/seed/budget — the estimate service's
        cache probe."""
        rows = self._query(
            "SELECT row FROM results WHERE scenario = ? AND params = ? "
            "AND timed_out = 0 ORDER BY id",
            (scenario, params_blob(params)),
        )
        return [json.loads(blob) for (blob,) in rows]

    def export_lines(self) -> Iterator[str]:
        """Every stored row back as JSONL lines, in insertion order.

        The exact inverse of :meth:`import_rows`: the ``row`` column is
        the lossless JSON blob of what arrived, so the exported file
        parses back (:func:`parse_out_lines`) to the same rows —
        completed rows keep their resume keys, timed-out markers keep
        their ``"timed_out": true`` shape (so a resume retries their
        points, exactly as against the original ``--out`` file).
        ``export → import`` into a fresh store reproduces the key set,
        which is what makes store-to-store merges a pipe.
        """
        for (blob,) in self._query("SELECT row FROM results ORDER BY id"):
            yield blob

    def render_jsonl(self, path: str) -> int:
        """Atomically rewrite ``path`` as this store's JSONL rendering.

        The one renderer behind every JSONL ``--out`` and ``db export``.
        :meth:`export_lines` is read in full first, then written to
        ``path + ".render"``, flushed and fsynced, and ``os.replace``
        swaps it over ``path``; the directory fsync makes the rename
        itself durable. An unreadable store or a failed write therefore
        never truncates ``path``: the previous file survives until a
        whole rendering replaces it. Returns the number of lines
        rendered.
        """
        lines = [line + "\n" for line in self.export_lines()]
        staged = f"{path}.render"
        try:
            # repro-lint: allow[R301] render_jsonl IS the JSONL row sink: a whole rendering from the store, fsynced, then renamed over path
            with open(staged, "w") as file:
                file.writelines(lines)
                file.flush()
                os.fsync(file.fileno())
            os.replace(staged, path)
        except BaseException:
            if os.path.exists(staged):
                os.remove(staged)
            raise
        fsync_directory(os.path.dirname(os.path.abspath(path)))
        return len(lines)

    def load_chunker(self) -> AdaptiveChunker:
        """A fresh :class:`~repro.experiments.chunking.AdaptiveChunker`
        replaying every recorded timing in insertion order.

        Damaged records (NaN, infinite, non-positive or foreign values)
        cost an observation each, never the campaign — the model simply
        knows less. A store created before the ``timings`` table and
        opened read-only (no DDL runs then) has no timings: an empty
        model. Older stores whose ``timings`` table also has a ``cost``
        column replay the same three columns (and new records leave
        ``cost`` NULL).
        """
        chunker = AdaptiveChunker()
        with self._lock:
            try:
                records = self._conn.execute(
                    "SELECT scenario, trials, elapsed FROM timings ORDER BY id"
                ).fetchall()
            except sqlite3.OperationalError:
                records = []
        for record in records:
            chunker.observe(*record)
        return chunker

    def pending_retries(self) -> Set[str]:
        """Retry identities of every stored timed-out marker."""
        return {
            key
            for (key,) in self._query(
                "SELECT retry_key FROM results WHERE timed_out = 1"
            )
        }

    def stats(self) -> Dict[str, int]:
        """Row counts: completed rows, timed-out markers, scenarios."""
        completed, markers, scenarios = self._query(
            "SELECT SUM(timed_out = 0), SUM(timed_out = 1), "
            "COUNT(DISTINCT scenario) FROM results"
        )[0]
        return {
            "completed": completed or 0,
            "timed_out": markers or 0,
            "scenarios": scenarios or 0,
        }

    def _query(self, sql: str, args: tuple = ()) -> list:
        with self._lock:
            try:
                return self._conn.execute(sql, args).fetchall()
            except sqlite3.Error as exc:
                # A read-only open skips the DDL, so a foreign SQLite
                # file surfaces here instead of at construction.
                raise ConfigurationError(
                    f"{self.path!r} is not a usable results store: {exc}"
                ) from None

    # -- lifecycle -----------------------------------------------------

    def _writable(self) -> None:
        if self.read_only:
            raise ConfigurationError(
                f"results store {self.path!r} is open read-only"
            )

    def close(self) -> None:
        # Under the lock: closing mid-_query on another HTTP thread
        # turns that thread's cursor into a ProgrammingError; waiting
        # for the in-flight statement is the whole point of the lock.
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _prepare(row: Mapping[str, Any]) -> PreparedRow:
    """All of :meth:`ResultStore.append_row`'s parsing, done before the
    lock. Raises ``ConfigurationError``, ``LookupError`` or
    ``TypeError`` on damaged rows."""
    timed_out = bool(row.get("timed_out")) if isinstance(row, Mapping) else False
    if timed_out:
        key = None
    else:
        key = row_resume_key(row)  # raises on markers and damage
    retry = row_retry_identity(row)
    values = (
        key,
        retry,
        row["scenario"],
        params_blob(row["params"]),
        row.get("trials"),
        row.get("base_seed"),
        row.get("max_steps"),
        row.get("successes"),
        json.dumps(row.get("outcomes"), sort_keys=True)
        if row.get("outcomes") is not None
        else None,
        json.dumps(row.get("budget"), sort_keys=True)
        if row.get("budget") is not None
        else None,
        row.get("steps_total"),
        int(timed_out),
        # repro-lint: allow[R101] created-marker timestamp: scheduling metadata for the timed-out lifecycle, never part of row identity
        time.time(),
        json.dumps(row, sort_keys=True),
    )
    return PreparedRow(key, retry, values)


def parse_out_lines(
    lines: Iterable[str],
    on_skip: Optional[Callable[[int, str, str], None]] = None,
) -> List[PreparedRow]:
    """The rows of a JSONL ``--out`` file, each line parsed exactly once.

    Blank lines are ignored. Every other line costs one ``json.loads``
    and becomes a :class:`PreparedRow` — a completed row under its
    resume key, or a timed-out marker (``key`` ``None``) — or a skip
    reported to ``on_skip(number, line, reason)`` with the 1-based line
    number and the stripped line. ``reason`` is ``"not-json"`` for a
    line that does not parse (the torn tail of a killed run) and
    ``"not-a-row"`` for JSON without a usable row identity (foreign
    content, missing fields, a broken budget object). A skipped line
    can only make its point re-run, never count as done.
    """
    rows = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError:
            reason = "not-json"
        else:
            try:
                rows.append(_prepare(row))
                continue
            except (ConfigurationError, LookupError, TypeError):
                reason = "not-a-row"
        if on_skip is not None:
            on_skip(number, line, reason)
    return rows


_COLUMNS = (
    "resume_key, retry_key, scenario, params, trials, base_seed, "
    "max_steps, successes, outcomes, budget, steps_total, timed_out, "
    "created, row"
)
_PLACEHOLDERS = ", ".join("?" * 14)
_INSERT = f"INSERT INTO results ({_COLUMNS}) VALUES ({_PLACEHOLDERS})"
_INSERT_OR_IGNORE = (
    f"INSERT OR IGNORE INTO results ({_COLUMNS}) VALUES ({_PLACEHOLDERS})"
)


class StoreRowWriter:
    """Appends JSON row lines to a :class:`ResultStore`.

    Kept only for the benchmark harness (``perfbench/campaigns.py``),
    which appends ``json.dumps`` row lines; everything else hands row
    dicts to :meth:`ResultStore.append_row`. The next benchmark change
    (ROADMAP item 6) switches perfbench to ``append_row`` and deletes
    this class.
    """

    def __init__(self, path: str, store: ResultStore):
        self.path = path
        self._store = store

    def append(self, line: str) -> None:
        """Store one JSON row line."""
        self._store.append_row(json.loads(line))

    def close(self) -> None:
        self._store.close()
