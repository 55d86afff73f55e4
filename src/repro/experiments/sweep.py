"""Parameter-grid sweeps over registered scenarios, with resume support.

A sweep is the cartesian product of per-parameter value lists, run as a
one-entry campaign by :func:`~repro.experiments.campaign.sweep_scenario`.
Rows come back as JSON-stable dicts (see
:meth:`ExperimentResult.to_row`), so the ``python -m repro sweep``
command can stream them line-by-line and downstream tooling can diff
runs — the row set is identical whatever the worker count.

Long grids are resumable: every grid point has a canonical *resume key*
— a pure function of ``(scenario, resolved params, trials, base_seed,
max_steps, budget)`` — and a sweep skips points whose key
appears in the ``completed`` set, which :func:`load_completed_keys`
reconstructs from a previous run's ``--out`` file. Because the key is
computed on *resolved* parameters (defaults overlaid), it is independent
of which subset of parameters the grid happened to pin and of their
order. Adaptive-budget runs key on the *policy* — its registry name and
parameters, via :meth:`~repro.experiments.budget.BudgetPolicy.to_key`
(their realized trial count is an outcome, not an input) — and
fixed-budget keys carry no budget field at all. So fixed rows, adaptive
rows, and adaptive rows under *different* policies can never satisfy
each other's resume lookups, and pre-budget output files keep resuming
byte-for-byte (the original ``wilson-width`` policy writes the
pre-registry key format unchanged).
"""

import itertools
import json
import os
from typing import (
    Callable,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.experiments.budget import BudgetRef, as_policy
from repro.util.errors import ConfigurationError

#: A grid: parameter name -> single value or list of values to sweep.
Grid = Mapping[str, Union[Any, Sequence[Any]]]


def _canonical_value(value: Any) -> Any:
    """Collapse numerically-equal parameter spellings to one value.

    ``json.dumps`` prints ``1`` and ``1.0`` differently even though they
    are equal in Python and identical as experiment inputs, so a float
    that holds an integral value is folded to the int before it joins a
    resume identity. ``bool`` is an ``int`` subclass but never a
    ``float``, so flags pass through untouched, as do non-integral
    floats, strings, and ``None``. Containers are canonicalised
    recursively so nested parameter structures alias the same way.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item) for item in value]
    if isinstance(value, Mapping):
        return {key: _canonical_value(item) for key, item in value.items()}
    return value


def canonical_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Sorted, numerically-canonical copy of a parameter mapping.

    This is the exact ``params`` object that joins :func:`resume_key`'s
    identity dict; stores that index rows by parameter value (see
    :mod:`repro.experiments.store`) serialise this same shape so lookups
    collide with keys regardless of how the caller spelled the numbers.
    """
    return {key: _canonical_value(params[key]) for key in sorted(params)}


def expand_grid(grid: Optional[Grid]) -> List[Dict[str, Any]]:
    """Cartesian-product a grid into concrete parameter dicts.

    Scalar values are treated as singleton axes; ``None`` or an empty
    grid yields one empty dict (the scenario's defaults). Axis order
    follows the grid's own key order, so callers control row ordering.
    """
    if not grid:
        return [{}]
    axes = []
    for key, values in grid.items():
        if isinstance(values, (list, tuple)):
            axis = list(values)
        else:
            axis = [values]
        axes.append([(key, value) for value in axis])
    return [dict(point) for point in itertools.product(*axes)]


def coerce_param(text: str) -> Any:
    """A textual parameter literal -> int / float / bool / None / str.

    The one grammar every textual front end shares — ``--param`` grid
    values on the CLI and query-string parameters on the estimate
    service — so ``n=8`` means the integer 8 everywhere a parameter can
    be spelled as text.

    Blank text is rejected outright: an empty query-string value
    (``?flag=``) or grid entry (``--param n=``) is a spelling mistake,
    and quietly coercing it to the empty *string* let it masquerade as
    a legal parameter value downstream.
    """
    if not text.strip():
        raise ConfigurationError(
            "blank parameter value (spell the literal out, e.g. n=8; "
            "use 'none' for null)"
        )
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    return text


def resume_key(
    scenario: str,
    params: Mapping[str, Any],
    trials: Optional[int],
    base_seed: int,
    max_steps: Optional[int] = None,
    budget: BudgetRef = None,
) -> str:
    """Canonical identity of one grid point's experiment.

    A pure function of ``(scenario, params, trials, base_seed,
    max_steps[, budget])`` — the exact tuple that determines an
    experiment's rows — serialised with sorted keys so two parameter
    dicts with equal contents always collide, whatever their insertion
    order, and with integral floats folded to ints (see
    :func:`canonical_params`) so ``n=1`` and ``n=1.0`` — equal values,
    identical experiments — collide too. ``max_steps`` is part of the
    identity because the per-trial
    delivery budget changes outcomes: a resume run must not treat rows
    produced under a different budget as done. Pass *resolved*
    parameters (defaults overlaid) so a pinned-at-default grid and an
    unpinned one produce the same key.

    For adaptive runs pass ``trials=None`` and the budget policy: the
    realized trial count is determined *by* the run, so the request is
    identified by the policy instead. The ``budget`` field joins the key
    only when present, keeping every fixed-budget key byte-identical to
    the pre-budget format (old output files resume unchanged).
    """
    identity: Dict[str, Any] = {
        "scenario": scenario,
        "params": canonical_params(params),
        "trials": trials,
        "base_seed": base_seed,
        "max_steps": max_steps,
    }
    policy = as_policy(budget)
    if policy is not None:
        identity["budget"] = policy.to_key()
    return json.dumps(identity, sort_keys=True)


def row_resume_key(row: Mapping[str, Any]) -> str:
    """The resume key of a previously written sweep row.

    Rows written before ``max_steps`` joined the row format count as
    default-budget rows (``max_steps=None``), matching how they ran.
    Rows carrying a ``"budget"`` object were adaptive: their ``trials``
    field is the realized count, so the key is rebuilt from the policy
    (``trials=None``) — exactly what a resuming adaptive sweep asks for.

    Timed-out rows (``"timed_out": true`` — a campaign deadline abandoned
    the point mid-run) have **no** resume identity: their ``trials``
    field is a scheduling-dependent partial count, and treating one as
    done would let a truncated artifact satisfy a resume lookup forever.
    Asking for their key raises, which every loader treats as "retry".
    """
    # Membership tests (not .get) so foreign JSON shapes — lists, strings
    # — fall through to the KeyError/TypeError the loaders tolerate.
    if "timed_out" in row and row["timed_out"]:
        raise ConfigurationError(
            "timed-out rows have no resume identity; the point must re-run"
        )
    budget = row["budget"] if "budget" in row else None
    return resume_key(
        row["scenario"],
        row["params"],
        None if budget is not None else row["trials"],
        row["base_seed"],
        row["max_steps"] if "max_steps" in row else None,
        budget,
    )


def classify_row_line(line):
    """Parse one output line exactly once: ``(row, key, reason)``.

    ``reason`` is ``None`` for a well-formed row (``key`` is its resume
    key), ``"timed-out"`` for a parsed mapping a deadline abandoned
    (``row`` is the parsed marker, ``key`` is ``None``), and
    ``"malformed"`` for everything else — unparseable JSON, foreign
    shapes, rows whose identity fields are missing or broken. The single
    ``json.loads`` here is the whole parse: callers that need both the
    skip reason *and* the row (resume loaders, the SQLite importer)
    thread the parsed object through instead of re-parsing the line.
    """
    try:
        row = json.loads(line)
    except ValueError:
        return None, None, "malformed"
    try:
        return row, row_resume_key(row), None
    except ConfigurationError:
        # row_resume_key refuses timed-out markers by contract; anything
        # else it rejects (a malformed budget object) is just damage.
        if isinstance(row, Mapping) and row.get("timed_out"):
            return row, None, "timed-out"
        return row, None, "malformed"
    except (KeyError, TypeError):
        return row, None, "malformed"


def load_completed_keys(
    lines: Iterable[str],
    on_skip: Optional[Callable[[int, str, str], None]] = None,
) -> Set[str]:
    """Resume keys of every well-formed sweep row in ``lines``.

    Lines that are not JSON objects carrying the identity fields
    (foreign content, partial writes, malformed budget objects) are
    skipped: an unparseable line can only cause a grid point to
    *re-run*, never to be skipped. The canonical producer of such a line
    is a run killed mid-append — the trailing row is truncated (or
    blank, if the kill landed between the text and its newline), and a
    resume must shrug it off rather than crash or trust it.

    ``on_skip(line_number, line, reason)`` (if given) observes every
    non-blank line that contributed no key, so callers can *warn* about
    a torn tail instead of silently re-running. ``reason`` is
    ``"timed-out"`` for well-formed rows a deadline abandoned (their
    retry is the resume contract working as designed) and
    ``"malformed"`` for everything else. Each line is parsed exactly
    once (see :func:`classify_row_line`), whatever its fate.
    """
    keys: Set[str] = set()
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        _, key, reason = classify_row_line(line)
        if reason is None:
            keys.add(key)
        elif on_skip is not None:
            on_skip(number, line, reason)
    return keys


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


class RowWriter:
    """The one durable line-appender every row store goes through.

    A plain buffered ``write`` gives a killed run three failure shapes:
    rows lost in the userspace buffer, rows lost in the page cache, and
    a *torn* trailing line when the kill lands mid-``write``. The first
    two are this class's job — every :meth:`append` pushes the line
    through ``flush`` + ``os.fsync`` before returning, so once a row has
    been handed over it survives anything short of disk failure. The
    third is physically unavoidable (appends are not atomic), which is
    why :func:`load_completed_keys` tolerates exactly one torn tail: the
    fsync discipline here guarantees a partial line can only ever be the
    *last* one.

    Per-row fsync is noise next to a grid point's trial work (rows are
    emitted once per experiment, not per trial); the bulk
    :meth:`write_lines` path — used to write a whole JSONL rendering of
    a results store — pays one fsync for the whole block instead.
    """

    def __init__(self, path: str, append: bool = False):
        self.path = path
        existed = os.path.exists(path)
        # repro-lint: allow[R301] RowWriter IS the blessed row sink — the fsync'd appender every other write routes through
        self._file = open(path, "a" if append else "w")
        if not existed:
            # A freshly created file is only durable once its directory
            # entry is: without this, every fsync'd row in a new --out
            # can vanish wholesale when the machine dies before the
            # parent directory's dirty entry reaches disk.
            fsync_directory(os.path.dirname(os.path.abspath(path)) or ".")

    def write_lines(self, lines: Iterable[str]) -> None:
        """Bulk-write already-terminated lines, then sync once."""
        self._file.writelines(lines)
        self._sync()

    def append(self, line: str) -> None:
        """Append one row line (newline added) and sync it to disk."""
        self._file.write(line + "\n")
        self._sync()

    def _sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "RowWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
