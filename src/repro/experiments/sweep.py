"""Resume identity: grid expansion, parameter canonicalisation, keys.

A sweep is the cartesian product of per-parameter value lists
(:func:`expand_grid`), run as a one-entry campaign:
``run_campaign(expand_manifest([{"scenario": name, "grid": grid,
"trials": trials}]))`` (see :mod:`~repro.experiments.campaign`). Every
grid point has a canonical *resume key* — a pure function of ``(scenario,
resolved params, trials, base_seed, max_steps, budget)`` — and a run
skips points whose key is in its ``completed`` set, which the CLI reads
from the ``--out`` results store
(:class:`~repro.experiments.store.ResultStore`) and from any JSONL rows
it imports (:func:`~repro.experiments.store.parse_out_lines`). Because
the key is computed on *resolved* parameters (defaults overlaid), it is
independent of which subset of parameters the grid happened to pin and
of their order. Adaptive-budget runs key on the *policy* — its registry
name and parameters, via
:meth:`~repro.experiments.budget.BudgetPolicy.to_key` (their realized
trial count is an outcome, not an input) — and fixed-budget keys carry
no budget field at all. So fixed rows, adaptive rows, and adaptive rows
under *different* policies can never satisfy each other's resume
lookups, and pre-budget output files keep resuming byte-for-byte (the
original ``wilson-width`` policy writes the pre-registry key format
unchanged). A timed-out row has no resume key; :func:`retry_identity`
(the key without trials) pairs it with the point that retries it.
"""

import itertools
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

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
    Asking for their key raises, which every caller treats as "retry".
    """
    # Membership tests (not .get) so foreign JSON shapes — lists, strings
    # — fall through to the KeyError/TypeError the row parser tolerates.
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


def retry_identity(
    scenario: str,
    params: Mapping[str, Any],
    base_seed: int,
    max_steps: Optional[int],
    budget: BudgetRef,
) -> str:
    """What identifies a timed-out row with the point that retries it.

    The canonical :func:`resume_key` with ``trials=None`` — the full
    resume identity *minus* trials (a timed-out row's trial count is a
    scheduling artifact, which is exactly why it has no real resume
    key). Delegating keeps marker matching in lockstep with whatever the
    identity rules are; the SQLite store's marker supersession keys off
    this one function.
    """
    return resume_key(scenario, params, None, base_seed, max_steps, budget)


def row_retry_identity(row: Mapping[str, Any]) -> str:
    """:func:`retry_identity` of a previously written row (timed-out
    marker or completed), raising the same way :func:`row_resume_key`
    does on rows whose identity fields are missing or broken."""
    # Subscript access first: foreign shapes (lists, strings) raise the
    # TypeError/KeyError the row parser already catches, before any
    # .get could raise something it doesn't.
    return retry_identity(
        row["scenario"],
        row["params"],
        row["base_seed"],
        row.get("max_steps"),
        row.get("budget"),
    )
