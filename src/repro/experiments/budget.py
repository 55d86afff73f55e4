"""Adaptive trial budgets: pluggable stop rules on one deterministic schedule.

A fixed trial budget wastes work in both directions: an attack that
forces its target 500 times out of 500 had a conclusive answer hundreds
of trials earlier, while a borderline scenario may need far more than
the default to separate from chance. A budget policy replaces the fixed
count with a convergence criterion, bounded below by ``min_trials``
(don't trust five lucky trials) and above by ``max_trials`` (always
terminate).

Four policies ship in the registry, each answering a different
experimental question about the trial outcomes:

``wilson-width``
    *How precisely is the rate known, absolutely?* Stop once the Wilson
    interval is narrower than ``ci_width``. The original policy — its
    identity dict carries no ``policy`` field, so every pre-registry
    manifest, row, and resume key keeps meaning exactly what it meant.
``relative-precision``
    *How precisely is the rate known, relative to its size?* Stop once
    the Wilson half-width is at most ``rel_precision`` times the
    estimate — the right shape for rare events, where an absolute width
    of 0.05 says nothing about a 1% forcing rate. Never fires while the
    success count is zero (relative precision of zero is undefined), so
    an all-failure point runs to the ceiling.
``fail-rate-target``
    *Is the rate above or below a threshold?* Stop once the Wilson
    interval lies entirely above or entirely below ``target`` — the
    data has decided the comparison either way. For punishment scenarios
    (success = the deviation was caught, i.e. the execution FAILed) this
    is literally a fail-rate test; points whose true rate sits at the
    threshold run to the ceiling.
``outcome-rate-target``
    *Is one specific outcome's rate above or below a threshold?* The
    distribution-level sibling of ``fail-rate-target``: instead of the
    scenario's success predicate it watches a single outcome's share of
    the histogram — e.g. "stop once we know whether leader 3 is elected
    more than 20% of the time" — and fires once the Wilson interval on
    that share excludes ``target``. Outcomes are matched by string form
    (budgets come from JSON manifests), and the rule never fires when no
    per-outcome counters reach it, so it degrades to the ``max_trials``
    ceiling rather than stopping blind.

Determinism is the load-bearing property, and it is shared machinery:
trials are consumed in *batches* whose boundaries are a pure function of
the bounds alone (:meth:`BudgetPolicy.batch_ends` — ``min_trials``
doubling up to ``max_trials``), and every stop rule is evaluated only at
batch boundaries, on the cumulative ``(successes, trials)`` counters
(plus the folded per-outcome counters, which the fold carries anyway).
Since trial ``i``'s outcome depends only on ``(base_seed, i)`` and
counter folding is commutative, the realized trial count — and therefore
the row — is identical whatever the worker count or chunk interleaving.
Evaluating mid-batch would break this: *which* trials had finished at
evaluation time would depend on scheduling.

Policy name and parameters join the resume key (see
:meth:`BudgetPolicy.to_key`), so two policies that happen to share their
numeric parameters can never satisfy each other's resume lookups.
"""

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, Iterator, List, Mapping, Optional, Type, Union

from repro.analysis.stats import wilson_interval
from repro.util.errors import ConfigurationError

#: Registered policy name -> concrete class (see :func:`register_policy`).
_POLICIES: Dict[str, Type["BudgetPolicy"]] = {}

#: Policy assumed when a budget mapping carries no ``"policy"`` field —
#: the only one that existed before the registry, so old manifests and
#: rows keep parsing (and keying) unchanged.
DEFAULT_POLICY = "wilson-width"

#: Adaptive bounds when none are given: the floor before a stop rule may
#: fire, and the ceiling that always terminates a point.
DEFAULT_MIN_TRIALS = 32
DEFAULT_MAX_TRIALS = 100_000


def precision_satisfied(
    successes: int, trials: int, ci_width: float, z: float = 1.96
) -> bool:
    """Does ``(successes, trials)`` pin the rate to within ``ci_width``?

    The ``wilson-width`` stop rule as a pure predicate on stored
    counters — shared by :class:`WilsonWidthPolicy` (evaluating live
    batches) and the estimate service (deciding whether an already
    stored row satisfies a query's requested precision without
    dispatching a single trial). Zero trials never satisfy anything:
    :func:`~repro.analysis.stats.wilson_interval` returns the vacuous
    ``(0, 1)`` there, which is wider than any valid ``ci_width``.
    """
    if trials <= 0:
        return False
    low, high = wilson_interval(successes, trials, z)
    return (high - low) <= ci_width


def register_policy(cls: Type["BudgetPolicy"]) -> Type["BudgetPolicy"]:
    """Class decorator: add a concrete policy to the registry by name."""
    if cls.policy in _POLICIES:
        raise ConfigurationError(f"budget policy {cls.policy!r} already registered")
    _POLICIES[cls.policy] = cls
    return cls


def policy_names() -> List[str]:
    """Sorted names of every registered budget policy."""
    return sorted(_POLICIES)


class BudgetPolicy:
    """Base of all adaptive trial budgets (one policy per experiment).

    Concrete policies are frozen dataclasses declaring their criterion
    field plus the shared bounds:

    ``min_trials``
        Never stop before this many trials — also the first batch size.
    ``max_trials``
        Hard ceiling; the experiment stops here even if unconverged.
    ``z``
        Wilson critical value (1.96 = 95%); part of the identity because
        it changes where the stop rule fires.

    Subclasses set two class attributes — ``policy`` (the registry name)
    and ``_SPECIFIC`` (criterion field name -> caster, used by the
    generic manifest parser and identity dict) — and implement
    :meth:`satisfied`. Registration is via :func:`register_policy`.
    """

    #: Registry name of the concrete policy (class attribute).
    policy: ClassVar[str] = ""
    #: Criterion fields beyond the shared bounds: name -> caster.
    _SPECIFIC: ClassVar[Dict[str, Callable[[Any], Any]]] = {}

    # Declared for type checkers; concrete dataclasses define the fields.
    min_trials: int
    max_trials: int
    z: float

    def __init__(self, *args, **kwargs):
        # Concrete policies are dataclasses with generated __init__s that
        # never call up here; only a direct BudgetPolicy(...) lands in
        # this body. Fail it eagerly with a pointer — the pre-registry
        # class took WilsonWidthPolicy's arguments, so old callers would
        # otherwise get an opaque TypeError (or a hollow instance that
        # only crashes deep inside a run).
        raise ConfigurationError(
            "BudgetPolicy is the abstract base of the policy registry; "
            "construct a concrete policy — e.g. WilsonWidthPolicy("
            "ci_width=..., min_trials=..., max_trials=...) — or parse "
            "one with BudgetPolicy.from_mapping({...})"
        )

    # -- shared validation ---------------------------------------------

    def _validate_bounds(self) -> None:
        if self.min_trials < 1:
            raise ConfigurationError(
                f"min_trials must be >= 1, got {self.min_trials}"
            )
        if self.max_trials < self.min_trials:
            raise ConfigurationError(
                f"max_trials ({self.max_trials}) must be >= "
                f"min_trials ({self.min_trials})"
            )
        if self.z <= 0:
            raise ConfigurationError(f"z must be > 0, got {self.z}")

    # -- identity ------------------------------------------------------

    def to_key(self) -> Dict[str, Any]:
        """JSON-stable identity dict — embedded in rows and resume keys.

        Everything that changes where the stop rule fires is here — the
        policy name, its criterion, and the shared bounds — so fixed-
        budget rows (no budget), adaptive rows with different policies,
        and same-policy rows with different parameters can never satisfy
        each other's resume lookups. (:class:`WilsonWidthPolicy` drops
        the ``policy`` field to keep its pre-registry key format.)
        """
        key: Dict[str, Any] = {"policy": self.policy}
        for name in self._SPECIFIC:
            key[name] = getattr(self, name)
        key["min_trials"] = self.min_trials
        key["max_trials"] = self.max_trials
        key["z"] = self.z
        return key

    @classmethod
    def from_mapping(cls, raw: Mapping[str, Any]) -> "BudgetPolicy":
        """Build a policy from manifest/row JSON, rejecting unknown keys.

        The ``"policy"`` field selects the registered class; a mapping
        without one is the pre-registry format and parses as
        ``wilson-width``. Dispatches from the base class, so
        ``BudgetPolicy.from_mapping`` accepts any registered policy.
        """
        if not isinstance(raw, Mapping):
            raise ConfigurationError(
                f"budget must be an object, got {type(raw).__name__}"
            )
        name = raw.get("policy", DEFAULT_POLICY)
        # isinstance before the dict lookup: a non-string (possibly
        # unhashable) "policy" value must fail the same eager way every
        # other malformed budget does, not with a bare TypeError.
        klass = _POLICIES.get(name) if isinstance(name, str) else None
        if klass is None:
            raise ConfigurationError(
                f"unknown budget policy {name!r}; "
                f"known: {', '.join(policy_names())}"
            )
        return klass._from_fields({k: v for k, v in raw.items() if k != "policy"})

    @classmethod
    def _from_fields(cls, raw: Mapping[str, Any]) -> "BudgetPolicy":
        casts: Dict[str, Callable[[Any], Any]] = dict(cls._SPECIFIC)
        casts.update(min_trials=int, max_trials=int, z=float)
        unknown = sorted(set(raw) - set(casts))
        if unknown:
            raise ConfigurationError(
                f"budget has unknown keys {unknown}; known for "
                f"{cls.policy!r}: {', '.join(['policy'] + sorted(casts))}"
            )
        for required in (*cls._SPECIFIC, "min_trials", "max_trials"):
            if required not in raw:
                raise ConfigurationError(f"budget requires {required!r}")
        try:
            return cls(**{k: cast(raw[k]) for k, cast in casts.items() if k in raw})
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad budget value: {exc}") from None

    # -- the schedule --------------------------------------------------

    def batch_ends(self) -> Iterator[int]:
        """Cumulative trial counts at which the stop rule is evaluated.

        ``min_trials`` doubling up to ``max_trials`` — e.g. for
        ``(32, 1000)``: 32, 64, 128, 256, 512, 1000. A pure function of
        the bounds, never of outcomes or worker layout — and shared by
        every policy, so two policies with the same bounds see the same
        counters at the same boundaries and differ only in when they
        declare them conclusive.
        """
        end = self.min_trials
        while True:
            end = min(end, self.max_trials)
            yield end
            if end >= self.max_trials:
                return
            end *= 2

    def satisfied(
        self,
        successes: int,
        trials: int,
        counts: Optional[Mapping[Any, int]] = None,
    ) -> bool:
        """The stop rule, evaluated on cumulative counters at a batch
        boundary. ``counts`` is the cumulative per-outcome histogram the
        fold carries alongside the success counter; proportion policies
        ignore it, distribution-level policies
        (:class:`OutcomeRateTargetPolicy`) read one outcome's share from
        it. Callers that only track ``(successes, trials)`` may omit it
        — a policy that needs counts must then refuse to fire rather
        than guess. Concrete policies implement this."""
        raise NotImplementedError


@register_policy
@dataclass(frozen=True)
class WilsonWidthPolicy(BudgetPolicy):
    """Stop once the Wilson interval is narrower than ``ci_width``.

    The original (pre-registry) policy: its identity dict carries no
    ``policy`` field, keeping every existing adaptive resume key and row
    byte-identical.
    """

    ci_width: float
    min_trials: int
    max_trials: int
    z: float = 1.96

    policy = "wilson-width"
    _SPECIFIC = {"ci_width": float}

    def __post_init__(self):
        if not 0.0 < self.ci_width <= 1.0:
            raise ConfigurationError(
                f"ci_width must be in (0, 1], got {self.ci_width}"
            )
        self._validate_bounds()

    def to_key(self) -> Dict[str, Any]:
        key = super().to_key()
        # Frozen legacy format: pre-registry rows and resume keys carry
        # no policy name, and must keep resuming byte-for-byte.
        del key["policy"]
        return key

    def satisfied(
        self,
        successes: int,
        trials: int,
        counts: Optional[Mapping[Any, int]] = None,
    ) -> bool:
        if trials < self.min_trials:
            return False
        return precision_satisfied(successes, trials, self.ci_width, self.z)


@register_policy
@dataclass(frozen=True)
class RelativePrecisionPolicy(BudgetPolicy):
    """Stop once the Wilson half-width is ``<= rel_precision x estimate``.

    The rare-event shape: a 1% forcing rate needs its interval narrow
    *relative to 1%*, not relative to the whole unit interval. With zero
    successes the criterion is undefined and never fires, so an
    all-failure point runs to ``max_trials``.
    """

    rel_precision: float
    min_trials: int
    max_trials: int
    z: float = 1.96

    policy = "relative-precision"
    _SPECIFIC = {"rel_precision": float}

    def __post_init__(self):
        if not 0.0 < self.rel_precision <= 1.0:
            raise ConfigurationError(
                f"rel_precision must be in (0, 1], got {self.rel_precision}"
            )
        self._validate_bounds()

    def satisfied(
        self,
        successes: int,
        trials: int,
        counts: Optional[Mapping[Any, int]] = None,
    ) -> bool:
        if trials < self.min_trials or successes == 0:
            return False
        low, high = wilson_interval(successes, trials, self.z)
        return (high - low) / 2.0 <= self.rel_precision * (successes / trials)


@register_policy
@dataclass(frozen=True)
class FailRateTargetPolicy(BudgetPolicy):
    """Stop once the interval excludes ``target`` — the comparison is decided.

    Fires when the Wilson interval on the success proportion lies
    entirely above or entirely below ``target``. For punishment
    scenarios (success = the deviation was punished with ``FAIL``) the
    success proportion *is* the fail rate, hence the name; for forcing
    attacks it reads as "stop once we know whether the attack clears the
    bar". A point whose true rate sits at the threshold never excludes
    it and runs to ``max_trials``.
    """

    target: float
    min_trials: int
    max_trials: int
    z: float = 1.96

    policy = "fail-rate-target"
    _SPECIFIC = {"target": float}

    def __post_init__(self):
        if not 0.0 <= self.target <= 1.0:
            raise ConfigurationError(
                f"target must be in [0, 1], got {self.target}"
            )
        self._validate_bounds()

    def satisfied(
        self,
        successes: int,
        trials: int,
        counts: Optional[Mapping[Any, int]] = None,
    ) -> bool:
        if trials < self.min_trials:
            return False
        low, high = wilson_interval(successes, trials, self.z)
        return low > self.target or high < self.target


@register_policy
@dataclass(frozen=True)
class OutcomeRateTargetPolicy(BudgetPolicy):
    """Stop once *one outcome's* rate interval excludes ``target``.

    :class:`FailRateTargetPolicy` over the histogram instead of the
    success predicate: the watched count is ``counts[outcome]`` (zero
    when the outcome never occurred), its proportion of ``trials`` gets
    the same Wilson treatment, and the rule fires once the interval lies
    entirely on one side of ``target``. Because budgets arrive as JSON
    manifests, ``outcome`` is a string and histogram keys are matched by
    their ``str()`` form — ``"3"`` watches leader 3, ``"FAIL"`` watches
    the punishment outcome, ``"0.8125"`` a sequential-coin probability.

    Needs the per-outcome counters the fold carries; a caller that
    evaluates the rule without them (``counts is None``) gets ``False``
    — never a blind stop — and the point runs to ``max_trials``.
    """

    outcome: str
    target: float
    min_trials: int
    max_trials: int
    z: float = 1.96

    policy = "outcome-rate-target"
    _SPECIFIC = {"outcome": str, "target": float}

    def __post_init__(self):
        if not self.outcome:
            raise ConfigurationError("outcome must be a non-empty string")
        if not 0.0 <= self.target <= 1.0:
            raise ConfigurationError(
                f"target must be in [0, 1], got {self.target}"
            )
        self._validate_bounds()

    def satisfied(
        self,
        successes: int,
        trials: int,
        counts: Optional[Mapping[Any, int]] = None,
    ) -> bool:
        if trials < self.min_trials or counts is None:
            return False
        count = sum(c for o, c in counts.items() if str(o) == self.outcome)
        low, high = wilson_interval(count, trials, self.z)
        return low > self.target or high < self.target


#: A budget argument as APIs accept it: a policy, raw manifest JSON, or
#: ``None`` for the classic fixed trial count.
BudgetRef = Union[BudgetPolicy, Mapping[str, Any], None]


def as_policy(budget: BudgetRef) -> Optional[BudgetPolicy]:
    """Normalise a budget argument to a :class:`BudgetPolicy` (or None)."""
    if budget is None or isinstance(budget, BudgetPolicy):
        return budget
    return BudgetPolicy.from_mapping(budget)
