"""R1 — determinism: rows derive from seeds, nothing else.

Every row the campaign machinery emits must be a pure function of
``(base_seed, trial_index)`` (ROADMAP: byte-identical across workers,
chunk sizes, batch kernels, and hosts). Four things break that purity
and each gets a rule:

R101  wall-clock reads (``time.time``, ``datetime.now``, …)
R102  the process-global Mersenne Twister (``random.random()``) or an
      un-seeded numpy generator — both shared across trials
R103  OS entropy (``os.urandom``, ``secrets``) that no seed reproduces
R104  iterating a ``set`` in an order-sensitive position: CPython's set
      order depends on insertion history and (for str keys) hashing, so
      folding set iteration into an outcome makes rows machine-dependent

Scheduling metadata (timestamps on store markers, the store's
``timings`` table) is legitimately wall-clock — those audited sites carry
``# repro-lint: allow[R101] reason`` pragmas. Order-insensitive
reductions over sets (``sorted(set(...))``, ``max(... for x in
set(...))``) are structurally exempt from R104: only ``for`` statements
and list comprehensions preserve iteration order into the result.
"""

import ast
from typing import Iterator

from repro.lint.engine import (
    Finding,
    ModuleContext,
    dotted_name,
    register_check,
)

#: Matched against the last two parts of the dotted call name, so both
#: ``time.time()`` and ``datetime.datetime.now()`` are caught.
WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: numpy.random constructors that are fine *when given a seed* — only
#: a no-argument call (seeded from OS entropy) is flagged.
NUMPY_SEEDABLE = {"RandomState", "default_rng", "Generator", "SeedSequence"}


def _set_like(node: ast.AST) -> bool:
    """Does this expression evaluate to a set (unordered iteration)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        parts = dotted_name(node.func)
        return parts is not None and parts[-1] in ("set", "frozenset")
    return False


@register_check
def check_determinism(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            parts = dotted_name(node.func)
            if parts is None:
                continue
            dotted = ".".join(parts)
            last_two = tuple(parts[-2:])
            if last_two in WALL_CLOCK:
                yield Finding(
                    "R101", ctx.path, node.lineno, node.col_offset,
                    f"wall-clock call {dotted}() in row-producing code: "
                    "outcomes must derive from the trial seed, not the "
                    "clock (pragma allow[R101] for scheduling metadata)",
                )
            elif len(parts) == 2 and parts[0] == "random" and parts[1] != "Random":
                yield Finding(
                    "R102", ctx.path, node.lineno, node.col_offset,
                    f"module-level random.{parts[1]}() uses the "
                    "process-global generator shared across trials; "
                    "construct random.Random(derive_seed(...)) instead",
                )
            elif len(parts) >= 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
                fn = parts[2]
                if fn in NUMPY_SEEDABLE:
                    if not node.args and not node.keywords:
                        yield Finding(
                            "R102", ctx.path, node.lineno, node.col_offset,
                            f"un-seeded {dotted}() draws its state from OS "
                            "entropy; pass an explicit seed",
                        )
                else:
                    yield Finding(
                        "R102", ctx.path, node.lineno, node.col_offset,
                        f"{dotted}() draws from numpy's global generator "
                        "shared across trials; use a seeded RandomState/"
                        "default_rng instance",
                    )
            elif last_two == ("os", "urandom") or parts[0] == "secrets":
                yield Finding(
                    "R103", ctx.path, node.lineno, node.col_offset,
                    f"{dotted}() is OS entropy no seed can reproduce; "
                    "derive randomness from the trial seed",
                )
        elif isinstance(node, ast.For) and _set_like(node.iter):
            yield Finding(
                "R104", ctx.path, node.iter.lineno, node.iter.col_offset,
                "for-loop over a set: iteration order is "
                "insertion/hash-dependent, so any order-sensitive fold "
                "diverges across machines; iterate sorted(...) instead",
            )
        elif isinstance(node, ast.ListComp):
            for gen in node.generators:
                if _set_like(gen.iter):
                    yield Finding(
                        "R104", ctx.path, gen.iter.lineno, gen.iter.col_offset,
                        "list built by iterating a set inherits its "
                        "nondeterministic order; wrap the source in "
                        "sorted(...)",
                    )
