"""R3 — row integrity: rows reach disk through the results store, seeded.

R301  flags the two ways a row can bypass the blessed sinks
      (``ResultStore.append_row``'s resume-key-unique SQLite
      transactions, ``ResultStore.render_jsonl``'s fsynced atomic
      renderings): a direct ``json.dump`` call, and ``open(path, mode)``
      with a writable (or non-constant) mode. The one legitimate
      ``open``-for-write in the tree is render_jsonl's staged file —
      pragma'd, with the reason.

R302  flags ``run_trial``/``run_batch`` implementations that accept
      their seed-carrying argument and never reference it. A trial
      function wired into a ``ScenarioSpec`` receives ``(params,
      registry, max_steps)`` and a batch kernel ``(seeds, params)``;
      ignoring ``registry``/``seeds`` means every trial computes the
      same thing while the rows claim per-seed outcomes.
      Exact/deterministic evaluations (closed-form witnesses) are real
      — those carry ``allow[R302]`` pragmas stating so. Only functions
      defined in the same module and named directly by a
      ``ScenarioSpec(...)`` call there are checked, so helpers stay out
      of scope, and so do kernels registered through ``partial(...)``
      or an imported name (the shared ring kernels).
"""

import ast
import re
from typing import Dict, Iterator

from repro.lint.engine import (
    Finding,
    ModuleContext,
    dotted_name,
    register_check,
)

_WRITABLE_MODE = re.compile(r"[wax+]")

#: role -> (0-based index of the seed-carrying parameter, its name).
_SEED_PARAM = {"run_trial": (1, "registry"), "run_batch": (0, "seeds")}


@register_check
def check_row_integrity(ctx: ModuleContext) -> Iterator[Finding]:
    spec_roles: Dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        parts = dotted_name(node.func)
        if parts is None:
            continue
        if tuple(parts[-2:]) == ("json", "dump"):
            yield Finding(
                "R301", ctx.path, node.lineno, node.col_offset,
                "json.dump() writes rows without ResultStore.append_row/"
                "render_jsonl (no fsync'd atomic write, no resume key); "
                "route output through the results store",
            )
        elif parts == ("open",):
            mode = node.args[1] if len(node.args) >= 2 else None
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if mode is None:
                continue  # default "r"
            if (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and not _WRITABLE_MODE.search(mode.value)
            ):
                continue
            yield Finding(
                "R301", ctx.path, node.lineno, node.col_offset,
                "open() with a write mode bypasses ResultStore.append_row/"
                "render_jsonl; rows written this way survive neither "
                "crashes nor resume",
            )
        elif parts[-1] == "ScenarioSpec":
            for kw in node.keywords:
                if kw.arg in _SEED_PARAM and isinstance(kw.value, ast.Name):
                    spec_roles[kw.value.id] = kw.arg

    if not spec_roles:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.FunctionDef) or node.name not in spec_roles:
            continue
        role = spec_roles[node.name]
        index, what = _SEED_PARAM[role]
        params = list(node.args.posonlyargs) + list(node.args.args)
        if len(params) <= index:
            continue
        seed_name = params[index].arg
        used = any(
            isinstance(sub, ast.Name) and sub.id == seed_name
            for stmt in node.body
            for sub in ast.walk(stmt)
        )
        if not used:
            yield Finding(
                "R302", ctx.path, node.lineno, node.col_offset,
                f"{role} implementation {node.name}() never uses its "
                f"{what} argument {seed_name!r}: outcomes must derive "
                "from the per-trial seed (pragma allow[R302] for exact "
                "closed-form evaluations)",
            )
