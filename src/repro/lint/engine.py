"""The lint engine: findings, pragmas, the rule catalog, and the runner.

``python -m repro lint`` is a *project-invariant* checker, not a style
linter: every rule encodes a contract the reproduction's results stand
on (see the rule packs in :mod:`repro.lint.rules_determinism`,
:mod:`repro.lint.rules_locks`, :mod:`repro.lint.rules_rows`, and the
repository's ``INVARIANTS.md``). The engine is deliberately small and
stdlib-only — ``ast`` for structure, ``tokenize`` for comments — so the
check runs identically on every interpreter the test matrix covers.

Suppression is explicit and audited. A finding on line ``L`` is
silenced only by a pragma comment **on line L or the line above**::

    row["created"] = time.time()  # repro-lint: allow[R101] audit stamp only

and the pragma grammar is strict: the rule id must exist, and a
non-empty reason is required — a pragma without a justification is
itself a finding (R002), so the audit trail can never silently decay.
``allow-file[RULE]`` anywhere in a file exempts the whole file (for
generated or fixture code).

The public entry point is :func:`lint_paths`; findings come back sorted
by (file, line, column, rule) so text and JSON output are stable enough
to pin in CI.
"""

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.util.errors import ConfigurationError

#: Every rule id the engine knows, with the one-line summary the README
#: catalog and ``--select``/``--ignore`` validation share. Rule packs
#: may only emit ids listed here — an unknown id in a finding or a
#: pragma is a bug (respectively a typo) and is rejected loudly.
CATALOG: Dict[str, str] = {
    "R001": "file cannot be parsed (syntax error or unreadable)",
    "R002": "malformed repro-lint pragma (unknown rule, or missing reason)",
    "R101": "wall-clock call (time.time / datetime.now) in row-producing code",
    "R102": "module-level random.* or un-seeded numpy.random use",
    "R103": "os.urandom / secrets: randomness no seed can reproduce",
    "R104": "iteration over a set feeding an order-sensitive construct",
    "R201": "guarded attribute accessed outside its declared lock",
    "R202": "malformed _GUARDED_BY declaration",
    "R301": "row-shaped write (json.dump / open-for-write) bypassing the results store",
    "R302": "run_trial/run_batch implementation ignores its seed argument",
}

#: The registered checkers, each ``fn(ctx) -> Iterable[Finding]``. A
#: checker may emit findings for several related rule ids (one pack's
#: rules usually share a traversal).
CHECKS: List[Callable[["ModuleContext"], Iterable["Finding"]]] = []


def register_check(fn):
    """Register a rule-pack checker (decorator, import-time effect)."""
    CHECKS.append(fn)
    return fn


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "file": self.path.replace(os.sep, "/"),
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


#: ``# repro-lint: allow[R101] reason`` / ``allow-file[R301] reason``.
PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>allow(?:-file)?)"
    r"(?:\[(?P<rules>[^\]]*)\])?\s*(?P<reason>.*)$"
)


@dataclass
class Pragmas:
    """The suppression state of one file, parsed from its comments."""

    line_rules: Dict[int, Set[str]] = field(default_factory=dict)
    file_rules: Set[str] = field(default_factory=set)
    malformed: List[Finding] = field(default_factory=list)

    def suppresses(self, finding: Finding) -> bool:
        if finding.rule in self.file_rules:
            return True
        for line in (finding.line, finding.line - 1):
            if finding.rule in self.line_rules.get(line, ()):
                return True
        return False


def scan_pragmas(source: str, path: str) -> Pragmas:
    """Collect every pragma comment (and every malformed one) in a file.

    Comments are found with :mod:`tokenize` — not a per-line regex — so
    a pragma-shaped string *literal* can never suppress anything.
    """
    pragmas = Pragmas()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The caller only scans files ast.parse accepted; a tokenizer
        # disagreement just means no pragmas are honoured.
        return pragmas
    for tok in tokens:
        if tok.type != tokenize.COMMENT or "repro-lint" not in tok.string:
            continue
        lineno = tok.start[0]
        match = PRAGMA_RE.search(tok.string)
        if match is None:
            pragmas.malformed.append(
                Finding(
                    "R002", path, lineno, 0,
                    "unparseable repro-lint comment: expected "
                    "'# repro-lint: allow[RULE] reason'",
                )
            )
            continue
        raw = match.group("rules")
        ids = [r.strip() for r in (raw or "").split(",") if r.strip()]
        if not ids:
            pragmas.malformed.append(
                Finding(
                    "R002", path, lineno, 0,
                    "pragma names no rules: use allow[RULE] (or "
                    "allow[RULE1,RULE2]) with an explicit rule id",
                )
            )
            continue
        unknown = sorted(r for r in ids if r not in CATALOG)
        if unknown:
            pragmas.malformed.append(
                Finding(
                    "R002", path, lineno, 0,
                    f"pragma names unknown rule(s) {', '.join(unknown)}; "
                    f"known rules: {', '.join(sorted(CATALOG))}",
                )
            )
            continue
        if not match.group("reason").strip():
            pragmas.malformed.append(
                Finding(
                    "R002", path, lineno, 0,
                    "pragma has no reason: every allow[] must say why "
                    "the finding is intentional",
                )
            )
            continue
        if match.group("kind") == "allow-file":
            pragmas.file_rules.update(ids)
        else:
            pragmas.line_rules.setdefault(lineno, set()).update(ids)
    return pragmas


@dataclass
class ModuleContext:
    """Everything a rule pack may look at for one file."""

    path: str
    source: str
    tree: ast.Module
    pragmas: Pragmas


def dotted_name(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``, or None for non-name chains
    (calls, subscripts, literals as the base)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths``, sorted, hidden/`__pycache__`
    directories skipped. Missing paths are configuration errors."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d
                    for d in dirs
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        elif os.path.exists(path):
            yield path
        else:
            raise ConfigurationError(f"lint path {path!r} does not exist")


def lint_file(path: str) -> List[Finding]:
    """Every finding in one file (pragma suppression already applied)."""
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return [Finding("R001", path, 1, 0, f"cannot read file: {exc}")]
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                "R001", path, exc.lineno or 1, max((exc.offset or 1) - 1, 0),
                f"syntax error: {exc.msg}",
            )
        ]
    pragmas = scan_pragmas(source, path)
    ctx = ModuleContext(path=path, source=source, tree=tree, pragmas=pragmas)
    findings = list(pragmas.malformed)
    for check in CHECKS:
        for finding in check(ctx):
            if finding.rule not in CATALOG:  # a rule-pack bug, not user error
                raise AssertionError(
                    f"checker emitted unknown rule id {finding.rule!r}"
                )
            if not pragmas.suppresses(finding):
                findings.append(finding)
    return findings


def _parse_rule_list(text: Optional[str]) -> List[str]:
    if not text:
        return []
    prefixes = [part.strip() for part in text.split(",") if part.strip()]
    for prefix in prefixes:
        if not any(rule_id.startswith(prefix) for rule_id in CATALOG):
            raise ConfigurationError(
                f"unknown rule selector {prefix!r}; known rules: "
                + ", ".join(sorted(CATALOG))
            )
    return prefixes


def _matches(rule_id: str, prefixes: List[str]) -> bool:
    return any(rule_id.startswith(prefix) for prefix in prefixes)


def lint_paths(
    paths: Sequence[str],
    select: Optional[str] = None,
    ignore: Optional[str] = None,
) -> List[Finding]:
    """Lint files/directories; returns sorted findings.

    ``select``/``ignore`` take comma-separated rule ids or prefixes
    (``R2`` selects every R2xx rule); ``select`` narrows to matching
    rules, then ``ignore`` drops matches. Unknown selectors raise
    :class:`~repro.util.errors.ConfigurationError`.
    """
    selected = _parse_rule_list(select)
    ignored = _parse_rule_list(ignore)
    findings: List[Finding] = []
    seen: Set[str] = set()
    for path in iter_python_files(paths):
        norm = os.path.normpath(path)
        if norm in seen:
            continue
        seen.add(norm)
        for finding in lint_file(path):
            if selected and not _matches(finding.rule, selected):
                continue
            if ignored and _matches(finding.rule, ignored):
                continue
            findings.append(finding)
    return sorted(findings, key=Finding.sort_key)


def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: RULE message`` line per finding."""
    return "".join(finding.render() + "\n" for finding in findings)


def render_json(findings: Sequence[Finding]) -> str:
    """The stable JSON document CI pins: ``{"findings": [...]}``."""
    return (
        json.dumps(
            {"findings": [finding.to_dict() for finding in findings]},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
