"""The invariant linter: pinned fixture findings, pragma discipline,
and the guarantee that the shipped tree lints clean.

The fixture expectations live in ``tests/lint_fixtures/expected.json``
— the same document CI diffs against ``python -m repro lint
tests/lint_fixtures --format json`` — so the test suite and the CI gate
can never drift apart. The pragma-removal tests rewrite *copies* of the
real allow-sites to prove each pragma is load-bearing: delete one and
the lint fails.
"""

import json
import os
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import CATALOG, lint_paths, render_json, render_text
from repro.lint.engine import lint_file, scan_pragmas
from repro.util.errors import ConfigurationError

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "lint_fixtures"
EXPECTED = json.loads((FIXTURES / "expected.json").read_text())

#: The real audited allow-sites in the shipped tree, one per rule pack
#: (plus every extra R302 witness): removing the pragma from a copy of
#: the file must resurrect the finding.
ALLOW_SITES = [
    ("src/repro/experiments/store.py", "R101"),
    ("src/repro/util/rng.py", "R102"),
    ("src/repro/experiments/store.py", "R301"),
    ("src/repro/fullinfo/scenarios.py", "R302"),
    ("src/repro/trees/scenarios.py", "R302"),
]

PRAGMA_LINE = re.compile(r"#\s*repro-lint:\s*allow\[[^\]]*\][^\n]*")


def fixture_findings():
    return lint_paths([str(FIXTURES)])


class TestPinnedFixtures:
    def test_json_output_matches_pinned_document(self, monkeypatch):
        # CI runs the linter from the repo root; the pinned document
        # records repo-relative paths, so the comparison does too.
        monkeypatch.chdir(ROOT)
        rendered = render_json(lint_paths(["tests/lint_fixtures"]))
        assert json.loads(rendered) == EXPECTED

    def test_text_output_pins_rule_file_line(self, monkeypatch):
        monkeypatch.chdir(ROOT)
        text = render_text(lint_paths(["tests/lint_fixtures"]))
        lines = text.splitlines()
        assert len(lines) == len(EXPECTED["findings"])
        for finding in EXPECTED["findings"]:
            prefix = (
                f"{finding['file']}:{finding['line']}:{finding['col']}: "
                f"{finding['rule']} "
            )
            assert any(line.startswith(prefix) for line in lines), prefix

    def test_every_rule_pack_is_demonstrated(self):
        rules = {f["rule"] for f in EXPECTED["findings"]}
        # At least one R1xx, R2xx, and R3xx finding, plus the malformed
        # pragma — the acceptance criterion's three demonstrations.
        assert any(r.startswith("R1") for r in rules)
        assert any(r.startswith("R2") for r in rules)
        assert any(r.startswith("R3") for r in rules)
        assert "R002" in rules

    def test_findings_are_sorted_and_stable(self):
        findings = fixture_findings()
        keys = [f.sort_key() for f in findings]
        assert keys == sorted(keys)
        assert [f.sort_key() for f in fixture_findings()] == keys


class TestCliGate:
    def test_shipped_tree_lints_clean(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        assert main(["lint", "src/"]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_fixture_findings_exit_one_in_both_formats(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(ROOT)
        assert main(["lint", "tests/lint_fixtures"]) == 1
        text = capsys.readouterr().out
        assert main(
            ["lint", "tests/lint_fixtures", "--format", "json"]
        ) == 1
        document = json.loads(capsys.readouterr().out)
        assert document == EXPECTED
        # Same finding set in both formats.
        assert len(text.splitlines()) == len(document["findings"])

    def test_select_narrows_and_ignore_drops(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        assert main(
            ["lint", "tests/lint_fixtures", "--select", "R2",
             "--format", "json"]
        ) == 1
        rules = {
            f["rule"]
            for f in json.loads(capsys.readouterr().out)["findings"]
        }
        assert rules == {"R201", "R202"}
        assert main(
            ["lint", "tests/lint_fixtures", "--ignore",
             "R1,R2,R3,R001,R002"]
        ) == 0

    def test_unknown_selector_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["lint", "tests/lint_fixtures", "--select", "R9"])

    def test_missing_path_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["lint", "no/such/path"])


class TestEngine:
    def test_syntax_error_is_a_single_r001(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = lint_file(str(bad))
        assert [f.rule for f in findings] == ["R001"]
        assert findings[0].line == 1

    def test_pragma_in_a_string_literal_suppresses_nothing(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            'NOTE = "# repro-lint: allow[R101] not a comment"\n'
            "t = time.time()\n"
        )
        assert [f.rule for f in lint_file(str(mod))] == ["R101"]

    @pytest.mark.parametrize(
        "pragma",
        [
            "# repro-lint: allow[R101]",  # no reason
            "# repro-lint: allow[] why",  # no rules
            "# repro-lint: allow[R999] why",  # unknown rule
        ],
    )
    def test_malformed_pragmas_are_r002_and_void(self, tmp_path, pragma):
        mod = tmp_path / "mod.py"
        mod.write_text(f"t = time.time()  {pragma}\n")
        rules = sorted(f.rule for f in lint_file(str(mod)))
        assert rules == ["R002", "R101"]

    def test_allow_file_exempts_the_whole_file(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "# repro-lint: allow-file[R101] generated fixture\n"
            "a = time.time()\n"
            "b = time.time()\n"
        )
        assert lint_file(str(mod)) == []

    def test_catalog_and_selectors_agree(self):
        for rule_id in CATALOG:
            assert lint_paths([str(FIXTURES)], select=rule_id) is not None
        with pytest.raises(ConfigurationError):
            lint_paths([str(FIXTURES)], select="bogus")


class TestRealAllowSites:
    """Each shipped pragma is load-bearing: strip it from a copy and
    the finding it was auditing comes back."""

    @pytest.mark.parametrize("rel_path,rule", ALLOW_SITES)
    def test_removing_the_pragma_fails_the_lint(
        self, tmp_path, rel_path, rule
    ):
        source = (ROOT / rel_path).read_text()
        assert PRAGMA_LINE.search(source), f"no pragma left in {rel_path}"
        copy = tmp_path / os.path.basename(rel_path)

        # With its pragmas intact the copy lints clean — same result as
        # the shipped tree.
        copy.write_text(source)
        assert lint_file(str(copy)) == []

        # Pragmas stripped (comment text only; line numbers preserved),
        # the audited finding resurfaces.
        copy.write_text(PRAGMA_LINE.sub("", source))
        resurrected = {f.rule for f in lint_file(str(copy))}
        assert rule in resurrected

    def test_shipped_pragmas_all_carry_reasons(self):
        for rel_path, _ in ALLOW_SITES:
            source = (ROOT / rel_path).read_text()
            pragmas = scan_pragmas(source, rel_path)
            assert pragmas.malformed == []
            assert pragmas.line_rules  # at least one live allow-site
