"""The AST invariant linter: rule fixtures, suppression, reports.

Every ``REPnnn`` rule is demonstrated by a fixture pair under
``tests/data/lint_fixtures/``: the ``*_bad.py`` file trips the rule, the
``*_good.py`` twin expresses the same intent cleanly.  Fixtures are
linted with *only* the rule under test active, under the module name the
rule guards (scope-sensitive rules ignore modules outside their
package).
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LINT_SCHEMA,
    NOQA_CODE,
    build_report,
    diff_findings,
    findings_from_payload,
    iter_python_files,
    lint_paths,
    lint_source,
    load_report,
    module_name_for,
    parse_module,
    parse_suppressions,
    render_report,
    rule_catalog,
    rules_by_code,
    sort_findings,
    validate_lint_payload,
    write_report,
)
from repro.errors import ValidationError

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"

#: rule code -> (fixture stem, module name the fixture is linted as,
#: expected finding count in the bad twin).
RULE_FIXTURES = {
    "REP001": ("rep001", "repro.hara.fake", 2),
    "REP002": ("rep002", "repro.sim.fake", 2),
    "REP003": ("rep003", "repro.engine.fake", 2),
    "REP004": ("rep004", "repro.model.fake", 4),
    "REP005": ("rep005", "repro.core.fake", 1),
    "REP006": ("rep006", "repro.stride.fake", 1),
    "REP007": ("rep007", "repro.sim.fake", 1),
    "REP008": ("rep008", "repro.tara.fake", 1),
    "REP009": ("rep009", "repro.engine.fake", 2),
    "REP010": ("rep010", "repro.engine.fake", 2),
    "REP011": ("rep011", "repro.service.fake", 2),
}


def lint_fixture(stem, module, code):
    source = (FIXTURES / f"{stem}.py").read_text(encoding="utf-8")
    return lint_source(
        source,
        module=module,
        path=f"{stem}.py",
        rules=rules_by_code([code]),
    )


class TestRuleFixtures:
    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_bad_fixture_trips_rule(self, code):
        stem, module, expected = RULE_FIXTURES[code]
        findings = lint_fixture(f"{stem}_bad", module, code)
        assert len(findings) == expected
        assert all(finding.code == code for finding in findings)
        assert all(finding.line > 0 for finding in findings)

    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_good_fixture_is_clean(self, code):
        stem, module, _expected = RULE_FIXTURES[code]
        assert lint_fixture(f"{stem}_good", module, code) == ()

    def test_catalog_matches_fixture_table(self):
        codes = [row["code"] for row in rule_catalog()]
        assert codes == sorted(RULE_FIXTURES)
        assert all(row["name"] and row["summary"] for row in rule_catalog())


class TestRuleScoping:
    def test_hot_path_rules_ignore_analysis_modules(self):
        source = (FIXTURES / "rep002_bad.py").read_text(encoding="utf-8")
        findings = lint_source(
            source,
            module="repro.tara.fake",
            rules=rules_by_code(["REP002", "REP003"]),
        )
        assert findings == ()

    def test_isolation_rule_allows_runtime_package(self):
        source = (FIXTURES / "rep001_bad.py").read_text(encoding="utf-8")
        findings = lint_source(
            source,
            module="repro.runtime.fake",
            rules=rules_by_code(["REP001"]),
        )
        assert findings == ()

    def test_print_rule_exempts_cli_shell(self):
        source = (FIXTURES / "rep008_bad.py").read_text(encoding="utf-8")
        findings = lint_source(
            source, module="repro.cli", rules=rules_by_code(["REP008"])
        )
        assert findings == ()

    def test_missing_dunder_all_is_a_finding(self):
        findings = lint_source(
            "def visible():\n    return 1\n",
            module="repro.model.fake",
            rules=rules_by_code(["REP006"]),
        )
        assert [f.code for f in findings] == ["REP006"]
        assert "__all__" in findings[0].message

    def test_retained_topic_rule_skips_dynamic_declarations(self):
        source = (
            "class Dyn:\n"
            "    RETAINED_TOPICS = tuple(sorted(('radio',)))\n"
            "    def verdict(self):\n"
            "        return self.bus.events('telemetry.speed')\n"
        )
        findings = lint_source(
            source, module="repro.sim.fake", rules=rules_by_code(["REP007"])
        )
        assert findings == ()

    def test_numpy_rule_flags_unguarded_kernel_import(self):
        findings = lint_source(
            "import numpy as _np\n",
            module="repro.sim.topology",
            rules=rules_by_code(["REP010"]),
        )
        assert [f.code for f in findings] == ["REP010"]

    def test_numpy_rule_flags_guarded_import_elsewhere(self):
        source = (
            "try:\n"
            "    import numpy as _np\n"
            "except ImportError:\n"
            "    _np = None\n"
        )
        findings = lint_source(
            source, module="repro.engine.fake", rules=rules_by_code(["REP010"])
        )
        assert [f.code for f in findings] == ["REP010"]


class TestSuppression:
    BAD_LINE = "def f(value, bucket=[]):  # repro: noqa{tail}\n    return bucket\n"

    def lint(self, tail):
        return lint_source(
            self.BAD_LINE.format(tail=tail),
            module="repro.model.fake",
            rules=rules_by_code(["REP004"]),
        )

    def test_justified_targeted_noqa_is_silent(self):
        assert self.lint("[REP004] -- fixture exercises sharing") == ()

    def test_justified_blanket_noqa_is_silent(self):
        assert self.lint(" -- fixture exercises sharing") == ()

    def test_reasonless_noqa_suppresses_but_surfaces_rep000(self):
        findings = self.lint("[REP004]")
        assert [f.code for f in findings] == [NOQA_CODE]
        assert "justification" in findings[0].message

    def test_noqa_for_other_code_does_not_suppress(self):
        findings = self.lint("[REP005] -- wrong code")
        assert [f.code for f in findings] == ["REP004"]

    def test_docstring_text_is_not_a_suppression(self):
        suppressions = parse_suppressions(
            '"""Docs mention # repro: noqa[REP004] here."""\n'
            "value = 1  # repro: noqa[REP001] -- real comment\n"
        )
        assert len(suppressions) == 1
        assert suppressions[0].line == 2
        assert suppressions[0].codes == ("REP001",)
        assert suppressions[0].reason == "real comment"


class TestEngine:
    def test_module_name_for_resolves_package_layout(self, tmp_path):
        package = tmp_path / "pkg" / "sub"
        package.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "mod.py").write_text("")
        assert module_name_for(package / "mod.py") == "pkg.sub.mod"
        assert module_name_for(package / "__init__.py") == "pkg.sub"

    def test_parse_module_rejects_invalid_syntax(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        with pytest.raises(ValidationError, match="invalid syntax"):
            parse_module(path)

    def test_iter_python_files_rejects_missing_paths(self):
        with pytest.raises(ValidationError, match="no such file"):
            list(iter_python_files(["definitely/not/here"]))

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "a.py").write_text("def f(x=[]):\n    return x\n")
        (tmp_path / "b.py").write_text("VALUE = 1\n")
        findings, checked = lint_paths(
            [tmp_path], rules=rules_by_code(["REP004"]), root=tmp_path
        )
        assert checked == 2
        assert [f.code for f in findings] == ["REP004"]
        assert findings[0].path == "a.py"

    def test_unknown_rule_code_fails_loudly(self):
        with pytest.raises(ValidationError, match="REP999"):
            rules_by_code(["REP999"])

    def test_repro_package_is_clean(self):
        src = Path(__file__).parent.parent / "src" / "repro"
        findings, checked = lint_paths([src], root=src.parent.parent)
        assert checked > 100
        assert findings == ()


class TestReports:
    def findings(self):
        return (
            Finding(
                code="REP004",
                message="mutable default argument in f()",
                path="src/repro/x.py",
                line=3,
                symbol="f",
            ),
            Finding(code="SPC001", message="duplicate id", path="registry"),
        )

    def test_payload_round_trip(self):
        report = build_report(
            self.findings(), checked_files=2, rules=rule_catalog()
        )
        assert report["schema"] == LINT_SCHEMA
        assert report["total"] == 2
        assert report["counts"] == {"REP004": 1, "SPC001": 1}
        restored = findings_from_payload(
            json.loads(json.dumps(report))
        )
        assert restored == sort_findings(self.findings())

    def test_write_and_load_report(self, tmp_path):
        report = build_report(self.findings(), checked_files=2)
        path = write_report(report, tmp_path / "out")
        assert path.name == "LINT.json"
        assert load_report(path) == sort_findings(self.findings())

    def test_validate_rejects_schema_drift(self):
        report = build_report(self.findings(), checked_files=2)
        report["schema"] = "repro.lint/v99"
        with pytest.raises(ValidationError, match="schema mismatch"):
            validate_lint_payload(report)
        report = build_report(self.findings(), checked_files=2)
        report["total"] = 7
        with pytest.raises(ValidationError, match="does not match"):
            validate_lint_payload(report)

    def test_diff_keys_ignore_line_drift(self):
        baseline = self.findings()
        moved = tuple(
            Finding(
                code=f.code,
                message=f.message,
                path=f.path,
                line=f.line + 40,
                symbol=f.symbol,
            )
            for f in baseline
        )
        assert diff_findings(moved, baseline) == ()
        fresh = moved + (
            Finding(code="REP005", message="bare except", path="src/y.py"),
        )
        assert [f.code for f in diff_findings(fresh, baseline)] == ["REP005"]

    def test_render_report_mentions_totals(self):
        clean = render_report(build_report((), checked_files=5))
        assert "clean: 0 findings" in clean
        dirty = render_report(
            build_report(self.findings(), checked_files=5)
        )
        assert "2 finding(s)" in dirty
        assert "src/repro/x.py:3" in dirty

    def test_finding_validation(self):
        with pytest.raises(ValidationError, match="rule code"):
            Finding(code="", message="m", path="p")
        with pytest.raises(ValidationError, match="severity"):
            Finding(code="REP001", message="m", path="p", severity="fatal")
