"""Project invariant linter: conventions hold repo-wide, fixtures violate."""

import pathlib

import pytest

from repro.analysis.findings import Severity
from repro.analysis.project import lint_file, lint_paths

pytestmark = pytest.mark.analysis

REPO = pathlib.Path(__file__).resolve().parents[1]
PKG = REPO / "src" / "repro"
PROJ = REPO / "tests" / "fixtures" / "analysis" / "proj"


def proj_findings(rel: str):
    return lint_file(PROJ / rel, package_root=PROJ)


def test_real_package_has_no_lint_errors():
    paths = [p for p in PKG.rglob("*.py") if "__pycache__" not in p.parts]
    errors = [f for f in lint_paths(paths, package_root=PKG)
              if f.severity >= Severity.ERROR]
    assert not errors, "\n".join(f.format() for f in errors)


def test_metric_naming_rule():
    findings = {f.rule: f for f in proj_findings("conventions.py")}
    assert "PL-METRIC" in findings
    assert "frames_total" in findings["PL-METRIC"].message


def test_raise_taxonomy_rule():
    findings = {f.rule for f in proj_findings("conventions.py")}
    assert "PL-RAISE" in findings


def test_bare_except_is_an_error_broad_except_a_warning():
    by_rule = {}
    for f in proj_findings("conventions.py"):
        by_rule.setdefault(f.rule, []).append(f)
    assert by_rule["PL-EXCEPT"][0].severity is Severity.ERROR
    assert by_rule["PL-BROAD-EXCEPT"][0].severity is Severity.WARNING


def test_broad_except_suppression_comment_works():
    scopes = {f.scope for f in proj_findings("conventions.py")
              if f.rule == "PL-BROAD-EXCEPT"}
    assert "broad_except" in scopes
    assert "suppressed_broad_except" not in scopes


def test_atomic_write_rule():
    findings = [f for f in proj_findings("conventions.py")
                if f.rule == "PL-ATOMIC"]
    assert len(findings) == 1
    assert findings[0].scope == "non_atomic_write"
    assert "os.replace" in findings[0].message


def test_deterministic_replay_rule_fires_inside_replayed_prefixes():
    rules = [f.rule for f in proj_findings("simgpu/uses_clock.py")]
    assert rules.count("PL-TIME") == 2
    # The host code a plan is captured from by dry run is in scope too.
    rules = [f.rule for f in proj_findings("core/pipeline.py")]
    assert rules.count("PL-TIME") == 1


def test_deterministic_replay_rule_is_path_scoped():
    """The same file outside a replayed prefix is not PL-TIME's business."""
    findings = lint_file(PROJ / "simgpu" / "uses_clock.py",
                         package_root=PROJ / "simgpu")
    assert all(f.rule != "PL-TIME" for f in findings)


def test_atomic_write_helpers_are_themselves_clean():
    findings = lint_file(PKG / "util" / "io.py", package_root=PKG)
    assert all(f.rule != "PL-ATOMIC" for f in findings)
