"""The trailint static-analysis pass: rules and suppressions.

Each known-bad fixture under ``fixtures/bad`` must trip exactly the
rule its filename names; the ``fixtures/good`` near-misses must stay
clean.  Fixtures run through ``python -m tools.analysis``'s own path
(:func:`tools.analysis.fixtures.analyze_fixture`); the real trees must
be clean.
"""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.analysis.fixtures import (  # noqa: E402
    analyze_fixture, repo_sweep, run_cli)
from tools.trailint import REGISTRY  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
BAD_FIXTURES = sorted((FIXTURES / "bad").glob("*.py"))
GOOD_FIXTURES = sorted((FIXTURES / "good").glob("*.py"))

ALL_CODES = {"TRL004", "TRL008", "TRL009"}


def lint_one(path: Path):
    run = analyze_fixture("trailint", str(path), root=str(REPO))
    assert run.files_checked == 1
    return run.findings


def test_rule_registry_is_complete():
    assert {rule.code for rule in REGISTRY.all_rules()} == ALL_CODES


@pytest.mark.parametrize(
    "fixture", BAD_FIXTURES, ids=[p.stem for p in BAD_FIXTURES])
def test_bad_fixture_trips_exactly_its_rule(fixture):
    expected = fixture.stem.split("_")[0].upper()
    findings = lint_one(fixture)
    codes = {finding.code for finding in findings}
    assert codes == {expected}, (
        f"{fixture.name}: expected only {expected}, got "
        f"{[f.render() for f in findings]}")


@pytest.mark.parametrize(
    "fixture", GOOD_FIXTURES, ids=[p.stem for p in GOOD_FIXTURES])
def test_good_fixture_is_clean(fixture):
    findings = lint_one(fixture)
    assert findings == [], [f.render() for f in findings]


def test_fixture_directory_is_excluded_from_walks():
    # A directory walk over tests/lint must skip the deliberately bad
    # fixtures; only this test package's own files get linted.
    run = analyze_fixture("trailint", str(Path(__file__).parent),
                          root=str(REPO))
    assert run.findings == [], [f.render() for f in run.findings]
    assert run.files_checked == 3  # __init__, test_trailint, typing sweep


def test_repo_tree_is_lint_clean():
    run = repo_sweep(str(REPO)).tool("trailint")
    assert run.findings == [], [f.render() for f in run.findings]
    assert run.suppressed == 0
    assert run.files_checked > 150


def test_cli_exit_codes():
    assert run_cli(str(REPO), "tests/lint")[0] == 0
    for fixture in BAD_FIXTURES:
        code, out = run_cli(str(REPO), str(fixture.relative_to(REPO)))
        assert code == 1, f"{fixture.name}: {out}"
    assert run_cli(str(REPO), "no/such/path")[0] == 2


def test_cli_json_output_shape():
    fixture = FIXTURES / "bad" / "trl004_broad_except.py"
    code, out = run_cli(str(REPO), "--json", str(fixture.relative_to(REPO)))
    assert code == 1
    row = json.loads(out)["tools"]["trailint"]
    assert row["files_checked"] == 1
    assert [f["code"] for f in row["findings"]] == ["TRL004"] * 2
    for finding in row["findings"]:
        assert set(finding) == {"path", "line", "col", "code", "message"}


def test_suppression_hygiene_messages():
    findings = lint_one(FIXTURES / "bad" / "trl009_suppressions.py")
    by_line = sorted(findings, key=lambda f: f.line)
    assert [(f.code, f.line) for f in by_line] == [
        ("TRL009", 3), ("TRL009", 4), ("TRL009", 10)]
    assert "unused suppression: TRL004" in by_line[0].message
    assert "names unknown rule code TRL099" in by_line[1].message
    assert "has no reason" in by_line[2].message
