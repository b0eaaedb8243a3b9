"""The trailiso isolation pass: rules and suppressions.

Each known-bad fixture under ``fixtures/bad`` declares its seeded
violations with ``# expect: TISnnn`` markers and must report exactly
those (same codes, same lines, nothing extra); the ``fixtures/good``
near-misses must stay clean, and the real trees must be clean with no
suppression at all.
"""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.analysis.fixtures import (  # noqa: E402
    analyze_fixture, expected_findings, found_pairs, repo_sweep, run_cli)
from tools.trailiso import REGISTRY  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
BAD_FIXTURES = sorted((FIXTURES / "bad").glob("*.py"))
GOOD_FIXTURES = sorted((FIXTURES / "good").glob("*.py"))
#: Bad fixtures carrying inline ``# expect:`` markers.  The TIS000
#: fixture cannot: an expect marker appended to a suppression comment
#: would change the comment text the grammar parses, so its
#: expectations live in a dedicated test below.
MARKED_FIXTURES = [path for path in BAD_FIXTURES
                   if not path.stem.startswith("tis000")]

ALL_CODES = {"TIS001", "TIS004"}


def analyze_one(path):
    return analyze_fixture("trailiso", str(path), root=str(REPO))


def test_rule_registry_is_complete():
    assert {rule.code for rule in REGISTRY.all_rules()} == ALL_CODES


def test_fixtures_seed_at_least_ten_violations():
    total = sum(len(expected_findings(str(path)))
                for path in MARKED_FIXTURES)
    assert total >= 10


@pytest.mark.parametrize(
    "fixture", MARKED_FIXTURES, ids=[p.stem for p in MARKED_FIXTURES])
def test_bad_fixture_reports_exactly_the_seeded_violations(fixture):
    expected = expected_findings(str(fixture))
    assert expected, f"{fixture.name} declares no # expect: markers"
    findings = analyze_one(fixture).findings
    assert found_pairs(findings) == expected, (
        f"{fixture.name}: expected {sorted(expected)}, got "
        f"{[f.render() for f in findings]}")
    own_code = fixture.stem.split("_")[0].upper()
    assert {code for code, _ in expected} == {own_code}


@pytest.mark.parametrize(
    "fixture", GOOD_FIXTURES, ids=[p.stem for p in GOOD_FIXTURES])
def test_good_fixture_is_clean(fixture):
    findings = analyze_one(fixture).findings
    assert findings == [], [f.render() for f in findings]


def test_fixture_directory_is_excluded_from_walks():
    # A directory walk over tests/iso must skip the deliberately
    # leaky fixtures; only this test package's own files get analyzed.
    run = analyze_one(Path(__file__).parent)
    assert run.findings == [], [f.render() for f in run.findings]
    assert run.files_checked == 2  # __init__, test_trailiso


def test_src_and_tools_sweep_clean_without_suppressions():
    # The acceptance bar for `make analyzers`: zero unsuppressed
    # findings over the real trees — and zero suppressions, full stop.
    run = repo_sweep(str(REPO)).tool("trailiso")
    assert run.findings == [], [f.render() for f in run.findings]
    assert run.suppressed == 0
    assert run.files_checked > 60


def test_cli_exit_codes():
    assert run_cli(str(REPO), "tests/iso")[0] == 0
    for fixture in BAD_FIXTURES:
        code, out = run_cli(str(REPO), str(fixture.relative_to(REPO)))
        assert code == 1, f"{fixture.name}: {out}"
    assert run_cli(str(REPO), "no/such/path")[0] == 2


def test_cli_json_output_schema():
    fixture = FIXTURES / "bad" / "tis001_module_mutables.py"
    code, out = run_cli(str(REPO), "--json", str(fixture.relative_to(REPO)))
    assert code == 1
    row = json.loads(out)["tools"]["trailiso"]
    assert set(row) == {"files_checked", "findings", "suppressed"}
    assert row["files_checked"] == 1
    assert row["suppressed"] == 0
    assert [f["code"] for f in row["findings"]] == ["TIS001"] * 7
    for finding in row["findings"]:
        assert set(finding) == {"path", "line", "col", "code", "message"}


def test_justified_suppression_counts_as_used():
    report = analyze_one(FIXTURES / "good" / "suppressed.py")
    assert report.findings == []
    assert report.suppressed == 1


def test_suppression_hygiene_messages():
    fixture = FIXTURES / "bad" / "tis000_suppressions.py"
    findings = analyze_one(fixture).findings
    assert [f.code for f in findings] == ["TIS000"] * 3
    by_line = sorted(findings, key=lambda f: f.line)
    assert "has no reason" in by_line[0].message
    assert "unused suppression: TIS001" in by_line[1].message
    assert "unknown rule code TIS999" in by_line[2].message


def test_sanitizer_perimeter_is_exempt_from_tis004():
    # The one sanctioned os.environ perimeter, analyzed explicitly:
    # rule-level exemption must hold even for explicit file arguments.
    findings = analyze_one(
        REPO / "src" / "repro" / "sim" / "sanitizer.py").findings
    assert findings == [], [f.render() for f in findings]
