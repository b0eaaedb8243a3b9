"""The trailsan static pass: TSN003, atomic-group annotations and
suppressions.

Every known-bad fixture under ``fixtures/bad`` must trip exactly the
rule its filename names, at exactly the expected lines; the
``fixtures/good`` near-miss must stay clean, and the real trees must
be clean.
"""

import ast
import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.analysis.engine import read_comments  # noqa: E402
from tools.analysis.fixtures import (  # noqa: E402
    analyze_fixture, repo_sweep, run_cli)
from tools.trailsan import REGISTRY  # noqa: E402
from tools.trailsan.model import (  # noqa: E402
    build_module_model, parse_annotations)

FIXTURES = Path(__file__).parent / "fixtures"
BAD_FIXTURES = sorted((FIXTURES / "bad").glob("*.py"))
GOOD_FIXTURES = sorted((FIXTURES / "good").glob("*.py"))

ALL_CODES = {"TSN003"}

#: fixture stem -> exact (code, line) pairs it must report.  The
#: acceptance bar: each seeded violation is caught with the correct
#: code *and* location, not merely "some finding somewhere".
EXPECTED = {
    "tsn000_suppressions": {("TSN000", 3), ("TSN000", 4), ("TSN000", 16)},
    "tsn003_torn_group": {("TSN003", 13), ("TSN003", 18)},
    "tsn003_torn_paths": {("TSN003", 12), ("TSN003", 23), ("TSN003", 28)},
}


def analyze_one(path: Path, root: Path = REPO):
    run = analyze_fixture("trailsan", str(path), root=str(root))
    assert run.files_checked == 1
    return run.findings


def test_rule_registry_is_complete():
    assert {rule.code for rule in REGISTRY.all_rules()} == ALL_CODES


def test_fixture_set_seeds_enough_violations():
    assert sum(len(pairs) for pairs in EXPECTED.values()) >= 8
    seeded_codes = {code for pairs in EXPECTED.values()
                    for code, _line in pairs}
    assert seeded_codes >= ALL_CODES


@pytest.mark.parametrize(
    "fixture", BAD_FIXTURES, ids=[p.stem for p in BAD_FIXTURES])
def test_bad_fixture_reports_exact_codes_and_lines(fixture):
    findings = analyze_one(fixture)
    got = {(f.code, f.line) for f in findings}
    assert got == EXPECTED[fixture.stem], (
        f"{fixture.name}: expected {sorted(EXPECTED[fixture.stem])}, "
        f"got {[f.render() for f in findings]}")


def test_every_expected_fixture_is_committed():
    assert {p.stem for p in BAD_FIXTURES} == set(EXPECTED)


@pytest.mark.parametrize(
    "fixture", GOOD_FIXTURES, ids=[p.stem for p in GOOD_FIXTURES])
def test_good_fixture_is_clean(fixture):
    findings = analyze_one(fixture)
    assert findings == [], [f.render() for f in findings]


def test_fixture_directory_is_excluded_from_walks():
    run = analyze_fixture("trailsan", str(Path(__file__).parent),
                          root=str(REPO))
    assert run.findings == [], [f.render() for f in run.findings]
    assert run.files_checked == 3  # __init__, test_trailsan, test_sanitizer


def _swept_under(top: str):
    run = repo_sweep(str(REPO)).tool("trailsan")
    assert run.suppressed == 0
    return [f.render() for f in run.findings if f.path.startswith(top)]


def test_src_tree_is_trailsan_clean():
    assert _swept_under("src/") == []
    assert repo_sweep(str(REPO)).tool("trailsan").files_checked > 50


def test_tools_tree_is_trailsan_clean():
    assert _swept_under("tools/") == []


def test_cli_exit_codes():
    assert run_cli(str(REPO), "tests/san")[0] == 0
    for fixture in BAD_FIXTURES:
        code, out = run_cli(str(REPO), str(fixture.relative_to(REPO)))
        assert code == 1, f"{fixture.name}: {out}"
    assert run_cli(str(REPO), "no/such/path")[0] == 2


def test_cli_json_output_shape():
    fixture = FIXTURES / "bad" / "tsn003_torn_group.py"
    code, out = run_cli(str(REPO), "--json", str(fixture.relative_to(REPO)))
    assert code == 1
    row = json.loads(out)["tools"]["trailsan"]
    assert row["files_checked"] == 1
    assert [f["code"] for f in row["findings"]] == ["TSN003"] * 2
    for finding in row["findings"]:
        assert set(finding) == {"path", "line", "col", "code", "message"}


def test_line_suppression_hides_a_finding(tmp_path):
    fixture = FIXTURES / "bad" / "tsn003_torn_group.py"
    source = fixture.read_text()
    patched = source.replace(
        "        self.chain_len += 1\n",
        "        self.chain_len += 1"
        "  # trailsan: disable=TSN003 -- a test of the grammar\n")
    target = tmp_path / "patched.py"
    target.write_text(patched)
    findings = analyze_one(target, root=tmp_path)
    # The 'emit' tear is suppressed; the 'shrink' tear still reports.
    assert [(f.code, f.message.split("'")[1]) for f in findings] == \
        [("TSN003", "shrink")]


def test_core_annotations_are_resolved():
    """The committed ground-truth annotations parse to the intended
    groups — a typo in a trailing comment must not silently disable
    the analysis."""
    expectations = {
        "src/repro/core/driver.py":
            ("TrailDriver", "tail-chain",
             {"_live_records", "_last_record_lba"}),
        "src/repro/core/writeback.py":
            ("WritebackScheduler", "wb-counters",
             {"pages_written", "sectors_written"}),
        "src/repro/core/buffer.py":
            ("BufferManager", "pinned-accounting",
             {"_pages", "pinned_bytes"}),
        "src/repro/core/recovery.py":
            ("RecoveryManager", "scan-state",
             {"_track_cache", "_report"}),
        "src/repro/core/multilog.py":
            ("StripedTrailDriver", "stripe-set",
             {"stripes", "data_disks"}),
    }
    for relpath, (cls_name, group, members) in expectations.items():
        source = (REPO / relpath).read_text()
        model = build_module_model(ast.parse(source), read_comments(source))
        assert cls_name in model.classes, relpath
        groups = model.classes[cls_name].groups
        assert set(groups.get(group, ())) == members, (relpath, groups)


def test_annotation_grammar():
    source = textwrap.dedent("""\
        COUNT = 0  # trailsan: atomic_group(totals)
        class C:
            def __init__(self):
                self.a = 1  # trailsan: atomic_group( pair )
                self.b = 2  # trailsan: atomic_group(pair)
                self.c = {}  # trailsan: atomic_group(other.group-1)
        """)
    model = build_module_model(ast.parse(source), read_comments(source))
    assert model.classes["C"].groups == {
        "pair": ["a", "b"], "other.group-1": ["c"]}
    assert model.module_groups == {"totals": ["COUNT"]}
    annotations = parse_annotations(read_comments(source))
    assert annotations[4] == ["pair"]


def test_wrapped_assignment_annotation_attaches():
    source = textwrap.dedent("""\
        class C:
            def __init__(self):
                self.records = \\
                    {}  # trailsan: atomic_group(tail)
                self.link = 0  # trailsan: atomic_group(tail)
        """)
    model = build_module_model(ast.parse(source), read_comments(source))
    assert set(model.classes["C"].groups["tail"]) == {"records", "link"}


def test_catches_the_original_tail_chain_tear(tmp_path):
    """The pre-fix ``_emit_record`` shape — record registered before
    the platter write, chain link stitched after — is exactly what
    TSN003 exists to catch (the worked example in the docs)."""
    source = textwrap.dedent("""\
        class Driver:
            def __init__(self, sim, log_drive):
                self.log_drive = log_drive
                self.live = {}  # trailsan: atomic_group(tail-chain)
                self.last_lba = -1  # trailsan: atomic_group(tail-chain)
                self.next_seq = 0

            def emit(self, lba, blob):
                seq = self.next_seq
                self.next_seq += 1
                self.live[seq] = blob
                yield self.log_drive.write(lba, blob)
                self.last_lba = lba
        """)
    target = tmp_path / "pre_fix_driver.py"
    target.write_text(source)
    findings = analyze_one(target, root=tmp_path)
    assert [f.code for f in findings] == ["TSN003"]
    assert findings[0].line == 13  # the post-yield chain-link stitch
