"""``python -m tools.lint``: the four lint rules and their one run path.

Each known-bad fixture under ``fixtures/bad`` declares its seeded
violations with ``# expect: CODE`` markers and must report exactly
those (same codes, same lines, nothing extra); the ``fixtures/good``
near-misses must stay clean, and so must the real tree.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools import lint  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
BAD_FIXTURES = sorted((FIXTURES / "bad").glob("*.py"))
GOOD_FIXTURES = sorted((FIXTURES / "good").glob("*.py"))

_EXPECT = re.compile(r"#\s*expect:\s*(?P<codes>[A-Z]{3}\d{3}"
                     r"(?:\s*,\s*[A-Z]{3}\d{3})*)")

CLEAN = "def helper(value):\n    return value + 1\n"

#: A broad ``except``: exactly one TRL004 (line 4).
BROAD_EXCEPT = ("def swallow(action):\n    try:\n        return action()\n"
                "    except Exception:\n        return None\n")


def expected_findings(path):
    """``(code, line)`` pairs declared by ``# expect:`` markers."""
    expected = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, text in enumerate(handle, start=1):
            match = _EXPECT.search(text)
            if match is not None:
                for code in match.group("codes").replace(" ", "").split(","):
                    expected.add((code, lineno))
    return expected


def pairs(findings):
    return {(finding.code, finding.line) for finding in findings}


def lint_one(path):
    findings, checked = lint.lint(str(REPO), [str(path)])
    assert checked == 1
    return findings


def run_cli(root, *args):
    """``python -m tools.lint --root root *args``: exit code and stdout."""
    result = subprocess.run(
        [sys.executable, "-m", "tools.lint", "--root", str(root), *args],
        cwd=str(REPO), capture_output=True, text=True)
    return result.returncode, result.stdout


@pytest.fixture
def tree(tmp_path):
    """A miniature repo shaped like the real scopes expect."""
    for rel in ("src/repro/clean.py", "tests/test_clean.py",
                "tools/helper.py"):
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(CLEAN, encoding="utf-8")
    return tmp_path


def test_rule_table_holds_exactly_the_four_codes():
    assert [code for code, _, _, _ in lint.RULES] == [
        "TRL004", "TRL008", "TIS001", "TIS004"]


def test_every_rule_has_a_bad_fixture():
    """Each code is seeded by a bad fixture named after it, and no bad
    fixture names a code the table lacks."""
    assert ({code for code, _, _, _ in lint.RULES}
            == {path.stem[:6].upper() for path in BAD_FIXTURES})


def test_fixtures_seed_at_least_ten_violations():
    assert sum(len(expected_findings(path)) for path in BAD_FIXTURES) >= 10


@pytest.mark.parametrize(
    "fixture", BAD_FIXTURES, ids=[p.stem for p in BAD_FIXTURES])
def test_bad_fixture_reports_its_expected_findings(fixture):
    expected = expected_findings(fixture)
    assert expected, f"{fixture.name} declares no # expect: markers"
    assert {code for code, _ in expected} == {fixture.stem[:6].upper()}
    findings = lint_one(fixture)
    assert pairs(findings) == expected, [f.render() for f in findings]


@pytest.mark.parametrize(
    "fixture", GOOD_FIXTURES, ids=[p.stem for p in GOOD_FIXTURES])
def test_good_fixture_is_clean(fixture):
    findings = lint_one(fixture)
    assert findings == [], [f.render() for f in findings]


def test_directory_walk_skips_the_fixture_trees():
    findings, checked = lint.lint(str(REPO), ["tests/lint"])
    assert findings == [], [f.render() for f in findings]
    assert checked == 3  # __init__, test_lint, test_typing_sweep


def test_walk_skips_fixtures_under_any_test_package(tree):
    leaky = tree / "tests/iso/fixtures/bad/leaky.py"
    leaky.parent.mkdir(parents=True)
    leaky.write_text(BROAD_EXCEPT, encoding="utf-8")
    (tree / "tests/iso/test_iso.py").write_text(CLEAN, encoding="utf-8")
    assert [rel for _, rel, _ in lint.walk(str(tree), ["tests"])] == [
        "tests/test_clean.py", "tests/iso/test_iso.py"]
    # Named, the same file is read, with every rule.
    findings, _ = lint.lint(str(tree), ["tests/iso/fixtures/bad/leaky.py"])
    assert pairs(findings) == {("TRL004", 4)}


@pytest.fixture(scope="module")
def repo_sweep():
    """``make analyzers``: the default walk over src and tools."""
    return lint.lint(str(REPO))


def test_repo_tree_is_clean(repo_sweep):
    findings, checked = repo_sweep
    assert findings == [], [f.render() for f in findings]
    assert checked > 60


def test_src_and_tools_sweep_reads_every_file_clean(repo_sweep):
    """The sweep is clean over every Python file of src and tools, not
    over a subset a walk happened to reach."""
    findings, checked = repo_sweep
    assert findings == [], [f.render() for f in findings]
    assert checked == sum(
        1 for top in lint.DEFAULT_PATHS for path in (REPO / top).rglob("*.py")
        if lint.SKIP_DIRS.isdisjoint(path.relative_to(REPO).parts))


def test_default_walk_reads_src_and_tools_with_rule_scopes(tree):
    assert lint.lint(str(tree)) == ([], 2)  # tests/ is not walked
    (tree / "src/repro/noisy.py").write_text(
        BROAD_EXCEPT + "_CACHE = {}\n", encoding="utf-8")
    (tree / "tools/noisy.py").write_text(BROAD_EXCEPT, encoding="utf-8")
    findings, checked = lint.lint(str(tree))
    # TRL004 is scoped to src/repro: the same handler in tools/ passes.
    assert checked == 4
    assert {(f.path, f.code, f.line) for f in findings} == {
        ("src/repro/noisy.py", "TRL004", 4),
        ("src/repro/noisy.py", "TIS001", 6)}


def test_named_path_overrides_scope(tree):
    (tree / "tests/test_clean.py").write_text(BROAD_EXCEPT,
                                              encoding="utf-8")
    assert lint.lint(str(tree)) == ([], 2)
    # A named directory is walked with rule scopes: nothing applies.
    assert lint.lint(str(tree), ["tests"]) == ([], 1)
    # A named file gets every rule.
    findings, _ = lint.lint(str(tree), ["tests/test_clean.py"])
    assert pairs(findings) == {("TRL004", 4)}


def test_sanitizer_is_exempt_from_tis004_when_named():
    findings = lint_one(REPO / "src" / "repro" / "sim" / "sanitizer.py")
    assert findings == [], [f.render() for f in findings]
    source = (REPO / "src/repro/sim/sanitizer.py").read_text("utf-8")
    assert "os.environ" in source  # the read the exemption covers


def test_parse_error_is_reported_as_trl000(tree):
    (tree / "src/repro/broken.py").write_text("def broken(:\n",
                                              encoding="utf-8")
    findings, _ = lint.lint(str(tree))
    assert [(f.path, f.line, f.col, f.code) for f in findings] == [
        ("src/repro/broken.py", 1, 12, "TRL000")]
    assert findings[0].message.startswith("syntax error: ")


def test_trl000_column_is_the_offending_token(tree):
    """``SyntaxError.offset`` is already 1-based, like every column."""
    (tree / "src/repro/broken.py").write_text("z = )\n", encoding="utf-8")
    findings, _ = lint.lint(str(tree))
    assert [f.render() for f in findings] == [
        "src/repro/broken.py:1:5: TRL000 syntax error: unmatched ')'"]


def test_a_raising_rule_propagates_out_of_the_run(tree, monkeypatch):
    """A crashed rule must not report a false clean."""
    def boom(tree):
        raise RuntimeError("rule crashed mid-run")
        yield

    monkeypatch.setattr(lint, "RULES", lint.RULES + (
        ("TIS999", boom, ("src/*",), ()),))
    with pytest.raises(RuntimeError, match="rule crashed mid-run"):
        lint.lint(str(tree))


def test_findings_exit_one(tree, capsys):
    assert lint.main(["--root", str(tree)]) == 0
    (tree / "src/repro/noisy.py").write_text(BROAD_EXCEPT,
                                             encoding="utf-8")
    assert lint.main(["--root", str(tree)]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "src/repro/noisy.py:4:5: TRL004 except Exception swallows the "
        "repro.errors taxonomy; catch the specific exceptions this code "
        "can translate, or re-raise with a bare `raise`",
        "lint: 3 files, 4 rules, 1 finding(s)"]


def test_missing_path_is_usage_error(tmp_path, capsys):
    # An empty root lacks the default src and tools.
    assert lint.main(["--root", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "lint: no such file or directory: src\n")
    assert lint.main(["--root", str(tmp_path), "no/such/path"]) == 2
    assert "no/such/path" in capsys.readouterr().err


@pytest.mark.parametrize("prefix", ["trl", "tis"])
def test_cli_exit_codes(prefix):
    """The command's exit codes over the real fixtures of one family:
    0 for the walked test package, 1 for each named bad fixture, 2 for
    a path that does not exist."""
    assert run_cli(REPO, "tests/lint")[0] == 0
    family = [path for path in BAD_FIXTURES if path.stem.startswith(prefix)]
    assert family
    for fixture in family:
        code, out = run_cli(REPO, str(fixture.relative_to(REPO)))
        assert code == 1, f"{fixture.name}: {out}"
    assert run_cli(REPO, "no/such/path")[0] == 2


@pytest.mark.parametrize("fixture", [
    "tests/lint/fixtures/bad/trl004_broad_except.py",
    "tests/lint/fixtures/bad/tis001_module_mutables.py",
], ids=["trl004", "tis001"])
def test_named_bad_fixture_through_the_command_line(fixture):
    """A named file gets every rule, even inside a fixture tree that a
    walk skips: the command exits 1 with the fixture's findings."""
    code, out = run_cli(REPO, fixture)
    assert code == 1, out
    found = {(match.group(2), int(match.group(1))) for match in
             re.finditer(r":(\d+):\d+: ([A-Z]{3}\d{3}) ", out)}
    assert found == expected_findings(REPO / fixture)
    assert out.splitlines()[-1] == (
        f"lint: 1 files, 4 rules, {len(found)} finding(s)")


def test_two_runs_print_the_same_bytes(tree):
    first = run_cli(tree)
    assert first == (0, "lint: 2 files, 4 rules, clean\n")
    assert run_cli(tree) == first
