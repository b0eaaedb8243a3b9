"""``python -m tools.analysis``: the one analyzer run path.

``make analyzers``, the fixture tests of every pass and CI all go
through :func:`run_all`.  These tests pin its scoping, excludes,
error wrapping and command line on a synthetic tree; each pass's own
suite checks its fixtures and its share of the one default-scope
sweep of the real trees.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tools.analysis.driver import main, run_all  # noqa: E402

CLEAN = "def helper(value):\n    return value + 1\n"

#: A broad ``except``: exactly one TRL004.
LINT_DIRTY = ("def swallow(action):\n    try:\n        return action()\n"
              "    except Exception:\n        return None\n")

#: A module-level mutable container: exactly one TIS001.
ISO_DIRTY = "_CACHE = {}\n"

ALL_TOOLS = ["trailint", "trailiso"]


@pytest.fixture
def tree(tmp_path):
    """A miniature repo shaped like the real scopes expect."""
    for rel, body in {
        "src/repro/clean.py": CLEAN,
        "tests/test_clean.py": CLEAN,
        "tools/helper.py": CLEAN,
    }.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(body, encoding="utf-8")
    return tmp_path


class TestRunAll:
    def test_clean_tree_is_clean_everywhere(self, tree):
        report = run_all(root=str(tree))
        assert report.findings == 0
        assert report.files_parsed == 3
        assert [run.name for run in report.runs] == ALL_TOOLS

    def test_each_tool_sees_only_its_path_scope(self, tree):
        report = run_all(root=str(tree))
        checked = {run.name: run.files_checked for run in report.runs}
        # trailint covers src+tests+tools; trailiso skips tests/.
        assert checked == {"trailint": 3, "trailiso": 2}

    def test_findings_carry_the_owning_tool(self, tree):
        (tree / "src/repro/noisy.py").write_text(LINT_DIRTY,
                                                 encoding="utf-8")
        report = run_all(root=str(tree))
        by_tool = {run.name: [f.code for f in run.findings]
                   for run in report.runs}
        assert by_tool == {"trailint": ["TRL004"], "trailiso": []}

    def test_trailiso_findings_reach_the_aggregate(self, tree):
        """An isolation finding appears under trailiso and nowhere else."""
        (tree / "src/repro/shared.py").write_text(ISO_DIRTY,
                                                  encoding="utf-8")
        report = run_all(root=str(tree))
        by_tool = {run.name: [f.code for f in run.findings]
                   for run in report.runs}
        assert by_tool == {"trailint": [], "trailiso": ["TIS001"]}
        assert report.findings == 1

    def test_suppressed_finding_is_counted_not_reported(self, tree):
        suppressed_src = ISO_DIRTY.replace(
            "\n", "  # trailiso: disable=TIS001 -- synthetic fixture\n")
        (tree / "src/repro/shared.py").write_text(
            suppressed_src, encoding="utf-8")
        trailiso = run_all(root=str(tree)).tool("trailiso")
        assert trailiso.findings == []
        assert trailiso.suppressed == 1

    def test_parse_errors_wrap_under_each_tools_code(self, tree):
        (tree / "src/repro/broken.py").write_text(
            "def broken(:\n", encoding="utf-8")
        report = run_all(root=str(tree))
        codes = {run.name: {f.code for f in run.findings}
                 for run in report.runs}
        assert codes == {"trailint": {"TRL000"}, "trailiso": {"TIS000"}}

    def test_crashing_tool_fails_loudly(self, tree, monkeypatch):
        """A tool that raises mid-run must not report a false clean.

        The driver deliberately has no catch-all around a tool's
        check: a crashed analyzer propagates out of ``run_all`` so CI
        fails red instead of green-with-a-missing-tool.
        """
        from tools.trailiso import SPEC

        def boom(parsed):
            raise RuntimeError("rule crashed mid-run")

        monkeypatch.setattr(SPEC, "make_context", boom)
        with pytest.raises(RuntimeError, match="rule crashed mid-run"):
            run_all(root=str(tree))

    def test_explicit_paths_override_every_scope(self, tree):
        report = run_all(root=str(tree), paths=["tests"])
        assert all(run.files_checked == 1 for run in report.runs)


#: A module-level mutable with and without a file-wide suppression
#: lookalike in a string on the line before it.  Only a comment token
#: suppresses: read as one, the lookalike would hide the TIS001.
MUTABLE = '{tag}_CACHE = {{}}\n'
FILE_LOOKALIKE = 'NOTE = "# trailiso: disable-file=TIS001 -- a string"\n'

#: One lookalike per pass, each inside a string literal.  Read as
#: comments they would suppress the TRL004 and the TIS001 and add an
#: unused-suppression hygiene finding.
LOOKALIKES = textwrap.dedent("""\
    _CACHE = {"note": "# trailiso: disable=TIS001 -- a string, not a comment"}
    NOTE = "# trailint: disable=TRL009 -- a string, not a comment"

    def report(action):
        try:
            return action()
        except Exception: return "# trailint: disable=TRL004 -- a string"
""")


def _findings(report):
    return {run.name: [(f.code, f.line) for f in run.findings]
            for run in report.runs}


class TestSharedComments:
    """Every pass reads one tokenize pass's comments, nothing else."""

    def test_file_suppression_lookalike_in_a_string_hides_nothing(
            self, tree):
        path = tree / "src/repro/core/cache.py"
        path.parent.mkdir(parents=True)
        path.write_text(MUTABLE.format(tag=""), encoding="utf-8")
        plain = _findings(run_all(root=str(tree)))
        assert plain["trailiso"] == [("TIS001", 1)]
        path.write_text(MUTABLE.format(tag=FILE_LOOKALIKE),
                        encoding="utf-8")
        report = run_all(root=str(tree))
        assert _findings(report) == {"trailint": [],
                                     "trailiso": [("TIS001", 2)]}
        assert report.tool("trailiso").suppressed == 0

    def test_lookalikes_in_strings_are_ignored_by_every_pass(self, tree):
        (tree / "src/repro/lookalikes.py").write_text(LOOKALIKES,
                                                      encoding="utf-8")
        report = run_all(root=str(tree))
        assert _findings(report) == {
            "trailint": [("TRL004", 7)], "trailiso": [("TIS001", 1)]}
        assert all(run.suppressed == 0 for run in report.runs)

    def test_each_file_is_tokenized_once_per_run(self, tree, monkeypatch):
        calls = []
        real = tokenize.generate_tokens
        monkeypatch.setattr(tokenize, "generate_tokens",
                            lambda readline: calls.append(1)
                            or real(readline))
        assert run_all(root=str(tree)).files_parsed == len(calls) == 3


class TestCli:
    def test_clean_exit_and_report(self, tree, capsys):
        assert main(["--root", str(tree)]) == 0
        out = capsys.readouterr().out
        assert "parsed 3 files once" in out
        assert out.splitlines()[-1] == "analyzers: 2 tools clean"
        # No wall-clock in the report: two runs print the same bytes.
        assert main(["--root", str(tree)]) == 0
        assert capsys.readouterr().out == out

    def test_findings_exit_one_with_json(self, tree, capsys):
        (tree / "src/repro/noisy.py").write_text(LINT_DIRTY,
                                                 encoding="utf-8")
        assert main(["--json", "--root", str(tree)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_parsed"] == 4
        assert set(payload["tools"]) == set(ALL_TOOLS)
        for row in payload["tools"].values():
            assert set(row) == {"files_checked", "findings", "suppressed"}
        (finding,) = payload["tools"]["trailint"]["findings"]
        assert set(finding) == {"path", "line", "col", "code", "message"}
        assert (finding["code"], finding["line"]) == ("TRL004", 4)

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path)]) == 2
        assert "analyzers" in capsys.readouterr().err

    @pytest.mark.parametrize("fixture, expected", [
        ("tests/lint/fixtures/bad/trl004_broad_except.py",
         {("TRL004", 7), ("TRL004", 14)}),
        ("tests/iso/fixtures/bad/tis001_module_mutables.py",
         {("TIS001", 12), ("TIS001", 14), ("TIS001", 16), ("TIS001", 18),
          ("TIS001", 20), ("TIS001", 22), ("TIS001", 24)}),
    ], ids=["trailint", "trailiso"])
    def test_named_bad_fixture_reports_its_codes(self, fixture, expected):
        """A named file gets every rule, even inside a fixture tree that
        a walk skips: the command exits 1 with the fixture's codes."""
        result = subprocess.run(
            [sys.executable, "-m", "tools.analysis", "--json", fixture],
            cwd=str(ROOT), capture_output=True, text=True)
        assert result.returncode == 1, result.stdout + result.stderr
        findings = [finding
                    for row in json.loads(result.stdout)["tools"].values()
                    for finding in row["findings"]]
        prefix = Path(fixture).stem[:3].upper()
        assert {(f["code"], f["line"]) for f in findings
                if f["code"].startswith(prefix)} == expected
