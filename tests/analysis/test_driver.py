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

ALL_TOOLS = ["trailint", "trailsan", "trailunits", "trailiso"]


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
        assert all(run.seconds >= 0 for run in report.runs)

    def test_each_tool_sees_only_its_path_scope(self, tree):
        report = run_all(root=str(tree))
        checked = {run.name: run.files_checked for run in report.runs}
        # trailint covers src+tests+tools; trailsan/trailunits/trailiso
        # skip tests/.
        assert checked["trailint"] == 3
        assert checked["trailsan"] == 2
        assert checked["trailunits"] == 2
        assert checked["trailiso"] == 2

    def test_findings_carry_the_owning_tool(self, tree):
        (tree / "src/repro/noisy.py").write_text(LINT_DIRTY,
                                                 encoding="utf-8")
        report = run_all(root=str(tree))
        by_tool = {run.name: [f.code for f in run.findings]
                   for run in report.runs}
        assert by_tool["trailint"] == ["TRL004"]
        assert not by_tool["trailsan"]

    def test_trailiso_findings_reach_the_aggregate(self, tree):
        """An isolation finding appears under trailiso and nowhere else."""
        (tree / "src/repro/shared.py").write_text(ISO_DIRTY,
                                                  encoding="utf-8")
        report = run_all(root=str(tree))
        by_tool = {run.name: [f.code for f in run.findings]
                   for run in report.runs}
        assert by_tool["trailiso"] == ["TIS001"]
        for other in ("trailint", "trailsan", "trailunits"):
            assert not any(code.startswith("TIS")
                           for code in by_tool[other])
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
        assert "TRL000" in codes["trailint"]
        assert "TSN000" in codes["trailsan"]
        assert "TUN000" in codes["trailunits"]
        assert "TIS000" in codes["trailiso"]

    def test_crashing_tool_fails_loudly(self, tree, monkeypatch):
        """A tool that raises mid-run must not report a false clean.

        The driver deliberately has no catch-all around a tool's
        check: a crashed analyzer propagates out of ``run_all`` so CI
        fails red instead of green-with-a-missing-tool.
        """
        from tools.trailunits import SPEC

        def boom(files):
            raise RuntimeError("rule crashed mid-run")

        monkeypatch.setattr(SPEC, "prepare", boom)
        with pytest.raises(RuntimeError, match="rule crashed mid-run"):
            run_all(root=str(tree))

    def test_explicit_paths_override_every_scope(self, tree):
        report = run_all(root=str(tree), paths=["tests"])
        assert all(run.files_checked == 1 for run in report.runs)


#: ``service_time`` with and without a ``# unit:`` lookalike in a
#: string default.  Only a comment token declares dimensions: read as
#: one, the lookalike would declare both times and hide the TUN008.
SIGNATURE = ("def service_time(delay_ms: float, settle_us: float{tag})"
             " -> float:\n"
             "    return delay_ms\n")
UNIT_LOOKALIKE = ', tag: str = "# unit: (delay_ms: ms, settle_us: us) -> ms"'

#: One lookalike per grammar, each inside a string literal.  Read as
#: comments they would suppress the TRL004 and the TIS001, invent a
#: TSN003 (``head`` and ``count`` grouped, written on either side of a
#: yield) and unused-suppression hygiene findings.
LOOKALIKES = textwrap.dedent("""\
    _CACHE = {"note": "# trailiso: disable=TIS001 -- a string, not a comment"}
    LABEL = "# trailsan: disable=TSN003 -- a string, not a comment"
    UNIT = "# trailunits: disable=TUN004 -- a string, not a comment"

    def report(action):
        try:
            return action()
        except Exception: return "# trailint: disable=TRL004 -- a string"

    class Counter:
        def __init__(self, sim):
            self.sim = sim
            self.head = len("# trailsan: atomic_group(pair)")
            self.count = len("# trailsan: atomic_group(pair)")

        def tick(self):
            self.head += 1
            yield self.sim.timeout(0)
            self.count += 1
""")


def _findings(report):
    return {run.name: [(f.code, f.line) for f in run.findings]
            for run in report.runs}


class TestSharedComments:
    """Every pass reads one tokenize pass's comments, nothing else."""

    def test_unit_lookalike_in_a_string_declares_nothing(self, tree):
        path = tree / "src/repro/core/timing.py"
        path.parent.mkdir(parents=True)
        path.write_text(SIGNATURE.format(tag=""), encoding="utf-8")
        plain = _findings(run_all(root=str(tree)))
        path.write_text(SIGNATURE.format(tag=UNIT_LOOKALIKE),
                        encoding="utf-8")
        assert plain["trailunits"] == [("TUN008", 1)]
        assert _findings(run_all(root=str(tree))) == plain

    def test_lookalikes_in_strings_are_ignored_by_every_pass(self, tree):
        (tree / "src/repro/lookalikes.py").write_text(LOOKALIKES,
                                                      encoding="utf-8")
        report = run_all(root=str(tree))
        assert _findings(report) == {
            "trailint": [("TRL004", 8)], "trailsan": [],
            "trailunits": [], "trailiso": [("TIS001", 1)]}
        assert all(run.suppressed == 0 for run in report.runs)

    def test_each_file_is_tokenized_once_per_run(self, tree, monkeypatch):
        calls = []
        real = tokenize.generate_tokens
        monkeypatch.setattr(tokenize, "generate_tokens",
                            lambda readline: calls.append(1)
                            or real(readline))
        assert run_all(root=str(tree)).files_parsed == len(calls) == 3


class TestCli:
    def test_clean_exit_and_timing_report(self, tree, capsys):
        assert main(["--root", str(tree)]) == 0
        out = capsys.readouterr().out
        assert "parsed 3 files once" in out
        assert "4 tools clean" in out

    def test_findings_exit_one_with_json(self, tree, capsys):
        (tree / "src/repro/noisy.py").write_text(LINT_DIRTY,
                                                 encoding="utf-8")
        assert main(["--json", "--root", str(tree)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_parsed"] == 4
        assert set(payload["tools"]) == set(ALL_TOOLS)
        for row in payload["tools"].values():
            assert set(row) == {
                "files_checked", "findings", "suppressed", "seconds"}
        (finding,) = payload["tools"]["trailint"]["findings"]
        assert set(finding) == {"path", "line", "col", "code", "message"}
        assert (finding["code"], finding["line"]) == ("TRL004", 4)

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path)]) == 2
        assert "analyzers" in capsys.readouterr().err

    @pytest.mark.parametrize("fixture, expected", [
        ("tests/lint/fixtures/bad/trl004_broad_except.py",
         {("TRL004", 7), ("TRL004", 14)}),
        ("tests/san/fixtures/bad/tsn003_torn_group.py",
         {("TSN003", 13), ("TSN003", 18)}),
        ("tests/units/fixtures/bad/tun004_time_scale.py",
         {("TUN004", 11), ("TUN004", 15), ("TUN004", 19), ("TUN004", 27),
          ("TUN004", 31), ("TUN004", 35)}),
        ("tests/iso/fixtures/bad/tis001_module_mutables.py",
         {("TIS001", 12), ("TIS001", 14), ("TIS001", 16), ("TIS001", 18),
          ("TIS001", 20), ("TIS001", 22), ("TIS001", 24)}),
    ], ids=["trailint", "trailsan", "trailunits", "trailiso"])
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
