"""The single-pass analyzer driver behind ``make analyzers``.

The driver must be a pure re-plumbing of the standalone tools: same
path scopes, same excludes, same findings — just one parse.  These
tests pin the scoping and error-wrapping seams on a synthetic tree;
the equivalence over the real repo is CI's ``make analyzers`` run
(same ``check_file`` code path as the four individual targets).
"""

from __future__ import annotations

import json
import sys
import textwrap
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tools.analysis.driver import main, run_all  # noqa: E402
from tools.analysis.engine import run as run_standalone  # noqa: E402

CLEAN = "def helper(value):\n    return value + 1\n"

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
        (tree / "src/repro/noisy.py").write_text(
            "def report(value):\n    print(value)\n", encoding="utf-8")
        report = run_all(root=str(tree))
        by_tool = {run.name: [f.code for f in run.findings]
                   for run in report.runs}
        assert "TRL010" in by_tool["trailint"]
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

    def test_suppressions_match_the_standalone_tool(self, tree):
        """Driver suppression handling is byte-identical to standalone.

        The same suppressed finding must be hidden (and counted) by
        both the shared-parse driver and the standalone engine run.
        """
        suppressed_src = ISO_DIRTY.replace(
            "\n", "  # trailiso: disable=TIS001 -- synthetic fixture\n")
        (tree / "src/repro/shared.py").write_text(
            suppressed_src, encoding="utf-8")
        report = run_all(root=str(tree))
        driver_run = {run.name: run for run in report.runs}["trailiso"]

        from tools.trailiso.engine import SPEC
        standalone = run_standalone(SPEC, ["src", "tools"],
                                    root=str(tree))

        assert [f.code for f in driver_run.findings] \
            == [f.code for f in standalone.findings] == []
        assert driver_run.suppressed == standalone.suppressed == 1

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
        from tools.trailunits.engine import SPEC

        def boom(files):
            raise RuntimeError("rule crashed mid-run")

        monkeypatch.setattr(SPEC, "prepare", boom)
        with pytest.raises(RuntimeError, match="rule crashed mid-run"):
            run_all(root=str(tree))

    def test_explicit_paths_override_every_scope(self, tree):
        report = run_all(root=str(tree), paths=["tests"])
        assert all(run.files_checked == 1 for run in report.runs)

    def test_saved_parse_seconds_prices_the_shared_parse(self, tree):
        """The saving estimate reflects the scope overlap, never < 0."""
        report = run_all(root=str(tree))
        # Standalone the four tools would parse 3+2+2+2 = 9 files;
        # the union is 3, so 6 reparses were avoided.
        standalone = sum(run.files_checked for run in report.runs)
        assert standalone == 9
        assert report.files_parsed == 3
        assert report.saved_parse_seconds >= 0.0
        expected = (report.parse_seconds / report.files_parsed) * 6
        assert report.saved_parse_seconds == pytest.approx(expected)


#: ``service_time`` with and without a ``# unit:`` lookalike in a
#: string default.  Only a comment token declares dimensions.
SIGNATURE = ("def service_time(delay_ms: float, size: int{tag}) -> float:\n"
             "    return delay_ms + size\n")
UNIT_LOOKALIKE = ', tag: str = "# unit: (delay_ms: ms, size: bytes) -> ms"'

#: One lookalike per grammar, each inside a string literal.  Read as
#: comments they would suppress the TRL010 and the TIS001, invent a
#: TSN001 (``count`` guarded, touched across a yield without the lock)
#: and unused-suppression hygiene findings.
LOOKALIKES = textwrap.dedent("""\
    NOTE = "# trailiso: shared_immutable -- a string, not a comment"
    _CACHE = {}
    LABEL = "# trailsan: disable=TSN001 -- a string, not a comment"
    UNIT = "# trailunits: disable=TUN001 -- a string, not a comment"

    def report(value):
        print(value, "# trailint: disable=TRL010 -- a string")

    class Counter:
        def __init__(self, sim):
            self.sim = sim
            self.count = len("# trailsan: guarded_by(lock)")

        def tick(self):
            self.count += 1
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
            "trailint": [("TRL010", 7)], "trailsan": [],
            "trailunits": [], "trailiso": [("TIS001", 2)]}
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
        (tree / "src/repro/noisy.py").write_text(
            "def report(value):\n    print(value)\n", encoding="utf-8")
        assert main(["--json", "--root", str(tree)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_parsed"] == 4
        trailint = payload["tools"]["trailint"]
        assert trailint["findings"][0]["code"] == "TRL010"
        assert set(payload["tools"]) == set(ALL_TOOLS)
        assert payload["saved_parse_seconds"] >= 0.0

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path)]) == 2
        assert "analyzers" in capsys.readouterr().err
