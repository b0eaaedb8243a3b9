"""Tests for the command-line interface."""

import json

import pytest

from repro.analysis.perf import run_scenario
from repro import errors
from repro.cli import EXIT_CODES, build_parser, main
from repro.faults import scenarios
from repro.faults.oracle import Audit, DurabilityOracle
from repro.faults.scenarios import SCENARIOS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_lists_the_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{profile,faults,raid-rebuild,mc}" in capsys.readouterr().out


class TestLibraryErrors:
    def test_every_trail_error_has_its_own_code_from_3(self):
        trail_errors = [cls for cls in vars(errors).values()
                        if isinstance(cls, type)
                        and issubclass(cls, errors.TrailError)]
        codes = [EXIT_CODES[cls] for cls in trail_errors]
        assert len(set(codes)) == len(codes)
        assert min(EXIT_CODES.values()) == 3

    @pytest.mark.parametrize("error", [
        errors.RecordChecksumError("header CRC mismatch at lba 12"),
        errors.NotATrailDiskError("no signature"),
    ])
    def test_one_line_and_the_most_specific_code(self, error, monkeypatch,
                                                 capsys):
        def run(name, seed):
            raise error

        monkeypatch.setattr(scenarios, "run_fault_scenario", run)
        assert main(["faults", "latency-spikes"]) \
            == EXIT_CODES[type(error)]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: {type(error).__name__}: {error}\n"


class TestProfileCommand:
    def test_json_and_table_reports(self, capsys):
        assert main(["profile", "kernel-churn", "--scale", "0.01",
                     "--top", "3", "--json", "--alloc"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"] == "kernel-churn" and report["ops"] > 0
        assert 0 < len(report["hotspots"]) <= 3
        assert 0 < len(report["allocations"]) <= 3
        assert main(["profile", "fig3-sparse", "--scale", "0.01",
                     "--top", "2", "--sort", "tottime"]) == 0
        assert "top 2 by tottime" in capsys.readouterr().out

    def test_unknown_scenario_is_rejected(self, capsys):
        assert main(["profile", "no-such-scenario"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "unknown scenario 'no-such-scenario' (known: ")
        with pytest.raises(KeyError, match="unknown perf scenario"):
            run_scenario("no-such-scenario")


class TestFaultsCommand:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_passes_its_durability_audit(self, name,
                                                        capsys):
        assert main(["faults", name]) == 0
        out = capsys.readouterr().out
        assert "writes acknowledged" in out
        assert "0 lost and 0 invented without a report" in out

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        assert main(["faults", "no-such-scenario"]) == 2
        assert capsys.readouterr().err.startswith(
            "unknown fault scenario 'no-such-scenario' (known: ")

    def test_failed_audit_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(DurabilityOracle, "audit",
                            lambda self, read, report=None:
                            Audit(lost=[(0, 7)]))
        assert main(["faults", "latency-spikes"]) == 1
        assert "durability audit FAILED: lost [(0, 7)]" \
            in capsys.readouterr().out


class TestRaidRebuildCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["raid-rebuild"])
        assert args.seed == 0
        assert args.smoke is False
        assert args.intensities == ""

    def test_parser_options(self):
        args = build_parser().parse_args(
            ["raid-rebuild", "--seed", "9", "--smoke",
             "--intensities", "8,4"])
        assert args.seed == 9
        assert args.smoke is True
        assert args.intensities == "8,4"

    def test_bad_intensities_rejected(self, capsys):
        assert main(["raid-rebuild", "--smoke", "--intensities",
                     "fast"]) == 2
        assert capsys.readouterr().err \
            == "bad --intensities value 'fast'\n"

    def test_smoke_run(self, capsys, monkeypatch):
        from repro.raid import scenario

        arrays, results = [], []
        run = scenario.run_raid_rebuild

        class RecordedArray(scenario.Raid5Array):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                arrays.append(self)

        def recorded_run(config):
            results.append(run(config))
            return results[-1]

        monkeypatch.setattr(scenario, "Raid5Array", RecordedArray)
        monkeypatch.setattr(scenario, "run_raid_rebuild", recorded_run)
        assert main(["raid-rebuild", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "rebuild" in out
        assert "degraded" in out
        assert "fingerprint" in out
        # The reported rebuild time is the engine's span on the sim clock.
        (array,), (result,) = arrays, results
        engine = array.rebuild
        assert result.rebuild_status == engine.status == "complete"
        assert result.rebuild_ms == engine.completed_at - engine.started_at


class TestMcCommand:
    def test_list_and_small_exploration(self, capsys):
        assert main(["mc", "--list"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in listed] == [
            "crash-recovery", "writeback-faults"]
        assert main(["mc", "crash-recovery", "--budget", "3"]) == 0
        out = capsys.readouterr().out
        assert "total: 3 schedules explored" in out

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["mc", "no-such-scenario"]) == 2
        assert capsys.readouterr().err == (
            "unknown scenario(s): no-such-scenario "
            "(try: repro mc --list)\n")
