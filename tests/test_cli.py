"""Tests for the command-line interface."""

import json

import pytest

from repro.analysis.perf import run_scenario
from repro.cli import build_parser, main
from repro.faults.oracle import Audit, DurabilityOracle
from repro.faults.scenarios import SCENARIOS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_latency_defaults(self):
        args = build_parser().parse_args(["latency"])
        assert args.size == 1024
        assert args.mode == "sparse"

    def test_tpcc_options(self):
        args = build_parser().parse_args(
            ["tpcc", "--transactions", "50", "--concurrency", "2"])
        assert args.transactions == 50
        assert args.concurrency == 2


class TestCommands:
    def test_latency_runs(self, capsys):
        assert main(["latency", "--requests", "10"]) == 0
        out = capsys.readouterr().out
        assert "trail" in out and "standard" in out and "lfs" in out

    def test_latency_clustered_multiprocess(self, capsys):
        assert main(["latency", "--requests", "5", "--mode",
                     "clustered", "--processes", "2"]) == 0
        assert "clustered" in capsys.readouterr().out

    def test_calibrate_runs(self, capsys):
        assert main(["calibrate", "--max-delta", "15"]) == 0
        out = capsys.readouterr().out
        assert "chosen delta" in out

    def test_tpcc_runs(self, capsys):
        assert main(["tpcc", "--transactions", "30"]) == 0
        out = capsys.readouterr().out
        assert "tpmC" in out
        assert "ext2+gc" in out

    def test_trace_runs(self, capsys):
        assert main(["trace", "--duration", "300", "--rate", "60",
                     "--device", "standard"]) == 0
        out = capsys.readouterr().out
        assert "trace replay" in out

    def test_unknown_device_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "--device", "floppy"])


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

    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["profile", "no-such-scenario"])
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
        with pytest.raises(SystemExit):
            main(["raid-rebuild", "--smoke", "--intensities", "fast"])

    def test_smoke_run(self, capsys):
        assert main(["raid-rebuild", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "rebuild" in out
        assert "degraded" in out
        assert "fingerprint" in out
