"""Small synchronous files through a real file system layer.

The paper motivates Trail with fault-tolerant services that fsync
constantly — its related work cites Swartz's LISA '96 news-server
study ("The brave little toaster meets usenet"), the classic
small-synchronous-file workload.  This benchmark runs a
create-write-fsync loop (mail/news spool style) through the mini file
system over Trail and over the standard driver: every operation pays
data block + inode + bitmap forces, so the driver's synchronous-write
latency multiplies through the whole metadata path.
"""

from __future__ import annotations

from math import fsum

import pytest

from repro.baselines.standard import StandardDriver
from repro.core.config import TrailConfig
from repro.core.instance import TrailInstance
from repro.disk.presets import st41601n, wd_caviar_10gb
from repro.fs import FileSystem
from repro.sim import Simulation

FILES = 60
FILE_BYTES = 2048  # a small news article / mail message


def run_spool(kind: str):
    sim = Simulation()
    data_drive = wd_caviar_10gb().make_drive(sim, "data0")
    if kind == "trail":
        log_drive = st41601n().make_drive(sim, "log")
        device = TrailInstance(
            sim, log_drive, {0: data_drive}, TrailConfig()).driver
    else:
        device = StandardDriver(sim, {0: data_drive})
    fs = sim.run_until(sim.process(
        FileSystem.mkfs(sim, device, total_blocks=256)))

    def spool():
        per_file = []
        for index in range(FILES):
            start = sim.now
            handle = yield from fs.create(f"article.{index}")
            yield from fs.write(handle, 0,
                                bytes([index % 255 + 1]) * FILE_BYTES,
                                sync=True)
            per_file.append(sim.now - start)
            if index % 3 == 0:
                yield from fs.unlink(f"article.{index}")  # expire
        return per_file

    per_file = sim.run_until(sim.process(spool()))
    assert fs.check() == []
    return fsum(per_file) / len(per_file)


@pytest.fixture(scope="module")
def results():
    return {kind: run_spool(kind) for kind in ("trail", "standard")}


def test_smallfile_report(results, paper_numbers):
    paper_numbers.check(
        "smallfiles",
        ["file system on", "mean create+write+fsync (ms)", "speedup (x)"],
        [["trail", results["trail"],
          results["standard"] / results["trail"]],
         ["standard", results["standard"], 1.0]],
        title=(f"news-spool workload: {FILES} x {FILE_BYTES} B "
               "synchronous files through the mini file system"))


def test_trail_materially_faster_for_small_files(results):
    """Metadata-heavy small-file fsyncs multiply the per-write win."""
    assert results["standard"] / results["trail"] > 2.0
