"""The drain is the only cell pool: OOM passthrough, parent adoption, and
uncached figure runs that start no pool at all."""

import io
import math

import pytest

from repro.experiments.runner import ExperimentCell
from repro.experiments.schedule import drain
from repro.experiments.suite import run_suite
from repro.hardware.topology import topo_2_2
from repro.models.zoo import gpt_8b
from repro.perf.cache import cache_overridden


def _comparable(result):
    """The deterministic face of a SystemResult (drops wall-clock extras)."""
    return (
        result.system,
        result.status,
        result.step_seconds if not math.isnan(result.step_seconds) else "nan",
        tuple(result.trace.compute) if result.trace is not None else None,
        tuple(result.trace.transfers) if result.trace is not None else None,
    )


@pytest.fixture
def cells(tiny_model):
    topology = topo_2_2()
    return [
        ExperimentCell("mobius", tiny_model, topology, microbatch_size=1),
        ExperimentCell("gpipe", gpt_8b(), topology, microbatch_size=1),  # OOM
        ExperimentCell("gpipe", tiny_model, topology, microbatch_size=1),
        ExperimentCell("deepspeed", tiny_model, topology, microbatch_size=1),
    ]


class TestRunSystemsParallel:
    """Cells run in parallel by a jobs=2 drain over a memory-only cache: the
    parent sees pool results only through adoption, never through a shared
    disk tier."""

    def test_order_and_values_match_serial(self, cells):
        with cache_overridden(memory=False, disk=False):
            serial = [cell.run() for cell in cells]
        with cache_overridden(memory=True, disk=False):
            drain([("t", cell) for cell in cells], jobs=2)
            parallel = [cell.run() for cell in cells]
        assert [_comparable(r) for r in parallel] == [_comparable(r) for r in serial]

    def test_oom_cells_pass_through(self, cells):
        with cache_overridden(memory=True, disk=False) as cache:
            report = drain([("t", cell) for cell in cells], jobs=2)
            oom, found = cache.lookup("system", cells[1])
        assert report.cells_computed == len(cells)
        assert found
        assert oom.status == "oom" and not oom.ok
        assert math.isnan(oom.step_seconds)
        assert oom.trace is None

    def test_results_seed_parent_cache(self, cells):
        with cache_overridden(memory=True, disk=False) as cache:
            drain([("t", cell) for cell in cells], jobs=2)
            cache.reset_stats()
            adopted = [cell.run() for cell in cells]
            assert cache.stats["system"].memory_hits == len(cells)
            assert cache.stats["system"].misses == 0
        assert [r.status for r in adopted] == ["ok", "oom", "ok", "ok"]


class TestNoSecondPool:
    def test_uncached_sweeps_start_no_pool(self, monkeypatch):
        """``jobs=1, use_cache=False`` is serial: Figures 14 and 16 run
        their cells in-process.  The host claims four CPUs so that a pool
        sized from the CPU count would show up on any runner."""

        def no_pool(*args, **kwargs):
            raise AssertionError("a serial uncached suite started a process pool")

        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setattr(
            "concurrent.futures.process.ProcessPoolExecutor.__init__", no_pool
        )
        report = run_suite(
            ["fig14_scalability", "fig16_dc_bandwidth"],
            fast=True,
            jobs=1,
            use_cache=False,
            stream=io.StringIO(),
        )
        assert [figure.name for figure in report.figures] == [
            "fig14_scalability",
            "fig16_dc_bandwidth",
        ]
        assert report.schedule is None
        assert "Figure 14" in report.figures[0].output
        assert "Figure 16" in report.figures[1].output
