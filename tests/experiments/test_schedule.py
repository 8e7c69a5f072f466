"""Suite-wide cell scheduler: enumeration, ordering, drains."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.api import MobiusConfig
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import ExperimentCell, run_cell
from repro.experiments.schedule import (
    build_schedule,
    cell_result_fingerprint,
    drain,
    enumerate_cells,
    figure_cells,
    run_cells,
)
from repro.hardware.topology import commodity_server
from repro.perf.cache import cache_overridden, get_cache
from repro.perf.fingerprint import fingerprint

#: Modules cheap enough to actually drain inside a unit test.
CHEAP = ["fig2_deepspeed_cdf", "sec23_deepspeed_profile", "fig12_overhead"]


class TestEnumeration:
    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_every_module_enumerates(self, name):
        """The tripwire: cells() exists, returns cells, and fast ⊆ full."""
        fast = figure_cells(name, fast=True)
        full = figure_cells(name, fast=False)
        assert all(isinstance(cell, ExperimentCell) for cell in fast + full)
        fast_keys = {fingerprint(cell) for cell in fast}
        full_keys = {fingerprint(cell) for cell in full}
        assert fast_keys <= full_keys, f"{name}: fast cells not a subset of full"

    def test_suite_wide_dedup_exists(self):
        """Figures genuinely share cells (fig2/sec23, fig10/fig11, fig7⊇fig8)."""
        schedule = build_schedule(enumerate_cells(ALL_EXPERIMENTS, fast=False))
        assert schedule.cells_deduped > 0
        shared = [node for node in schedule.nodes if len(node.figures) > 1]
        assert shared, "no cell is claimed by more than one figure"

    def test_graph_is_acyclic_and_rank_ordered(self):
        schedule = build_schedule(enumerate_cells(ALL_EXPERIMENTS, fast=False))
        # Every edge joins two cells of one partition solve, so both share
        # a stage rank — and Kahn's algorithm must consume every node.
        indegree = {node.index: len(node.deps) for node in schedule.nodes}
        frontier = [i for i, d in indegree.items() if d == 0]
        seen = 0
        while frontier:
            index = frontier.pop()
            seen += 1
            for dependent in schedule.nodes[index].dependents:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    frontier.append(dependent)
        assert seen == len(schedule.nodes), "cycle in the schedule graph"
        for node in schedule.nodes:
            for dep in node.deps:
                assert (
                    schedule.nodes[dep].cell.topology.n_gpus
                    == node.cell.topology.n_gpus
                )

    def test_sweep_cells_are_independent(self):
        """fig14's GPU-count sweep cells are distinct solves: no ordering."""
        schedule = build_schedule(enumerate_cells(["fig14_scalability"], fast=False))
        ranks = sorted({node.cell.topology.n_gpus for node in schedule.nodes})
        assert len(ranks) >= 3
        assert schedule.ordering_edges == 0
        assert all(not node.deps for node in schedule.nodes)


class TestDrain:
    def test_jobs_identity_and_counter_pin(self, tmp_path):
        """jobs=1 and jobs=2 drains: same fingerprint, same total misses."""
        reports = {}
        for jobs in (1, 2):
            with cache_overridden(
                memory=True, disk=True, directory=str(tmp_path / f"j{jobs}")
            ):
                reports[jobs] = run_cells(CHEAP, fast=True, jobs=jobs)
        solo, pool = reports[1], reports[2]
        assert solo.cells_fingerprint == pool.cells_fingerprint
        assert solo.cells_unique == pool.cells_unique
        assert solo.duplicate_solves == pool.duplicate_solves == 0
        # The satellite pin: total "system" misses across all processes is
        # exactly the unique-cell count, independent of the worker count.
        for report in (solo, pool):
            assert (
                report.worker_cache["system"]["misses"] == report.cells_unique
            ), report
        # fig2 and sec23 share their cell; fig12 contributes plan-only cells.
        assert pool.cells_deduped >= 1
        assert pool.cells_computed == pool.cells_unique

    def test_second_drain_is_fully_precached(self, tmp_path):
        with cache_overridden(memory=True, disk=True, directory=str(tmp_path)):
            first = run_cells(CHEAP, fast=True, jobs=1)
            again = run_cells(CHEAP, fast=True, jobs=1)
        assert again.cells_precached == first.cells_unique
        assert again.cells_computed == 0
        assert again.cells_fingerprint == first.cells_fingerprint

    def test_plan_only_cells_have_plans_not_traces(self, tmp_path):
        with cache_overridden(memory=True, disk=True, directory=str(tmp_path)):
            run_cells(["fig12_overhead"], fast=True, jobs=1)
            cache = get_cache()
            for cell in figure_cells("fig12_overhead", fast=True):
                result, found = cache.lookup("system", cell)
                assert found
                assert result.trace is None
                assert result.extras["plan_report"].plan is not None

    def test_cell_persisted_by_another_process_counts_as_shared(
        self, tiny_model, tmp_path
    ):
        """A pool worker whose run_cell hits the shared disk tier reports
        the cell as shared, not computed."""
        config = MobiusConfig(microbatch_size=1, partition_time_limit=1.0)
        leader, follower = (
            ExperimentCell(
                system="mobius",
                model=tiny_model,
                topology=commodity_server([1, 1]),
                mobius_config=dataclasses.replace(config, mapping_method=method),
            )
            for method in ("cross", "sequential")
        )
        directory = str(tmp_path)
        # "Another process" persists the follower to the shared directory.
        with cache_overridden(memory=True, disk=True, directory=directory):
            run_cell(follower)
        # The follower waits on the leader's solve, so the drain never
        # probes it and its pool worker finds it on disk.
        with cache_overridden(memory=True, disk=True, directory=directory):
            report = drain([("a", leader), ("b", follower)], jobs=2)
        assert report.ordering_edges == 1
        assert report.cells_computed == 1
        assert report.cells_shared == 1
        assert report.cells_coalesced == 0
        assert report.duplicate_solves == 0


def _sweep_cell(tiny_model, n_gpus: int) -> ExperimentCell:
    groups = [n_gpus - n_gpus // 2, n_gpus // 2]
    return ExperimentCell(
        system="mobius",
        model=tiny_model,
        topology=commodity_server(groups),
        mobius_config=MobiusConfig(microbatch_size=1, partition_time_limit=1.0),
    )


class TestCellIndependence:
    def test_earlier_drain_cannot_change_a_cell(self, tiny_model, tmp_path):
        """A cell drained after a related sweep cell equals the cell drained
        alone, down to the partition search's node count."""
        n2 = _sweep_cell(tiny_model, 2)
        n3 = _sweep_cell(tiny_model, 3)

        with cache_overridden(memory=True, disk=True, directory=str(tmp_path / "solo")):
            solo = drain([("sweep", n3)], jobs=1)
            alone = get_cache().lookup("system", n3)[0]
        with cache_overridden(memory=True, disk=True, directory=str(tmp_path / "chain")):
            drain([("sweep", n2)], jobs=1)
            chained = drain([("sweep", n3)], jobs=1)
            after = get_cache().lookup("system", n3)[0]

        alone_partition = alone.extras["plan_report"].partition_result
        after_partition = after.extras["plan_report"].partition_result
        assert not after_partition.warm_started
        assert after_partition.nodes_explored == alone_partition.nodes_explored
        assert (
            after_partition.partition.boundaries == alone_partition.partition.boundaries
        )
        assert cell_result_fingerprint(after) == cell_result_fingerprint(alone)
        assert chained.cells_fingerprint == solo.cells_fingerprint
