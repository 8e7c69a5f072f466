"""Tests for the MIP partition algorithm and the §4.3 baselines."""

import dataclasses
import itertools

import pytest

from repro.core.partition import (
    _ForwardStack,
    _SearchContext,
    max_stage_partition,
    min_stage_partition,
    mip_partition,
)
from repro.hardware.gpu import RTX_3090TI
from repro.models.costmodel import CostModel
from repro.models.spec import LayerKind, build_gpt_like
from repro.solver.bench import corpus_problems, paper_problems

#: Partition arguments of the paper-scale cells, by solvebench row name.
_PAPER = dict(paper_problems())

BW = 13.1e9


@pytest.fixture
def model():
    return build_gpt_like("m", n_blocks=8, hidden_dim=1024, n_heads=8)


@pytest.fixture
def cm():
    return CostModel(RTX_3090TI, 2)


class TestMipPartition:
    def test_finds_feasible_partition(self, model, cm):
        result = mip_partition(model, cm, 2, 2, BW)
        assert result.timings.feasible
        assert result.partition.n_stages >= 1
        assert result.method == "mip"

    def test_small_instance_solved_to_optimality(self, model, cm):
        result = mip_partition(model, cm, 2, 2, BW)
        assert result.optimal

    def test_beats_or_matches_baselines(self, model, cm):
        mip = mip_partition(model, cm, 2, 2, BW)
        maxs = max_stage_partition(model, cm, 2, 2, BW)
        mins = min_stage_partition(model, cm, 2, 2, BW)
        assert mip.timings.step_seconds <= maxs.timings.step_seconds + 1e-9
        assert mip.timings.step_seconds <= mins.timings.step_seconds + 1e-9

    def test_memory_constrained_search(self, model, cm):
        biggest_layer = max(
            cm.stage_cost(model, i, i + 1).mem_peak(2) for i in range(model.n_layers)
        )
        gpu_memory = int(biggest_layer * 2.5)
        result = mip_partition(model, cm, 2, 2, BW, gpu_memory=gpu_memory)
        for stage in range(result.partition.n_stages):
            start, stop = result.partition.stage_layers(stage)
            assert cm.stage_cost(model, start, stop).mem_peak(2) <= gpu_memory

    def test_impossible_memory_raises(self, model, cm):
        with pytest.raises(ValueError):
            mip_partition(model, cm, 2, 2, BW, gpu_memory=1000)

    def test_deterministic(self, model, cm):
        a = mip_partition(model, cm, 2, 2, BW)
        b = mip_partition(model, cm, 2, 2, BW)
        assert a.partition.boundaries == b.partition.boundaries

    def test_solve_time_recorded(self, model, cm):
        result = mip_partition(model, cm, 2, 2, BW)
        assert 0 < result.solve_seconds < 5.0
        assert result.nodes_explored > 0


class TestMaxStagePartition:
    def test_greedy_packs_to_memory_limit(self, model, cm):
        biggest_layer = max(
            cm.stage_cost(model, i, i + 1).mem_peak(2) for i in range(model.n_layers)
        )
        gpu_memory = int(biggest_layer * 3.2)
        result = max_stage_partition(model, cm, 2, 2, BW, gpu_memory=gpu_memory)
        # Each stage (except possibly the last) cannot absorb its successor's
        # first layer.
        partition = result.partition
        for stage in range(partition.n_stages - 1):
            start, stop = partition.stage_layers(stage)
            grown = cm.stage_cost(model, start, stop + 1)
            assert grown.mem_peak(2) > gpu_memory

    def test_single_layer_too_big_raises(self, model, cm):
        with pytest.raises(ValueError):
            max_stage_partition(model, cm, 2, 2, BW, gpu_memory=1000)

    def test_fewer_stages_than_min_stage(self, model, cm):
        maxs = max_stage_partition(model, cm, 2, 2, BW)
        mins = min_stage_partition(model, cm, 2, 2, BW)
        assert maxs.partition.n_stages <= mins.partition.n_stages


class TestMinStagePartition:
    def test_one_block_per_stage(self, model, cm):
        result = min_stage_partition(model, cm, 2, 2, BW)
        n_blocks = sum(
            1 for l in model.layers if l.kind == LayerKind.TRANSFORMER_BLOCK
        )
        # Embedding merges into the first block's stage; norm+head into the
        # last block's stage.
        assert result.partition.n_stages == n_blocks
        start0, stop0 = result.partition.stage_layers(0)
        assert model.layers[start0].kind == LayerKind.EMBEDDING

    def test_infeasible_min_stage_raises(self, model, cm):
        with pytest.raises(ValueError):
            min_stage_partition(model, cm, 2, 2, BW, gpu_memory=1000)


class TestForwardStackStepTime:
    """The incremental backward sweep must be bit-identical to the full
    pipeline evaluation it replaces on the DFS leaf path."""

    def test_matches_evaluate_pipeline_on_random_partitions(self, model, cm):
        import itertools

        from repro.core.partition import _ForwardStack, _SearchContext
        from repro.core.timing import evaluate_pipeline

        n_layers = len(model.layers)
        gpu_memory = cm.usable_gpu_bytes()
        for n_gpus in (2, 3):
            ctx = _SearchContext(model, cm, n_gpus, n_gpus, BW, gpu_memory)
            checked = 0
            for boundaries in itertools.combinations(
                range(1, n_layers), n_gpus * 2 - 1
            ):
                cuts = (0,) + boundaries + (n_layers,)
                stack = _ForwardStack(ctx)
                for start, stop in zip(cuts, cuts[1:]):
                    stack.push(start, stop)
                stage_costs = [
                    ctx.stage_cost(start, stop)
                    for start, stop in zip(cuts, cuts[1:])
                ]
                expected = evaluate_pipeline(
                    stage_costs, n_gpus, n_gpus, BW, gpu_memory
                ).step_seconds
                if expected != float("inf"):
                    assert stack.step_time() == expected
                    checked += 1
                if checked >= 40:
                    break
            assert checked > 0


class TestDeterministicBudgets:
    def test_node_budget_truncates_deterministically(self, model, cm):
        first = mip_partition(model, cm, 2, 2, BW, max_nodes=10)
        second = mip_partition(model, cm, 2, 2, BW, max_nodes=10)
        assert not first.optimal  # budget of 10 cannot finish this search
        assert first.partition.boundaries == second.partition.boundaries
        assert first.nodes_explored == second.nodes_explored == 10

    def test_result_independent_of_time_limit(self, model):
        # partition_time_limit is a solve-key slot and a modeled re-plan
        # latency; the search itself never reads it.
        from repro.core.api import MobiusConfig, plan_mobius
        from repro.hardware.topology import topo_2_2
        from repro.perf.cache import cache_overridden

        reports = []
        for limit in (1e-9, 60.0):
            with cache_overridden(memory=False, disk=False):
                reports.append(
                    plan_mobius(
                        model, topo_2_2(), MobiusConfig(partition_time_limit=limit)
                    ).partition_result
                )
        fast, slow = reports
        assert fast.optimal and slow.optimal
        assert fast.partition.boundaries == slow.partition.boundaries

    def test_result_independent_of_the_clock(self, model, cm, monkeypatch):
        # Every clock read jumps 100 s: a wall-clock cutoff anywhere in the
        # search would truncate it at once.
        import itertools
        import time

        reference = mip_partition(model, cm, 2, 2, BW)
        ticks = itertools.count(step=100.0)
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        jumped = mip_partition(model, cm, 2, 2, BW)
        assert jumped.partition.boundaries == reference.partition.boundaries
        assert jumped.nodes_explored == reference.nodes_explored
        assert jumped.optimal == reference.optimal

    def test_solve_independent_of_earlier_solves(self):
        # A fault re-plan's survivor solve, run after the pre-fault solve
        # in the same process, must explore exactly the tree it explores
        # when planned alone: no earlier solve may seed its incumbent.
        from repro.core.api import MobiusConfig, plan_mobius
        from repro.faults.replan import surviving_topology
        from repro.hardware.topology import commodity_server
        from repro.models.zoo import gpt2_small
        from repro.perf.cache import cache_overridden

        model = gpt2_small()
        topology = commodity_server([2, 2])
        survivors = surviving_topology(topology, 3)
        with cache_overridden(memory=False, disk=False):
            alone = plan_mobius(model, survivors, MobiusConfig()).partition_result
            plan_mobius(model, topology, MobiusConfig())
            after = plan_mobius(model, survivors, MobiusConfig()).partition_result
        assert not alone.warm_started and not after.warm_started
        assert after.nodes_explored == alone.nodes_explored
        assert after.partition.boundaries == alone.partition.boundaries


class TestPartitionWarmStart:
    def test_warm_start_cannot_change_the_result(self, model, cm):
        cold = mip_partition(model, cm, 2, 2, BW)
        warm = mip_partition(model, cm, 2, 2, BW, warm_start=cold.partition.boundaries)
        assert warm.warm_started
        assert warm.partition.boundaries == cold.partition.boundaries
        assert warm.timings.step_seconds == cold.timings.step_seconds
        assert warm.nodes_explored <= cold.nodes_explored

    def test_warm_start_accepts_boundary_sequence(self, model, cm):
        # Any int sequence works, not only a Partition's boundary tuple.
        cold = mip_partition(model, cm, 2, 2, BW)
        warm = mip_partition(
            model, cm, 2, 2, BW, warm_start=list(cold.partition.boundaries)
        )
        assert warm.partition.boundaries == cold.partition.boundaries

    def test_infeasible_hint_is_ignored(self, model, cm):
        cold = mip_partition(model, cm, 2, 2, BW)
        warm = mip_partition(model, cm, 2, 2, BW, warm_start=(1,))
        assert warm.partition.boundaries == cold.partition.boundaries

    def test_cross_gpu_count_hint_shrinks_search(self):
        # The fault-replan scenario: re-solve for N-1 GPUs warm-started
        # from the N-GPU plan.  Fewer nodes, same canonical answer.
        from repro.models.zoo import gpt2_small

        model = gpt2_small()
        cm = CostModel(RTX_3090TI, model.default_microbatch_size)
        full = mip_partition(model, cm, 4, 4, BW)
        cold = mip_partition(model, cm, 3, 3, BW)
        warm = mip_partition(model, cm, 3, 3, BW, warm_start=full.partition.boundaries)
        assert warm.warm_started
        assert warm.partition.boundaries == cold.partition.boundaries
        assert warm.nodes_explored < cold.nodes_explored


def _feasible_completions(ctx):
    """Every memory-feasible boundary tuple with its exact step time."""
    n_layers = ctx.model.n_layers
    for n_cuts in range(n_layers):
        for boundaries in itertools.combinations(range(1, n_layers), n_cuts):
            timings = ctx.evaluate(boundaries)
            if timings.feasible:
                yield boundaries, timings.step_seconds


class TestPipelineFillBound:
    def test_bound_never_exceeds_a_completion(self):
        # Every prefix bound push() returns must lie below the exact
        # Eq. 4-11 step of each completion through that prefix, else the
        # search could prune the optimum.  Exhaustive over the corpus.
        pairs = 0
        for name, args in corpus_problems():
            model, cost_model = args[0], args[1]
            ctx = _SearchContext(*args, cost_model.usable_gpu_bytes())
            for boundaries, step in _feasible_completions(ctx):
                stack = _ForwardStack(ctx)
                cuts = (0, *boundaries, model.n_layers)
                for start, stop in zip(cuts, cuts[1:]):
                    bound = stack.push(start, stop)
                    assert bound <= step, (name, boundaries, stop, bound, step)
                    pairs += 1
        assert pairs > 5000

    def test_tied_optima_resolve_canonically(self, cm):
        # Identical blocks on one GPU: several boundary tuples tie at the
        # optimum.  The search returns the lexicographically smallest one,
        # whichever tie (if any) seeds it.
        base = build_gpt_like("tied", n_blocks=1, hidden_dim=1024, n_heads=8)
        block = next(
            layer for layer in base.layers if layer.kind == LayerKind.TRANSFORMER_BLOCK
        )
        model = dataclasses.replace(base, layers=(block,) * 6)
        ctx = _SearchContext(model, cm, 1, 2, BW, cm.usable_gpu_bytes())
        steps = dict(_feasible_completions(ctx))
        best = min(steps.values())
        ties = sorted(b for b, step in steps.items() if step < best + 1e-12)
        assert len(ties) > 1
        cold = mip_partition(model, cm, 1, 2, BW)
        assert cold.optimal
        assert cold.partition.boundaries == ties[0]
        for hint in ties:
            warm = mip_partition(model, cm, 1, 2, BW, warm_start=hint)
            assert warm.partition.boundaries == ties[0]
            assert warm.timings.step_seconds == cold.timings.step_seconds

    def test_truncated_search_reports_an_admissible_gap(self):
        args = _PAPER["GPT-8B/topo_1_3"]
        exhausted = mip_partition(*args)
        truncated = mip_partition(*args, max_nodes=50)
        assert exhausted.gap == 0.0
        assert exhausted.best_bound == exhausted.timings.step_seconds
        assert not truncated.optimal
        assert 0.0 < truncated.gap < 1.0
        assert truncated.best_bound <= exhausted.timings.step_seconds
        step = truncated.timings.step_seconds
        assert truncated.gap == pytest.approx((step - truncated.best_bound) / step)

    def test_baselines_report_no_bound(self, model, cm):
        for partitioner in (max_stage_partition, min_stage_partition):
            result = partitioner(model, cm, 2, 2, BW)
            assert result.best_bound is None and result.gap is None


class TestPaperScaleOptimality:
    """The paper-scale Topo 1+3 cells exhaust within the default budget."""

    @pytest.mark.parametrize(
        ("name", "boundaries", "step_seconds"),
        [
            ("GPT-8B", (*range(1, 41), 42), 5.229436422444517),
            ("GPT-15B", tuple(range(1, 42)), 4.0653522626117065),
            ("GPT-51B", tuple(range(1, 52)), 15.867654259063197),
        ],
    )
    def test_proven_optimal(self, name, boundaries, step_seconds):
        result = mip_partition(*_PAPER[f"{name}/topo_1_3"])
        assert result.optimal
        assert result.nodes_explored < 20_000
        assert result.gap == 0.0
        assert result.partition.boundaries == boundaries
        assert result.timings.step_seconds == pytest.approx(step_seconds, rel=1e-12)
