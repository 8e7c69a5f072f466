"""Cross-checks: the literal boolean MIP vs the production partitioner."""

import pytest

from repro.core.mip_formulation import build_partition_mip, solve_partition_mip
from repro.core.partition import mip_partition
from repro.core.timing import evaluate_pipeline
from repro.hardware.gpu import RTX_3090TI
from repro.models.costmodel import CostModel
from repro.models.spec import build_gpt_like

BW = 13.1e9


@pytest.fixture
def small_model():
    return build_gpt_like(
        "small", n_blocks=5, hidden_dim=2048, n_heads=16, include_embedding=False
    )


@pytest.fixture
def cm():
    return CostModel(RTX_3090TI, 2)


class TestFormulation:
    def test_objective_matches_production_bnb(self, small_model, cm):
        """The headline validation: literal MIP == boundary search optimum."""
        gpu_memory = 4 * 10**9
        bnb = mip_partition(small_model, cm, 2, 2, BW, gpu_memory=gpu_memory)
        assert bnb.optimal
        milp = solve_partition_mip(small_model, cm, 2, 2, BW, gpu_memory=gpu_memory)
        assert milp.partition is not None
        assert milp.step_seconds == pytest.approx(
            bnb.timings.step_seconds, rel=1e-3
        )

    def test_extracted_partition_evaluates_consistently(self, small_model, cm):
        gpu_memory = 4 * 10**9
        milp = solve_partition_mip(small_model, cm, 2, 2, BW, gpu_memory=gpu_memory)
        costs = cm.stage_costs_for_partition(
            small_model, list(milp.partition.boundaries)
        )
        timings = evaluate_pipeline(costs, 2, 2, BW, gpu_memory)
        assert timings.feasible
        assert timings.step_seconds == pytest.approx(milp.step_seconds, rel=1e-3)

    def test_memory_constraints_respected(self, small_model, cm):
        gpu_memory = 3 * 10**9
        milp = solve_partition_mip(small_model, cm, 2, 2, BW, gpu_memory=gpu_memory)
        for stage in range(milp.partition.n_stages):
            start, stop = milp.partition.stage_layers(stage)
            assert cm.stage_cost(small_model, start, stop).mem_peak(2) <= gpu_memory

    def test_per_stage_solutions_reported(self, small_model, cm):
        milp = solve_partition_mip(
            small_model,
            cm,
            2,
            2,
            BW,
            gpu_memory=4 * 10**9,
            stage_counts=[2, 3, 4],
        )
        assert set(milp.per_stage_solutions) == {2, 3, 4}
        assert min(milp.per_stage_solutions.values()) == pytest.approx(
            milp.step_seconds
        )

    def test_invalid_stage_count_rejected(self, small_model, cm):
        with pytest.raises(ValueError):
            build_partition_mip(small_model, cm, 0, 2, 2, BW, 10**9)
