"""Oracle parity: the boundary search vs the literal Eqs. 3-11 MIP on HiGHS
over every check-corpus cell.  The search must prove optimality and match
the HiGHS optimum (every stage count) to ``ORACLE_REL_TOL``; an infeasible
instance must be infeasible for both."""

import math

import pytest

from repro.core.mip_formulation import solve_partition_mip
from repro.core.partition import PlanInfeasibleError, mip_partition
from repro.solver.bench import ORACLE_REL_TOL, corpus_problems

_PROBLEMS = corpus_problems()


@pytest.mark.parametrize(
    "name,args", _PROBLEMS, ids=[name for name, _ in _PROBLEMS]
)
def test_objective_parity_on_feasible_cells(name, args):
    search = mip_partition(*args)
    oracle = solve_partition_mip(*args)
    assert search.optimal
    assert oracle.partition is not None
    assert math.isclose(
        search.timings.step_seconds, oracle.step_seconds, rel_tol=ORACLE_REL_TOL
    )


def test_status_parity_on_infeasible_instance():
    # 1 MB of GPU memory: no stage assignment fits, so the search must
    # raise and HiGHS must find no partition — not a bogus incumbent.
    _, args = _PROBLEMS[0]
    with pytest.raises(PlanInfeasibleError):
        mip_partition(*args, gpu_memory=int(1e6))
    oracle = solve_partition_mip(*args, gpu_memory=int(1e6))
    assert oracle.partition is None
    assert all(math.isinf(v) for v in oracle.per_stage_solutions.values())
