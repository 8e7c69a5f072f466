"""MILP substrate for the paper's literal partition MIP (§3.2).

The paper solves its Eqs. 3-11 MIP with Gurobi.  Here the planner never
does: :func:`repro.core.partition.mip_partition` searches stage boundaries
directly.  This package holds what the *oracle* needs to check that search
— an algebraic model builder (:mod:`repro.solver.model`) and a HiGHS
backend via :func:`scipy.optimize.milp` (:mod:`repro.solver.scipy_backend`)
— plus the ``repro solvebench`` harness (:mod:`repro.solver.bench`).
"""

from repro.solver.model import (
    Constraint,
    ConstraintSense,
    LinearExpr,
    LinearProgram,
    StandardForm,
    Variable,
)
from repro.solver.scipy_backend import MIPSolution, MIPStatus, solve_milp_scipy

__all__ = [
    "Constraint",
    "ConstraintSense",
    "LinearExpr",
    "LinearProgram",
    "MIPSolution",
    "MIPStatus",
    "StandardForm",
    "Variable",
    "solve_milp_scipy",
]
