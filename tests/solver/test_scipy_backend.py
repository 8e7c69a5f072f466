"""Tests for the HiGHS backend that solves the literal partition MIP."""

import pytest

from repro.solver.model import LinearProgram
from repro.solver.scipy_backend import MIPStatus, solve_milp_scipy


class TestKnownProblems:
    def test_knapsack(self):
        lp = LinearProgram()
        a, b, c = (lp.add_binary(n) for n in "abc")
        lp.add_constraint(2 * a + 3 * b + 4 * c <= 5)
        lp.set_objective(3 * a + 4 * b + 5 * c, minimize=False)
        sol = solve_milp_scipy(lp)
        assert sol.status is MIPStatus.OPTIMAL
        assert sol.objective == pytest.approx(7.0)
        assert list(sol.x) == [1, 1, 0]

    def test_integer_rounding_matters(self):
        # LP relaxation gives x = 2.5; the MIP optimum is x = 2.
        lp = LinearProgram()
        x = lp.add_var("x", ub=10, integer=True)
        lp.add_constraint(2 * x <= 5)
        lp.set_objective(x, minimize=False)
        assert solve_milp_scipy(lp).objective == pytest.approx(2.0)

    def test_mixed_integer_continuous(self):
        lp = LinearProgram()
        x = lp.add_var("x", ub=10, integer=True)
        y = lp.add_var("y", ub=10)
        lp.add_constraint(x + y == 7.5)
        lp.set_objective(2 * x + y)
        sol = solve_milp_scipy(lp)
        assert sol.objective == pytest.approx(7.5)
        assert sol.x[0] == pytest.approx(0.0)

    def test_infeasible_integrality(self):
        # Feasible as an LP (x = 0.5) but infeasible as an integer program.
        lp = LinearProgram()
        x = lp.add_var("x", ub=1, integer=True)
        lp.add_constraint(2 * x == 1)
        lp.set_objective(x)
        sol = solve_milp_scipy(lp)
        assert sol.status is MIPStatus.INFEASIBLE
        assert not sol.ok


class TestInfeasibleDetection:
    """An over-constrained MIP must say INFEASIBLE, not return a bogus
    incumbent (the oracle parity check trusts this status)."""

    def test_contradictory_bounds_via_constraints(self):
        lp = LinearProgram()
        x = lp.add_var("x", ub=10, integer=True)
        lp.add_constraint(x >= 1)
        lp.add_constraint(x <= 0)
        lp.set_objective(x)
        sol = solve_milp_scipy(lp)
        assert sol.status is MIPStatus.INFEASIBLE
        assert sol.x is None
