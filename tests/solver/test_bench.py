"""Tests for the solvebench document and its CI regression gate."""

import json

import pytest

from repro.cli import main
from repro.solver.bench import (
    BENCH_SCHEMA,
    compare_benchmarks,
    paper_problems,
    write_bench,
)


def _doc(**overrides):
    base = {
        "schema": BENCH_SCHEMA,
        "partition": [
            {
                "name": "a",
                "boundaries": [2],
                "step_seconds": 0.5,
                "nodes": 100,
                "optimal": True,
                "warm_nodes": 100,
                "warm_identical": True,
                "wall_seconds": 0.1,
            }
        ],
        "oracle": [
            {
                "name": "a",
                "n_stages": 2,
                "stage_counts": [2, 3],
                "step_seconds": 0.5,
                "oracle_step_seconds": 0.5,
                "parity": True,
                "wall_seconds": 1.0,
            }
        ],
    }
    base.update(overrides)
    return base


class TestCompareBenchmarks:
    def test_identical_documents_pass(self):
        assert compare_benchmarks(_doc(), _doc()) == []

    def test_wall_time_is_ignored(self):
        slow = _doc()
        slow["partition"][0]["wall_seconds"] = 999.0
        slow["oracle"][0]["wall_seconds"] = 999.0
        assert compare_benchmarks(slow, _doc()) == []

    def test_parity_regression_fails(self):
        bad = _doc()
        bad["oracle"][0]["parity"] = False
        bad["oracle"][0]["oracle_step_seconds"] = 0.4
        failures = compare_benchmarks(bad, _doc())
        assert any("!= oracle 0.4" in f for f in failures)

    def test_parity_failure_fails_even_without_baseline(self):
        # Parity is an invariant, not a baseline comparison.
        bad = _doc()
        bad["oracle"][0]["parity"] = False
        assert any("oracle:a" in f for f in compare_benchmarks(bad))

    def test_node_regression_fails_beyond_25_percent(self):
        worse = _doc()
        worse["partition"][0]["nodes"] = 126  # > 1.25 * 100
        failures = compare_benchmarks(worse, _doc())
        assert any("node count" in f for f in failures)
        borderline = _doc()
        borderline["partition"][0]["nodes"] = 125  # exactly 1.25x: allowed
        assert compare_benchmarks(borderline, _doc()) == []

    def test_node_improvement_passes(self):
        better = _doc()
        better["partition"][0]["nodes"] = 10
        assert compare_benchmarks(better, _doc()) == []

    def test_lost_optimality_fails(self):
        budget_bound = _doc()
        budget_bound["partition"][0]["optimal"] = False
        failures = compare_benchmarks(budget_bound, _doc())
        assert any("no longer proves optimality" in f for f in failures)
        # Gaining optimality is an improvement, not a failure.
        assert compare_benchmarks(_doc(), budget_bound) == []

    def test_warm_divergence_fails(self):
        bad = _doc()
        bad["partition"][0]["warm_identical"] = False
        failures = compare_benchmarks(bad, _doc())
        assert any("warm" in f for f in failures)

    def test_missing_instance_fails_both_ways(self):
        shrunk = _doc(oracle=[])
        assert any(
            "oracle:a: instance missing from current" in f
            for f in compare_benchmarks(shrunk, _doc())
        )
        assert any(
            "oracle:a: instance missing from baseline" in f
            for f in compare_benchmarks(_doc(), shrunk)
        )


class TestSolvebenchCli:
    @pytest.fixture
    def fake_bench(self, monkeypatch):
        import repro.solver.bench as bench

        monkeypatch.setattr(bench, "run_bench", lambda: _doc())
        return _doc()

    def test_smoke_text_output(self, fake_bench, capsys):
        assert main(["solvebench"]) == 0
        out = capsys.readouterr().out
        assert "partition a" in out and "oracle    a" in out and "[ok]" in out

    def test_json_to_file_and_gate(self, fake_bench, tmp_path, capsys):
        out_path = tmp_path / "BENCH_solver.json"
        assert main(["solvebench", "--json", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["schema"] == BENCH_SCHEMA
        capsys.readouterr()
        assert (
            main(["solvebench", "--check-against", str(out_path)]) == 0
        )

    def test_gate_fails_on_regression(self, fake_bench, tmp_path, capsys):
        baseline = _doc()
        baseline["partition"][0]["nodes"] = 10  # current (100) is a 10x regression
        path = tmp_path / "baseline.json"
        write_bench(path, baseline)
        assert main(["solvebench", "--check-against", str(path)]) == 1
        assert "node count regressed" in capsys.readouterr().err

    def test_committed_baseline_matches_schema(self):
        import pathlib

        repo_root = pathlib.Path(__file__).resolve().parents[2]
        committed = json.loads((repo_root / "BENCH_solver.json").read_text())
        assert committed["schema"] == BENCH_SCHEMA
        assert compare_benchmarks(committed, committed) == []
        partition = {row["name"]: row for row in committed["partition"]}
        oracle = {row["name"]: row for row in committed["oracle"]}
        # Paper-scale cells are too large for the dense HiGHS MILP: they
        # get partition rows only, and must be proven optimal.
        paper = {name for name, _ in paper_problems()}
        assert oracle and partition.keys() == oracle.keys() | paper
        assert all(partition[name]["optimal"] for name in paper)
        for name, row in oracle.items():
            assert row["step_seconds"] == partition[name]["step_seconds"]
