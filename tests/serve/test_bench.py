"""compare_benchmarks gate logic on synthetic documents (no bench run)."""

import json

import pytest

from repro.cli import main
from repro.serve.bench import BENCH_SCHEMA, compare_benchmarks


def _document(**overrides) -> dict:
    document = {
        "schema": BENCH_SCHEMA,
        "throughput": [
            {"name": "cold", "plans": 4, "wall_seconds": 0.04,
             "plans_per_second": 100.0},
            {"name": "warm", "plans": 4, "wall_seconds": 0.004,
             "plans_per_second": 1000.0},
        ],
        "plans": [
            {"name": "gpt-a/topo_2_2", "fingerprint": "aaaa1111", "consistent": True},
            {"name": "gpt-b/topo_2_2", "fingerprint": "bbbb2222", "consistent": True},
        ],
        "recovery": [
            {"name": "worker-crash-midsolve", "ok": True},
            {"name": "overload-burst", "ok": True},
        ],
        "scaling": {
            "cpus": 8,
            "rows": [
                {"workers": 1, "plans": 20, "wall_seconds": 4.0,
                 "plans_per_second": 5.0},
                {"workers": 2, "plans": 20, "wall_seconds": 2.2,
                 "plans_per_second": 9.1},
                {"workers": 4, "plans": 20, "wall_seconds": 1.6,
                 "plans_per_second": 12.5},
            ],
            "top_workers": 4,
            "speedup_top_vs_1": 2.5,
            "consistent": True,
        },
    }
    document.update(overrides)
    return document


def _scaled(**changes) -> dict:
    document = _document()
    document["scaling"] = dict(document["scaling"], **changes)
    return document


def _mutated(section, index, **changes) -> dict:
    document = _document()
    document[section] = [dict(row) for row in document[section]]
    document[section][index].update(changes)
    return document


class TestGatePasses:
    def test_identical_documents(self):
        assert compare_benchmarks(_document(), _document()) == []

    def test_faster_is_fine(self):
        current = _mutated("throughput", 0, plans_per_second=500.0)
        assert compare_benchmarks(current, _document()) == []

    def test_small_slowdown_within_tolerance(self):
        current = _mutated("throughput", 0, plans_per_second=85.0)  # > 100/1.25
        assert compare_benchmarks(current, _document()) == []


class TestGateFails:
    def test_fingerprint_divergence(self):
        current = _mutated("plans", 0, fingerprint="cccc3333")
        failures = compare_benchmarks(current, _document())
        assert any("fingerprint diverged" in f for f in failures)

    def test_inconsistent_regimes(self):
        current = _mutated("plans", 1, consistent=False)
        failures = compare_benchmarks(current, _document())
        assert any("divergent fingerprints" in f for f in failures)

    def test_recovery_regression(self):
        current = _mutated("recovery", 0, ok=False)
        failures = compare_benchmarks(current, _document())
        assert failures == [
            "recovery:worker-crash-midsolve: chaos scenario no longer passes"
        ]

    def test_throughput_regression_beyond_ratio(self):
        current = _mutated("throughput", 0, plans_per_second=79.0)  # < 100/1.25
        failures = compare_benchmarks(current, _document())
        assert any("plans/sec regressed" in f for f in failures)

    def test_scaling_fingerprint_divergence_fails_on_any_host(self):
        # Identity across worker counts is gated even on 1-cpu hosts.
        current = _scaled(consistent=False, cpus=1, top_workers=4)
        failures = compare_benchmarks(current, _document())
        assert any(
            "fingerprints diverged across worker counts" in f for f in failures
        )

    def test_scaling_speedup_below_floor_fails_on_big_hosts(self):
        current = _scaled(speedup_top_vs_1=1.4)
        failures = compare_benchmarks(current, _document())
        assert any("below the" in f and "floor" in f for f in failures)
        missing = _scaled(speedup_top_vs_1=None)
        assert any(
            "below the" in f for f in compare_benchmarks(missing, _document())
        )

    def test_scaling_speedup_not_gated_on_small_hosts(self):
        # A 1-cpu runner cannot scale; the floor only applies when the
        # host has >= 4 cpus AND the ladder actually reached 4 workers.
        small_host = _scaled(speedup_top_vs_1=1.0, cpus=1)
        assert compare_benchmarks(small_host, _document()) == []
        short_ladder = _scaled(speedup_top_vs_1=1.0, top_workers=2)
        assert compare_benchmarks(short_ladder, _document()) == []

    def test_scaling_speedup_at_floor_passes(self):
        assert compare_benchmarks(
            _scaled(speedup_top_vs_1=1.8), _document()
        ) == []

    def test_scaling_section_missing_from_current_fails(self):
        current = _document()
        del current["scaling"]
        failures = compare_benchmarks(current, _document())
        assert any("scaling: section missing" in f for f in failures)
        # ... but a pre-scaling baseline doesn't demand the section.
        baseline = _document()
        del baseline["scaling"]
        assert compare_benchmarks(current, baseline) == []

    def test_missing_rows_fail_both_ways(self):
        dropped = _document()
        dropped["plans"] = dropped["plans"][:1]
        dropped["recovery"] = dropped["recovery"][:1]
        dropped["throughput"] = dropped["throughput"][:1]
        missing_current = compare_benchmarks(dropped, _document())
        assert any("missing from current run" in f for f in missing_current)
        missing_baseline = compare_benchmarks(_document(), dropped)
        assert any("missing from baseline" in f for f in missing_baseline)


class TestInvariantsWithoutBaseline:
    def test_invariants_fail_alone(self):
        current = _mutated("plans", 1, consistent=False)
        current["recovery"][0]["ok"] = False
        current["scaling"] = dict(current["scaling"], consistent=False)
        assert compare_benchmarks(current) == [
            "plans:gpt-b/topo_2_2: serving regimes returned divergent fingerprints",
            "recovery:worker-crash-midsolve: chaos scenario no longer passes",
            "scaling: fingerprints diverged across worker counts",
        ]

    def test_baseline_gates_need_a_baseline(self):
        # Fingerprint and throughput rows compare against a baseline only.
        assert compare_benchmarks(_document()) == []
        current = _mutated("plans", 0, fingerprint="cccc3333")
        current["throughput"][0]["plans_per_second"] = 1.0
        assert compare_benchmarks(current) == []


class TestCliReportsEachFailureOnce:
    @pytest.mark.parametrize("with_baseline", [False, True])
    def test_one_bad_plan_row_is_one_failure_line(
        self, monkeypatch, tmp_path, capsys, with_baseline
    ):
        current = _mutated("plans", 1, consistent=False)
        monkeypatch.setattr(
            "repro.serve.bench.run_bench", lambda workers=None: current
        )
        argv = ["servebench"]
        if with_baseline:
            baseline = tmp_path / "BENCH_serve.json"
            baseline.write_text(json.dumps(_document()))
            argv += ["--check-against", str(baseline)]
        assert main(argv) == 1
        failures = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("FAIL ")
        ]
        assert failures == [
            "FAIL plans:gpt-b/topo_2_2: serving regimes returned divergent "
            "fingerprints"
        ]
