"""Tests of the benchmark's own machinery (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench import inputs
from perfbench.layers import longest_path
from perfbench.metrics import END_TO_END, PER_LAYER, REPORTED, InsufficientSamples, percentile
from perfbench.tracing import Recorder, Span, covered_seconds, self_times, union_length

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bytes(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    assert _bytes(inputs.serve_inputs(7, blocks=3)) == _bytes(inputs.serve_inputs(7, blocks=3))
    assert _bytes(inputs.serve_inputs(7, blocks=3)) != _bytes(inputs.serve_inputs(8, blocks=3))


def test_serve_stream_composition_is_fixed_by_design():
    stream = inputs.serve_inputs(3, blocks=2)
    assert len(stream) == 2 * (16 + inputs.SERVE_REPEATS_PER_BLOCK)
    keys = [tuple(sorted(r.items())) for r in stream]
    # Every repeat repeats an earlier request exactly (tenant included).
    seen = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    assert repeats == 2 * inputs.SERVE_REPEATS_PER_BLOCK
    eight_gpu = [r for r in stream if r["topology"] == "topo_4_4"]
    assert len({(r["model"], r["bandwidth_factor"]) for r in eight_gpu}) == 8


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    values = list(range(100))
    assert percentile(values, 90) == 89  # rank 90 of 100: ten samples beyond
    with pytest.raises(InsufficientSamples):
        percentile(values, 91)  # nine beyond
    with pytest.raises(InsufficientSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == 9


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, None)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: union 1..6
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("late", 9.0, 12.0, parent=0),  # clipped to the parent: 9..10
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_union_and_coverage():
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    spans = [_span("x", 1, 2), _span("y", 1.5, 3), _span("z", 8, 12)]
    assert covered_seconds(spans, 0, 10) == pytest.approx(4.0)


def test_recorder_nests_per_thread_and_inherits_request_id():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))

    def inner():
        return recorder.call("inner", lambda: 7, (), {})

    assert recorder.call("outer", inner, (), {}, rid="req-1") == 7
    outer, nested = recorder.spans
    assert nested.parent == 0 and nested.rid == "req-1"
    assert outer.start < nested.start < nested.end < outer.end


def test_longest_path_follows_dependencies():
    weights = {0: 1.0, 1: 2.0, 2: 5.0, 3: 1.0}
    deps = {1: {0}, 3: {1, 2}}
    assert longest_path(weights, deps) == pytest.approx(6.0)


def test_metric_names_and_units_are_well_formed():
    names = [entry[0] for entry in END_TO_END + PER_LAYER]
    names += [entry[0] for rows in REPORTED.values() for entry in rows]
    for name in names:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64
    assert len(set(entry[0] for entry in END_TO_END + PER_LAYER)) == len(END_TO_END + PER_LAYER)


def test_benchmark_json_lists_the_catalog():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in document["end_to_end"]] == [
        (name, unit, better, bound) for name, unit, better, bound, _ in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in PER_LAYER
    ]
    assert {w["name"] for w in document["workloads"]} == set(REPORTED)
