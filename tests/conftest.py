"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.gpu import RTX_3090TI
from repro.hardware.topology import topo_2_2, topo_4
from repro.models.costmodel import CostModel
from repro.models.spec import build_gpt_like


@pytest.fixture
def tiny_model():
    """A small GPT-like spec (6 blocks, hidden 1024) for fast planning tests."""
    return build_gpt_like(
        "tiny", n_blocks=6, hidden_dim=1024, n_heads=8, default_microbatch_size=2
    )


@pytest.fixture
def tiny_cost_model(tiny_model):
    return CostModel(RTX_3090TI, tiny_model.default_microbatch_size)


@pytest.fixture
def topo22():
    return topo_2_2()


@pytest.fixture
def topo4():
    return topo_4()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def _auto_sanitize_traces(monkeypatch):
    """Run the repro.check trace sanitizer on every simulated execution.

    Every trace any test produces through ``TaskGraphRunner.execute`` —
    Mobius, the baselines, the memory audit — is checked for causality,
    compute-exclusivity and bandwidth violations for free.  Tests exercising
    deliberately broken traces bypass this by building ``Trace`` objects
    directly instead of executing a task graph.
    """
    from repro.check.trace_check import sanitize_run
    from repro.sim.tasks import TaskGraphRunner

    original = TaskGraphRunner.execute

    def execute_and_sanitize(self, tasks, **kwargs):
        trace = original(self, tasks, **kwargs)
        report = sanitize_run(self.last_tasks, trace, self.topology)
        assert report.ok, f"simulated trace failed sanitization:\n{report.render()}"
        return trace

    monkeypatch.setattr(TaskGraphRunner, "execute", execute_and_sanitize)


@pytest.fixture(autouse=True)
def _restore_module_registries(monkeypatch):
    """Start every test from the same module-global planning state.

    Warm-start hints can change a budget-truncated search's incumbent, so a
    hint leaked from one test would make another's result depend on test
    order.  The hint registry starts empty; the durable hint store, the
    hint capacity and the global result cache (with its durable backend)
    are restored when the test ends.
    """
    from repro.core import api
    from repro.perf import cache

    api._PARTITION_HINTS.clear()
    monkeypatch.setattr(api, "_HINT_STORE", api._HINT_STORE)
    monkeypatch.setattr(api, "_PARTITION_HINT_CAPACITY", api._PARTITION_HINT_CAPACITY)
    monkeypatch.setattr(cache, "_cache", cache._cache)
    monkeypatch.setattr(cache._cache, "_backend", cache._cache._backend)
