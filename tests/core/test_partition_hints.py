"""The warm-start hint registry's synchronization seam (MOB007 fix).

The seam must be invisible: hints (plain boundary tuples) only seed the
partition search's incumbent, so a plan computed through a populated
registry is byte-identical to a cold one.
"""

import threading

import pytest

from repro.core import api
from repro.core.api import (
    MobiusConfig,
    _get_partition_hint,
    _put_partition_hint,
    plan_mobius,
    set_partition_hint_capacity,
    set_partition_hint_store,
)
from repro.hardware.topology import commodity_server
from repro.models.spec import build_gpt_like
from repro.perf.cache import cache_overridden
from repro.perf.fingerprint import fingerprint


def _small_model():
    return build_gpt_like(
        "hint-test-1024x6",
        n_blocks=6,
        hidden_dim=1024,
        n_heads=8,
        default_microbatch_size=1,
    )


class TestSeam:
    def test_round_trip(self):
        key = ("seam-test", 6, "gpu", 1)
        assert _get_partition_hint(key) is None
        hint = (2, 4)
        _put_partition_hint(key, hint)
        try:
            assert _get_partition_hint(key) is hint
        finally:
            api._PARTITION_HINTS.pop(key, None)

    def test_concurrent_writers_do_not_corrupt_the_registry(self):
        keys = [("seam-race", i, "gpu", 1) for i in range(32)]
        hint = (1,)

        def write(key):
            for _ in range(50):
                _put_partition_hint(key, hint)
                assert _get_partition_hint(key) is hint

        threads = [threading.Thread(target=write, args=(k,)) for k in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            for key in keys:
                assert _get_partition_hint(key) is hint
        finally:
            for key in keys:
                api._PARTITION_HINTS.pop(key, None)


class TestBoundedLru:
    """The registry is a bounded LRU: a daemon cannot leak hints unbounded."""

    HINT = (1,)

    def _keys(self, n):
        return [("lru-test", i, "gpu", 1) for i in range(n)]

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            set_partition_hint_capacity(0)

    def test_capacity_bounds_the_registry(self):
        keys = self._keys(5)
        set_partition_hint_capacity(3)
        try:
            for key in keys:
                _put_partition_hint(key, self.HINT)
            assert len(api._PARTITION_HINTS) == 3
            # Oldest publishes evicted, newest retained.
            assert _get_partition_hint(keys[0]) is None
            assert _get_partition_hint(keys[4]) is self.HINT
        finally:
            for key in keys:
                api._PARTITION_HINTS.pop(key, None)
            set_partition_hint_capacity(64)

    def test_hit_refreshes_recency(self):
        keys = self._keys(4)
        set_partition_hint_capacity(3)
        try:
            for key in keys[:3]:
                _put_partition_hint(key, self.HINT)
            assert _get_partition_hint(keys[0]) is self.HINT  # refresh
            _put_partition_hint(keys[3], self.HINT)  # evicts keys[1], not [0]
            assert _get_partition_hint(keys[0]) is self.HINT
            assert _get_partition_hint(keys[1]) is None
        finally:
            for key in keys:
                api._PARTITION_HINTS.pop(key, None)
            set_partition_hint_capacity(64)

    def test_shrinking_evicts_immediately(self):
        keys = self._keys(3)
        set_partition_hint_capacity(8)
        try:
            for key in keys:
                _put_partition_hint(key, self.HINT)
            set_partition_hint_capacity(1)
            assert len(api._PARTITION_HINTS) == 1
            assert _get_partition_hint(keys[2]) is self.HINT
        finally:
            for key in keys:
                api._PARTITION_HINTS.pop(key, None)
            set_partition_hint_capacity(64)

    def test_eviction_never_changes_the_plan(self):
        """The satellite guarantee: losing a hint costs warm-start work only."""
        model = _small_model()
        topology = commodity_server([2, 2])
        config = MobiusConfig(partition_time_limit=0.5)
        hint_key = (
            model.name,
            model.n_layers,
            topology.gpu_spec.name,
            model.default_microbatch_size,
        )
        evictor = ("lru-evictor", 0, "gpu", 1)
        try:
            with cache_overridden():
                cold = plan_mobius(model, topology, config)
            assert _get_partition_hint(hint_key) is not None
            set_partition_hint_capacity(1)
            _put_partition_hint(evictor, self.HINT)
            assert _get_partition_hint(hint_key) is None  # evicted
            with cache_overridden():
                after_eviction = plan_mobius(model, topology, config)
            assert fingerprint(after_eviction.plan) == fingerprint(cold.plan)
        finally:
            api._PARTITION_HINTS.pop(hint_key, None)
            api._PARTITION_HINTS.pop(evictor, None)
            set_partition_hint_capacity(64)


class _FakeHintStore:
    def __init__(self, broken: bool = False) -> None:
        self.data: dict = {}
        self.puts = 0
        self.broken = broken

    def get_hint(self, key):
        if self.broken:
            raise RuntimeError("durable tier down")
        return self.data.get(key)

    def put_hint(self, key, hint):
        if self.broken:
            raise RuntimeError("durable tier down")
        self.data[key] = hint
        self.puts += 1


class TestDurableFallThrough:
    """The serve daemon's durable hint tier behind the same seam."""

    HINT = (2, 4)

    def test_install_returns_previous(self):
        store = _FakeHintStore()
        assert set_partition_hint_store(store) is None
        try:
            assert set_partition_hint_store(None) is store
        finally:
            set_partition_hint_store(None)

    def test_miss_falls_through_and_promotes(self):
        key = ("durable-test", 1, "gpu", 1)
        store = _FakeHintStore()
        store.data[key] = self.HINT
        set_partition_hint_store(store)
        try:
            assert _get_partition_hint(key) is self.HINT
            # Promoted into the registry: a second read needs no store.
            set_partition_hint_store(None)
            assert _get_partition_hint(key) is self.HINT
        finally:
            set_partition_hint_store(None)
            api._PARTITION_HINTS.pop(key, None)

    def test_publish_writes_through(self):
        key = ("durable-test", 2, "gpu", 1)
        store = _FakeHintStore()
        set_partition_hint_store(store)
        try:
            _put_partition_hint(key, self.HINT)
            assert store.data[key] is self.HINT and store.puts == 1
        finally:
            set_partition_hint_store(None)
            api._PARTITION_HINTS.pop(key, None)

    def test_broken_store_degrades_to_cold(self):
        key = ("durable-test", 3, "gpu", 1)
        set_partition_hint_store(_FakeHintStore(broken=True))
        try:
            assert _get_partition_hint(key) is None  # no raise
            _put_partition_hint(key, self.HINT)  # no raise
            assert _get_partition_hint(key) is self.HINT  # registry still works
        finally:
            set_partition_hint_store(None)
            api._PARTITION_HINTS.pop(key, None)


class TestPlanIdentity:
    def test_warm_hint_cannot_change_the_plan(self):
        """Regression for the seam refactor: warm == cold, fingerprint-exact."""
        model = _small_model()
        topology = commodity_server([2, 2])
        config = MobiusConfig(partition_time_limit=0.5)
        hint_key = (
            model.name,
            model.n_layers,
            topology.gpu_spec.name,
            model.default_microbatch_size,
        )
        api._PARTITION_HINTS.pop(hint_key, None)
        try:
            cold = plan_mobius(model, topology, config)
            # plan_mobius published the plain boundary tuple through the seam.
            assert _get_partition_hint(hint_key) == cold.plan.partition.boundaries
            warm = plan_mobius(model, topology, config)
            assert fingerprint(warm.plan) == fingerprint(cold.plan)
        finally:
            api._PARTITION_HINTS.pop(hint_key, None)
