"""Content-fingerprint correctness: stability and sensitivity."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.api import MobiusConfig
from repro.baselines.deepspeed import DeepSpeedConfig
from repro.hardware.topology import topo_1_3, topo_2_2, datacenter_server
from repro.models.spec import build_gpt_like
from repro.models.zoo import gpt_8b
from repro.perf.fingerprint import canonical_bytes, fingerprint


class TestStability:
    def test_identical_specs_hash_identically(self):
        assert fingerprint(gpt_8b()) == fingerprint(gpt_8b())

    def test_identical_topologies_hash_identically(self):
        assert fingerprint(topo_2_2()) == fingerprint(topo_2_2())

    def test_identical_configs_hash_identically(self):
        assert fingerprint(MobiusConfig()) == fingerprint(MobiusConfig())
        assert fingerprint(DeepSpeedConfig()) == fingerprint(DeepSpeedConfig())

    def test_stable_across_processes(self):
        """The same spec built in a fresh interpreter hashes identically."""
        program = (
            "from repro.models.zoo import gpt_8b\n"
            "from repro.core.api import MobiusConfig\n"
            "from repro.hardware.topology import topo_2_2\n"
            "from repro.perf.fingerprint import fingerprint\n"
            "print(fingerprint((gpt_8b(), topo_2_2(), MobiusConfig())))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"  # prove hash() salting is irrelevant
        child = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        here = fingerprint((gpt_8b(), topo_2_2(), MobiusConfig()))
        assert child.stdout.strip() == here

    def test_collection_encodings_are_canonical(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint({1, 2, 3}) == fingerprint({3, 2, 1})
        assert fingerprint((1, 2)) != fingerprint([1, 2])


class TestSensitivity:
    def test_any_config_field_changes_the_hash(self):
        base = MobiusConfig()
        changed = {
            "microbatch_size": 2,
            "n_microbatches": 7,
            "partition_method": "max-stage",
            "mapping_method": "sequential",
            "partition_time_limit": 1.25,
            "partition_max_nodes": 500,
            "prefetch": False,
            "use_priorities": False,
            "bandwidth": 9.9e9,
            # The structural hash sees solver_mode like any field, even
            # though planning accepts only "solo".
            "solver_mode": "other",
        }
        assert set(changed) == {f.name for f in dataclasses.fields(base)}
        for field, value in changed.items():
            mutated = dataclasses.replace(base, **{field: value})
            assert fingerprint(mutated) != fingerprint(base), field

    def test_layer_fields_change_the_hash(self):
        base = build_gpt_like("m", n_blocks=2, hidden_dim=64, n_heads=2)
        layer = base.layers[1]
        for field in ("param_count", "fwd_flops_per_sample", "name", "kind"):
            value = getattr(layer, field)
            bumped = value + 1 if isinstance(value, (int, float)) else value + "x"
            mutated_layer = dataclasses.replace(layer, **{field: bumped})
            layers = (base.layers[0], mutated_layer, *base.layers[2:])
            mutated = dataclasses.replace(base, layers=layers)
            assert fingerprint(mutated) != fingerprint(base), field

    def test_topology_shape_and_bandwidth_change_the_hash(self):
        assert fingerprint(topo_2_2()) != fingerprint(topo_1_3())
        assert fingerprint(topo_2_2()) != fingerprint(datacenter_server())
        slower = topo_2_2()
        slower.pcie_bandwidth = slower.pcie_bandwidth / 2
        assert fingerprint(slower) != fingerprint(topo_2_2())

    def test_numeric_edge_cases_distinguished(self):
        assert fingerprint(0.0) != fingerprint(-0.0)
        assert fingerprint(float("nan")) != fingerprint(float("inf"))
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint(True) != fingerprint(1)


class TestEncoding:
    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint(object())

    def test_numpy_arrays_supported(self):
        a = np.arange(6, dtype=np.float64)
        assert fingerprint(a) == fingerprint(a.copy())
        assert fingerprint(a) != fingerprint(a.reshape(2, 3))
        assert fingerprint(a) != fingerprint(a.astype(np.float32))

    def test_canonical_bytes_is_prefix_free_enough(self):
        # Concatenation ambiguities must not collide: ("ab", "c") vs ("a", "bc").
        assert canonical_bytes(("ab", "c")) != canonical_bytes(("a", "bc"))
        assert canonical_bytes(("1", 1)) != canonical_bytes((1, "1"))
