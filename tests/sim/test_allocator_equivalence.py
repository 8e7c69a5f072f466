"""Fuzz oracle for the incremental flow allocator (DESIGN.md §11).

The production :class:`~repro.sim.resources.FlowNetwork` refills only the
edge-connected component(s) a change touches.  The reference oracle below
keeps the *old* progressive fill verbatim — not as dead code in ``src/`` —
and re-derives everything from scratch at every event: priority groups,
edge-connected components, and the max-min fill per component.  After
**every** reallocation — flow arrival, flow completion, bandwidth-scale
epoch — the incremental rates must equal the from-scratch oracle exactly
(``==``, not approx: the optimization contract is bit-identical traces).

Two oracle granularities pin down the contract precisely:

* **component oracle** (the allocator's canonical semantics) — groups are
  split into edge-connected components and each is filled separately.
  This must match on *any* workload; the fuzz harness drives seeded random
  arrival/priority/size/scale-window sequences over the paper's 2+2, 4 and
  4+4 commodity servers (departures happen naturally as flows complete,
  which is how the production runner retires flows too).
* **global oracle** (the legacy allocator) — one fill over the whole
  priority group.  Its round deltas interleave across components, so on
  adversarial capacities it can differ from the component fill by an ulp;
  on the production workloads the two are floating-point coincident, which
  is exactly the trace-byte compatibility the corpus-workload test (and
  the ``repro simbench`` fingerprint gate) asserts.

The checked network also replays every component closure with the old
quadratic walk (every member of every edge of every popped flow) and
requires the edge-scanned production closure to return the same flows in
the same order, and a directed test pins the per-network fill memo's
invalidation at bandwidth-scale epochs.
"""

from __future__ import annotations

import random
from collections import defaultdict

from repro.hardware.topology import topo_2_2, topo_4, topo_4_4
from repro.sim.engine import Simulator
from repro.sim.resources import _EPS, FlowNetwork

GB = 1e9


# ----------------------------------------------------------------------
# Reference oracle: the pre-incremental progressive fill, kept verbatim.
# ----------------------------------------------------------------------


def _oracle_progressive_fill(flows, used, effective_bandwidth, rates):
    """The old ``FlowNetwork._progressive_fill``, on (uid, path) records."""
    unfrozen = {uid: path for uid, path in flows}
    for uid, _ in flows:
        rates[uid] = 0.0
    edge_flows = defaultdict(list)
    for uid, path in flows:
        for edge in path:
            edge_flows[edge].append(uid)

    while unfrozen:
        delta = float("inf")
        for edge, members in edge_flows.items():
            live = sum(1 for uid in members if uid in unfrozen)
            if not live:
                continue
            headroom = effective_bandwidth(edge) - used[edge]
            delta = min(delta, max(headroom, 0.0) / live)
        if delta == float("inf"):
            break
        for uid, path in unfrozen.items():
            rates[uid] += delta
            for edge in path:
                used[edge] += delta
        saturated = {
            edge
            for edge in edge_flows
            if used[edge] >= effective_bandwidth(edge) * (1 - _EPS)
            and any(uid in unfrozen for uid in edge_flows[edge])
        }
        if not saturated:
            if delta <= 0:
                break
            continue
        for edge in saturated:
            for uid in edge_flows[edge]:
                unfrozen.pop(uid, None)


def _split_components(records):
    """Edge-connected components of ``[(uid, path), ...]``, from scratch."""
    components = []
    remaining = list(records)
    while remaining:
        component = [remaining.pop(0)]
        edges = set(component[0][1])
        changed = True
        while changed:
            changed = False
            rest = []
            for uid, path in remaining:
                if any(edge in edges for edge in path):
                    component.append((uid, path))
                    edges.update(path)
                    changed = True
                else:
                    rest.append((uid, path))
            remaining = rest
        components.append(component)
    return components


def quadratic_closure(edge_members, seeds):
    """The old ``FlowNetwork._closure``: rescans every edge of every flow."""
    seen = set()
    stack = []
    for flow in seeds:
        if flow.uid not in seen:
            seen.add(flow.uid)
            stack.append(flow)
    out = []
    while stack:
        flow = stack.pop()
        out.append(flow)
        for edge in flow.path:
            for uid, other in edge_members[edge].items():
                if uid not in seen:
                    seen.add(uid)
                    stack.append(other)
    return out


def oracle_rates(network: FlowNetwork, *, decompose: bool) -> dict[int, float]:
    """From-scratch rates for the network's current flow set.

    ``decompose=True`` is the allocator's canonical per-component
    semantics; ``decompose=False`` is the legacy whole-group fill.
    """
    used: dict = defaultdict(float)
    by_priority: dict[int, list] = defaultdict(list)
    for flow in network.active_flows:
        by_priority[flow.priority].append((flow.uid, flow.path))
    rates: dict[int, float] = {}
    for priority in sorted(by_priority, reverse=True):
        group = by_priority[priority]
        pieces = _split_components(group) if decompose else [group]
        for piece in pieces:
            _oracle_progressive_fill(
                piece, used, network.effective_bandwidth, rates
            )
    return rates


class CheckedFlowNetwork(FlowNetwork):
    """FlowNetwork that cross-checks every reallocation against the oracle."""

    #: Also assert the legacy global fill (valid on production workloads,
    #: where its rounds are floating-point coincident with the component
    #: fill; not valid for adversarial fuzz capacities).
    check_global = False

    def __init__(self, sim, topology):
        super().__init__(sim, topology)
        self.checked_reallocations = 0
        self.checked_closures = 0

    def _closure(self, seeds):
        seeds = list(seeds)
        out = super()._closure(seeds)
        expected = quadratic_closure(self._edge_members, seeds)
        assert [flow.uid for flow in out] == [flow.uid for flow in expected], (
            f"edge-scanned closure diverged from the quadratic walk at "
            f"t={self.sim.now}"
        )
        self.checked_closures += 1
        return out

    def _reallocate(self, touched=None):
        super()._reallocate(touched)
        actual = {flow.uid: flow.rate for flow in self.active_flows}
        expected = oracle_rates(self, decompose=True)
        assert actual == expected, (
            f"incremental rates diverged from the from-scratch component "
            f"oracle at t={self.sim.now}: {actual} != {expected}"
        )
        if self.check_global:
            legacy = oracle_rates(self, decompose=False)
            assert actual == legacy, (
                f"rates diverged from the legacy global fill at "
                f"t={self.sim.now}: {actual} != {legacy}"
            )
        if self._flows:  # empty calls early-return uncounted in stats too
            self.checked_reallocations += 1


def _random_path(topology, rng):
    kind = rng.randrange(3)
    if kind == 0:
        return topology.path_to_dram(rng.randrange(topology.n_gpus))
    if kind == 1:
        return topology.path_from_dram(rng.randrange(topology.n_gpus))
    src = rng.randrange(topology.n_gpus)
    dst = rng.randrange(topology.n_gpus)
    if src == dst:
        dst = (dst + 1) % topology.n_gpus
    return topology.gpu_to_gpu_path(src, dst)


def _fuzz_topologies():
    return [topo_2_2(), topo_4(), topo_4_4()]


def _run_fuzz(topology, seed, n_arrivals=40, with_scales=True):
    rng = random.Random(seed)
    sim = Simulator()
    network = CheckedFlowNetwork(sim, topology)
    completed = []
    for _ in range(n_arrivals):
        at = rng.uniform(0.0, 3.0)
        path = _random_path(topology, rng)
        nbytes = rng.uniform(0.05, 2.5) * GB
        priority = rng.choice((0, 0, 0, 1, 1, 2))
        label = f"fuzz-{len(completed)}"

        def arrive(path=path, nbytes=nbytes, priority=priority, label=label):
            network.start_flow(
                path,
                nbytes,
                lambda: completed.append(label),
                priority=priority,
                label=label,
            )

        sim.schedule_at(at, arrive)
    if with_scales:
        edges = sorted(edge for edge, _ in topology.iter_links())
        for _ in range(6):
            edge = rng.choice(edges)
            factor = rng.choice((0.25, 0.5, 0.75))
            start = rng.uniform(0.0, 2.5)
            end = start + rng.uniform(0.2, 2.0)
            network.set_bandwidth_scale(edge, factor, start=start, end=end)
    sim.run()
    assert len(completed) == n_arrivals
    # Every arrival reallocates with >= 1 active flow, so each one passed
    # through the checked fill (completions may leave the network empty).
    assert network.checked_reallocations >= n_arrivals
    assert network.checked_closures >= n_arrivals
    return network


class TestIncrementalMatchesOracle:
    def test_fuzz_topo_2_2(self):
        for seed in range(6):
            _run_fuzz(topo_2_2(), seed)

    def test_fuzz_topo_4(self):
        for seed in range(6):
            _run_fuzz(topo_4(), seed)

    def test_fuzz_topo_4_4(self):
        for seed in range(6):
            _run_fuzz(topo_4_4(), seed)

    def test_fuzz_without_scale_events(self):
        for topology in _fuzz_topologies():
            _run_fuzz(topology, seed=99, with_scales=False)

    def test_reallocations_all_checked(self):
        network = _run_fuzz(topo_2_2(), seed=7, n_arrivals=12)
        assert network.stats.reallocations == network.checked_reallocations


class TestFillMemoAcrossScaleEpochs:
    """One flow set recurs before, during and after a scale window.

    Each burst starts the same two flows through GPU 0's and GPU 1's shared
    switch uplink, as the microbatches of a pipelined step do, so every
    fill after the first burst of an epoch is answered from the memo.  A
    memo that outlived a scale epoch would hand the in-window bursts the
    nominal rates (and the later bursts the degraded ones), which the
    checked network's from-scratch oracle rejects.
    """

    def test_rates_follow_the_oracle_and_fills_repeat(self):
        topology = topo_2_2()
        sim = Simulator()
        network = CheckedFlowNetwork(sim, topology)
        path_a = topology.path_to_dram(0)
        path_b = topology.path_to_dram(1)
        uplink = ("sw0", "rc0")
        assert uplink in path_a and uplink in path_b
        network.set_bandwidth_scale(uplink, 0.5, start=2.5, end=4.5)

        probes: dict[int, tuple[float, ...]] = {}
        reused_at: dict[str, int] = {}

        def burst(at):
            network.start_flow(path_a, 1.0 * GB, lambda: None, label="a")
            network.start_flow(path_b, 0.5 * GB, lambda: None, label="b")

            def probe():
                probes[at] = tuple(flow.rate for flow in network.active_flows)

            sim.schedule(0.01, probe)

        for at in range(7):
            sim.schedule_at(float(at), lambda at=at: burst(at))
        for stage, at in (("before", 2.4), ("during", 4.4)):
            sim.schedule_at(
                at, lambda stage=stage: reused_at.update(
                    {stage: network.stats.fills_reused}
                )
            )
        sim.run()
        reused_at["after"] = network.stats.fills_reused

        before = [probes[at] for at in (0, 1, 2)]
        during = [probes[at] for at in (3, 4)]
        after = [probes[at] for at in (5, 6)]
        nominal = topology.bandwidth_of(uplink) / 2
        assert before[0] == (nominal, nominal)
        assert all(rates == before[0] for rates in before + after)
        assert during[0] == (nominal * 0.5, nominal * 0.5)
        assert all(rates == during[0] for rates in during)
        # Every epoch re-ran its first fills and then reused them.
        assert reused_at["before"] > 0
        assert reused_at["during"] > reused_at["before"]
        assert reused_at["after"] > reused_at["during"]
        assert network.stats.scale_epochs == 2
        assert network.checked_reallocations == network.stats.reallocations


class TestLegacyGlobalFillOnProductionWorkload:
    """The legacy whole-group fill coincides bitwise on real workloads.

    This is the trace-byte compatibility claim behind the allocator
    rewrite: on the check-corpus task graphs (including a degraded-link
    scale window, as injected by ``faults.models.LinkDegradation``) the
    incremental component fill reproduces the legacy allocator's rates at
    every event — hence identical traces, as also pinned by the committed
    ``BENCH_sim.json`` fingerprints.
    """

    def test_corpus_cell_with_degradation_window(self):
        from repro.check.corpus import default_corpus
        from repro.core.api import plan_mobius
        from repro.core.pipeline import build_mobius_tasks
        from repro.sim.tasks import TaskGraphRunner

        cell = default_corpus()[0]
        report = plan_mobius(cell.model, cell.topology, cell.config)
        stage_costs = report.plan.partition.stage_costs(report.cost_model)
        tasks = build_mobius_tasks(
            report.plan,
            cell.topology,
            stage_costs,
            prefetch=cell.config.prefetch,
            use_priorities=cell.config.use_priorities,
        )
        runner = TaskGraphRunner(cell.topology)
        network = CheckedFlowNetwork(runner.sim, cell.topology)
        network.check_global = True
        runner.network = network
        network.set_bandwidth_scale(("sw0", "rc0"), 0.5, start=0.02, end=0.2)
        trace = runner.execute(tasks)
        assert network.checked_reallocations > 0
        assert trace.makespan > 0
