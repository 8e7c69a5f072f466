"""Seeded input generation for the benchmark's workloads.

Everything here is plain data (JSON-ready dicts of names and numbers) built
from ``random.Random(seed)``: the same seed gives byte-identical inputs, and
the program under test receives only what these functions return — never
the seed.  Names refer to zoo models (``repro.models.zoo``) and standard
topologies (``repro.hardware.topology``); the workload code resolves them.
"""

from __future__ import annotations

import random

__all__ = ["SERVE_MODELS", "SERVE_TOPOLOGIES", "serve_inputs", "suite_inputs"]

#: Zoo factories the serve-mix requests plan (Table 3 models).
SERVE_MODELS = ("gpt_3b", "gpt_8b", "gpt_15b", "gpt_51b")
#: The 4-GPU wirings that share one partition solve per (model, bandwidth).
SERVE_WIRINGS_4 = ("topo_4", "topo_2_2", "topo_1_3")
SERVE_TOPOLOGIES = SERVE_WIRINGS_4 + ("topo_4_4",)
#: Client tenants; uniques pick one at random, exact repeats keep it.
SERVE_TENANTS = 4
#: Exact repeats inserted per block of 16 unique requests (6/22 ≈ a quarter).
SERVE_REPEATS_PER_BLOCK = 6
#: Bandwidth factors are drawn without replacement from this grid (per
#: model), so two unique requests never collide by accident.
_FACTOR_GRID = range(800, 1201)


def serve_inputs(seed: int, blocks: int) -> list[dict]:
    """The serve-mix request stream: ``blocks`` stratified blocks of 22.

    Per model, a block holds three 4-GPU wirings at one perturbed bandwidth
    (one partition solve shared across wirings) and one Topo 4+4 request at
    another (a cold 8-GPU solve), plus six exact repeats of earlier
    requests.  A block issues its four cold 4-GPU leads first, then the four
    8-GPU requests, then the eight wiring followers and the repeats in
    shuffled order.  With at most ``nproc`` requests in flight, followers
    and repeats then find their partition or plan cached, so every block has
    the same mix of cache hits and cold solves: the median falls among the
    cached answers and p90 among the 8-GPU solves instead of on the edge
    between populations.  The seed moves bandwidths, tenants, the lead
    wiring, the order within each phase and which requests repeat.
    """
    rng = random.Random(seed)
    factors = {model: rng.sample(_FACTOR_GRID, 2 * blocks) for model in SERVE_MODELS}
    stream: list[dict] = []
    for block in range(blocks):
        leads, eight_gpu, tail = [], [], []
        for model in SERVE_MODELS:
            shared, solo = factors[model][2 * block], factors[model][2 * block + 1]
            wirings = list(SERVE_WIRINGS_4)
            rng.shuffle(wirings)
            leads.append(_request(rng, model, wirings[0], shared))
            tail.extend(_request(rng, model, wiring, shared) for wiring in wirings[1:])
            eight_gpu.append(_request(rng, model, "topo_4_4", solo))
        for phase in (leads, eight_gpu, tail):
            rng.shuffle(phase)
        for _ in range(SERVE_REPEATS_PER_BLOCK):
            # Repeat anything answered before this block's tail started;
            # this block's 8-GPU solves may still be in flight.
            position = rng.randrange(len(tail) + 1)
            earlier = stream + leads + tail[:position]
            tail.insert(position, dict(rng.choice(earlier)))
        stream.extend(leads + eight_gpu + tail)
    return stream


def _request(rng: random.Random, model: str, topology: str, factor_milli: int) -> dict:
    return {
        "model": model,
        "topology": topology,
        "bandwidth_factor": factor_milli / 1000,
        "tenant": f"tenant-{rng.randrange(SERVE_TENANTS)}",
    }


def suite_inputs(seed: int) -> dict:
    """The figure suite is a fixed paper sweep: the seed is recorded only.

    It drains in-process (``jobs=1``): in a fixed order, a cold suite's
    wall is steadier from run to run than with a pool of ``nproc``
    processes contending for ``nproc`` shared CPUs.
    """
    return {"fast": True, "jobs": 1, "seed_unused": seed}
