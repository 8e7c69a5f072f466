"""Figure 14: Mobius's scalability on the commodity GPU server.

Trains the 15B model sweeping the GPU count from 2 to 8 (each half of the
GPUs on a separate root complex), microbatch size 1, batch size growing
with the GPU count (M = N).  Expected shapes: throughput scales at least
linearly with even GPU counts; odd counts dip slightly (uneven root-complex
contention).

Each GPU count is one independent cell, run in sweep order; the suite's
drain computes them ahead of assembly (:mod:`repro.experiments.schedule`).
"""

from __future__ import annotations

from repro.core.api import MobiusConfig
from repro.experiments.runner import (
    ExperimentCell,
    ExperimentTable,
    print_tables,
)
from repro.hardware.topology import commodity_server
from repro.models.zoo import gpt_15b

__all__ = ["cells", "run", "main"]


def _sweep(fast: bool) -> list[tuple[int, list[int]]]:
    gpu_counts = (2, 4, 8) if fast else (2, 3, 4, 5, 6, 7, 8)
    return [(n, [n - n // 2, n // 2] if n > 1 else [1]) for n in gpu_counts]


def _cell(groups: list[int]) -> ExperimentCell:
    return ExperimentCell(
        system="mobius",
        model=gpt_15b(),
        topology=commodity_server(groups),
        mobius_config=MobiusConfig(microbatch_size=1, partition_time_limit=2.0),
    )


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """The GPU-count sweep, one cell per server size."""
    return tuple(_cell(groups) for _, groups in _sweep(fast))


def run(fast: bool = False) -> ExperimentTable:
    """Regenerate Figure 14.

    Args:
        fast: Sweep only the even GPU counts (the CI subset).
    """
    table = ExperimentTable(
        title="Figure 14: Mobius scalability (15B model, samples/second)",
        columns=("gpus", "groups", "step_s", "throughput", "linear_ref", "speedup_vs_linear"),
    )
    baseline_throughput = None
    for n, groups in _sweep(fast):
        result = _cell(groups).run()
        assert result.ok
        samples = result.extras["plan_report"].plan.n_microbatches  # mbs 1, M = N
        throughput = samples / result.step_seconds
        if baseline_throughput is None:
            baseline_throughput = throughput / n
        linear = baseline_throughput * n
        table.add_row(
            n,
            "+".join(map(str, groups)),
            result.step_seconds,
            throughput,
            linear,
            f"{throughput / linear:.2f}",
        )
    table.notes.append("paper: Mobius exceeds perfect linear scaling on even GPU counts")
    table.notes.append("paper: odd counts dip from uneven root-complex contention")
    return table


def main() -> None:
    print_tables(run())


if __name__ == "__main__":
    main()
