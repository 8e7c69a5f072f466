"""Figure 16: GPU-CPU communication bandwidth CDF on the DC server.

On the NVLink server, inter-GPU traffic leaves the PCIe tree, so the CDF of
*GPU-to-CPU* (DRAM) transfers shows how much contention remains.  Expected
shapes: the DeepSpeed/Mobius contention gap narrows relative to the
commodity server, but Mobius still sees less contention (fewer simultaneous
stage transfers).

Each (model, system) pair is one independent cell, run in grid order; the
suite's drain computes them ahead of assembly
(:mod:`repro.experiments.schedule`).
"""

from __future__ import annotations

from repro.analysis.bandwidth import fraction_of_bytes_above
from repro.experiments.runner import (
    ExperimentCell,
    ExperimentTable,
    print_tables,
)
from repro.hardware.topology import datacenter_server
from repro.models.zoo import gpt_8b, gpt_15b

__all__ = ["cells", "run", "main"]

#: Transfer kinds that cross the GPU-CPU (PCIe/DRAM) boundary.
_DRAM_KINDS = (
    "param-upload",
    "act-offload",
    "act-upload",
    "grad-offload",
    "shard-restore",
)


def _models(fast: bool):
    return [gpt_8b] if fast else [gpt_8b, gpt_15b]


def cells(fast: bool = False) -> tuple[ExperimentCell, ...]:
    """The (model, system) grid on the data-center server."""
    return tuple(
        ExperimentCell(
            system=system,
            model=model_factory(),
            topology=datacenter_server(),
            microbatch_size=2,
        )
        for model_factory in _models(fast)
        for system in ("deepspeed", "mobius")
    )


def run(fast: bool = False) -> ExperimentTable:
    """Regenerate Figure 16's summary statistics.

    Args:
        fast: Only the 8B model (the CI subset).
    """
    table = ExperimentTable(
        title="Figure 16: GPU-CPU bandwidth CDF summary on the DC server",
        columns=("model", "system", "median_GBps", "above_8GBps"),
    )
    for cell in cells(fast):
        result = cell.run()
        assert result.trace is not None
        table.add_row(
            cell.model.name,
            cell.system,
            result.trace.median_bandwidth(kinds=_DRAM_KINDS) / 1e9,
            fraction_of_bytes_above(result.trace, 8.0, kinds=_DRAM_KINDS),
        )
    table.notes.append(
        "paper: the DS/Mobius contention gap narrows on the DC server, "
        "but Mobius's GPU-CPU transfers still contend less"
    )
    return table


def main() -> None:
    print_tables(run())


if __name__ == "__main__":
    main()
