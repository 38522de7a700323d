"""Interface-error repair on top of the plain block solver.

The plain collage concentrates its error near block boundaries, where each
local solve lacked neighbor information. Two remedies are implemented:

* overlapping blocks: every block is solved on an iota-extended range of an
  inflated reference histogram and only the core cells are kept, so the
  polluted outer rim of each local solution is discarded rather than
  blended;
* shifting blocks: the whole block solve is repeated with the partition
  translated by a fraction of the block size, each round projecting the
  previous round's output, so former interface cells land in block
  interiors and get repaired.

solve_method is the one place that picks between the plain solver and these
two repairs, and trims a reference to the halo the chosen method reads.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

# assemble, solve_least_norm and collage stay for the benchmark tracer
from .blocks import BlockReport, BlockSolveConfig, collage, restrict, solve_blocks
from .errors import ConfigurationError, DimensionError
from .grids import BlockPartition, DensityField, enumerate_blocks
from .leastnorm import solve_least_norm
from .models import ModelSpec
from .operator import assemble

METHODS = ("plain", "overlap", "shift")
DEFAULT_SHIFT_SCHEDULE = (1.0 / 3.0, 2.0 / 3.0, 0.0)


def solve_overlapping(
    model: ModelSpec,
    v_extended: DensityField,
    cfg: BlockSolveConfig,
    iota: int = 1,
) -> tuple[DensityField, list[BlockReport]]:
    """Block solves on iota-extended ranges, keeping core cells only.

    v_extended lives on the partition's grid inflated by iota cells per side,
    so even boundary blocks can extend outward; iota = 0 is the plain solver.
    This is solve_blocks with a halo.
    """
    return solve_blocks(model, v_extended, cfg, iota)


def solve_shifting(
    model: ModelSpec,
    v: DensityField,
    cfg: BlockSolveConfig,
    schedule: tuple[float, ...] = DEFAULT_SHIFT_SCHEDULE,
) -> tuple[DensityField, list[list[BlockReport]]]:
    """Repeated block solves under a schedule of partition shifts.

    Round zero is the plain block solve of v. Each schedule entry s then
    re-partitions the grid with boundaries moved by round(s * block_size)
    cells (partial edge blocks included, so the rounds always cover the
    whole grid) and solves again, using the previous round's output as the
    reference. An empty schedule returns the plain solution. Solves start
    from scratch each round; the previous multiplier is a poor guess after
    the partition moved.

    Returns:
        The final field and the reports of every round, round-major.
    """
    shifted = shifted_partitions(cfg.partition, schedule)
    current, reports = solve_blocks(model, v, cfg)
    rounds = [reports]
    for part in shifted:
        current, reports = solve_blocks(model, current, replace(cfg, partition=part))
        rounds.append(reports)
    return current, rounds


def shifted_partitions(base: BlockPartition, schedule) -> list[BlockPartition]:
    """The partitions of the shift rounds after round zero, each enumerated so
    that a fraction out of range or too narrow an edge block fails early.
    """
    shifted = [replace(base, shift=(s,) * base.grid.dim) for s in schedule]
    for part in shifted:
        enumerate_blocks(part)
    return shifted


def solve_method(
    model: ModelSpec,
    v: DensityField,
    cfg: BlockSolveConfig,
    method: str,
    iota: int = 1,
    schedule: tuple[float, ...] = DEFAULT_SHIFT_SCHEDULE,
) -> tuple[DensityField, list[list[BlockReport]]]:
    """Block solve of v by one of METHODS, with the reports of every round.

    v lives on the partition's grid inflated by any whole number k of cells
    per side. It is first trimmed to the halo the method reads: iota cells
    for overlap, none for plain and shift. A k below that halo raises
    ConfigurationError; any other grid mismatch is left to solve_blocks,
    which raises DimensionError. The reports are round-major: one round for
    plain and overlap, len(schedule) + 1 for shift.
    """
    if method not in METHODS:
        raise ConfigurationError(f"method must be one of {METHODS}, got {method!r}")
    core = cfg.partition.grid
    halo = method_halo((method,), iota)
    k = max((v.grid.n[0] - core.n[0]) // 2, 0)
    if k < halo:
        raise ConfigurationError(
            f"overlap iota={halo} needs a reference sampled with --inflate {halo} "
            f"or more, got {k}"
        )
    if k > halo and v.grid == core.inflate(k):
        trim = k - halo
        v = restrict(v, tuple((trim, trim + m) for m in core.inflate(halo).n))
    if method == "shift":
        return solve_shifting(model, v, cfg, schedule)
    fld, reports = solve_blocks(model, v, cfg, halo)
    return fld, [reports]


def method_halo(methods, iota: int) -> int:
    """Cells per side that any of the methods reads around the core."""
    return iota if "overlap" in methods else 0


def method_settings(methods, iota: int, schedule: tuple[float, ...]) -> dict:
    """The iota and schedule that any of the methods reads, None for the rest."""
    return {
        "iota": iota if "overlap" in methods else None,
        "schedule": list(schedule) if "shift" in methods else None,
    }


def interface_jump(fld: DensityField, partition: BlockPartition) -> float:
    """Mean |u_left - u_right| over cell pairs straddling block interfaces.

    Uses the partition's unshifted boundaries; a repair method should push
    this below the plain solver's value.
    """
    if fld.grid != partition.grid:
        raise DimensionError("field and partition grids differ")
    arr = fld.reshaped()
    jumps = []
    for axis, (n, b) in enumerate(zip(fld.grid.n, partition.blocks)):
        size = n // b
        for cut in range(size, n, size):
            left = np.take(arr, cut - 1, axis=axis)
            right = np.take(arr, cut, axis=axis)
            jumps.append(np.abs(right - left).ravel())
    if not jumps:
        return 0.0
    return float(np.concatenate(jumps).mean())
