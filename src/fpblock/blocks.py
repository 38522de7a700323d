"""Domain decomposition: solve the least-norm problem block by block.

Each block gets its own grid that keeps the global physical coordinates and
its own least-norm solve against the restriction of the reference. Its
interior operator is a window of the one operator assembled on the whole
partitioned grid: a block's interior rows are rows of that grid, and their
stencils never leave the block, so the drift is evaluated once per partition
rather than once per block. Blocks of one shape whose normal systems are
factored directly are solved as stacks, one least-norm call per stack, each
block with the numbers of its own solve. A block may be widened by a halo of
iota cells per side, of which only the core cells are kept. The per-block
solutions are then collaged back into one field. Failure of any block fails
the whole solve; there is no partial output to mistake for a converged field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CollageError, DimensionError, RankDeficiencyError
from .grids import BlockPartition, DensityField, Grid, enumerate_blocks
from .leastnorm import SolveOptions, SolveReport, solve_least_norm, stack_limit
from .models import ModelSpec
from .operator import InteriorOperator, assemble

Ranges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BlockSolveConfig:
    partition: BlockPartition
    solve: SolveOptions = field(default_factory=SolveOptions)


@dataclass(frozen=True)
class BlockReport:
    """Per-block solve outcome, in enumeration order."""

    index: tuple[int, ...]
    cells: Ranges
    solve: SolveReport


def restrict(fld: DensityField, ranges: Ranges) -> DensityField:
    """Restriction of a field to a cell-range box, coordinates preserved."""
    sub = fld.grid.subgrid(ranges)
    view = fld.reshaped()[tuple(slice(a, b) for a, b in ranges)]
    return DensityField(sub, view.ravel())


def collage(grid: Grid, pieces) -> DensityField:
    """Assemble (ranges, values) pieces into one field on the grid.

    Pieces must tile the grid exactly; a gap or a double write raises
    CollageError since either means the partition bookkeeping broke.
    """
    out = np.zeros(grid.shape)
    covered = np.zeros(grid.shape, dtype=bool)
    for ranges, values in pieces:
        if isinstance(values, DensityField):
            values = values.values
        sl = tuple(slice(a, b) for a, b in ranges)
        if covered[sl].any():
            raise CollageError(f"cell ranges {ranges} were already written")
        shape = tuple(b - a for a, b in ranges)
        out[sl] = np.asarray(values, dtype=float).reshape(shape)
        covered[sl] = True
    if not covered.all():
        raise CollageError("the pieces leave part of the grid uncovered")
    return DensityField(grid, out.ravel())


def solve_blocks(
    model: ModelSpec, v: DensityField, cfg: BlockSolveConfig, iota: int = 0
) -> tuple[DensityField, list[BlockReport]]:
    """Least-norm solves on every block widened by iota cells, then collage.

    v lives on the partition's grid inflated by iota cells per side; each
    block is solved on its core range widened by iota cells, and only the
    core cells are kept. iota = 0 is the plain block solve; a negative iota
    raises ConfigurationError. Reports come in enumeration order.

    The operator is assembled once, on v's grid, before any block is solved,
    so a drift that is not finite at any cell an interior row of that grid
    reads raises ConfigurationError even where no block reads it (the
    interior corners of blocks). Each block solves on the window of its rows.
    Blocks of one shape, in enumeration order, are solved as stacks of up to
    stack_limit of them, one solve_least_norm call per stack; each keeps the
    field and report of its own solve. A RankDeficiencyError names the block
    that failed.
    """
    expected = cfg.partition.grid.inflate(iota)
    if v.grid != expected:
        raise DimensionError(
            f"reference grid {v.grid.n} is not the partitioned grid inflated by "
            f"iota={iota}, {expected.n}; sample with matching inflation"
        )
    whole = assemble(model, v.grid)
    blocks = enumerate_blocks(cfg.partition)
    spans = [tuple((a, b + 2 * iota) for a, b in block.core) for block in blocks]
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, ranges in enumerate(spans):
        by_shape.setdefault(tuple(b - a for a, b in ranges), []).append(i)
    pieces = []
    reports: list[BlockReport | None] = [None] * len(blocks)
    for shape, indices in by_shape.items():
        size = stack_limit(shape)
        core = tuple(slice(iota, m - iota) for m in shape)
        for stack in (indices[s : s + size] for s in range(0, len(indices), size)):
            local = [restrict(v, spans[i]) for i in stack]
            # interior row r of a block is interior row r + a of v's grid
            windows = [
                whole.coefficients[(slice(None), *(slice(a, b - 2) for a, b in spans[i]))]
                for i in stack
            ]
            op = InteriorOperator(local[0].grid, np.stack(windows))
            try:
                fields, rep = solve_least_norm(op, local, cfg.solve)
            except RankDeficiencyError as exc:
                block = blocks[stack[exc.member or 0]]
                raise RankDeficiencyError(
                    f"block {block.index}, cells {block.core}: {exc}", member=exc.member
                ) from exc
            for i, u_loc, member in zip(stack, fields, rep.members):
                block = blocks[i]
                pieces.append((block.core, u_loc.reshaped()[core]))
                reports[i] = BlockReport(index=block.index, cells=block.core, solve=member)
    return collage(cfg.partition.grid, pieces), reports


def worst_residual(reports: list[BlockReport]) -> float:
    return float(max(r.solve.residual_constraint for r in reports))
