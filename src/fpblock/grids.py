"""Uniform Cartesian grids, density fields on them, and block partitions.

Cells carry 0-based multi-indices, one entry per dimension, and flatten
row-major with the last index fastest; every array in the package follows
that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError

_H_RTOL = 1e-12
_MIN_BLOCK_CELLS = 5


@dataclass(frozen=True, eq=False)
class Grid:
    """Axis-aligned box split into uniform cells of one common width h.

    Args:
        lo: lower corner of the box, one entry per dimension.
        hi: upper corner of the box.
        n: number of cells per dimension.

    The constructor rejects anisotropic meshes: (hi-lo)/n must agree across
    dimensions to a relative tolerance of 1e-12, because the interior stencil
    assumes a single h.

    Equality compares cell counts exactly and bounds up to a tiny fraction
    of h, so grids rebuilt from serialized headers or by nested subgrid
    arithmetic still compare equal.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    n: tuple[int, ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        if self.n != other.n:
            return False
        slack = 1e-9 * self.h
        return all(
            abs(a - b) <= slack
            for a, b in zip(self.lo + self.hi, other.lo + other.hi)
        )

    def __hash__(self) -> int:
        return hash(self.n)

    def __post_init__(self):
        lo = tuple(float(a) for a in self.lo)
        hi = tuple(float(b) for b in self.hi)
        n = tuple(int(m) for m in self.n)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "n", n)
        if not (len(lo) == len(hi) == len(n)):
            raise DimensionError("lo, hi and n must have the same length")
        if len(n) == 0:
            raise ConfigurationError("grid needs at least one dimension")
        if any(m < 1 for m in n):
            raise ConfigurationError(f"cell counts must be positive, got {n}")
        if not np.isfinite(lo + hi).all():
            raise ConfigurationError(f"grid bounds must be finite, got lo={lo} hi={hi}")
        if any(b <= a for a, b in zip(lo, hi)):
            raise ConfigurationError("every upper bound must exceed its lower bound")
        widths = [(b - a) / m for a, b, m in zip(lo, hi, n)]
        h = widths[0]
        if any(abs(w - h) > _H_RTOL * abs(h) for w in widths):
            raise ConfigurationError(
                f"anisotropic cell widths {widths}: the discretization assumes one h"
            )

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def h(self) -> float:
        return (self.hi[0] - self.lo[0]) / self.n[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @property
    def num_cells(self) -> int:
        return math.prod(self.n)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def axis_centers(self, k: int) -> np.ndarray:
        """Cell-center coordinates along dimension k."""
        return self.lo[k] + (np.arange(self.n[k]) + 0.5) * self.h

    def centers(self) -> np.ndarray:
        """All cell centers as a (num_cells, dim) array in flat order."""
        axes = [self.axis_centers(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def inflate(self, iota: int) -> "Grid":
        """Grid padded by iota extra cells on every side, same cell width."""
        if iota < 0:
            raise ConfigurationError("inflation must be nonnegative")
        if iota == 0:
            return self
        h = self.h
        return Grid(
            tuple(a - iota * h for a in self.lo),
            tuple(b + iota * h for b in self.hi),
            tuple(m + 2 * iota for m in self.n),
        )

    def subgrid(self, ranges: tuple[tuple[int, int], ...]) -> "Grid":
        """Grid covering the cells in the given 0-based half-open ranges.

        The sub-block keeps the physical coordinates of the parent: cell
        centers of the subgrid coincide with the parent's.
        """
        if len(ranges) != self.dim:
            raise DimensionError("one cell range per dimension is required")
        h = self.h
        lo, hi, n = [], [], []
        for (a, b), m, c in zip(ranges, self.n, self.lo):
            if not 0 <= a < b <= m:
                raise ConfigurationError(f"cell range {(a, b)} outside 0..{m}")
            lo.append(c + a * h)
            hi.append(c + b * h)
            n.append(b - a)
        return Grid(tuple(lo), tuple(hi), tuple(n))


def flat_bin_indices(grid: Grid, points: np.ndarray) -> np.ndarray:
    """Flat 0-based cell indices for an (m, dim) array of points.

    Points outside the box get index -1. Bins are half-open on the right,
    except the last cell per dimension, which is closed so that points
    exactly on hi are still counted.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    if p.shape[1] != grid.dim:
        raise DimensionError(f"points of shape {p.shape} on a {grid.dim}-d grid")
    lo = np.array(grid.lo)
    hi = np.array(grid.hi)
    n = np.array(grid.n)
    raw = np.floor((p - lo) / grid.h).astype(np.int64)
    on_hi = (raw == n) & (p <= hi)
    raw = np.where(on_hi, n - 1, raw)
    inside = np.all((raw >= 0) & (raw < n), axis=1)
    flat = np.full(p.shape[0], -1, dtype=np.int64)
    if np.any(inside):
        flat[inside] = np.ravel_multi_index(raw[inside].T, grid.shape)
    return flat


@dataclass(frozen=True, eq=False)
class DensityField:
    """Cell values on a grid, stored flat in the grid's row-major order."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            if vals.shape != self.grid.shape:
                raise DimensionError(
                    f"values of shape {vals.shape} on grid of shape {self.grid.shape}"
                )
            vals = vals.ravel()
        elif vals.size != self.grid.num_cells:
            raise DimensionError(
                f"{vals.size} values on a grid of {self.grid.num_cells} cells"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "DensityField":
        """Sample a callable of (num_cells, dim) points at all cell centers."""
        return cls(grid, np.asarray(fn(grid.centers()), dtype=float))

    def reshaped(self) -> np.ndarray:
        """Read-only view with the grid's shape."""
        return self.values.reshape(self.grid.shape)

    @property
    def mass(self) -> float:
        return float(self.grid.cell_volume * self.values.sum())

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    def renormalized(self) -> "DensityField":
        """Scaled copy with unit mass."""
        m = self.mass
        if m == 0.0:
            raise ConfigurationError("cannot renormalize a zero-mass field")
        return DensityField(self.grid, self.values / m)


@dataclass(frozen=True)
class Block:
    """One tile of a partition: 0-based half-open cell ranges per dimension."""

    index: tuple[int, ...]
    core: tuple[tuple[int, int], ...]


def _check_block_counts(blocks: tuple[int, ...]) -> None:
    if any(b < 1 for b in blocks):
        raise ConfigurationError(f"block counts must be positive, got {blocks}")


def _check_shift_fractions(shift: tuple[float, ...]) -> None:
    if any(not 0.0 <= s < 1.0 for s in shift):
        raise ConfigurationError(f"shift fractions must lie in [0, 1), got {shift}")


@dataclass(frozen=True)
class BlockPartition:
    """Division of a grid into equal blocks, optionally shifted.

    Args:
        grid: the partitioned grid.
        blocks: number of blocks per dimension; must divide the cell counts.
        shift: per-dimension fractions of the block size by which block
            boundaries are translated; partial edge blocks fill the rest.
    """

    grid: Grid
    blocks: tuple[int, ...]
    shift: tuple[float, ...] = ()

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        shift = tuple(float(s) for s in self.shift)
        object.__setattr__(self, "shift", shift)
        if len(blocks) != self.grid.dim:
            raise DimensionError("one block count per grid dimension is required")
        _check_block_counts(blocks)
        if any(m % b != 0 for m, b in zip(self.grid.n, blocks)):
            raise ConfigurationError(
                f"cell counts {self.grid.n} not divisible by block counts {blocks}"
            )
        if shift and len(shift) != self.grid.dim:
            raise DimensionError("one shift fraction per dimension is required")
        _check_shift_fractions(shift)
        for m, b in zip(self.grid.n, blocks):
            if m // b < _MIN_BLOCK_CELLS:
                raise ConfigurationError(
                    f"block size {m // b} < {_MIN_BLOCK_CELLS}: the interior stencil "
                    "needs at least three interior cells per dimension"
                )

    @property
    def block_size(self) -> tuple[int, ...]:
        return tuple(m // b for m, b in zip(self.grid.n, self.blocks))


def _axis_cuts(n: int, size: int, offset: int) -> list[tuple[int, int]]:
    """Half-open pieces tiling 0..n with boundaries at offset + k*size."""
    cuts = [0]
    start = offset if offset > 0 else size
    c = start
    while c < n:
        cuts.append(c)
        c += size
    cuts.append(n)
    return list(zip(cuts[:-1], cuts[1:]))


def enumerate_blocks(partition: BlockPartition) -> list[Block]:
    """Deterministic row-major list of the partition's blocks.

    With a shift, boundaries move by round(shift * block_size) cells and
    partial edge blocks are emitted at both ends. Every emitted block must
    still be at least 5 cells wide per dimension.
    """
    grid = partition.grid
    sizes = partition.block_size
    shift = partition.shift or (0.0,) * grid.dim
    per_dim: list[list[tuple[int, int]]] = []
    for n, size, s in zip(grid.n, sizes, shift):
        offset = int(np.floor(s * size + 0.5)) % size
        pieces = _axis_cuts(n, size, offset)
        for a, b in pieces:
            if b - a < _MIN_BLOCK_CELLS:
                raise ConfigurationError(
                    f"shift fraction {s} leaves a block only {b - a} cells wide"
                )
        per_dim.append(pieces)
    out: list[Block] = []
    for index in np.ndindex(*[len(p) for p in per_dim]):
        core = tuple(per_dim[k][i] for k, i in enumerate(index))
        out.append(Block(index=tuple(index), core=core))
    return out
