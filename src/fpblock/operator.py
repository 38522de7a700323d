"""Interior-stencil discretization of the stationary forward operator.

For an SDE dX = f(X) dt + eps dW the stationary density solves
0 = -div(f u) + (eps^2/2) Lap(u). On a uniform grid with width h the row
attached to an interior cell c reads, summed over dimensions k,

    (eps^2/2) (u_{c+e_k} - 2 u_c + u_{c-e_k}) / h^2
      - (f_k(x_{c+e_k}) u_{c+e_k} - f_k(x_{c-e_k}) u_{c-e_k}) / (2h),

with the drift evaluated at the neighbor cell centers. Rows exist only for
interior cells, so the matrix is rectangular and has a nontrivial kernel.
It is kept as its stencil, one coefficient array per offset, so products
with A, A^T and the diagonals of A A^T are sums of shifted slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, DimensionError
from .grids import Grid
from .models import ModelSpec

if TYPE_CHECKING:
    from scipy import sparse


def _stencil(d: int) -> list[tuple[int, ...]]:
    """The 2d + 1 offsets of the nearest-neighbour stencil in increasing flat
    order: -e_0, ..., -e_{d-1}, 0, e_{d-1}, ..., e_0."""
    units = [tuple(int(j == k) for j in range(d)) for k in range(d)]
    return [tuple(-x for x in e) for e in units] + [(0,) * d] + units[::-1]


# A run meets few grid shapes (blocks, partial edge blocks, halos), so the
# slicing plans are cached per shape, up to this many.
_PLANS = 256


@lru_cache(maxsize=_PLANS)
def _cells(n: tuple[int, ...]) -> tuple[tuple, ...]:
    """Per stencil offset o, the slice of a grid of shape n that holds the
    cells r + 1 + o of every interior row r, led by an Ellipsis so that it
    slices each member of a stack too."""
    return tuple(
        (..., *(slice(1 + x, m - 1 + x) for x, m in zip(o, n))) for o in _stencil(len(n))
    )


@dataclass(eq=False)
class InteriorOperator:
    """The interior-stencil matrix A of a model on a grid, as its stencil.

    coefficients has shape (2d + 1, *interior_shape): coefficients[j][r] is
    the entry of interior row r in the column of cell r + 1 + _stencil(d)[j].
    A stack of k operators on grids of grid's shape has a leading axis,
    (k, 2d + 1, *interior_shape), and is the block-diagonal matrix of its
    members: apply, apply_transpose and normal_matrix act on each member, and
    every entry that would couple two members is zero.
    """

    grid: Grid
    coefficients: np.ndarray

    @property
    def stack(self) -> tuple[int, ...]:
        """(k,) for a stack of k operators, () for one."""
        return self.coefficients.shape[: self.coefficients.ndim - self.grid.dim - 1]

    @property
    def shape(self) -> tuple[int, int]:
        k = math.prod(self.stack)
        return k * math.prod(self.interior_shape), k * self.grid.num_cells

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return tuple(m - 2 for m in self.grid.n)

    @property
    def _terms(self) -> np.ndarray:
        """The coefficients with the stencil axis first, (2d + 1, *stack,
        *interior_shape)."""
        return self.coefficients.swapaxes(0, 1) if self.stack else self.coefficients

    def apply(self, values: np.ndarray) -> np.ndarray:
        """A u for a field u given by its values on every cell in flat order:
        the residual of each interior row, in flat interior order. A stack
        takes its members' fields one after the other and returns one row of
        residuals per member.

        Raises DimensionError unless values holds one entry per cell. Each row
        sums its stencil's terms in increasing column order, as a product with
        the matrix property does.
        """
        u, stack = np.asarray(values, dtype=float), self.stack
        if u.size != self.shape[1]:
            raise DimensionError(
                f"vector of length {u.size} for operator with {self.shape[1]} columns"
            )
        u = u.reshape(*stack, *self.grid.n)
        terms = zip(self._terms, _cells(self.grid.n))
        return sum(k * u[c] for k, c in terms).reshape(*stack, -1)

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        """A^T y for one value per interior row, as one value per cell (one row
        of them per member of a stack); each cell sums its rows' terms in
        increasing row order."""
        stack = self.stack
        out = np.zeros((*stack, *self.grid.n))
        y = np.asarray(y, dtype=float).reshape(*stack, *self.interior_shape)
        for k, cells in zip(self._terms[::-1], _cells(self.grid.n)[::-1]):
            out[cells] += k * y
        return out.reshape(*stack, -1)

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        """A as a CSR matrix, built on first use (block diagonal for a stack):
        each row holds its 2d + 1 stencil entries in increasing column order."""
        from scipy import sparse

        width, rows = len(self._terms), self.shape[0]
        cells = np.arange(self.shape[1]).reshape(*self.stack, *self.grid.n)
        cols = np.stack([cells[c].ravel() for c in _cells(self.grid.n)], axis=1)
        data = self._terms.reshape(width, rows).T.ravel()
        indptr = np.arange(0, width * rows + 1, width)
        return sparse.csr_matrix((data, cols.ravel(), indptr), shape=self.shape)

    def normal_matrix(self, axes: tuple[int, ...] | None = None) -> sparse.dia_matrix:
        """A A^T as a DIA matrix, with its rows in the order of the interior
        transposed to axes (natural order by default); a stack's members
        follow one another, each in that order.

        Row R and column C couple through every pair of stencil offsets
        (o, o') with o - o' = C - R, by K_o[R] K_o'[C]. Each pair on or below
        the diagonal adds its slice product there, in increasing order of o,
        so every entry is rounded as in the CSR product A A^T, which is
        exactly symmetric; the diagonals above are copies of their mirrors.
        A member's diagonals end where its rows do, so a stack's normal matrix
        is block diagonal.
        """
        from scipy import sparse

        axes = tuple(range(self.grid.dim)) if axes is None else tuple(axes)
        shape = tuple(self.interior_shape[k] for k in axes)
        products, offsets, mirrors = _normal_plan(shape, axes)
        stack = self.stack
        lead = tuple(range(len(stack)))
        coefficients = [
            k.transpose(*lead, *(len(lead) + a for a in axes)) for k in self._terms
        ]
        n = math.prod(shape)
        data = np.zeros((len(offsets), *stack, n))
        planes = data.reshape(len(offsets), *stack, *shape)
        for i, o, p, rows, cols in products:
            planes[i][cols] += coefficients[o][rows] * coefficients[p][cols]
        for up, low, f in mirrors:
            data[up, ..., f:] = data[low, ..., : n - f]
        size = self.shape[0]
        data = data.reshape(len(offsets), size)
        return sparse.dia_matrix((data, offsets), shape=(size, size))


@lru_cache(maxsize=_PLANS)
def _normal_plan(shape: tuple[int, ...], axes: tuple[int, ...]):
    """How normal_matrix builds A A^T on an interior of the given shape, its
    axes taken in the order axes.

    Returns the slice products (diagonal, o, o', rows R, columns C) of the
    stencil pairs whose difference C - R lies on or below the diagonal and
    couples some cells, in increasing order of o, each slice led by an
    Ellipsis as in _cells; the sorted flat offsets of the diagonals; and each
    diagonal above with the one it mirrors and its offset. Where an axis after
    the first is 2 or 3 cells long, two differences share a flat offset; their
    products fall on disjoint cells of that diagonal and are summed.
    """
    strides = np.array([math.prod(shape[k + 1 :]) for k in range(len(shape))])
    stencil = [np.array(o)[list(axes)] for o in _stencil(len(shape))]
    pairs = [(o, p, a - b) for o, a in enumerate(stencil) for p, b in enumerate(stencil)]
    # a difference as long as a side couples nothing
    pairs = [(o, p, e, int(e @ strides)) for o, p, e in pairs if all(abs(e) < shape)]
    lower = sorted({f for *_, f in pairs if f <= 0})
    offsets = tuple(lower + [-f for f in reversed(lower) if f < 0])
    row = {f: i for i, f in enumerate(offsets)}
    products = tuple(
        (
            row[f],
            o,
            p,
            (..., *(slice(max(-x, 0), m - max(x, 0)) for x, m in zip(e, shape))),
            (..., *(slice(max(x, 0), m + min(x, 0)) for x, m in zip(e, shape))),
        )
        for o, p, e, f in pairs
        if f <= 0
    )
    return products, offsets, tuple((row[-f], row[f], -f) for f in lower if f < 0)


def assemble(model: ModelSpec, grid: Grid) -> InteriorOperator:
    """Build the interior-stencil operator of a model on a grid.

    The result has one row per interior cell, (n_1-2)...(n_d-2) in total,
    and one column per cell. Columns touching only boundary cells are zero.
    The drift is evaluated once, at every cell center.
    """
    if model.dim != grid.dim:
        raise DimensionError(
            f"{model.dim}-d model on a {grid.dim}-d grid"
        )
    if any(m < 3 for m in grid.n):
        raise ConfigurationError(
            f"grid shape {grid.n} has no interior cells in some dimension"
        )
    h = grid.h
    d = grid.dim
    diff = 0.5 * model.epsilon**2 / (h * h)
    adv = 0.5 / h
    drift = np.asarray(model.drift(grid.centers()), dtype=float).reshape(*grid.n, d)
    op = InteriorOperator(grid, np.empty((2 * d + 1, *(m - 2 for m in grid.n))))
    for j, (o, cells) in enumerate(zip(_stencil(d), _cells(grid.n))):
        if not any(o):
            op.coefficients[j] = -2.0 * d * diff
            continue
        k = int(np.flatnonzero(o)[0])
        f_k = drift[cells + (k,)]
        if not np.all(np.isfinite(f_k)):
            raise ConfigurationError(
                f"drift returned non-finite values along dimension {k}"
            )
        op.coefficients[j] = diff - (o[k] * adv) * f_k
    return op
