"""Interior-stencil discretization of the stationary forward operator.

For an SDE dX = f(X) dt + eps dW the stationary density solves
0 = -div(f u) + (eps^2/2) Lap(u). On a uniform grid with width h the row
attached to an interior cell c reads, summed over dimensions k,

    (eps^2/2) (u_{c+e_k} - 2 u_c + u_{c-e_k}) / h^2
      - (f_k(x_{c+e_k}) u_{c+e_k} - f_k(x_{c-e_k}) u_{c-e_k}) / (2h),

with the drift evaluated at the neighbor cell centers. Rows exist only for
interior cells, so the matrix is rectangular and has a nontrivial kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import svdvals

from .errors import ConfigurationError, DimensionError, SizeError
from .grids import Grid
from .models import ModelSpec

_SVD_COLS_CAP = 4096
_RANK_RTOL = 1e-10


@dataclass
class InteriorOperator:
    """Sparse interior-stencil matrix together with its provenance."""

    grid: Grid
    model: ModelSpec
    matrix: sparse.csr_matrix
    _normal: sparse.csr_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return tuple(m - 2 for m in self.grid.n)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Residuals A @ values, one entry per interior cell."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size != self.matrix.shape[1]:
            raise DimensionError(
                f"vector of length {values.size} for operator with "
                f"{self.matrix.shape[1]} columns"
            )
        return self.matrix @ values

    def normal_matrix(self) -> sparse.csr_matrix:
        """A A^T, cached; symmetric positive definite when A has full row rank."""
        if self._normal is None:
            self._normal = (self.matrix @ self.matrix.T).tocsr()
        return self._normal


def assemble(model: ModelSpec, grid: Grid) -> InteriorOperator:
    """Build the interior-stencil matrix for a model on a grid.

    The result has one row per interior cell, (n_1-2)...(n_d-2) in total,
    and one column per cell. Columns touching only boundary cells are zero.
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

    axes = [np.arange(1, m - 1) for m in grid.n]
    mesh = np.meshgrid(*axes, indexing="ij")
    interior = np.stack([m.ravel() for m in mesh], axis=-1)
    n_rows = interior.shape[0]
    row_ids = np.arange(n_rows)
    lo = np.array(grid.lo)

    rows = [row_ids]
    cols = [np.ravel_multi_index(interior.T, grid.n)]
    vals = [np.full(n_rows, -2.0 * d * diff)]
    for k in range(d):
        for sgn in (1, -1):
            nb = interior.copy()
            nb[:, k] += sgn
            centers = lo + (nb + 0.5) * h
            f_k = np.asarray(model.drift(centers), dtype=float)[:, k]
            if not np.all(np.isfinite(f_k)):
                raise ConfigurationError(
                    f"drift returned non-finite values along dimension {k}"
                )
            rows.append(row_ids)
            cols.append(np.ravel_multi_index(nb.T, grid.n))
            vals.append(diff - sgn * adv * f_k)

    matrix = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_rows, grid.num_cells),
    ).tocsr()
    matrix.sort_indices()
    return InteriorOperator(grid=grid, model=model, matrix=matrix)


def _dense_rank(
    op: InteriorOperator, cols_cap: int, vectors: bool = False
) -> tuple[int, np.ndarray | None]:
    """Numerical rank of A from a dense SVD, with V^T when vectors is set.

    The rank counts singular values above 1e-10 times the largest one, so
    columns beyond min(rows, cols) count as exact zeros. Guarded by a column
    cap because the SVD is cubic in the grid size.
    """
    n_cols = op.matrix.shape[1]
    if n_cols > cols_cap:
        raise SizeError(
            f"dense SVD of {n_cols} columns exceeds the cap {cols_cap}; "
            "use the analysis module's closed-form basis for large grids"
        )
    dense = op.matrix.toarray()
    if vectors:
        _, s, vh = np.linalg.svd(dense, full_matrices=True)
    else:
        s, vh = svdvals(dense), None
    rank = int(np.sum(s > _RANK_RTOL * s[0])) if s.size else 0
    return rank, vh


def kernel_dimension(op: InteriorOperator, cols_cap: int = _SVD_COLS_CAP) -> int:
    """Numerical nullity of the operator: columns minus the dense SVD rank."""
    return op.matrix.shape[1] - _dense_rank(op, cols_cap)[0]
