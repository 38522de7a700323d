"""Least-norm correction of a reference field toward the operator's kernel.

Given the interior operator A and a reference v, the solve returns the
minimizer of ||u - v||_2 subject to A u = 0. Writing u = A^T y + v, the
multiplier solves the normal system (A A^T) y = -A v, which is symmetric
positive definite whenever A has full row rank. Small 1-D and 2-D systems,
such as the blocks of a decomposed plane, are factored by sparse LU and
solved once; large and 3-D ones are attacked with conjugate gradients
preconditioned by the diagonal of A A^T, whose memory stays at a few
vectors. That diagonal follows |f|^2 where advection outweighs diffusion,
so scaling by it matters most on 3-D blocks. The correction A^T y is
orthogonal to Ker(A), so the result equals v plus the kernel-orthogonal
move of minimal length.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .errors import (
    ConfigurationError,
    DimensionError,
    NonConvergenceError,
    RankDeficiencyError,
)
from .grids import DensityField
from .operator import InteriorOperator

# Largest 1-D or 2-D system factored directly, in rows times the narrowest
# lexicographic bandwidth of A A^T, 2 prod(n_k-2) over all but the longest
# axis. On 2-D blocks the estimate tracks SuperLU's fill within a factor of
# about 0.3 to 1.2, so the cap keeps each factor near 1.5 MB: 32^2 and 34^2
# blocks go direct (54 k and 65 k), while a 128^2 whole grid (4 M), whose
# factor would cost tens of MB, stays on CG. 3-D systems always stay on CG:
# a 16^3 rossler block factors in about 100 ms, where Jacobi-preconditioned
# CG takes 5 to 40 ms, and on thin 3-D blocks the estimate does not track
# the factorization's cost.
_DIRECT_SIZE_CAP = 2**17


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the normal-equations solve.

    cg_rel_tol bounds the normal-system residual of both the direct and the
    CG path; cg_max_iters applies to CG only, and None means ten times the
    number of interior rows.
    """

    cg_rel_tol: float = 1e-10
    cg_max_iters: int | None = None

    def __post_init__(self):
        if not 0.0 < self.cg_rel_tol < 1.0:
            raise ConfigurationError(
                f"cg_rel_tol must lie in (0, 1), got {self.cg_rel_tol}"
            )
        if self.cg_max_iters is not None and self.cg_max_iters < 1:
            raise ConfigurationError("cg_max_iters must be positive")


@dataclass(frozen=True)
class SolveReport:
    """What the solve did and how well the constraint came out.

    A direct solve reports 0 iterations and the nonzeros of its L and U
    factors; a CG solve reports its iterations and factor_nnz 0.
    """

    iterations: int
    factor_nnz: int
    residual_constraint: float
    distance: float
    min_value: float
    wall_time: float


def _tolerances(b: np.ndarray, rel_tol: float) -> tuple[float, float]:
    """Bounds on ||r||_2 and max|r| that a solve of M x = b must meet."""
    return rel_tol * float(np.linalg.norm(b)), 10.0 * rel_tol * float(np.max(np.abs(b)))


def _direct_size(op: InteriorOperator) -> int:
    """Rows times the narrowest lexicographic bandwidth of A A^T, known before
    factoring and the same for every order of the axes."""
    return op.matrix.shape[0] * 2 * int(np.prod(sorted(op.interior_shape)[:-1]))


def _direct(mat, b: np.ndarray, rel_tol: float):
    """Sparse LU of an SPD matrix and one solve, checked like a CG result."""
    try:
        lu = splu(
            mat.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise RankDeficiencyError(
            f"sparse factorization of the normal system failed ({exc}): the "
            "operator appears rank deficient"
        ) from exc
    x = lu.solve(b)
    r = b - mat @ x
    norm_tol, inf_tol = _tolerances(b, rel_tol)
    if not (np.linalg.norm(r) <= norm_tol and np.max(np.abs(r)) <= inf_tol):
        raise RankDeficiencyError(
            "the factored normal system misses its residual tolerance: the "
            "operator appears rank deficient"
        )
    return x, lu.L.nnz + lu.U.nnz


def _cg(mat, b: np.ndarray, rel_tol: float, max_iters: int):
    """Conjugate gradients on an SPD sparse matrix, preconditioned by its
    diagonal (Jacobi), with the history of the unpreconditioned ||b - M x||."""
    norm_tol, inf_tol = _tolerances(b, rel_tol)
    diag = mat.diagonal()
    if not np.all(diag > 0.0):
        raise RankDeficiencyError(
            "the normal system has a non-positive diagonal entry: the operator "
            "has an empty row"
        )
    dinv = 1.0 / diag
    x = np.zeros_like(b)
    r = b.copy()
    z = dinv * r
    p = z.copy()
    step = np.empty_like(b)
    rz = float(r @ z)
    history = [float(np.sqrt(r @ r))]

    def converged() -> bool:
        return history[-1] <= norm_tol and np.max(np.abs(r)) <= inf_tol

    iters = 0
    while not converged():
        if iters >= max_iters:
            raise NonConvergenceError(
                f"conjugate gradients stalled at relative residual "
                f"{history[-1] / history[0]:.3e} after {iters} iterations",
                residual_history=history,
            )
        q = mat @ p
        curv = float(p @ q)
        if curv <= 0.0:
            raise RankDeficiencyError(
                "non-positive curvature in the normal system: the operator "
                "appears rank deficient"
            )
        alpha = rz / curv
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(q, alpha, out=step)
        history.append(float(np.sqrt(r @ r)))
        np.multiply(dinv, r, out=z)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
        iters += 1
    return x, iters, history


def solve_least_norm(
    op: InteriorOperator,
    v: DensityField,
    opts: SolveOptions | None = None,
) -> tuple[DensityField, SolveReport]:
    """Minimal-distance projection of v onto the constraint set A u = 0.

    Args:
        op: interior operator assembled on v's grid.
        v: reference field, typically a sampled histogram density.
        opts: solver options; defaults are tight enough for the diagnostics.

    Returns:
        The corrected field and a report with the CG iteration count or the
        factor's nonzeros, the worst constraint residual max|A u|, the moved
        distance ||u - v||_2, the most negative value of u, and wall time.
    """
    if opts is None:
        opts = SolveOptions()
    if v.grid != op.grid:
        raise DimensionError("reference field and operator live on different grids")
    t0 = time.perf_counter()
    a = op.matrix
    b = -(a @ v.values)
    normal = op.normal_matrix()
    iters = factor_nnz = 0
    if not b.any():
        y = np.zeros_like(b)
    elif op.grid.dim <= 2 and _direct_size(op) <= _DIRECT_SIZE_CAP:
        y, factor_nnz = _direct(normal, b, opts.cg_rel_tol)
    else:
        max_iters = opts.cg_max_iters
        if max_iters is None:
            max_iters = 10 * a.shape[0]
        y, iters, _ = _cg(normal, b, opts.cg_rel_tol, max_iters)
    correction = a.T @ y
    u = v.values + correction
    field = DensityField(v.grid, u)
    report = SolveReport(
        iterations=iters,
        factor_nnz=factor_nnz,
        residual_constraint=float(np.max(np.abs(a @ u))),
        distance=float(np.linalg.norm(correction)),
        min_value=field.min_value,
        wall_time=time.perf_counter() - t0,
    )
    return field, report
