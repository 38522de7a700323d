"""Least-norm correction of a reference field toward the operator's kernel.

Given the interior operator A and a reference v, the solve returns the
minimizer of ||u - v||_2 subject to A u = 0. Writing u = A^T y + v, the
multiplier solves the normal system (A A^T) y = -A v, which is symmetric
positive definite whenever A has full row rank. The operator builds
A A^T as diagonals from products of its stencil's slices, and A v and A^T y
are stencil sums too, so a direct solve forms no CSR matrix. Small 1-D and
2-D systems, such as the blocks of a decomposed plane, take their rows with
the longer interior axis outermost, so that the band is two narrow sides
wide; the lower diagonals are copied into a LAPACK band, factored by banded
Cholesky (pbtrf) and solved once. Large and 3-D systems are converted to CSR
once and attacked with preconditioned conjugate gradients. On a large 1-D or
2-D system, such as a whole 128^2 grid, the preconditioner is a
smoothed-aggregation multigrid V-cycle: A A^T is a fourth-order operator, on
which the iterations of diagonal scaling alone roughly quadruple with each
mesh doubling. A 3-D system is preconditioned by the diagonal of A A^T
(Jacobi), which follows |f|^2 where advection outweighs diffusion; on the
eight 16^3 blocks of a sampled 32^3 Rossler grid a V-cycle halves the
iterations (1,595 to 823) but takes about six times as long. The
correction A^T y is orthogonal to Ker(A), so the result equals v plus the
kernel-orthogonal move of minimal length.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import (
    LinAlgError,
    cho_factor,
    cho_solve,
    cho_solve_banded,
    cholesky_banded,
)

from .errors import (
    ConfigurationError,
    DimensionError,
    NonConvergenceError,
    RankDeficiencyError,
)
from .grids import DensityField
from .operator import InteriorOperator

# Largest 1-D or 2-D system factored directly, in rows times the bandwidth of
# A A^T with the longest interior axis outermost, 2 prod(n_k-2) over all the
# other axes. The band holds rows times (bandwidth + 1) doubles, beside the 13
# diagonals of the DIA matrix it is copied from, so the cap bounds it at 1 MB
# plus one double per row: 32^2 and 34^2 blocks go direct (54 k and 65 k,
# 440 KB and 530 KB), while a 128^2 whole grid (4 M, 32 MB) stays on CG. 3-D
# systems always stay on CG: their band is two planes wide, and over the 70
# solves of a seed-0 rossler-3d-32 shift solve the band path took 0.72 s
# against 0.49 s for Jacobi-preconditioned CG.
_DIRECT_SIZE_CAP = 2**17
# Multigrid aggregates are blocks of 3^d cells. A A^T couples cells up to two
# apart along an axis, and with blocks of 3 the Galerkin operator of every
# coarser level does too, (3 - 1 + 3 * 2) // 3 = 2. With blocks of 2 the reach
# grows 2, 3, 5, ..., and the first coarse level of the 128^2 ring holds 140 k
# nonzeros against 35 k. A prototype with blocks of 2 peaked 7.4 MB above
# diagonal scaling's 69.9 MB in the benchmark, where 3.5 MB is allowed. Blocks
# of 2 take 119 iterations there, blocks of 3 take 201.
_AGGREGATE = 3
# The coarsest level is factored dense once it has at most this many rows. A
# triangular solve of 300 rows takes about 60 us, less than the numpy calls of
# one more level; of 600 rows, about 290 us.
_COARSEST_ROWS = 300
# The Gershgorin bound reads |M| this many rows at a time: its temporaries stay
# near 100 KB, where one copy of M's values is 1.6 MB on the 128^2 ring.
_STRIP_ROWS = 512


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

    A direct solve reports 0 iterations and, as factor_nnz, the entries of
    its stored band factor, rows times (bandwidth + 1); a CG solve reports
    its iterations and factor_nnz 0.
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
    """Rows times the bandwidth of A A^T with the longest interior axis
    outermost, known before factoring: the size of _direct's band factor
    less its diagonal."""
    return op.shape[0] * 2 * int(np.prod(sorted(op.interior_shape)[:-1]))


def _band_axes(shape: tuple[int, ...]) -> list[int]:
    """The interior axes from the longest to the shortest, ties in order: taken
    outermost first, they make the band of A A^T two narrow sides wide."""
    return sorted(range(len(shape)), key=lambda k: -shape[k])


def _lower_band(mat) -> np.ndarray:
    """The lower triangle of a square sparse matrix as a LAPACK lower band,
    (bandwidth + 1, rows), copied diagonal by diagonal from its DIA form, which
    the normal matrix already has."""
    dia = mat.todia()
    lower = dia.offsets <= 0
    band = np.zeros((1 - int(dia.offsets.min()), dia.shape[0]))
    band[-dia.offsets[lower], : dia.data.shape[1]] = dia.data[lower, : dia.shape[0]]
    return band


def _direct(mat, b: np.ndarray, rel_tol: float):
    """Banded Cholesky of an SPD sparse matrix and one solve, checked like a
    CG result.

    The band follows mat's own row order, so a caller that wants it narrow
    orders the rows first.
    """
    band = _lower_band(mat)
    # The lower form, because it is the fast one with 2 BLAS threads: on a 32^2
    # ring block (900 rows, bandwidth 60) of a 2-vCPU host, dpbtrf took about
    # 1.1 ms in lower form against 3.0 to 4.3 ms in upper form (SuperLU: 3.1 to
    # 5.7 ms); with 1 thread both forms took about 1.05 ms.
    try:
        factor = cholesky_banded(band, overwrite_ab=True, lower=True)
    except LinAlgError as exc:
        raise RankDeficiencyError(
            f"banded Cholesky of the normal system failed ({exc}): the "
            "operator appears rank deficient"
        ) from exc
    x = cho_solve_banded((factor, True), b)
    r = b - mat @ x
    norm_tol, inf_tol = _tolerances(b, rel_tol)
    if not (np.linalg.norm(r) <= norm_tol and np.max(np.abs(r)) <= inf_tol):
        raise RankDeficiencyError(
            "the factored normal system misses its residual tolerance: the "
            "operator appears rank deficient"
        )
    return x, factor.size


def _gershgorin(mat, dinv: np.ndarray) -> float:
    """Upper bound on the spectral radius of D^-1 M: its largest absolute
    row sum, read from M's stored values one strip of rows at a time."""
    bound = 0.0
    for lo in range(0, mat.shape[0], _STRIP_ROWS):
        strip = mat[lo : lo + _STRIP_ROWS]
        sums = np.add.reduceat(np.abs(strip.data), strip.indptr[:-1])
        bound = max(bound, float(np.max(sums * dinv[lo : lo + _STRIP_ROWS])))
    return bound


@dataclass
class _Level:
    """One level of the smoothed-aggregation hierarchy: its operator on a
    tensor grid and the damped Jacobi weights w = omega D^-1, which also
    smooth its prolongator."""

    mat: sparse.csr_matrix
    shape: tuple[int, ...]
    w: np.ndarray

    @property
    def coarse_shape(self) -> tuple[int, ...]:
        return tuple(-(-n // _AGGREGATE) for n in self.shape)

    def smooth(self, b: np.ndarray, x: np.ndarray, steps: int) -> np.ndarray:
        """steps damped Jacobi steps x += W (b - M x), in place."""
        for _ in range(steps):
            r = self.mat @ x
            np.subtract(b, r, out=r)
            r *= self.w
            x += r
        return x

    def prolong(self, xc: np.ndarray) -> np.ndarray:
        """P xc = (I - W M) T xc, with T the piecewise-constant prolongator of
        the blocks of _AGGREGATE^d cells (the last along an axis holds the
        remainder), applied by broadcasting."""
        coarse = self.coarse_shape
        t = np.broadcast_to(
            xc.reshape([v for c in coarse for v in (c, 1)]),
            [v for c in coarse for v in (c, _AGGREGATE)],
        ).reshape([_AGGREGATE * c for c in coarse])
        t = t[tuple(slice(n) for n in self.shape)].ravel()
        q = self.mat @ t
        q *= self.w
        t -= q
        return t

    def restrict(self, r: np.ndarray) -> np.ndarray:
        """P^T r = T^T (r - M W r), T^T summing each block by a reshape."""
        coarse = self.coarse_shape
        q = self.mat @ (self.w * r)
        np.subtract(r, q, out=q)
        full = np.zeros([_AGGREGATE * c for c in coarse])
        full[tuple(slice(n) for n in self.shape)] = q.reshape(self.shape)
        blocks = full.reshape([v for c in coarse for v in (c, _AGGREGATE)])
        return blocks.sum(axis=tuple(range(1, 2 * len(coarse), 2))).ravel()


def _galerkin(lvl: _Level, radius: int) -> sparse.csr_matrix:
    """P^T M P on lvl's coarse grid, whose couplings reach at most radius cells
    along each axis, found by probing.

    Coarse cells are coloured by their indices modulo 2 radius + 1, so the
    product with the sum of one colour's unit vectors holds, in each row, the
    one entry of that colour. The entries are gathered per row and offset;
    those below the diagonal are then copied from their mirror images, so the
    result is exactly symmetric.
    """
    shape = lvl.coarse_shape
    width = 2 * radius + 1
    box = (width,) * len(shape)
    cells = np.indices(shape).reshape(len(shape), -1)
    offsets = np.indices(box).reshape(len(shape), -1) - radius
    n, k = cells.shape[1], offsets.shape[1]
    inside = np.ones((n, k), dtype=bool)
    for c, o, m in zip(cells, offsets, shape):
        inside &= (c[:, None] + o >= 0) & (c[:, None] + o < m)
    strides = [int(np.prod(shape[a + 1 :])) for a in range(len(shape))]
    rows = np.arange(n)[:, None]
    flat = np.where(inside, rows + strides @ offsets, rows).astype(np.int32)
    colours = np.ravel_multi_index(cells % width, box)
    table = np.zeros((n, k))
    for colour in range(k):
        probe = lvl.restrict(lvl.mat @ lvl.prolong((colours == colour).astype(float)))
        target = np.array(np.unravel_index(colour, box))[:, None]
        table[rows[:, 0], np.ravel_multi_index((target - cells + radius) % width, box)] = probe
    # offsets are in lexicographic order, so offset j mirrors offset k - 1 - j
    lower = np.arange(k // 2)
    table[:, lower] = np.where(inside[:, lower], table[flat[:, lower], k - 1 - lower], 0.0)
    keep = inside & (table != 0.0)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sparse.csr_matrix((table[keep], flat[keep], indptr), shape=(n, n))


def _vcycle(mat, dinv: np.ndarray, shape: tuple[int, ...]):
    """The symmetric V-cycle z = B r of smoothed aggregation (Vanek, Mandel and
    Brezina, Computing 56, 1996), as a function.

    mat is a stencil system on the tensor grid shape whose couplings reach at
    most two cells along each axis, as every normal matrix A A^T of the
    interior operator's nearest-neighbour stencil does. Each level aggregates
    blocks of _AGGREGATE^d cells into the tentative prolongator T, smooths it
    by one Jacobi step, P = (I - omega D^-1 M) T with omega = 4 / (3 lambda)
    and lambda the Gershgorin bound on D^-1 M, and passes P^T M P down. P is
    never stored: T is a reshape and its smoothing one product with M. Levels
    are built until at most _COARSEST_ROWS rows remain, which are factored by
    dense Cholesky. The cycle runs two damped Jacobi steps, with the same
    omega, before and after the coarse correction and restricts by P^T, so B
    is symmetric, and positive definite since omega lambda = 4/3 < 2.
    """
    levels = []
    radius = 2
    try:
        while mat.shape[0] > _COARSEST_ROWS:
            lvl = _Level(mat, shape, (4.0 / (3.0 * _gershgorin(mat, dinv))) * dinv)
            levels.append(lvl)
            # P reaches radius cells past a block, so two coarse cells couple
            # when their blocks lie within 3 radius fine cells of each other
            radius = (_AGGREGATE - 1 + 3 * radius) // _AGGREGATE
            mat = _galerkin(lvl, radius)
            shape = lvl.coarse_shape
            diag = mat.diagonal()
            if not np.all(diag > 0.0):
                raise LinAlgError("non-positive diagonal entry")
            dinv = 1.0 / diag
        factor = cho_factor(mat.toarray(), overwrite_a=True)
    except LinAlgError as exc:
        raise RankDeficiencyError(
            f"a coarse level of the multigrid preconditioner is not positive "
            f"definite ({exc}): the operator appears rank deficient"
        ) from exc
    # a module-level _cycle, not a closure that calls itself: such a closure
    # is a reference cycle, and each solve's hierarchy would stay in memory
    # until the cycle collector ran (141 MB peak on the 128^2 benchmark)
    return lambda r: _cycle(levels, factor, r)


def _cycle(levels: list[_Level], factor, b: np.ndarray) -> np.ndarray:
    """One V-cycle from the finest of levels down to the factored coarsest."""
    if not levels:
        return cho_solve(factor, b)
    lvl = levels[0]
    x = lvl.smooth(b, lvl.w * b, 1)
    correction = _cycle(levels[1:], factor, lvl.restrict(b - lvl.mat @ x))
    x += lvl.prolong(correction)
    return lvl.smooth(b, x, 2)


def _cg(
    mat,
    b: np.ndarray,
    rel_tol: float,
    max_iters: int,
    shape: tuple[int, ...] | None = None,
):
    """Preconditioned conjugate gradients on an SPD sparse matrix, with the
    history of the unpreconditioned ||b - M x||, which is also what the
    stopping test reads.

    shape is the tensor grid of the system's rows. On a 1-D or 2-D grid the
    preconditioner is the smoothed-aggregation V-cycle of _vcycle; on a 3-D
    grid, or with no shape, it is the diagonal (Jacobi), since on 3-D blocks
    the V-cycle's set-up and extra products cost more than the iterations it
    saves. A non-positive diagonal raises before the preconditioner is built.
    """
    norm_tol, inf_tol = _tolerances(b, rel_tol)
    diag = mat.diagonal()
    if not np.all(diag > 0.0):
        raise RankDeficiencyError(
            "the normal system has a non-positive diagonal entry: the operator "
            "has an empty row"
        )
    dinv = 1.0 / diag
    if shape is not None and len(shape) <= 2:
        precondition = _vcycle(mat, dinv, shape)
    else:
        def precondition(r):
            return dinv * r
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r)
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
        z = precondition(r)
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
        band factor's stored entries, the worst constraint residual max|A u|,
        the moved distance ||u - v||_2, the most negative value of u, and wall
        time.
    """
    if opts is None:
        opts = SolveOptions()
    if v.grid != op.grid:
        raise DimensionError("reference field and operator live on different grids")
    t0 = time.perf_counter()
    b = -op.apply(v.values)
    shape = op.interior_shape
    direct = op.grid.dim <= 2 and _direct_size(op) <= _DIRECT_SIZE_CAP
    axes = _band_axes(shape) if direct else None
    normal = op.normal_matrix(axes)
    iters = factor_nnz = 0
    if not b.any():
        y = np.zeros_like(b)
    elif direct:
        b_band = b.reshape(shape).transpose(axes).ravel()
        x, factor_nnz = _direct(normal, b_band, opts.cg_rel_tol)
        y = x.reshape([shape[k] for k in axes]).transpose(np.argsort(axes)).ravel()
    else:
        # CG and the V-cycle read CSR; the DIA goes before the hierarchy is built
        normal = normal.tocsr()
        max_iters = opts.cg_max_iters
        if max_iters is None:
            max_iters = 10 * b.size
        y, iters, _ = _cg(normal, b, opts.cg_rel_tol, max_iters, shape)
    correction = op.apply_transpose(y)
    u = v.values + correction
    field = DensityField(v.grid, u)
    report = SolveReport(
        iterations=iters,
        factor_nnz=factor_nnz,
        residual_constraint=float(np.max(np.abs(op.apply(u)))),
        distance=float(np.linalg.norm(correction)),
        min_value=field.min_value,
        wall_time=time.perf_counter() - t0,
    )
    return field, report
