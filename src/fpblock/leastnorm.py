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
Cholesky (dpbtrf) and solved once (dpbtrs). They may come as a stack of
same-shape members, whose products are made once per stack and each of which
is factored on its own band, with the numbers of its own solve. Large and 3-D
systems are attacked with preconditioned conjugate gradients, which read the
DIA matrix as it is built.
On a large 1-D or 2-D system, such as a whole 128^2 grid, the preconditioner
is a smoothed-aggregation multigrid V-cycle whose coarse spaces hold the
constant and linear functions on every aggregate: A A^T is a fourth-order
operator, on which the iterations of diagonal scaling alone roughly quadruple
with each mesh doubling, and those of piecewise-constant aggregates double
(201, 424 and 864 at 128^2, 256^2 and 512^2, against 32, 38 and 60 with the
linear functions). Each level's tentative prolongator T is one CSR matrix
with d + 1 entries per row. The smoothed prolongator is applied on the fly on
the fine level, where A A^T has 13 diagonals, and stored on the coarser levels
as the CSC matrix of one sparse product, T - W (M T). The first coarse
operator is the Gram matrix (A^T P)^T (A^T P), read from 3^d (d + 1) probes of
A^T P without the 12 of its 85 diagonals in 2-D that never couple, and the
coarser ones are probed products P^T M P. Each level is smoothed by a
degree-2 Chebyshev polynomial in D^-1 M (Adams, Brezina, Hu and Tuminaro,
2003). The cycle runs in float32 (Goddeke, Strzodka and Turek, 2007), in
which a coarse 2-D level is built from the start; the fine level and 1-D
levels are built in float64, then rounded. CG stays float64 and takes the
flexible beta of Notay (SISC 22, 2000). A 3-D system is preconditioned by the
diagonal of A A^T (Jacobi), which follows |f|^2 where advection outweighs
diffusion; on the eight 16^3 blocks of a sampled 32^3 Rossler grid a V-cycle
halves the iterations (1,595 to 823) but takes about six times as long. The
correction A^T y is orthogonal to Ker(A), so the result equals v plus the
kernel-orthogonal move of minimal length.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    NonConvergenceError,
    RankDeficiencyError,
)
from .grids import DensityField
from .operator import InteriorOperator

if TYPE_CHECKING:
    from scipy import sparse

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
# Most interior rows in one stack of same-shape systems factored directly
# (solve_blocks). A stack holds its normal matrix, coefficients and vectors
# whole, about 200 bytes a row, beside one member's band. On ring-blocks-128,
# stacks of 8,192 rows (nine 32^2 blocks) cut solve_s by 12 to 16 % and raised
# peak RSS by about 1 MB; 4,096 rows cut less, and 16,384 cost 2.1 MB.
_STACK_ROWS = 8192
# Multigrid aggregates are blocks of 3^d cells. A A^T couples cells up to two
# apart along an axis, and with blocks of 3 the Galerkin operator of every
# coarser level does too, (3 - 1 + 3 * 2) // 3 = 2. With blocks of 2 the reach
# grows 2, 3, 5, ..., so that every coarse level is denser than the last.
# With two damped Jacobi steps for smoother, blocks of 4 and 5 took 89 and 135
# iterations on the 128^2 ring, and 126 and 211 on 256^2, where blocks of 3
# took 43 and 54.
_AGGREGATE = 3
# The coarsest level is factored dense once it has at most this many rows. A
# triangular solve of 300 rows takes about 60 us, less than the numpy calls of
# one more level; of 600 rows, about 290 us.
_COARSEST_ROWS = 300
# lambda, the bound on the spectral radius of D^-1 M that the prolongator's
# omega = 4 / (3 lambda) and the smoother's interval rest on, is this multiple
# of the estimate of _POWER_STEPS steps of the power method, which lies below
# the radius.
_POWER_STEPS = 10
_POWER_SAFETY = 1.1
# The smoother is the degree-2 Chebyshev polynomial on [lambda / _INTERVAL,
# lambda]: x1 = x0 + D^-1 r0 / theta, x2 = x1 + rho1 rho0 (x1 - x0)
# + 2 rho1 / delta D^-1 r1, with theta and delta the interval's centre and
# half-width, rho0 = delta / theta and rho1 = 1 / (2 theta / delta - rho0)
# (Adams, Brezina, Hu and Tuminaro, J. Comput. Phys. 188, 2003). In terms of
# w = omega D^-1 these are the three fixed weights below. On the 128^2 ring,
# interval ratios of 4, 8, 15 and 30 took 36, 32, 32 and 32 CG iterations.
_INTERVAL = 30.0
_THETA, _DELTA = (1.0 + 1.0 / _INTERVAL) / 2.0, (1.0 - 1.0 / _INTERVAL) / 2.0
_RHO1 = 1.0 / (2.0 * _THETA / _DELTA - _DELTA / _THETA)
_CHEBYSHEV = (0.75 / _THETA, _RHO1 * _DELTA / _THETA, 1.5 * _RHO1 / _DELTA)
# Within an aggregate, a candidate whose part orthogonal to the earlier ones is
# at most this fraction of its norm counts as dependent on them.
_DEPENDENT = 1e-8


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the normal-equations solve.

    cg_rel_tol bounds the normal-system residual of both the direct and the
    CG path; cg_max_iters applies to CG only, and 0 means ten times the
    number of interior rows.
    """

    cg_rel_tol: float = 1e-10
    cg_max_iters: int = 0

    def __post_init__(self):
        if not 0.0 < self.cg_rel_tol < 1.0:
            raise ConfigurationError(
                f"cg_rel_tol must lie in (0, 1), got {self.cg_rel_tol}"
            )
        if self.cg_max_iters is None or self.cg_max_iters < 0:
            raise ConfigurationError(
                f"cg_max_iters must be 0 or positive, got {self.cg_max_iters}"
            )


@dataclass(frozen=True)
class SolveReport:
    """What the solve did and how well the constraint came out.

    A direct solve reports 0 iterations and, as factor_nnz, the entries of
    its stored band factor, rows times (bandwidth + 1); a CG solve reports
    its iterations and factor_nnz 0. A stack's report holds its members'
    reports, each with its share of the wall time, and their totals, worst
    residual, lowest value and joint distance; a single system's is empty.
    """

    iterations: int
    factor_nnz: int
    residual_constraint: float
    distance: float
    min_value: float
    wall_time: float
    members: tuple[SolveReport, ...] = ()


def _tolerances(b: np.ndarray, rel_tol: float) -> tuple[float, float]:
    """Bounds on ||r||_2 and max|r| that a solve of M x = b must meet."""
    return rel_tol * float(np.linalg.norm(b)), 10.0 * rel_tol * float(np.max(np.abs(b)))


def _factored(shape: tuple[int, ...]) -> bool:
    """Whether the normal system of an interior of this shape is factored: it
    is 1-D or 2-D, and rows times the bandwidth of A A^T with the longest axis
    outermost, the size of the band factor less its diagonal, is within
    _DIRECT_SIZE_CAP."""
    band = math.prod(shape) * 2 * math.prod(sorted(shape)[:-1])
    return len(shape) <= 2 and band <= _DIRECT_SIZE_CAP


def stack_limit(n: tuple[int, ...]) -> int:
    """How many systems on grids of n cells solve_least_norm solves in one
    stack: as many as _STACK_ROWS interior rows hold if they are factored,
    else one."""
    shape = tuple(m - 2 for m in n)
    return max(_STACK_ROWS // math.prod(shape), 1) if _factored(shape) else 1


def _band_axes(shape: tuple[int, ...]) -> list[int]:
    """The interior axes from the longest to the shortest, ties in order: taken
    outermost first, they make the band of A A^T two narrow sides wide."""
    return sorted(range(len(shape)), key=lambda k: -shape[k])


def _lower_band(mat, rows: slice = slice(None), out: np.ndarray | None = None):
    """The lower triangle of a square sparse matrix's diagonal block on the
    given rows (all by default) as a LAPACK lower band, (bandwidth + 1, rows),
    copied diagonal by diagonal from its DIA form, which the normal matrix
    already has. The band is in Fortran order, so LAPACK reads it with no
    transposing copy. It is written into out if given, a band of that shape
    whose contents are overwritten."""
    dia = mat.todia()
    start, stop, _ = rows.indices(dia.shape[0])
    lower = dia.offsets <= 0
    diagonals = dia.data[lower, start:stop]
    if out is None:
        out = np.zeros((1 - int(dia.offsets.min()), stop - start), order="F")
    else:
        out.fill(0.0)
    out[-dia.offsets[lower], : diagonals.shape[1]] = diagonals
    return out


def _direct(mat, b: np.ndarray, rel_tol: float):
    """Banded Cholesky and one solve of each diagonal block of an SPD sparse
    matrix, the members of a stack, checked like a CG result.

    Row j of b is the right-hand side of block j (a 1-D b is one block). Each
    block is factored on its own band, so its numbers are those of a solve of
    it alone; a zero right-hand side gets x = 0 unfactored. The band follows
    mat's row order, so a caller that wants it narrow orders the rows first.
    LAPACK is called directly, without scipy's finiteness checks of every
    band: solve_least_norm checks the reference once, and assemble the drift.
    Returns x in b's shape and each block's stored factor entries; a failure
    raises RankDeficiencyError with the block as its member.
    """
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    rhs = b.reshape(-1, b.shape[-1])
    n = rhs.shape[1]
    x = np.zeros_like(rhs)
    sizes = [0] * len(rhs)
    band = None
    for j, bj in enumerate(rhs):
        if not bj.any():
            continue
        # Written over the last member's factor: a fresh band per member took
        # about 8 % longer over a ring-blocks-128 operation.
        band = _lower_band(mat, slice(j * n, (j + 1) * n), band)
        # The lower form, because it is the fast one with 2 BLAS threads: on a
        # 32^2 ring block (900 rows, bandwidth 60) of a 2-vCPU host, dpbtrf took
        # about 1.1 ms in lower form against 3.0 to 4.3 ms in upper form
        # (SuperLU: 3.1 to 5.7 ms); with 1 thread both forms took about 1.05 ms.
        factor, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info > 0:
            raise RankDeficiencyError(
                f"banded Cholesky of the normal system failed (leading minor {info} "
                "not positive definite): the operator is rank deficient or too "
                "ill-conditioned",
                member=j,
            )
        # pbtrs fails only on an illegal argument, and the residual test would
        # catch a wrong x all the same
        x[j] = dpbtrs(factor, bj, lower=1)[0]
        sizes[j] = factor.size
    # each member's own tolerances, its residual taken from one product
    r = rhs - (mat @ x.ravel()).reshape(rhs.shape)
    for j, (bj, rj) in enumerate(zip(rhs, r)):
        norm_tol, inf_tol = _tolerances(bj, rel_tol)
        if not (np.linalg.norm(rj) <= norm_tol and np.max(np.abs(rj)) <= inf_tol):
            raise RankDeficiencyError(
                "the factored normal system misses its residual tolerance "
                f"(||r||/||b|| {np.linalg.norm(rj) / np.linalg.norm(bj):.2e} and "
                f"max|r|/max|b| {np.max(np.abs(rj)) / np.max(np.abs(bj)):.2e} against "
                f"{rel_tol:.2e} and {10.0 * rel_tol:.2e}): the operator is rank "
                "deficient or too ill-conditioned",
                member=j,
            )
    return x.reshape(b.shape), sizes


def _tentative(candidates: np.ndarray, shape: tuple[int, ...], comps: int):
    """The tentative prolongator T of the near-kernel candidates, the m columns
    of candidates, on the aggregates of the grid shape, as a CSR matrix.

    Each unknown belongs to the aggregate of its node, and T's row of it holds
    one entry per candidate, in the columns of that aggregate's coarse node.
    Per aggregate, the candidates are orthonormalised by modified Gram-Schmidt
    into those columns, each inner product one bincount over the aggregates.
    Their coefficients R are the candidates of the coarse level, one node per
    aggregate with m unknowns, in the same layout as candidates. A candidate
    that depends on the earlier ones within an aggregate, as a linear function
    across a one-wide edge aggregate does on the constant, gets an all-zero
    column in T and a zero row in R.
    """
    from scipy import sparse

    rows, m = candidates.shape
    coarse = [-(-n // _AGGREGATE) for n in shape]
    nodes = np.indices(shape).reshape(len(shape), -1) // _AGGREGATE
    agg = np.repeat(np.ravel_multi_index(nodes, coarse), comps)
    size = math.prod(coarse)
    q = np.zeros((rows, m))
    r = np.zeros((size, m, m))
    for j in range(m):
        v = candidates[:, j].copy()
        for i in range(j):
            r[:, i, j] = np.bincount(agg, q[:, i] * v, size)
            v -= q[:, i] * r[agg, i, j]
        norm = np.sqrt(np.bincount(agg, v * v, size))
        keep = norm > _DEPENDENT * np.sqrt(np.bincount(agg, candidates[:, j] ** 2, size))
        r[:, j, j] = np.where(keep, norm, 0.0)
        q[:, j] = np.where(keep[agg], v / np.where(keep, norm, 1.0)[agg], 0.0)
    t = sparse.csr_matrix(
        (q.ravel(), (m * agg[:, None] + np.arange(m)).ravel(), np.arange(0, m * rows + 1, m)),
        shape=(rows, m * size),
    )
    return t, r.reshape(-1, m)


def _spectral_radius(mat, dinv: np.ndarray) -> float:
    """An estimate of the spectral radius of D^-1 M: _POWER_STEPS steps of the
    power method from a fixed start, then the Rayleigh quotient of the last
    iterate in the D inner product, which is at most the true radius."""
    x = (np.random.default_rng(0).random(mat.shape[0]) - 0.5).astype(mat.dtype)
    for _ in range(_POWER_STEPS):
        x = dinv * (mat @ x)
        x /= np.linalg.norm(x)
    return float(x @ (mat @ x)) / float(x @ (x / dinv))


def _single(a: np.ndarray) -> np.ndarray:
    """a in float32, not copied if it is: the multigrid's one cast to float32."""
    return a.astype(np.float32, copy=False)


@dataclass
class _Level:
    """One level of the smoothed-aggregation hierarchy: its DIA operator on a
    tensor grid of nodes with comps unknowns each, in node-major order, the
    Jacobi weights w = omega D^-1, which smooth its prolongator and scale its
    smoother, the mask of the coarse unknowns whose tentative column is empty,
    and either, on the fine level, the tentative prolongator t of _tentative
    or, below it, the smoothed prolongator stored as the CSC matrix p, which
    restrict reads through its CSR view p.T (see _vcycle for why the fine
    level applies it on the fly). Each level is stored in float32 (see
    _vcycle for when)."""

    mat: sparse.dia_matrix
    shape: tuple[int, ...]
    comps: int
    w: np.ndarray
    dropped: np.ndarray
    t: sparse.csr_matrix | None = None
    p: sparse.csc_matrix | None = None

    @property
    def coarse_shape(self) -> tuple[int, ...]:
        return tuple(-(-n // _AGGREGATE) for n in self.shape)

    @functools.cached_property
    def _transpose(self) -> sparse.csr_matrix:
        """restrict's view p.T, or t.T on the fine level: each .T is a new
        scipy matrix that checks its format, about 30 us."""
        return (self.t if self.p is None else self.p).T

    def round(self) -> None:
        """Rounds w, t, p and mat by _single, t and p in place, so that their
        index arrays are shared, where scipy's astype would copy them."""
        from scipy import sparse

        self.w = _single(self.w)
        for prolongator in (self.t, self.p):
            if prolongator is not None:
                prolongator.data = _single(prolongator.data)
        # a view kept from before would hold, and restrict by, the float64 data
        self.__dict__.pop("_transpose", None)
        # a new DIA matrix: the fine level's is CG's own
        self.mat = sparse.dia_matrix((_single(self.mat.data), self.mat.offsets), self.mat.shape)

    def smooth(self, b: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        """The degree-2 Chebyshev sweep of _CHEBYSHEV for M x = b from x, in
        place, or from zero with one product fewer if x is None."""
        first, carry, second = _CHEBYSHEV
        step = first * (self.w * (b if x is None else b - self.mat @ x))
        x = step.copy() if x is None else np.add(x, step, out=x)
        step *= carry
        step += second * (self.w * (b - self.mat @ x))
        return np.add(x, step, out=x)

    def prolong(self, xc: np.ndarray) -> np.ndarray:
        """P xc = (I - W M) T xc."""
        if self.p is not None:
            return self.p @ xc
        t = self.t @ xc
        q = self.mat @ t
        q *= self.w
        t -= q
        return t

    def restrict(self, r: np.ndarray) -> np.ndarray:
        """P^T r = T^T (r - M W r)."""
        if self.p is not None:
            return self._transpose @ r
        q = self.mat @ (self.w * r)
        np.subtract(r, q, out=q)
        return self._transpose @ q


def _layout(shape: tuple[int, ...], radius: int, reach: int | None = None):
    """The DIA layout of an operator on nodes of shape with d + 1 unknowns
    each, coupling nodes up to radius apart along each axis and, if reach is
    given, only those whose aggregates lie at most reach cells apart, summed
    over the axes: the node offsets, their flat shifts, the diagonals, and the
    index of each (offset, row and column component) among them."""
    d = len(shape)
    offsets = np.indices((2 * radius + 1,) * d).reshape(d, -1) - radius
    if reach is not None:
        apart = np.maximum(_AGGREGATE * np.abs(offsets) - _AGGREGATE + 1, 0)
        offsets = offsets[:, apart.sum(axis=0) <= reach]
    shift = np.array([math.prod(shape[a + 1 :]) for a in range(d)]) @ offsets
    comp = np.arange(d + 1)
    flat = (d + 1) * shift[:, None, None] + comp - comp[:, None]
    diagonals = np.unique(flat[np.all(np.abs(offsets) < np.array(shape)[:, None], axis=0)])
    return offsets, shift, diagonals, np.searchsorted(diagonals, flat)


def _symmetric(lvl: _Level, data: np.ndarray, diagonals: np.ndarray):
    """lvl's coarse operator as a DIA matrix from data filled on and above the
    main diagonal: the diagonals below become copies of their mirrors, and an
    unknown of lvl.dropped, whose tentative column is empty, gets a unit
    diagonal."""
    from scipy import sparse

    size = data.shape[1]
    zero = int(np.searchsorted(diagonals, 0))
    for j, f in enumerate(diagonals[:zero]):
        data[j, : size + f] = data[np.searchsorted(diagonals, -f), -f:]
    data[zero, lvl.dropped] = 1.0
    return sparse.dia_matrix((data, diagonals), shape=(size, size))


def _galerkin(lvl: _Level, radius: int):
    """P^T M P on lvl's coarse grid as a DIA matrix, its couplings reaching at
    most radius nodes along each axis, found by probing: the operator of
    every level below the first, whose M is no longer a stencil's A A^T.

    Coarse nodes are coloured by their indices modulo 2 radius + 1, so the
    product with the sum of one colour's unit vectors in one component holds,
    in each row, the entry in that component of the one node of that colour
    it couples to. Each is written straight into its diagonal, and
    _symmetric mirrors them.
    """
    shape = lvl.coarse_shape
    m = len(shape) + 1
    width = 2 * radius + 1
    box = (width,) * len(shape)
    cells = np.indices(shape).reshape(len(shape), -1)
    offsets, shift, diagonals, where = _layout(shape, radius)
    n, k = cells.shape[1], offsets.shape[1]
    inside = np.ones((n, k), dtype=bool)
    for c, o, s in zip(cells, offsets, shape):
        inside &= (c[:, None] + o >= 0) & (c[:, None] + o < s)
    comp = np.arange(m)
    size = n * m
    data = np.zeros((len(diagonals), size), lvl.mat.dtype)
    colours = np.ravel_multi_index(cells % width, box)
    for colour in range(k):
        target = np.array(np.unravel_index(colour, box))[:, None]
        o = np.ravel_multi_index((target - cells + radius) % width, box)
        rows = np.flatnonzero(inside[np.arange(n), o])
        o = o[rows]
        # where each row's entries go in data, flattened, by row and column
        # component
        slots = where[o] * size + (m * (rows + shift[o]))[:, None, None] + comp
        block = np.empty((n, m, m), lvl.mat.dtype)
        for c in range(m):
            e = np.zeros((n, m), lvl.mat.dtype)
            e[colours == colour, c] = 1.0
            block[:, :, c] = lvl.restrict(lvl.mat @ lvl.prolong(e.ravel())).reshape(n, m)
        data.reshape(-1)[slots] = block[rows]
    return _symmetric(lvl, data, diagonals)


def _spans(start, a, b) -> list[slice]:
    """Per axis, the slice start + 3 j for j from a to b."""
    return [slice(s + 3 * lo, s + 3 * hi - 2, 3) for s, lo, hi in zip(start, a, b)]


def _block_probes(lvl: _Level, op: InteriorOperator, colour: tuple[int, ...], blocks):
    """A^T P on one colour's coarse unit vectors in each component, on the
    grid padded by 2 cells at the low edge and cut into blocks[k] blocks of 3
    cells along axis k: by component, cell of a block and block."""
    d, m = len(blocks), len(blocks) + 1
    out = np.empty((m, *(3,) * d, *blocks))
    for c in range(m):
        e = np.zeros((*lvl.coarse_shape, m))
        e[(*(slice(k, None, 3) for k in colour), c)] = 1.0
        probe = op.apply_transpose(lvl.prolong(e.ravel())).reshape(op.grid.n)
        probe = np.pad(probe, [(2, 3 * b - 2 - n) for b, n in zip(blocks, op.grid.n)])
        probe = probe.reshape(*(x for b in blocks for x in (b, 3)))
        out[c] = probe.transpose(*range(1, 2 * d, 2), *range(0, 2 * d, 2))
    return out


def _gram(lvl: _Level, op: InteriorOperator, dtype):
    """The fine level's P^T M P, whose M is A A^T, as the Gram matrix
    (A^T P)^T (A^T P) in _galerkin's layout with radius 2, its sums written
    straight into a DIA matrix of dtype.

    Column (J, c) of A^T P lives on cells 3 J - 2 to 3 J + 6 along each axis
    (P reaches two interior nodes past aggregate J, A^T one cell more), the
    blocks J to J + 2 of _block_probes. These windows tile the grid for one
    colour's nodes, so its probe holds each of their columns. Nodes J and
    K = J + o share the blocks J + [max(o, 0), 3 + min(o, 0)), so one product
    of two colours' probes, summed over each block, serves every offset
    between them. Offsets of non-negative flat shift are summed; _symmetric
    mirrors them. A column reaches at most 3 cells past its aggregate, summed
    over the axes (2 for P, as M's 13 diagonals do, 1 for A^T), so nodes whose
    aggregates lie more than 6 cells apart do not couple: in 2-D, those
    (+-2, +-2) apart, 8 cells, whose 12 diagonals are not stored.
    """
    coarse, d = lvl.coarse_shape, len(lvl.shape)
    m = d + 1
    offsets, shift, diagonals, where = _layout(coarse, 2, reach=6)
    colours = list(np.ndindex(*(3,) * d))
    # per pair of colours, lower first, the blocks to sum for each offset from
    # a node J = colour + 3 j of one to K = to + 3 j' of the other, for the j
    # from a to b with J and K inside, the slots of the sums and their array,
    # allocated before the probes so that these leave one free stretch for
    # the operator: sums made between them split it, and ring-whole-128 peak
    # RSS read about +1 MB against +0.2 MB
    plan = {}
    for i in np.flatnonzero(shift >= 0):
        o = offsets[:, i].tolist()
        for k, colour in enumerate(colours):
            to = [x + y for x, y in zip(colour, o)]
            a = [max(-(t // 3), 0) for t in to]
            b = [(n - 1 - x - max(y, 0)) // 3 + 1 for n, x, y in zip(coarse, colour, o)]
            if all(hi > lo for lo, hi in zip(a, b)):
                other = colours.index(tuple(t % 3 for t in to))
                shared = itertools.product(*(range(max(y, 0), 3 + min(y, 0)) for y in o))
                reads = [(..., *_spans(np.add(colour, z), a, b)) for z in shared]
                # the sums run over the lower colour's components first
                comp = np.arange(m) if k <= other else np.arange(m)[:, None]
                slots = (where[i] if k <= other else where[i].T, *_spans(to, a, b), comp)
                sums = np.empty((m, m, *(hi - lo for lo, hi in zip(a, b))))
                plan.setdefault((min(k, other), max(k, other)), []).append((reads, slots, sums))
    subscripts = "a{0}{1},b{0}{1}->ab{1}".format("xy"[:d], "IJ"[:d])
    probes = [_block_probes(lvl, op, colour, tuple(n + 2 for n in coarse)) for colour in colours]
    for p in range(len(colours)):
        for q in range(p, len(colours)):
            products = np.einsum(subscripts, probes[p], probes[q])
            for reads, _, sums in plan.get((p, q), ()):
                sums[...] = sum(products[r] for r in reads)
        # all 27 probes a cell (2-D) are gone before the operator is allocated
        probes[p] = products = None
    data = np.zeros((len(diagonals), math.prod(coarse) * m), dtype)
    for _, slots, sums in itertools.chain(*plan.values()):
        data.reshape(len(diagonals), *coarse, m)[slots] = sums
    return _symmetric(lvl, data, diagonals)


def _vcycle(mat, dinv: np.ndarray, op: InteriorOperator):
    """The symmetric V-cycle z = B r of smoothed aggregation with linear
    candidates (Vanek, Mandel and Brezina, Computing 56, 1996; Vanek, Brezina
    and Mandel, Numer. Math. 88, 2001), as a function.

    mat is A A^T of the interior operator op, on the tensor grid of op's
    interior, so its couplings reach at most two cells along each axis. It is
    a fourth-order operator, so linear functions are near its kernel as well
    as constants: the candidates are 1 and the d coordinates. Each level
    orthonormalises them on blocks of _AGGREGATE^d nodes into the tentative
    prolongator T (_tentative), whose coefficients are the candidates of the
    next level, where every node carries d + 1 unknowns. T is smoothed by one
    Jacobi step, P = (I - omega D^-1 M) T with omega = 4 / (3 lambda), and
    P^T M P passes down, from the fine level as the Gram matrix of _gram: its
    27 probes in 2-D make one product with M and one with A^T each, where
    _galerkin's 75 make three with M. lambda is _POWER_SAFETY times a
    power-method estimate of the spectral radius of D^-1 M: on the 128^2 ring's
    first coarse level the Gershgorin bound reads 3.96 where the radius is
    2.16, and with two damped Jacobi steps for smoother it took the cycle from
    43 to 100 iterations. On the fine level P is applied on the fly, T as its
    CSR matrix and the smoothing as one product with M, which has only 13
    diagonals there: stored, P holds 187,520 entries at 128^2, and it raised
    the peak RSS of 40 repeated 128^2 solves by 2.2 to 2.5 MB for no clear
    gain in time. A coarser M has 73 or 85 diagonals, and P on the fly would
    add two products with it to each probe of _galerkin and to each cycle, so
    each coarser level stores P once, the CSC matrix of the sparse product
    T - W (M T) (about a quarter of the bytes of its M), and restricts by its
    CSR view, the same numbers. It holds no T: _symmetric finds the unknowns
    of T's empty columns from the zero rows of the coarse candidates,
    lvl.dropped. Levels are built until at most _COARSEST_ROWS rows remain,
    which are factored by dense Cholesky.
    The cycle runs the degree-2 Chebyshev sweep of _CHEBYSHEV on
    [lambda / 30, lambda] before and after the coarse correction and
    restricts by P^T, so B is symmetric, and positive definite while the true
    radius stays below lambda (1 + 1 / 30); _cg checks that it does. A sweep
    makes as many products with M as two damped Jacobi steps, with the same
    omega, and took CG from 34, 43, 54 and 73 iterations to 27, 32, 38 and 60
    at 64^2, 128^2, 256^2 and 512^2; degree 3 took 26 at 128^2, for two more
    products per level, and was no faster. A coarse 2-D level is built in
    float32, the first straight from _gram's sums. The fine level and 1-D
    levels are built in float64 and rounded after the coarsest factor: built
    in float32, the 2001-cell line's coarsest Cholesky failed. The float32
    cycle takes 1.4 ms at 128^2, against 2.4 in float64, with the same CG
    iterations.
    """
    from scipy import sparse
    from scipy.linalg import cho_factor, cho_solve

    levels = []
    radius = 2
    comps = 1
    shape = op.interior_shape
    d = len(shape)
    dtype = _single(np.empty(0)).dtype if d == 2 else np.float64
    # 1 and the coordinates, centred on the grid to keep the Gram-Schmidt
    # differences small
    candidates = np.indices(shape).reshape(d, -1).T - (np.array(shape) - 1) / 2
    candidates = np.column_stack([np.ones(mat.shape[0]), candidates])
    try:
        while mat.shape[0] > _COARSEST_ROWS:
            omega = 4.0 / (3.0 * _POWER_SAFETY * _spectral_radius(mat, dinv))
            t, candidates = _tentative(candidates, shape, comps)
            t.data = t.data.astype(mat.dtype, copy=False)
            lvl = _Level(mat, shape, comps, omega * dinv, ~candidates.any(axis=1))
            if levels:
                lvl.p = (t - sparse.diags(lvl.w) @ (mat @ t)).tocsc()
            else:
                lvl.t = t
            levels.append(lvl)
            # P reaches radius nodes past a block, so two coarse nodes couple
            # when their blocks lie within 3 radius fine nodes of each other
            radius = (_AGGREGATE - 1 + 3 * radius) // _AGGREGATE
            mat = _galerkin(lvl, radius) if len(levels) > 1 else _gram(lvl, op, dtype)
            shape, comps = lvl.coarse_shape, d + 1
            diag = mat.diagonal()
            if not np.all(diag > 0.0):
                raise np.linalg.LinAlgError("non-positive diagonal entry")
            dinv = 1.0 / diag
        factor = cho_factor(mat.toarray().astype(np.float64, copy=False), overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(
            f"level {len(levels)} ({mat.shape[0]} rows) of the multigrid "
            f"preconditioner is not positive definite ({exc}): the operator is "
            "rank deficient or too ill-conditioned"
        ) from exc
    for lvl in levels:
        lvl.round()
    return functools.partial(_cycle, levels, functools.partial(cho_solve, factor))


def _cycle(levels: list[_Level], coarsest, r: np.ndarray) -> np.ndarray:
    """z = B r by one V-cycle from the finest of levels down to the coarsest
    solve, in the levels' float32, with the coarsest solve's float64 answer
    rounded back. r is divided by max|r| before _single rounds it, and z is
    multiplied back in float64, so B is as free of r's scale as CG is: on the
    64^2 ring, a reference scaled by 1e-30 or 1e-36 would otherwise underflow
    in float32 and read r.z < 0."""
    scale = float(np.max(np.abs(r))) or 1.0
    b = _single(r / scale)
    down = []
    for lvl in levels:
        x = lvl.smooth(b)
        down.append((b, x))
        b = lvl.restrict(b - lvl.mat @ x)
    x = coarsest(b).astype(b.dtype, copy=False)
    for lvl, (b, fine) in zip(reversed(levels), reversed(down)):
        fine += lvl.prolong(x)
        x = lvl.smooth(b, fine)
    return np.multiply(x, scale, dtype=np.float64)


def _cg(
    mat,
    b: np.ndarray,
    rel_tol: float,
    max_iters: int,
    op: InteriorOperator | None = None,
):
    """Preconditioned conjugate gradients on an SPD sparse matrix, with the
    history of the unpreconditioned ||b - M x||, which is also what the
    stopping test reads.

    op is the interior operator whose A A^T mat is, its rows on op's
    interior in natural order. On a 1-D or 2-D grid the preconditioner is
    the smoothed-aggregation V-cycle of _vcycle; on a 3-D grid, or with no
    op, it is the diagonal (Jacobi), since on 3-D blocks
    the V-cycle's set-up and extra products cost more than the iterations it
    saves. A non-positive diagonal raises before the preconditioner is built,
    and a preconditioned residual with r.z <= 0 raises too: the V-cycle's
    Chebyshev smoother rests on an estimated spectral radius, which it may
    exceed by no more than a thirtieth, so its positivity is checked where it
    is used. The float32 V-cycle is symmetric only to about 1e-8, so its beta
    is Notay's flexible z_k+1.(r_k+1 - r_k) / z_k.r_k; Jacobi keeps the
    classical one, whose saved dot product is 4 % of a 16^3 step.
    """
    norm_tol, inf_tol = _tolerances(b, rel_tol)
    diag = mat.diagonal()
    if not np.all(diag > 0.0):
        raise RankDeficiencyError(
            "the normal system has a non-positive diagonal entry: the operator "
            "has an empty row"
        )
    dinv = 1.0 / diag
    if op is not None and op.grid.dim <= 2:
        name, vcycle = "multigrid V-cycle", _vcycle(mat, dinv, op)
    else:
        name, vcycle = "Jacobi", None

    def precondition(r):
        z = dinv * r if vcycle is None else vcycle(r)
        rz = float(r @ z)
        if rz <= 0.0 and r.any():
            raise RankDeficiencyError(
                f"the {name} preconditioner is not positive definite "
                f"(r.z = {rz:.3e})"
            )
        return z, rz

    x = np.zeros_like(b)
    r = b.copy()
    z, rz = precondition(r)
    p = z.copy()
    step = np.empty_like(b)
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
                "non-positive curvature in the normal system: the operator is "
                "rank deficient or too ill-conditioned"
            )
        alpha = rz / curv
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(q, alpha, out=step)
        history.append(float(np.sqrt(r @ r)))
        z, rz_new = precondition(r)
        # the flexible beta, with r_k+1 - r_k = -alpha q, alpha = rz / curv
        p *= rz_new / rz if vcycle is None else -float(z @ q) / curv
        p += z
        rz = rz_new
        iters += 1
    return x, iters, history


def solve_least_norm(
    op: InteriorOperator,
    v: DensityField | list[DensityField],
    opts: SolveOptions | None = None,
) -> tuple[DensityField | list[DensityField], SolveReport]:
    """Minimal-distance projection of v onto the constraint set A u = 0.

    Args:
        op: interior operator on v's grid, as assemble builds it or as a
            window of the coefficients of an operator on a larger grid whose
            interior rows include those of v's grid (blocks.solve_blocks); or
            a stack of them on grids of one shape, solved only if factored.
        v: reference field, typically a sampled histogram density, or a list
            of one per member of a stack. A value that is not finite raises
            ConfigurationError before the normal matrix is formed.
        opts: solver options; defaults are tight enough for the diagnostics.

    Returns:
        The corrected field (a list for a stack) and a report with the CG
        iteration count or the band factor's stored entries, the worst
        constraint residual max|A u|, the moved distance ||u - v||_2, the most
        negative value of u, and wall time.
    """
    if opts is None:
        opts = SolveOptions()
    refs = list(v) if op.stack else [v]
    k, shape = len(refs), op.interior_shape
    direct = _factored(shape)
    if not op.stack and v.grid != op.grid:
        raise DimensionError("reference field and operator live on different grids")
    if op.stack and (op.stack != (k,) or any(f.grid.n != op.grid.n for f in refs)):
        raise DimensionError(f"{k} references for a stack of {op.stack} on {op.grid.n}")
    if k > 1 and not direct:
        raise ConfigurationError(f"interiors of shape {shape} are solved by CG alone")
    values = np.stack([f.values for f in refs])
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ConfigurationError(
            f"the reference holds {bad} non-finite cell value(s) (NaN or inf)"
        )
    t0 = time.perf_counter()
    b = -op.apply(values).reshape(k, -1)
    axes = _band_axes(shape) if direct else None
    normal = op.normal_matrix(axes)
    iters, factor_nnz = 0, [0] * k
    if direct:
        # each member's rows in the band order, and back
        order = (0, *(1 + a for a in axes))
        b_band = b.reshape(k, *shape).transpose(order).reshape(k, -1)
        x, factor_nnz = _direct(normal, b_band, opts.cg_rel_tol)
        band_shape = [shape[a] for a in axes]
        y = x.reshape(k, *band_shape).transpose(np.argsort(order)).reshape(k, -1)
    elif b.any():
        max_iters = opts.cg_max_iters or 10 * b.size
        y, iters, _ = _cg(normal, b[0], opts.cg_rel_tol, max_iters, op)
    else:
        y = np.zeros_like(b)
    correction = op.apply_transpose(y).reshape(k, -1)
    u = values + correction
    residual = np.max(np.abs(op.apply(u).reshape(k, -1)), axis=1)
    fields = [DensityField(f.grid, row) for f, row in zip(refs, u)]
    wall = time.perf_counter() - t0
    members = tuple(
        SolveReport(
            iterations=iters,
            factor_nnz=nnz,
            residual_constraint=float(res),
            distance=float(np.linalg.norm(c)),
            min_value=fld.min_value,
            wall_time=wall / k,
        )
        for nnz, res, c, fld in zip(factor_nnz, residual, correction, fields)
    )
    if not op.stack:
        return fields[0], members[0]
    report = SolveReport(
        iterations=sum(r.iterations for r in members),
        factor_nnz=sum(factor_nnz),
        residual_constraint=max(r.residual_constraint for r in members),
        distance=float(np.linalg.norm(correction)),
        min_value=min(r.min_value for r in members),
        wall_time=wall,
        members=members,
    )
    return fields, report
