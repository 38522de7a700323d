"""Diagnostics: closed-form kernel basis, principal angles, error norms.

The zero-drift interior stencil on an N x N lattice has a kernel of
dimension exactly 4N - 4, spanned by products of lattice-periodic trig
profiles with matched exponential profiles plus the four polynomials
1, x, y, xy. The basis is the workhorse for studying where projection
errors concentrate: its vectors pile up mass near the lattice boundary,
and principal angles between the numerical kernel and boundary-layer
coordinate subspaces quantify that concentration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .blocks import BlockSolveConfig, restrict
from .errors import ConfigurationError, DimensionError, SizeError, UndefinedRatioError
from .grids import BlockPartition, DensityField, Grid
from .leastnorm import SolveOptions
from .models import ModelSpec
from .operator import InteriorOperator
from .repair import (
    DEFAULT_SHIFT_SCHEDULE, METHODS, method_halo, shifted_partitions, solve_method,
)
from .sampler import SamplerConfig, accumulate_histogram, histogram_to_density

_SVD_COLS_CAP = 4096
_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class KernelBasis:
    """Unit-norm kernel vectors of the zero-drift stencil, with labels.

    labels[j] is ("trig", k, p) for the eight trig-exponential families or
    ("poly", p) for 1, x, y, xy; columns are ordered by those labels, so the
    polynomial block comes last.
    """

    n: int
    vectors: np.ndarray
    labels: tuple[tuple, ...]


def _exp_profile(c: float, t: np.ndarray) -> np.ndarray:
    """exp(c * t) rescaled by its max so large c cannot overflow."""
    return np.exp(c * (t - t.max()))


def laplacian_kernel_basis(n: int) -> KernelBasis:
    """Closed-form kernel basis on the n x n unit lattice, n odd and >= 5.

    Lattice coordinates are x_i = (i-1)/(n-1) with spacing h = 1/(n-1).
    For wave number k the exponential rate is c_k = arccosh(2 - cos(2 pi k
    h))/h, which makes the five-point relation hold exactly: trig neighbors
    contribute 2 cos(2 pi k h) and exponential neighbors 2 cosh(c_k h),
    summing to 4. Sine families stop at (n-3)/2 because the next sine
    vanishes on the lattice; cosine families reach (n-1)/2. Together with
    1, x, y, xy that is 4n - 4 vectors.
    """
    if n < 5 or n % 2 == 0:
        raise ConfigurationError(f"lattice side must be odd and >= 5, got {n}")
    h = 1.0 / (n - 1)
    t = np.linspace(0.0, 1.0, n)
    x = t[:, None] * np.ones((1, n))
    y = np.ones((n, 1)) * t[None, :]

    def column(arr: np.ndarray) -> np.ndarray:
        flat = arr.ravel()
        norm = np.linalg.norm(flat)
        if norm == 0.0:
            raise ConfigurationError("degenerate kernel vector; label caps are wrong")
        return flat / norm

    cols: list[np.ndarray] = []
    labels: list[tuple] = []
    k_sin_max = (n - 3) // 2
    k_cos_max = (n - 1) // 2
    for k in range(1, k_cos_max + 1):
        w = 2.0 * np.pi * k
        arg = max(2.0 - np.cos(w * h), 1.0)
        c = np.arccosh(arg) / h
        families = {
            1: np.sin(w * x) * _exp_profile(c, y),
            2: np.cos(w * x) * _exp_profile(c, y),
            3: np.sin(w * x) * _exp_profile(c, 1.0 - y),
            4: np.cos(w * x) * _exp_profile(c, 1.0 - y),
            5: np.sin(w * y) * _exp_profile(c, x),
            6: np.cos(w * y) * _exp_profile(c, x),
            7: np.sin(w * y) * _exp_profile(c, 1.0 - x),
            8: np.cos(w * y) * _exp_profile(c, 1.0 - x),
        }
        for p in range(1, 9):
            if p % 2 == 1 and k > k_sin_max:
                continue
            cols.append(column(families[p]))
            labels.append(("trig", k, p))
    for p, arr in ((1, np.ones_like(x)), (2, x), (3, y), (4, x * y)):
        cols.append(column(arr))
        labels.append(("poly", p))
    vectors = np.column_stack(cols)
    assert vectors.shape[1] == 4 * n - 4
    return KernelBasis(n=n, vectors=vectors, labels=tuple(labels))


def qr_diagonals(basis: KernelBasis) -> np.ndarray:
    """|R_jj| of the QR factorization of the basis columns in label order.

    A diagonal near zero would mean the corresponding vector is nearly a
    combination of its predecessors, i.e. the claimed basis degenerates.
    """
    r = np.linalg.qr(basis.vectors, mode="r")
    return np.abs(np.diag(r))


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
        from scipy.linalg import svdvals

        s, vh = svdvals(dense), None
    rank = int(np.sum(s > _RANK_RTOL * s[0])) if s.size else 0
    return rank, vh


def kernel_dimension(op: InteriorOperator, cols_cap: int = _SVD_COLS_CAP) -> int:
    """Numerical nullity of the operator: columns minus the dense SVD rank."""
    return op.matrix.shape[1] - _dense_rank(op, cols_cap)[0]


def kernel_basis_numeric(
    op: InteriorOperator, cols_cap: int = _SVD_COLS_CAP
) -> np.ndarray:
    """Orthonormal basis of the numerical kernel: the right singular vectors
    of a dense full SVD past the numerical rank."""
    rank, vh = _dense_rank(op, cols_cap, vectors=True)
    return vh[rank:].T


def boundary_mask(shape: tuple[int, ...], thickness: int) -> np.ndarray:
    """Boolean mask of cells within `thickness` cells of any boundary face."""
    if thickness < 1:
        raise ConfigurationError("layer thickness must be at least 1")
    mask = np.zeros(shape, dtype=bool)
    for axis, n in enumerate(shape):
        idx = np.arange(n)
        near = (idx < thickness) | (idx >= n - thickness)
        sl = [None] * len(shape)
        sl[axis] = slice(None)
        mask |= near[tuple(sl)]
    return mask


@dataclass(frozen=True)
class AngleReport:
    """Principal angles between Ker(A) and a boundary-layer subspace."""

    thickness: int
    angles: np.ndarray
    mean_cosine: float
    kernel_dim: int
    warning: str | None = None


def principal_angles(op: InteriorOperator, thickness: int) -> AngleReport:
    """Angles between the numerical kernel and the layer coordinate span.

    The layer subspace is spanned by coordinate vectors of cells within
    `thickness` of the boundary; those are already orthonormal, so the
    cosines are the singular values of the kernel basis restricted to layer
    rows, clipped into [0, 1]. mean_cosine is their average, a scalar
    summary of how much of the kernel lives near the boundary.
    """
    from scipy.linalg import svdvals

    q_ker = kernel_basis_numeric(op)
    kdim = q_ker.shape[1]
    mask = boundary_mask(op.grid.shape, thickness).ravel()
    cos = svdvals(q_ker[mask, :]) if mask.any() and kdim else np.zeros(0)
    cos = np.clip(cos, 0.0, 1.0)
    if cos.size < kdim:
        cos = np.concatenate([cos, np.zeros(kdim - cos.size)])
    angles = np.arccos(cos)
    warning = None
    n = op.grid.n
    if op.grid.dim == 2 and n[0] == n[1] and kdim != 4 * n[0] - 4:
        warning = (
            f"numerical kernel dimension {kdim} differs from the zero-drift "
            f"value {4 * n[0] - 4}"
        )
    return AngleReport(
        thickness=thickness,
        angles=angles,
        mean_cosine=float(cos.mean()) if cos.size else 0.0,
        kernel_dim=kdim,
        warning=warning,
    )


def boundary_weight_rho(err: DensityField, thickness: int) -> float:
    """Share of a field's 2-norm carried by the boundary layer.

    rho = ||e restricted to the layer|| / ||e||; for an identically zero
    field the ratio is undefined and raises.
    """
    norm = float(np.linalg.norm(err.values))
    if norm == 0.0:
        raise UndefinedRatioError("rho is undefined for a zero field")
    mask = boundary_mask(err.grid.shape, thickness).ravel()
    return float(np.linalg.norm(err.values[mask]) / norm)


def discrete_l2_error(u: DensityField, ref: DensityField) -> float:
    """h^(d/2) ||u - ref||_2, the cell-volume-weighted L2 distance."""
    if u.grid != ref.grid:
        raise DimensionError("fields live on different grids")
    h = u.grid.h
    return float(h ** (u.grid.dim / 2.0) * np.linalg.norm(u.values - ref.values))


def discrete_h1_error(u: DensityField, ref: DensityField) -> float:
    """L2 distance plus forward-difference gradient terms.

    Differences that would cross the domain boundary are omitted, so the
    gradient sum has n_k - 1 terms along dimension k.
    """
    if u.grid != ref.grid:
        raise DimensionError("fields live on different grids")
    h = u.grid.h
    vol = u.grid.cell_volume
    e = (u.values - ref.values).reshape(u.grid.shape)
    total = vol * float(np.sum(e * e))
    for axis in range(u.grid.dim):
        d = np.diff(e, axis=axis) / h
        total += vol * float(np.sum(d * d))
    return float(np.sqrt(total))


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ConfigurationError("need at least two points for a slope")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ConfigurationError("log-log slope needs positive data")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def convergence_study(
    model: ModelSpec,
    exact,
    lo: tuple[float, ...],
    hi: tuple[float, ...],
    mesh_sizes: tuple[int, ...],
    *,
    methods: tuple[str, ...] = ("mc", *METHODS),
    samples_per_cell: float = 390.625,
    block_cells: int = 32,
    iota: int = 1,
    schedule: tuple[float, ...] = DEFAULT_SHIFT_SCHEDULE,
    sampler: SamplerConfig = SamplerConfig(n_samples=0),
    solve_opts: SolveOptions | None = None,
) -> list[dict]:
    """Errors and timings of the estimators across mesh refinements.

    For each mesh size N the model is sampled once on the iota-inflated
    grid with every setting of sampler except two: n_samples is ignored
    in favour of round(samples_per_cell * N^d) retained states, and the
    seed is offset to sampler.seed + N. Every requested method is then
    evaluated against the exact density: "mc" is the raw histogram on the
    core grid, and every other name is one of the methods of
    repair.solve_method. Blocks are block_cells wide, so the block count
    grows with N. Every mesh size and partition, shifted ones included,
    is checked before the first sample is drawn. Returns one row per
    (N, method) with keys n, method, samples, l2, h1, wall_time.
    """
    known = {"mc", *METHODS}
    bad = set(methods) - known
    if bad:
        raise ConfigurationError(f"unknown methods {sorted(bad)}; pick from {sorted(known)}")
    if block_cells < 1:
        raise ConfigurationError(f"block size must be positive, got {block_cells}")
    if solve_opts is None:
        solve_opts = SolveOptions()
    halo = method_halo(methods, iota)
    dim = model.dim
    partitions = []
    for n_cells in mesh_sizes:
        if n_cells % block_cells != 0:
            raise ConfigurationError(
                f"mesh size {n_cells} is not a multiple of the block size {block_cells}"
            )
        grid = Grid(lo, hi, (n_cells,) * dim)
        partitions.append(BlockPartition(grid, (n_cells // block_cells,) * dim))
        if "shift" in methods:
            shifted_partitions(partitions[-1], schedule)
    rows: list[dict] = []
    for n_cells, partition in zip(mesh_sizes, partitions):
        grid = partition.grid
        n_samples = int(round(samples_per_cell * n_cells**dim))
        t0 = time.perf_counter()
        hist = accumulate_histogram(
            model,
            grid.inflate(halo),
            replace(sampler, n_samples=n_samples, seed=sampler.seed + n_cells),
        )
        sample_time = time.perf_counter() - t0
        v = histogram_to_density(hist)
        exact_field = DensityField.from_function(grid, exact)
        cfg = BlockSolveConfig(partition=partition, solve=solve_opts)
        for method in methods:
            if method == "mc":
                fld = restrict(v, tuple((halo, halo + m) for m in grid.n))
                wall = sample_time
            else:
                t0 = time.perf_counter()
                fld, _ = solve_method(model, v, cfg, method, iota, schedule)
                wall = time.perf_counter() - t0
            rows.append(
                {
                    "n": n_cells,
                    "method": method,
                    "samples": n_samples,
                    "l2": discrete_l2_error(fld, exact_field),
                    "h1": discrete_h1_error(fld, exact_field),
                    "wall_time": wall,
                }
            )
    return rows
