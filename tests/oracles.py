"""Independent reference computations used by the tests.

Everything here is deliberately written the slow, obvious way (explicit
loops, textbook quadrature) so that agreement with the library is
evidence rather than tautology.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import scipy.sparse
from numpy.polynomial.legendre import leggauss
from scipy.special import erf

from fpblock import assemble, collage, enumerate_blocks, restrict, solve_least_norm


@lru_cache(maxsize=None)
def _gauss_rule(order):
    # leggauss solves an eigenproblem; per-cell loops would redo it each call
    return leggauss(order)


def gauss_cell_integral(fn, corner, h, dim, order=3):
    """Tensor-product Gauss-Legendre integral of fn over one cubic cell."""
    nodes, weights = _gauss_rule(order)
    axes = [corner[k] + 0.5 * h * (nodes + 1.0) for k in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    w = weights
    for _ in range(dim - 1):
        w = np.multiply.outer(w, weights)
    return float(np.sum(w.ravel() * fn(pts)) * (0.5 * h) ** dim)


def _cell_masses(fn, grid, flat_indices=None, order=3):
    """Per-cell Gauss integrals of fn over all cells (or a subset), in order."""
    if flat_indices is None:
        flat_indices = range(grid.num_cells)
    masses = []
    for flat in flat_indices:
        multi = np.unravel_index(flat, grid.shape)
        corner = [grid.lo[k] + multi[k] * grid.h for k in range(grid.dim)]
        masses.append(gauss_cell_integral(fn, corner, grid.h, grid.dim, order))
    return np.array(masses)


def grid_quadrature(fn, grid, flat_indices=None, order=3):
    """Sum of per-cell Gauss integrals over all cells (or a subset)."""
    return float(np.sum(_cell_masses(fn, grid, flat_indices, order)))


def independent_histogram(fn, grid, n_samples, seed):
    """Cell counts of n_samples independent draws from the density fn.

    The cell probabilities are the per-cell Gauss integrals of fn; the mass
    fn puts off the grid is one more category, so the returned counts sum
    to at most n_samples. One multinomial draw from PCG64(seed) gives all
    counts at once, with none of the serial correlation of a trajectory.

    Returns:
        (counts, masses): integer counts per cell in flat order, and the
        cell masses, so that n_samples * masses is the expected count.
    """
    masses = _cell_masses(fn, grid)
    off_grid = max(1.0 - float(masses.sum()), 0.0)
    probs = np.append(masses, off_grid)
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = rng.multinomial(n_samples, probs / probs.sum())
    return counts[:-1], masses


def ring_normalizer_closed_form(epsilon):
    """K = pi * integral_{-1}^{inf} exp(-2 t^2 / eps^2) dt via the error function."""
    s = epsilon / 2.0
    return np.pi * s * np.sqrt(np.pi / 2.0) * (1.0 + erf(np.sqrt(2.0) / epsilon))


def dense_interior_matrix(model, grid):
    """Row-by-row dense build of the interior finite difference operator.

    Independent of the library's vectorized assembly: one loop per interior
    cell, coefficients written straight from the upwind-free centered stencil
    (eps^2/2) * second difference - centered first difference of (f_k u).
    """
    n = grid.shape
    d = grid.dim
    h = grid.h
    eps2 = model.epsilon**2
    interior = [range(1, nk - 1) for nk in n]
    rows = int(np.prod([nk - 2 for nk in n]))
    cols = grid.num_cells
    mat = np.zeros((rows, cols))
    strides = np.array([int(np.prod(n[k + 1:])) for k in range(d)], dtype=int)

    def flat(multi):
        return int(np.dot(multi, strides))

    def center(multi):
        return np.array(
            [grid.lo[k] + (multi[k] + 0.5) * h for k in range(d)]
        )

    row = 0
    for multi in np.ndindex(*[nk - 2 for nk in n]):
        cell = np.array(multi) + 1
        mat[row, flat(cell)] = -d * eps2 / h**2
        for k in range(d):
            for sgn in (-1, 1):
                nb = cell.copy()
                nb[k] += sgn
                f = model.drift(center(nb))[k]
                mat[row, flat(nb)] = 0.5 * eps2 / h**2 - sgn * f / (2.0 * h)
        row += 1
    return mat


def coo_interior_matrix(model, grid):
    """The interior matrix from COO triplets, with one drift call per
    neighbour direction on the shifted interior centres, converted to CSR
    with sorted indices: an assembly that shares no code with the stencil."""
    h, d = grid.h, grid.dim
    diff = 0.5 * model.epsilon**2 / (h * h)
    adv = 0.5 / h
    mesh = np.meshgrid(*[np.arange(1, m - 1) for m in grid.n], indexing="ij")
    interior = np.stack([m.ravel() for m in mesh], axis=-1)
    row_ids = np.arange(interior.shape[0])
    lo = np.array(grid.lo)
    rows, cols = [row_ids], [np.ravel_multi_index(interior.T, grid.n)]
    vals = [np.full(row_ids.size, -2.0 * d * diff)]
    for k in range(d):
        for sgn in (1, -1):
            nb = interior.copy()
            nb[:, k] += sgn
            f_k = np.asarray(model.drift(lo + (nb + 0.5) * h), dtype=float)[:, k]
            rows.append(row_ids)
            cols.append(np.ravel_multi_index(nb.T, grid.n))
            vals.append(diff - sgn * adv * f_k)
    matrix = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row_ids.size, grid.num_cells),
    ).tocsr()
    matrix.sort_indices()
    return matrix


def gathered_band(normal, shape, axes):
    """Lower band of a normal matrix with the rows of the interior shape taken
    in the order of its transpose to axes, gathered entry by entry from COO."""
    order = np.arange(normal.shape[0]).reshape(shape).transpose(axes).ravel()
    where = np.argsort(order)
    coo = normal.tocoo()
    row, col = where[coo.row], where[coo.col]
    lower = row >= col
    band = np.zeros((int((row - col)[lower].max()) + 1, normal.shape[0]))
    band[(row - col)[lower], col[lower]] = coo.data[lower]
    return band


def per_block_solve(model, v, cfg, iota=0):
    """The block solve with every block's operator assembled on the block's own
    grid, one drift call per block: the (field, [SolveReport]) that
    blocks.solve_blocks must reproduce from its windows of one operator."""
    pieces, reports = [], []
    for block in enumerate_blocks(cfg.partition):
        local = restrict(v, tuple((a, b + 2 * iota) for a, b in block.core))
        u, report = solve_least_norm(assemble(model, local.grid), local, cfg.solve)
        core = tuple(slice(iota, m - iota) for m in local.grid.n)
        pieces.append((block.core, u.reshaped()[core]))
        reports.append(report)
    return collage(cfg.partition.grid, pieces), reports


def per_block_shifting(model, v, cfg, schedule):
    """Shift rounds of per_block_solve: the plain round, then one round per
    schedule fraction on the partition moved by it, each on the last output."""
    fld, reports = per_block_solve(model, v, cfg)
    rounds = [reports]
    for s in schedule:
        part = replace(cfg.partition, shift=(s,) * cfg.partition.grid.dim)
        fld, reports = per_block_solve(model, fld, replace(cfg, partition=part))
        rounds.append(reports)
    return fld, rounds


def ring_drift_reference(p):
    """f(x, y) = (-4x(x^2+y^2-1) + y, -4y(x^2+y^2-1) - x), one component at a time."""
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    g = 4.0 * (x * x + y * y - 1.0)
    return np.stack((-x * g + y, -y * g - x), axis=-1)


def rossler_drift_reference(p, a=0.2, b=0.2, c=5.7):
    """f(x, y, z) = (-y - z, x + a y, b + z (x - c))."""
    p = np.asarray(p, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return np.stack((-y - z, x + a * y, b + z * (x - c)), axis=-1)


def mmo_drift_reference(
    p, eta=0.01, nu=0.0072168, a=-0.3872, b=-0.3251, c=1.17
):
    """f(x, y, z) = ((y - x^2 - x^3)/eta, z - x, -nu - a x - b y - c z)."""
    p = np.asarray(p, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return np.stack(
        ((y - x * x - x * x * x) / eta, z - x, -nu - a * x - b * y - c * z),
        axis=-1,
    )
