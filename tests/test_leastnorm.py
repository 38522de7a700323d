import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import eigsh, splu

from fpblock import (
    ConfigurationError,
    DensityField,
    Grid,
    InteriorOperator,
    NonConvergenceError,
    RankDeficiencyError,
    SamplerConfig,
    SolveOptions,
    accumulate_histogram,
    assemble,
    histogram_to_density,
    kernel_basis_numeric,
    ring_exact_density,
    ring_model,
    rossler_model,
    solve_least_norm,
    restrict,
    synthetic_reference,
    zero_drift_model,
)
from fpblock.leastnorm import (
    _band_axes,
    _cg,
    _direct,
    _galerkin,
    _gram,
    _lower_band,
    _tentative,
    _vcycle,
)
from oracles import gathered_band


def _toy_operator():
    # single constraint u0 + u1 = 0 on a three-cell interval: the one interior
    # row weights its left neighbour and itself, not its right neighbour
    grid = Grid((0.0,), (1.0,), (3,))
    coefficients = np.array([[1.0], [1.0], [0.0]])
    return InteriorOperator(grid=grid, coefficients=coefficients)


def test_minimal_correction_on_a_single_constraint():
    op = _toy_operator()
    v = DensityField(op.grid, np.array([1.0, 0.0, 0.0]))
    u, report = solve_least_norm(op, v)
    assert u.values == pytest.approx([0.5, -0.5, 0.0], abs=1e-14)
    assert report.distance == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert report.residual_constraint <= 1e-13
    assert report.min_value == pytest.approx(-0.5)


def test_reference_already_feasible_is_returned_unchanged():
    g = Grid((0.0, 0.0), (1.0, 1.0), (12, 12))
    op = assemble(zero_drift_model(2), g)
    # a constant sits in the kernel exactly, so the solve short-circuits
    v = DensityField(g, np.full(144, 3.25))
    u, report = solve_least_norm(op, v)
    assert np.array_equal(u.values, v.values)
    assert report.iterations == 0
    assert report.distance == 0.0
    # an affine field is feasible only up to rounding; still fixed to 1e-12
    w = DensityField.from_function(g, lambda p: 2.0 + p[..., 0] - 0.5 * p[..., 1])
    fixed, _ = solve_least_norm(op, w)
    assert np.allclose(fixed.values, w.values, atol=1e-12)


def test_constraint_residual_meets_reported_tolerance():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (16, 16))
    op = assemble(ring_model(), g)
    rng = np.random.default_rng(5)
    v = DensityField(g, np.abs(rng.normal(size=256)))
    opts = SolveOptions(cg_rel_tol=1e-10)
    u, report = solve_least_norm(op, v, opts)
    bound = 10.0 * opts.cg_rel_tol * np.max(np.abs(op.apply(v.values)))
    assert report.residual_constraint <= bound
    assert report.wall_time >= 0.0


def test_correction_is_orthogonal_to_kernel():
    g = Grid((0.0, 0.0), (1.0, 1.0), (10, 10))
    op = assemble(zero_drift_model(2), g)
    basis = kernel_basis_numeric(op)
    rng = np.random.default_rng(8)
    v = DensityField(g, rng.normal(size=100))
    u, _ = solve_least_norm(op, v)
    overlap = basis.T @ (u.values - v.values)
    assert np.max(np.abs(overlap)) < 1e-7


def test_solution_is_a_fixed_point():
    g = Grid((0.0, 0.0), (1.0, 1.0), (10, 10))
    op = assemble(ring_model(), g)
    v = DensityField(g, np.random.default_rng(11).normal(size=100))
    u, _ = solve_least_norm(op, v)
    again, report = solve_least_norm(op, u)
    assert np.allclose(again.values, u.values, atol=1e-9)
    assert report.distance < 1e-9


def test_iteration_cap_raises_with_history():
    # 48^2 is past the direct-solve cap, so the system goes to CG
    g = Grid((-2.0, -2.0), (2.0, 2.0), (48, 48))
    op = assemble(ring_model(), g)
    v = DensityField(g, np.random.default_rng(4).normal(size=48 * 48))
    with pytest.raises(NonConvergenceError) as err:
        solve_least_norm(op, v, SolveOptions(cg_max_iters=3))
    history = err.value.residual_history
    # initial residual plus one entry per iteration
    assert len(history) == 4
    assert history[-1] < history[0]


def _ring_block(shape):
    # one block of a noisy 128^2 ring reference, global coordinates kept
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (128, 128))
    v = synthetic_reference(
        DensityField.from_function(grid, ring_exact_density()), zeta=0.01, seed=0
    )
    return restrict(v, ((16, 16 + shape[0]), (16, 16 + shape[1])))


# a thin block is routed by its narrow side, whichever axis that is, and its
# longer axis goes outermost, so the band of A A^T is twice the narrow
# interior side wide
@pytest.mark.parametrize(
    "shape", [(32, 32), (34, 34), (100, 12), (12, 100)], ids=lambda s: "x".join(map(str, s))
)
def test_small_block_is_solved_directly_and_agrees_with_cg(shape):
    local = _ring_block(shape)
    op = assemble(ring_model(), local.grid)
    u, report = solve_least_norm(op, local)
    assert report.iterations == 0
    assert report.factor_nnz == op.matrix.shape[0] * (2 * (min(shape) - 2) + 1)
    b = -(op.matrix @ local.values)
    y, iters, _ = _cg(op.normal_matrix(), b, rel_tol=1e-10, max_iters=10_000)
    assert iters > 0
    assert np.max(np.abs(u.values - (local.values + op.matrix.T @ y))) <= 1e-10


@pytest.mark.parametrize(
    "model, grid",
    [
        (ring_model(), _ring_block((32, 32)).grid),
        (ring_model(), _ring_block((34, 34)).grid),
        (ring_model(), _ring_block((12, 100)).grid),
        (ring_model(), _ring_block((100, 12)).grid),
        # a side of 3 interior cells maps two couplings to one flat offset
        (ring_model(), _ring_block((34, 5)).grid),
        (rossler_model(), Grid((-15.0,) * 3, (0.0, -8.4375, 0.0), (16, 7, 16))),
        (rossler_model(), Grid((-15.0,) * 3, (0.0, 0.0, -10.3125), (16, 16, 5))),
    ],
    ids=["32x32", "34x34", "12x100", "100x12", "34x5", "rossler-16x7x16", "rossler-16x16x5"],
)
def test_stencil_normal_matrix_equals_sparse_product(model, grid):
    # the diagonals from slice products, and the band copied from them with
    # the longest axis outermost, equal A A^T formed by sparse products
    op = assemble(model, grid)
    shape = op.interior_shape
    product = (op.matrix @ op.matrix.T).tocsr()
    scale = np.max(np.abs(product.data))
    assert np.max(np.abs((op.normal_matrix() - product).data), initial=0.0) <= 1e-14 * scale
    axes = _band_axes(shape)
    band, expected = _lower_band(op.normal_matrix(axes)), gathered_band(product, shape, axes)
    assert band.shape == expected.shape
    assert np.max(np.abs(band - expected)) <= 1e-14 * scale


@pytest.mark.parametrize(
    "model, grid",
    [
        (rossler_model(), Grid((-15.0,) * 3, (0.0,) * 3, (16, 16, 16))),
        (rossler_model(), Grid((-15.0,) * 3, (0.0, 0.0, -10.3125), (16, 16, 5))),
        (ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (128, 128))),
    ],
    ids=["rossler-16^3-block", "rossler-thin-block", "ring-128^2-whole"],
)
def test_large_and_3d_systems_stay_on_cg(model, grid):
    op = assemble(model, grid)
    v = DensityField(grid, np.random.default_rng(6).random(grid.num_cells))
    # a loose tolerance keeps the run short; only the path is checked here
    _, report = solve_least_norm(op, v, SolveOptions(cg_rel_tol=1e-3))
    assert report.iterations > 0
    assert report.factor_nnz == 0


def _ring_case(n):
    return pytest.param(ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (n, n)), id=f"ring-{n}^2")


def _line_case(n):
    return pytest.param(zero_drift_model(1), Grid((0.0,), (1.0,), (n,)), id=f"line-{n}")


_MULTIGRID_CASES = [
    _ring_case(64),
    # 128 interior cells leave aggregates two cells wide along each edge
    _ring_case(130),
    # 64 interior cells leave one-wide edge aggregates, on which a linear
    # candidate depends on the constant and is dropped
    _ring_case(66),
    _line_case(2000),
    _line_case(2001),
]
_MULTIGRID_GRIDS = pytest.mark.parametrize("model, grid", _MULTIGRID_CASES)


@pytest.fixture
def float64_hierarchy(monkeypatch):
    # the hierarchy is built in float64 and rounded to float32 by one cast;
    # with that cast a no-op, the cycle is the float64 one, exact to rounding
    monkeypatch.setattr("fpblock.leastnorm._single", lambda a: a)


def _tentatives(op, levels):
    # per level, its candidates and the T and R that _tentative builds from
    # them, starting from 1 and the centred coordinates: a coarse level keeps
    # no T once its P is stored
    shape = op.interior_shape
    centred = np.indices(shape).reshape(len(shape), -1).T - (np.array(shape) - 1) / 2
    candidates = np.column_stack([np.ones(len(centred)), centred])
    built = []
    for lvl in levels:
        t, r = _tentative(candidates, lvl.shape, lvl.comps)
        built.append((candidates, t, r))
        candidates = r
    return built


@_MULTIGRID_GRIDS
def test_multigrid_preconditioner_is_symmetric_positive_definite(model, grid, float64_hierarchy):
    # CG is only valid with a symmetric positive definite preconditioner
    op = assemble(model, grid)
    normal = op.normal_matrix()
    precondition = _vcycle(normal, 1.0 / normal.diagonal(), op)
    rng = np.random.default_rng(12)
    for _ in range(5):
        x, y = rng.normal(size=(2, normal.shape[0]))
        bx, by = precondition(x), precondition(y)
        assert abs(bx @ y - x @ by) <= 1e-12 * np.linalg.norm(bx) * np.linalg.norm(y)
        assert bx @ x > 0.0


@_MULTIGRID_GRIDS
def test_each_level_spectrum_lies_inside_the_smoother_interval(model, grid, float64_hierarchy):
    # the Chebyshev smoother takes the spectrum of D^-1 M to lie in
    # [lambda / 30, lambda], and damps, keeping B positive definite, only
    # while the radius stays below lambda (1 + 1 / 30). omega lambda = 4 / 3,
    # so the radius over lambda is 3/4 of that of W M = omega D^-1 M, whose
    # spectrum is that of W^1/2 M W^1/2. These levels read 0.93 to 0.99; level
    # 2 of the 128^2 and 256^2 rings reads 1.0085, inside the positivity margin
    # (test_each_level_stays_inside_the_positivity_margin)
    op = assemble(model, grid)
    normal = op.normal_matrix()
    for lvl in _vcycle(normal, 1.0 / normal.diagonal(), op).args[0]:
        root = scipy.sparse.diags(np.sqrt(lvl.w))
        top, vec = eigsh(root @ lvl.mat.tocsr() @ root, k=1, which="LA", tol=1e-6)
        assert 0.75 * top[0] <= 1.0
        # the sweep on M x = 0 multiplies an eigenvector of W M by the
        # smoother's polynomial at its eigenvalue
        x = root @ vec[:, 0]
        assert np.linalg.norm(lvl.smooth(np.zeros_like(x), x.copy())) < np.linalg.norm(x)


@pytest.mark.parametrize("model, grid", [*_MULTIGRID_CASES, _ring_case(128), _ring_case(256)])
def test_each_level_stays_inside_the_positivity_margin(model, grid):
    # the Chebyshev cycle is positive definite only while the radius of
    # D^-1 M stays below lambda (1 + 1 / 30). The levels as the cycle stores
    # them, the coarse 2-D ones built in float32, read 0.928 to 1.0085 lambda:
    # the 128^2 ring reads 0.967, 0.977 and 1.0085, and level 2 of the 256^2
    # ring 1.0085 too, past lambda but inside the margin
    op = assemble(model, grid)
    normal = op.normal_matrix()
    levels = _vcycle(normal, 1.0 / normal.diagonal(), op).args[0]
    assert len(levels) >= 2
    for lvl in levels:
        root = scipy.sparse.diags(np.sqrt(lvl.w.astype(np.float64)))
        mat = lvl.mat.tocsr().astype(np.float64)
        top = eigsh(root @ mat @ root, k=1, which="LA", tol=1e-6)[0][0]
        assert 0.75 * top < 1.0 + 1.0 / 30.0


@_MULTIGRID_GRIDS
def test_stored_prolongator_equals_the_on_the_fly_product(model, grid, float64_hierarchy):
    # below the fine level P = (I - W M) T is stored; its products must be
    # the on-the-fly ones, edge aggregates and dropped candidates included,
    # and it must hold exactly the nonzero entries of the dense product
    op = assemble(model, grid)
    normal = op.normal_matrix()
    levels = _vcycle(normal, 1.0 / normal.diagonal(), op).args[0]
    assert levels[0].p is None and len(levels) >= 2
    rng = np.random.default_rng(13)
    for lvl, (_, t, _) in zip(levels[1:], _tentatives(op, levels)[1:]):
        p, plain = lvl.p, replace(lvl, p=None, t=t)
        xc, r = rng.normal(size=p.shape[1]), rng.normal(size=p.shape[0])
        for stored, direct in [
            (lvl.prolong(xc), plain.prolong(xc)),
            (lvl.restrict(r), plain.restrict(r)),
        ]:
            assert np.max(np.abs(stored - direct)) <= 1e-13 * np.max(np.abs(direct))
        dense = t.toarray()
        dense -= lvl.w[:, None] * (lvl.mat @ dense)
        assert p.nnz == np.count_nonzero(dense)
        assert p.data.all()
        assert p.data.nbytes + p.indices.nbytes + p.indptr.nbytes < lvl.mat.data.nbytes


@_MULTIGRID_GRIDS
def test_first_coarse_operator_is_the_probed_galerkin_product(model, grid, float64_hierarchy):
    # level 1's operator is built as the Gram matrix (A^T P)^T (A^T P); it
    # must equal the probed P^T M P and the sparse product with P = (I - W M) T,
    # keep the probed diagonals that hold a nonzero (on the square rings the
    # 12 of nodes (+-2, +-2) apart are exact zeros), be exactly symmetric, and
    # leave each unknown whose tentative column was dropped uncoupled, with a
    # unit diagonal
    op = assemble(model, grid)
    normal = op.normal_matrix()
    fine, coarse = _vcycle(normal, 1.0 / normal.diagonal(), op).args[0][:2]
    gram = coarse.mat
    probed = _galerkin(fine, 2)
    mat = fine.mat.tocsr()
    p = fine.t - scipy.sparse.diags(fine.w) @ mat @ fine.t
    dropped = np.flatnonzero(np.abs(fine.t).sum(axis=0).A1 == 0.0)
    assert len(dropped) == {(66, 66): 44, (2001,): 1}.get(grid.n, 0)
    unit = scipy.sparse.csr_matrix(
        (np.ones(len(dropped)), (dropped, dropped)), shape=gram.shape
    )
    scale = np.max(np.abs(probed.data))
    for expected in (probed, p.T @ mat @ p + unit):
        assert np.max(np.abs((gram - expected).tocsr().data)) <= 1e-14 * scale
    nonzero = probed.data.any(axis=1)
    assert np.array_equal(gram.offsets, probed.offsets[nonzero])
    assert not probed.data[~nonzero].any()
    assert np.count_nonzero(~nonzero) == (12 if grid.dim == 2 else 0)
    assert (gram.tocsr() != gram.T.tocsr()).nnz == 0
    assert np.array_equal(gram.tocsr()[dropped].toarray(), unit[dropped].toarray())


@pytest.mark.parametrize("n", [(6, 300), (400, 6), (300, 5)], ids=lambda n: "x".join(map(str, n)))
def test_first_coarse_operator_on_thin_grids_is_the_probed_product(n, float64_hierarchy):
    # coarse axes of one or two nodes, where offsets such as (0, 2) and (1, 0)
    # share a flat diagonal, so each must write only the couplings inside
    grid = Grid((0.0, 0.0), (0.01 * n[0], 0.01 * n[1]), n)
    op = assemble(ring_model(), grid)
    normal = op.normal_matrix()
    fine = _vcycle(normal, 1.0 / normal.diagonal(), op).args[0][0]
    gram, probed = _gram(fine, op, np.float64), _galerkin(fine, 2)
    assert np.array_equal(gram.offsets, probed.offsets)
    assert np.max(np.abs((gram - probed).tocsr().data)) <= 1e-14 * np.max(np.abs(probed.data))


@_MULTIGRID_GRIDS
def test_tentative_prolongator_is_orthonormal_and_reproduces_its_candidates(
    model, grid, float64_hierarchy
):
    # each level's T, rebuilt from the candidates 1 and the centred
    # coordinates, holds m = d + 1 entries per row; T R gives back the
    # candidates, and T^T T is the identity on every kept column
    op = assemble(model, grid)
    normal = op.normal_matrix()
    levels = _vcycle(normal, 1.0 / normal.diagonal(), op).args[0]
    m = op.grid.dim + 1
    built = _tentatives(op, levels)
    # the fine level keeps its T; the coarser ones store P = (I - W M) T,
    # which test_stored_prolongator_equals_the_on_the_fly_product checks
    assert (built[0][1] != levels[0].t).nnz == 0
    assert all(lvl.t is None for lvl in levels[1:])
    dropped = []
    for candidates, t, r in built:
        assert t.nnz == m * t.shape[0]
        assert np.max(np.abs(t @ r - candidates)) <= 1e-13 * np.max(np.abs(candidates))
        kept = np.abs(t).sum(axis=0).A1 > 0.0
        assert abs(t.T @ t - scipy.sparse.diags(kept.astype(float))).max() <= 1e-12
        assert not r[~kept].any()
        dropped.append(int(np.count_nonzero(~kept)))
    # a one-wide edge aggregate drops the linear candidate across it, on the
    # fine level and again on the coarse node it becomes
    assert dropped == {(66, 66): [44, 16], (2001,): [1, 1, 1]}.get(grid.n, [0] * len(levels))


@_MULTIGRID_GRIDS
def test_every_level_leaves_each_dropped_unknown_a_unit_uncoupled_row(
    model, grid, float64_hierarchy
):
    # a coarse unknown whose tentative column is empty, which the zero rows
    # of the coarse candidates mark, gets a unit diagonal and no coupling in
    # the operator each level builds below it; the coarsest is kept only as
    # its inverse, so it is built again
    op = assemble(model, grid)
    normal = op.normal_matrix()
    levels = _vcycle(normal, 1.0 / normal.diagonal(), op).args[0]
    dropped = []
    for i, (lvl, (_, t, _)) in enumerate(zip(levels, _tentatives(op, levels))):
        assert np.array_equal(lvl.dropped, np.abs(t).sum(axis=0).A1 == 0.0)
        coarse = levels[i + 1].mat if i + 1 < len(levels) else _galerkin(lvl, 2)
        unit = np.eye(coarse.shape[0])[lvl.dropped]
        assert np.array_equal(coarse.tocsr()[lvl.dropped].toarray(), unit)
        assert np.array_equal(coarse.tocsc()[:, lvl.dropped].toarray(), unit.T)
        dropped.append(int(np.count_nonzero(lvl.dropped)))
    assert dropped == {(66, 66): [44, 16], (2001,): [1, 1, 1]}.get(grid.n, [0] * len(levels))


@_MULTIGRID_GRIDS
def test_multigrid_cycle_is_stored_in_float32_and_positive(model, grid):
    # every level is stored and cycled in float32, the coarsest inverse stays
    # float64; rounding leaves B symmetric only to float32 precision (about
    # 1e-8 here), which flexible CG does not rely on, and positive
    op = assemble(model, grid)
    normal = op.normal_matrix()
    precondition = _vcycle(normal, 1.0 / normal.diagonal(), op)
    levels, coarsest = precondition.args
    for lvl in levels:
        stored = [lvl.mat.data, lvl.w] + [a.data for a in (lvl.t, lvl.p) if a is not None]
        assert all(a.dtype == np.float32 for a in stored)
    assert coarsest.dtype == np.float64
    assert normal.dtype == np.float64
    rng = np.random.default_rng(12)
    for _ in range(5):
        x, y = rng.normal(size=(2, normal.shape[0]))
        bx, by = precondition(x), precondition(y)
        assert bx.dtype == np.float64
        assert bx @ x > 0.0
        assert abs(bx @ y - x @ by) <= 1e-5 * np.linalg.norm(bx) * np.linalg.norm(y)


@_MULTIGRID_GRIDS
def test_coarse_2d_levels_are_built_in_float32_on_their_nonzero_diagonals(
    model, grid, monkeypatch
):
    # a coarse 2-D level is float32 from the start, so its P and the next
    # level are built from float32 products; the fine level, and every level of
    # a line, are built in float64. No coarse level stores an all-zero diagonal
    seen = []

    def recording(lvl, radius):
        seen.append((id(lvl), {a.dtype for a in (lvl.mat.data, lvl.w, lvl.p.data)}))
        return _galerkin(lvl, radius)

    monkeypatch.setattr("fpblock.leastnorm._galerkin", recording)
    op = assemble(model, grid)
    normal = op.normal_matrix()
    coarse = _vcycle(normal, 1.0 / normal.diagonal(), op).args[0][1:]
    dtype = {np.dtype(np.float32 if grid.dim == 2 else np.float64)}
    # each coarse level is handed to _galerkin with its P stored
    assert seen == [(id(lvl), dtype) for lvl in coarse]
    for lvl in coarse:
        assert lvl.mat.data.any(axis=1).all()
    if grid.dim == 2:
        assert len(coarse[0].mat.offsets) == 73


def test_a_coarse_level_that_is_not_positive_definite_names_itself(monkeypatch):
    # a negated level 2 (147 rows on the 64^2 ring) fails the diagonal check
    monkeypatch.setattr("fpblock.leastnorm._galerkin", lambda lvl, radius: -_galerkin(lvl, radius))
    op = assemble(ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (64, 64)))
    normal = op.normal_matrix()
    with pytest.raises(RankDeficiencyError) as caught:
        _vcycle(normal, 1.0 / normal.diagonal(), op)
    assert str(caught.value) == (
        "level 2 (147 rows) of the multigrid preconditioner is not positive definite "
        "(non-positive diagonal entry): the operator is rank deficient or too "
        "ill-conditioned"
    )


@pytest.mark.parametrize(
    "model, grid, field_tol",
    [
        (ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (64, 64)), 1e-12),
        (ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (128, 128)), 1e-12),
        (ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (256, 256)), 1e-12),
        # the line's normal system fixes its field only to about 1e-8 in
        # float64 itself: CG with the classical and the flexible beta, both in
        # float64, differ by 7.6e-9 there, at a tolerance of 1e-10 or 1e-13
        (zero_drift_model(1), Grid((0.0,), (1.0,), (2001,)), 1e-7),
    ],
    ids=["ring-64^2", "ring-128^2", "ring-256^2", "line-2001"],
)
def test_float32_cycle_takes_the_float64_iterations_and_field(model, grid, field_tol, monkeypatch):
    # the ring's 27, 32 and 38 iterations, and 28 on the line, which CG
    # solves only when called directly: solve_least_norm factors it
    op = assemble(model, grid)
    if grid.dim == 2:
        v = synthetic_reference(
            DensityField.from_function(grid, ring_exact_density()), zeta=0.01, seed=0
        ).values
    else:
        v = np.random.default_rng(0).random(grid.num_cells)
    b = -op.apply(v)

    def solve():
        y, iters, _ = _cg(op.normal_matrix(), b, 1e-10, 10 * b.size, op)
        return v + op.apply_transpose(y), iters

    u, iters = solve()
    monkeypatch.setattr("fpblock.leastnorm._single", lambda a: a)
    u64, iters64 = solve()
    assert iters == iters64 > 0
    assert np.max(np.abs(u - u64)) <= field_tol * np.max(np.abs(u64))


@pytest.mark.parametrize("scale", [1e-36, 1e-30, 1e30, 1e36])
def test_whole_solve_is_free_of_the_reference_scale(scale):
    # the cycle scales each residual to max|r| = 1 before rounding it to
    # float32; unscaled, b underflows there, and at 1e-30 and 1e-36 the
    # cycle reads r.z < 0
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (64, 64))
    v = synthetic_reference(
        DensityField.from_function(grid, ring_exact_density()), zeta=0.01, seed=0
    )
    op = assemble(ring_model(), grid)
    u, report = solve_least_norm(op, v)
    scaled, scaled_report = solve_least_norm(op, DensityField(grid, scale * v.values))
    assert scaled_report.iterations == report.iterations
    assert np.max(np.abs(scaled.values / scale - u.values)) <= 1e-12 * np.max(np.abs(u.values))


def test_whole_128_ring_projection_agrees_with_jacobi_in_few_iterations():
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (128, 128))
    v = synthetic_reference(
        DensityField.from_function(grid, ring_exact_density()), zeta=0.01, seed=0
    )
    op = assemble(ring_model(), grid)
    u, report = solve_least_norm(op, v)
    # the multigrid V-cycle takes 32 (43 with two damped Jacobi steps for
    # smoother); with piecewise-constant aggregates alone it took 201, and the
    # diagonal alone takes 4,034
    assert 0 < report.iterations <= 60
    b = -(op.matrix @ v.values)
    y, iters, _ = _cg(op.normal_matrix(), b, rel_tol=1e-10, max_iters=100_000)
    assert iters > 1000
    assert np.max(np.abs(u.values - (v.values + op.matrix.T @ y))) <= 1e-10


@pytest.mark.parametrize("n", [64, 128, 256])
def test_multigrid_iterations_stay_flat_as_the_mesh_doubles(n):
    # 27, 32 and 38 iterations (34, 43 and 54 with two damped Jacobi steps for
    # smoother); piecewise-constant aggregates alone took 105, 201 and 424,
    # doubling with the mesh
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (n, n))
    v = synthetic_reference(
        DensityField.from_function(grid, ring_exact_density()), zeta=0.01, seed=0
    )
    op = assemble(ring_model(), grid)
    _, report = solve_least_norm(op, v)
    assert 0 < report.iterations <= 70
    assert report.iterations == {64: 27, 128: 32, 256: 38}[n]
    assert report.residual_constraint <= 1e-9 * np.max(np.abs(op.apply(v.values)))


def test_cg_refuses_a_preconditioner_that_is_not_positive(monkeypatch):
    # the smoother's weight rests on an estimate of a spectral radius, so CG
    # checks r.z > 0 itself rather than iterate on with an indefinite map
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (48, 48))
    op = assemble(ring_model(), grid)
    b = -op.apply(np.random.default_rng(3).normal(size=grid.num_cells))
    monkeypatch.setattr("fpblock.leastnorm._vcycle", lambda mat, dinv, op: lambda r: -r)
    with pytest.raises(RankDeficiencyError, match="multigrid V-cycle preconditioner"):
        _cg(op.normal_matrix(), b, 1e-10, 100, op)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_cg_stops_on_the_first_residual_that_is_not_finite(bad, monkeypatch):
    # the coarsest level's inverse is one product, which passes a non-finite
    # vector on; CG must stop at the first residual norm that is not finite,
    # not iterate on to cg_max_iters
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (48, 48))
    op = assemble(ring_model(), grid)
    b = -op.apply(np.random.default_rng(3).normal(size=grid.num_cells))
    monkeypatch.setattr("fpblock.leastnorm._vcycle", lambda mat, dinv, op: lambda r: r * bad)
    with pytest.raises(NonConvergenceError, match="not finite") as caught:
        _cg(op.normal_matrix(), b, 1e-10, 1000, op)
    history = caught.value.residual_history
    assert len(history) <= 2
    assert np.isfinite(history[0]) and not np.isfinite(history[-1])


def test_cg_on_the_dia_matrix_matches_csr_exactly():
    # DIA and CSR products sum each row in the same order, so Jacobi CG reads
    # the normal matrix as the operator builds it, with no CSR copy
    grid = Grid((-15.0,) * 3, (0.0,) * 3, (16, 16, 16))
    op = assemble(rossler_model(), grid)
    b = -op.apply(np.random.default_rng(9).random(grid.num_cells))
    normal = op.normal_matrix()
    x, iters, history = _cg(normal, b, 1e-10, 10_000, op)
    x_csr, iters_csr, history_csr = _cg(normal.tocsr(), b, 1e-10, 10_000, op)
    assert iters == iters_csr > 0
    assert np.array_equal(x, x_csr)
    assert history == history_csr


def test_direct_solve_of_singular_system_raises_rank_deficiency():
    # the second constraint row is empty, so A A^T has a zero row and column
    grid = Grid((0.0,), (1.0,), (4,))
    coefficients = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    op = InteriorOperator(grid=grid, coefficients=coefficients)
    with pytest.raises(RankDeficiencyError):
        solve_least_norm(op, DensityField(grid, np.array([1.0, 0.0, 0.0, 0.0])))


def test_ill_conditioned_line_reports_its_residual_not_only_rank_deficiency():
    # A has full row rank on a zero-drift line, but its fourth-order normal
    # system of 1,999 rows is too ill-conditioned for the default tolerance:
    # the message gives the residual reached against the bound
    grid = Grid((0.0,), (1.0,), (2001,))
    x = grid.centers()[:, 0]
    v = np.sin(np.pi * x) + 0.01 * np.random.default_rng(0).normal(size=grid.num_cells)
    with pytest.raises(RankDeficiencyError) as caught:
        solve_least_norm(assemble(zero_drift_model(1), grid), DensityField(grid, v))
    # ||r||/||b|| read 1.39e-9 on a 2-vCPU host with OpenBLAS
    assert re.search(
        r"\|\|r\|\|/\|\|b\|\| \d\.\d\de-\d\d and max\|r\|/max\|b\| \S+ against 1\.00e-10 and "
        r"1\.00e-09\): the operator is rank deficient or too ill-conditioned",
        str(caught.value),
    )


def test_direct_solve_of_indefinite_matrix_raises_rank_deficiency():
    # symmetric with a positive diagonal, but not positive definite: LAPACK's
    # LinAlgError must come out as the package's RankDeficiencyError
    mat = scipy.sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(RankDeficiencyError, match="banded Cholesky"):
        _direct(mat, np.array([1.0, -1.0]), rel_tol=1e-10)


def test_badly_scaled_3d_block_converges_fast_and_agrees_with_lu():
    # a 16^3 corner block of the sampled 32^3 rossler reference; advection
    # dominates, so the diagonal of A A^T spans a factor of about 440
    grid = Grid((-15.0,) * 3, (15.0,) * 3, (32, 32, 32))
    hist = accumulate_histogram(
        rossler_model(),
        grid,
        SamplerConfig(n_samples=320_000, burn_in=2_000, seed=0, on_escape="restart"),
    )
    local = restrict(histogram_to_density(hist), ((0, 16), (0, 16), (0, 16)))
    op = assemble(rossler_model(), local.grid)
    u, report = solve_least_norm(op, local)
    # the diagonal preconditioner takes it in about 85; unpreconditioned, 411
    assert 0 < report.iterations <= 150
    b = -(op.matrix @ local.values)
    y = splu(op.normal_matrix().tocsc()).solve(b)
    expected = local.values + op.matrix.T @ y
    assert np.max(np.abs(u.values - expected)) <= 1e-10 * np.max(np.abs(local.values))


def test_empty_row_raises_rank_deficiency_before_any_iteration(monkeypatch):
    # 3-D systems always go to CG; the zeroed row leaves A A^T a zero diagonal
    grid = Grid((-15.0,) * 3, (0.0,) * 3, (6, 6, 6))
    op = assemble(rossler_model(), grid)
    op.coefficients.reshape(len(op.coefficients), -1)[:, 5] = 0.0
    normal = op.normal_matrix()
    products = []

    class CountingMatrix:
        def diagonal(self):
            return normal.diagonal()

        def __matmul__(self, vec):
            products.append(1)
            return normal @ vec

    counting = CountingMatrix()
    monkeypatch.setattr(op, "normal_matrix", lambda axes=None: counting)
    v = DensityField(grid, np.random.default_rng(7).random(grid.num_cells))
    with pytest.raises(RankDeficiencyError, match="empty row"):
        solve_least_norm(op, v)
    assert products == []


@pytest.mark.parametrize(
    "model, grid, bad",
    [
        (ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (32, 32)), (np.nan,)),
        (ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (128, 128)), (np.inf, -np.inf)),
        (rossler_model(), Grid((-15.0,) * 3, (0.0,) * 3, (16, 16, 16)), (np.nan,)),
    ],
    ids=["direct-32^2", "multigrid-cg-128^2", "jacobi-cg-16^3"],
)
def test_non_finite_reference_fails_before_the_normal_matrix(model, grid, bad, monkeypatch):
    # one NaN on a 16^3 block used to run CG to its cap of ten iterations per
    # row and end in a NaN residual; the 2-D paths raised scipy's ValueError
    calls = []
    monkeypatch.setattr(InteriorOperator, "normal_matrix", lambda *a, **k: calls.append(1))
    values = np.random.default_rng(5).random(grid.num_cells)
    values[[7, grid.num_cells // 2][: len(bad)]] = bad
    with pytest.raises(ConfigurationError, match=f"holds {len(bad)} non-finite"):
        solve_least_norm(assemble(model, grid), DensityField(grid, values))
    assert calls == []


def test_non_finite_reference_in_one_stack_member_fails_before_the_normal_matrix(
    monkeypatch,
):
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
    op = assemble(ring_model(), grid)
    stack = InteriorOperator(grid, np.stack([op.coefficients] * 3))
    values = np.random.default_rng(5).random((3, grid.num_cells))
    values[1, 7] = np.nan
    calls = []
    monkeypatch.setattr(InteriorOperator, "normal_matrix", lambda *a, **k: calls.append(1))
    with pytest.raises(ConfigurationError, match="holds 1 non-finite"):
        solve_least_norm(stack, [DensityField(grid, row) for row in values])
    assert calls == []


def test_a_stack_solves_each_member_as_alone_and_totals_its_report():
    # three 32^2 ring blocks, one with a zero reference, which is not factored
    grids = [Grid((x, -2.0), (x + 2.0, 0.0), (32, 32)) for x in (-2.0, 0.0)]
    grids.append(grids[0])
    ops = [assemble(ring_model(), g) for g in grids]
    refs = [
        synthetic_reference(DensityField.from_function(g, ring_exact_density()), 0.01, seed)
        for seed, g in enumerate(grids[:2])
    ]
    refs.append(DensityField(grids[2], np.zeros(grids[2].num_cells)))
    stack = InteriorOperator(grids[0], np.stack([op.coefficients for op in ops]))
    fields, report = solve_least_norm(stack, refs)
    alone = [solve_least_norm(op, v) for op, v in zip(ops, refs)]
    for fld, member, (want, want_report) in zip(fields, report.members, alone):
        assert fld.grid == want.grid
        assert np.array_equal(fld.values, want.values)
        assert replace(member, wall_time=0.0) == replace(want_report, wall_time=0.0)
    assert [m.factor_nnz > 0 for m in report.members] == [True, True, False]
    assert report.factor_nnz == sum(m.factor_nnz for m in report.members)
    assert report.iterations == 0
    assert report.residual_constraint == max(m.residual_constraint for m in report.members)
    assert report.min_value == min(m.min_value for m in report.members)
    distances = [m.distance for m in report.members]
    assert report.distance == pytest.approx(np.linalg.norm(distances))
    assert report.wall_time == pytest.approx(sum(m.wall_time for m in report.members))


def test_breakdown_on_singular_normal_matrix():
    mat = scipy.sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(RankDeficiencyError):
        _cg(mat, np.array([0.0, 1.0]), rel_tol=1e-10, max_iters=10)


def test_breakdown_on_indefinite_normal_matrix():
    # a positive diagonal passes the empty-row check; the curvature check
    # still catches a matrix that is not positive definite
    mat = scipy.sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(RankDeficiencyError, match="curvature"):
        _cg(mat, np.array([1.0, -1.0]), rel_tol=1e-10, max_iters=10)


def test_options_validation():
    with pytest.raises(ConfigurationError):
        SolveOptions(cg_rel_tol=0.0)
    with pytest.raises(ConfigurationError):
        SolveOptions(cg_rel_tol=1.5)
    with pytest.raises(ConfigurationError):
        SolveOptions(cg_max_iters=-2)
    # 0 is the one spelling of the automatic cap
    with pytest.raises(ConfigurationError):
        SolveOptions(cg_max_iters=None)
    assert SolveOptions().cg_max_iters == 0


def test_noise_reduction_follows_kernel_dimension():
    # the projector shrinks white noise by sqrt(kernel-dim / cells)
    n = 21
    g = Grid((0.0, 0.0), (1.0, 1.0), (n, n))
    op = assemble(zero_drift_model(2), g)
    basis = kernel_basis_numeric(op)
    anchor = basis @ np.random.default_rng(30).normal(size=basis.shape[1])
    zeta = 0.01
    rng = np.random.default_rng(31)
    ratios = []
    for _ in range(40):
        noise = rng.normal(size=n * n)
        v = DensityField(g, anchor + zeta * noise)
        u, _ = solve_least_norm(op, v)
        ratios.append(np.linalg.norm(u.values - anchor) / (zeta * n))
    expected = np.sqrt((4 * n - 4) / n**2)
    assert 0.5 * expected <= np.mean(ratios) <= 1.5 * expected
