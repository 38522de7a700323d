import numpy as np
import pytest
import scipy.sparse

from fpblock import (
    ConfigurationError,
    DensityField,
    DimensionError,
    Grid,
    InteriorOperator,
    SizeError,
    ModelSpec,
    assemble,
    ring_exact_density,
    ring_model,
    rossler_model,
    zero_drift_model,
)
from fpblock.analysis import kernel_dimension
from oracles import coo_interior_matrix, dense_interior_matrix


def test_shape_of_interior_operator():
    g = Grid((0.0, 0.0), (0.7, 0.9), (7, 9))
    op = assemble(zero_drift_model(2), g)
    assert op.shape == (5 * 7, 63)
    assert op.interior_shape == (5, 7)


def test_quadratic_rows_recover_laplacian():
    # with eps = sqrt(2) and zero drift the operator is the plain 5-point
    # Laplacian, so applying it to x^2 gives the constant 2
    g = Grid((0.0, 0.0), (1.0, 1.0), (9, 9))
    op = assemble(zero_drift_model(2, epsilon=np.sqrt(2.0)), g)
    fld = DensityField.from_function(g, lambda p: p[..., 0] ** 2)
    out = op.apply(fld.values)
    assert np.max(np.abs(out - 2.0)) < 1e-9


def test_matches_dense_loop_assembly():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (5, 5))
    m = ring_model(epsilon=0.8)
    op = assemble(m, g)
    dense = dense_interior_matrix(m, g)
    assert np.allclose(op.matrix.toarray(), dense, atol=1e-13)
    v = np.random.default_rng(1).normal(size=25)
    assert np.allclose(op.apply(v), dense @ v, atol=1e-12)


def test_matches_dense_loop_assembly_3d():
    g = Grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (5, 5, 5))
    m = ring_model(epsilon=0.8)

    # wrap the 2d ring drift into a 3d field to exercise all six neighbors
    def drift(p):
        p = np.asarray(p)
        out = np.empty_like(p, dtype=float)
        out[..., 0] = p[..., 1] - p[..., 2]
        out[..., 1] = p[..., 0] * p[..., 2]
        out[..., 2] = np.sin(p[..., 0])
        return out

    m3 = ModelSpec(name="swirl", dim=3, drift=drift, epsilon=0.5)
    op = assemble(m3, g)
    dense = dense_interior_matrix(m3, g)
    assert np.allclose(op.matrix.toarray(), dense, atol=1e-13)


@pytest.mark.parametrize(
    "model, grid",
    [
        (zero_drift_model(1, epsilon=0.7), Grid((0.0,), (1.0,), (11,))),
        (ring_model(), Grid((-2.0, -2.0), (2.25, -1.375), (34, 5))),
        (ring_model(), Grid((-2.0, -2.0), (-1.52, 2.0), (12, 100))),
        (rossler_model(), Grid((-15.0,) * 3, (0.0, 0.0, -10.3125), (16, 16, 5))),
    ],
    ids=["line-11", "ring-34x5", "ring-12x100", "rossler-16x16x5"],
)
def test_stencil_operator_matches_coo_assembly(model, grid):
    # the CSR built from the stencil equals the COO-assembled one entry for
    # entry, and the stencil products agree with the CSR ones
    op = assemble(model, grid)
    reference = coo_interior_matrix(model, grid)
    assert op.matrix.shape == reference.shape == op.shape
    assert np.array_equal(op.matrix.indptr, reference.indptr)
    assert np.array_equal(op.matrix.indices, reference.indices)
    assert np.array_equal(op.matrix.data, reference.data)
    rng = np.random.default_rng(3)
    u, y = rng.normal(size=op.shape[1]), rng.normal(size=op.shape[0])
    au, aty = reference @ u, reference.T @ y
    assert np.max(np.abs(op.apply(u) - au)) <= 1e-14 * np.max(np.abs(au))
    assert np.max(np.abs(op.apply_transpose(y) - aty)) <= 1e-14 * np.max(np.abs(aty))


def test_a_stack_is_the_block_diagonal_matrix_of_its_members():
    # three boxes of one shape; every entry coupling two members is an exact
    # zero, and each member's rows are those of its own operator to the bit
    grids = [Grid((x, 0.0), (x + 0.7, 0.9), (7, 9)) for x in (-2.0, -0.5, 1.0)]
    ops = [assemble(ring_model(), g) for g in grids]
    stack = InteriorOperator(grids[0], np.stack([op.coefficients for op in ops]))
    assert stack.stack == (3,) and ops[0].stack == ()
    assert stack.shape == (3 * 35, 3 * 63)
    assert (stack.matrix != scipy.sparse.block_diag([op.matrix for op in ops])).nnz == 0
    for axes in [(0, 1), (1, 0)]:
        expected = scipy.sparse.block_diag([op.normal_matrix(axes) for op in ops])
        assert np.array_equal(stack.normal_matrix(axes).toarray(), expected.toarray())
    rng = np.random.default_rng(4)
    u, y = rng.normal(size=(3, 63)), rng.normal(size=(3, 35))
    assert np.array_equal(stack.apply(u), [op.apply(x) for op, x in zip(ops, u)])
    assert np.array_equal(
        stack.apply_transpose(y), [op.apply_transpose(x) for op, x in zip(ops, y)]
    )
    with pytest.raises(DimensionError):
        stack.apply(u[:2])


def test_apply_is_linear():
    g = Grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    op = assemble(ring_model(), g)
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=64), rng.normal(size=64)
    lhs = op.apply(2.5 * a - 0.75 * b)
    rhs = 2.5 * op.apply(a) - 0.75 * op.apply(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * max(1.0, np.max(np.abs(lhs)))


def test_zero_field_gives_zero_residual():
    g = Grid((0.0, 0.0), (1.0, 1.0), (6, 6))
    op = assemble(ring_model(), g)
    assert np.all(op.apply(np.zeros(36)) == 0.0)


def test_apply_rejects_wrong_length():
    g = Grid((0.0, 0.0), (1.0, 1.0), (6, 6))
    op = assemble(ring_model(), g)
    with pytest.raises(DimensionError):
        op.apply(np.zeros(35))


def test_residual_of_exact_density_shrinks_at_second_order():
    model = ring_model(epsilon=1.0)
    exact = ring_exact_density(epsilon=1.0)
    norms = []
    for n in (32, 64, 128):
        g = Grid((-2.0, -2.0), (2.0, 2.0), (n, n))
        op = assemble(model, g)
        fld = DensityField.from_function(g, exact)
        norms.append(np.max(np.abs(op.apply(fld.values))))
    order1 = np.log2(norms[0] / norms[1])
    order2 = np.log2(norms[1] / norms[2])
    assert 1.7 <= order1 <= 2.3
    assert 1.7 <= order2 <= 2.3


def test_kernel_dimension_zero_drift():
    for n, expected in ((11, 40), (21, 80)):
        g = Grid((0.0, 0.0), (1.0, 1.0), (n, n))
        op = assemble(zero_drift_model(2), g)
        assert kernel_dimension(op) == expected


def test_kernel_dimension_one_dimensional():
    g = Grid((0.0,), (1.0,), (17,))
    op = assemble(zero_drift_model(1), g)
    assert kernel_dimension(op) == 2


def test_kernel_dimension_refuses_huge_problems():
    g = Grid((0.0, 0.0), (1.0, 1.0), (80, 80))
    op = assemble(zero_drift_model(2), g)
    with pytest.raises(SizeError):
        kernel_dimension(op)


def test_assembly_validates_input():
    g = Grid((0.0, 0.0), (1.0, 1.0), (6, 6))
    with pytest.raises(DimensionError):
        assemble(zero_drift_model(3), g)
    tiny = Grid((0.0, 0.0), (1.0, 1.0), (2, 2))
    with pytest.raises(ConfigurationError):
        assemble(zero_drift_model(2), tiny)
