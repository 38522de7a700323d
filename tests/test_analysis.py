import numpy as np
import pytest

from fpblock import (
    ConfigurationError,
    DensityField,
    Grid,
    SamplerConfig,
    UndefinedRatioError,
    assemble,
    boundary_mask,
    boundary_weight_rho,
    convergence_study,
    discrete_h1_error,
    discrete_l2_error,
    kernel_basis_numeric,
    laplacian_kernel_basis,
    principal_angles,
    qr_diagonals,
    ring_exact_density,
    ring_model,
    zero_drift_model,
)
from fpblock.analysis import loglog_slope


# ---------------------------------------------------------------- kernel basis


def test_basis_count_matches_kernel_dimension():
    for n in (5, 11, 21):
        basis = laplacian_kernel_basis(n)
        assert basis.vectors.shape == (n * n, 4 * n - 4)
        assert len(basis.labels) == 4 * n - 4


def test_basis_vectors_annihilated_by_operator():
    n = 21
    g = Grid((0.0, 0.0), (1.0, 1.0), (n, n))
    op = assemble(zero_drift_model(2, epsilon=np.sqrt(2.0)), g)
    basis = laplacian_kernel_basis(n)
    residual = np.max(np.abs(op.matrix @ basis.vectors))
    assert residual <= 1e-8


def test_basis_columns_are_unit_length():
    basis = laplacian_kernel_basis(11)
    norms = np.linalg.norm(basis.vectors, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_constant_member_has_uniform_entries():
    n = 9
    basis = laplacian_kernel_basis(n)
    pos = basis.labels.index(("poly", 1))
    col = basis.vectors[:, pos]
    assert np.allclose(col, 1.0 / n)


def test_basis_rejects_even_or_tiny_sizes():
    with pytest.raises(ConfigurationError):
        laplacian_kernel_basis(10)
    with pytest.raises(ConfigurationError):
        laplacian_kernel_basis(3)


def test_qr_diagonals_of_orthonormal_columns_are_unit():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(50, 8)))
    diags = qr_diagonals_from_matrix(q)
    assert np.allclose(diags, 1.0, atol=1e-12)


def qr_diagonals_from_matrix(mat):
    # tiny adapter: qr_diagonals takes the basis container
    class Holder:
        vectors = mat

    return qr_diagonals(Holder())


def test_qr_diagonals_positive_for_constructed_basis():
    diags = qr_diagonals(laplacian_kernel_basis(21))
    assert np.all(diags > 1e-6)
    assert diags[0] == pytest.approx(1.0, abs=1e-9)


def test_numeric_kernel_agrees_with_construction():
    n = 9
    g = Grid((0.0, 0.0), (1.0, 1.0), (n, n))
    op = assemble(zero_drift_model(2), g)
    numeric = kernel_basis_numeric(op)
    assert numeric.shape == (81, 4 * n - 4)
    # orthonormal columns spanning the same space as the closed form
    gram = numeric.T @ numeric
    assert np.allclose(gram, np.eye(4 * n - 4), atol=1e-10)
    built = laplacian_kernel_basis(n).vectors
    coeffs = numeric.T @ built
    recon = numeric @ coeffs
    assert np.max(np.abs(recon - built)) < 1e-8


# -------------------------------------------------------------- boundary layer


def test_boundary_mask_counts():
    m = boundary_mask((6, 6), 1)
    assert m.shape == (6, 6)
    assert m.sum() == 36 - 16
    assert not m[2, 3]
    assert m[0, 3] and m[3, 5]
    m2 = boundary_mask((6, 6), 2)
    assert m2.sum() == 36 - 4
    assert boundary_mask((6, 6), 3).all()


def test_boundary_mask_three_dimensional():
    m = boundary_mask((5, 5, 5), 1)
    assert m.sum() == 125 - 27


def _unit_field(values):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    grid = Grid((0.0,) * values.ndim, (1.0,) * values.ndim, values.shape)
    assert all(m == n for m in values.shape)
    return DensityField(grid, values)


def test_rho_of_boundary_supported_error_is_one():
    err = np.zeros((8, 8))
    mask = boundary_mask((8, 8), 1)
    err[mask] = np.random.default_rng(1).normal(size=mask.sum())
    fld = _unit_field(err)
    assert boundary_weight_rho(fld, 1) == pytest.approx(1.0)
    # thicker layers keep the full weight
    assert boundary_weight_rho(fld, 2) == pytest.approx(1.0)


def test_rho_of_interior_error_is_zero():
    err = np.zeros((8, 8))
    err[3:5, 3:5] = 1.0
    assert boundary_weight_rho(_unit_field(err), 1) == 0.0


def test_rho_rejects_zero_field():
    with pytest.raises(UndefinedRatioError):
        boundary_weight_rho(_unit_field(np.zeros((6, 6))), 1)


def test_rho_of_white_noise_matches_area_fraction():
    rng = np.random.default_rng(2)
    err = rng.normal(size=(64, 64))
    expected = np.sqrt((64**2 - 60**2) / 64**2)
    assert boundary_weight_rho(_unit_field(err), 2) == pytest.approx(expected, rel=0.1)


def test_principal_angles_full_mask_gives_unit_cosines():
    g = Grid((0.0, 0.0), (1.0, 1.0), (10, 10))
    op = assemble(zero_drift_model(2), g)
    rep = principal_angles(op, thickness=5)
    assert rep.mean_cosine == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(np.cos(rep.angles), 1.0, atol=1e-10)
    assert rep.kernel_dim == 36


def test_principal_angles_concentrate_noise_at_boundary():
    g = Grid((0.0, 0.0), (1.0, 1.0), (52, 52))
    op = assemble(zero_drift_model(2), g)
    rep = principal_angles(op, thickness=2)
    assert rep.mean_cosine >= 0.5
    assert rep.warning is None
    assert len(rep.angles) == rep.kernel_dim == 4 * 52 - 4


def test_mean_cosine_predicts_projected_noise_share():
    # p_D estimates how much of projected white noise lands in the layer
    n = 24
    g = Grid((0.0, 0.0), (1.0, 1.0), (n, n))
    op = assemble(zero_drift_model(2), g)
    rep = principal_angles(op, thickness=2)
    basis = kernel_basis_numeric(op)
    rng = np.random.default_rng(3)
    shares = []
    for _ in range(60):
        w = basis @ (basis.T @ rng.normal(size=n * n))
        shares.append(boundary_weight_rho(DensityField(g, w), 2) ** 2)
    assert np.mean(shares) == pytest.approx(rep.mean_cosine**2, rel=0.35)


# ----------------------------------------------------------------- error norms


def test_l2_error_of_identical_fields_is_zero():
    g = Grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    fld = DensityField(g, np.random.default_rng(4).normal(size=64))
    assert discrete_l2_error(fld, fld) == 0.0
    assert discrete_h1_error(fld, fld) == 0.0


def test_l2_error_of_constant_offset():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
    a = DensityField(g, np.zeros(1024))
    b = DensityField(g, np.full(1024, 0.01))
    # volume 16, so the discrete L2 norm is 0.01 * 4
    assert discrete_l2_error(a, b) == pytest.approx(0.04, rel=1e-12)
    # a constant has no gradient: H1 equals L2
    assert discrete_h1_error(a, b) == pytest.approx(0.04, rel=1e-12)


def test_l2_error_of_white_noise_scales_with_zeta():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (64, 64))
    zeta = 0.01
    noise = zeta * np.random.default_rng(5).standard_normal(64 * 64)
    err = discrete_l2_error(DensityField(g, noise), DensityField(g, np.zeros(4096)))
    assert err == pytest.approx(zeta * 4.0, rel=0.05)


def test_h1_error_of_white_noise_scales_like_inverse_h():
    zeta = 0.01
    rng = np.random.default_rng(6)
    vals = []
    for n in (32, 64, 128):
        g = Grid((-2.0, -2.0), (2.0, 2.0), (n, n))
        noise = zeta * rng.standard_normal(n * n)
        err = discrete_h1_error(
            DensityField(g, noise), DensityField(g, np.zeros(n * n))
        )
        predicted = zeta * np.sqrt(2 * 2 * 16.0) / g.h
        assert err == pytest.approx(predicted, rel=0.1)
        vals.append(err)
    assert vals[1] / vals[0] == pytest.approx(2.0, rel=0.2)
    assert vals[2] / vals[1] == pytest.approx(2.0, rel=0.2)


def test_error_norms_require_matching_grids():
    a = DensityField(Grid((0.0,), (1.0,), (8,)), np.zeros(8))
    b = DensityField(Grid((0.0,), (2.0,), (8,)), np.zeros(8))
    with pytest.raises(ConfigurationError):
        discrete_l2_error(a, b)


def test_loglog_slope_recovers_power_law():
    xs = np.array([64.0, 128.0, 256.0])
    ys = 3.0 * xs**-0.5
    assert loglog_slope(xs, ys) == pytest.approx(-0.5, abs=1e-12)


# ---------------------------------------------------------- convergence harness


def test_convergence_study_row_structure():
    rows = convergence_study(
        ring_model(),
        ring_exact_density(),
        (-2.0, -2.0),
        (2.0, 2.0),
        mesh_sizes=(32,),
        methods=("mc", "plain", "overlap", "shift"),
        samples_per_cell=40.0,
        block_cells=16,
        sampler=SamplerConfig(n_samples=0, burn_in=2_000, seed=11),
    )
    assert [r["method"] for r in rows] == ["mc", "plain", "overlap", "shift"]
    # oracle values: a refactor of the solve path must reproduce them to 1e-12
    frozen = {
        "mc": (0.16191820724160427, 1.3358127531225583),
        "plain": (0.134469707531602, 0.7251075932821032),
        "overlap": (0.12643132328103007, 0.48908280543970684),
        "shift": (0.12103177481873123, 0.43977449278191016),
    }
    for r in rows:
        assert r["n"] == 32
        assert r["samples"] == round(40.0 * 32**2)
        assert (r["l2"], r["h1"]) == pytest.approx(frozen[r["method"]], rel=1e-12)
        assert r["wall_time"] >= 0.0


def test_convergence_study_samples_rule():
    rows = convergence_study(
        ring_model(),
        ring_exact_density(),
        (-2.0, -2.0),
        (2.0, 2.0),
        mesh_sizes=(16, 32),
        methods=("mc",),
        samples_per_cell=390.625,
        block_cells=8,
        sampler=SamplerConfig(n_samples=0, burn_in=1_000, seed=1),
    )
    assert rows[0]["samples"] == 100_000
    assert rows[1]["samples"] == 400_000
