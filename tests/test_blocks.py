from dataclasses import replace

import numpy as np
import pytest

import fpblock.blocks
from fpblock import (
    DEFAULT_SHIFT_SCHEDULE,
    BlockPartition,
    BlockSolveConfig,
    CollageError,
    ConfigurationError,
    DensityField,
    Grid,
    ModelSpec,
    RankDeficiencyError,
    assemble,
    collage,
    enumerate_blocks,
    restrict,
    ring_exact_density,
    ring_model,
    rossler_model,
    solve_blocks,
    solve_least_norm,
    solve_overlapping,
    solve_shifting,
    synthetic_reference,
    worst_residual,
    zero_drift_model,
)
from fpblock.leastnorm import stack_limit
from oracles import per_block_shifting, per_block_solve


def test_restrict_whole_grid_is_identity():
    g = Grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    fld = DensityField(g, np.random.default_rng(0).normal(size=64))
    out = restrict(fld, ((0, 8), (0, 8)))
    assert out.grid == g
    assert np.array_equal(out.values, fld.values)


def test_restrict_corner_block_of_partition():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (256, 256))
    arr = np.random.default_rng(1).normal(size=(256, 256))
    fld = DensityField(g, arr)
    block = enumerate_blocks(BlockPartition(g, (8, 8)))[0]
    out = restrict(fld, block.core)
    assert out.grid.n == (32, 32)
    assert np.array_equal(out.reshaped(), arr[:32, :32])


def test_collage_reassembles_restrictions():
    g = Grid((0.0, 0.0), (1.0, 1.0), (16, 16))
    fld = DensityField(g, np.random.default_rng(2).normal(size=256))
    part = BlockPartition(g, (2, 2))
    pieces = [(b.core, restrict(fld, b.core)) for b in enumerate_blocks(part)]
    back = collage(g, pieces)
    assert np.array_equal(back.values, fld.values)


def test_collage_of_constant_blocks():
    g = Grid((0.0,), (1.0,), (10,))
    left = DensityField(g.subgrid(((0, 5),)), np.full(5, 1.0))
    right = DensityField(g.subgrid(((5, 10),)), np.full(5, 2.0))
    out = collage(g, [(((0, 5),), left), (((5, 10),), right)])
    assert out.values.tolist() == [1.0] * 5 + [2.0] * 5


def test_collage_rejects_overlap_and_gap():
    g = Grid((0.0,), (1.0,), (10,))
    a = DensityField(g.subgrid(((0, 6),)), np.zeros(6))
    b = DensityField(g.subgrid(((4, 10),)), np.zeros(6))
    with pytest.raises(CollageError):
        collage(g, [(((0, 6),), a), (((4, 10),), b)])
    with pytest.raises(CollageError):
        collage(g, [(((0, 6),), a)])


def test_single_block_equals_whole_domain_solve():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (24, 24))
    v = DensityField(g, np.abs(np.random.default_rng(3).normal(size=576)))
    whole, _ = solve_least_norm(assemble(ring_model(), g), v)
    cfg = BlockSolveConfig(partition=BlockPartition(g, (1, 1)))
    tiled, reports = solve_blocks(ring_model(), v, cfg)
    assert len(reports) == 1
    assert np.allclose(tiled.values, whole.values, atol=1e-12)


def test_reference_in_every_local_kernel_is_unchanged():
    g = Grid((0.0, 0.0), (1.0, 1.0), (20, 20))
    v = DensityField(g, np.full(400, 0.7))
    cfg = BlockSolveConfig(partition=BlockPartition(g, (2, 2)))
    u, reports = solve_blocks(zero_drift_model(2), v, cfg)
    assert np.allclose(u.values, v.values, atol=1e-12)
    assert len(reports) == 4


def test_block_reports_align_with_enumeration():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (20, 20))
    v = DensityField(g, np.abs(np.random.default_rng(4).normal(size=400)))
    part = BlockPartition(g, (2, 2))
    _, reports = solve_blocks(ring_model(), v, BlockSolveConfig(partition=part))
    assert [r.index for r in reports] == [b.index for b in enumerate_blocks(part)]
    assert [r.cells for r in reports] == [b.core for b in enumerate_blocks(part)]
    assert worst_residual(reports) >= 0.0


def test_block_solve_reduces_error_of_noisy_reference():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (64, 64))
    exact = DensityField.from_function(g, ring_exact_density())
    v = synthetic_reference(exact, zeta=0.01, seed=6)
    cfg = BlockSolveConfig(partition=BlockPartition(g, (2, 2)))
    u, _ = solve_blocks(ring_model(), v, cfg)
    err_v = np.linalg.norm(v.values - exact.values)
    err_u = np.linalg.norm(u.values - exact.values)
    assert err_u < 0.6 * err_v


def _noisy_ring(grid, seed=0):
    exact = DensityField.from_function(grid, ring_exact_density())
    return synthetic_reference(exact, zeta=0.01, seed=seed)


def _uniform(grid, seed=0):
    return DensityField(grid, np.random.default_rng(seed).random(grid.num_cells))


def _windowed_and_per_block(method, model, grid, blocks, reference, schedule):
    """(field, solve reports) of a method as the library runs it, on windows
    of one operator per partition, and as the per-block oracle runs it."""
    cfg = BlockSolveConfig(partition=BlockPartition(grid, blocks))
    if method == "overlap":
        v = reference(grid.inflate(1))
        fld, reports = solve_overlapping(model, v, cfg, iota=1)
        return (fld, [r.solve for r in reports]), per_block_solve(model, v, cfg, iota=1)
    v = reference(grid)
    if method == "plain":
        fld, reports = solve_blocks(model, v, cfg)
        return (fld, [r.solve for r in reports]), per_block_solve(model, v, cfg)
    fld, rounds = solve_shifting(model, v, cfg, schedule)
    expected, expected_rounds = per_block_shifting(model, v, cfg, schedule)
    return (
        (fld, [r.solve for reports in rounds for r in reports]),
        (expected, [r for reports in expected_rounds for r in reports]),
    )


def _outcome(report):
    return (
        report.iterations,
        report.factor_nnz,
        report.residual_constraint,
        report.distance,
        report.min_value,
    )


@pytest.mark.parametrize("method", ["plain", "overlap", "shift"])
def test_windows_equal_per_block_assembly_on_a_dyadic_grid(method):
    # h = 1/16: every block's cell centres and h are those of the whole grid
    # to the bit, so its window holds the coefficients its own assembly would
    (fld, reports), (expected, expected_reports) = _windowed_and_per_block(
        method, ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (64, 64)), (2, 2),
        _noisy_ring, DEFAULT_SHIFT_SCHEDULE,
    )
    assert np.array_equal(fld.values, expected.values)
    assert [_outcome(r) for r in reports] == [_outcome(r) for r in expected_reports]


@pytest.mark.parametrize("method", ["plain", "overlap", "shift"])
def test_windows_match_per_block_assembly_off_the_dyadic_grid(method):
    # h = 0.05: a block's own grid rounds its centres and h differently from
    # the whole grid, so the two assemblies differ in the last bits
    (fld, reports), (expected, expected_reports) = _windowed_and_per_block(
        method, ring_model(), Grid((-1.3, -1.7), (1.7, 1.3), (60, 60)), (3, 3),
        _noisy_ring, DEFAULT_SHIFT_SCHEDULE,
    )
    assert np.max(np.abs(fld.values - expected.values)) <= 1e-13
    assert len(reports) == len(expected_reports)
    for got, want in zip(reports, expected_reports):
        assert (got.iterations, got.factor_nnz) == (want.iterations, want.factor_nnz)
        assert abs(got.distance - want.distance) <= 1e-13
        assert abs(got.min_value - want.min_value) <= 1e-13
        # max|A u| is itself rounding noise, about 1e-13 here
        assert abs(got.residual_constraint - want.residual_constraint) <= 1e-12


def test_windows_equal_per_block_assembly_on_a_3d_rossler_partition():
    # 10^3 blocks go to Jacobi CG; the half shift adds 5-cell edge blocks
    (fld, reports), (expected, expected_reports) = _windowed_and_per_block(
        "shift", rossler_model(), Grid((-15.0,) * 3, (15.0,) * 3, (20, 20, 20)),
        (2, 2, 2), _uniform, (0.5,),
    )
    assert np.array_equal(fld.values, expected.values)
    assert [_outcome(r) for r in reports] == [_outcome(r) for r in expected_reports]
    assert all(r.iterations > 0 for r in reports)


@pytest.mark.parametrize("method", ["plain", "overlap", "shift"])
def test_stacks_of_many_same_shape_blocks_equal_per_block_solves(method):
    # 64 blocks of 16^2 (h = 1/32) outnumber one stack, with or without the
    # halo, so each shape is cut into several stacks, and every block keeps
    # the numbers of its own solve; the shifts are by halves, whose edge
    # blocks of 8 cells stack too
    assert 49 > stack_limit((16, 16)) and 64 > stack_limit((18, 18))
    (fld, reports), (expected, expected_reports) = _windowed_and_per_block(
        method, ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (128, 128)), (8, 8),
        _noisy_ring, (0.5, 0.0),
    )
    assert np.array_equal(fld.values, expected.values)
    assert [_outcome(r) for r in reports] == [_outcome(r) for r in expected_reports]


def test_stacks_on_a_1d_partition_equal_per_block_solves():
    # the shifted rounds add partial edge blocks, stacks of other shapes
    ou = ModelSpec(name="ou", dim=1, drift=lambda p: -4.0 * np.asarray(p), epsilon=0.5)
    (fld, reports), (expected, expected_reports) = _windowed_and_per_block(
        "shift", ou, Grid((-1.0,), (1.0,), (64,)), (4,), _uniform, DEFAULT_SHIFT_SCHEDULE,
    )
    assert np.array_equal(fld.values, expected.values)
    assert [_outcome(r) for r in reports] == [_outcome(r) for r in expected_reports]
    assert all(r.factor_nnz > 0 for r in reports)


def test_rank_deficient_stack_member_names_its_block(monkeypatch):
    # an empty interior row in block (1, 0) gives its normal system a zero
    # pivot, while the other members of its stack factor fine
    g = Grid((-2.0, -2.0), (2.0, 2.0), (64, 64))
    assert stack_limit((32, 32)) > 1
    whole = assemble(ring_model(), g)
    whole.coefficients[:, 39, 9] = 0.0
    monkeypatch.setattr(fpblock.blocks, "assemble", lambda model, grid: whole)
    cfg = BlockSolveConfig(partition=BlockPartition(g, (2, 2)))
    with pytest.raises(
        RankDeficiencyError,
        match=r"^block \(1, 0\), cells \(\(32, 64\), \(0, 32\)\): banded Cholesky",
    ):
        solve_blocks(ring_model(), _noisy_ring(g), cfg)


def test_drift_not_finite_at_an_interior_block_corner_fails_before_any_solve(
    monkeypatch,
):
    # cell (9, 9) is the corner of block (0, 0): no block's interior row reads
    # it, but a row of the whole grid does, and the whole grid is assembled
    # before the first block is solved
    g = Grid((-2.0, -2.0), (2.0, 2.0), (20, 20))
    corner = np.array(g.lo) + 9.5 * g.h
    ring = ring_model()

    def drift(p):
        out = ring.drift(p)
        out[np.all(np.isclose(p, corner), axis=-1)] = np.nan
        return out

    calls = []
    solve = fpblock.blocks.solve_least_norm

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fpblock.blocks, "solve_least_norm", counting_solve)
    cfg = BlockSolveConfig(partition=BlockPartition(g, (2, 2)))
    v = _noisy_ring(g)
    with pytest.raises(ConfigurationError, match="non-finite"):
        solve_blocks(replace(ring, drift=drift), v, cfg)
    assert calls == []
    # the per-block assembly never reads that cell
    per_block_solve(replace(ring, drift=drift), v, cfg)
