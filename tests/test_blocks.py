import numpy as np
import pytest

from fpblock import (
    BlockPartition,
    BlockSolveConfig,
    CollageError,
    DensityField,
    Grid,
    assemble,
    collage,
    enumerate_blocks,
    restrict,
    ring_exact_density,
    ring_model,
    solve_blocks,
    solve_least_norm,
    synthetic_reference,
    worst_residual,
    zero_drift_model,
)


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
