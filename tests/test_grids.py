import numpy as np
import pytest

from fpblock import (
    Block,
    BlockPartition,
    ConfigurationError,
    DensityField,
    DimensionError,
    Grid,
    enumerate_blocks,
    flat_bin_indices,
)


def test_cell_center_unit_square():
    g = Grid((0.0, 0.0), (1.0, 1.0), (2, 2))
    assert g.centers().tolist() == [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]]


def test_cell_center_matches_halfcell_offset():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (256, 256))
    h = g.h
    c = g.centers()
    assert c[0] == pytest.approx((-2 + h / 2, -2 + h / 2), abs=1e-15)
    assert c[-1] == pytest.approx((2 - h / 2, 2 - h / 2), abs=1e-15)


def test_spacing_must_match_across_dimensions():
    with pytest.raises(ConfigurationError):
        Grid((0.0, 0.0), (1.0, 2.0), (10, 10))
    # equal widths under the relative tolerance are accepted
    Grid((0.0, 0.0), (1.0, 1.0 + 1e-14), (10, 10))
    with pytest.raises(ConfigurationError):
        Grid((0.0, 0.0), (1.0, 1.0 + 1e-9), (10, 10))


def test_grid_rejects_bad_bounds_and_counts():
    with pytest.raises(ConfigurationError):
        Grid((0.0,), (0.0,), (4,))
    with pytest.raises(ConfigurationError):
        Grid((0.0, 0.0), (1.0, 1.0), (0, 4))
    with pytest.raises(ConfigurationError):
        Grid((0.0, 0.0), (1.0,), (4, 4))


@pytest.mark.parametrize(
    "lo, hi",
    [((np.nan, -2.0), (2.0, 2.0)), ((-2.0, -2.0), (2.0, np.inf)),
     ((-np.inf, -2.0), (2.0, 2.0)), ((-np.inf, -np.inf), (np.inf, np.inf))],
    ids=["lo-nan", "hi-inf", "lo-minus-inf", "all-infinite"],
)
def test_grid_rejects_non_finite_bounds(lo, hi):
    with pytest.raises(ConfigurationError, match="finite"):
        Grid(lo, hi, (4, 4))


def test_locate_cell_centers_round_trip():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (7, 7))
    assert flat_bin_indices(g, g.centers()).tolist() == list(range(49))


def test_flat_bin_indices_row_major_and_outside():
    g = Grid((0.0, 0.0), (1.0, 1.0), (3, 3))
    pts = np.array(
        [
            [0.1, 0.1],  # cell (0,0) -> flat 0
            [0.1, 0.5],  # cell (0,1) -> flat 1, last index fastest
            [0.5, 0.1],  # cell (1,0) -> flat 3
            [1.0, 1.0],  # closed top corner -> flat 8
            [1.5, 0.5],  # outside
        ]
    )
    assert flat_bin_indices(g, pts).tolist() == [0, 1, 3, 8, -1]


def test_locate_cell_edges():
    g = Grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    pts = np.array(
        [
            [0.0, 0.0],  # the low corner -> cell (0,0)
            [0.25, 0.1],  # an interior face belongs to the upper cell (1,0)
            [1.0, 1.0],  # the domain's top corner is kept in the last cell
            [1.0 + 1e-12, 0.5],  # just past hi -> outside
            [-0.1, 0.5],  # below lo -> outside
        ]
    )
    assert flat_bin_indices(g, pts).tolist() == [0, 4, 15, -1, -1]


def test_field_values_flatten_with_last_index_fastest():
    g = Grid((0.0, 0.0), (0.75, 1.0), (3, 4))
    fld = DensityField.from_function(g, lambda p: p[..., 1])
    assert fld.values[:4] == pytest.approx(g.axis_centers(1))
    assert fld.reshaped().shape == (3, 4)
    assert fld.reshaped()[2, 1] == pytest.approx(g.axis_centers(1)[1])


def test_field_accepts_shaped_input_and_is_read_only():
    g = Grid((0.0, 0.0), (1.0, 1.0), (2, 2))
    fld = DensityField(g, np.arange(4.0).reshape(2, 2))
    assert fld.values.shape == (4,)
    with pytest.raises(ValueError):
        fld.values[0] = 9.0
    with pytest.raises(DimensionError):
        DensityField(g, np.zeros(5))


def test_field_mass_constant():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (8, 8))
    fld = DensityField(g, np.full(64, 1.0 / 16.0))
    assert fld.mass == pytest.approx(1.0, rel=1e-12)
    assert fld.renormalized().mass == pytest.approx(1.0, rel=1e-12)


def test_renormalized_scales_to_unit_mass():
    g = Grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    fld = DensityField(g, np.random.default_rng(3).uniform(0.5, 2.0, 16))
    out = fld.renormalized()
    assert out.mass == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(out.values / fld.values, out.values[0] / fld.values[0])


def test_inflate_adds_halo_cells_and_keeps_spacing():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (64, 64))
    big = g.inflate(2)
    assert big.n == (68, 68)
    assert big.h == pytest.approx(g.h)
    assert big.lo == pytest.approx((-2 - 2 * g.h, -2 - 2 * g.h))
    assert g.inflate(0) == g


def test_subgrid_keeps_physical_coordinates():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (8, 8))
    sub = g.subgrid(((2, 6), (0, 4)))
    assert sub.n == (4, 4)
    # cell (0,0) of the subgrid is cell (2,0) of the parent
    parent = g.centers().reshape(8, 8, 2)
    assert sub.centers().reshape(4, 4, 2) == pytest.approx(parent[2:6, 0:4])


def test_partition_counts_and_sizes():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (256, 256))
    part = BlockPartition(g, (8, 8))
    blocks = enumerate_blocks(part)
    assert len(blocks) == 64
    for b in blocks:
        spans = [hi - lo for lo, hi in b.core]
        assert spans == [32, 32]


def test_partition_rejects_indivisible_and_tiny_blocks():
    g = Grid((0.0, 0.0), (1.0, 1.0), (10, 10))
    with pytest.raises(ConfigurationError):
        BlockPartition(g, (3, 3))
    g2 = Grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    with pytest.raises(ConfigurationError):
        BlockPartition(g2, (2, 2))  # 4-cell blocks are below the minimum


def test_shifted_cuts_one_dimensional_hand_enumeration():
    # 128 cells, 4 blocks of 32, shift of half a block: offset 16
    g = Grid((0.0,), (1.0,), (128,))
    part = BlockPartition(g, (4,), shift=(0.5,))
    blocks = enumerate_blocks(part)
    cuts = [b.core[0] for b in blocks]
    assert cuts == [(0, 16), (16, 48), (48, 80), (80, 112), (112, 128)]


def test_shifted_partition_256_grid():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (256, 256))
    part = BlockPartition(g, (8, 8), shift=(0.5, 0.5))
    blocks = enumerate_blocks(part)
    assert len(blocks) == 81
    full = [
        b
        for b in blocks
        if all(hi - lo == 32 for lo, hi in b.core)
    ]
    assert len(full) == 49
    strip = [hi - lo for lo, hi in blocks[0].core]
    assert strip == [16, 16]


def test_shift_offset_rounds_half_up():
    g = Grid((0.0,), (1.0,), (40,))
    # 0.45 of a 10-cell block is 4.5 cells; round half up gives 5
    part = BlockPartition(g, (4,), shift=(0.45,))
    blocks = enumerate_blocks(part)
    assert blocks[0].core[0] == (0, 5)


def test_shift_requiring_thin_strip_is_rejected():
    g = Grid((0.0,), (1.0,), (40,))
    with pytest.raises(ConfigurationError):
        enumerate_blocks(BlockPartition(g, (4,), shift=(0.2,)))  # 2-cell strip


def test_shift_zero_matches_plain_partition():
    g = Grid((0.0, 0.0), (1.0, 1.0), (20, 20))
    plain = enumerate_blocks(BlockPartition(g, (2, 2)))
    shifted = enumerate_blocks(BlockPartition(g, (2, 2), shift=(0.0, 0.0)))
    assert [b.core for b in plain] == [b.core for b in shifted]


def test_partition_covers_grid_exactly():
    g = Grid((0.0, 0.0), (1.0, 1.0), (64, 64))
    for shift in [(0.0, 0.0), (1 / 3, 1 / 3), (2 / 3, 2 / 3)]:
        covered = np.zeros((64, 64), dtype=int)
        for b in enumerate_blocks(BlockPartition(g, (2, 2), shift=shift)):
            sl = tuple(slice(lo, hi) for lo, hi in b.core)
            covered[sl] += 1
        assert covered.min() == 1 and covered.max() == 1


def test_block_shift_fraction_validated():
    g = Grid((0.0, 0.0), (1.0, 1.0), (20, 20))
    with pytest.raises(ConfigurationError):
        BlockPartition(g, (2, 2), shift=(1.0, 0.0))


def test_block_grids_inherit_parent_coordinates():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (64, 64))
    part = BlockPartition(g, (2, 2))
    b = enumerate_blocks(part)[3]
    assert isinstance(b, Block)
    core_grid = g.subgrid(b.core)
    parent = g.centers().reshape(64, 64, 2)
    assert core_grid.centers()[0] == pytest.approx(parent[b.core[0][0], b.core[1][0]])
