import numpy as np
import pytest

import fpblock.blocks
from fpblock import (
    DEFAULT_SHIFT_SCHEDULE,
    BlockPartition,
    BlockSolveConfig,
    ConfigurationError,
    DensityField,
    DimensionError,
    Grid,
    interface_jump,
    restrict,
    ring_exact_density,
    ring_model,
    solve_blocks,
    solve_method,
    solve_overlapping,
    solve_shifting,
    synthetic_reference,
    zero_drift_model,
)


def _noisy_ring_reference(grid, zeta=0.01, seed=0):
    exact = DensityField.from_function(grid, ring_exact_density())
    return synthetic_reference(exact, zeta=zeta, seed=seed)


def test_default_schedule_shape():
    assert DEFAULT_SHIFT_SCHEDULE == (1 / 3, 2 / 3, 0.0)


def test_overlap_zero_reduces_to_plain_blocks():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
    v = _noisy_ring_reference(g)
    cfg = BlockSolveConfig(partition=BlockPartition(g, (2, 2)))
    plain, _ = solve_blocks(ring_model(), v, cfg)
    lapped, _ = solve_overlapping(ring_model(), v, cfg, iota=0)
    assert np.array_equal(plain.values, lapped.values)


@pytest.mark.parametrize(
    "solve", [solve_overlapping, solve_blocks], ids=["solve_overlapping", "solve_blocks"]
)
def test_overlap_requires_matching_inflated_reference(solve):
    g = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
    cfg = BlockSolveConfig(partition=BlockPartition(g, (2, 2)))
    v_wrong = _noisy_ring_reference(g)  # not inflated
    with pytest.raises(DimensionError) as err:
        solve(ring_model(), v_wrong, cfg, iota=1)
    assert "inflat" in str(err.value).lower()


def test_overlap_output_lives_on_the_core_grid():
    core = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
    v_ext = _noisy_ring_reference(core.inflate(1))
    cfg = BlockSolveConfig(partition=BlockPartition(core, (2, 2)))
    u, reports = solve_overlapping(ring_model(), v_ext, cfg, iota=1)
    assert u.grid == core
    assert len(reports) == 4
    # report ranges address the kept cores, in core-grid coordinates
    assert all(
        [hi - lo for lo, hi in r.cells] == [16, 16] for r in reports
    )


def test_overlap_keeps_constant_reference_fixed():
    core = Grid((0.0, 0.0), (1.0, 1.0), (20, 20))
    v_ext = DensityField(core.inflate(1), np.full(22 * 22, 0.5))
    cfg = BlockSolveConfig(partition=BlockPartition(core, (2, 2)))
    u, _ = solve_overlapping(zero_drift_model(2), v_ext, cfg, iota=1)
    assert np.allclose(u.values, 0.5, atol=1e-12)


def test_overlap_improves_on_plain_blocks():
    core = Grid((-2.0, -2.0), (2.0, 2.0), (64, 64))
    exact_core = DensityField.from_function(core, ring_exact_density())
    v_ext = _noisy_ring_reference(core.inflate(1), seed=2)
    v_core = restrict(v_ext, ((1, 65), (1, 65)))
    cfg = BlockSolveConfig(partition=BlockPartition(core, (2, 2)))
    plain, _ = solve_blocks(ring_model(), v_core, cfg)
    lapped, _ = solve_overlapping(ring_model(), v_ext, cfg, iota=1)
    err_plain = np.linalg.norm(plain.values - exact_core.values)
    err_lap = np.linalg.norm(lapped.values - exact_core.values)
    assert err_lap <= err_plain


def test_empty_schedule_is_plain_block_solve():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
    v = _noisy_ring_reference(g)
    cfg = BlockSolveConfig(partition=BlockPartition(g, (2, 2)))
    plain, _ = solve_blocks(ring_model(), v, cfg)
    shifted, rounds = solve_shifting(ring_model(), v, cfg, schedule=())
    assert np.array_equal(plain.values, shifted.values)
    assert len(rounds) == 1


def test_shift_rounds_are_recorded_per_pass():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
    v = _noisy_ring_reference(g)
    cfg = BlockSolveConfig(partition=BlockPartition(g, (2, 2)))
    _, rounds = solve_shifting(ring_model(), v, cfg)
    assert len(rounds) == 1 + len(DEFAULT_SHIFT_SCHEDULE)
    # the shifted passes cut extra partial blocks along each axis
    assert len(rounds[0]) == 4
    assert len(rounds[1]) == 9


def test_constant_reference_is_a_shifting_fixed_point():
    g = Grid((0.0, 0.0), (1.0, 1.0), (20, 20))
    v = DensityField(g, np.full(400, 1.0))
    cfg = BlockSolveConfig(partition=BlockPartition(g, (2, 2)))
    u, _ = solve_shifting(zero_drift_model(2), v, cfg, schedule=(0.5,))
    assert np.allclose(u.values, 1.0, atol=1e-12)


def test_shift_fractions_validated():
    g = Grid((0.0, 0.0), (1.0, 1.0), (20, 20))
    v = DensityField(g, np.full(400, 1.0))
    cfg = BlockSolveConfig(partition=BlockPartition(g, (2, 2)))
    with pytest.raises(ConfigurationError):
        solve_shifting(zero_drift_model(2), v, cfg, schedule=(1.2,))


def test_too_fine_shift_fails_before_any_solve(monkeypatch):
    # 5-cell blocks: the 1/3 shift moves the cuts by 2 cells and leaves a
    # 2-cell edge block, which must be caught before the plain round runs
    calls = []
    solve = fpblock.blocks.solve_least_norm

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fpblock.blocks, "solve_least_norm", counting_solve)
    g = Grid((-2.0, -2.0), (2.0, 2.0), (20, 20))
    v = _noisy_ring_reference(g)
    cfg = BlockSolveConfig(partition=BlockPartition(g, (4, 4)))
    with pytest.raises(ConfigurationError, match="2 cells wide"):
        solve_shifting(ring_model(), v, cfg)
    assert calls == []


def test_solve_method_trims_an_inflated_reference_to_each_methods_halo():
    # the reference carries 2 halo cells per side: overlap with iota = 1 reads
    # one of them, plain and shift read none
    core = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
    v_ext = _noisy_ring_reference(core.inflate(2))
    cfg = BlockSolveConfig(partition=BlockPartition(core, (2, 2)))
    model = ring_model()
    v_halo = restrict(v_ext, ((1, 35),) * 2)
    v_core = restrict(v_ext, ((2, 34),) * 2)
    expected = {
        "plain": (solve_blocks(model, v_core, cfg)[0], 1),
        "overlap": (solve_overlapping(model, v_halo, cfg, iota=1)[0], 1),
        "shift": (solve_shifting(model, v_core, cfg)[0], 1 + len(DEFAULT_SHIFT_SCHEDULE)),
    }
    for method, (fld, n_rounds) in expected.items():
        got, rounds = solve_method(model, v_ext, cfg, method, iota=1)
        assert got.grid == core
        assert np.array_equal(got.values, fld.values), method
        assert len(rounds) == n_rounds, method
        assert len(rounds[0]) == 4, method


def test_solve_method_rejects_an_unknown_method_before_any_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(fpblock.blocks, "solve_least_norm", lambda *a: calls.append(1))
    g = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
    cfg = BlockSolveConfig(partition=BlockPartition(g, (2, 2)))
    with pytest.raises(ConfigurationError, match="bogus"):
        solve_method(ring_model(), _noisy_ring_reference(g), cfg, "bogus")
    assert calls == []


def test_solve_method_needs_the_halo_and_a_matching_grid():
    core = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
    cfg = BlockSolveConfig(partition=BlockPartition(core, (2, 2)))
    with pytest.raises(ConfigurationError, match="--inflate 2"):
        solve_method(ring_model(), _noisy_ring_reference(core.inflate(1)), cfg,
                     "overlap", iota=2)
    # 35 cells: not the core inflated by whole cells, so nothing is trimmed
    odd = core.inflate(2).subgrid(((0, 35), (0, 35)))
    for method in ("plain", "overlap", "shift"):
        with pytest.raises(DimensionError, match="reference grid"):
            solve_method(ring_model(), _noisy_ring_reference(odd), cfg, method)


def test_shifting_beats_plain_blocks_on_noisy_reference():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (64, 64))
    exact = DensityField.from_function(g, ring_exact_density())
    v = synthetic_reference(exact, zeta=0.01, seed=3)
    cfg = BlockSolveConfig(partition=BlockPartition(g, (2, 2)))
    plain, _ = solve_blocks(ring_model(), v, cfg)
    shifted, _ = solve_shifting(ring_model(), v, cfg)
    err_plain = np.linalg.norm(plain.values - exact.values)
    err_shift = np.linalg.norm(shifted.values - exact.values)
    assert err_shift < err_plain


def test_interface_jump_drops_after_shifting():
    g = Grid((-2.0, -2.0), (2.0, 2.0), (64, 64))
    v = _noisy_ring_reference(g, seed=4)
    part = BlockPartition(g, (2, 2))
    cfg = BlockSolveConfig(partition=part)
    plain, _ = solve_blocks(ring_model(), v, cfg)
    shifted, _ = solve_shifting(ring_model(), v, cfg)
    assert interface_jump(shifted, part) < interface_jump(plain, part)


def test_interface_jump_zero_for_smooth_field():
    g = Grid((0.0, 0.0), (1.0, 1.0), (16, 16))
    part = BlockPartition(g, (2, 2))
    flat = DensityField(g, np.full(256, 2.0))
    assert interface_jump(flat, part) == 0.0
