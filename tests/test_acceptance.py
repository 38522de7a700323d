"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every test measures the quantity it gates at the configuration the
guarantee names, records a CRITERION line on the verdict board (replayed
after the run by conftest), and then asserts. Nothing here tunes seeds or
tolerances to the data: the seeds are the library defaults and the bands
are the published ones, so a band miss shows up as an honest FAIL line
with the measured number next to it.

Criteria 5-7 read two kinds of ring data at the same meshes (64, 128,
256), 390.625 samples per cell, 32-cell blocks, schedule (1/3, 2/3, 0)
and seed 0 + N:

- `conv`, convergence_study's histograms of one Euler-Maruyama
  trajectory per mesh. Criterion 5's orderings and criterion 7's H1
  growth read it. Its error is mostly a smooth field set by the
  trajectory's length, which the projection cannot remove, so the
  noise law of criterion 4 does not hold on it and its shift/mc ratios
  and slope are printed, not gated.
- `indep`, multinomial draws of the same sample counts from the exact
  cell masses. Criterion 5's halving bound reads its shift/mc ratio;
  criterion 6's band reads the slope of its projected noise,
  ||shift(v) - shift(E)|| with E the draw's expectation.

The convergence fixture is shared by criteria 5-7 and is the single
longest sampling job; the whole module is CPU-bound for roughly fifteen
minutes, dominated by the criterion-9 whole-domain solve.
"""

import time

import numpy as np
import pytest

from fpblock import (
    BlockPartition,
    BlockSolveConfig,
    DensityField,
    Grid,
    Histogram,
    SamplerConfig,
    accumulate_histogram,
    assemble,
    boundary_weight_rho,
    convergence_study,
    discrete_l2_error,
    histogram_to_density,
    laplacian_kernel_basis,
    mmo_model,
    qr_diagonals,
    ring_exact_density,
    ring_model,
    rossler_model,
    solve_blocks,
    solve_least_norm,
    solve_shifting,
    synthetic_reference,
    worst_residual,
    zero_drift_model,
)
from fpblock.analysis import kernel_dimension, loglog_slope
from oracles import grid_quadrature, independent_histogram

# Annulus 0.5 <= r^2 <= 1.5 mass of the exact ring density, integrated by
# per-cell Gauss quadrature over the covered cells of the 64^2 grid on
# [-2,2]^2 (frozen from the oracle; the test re-derives and pins it).
RING_ANNULUS_MASS = 0.704389


def unit_square(n: int) -> Grid:
    return Grid((0.0, 0.0), (1.0, 1.0), (n, n))


def laplace_op(n: int):
    # epsilon = sqrt(2) turns the zero-drift operator into the plain
    # five-point Laplacian, the normal form all kernel counts refer to
    return assemble(zero_drift_model(2, epsilon=np.sqrt(2.0)), unit_square(n))


STUDY_MESHES = (64, 128, 256)
# convergence_study's defaults, which the conv fixture leaves in place
SAMPLES_PER_CELL = 390.625
BLOCK_CELLS = 32
SHIFT_SCHEDULE = (1.0 / 3.0, 2.0 / 3.0, 0.0)
SEED = 0


@pytest.fixture(scope="module")
def conv():
    # one trajectory per mesh with every step kept: gated on the method
    # orderings (criterion 5) and the H1 growth (criterion 7) only
    t0 = time.perf_counter()
    rows = convergence_study(
        ring_model(),
        ring_exact_density(),
        (-2.0, -2.0),
        (2.0, 2.0),
        STUDY_MESHES,
    )
    wall = time.perf_counter() - t0
    return rows, wall


@pytest.fixture(scope="module")
def indep():
    """Errors of independent-sample ring histograms and their shift solves.

    Per mesh N: mc and shift are the L2 errors of the draw v and of its
    shift solve against the exact density; noise is ||shift(v) - shift(E)||,
    the projected sampling noise, with E = cell mass / cell volume the
    noise-free histogram.
    """
    model = ring_model()
    exact = ring_exact_density()
    rows = {}
    for n in STUDY_MESHES:
        grid = Grid((-2.0, -2.0), (2.0, 2.0), (n, n))
        n_samples = int(round(SAMPLES_PER_CELL * n**2))
        counts, masses = independent_histogram(exact, grid, n_samples, SEED + n)
        v = histogram_to_density(Histogram(grid, counts, n_samples))
        expected = DensityField(grid, masses / grid.cell_volume)
        blocks = (n // BLOCK_CELLS, n // BLOCK_CELLS)
        cfg = BlockSolveConfig(BlockPartition(grid, blocks))
        shift_v, _ = solve_shifting(model, v, cfg, SHIFT_SCHEDULE)
        shift_e, _ = solve_shifting(model, expected, cfg, SHIFT_SCHEDULE)
        ref = DensityField.from_function(grid, exact)
        rows[n] = {
            "mc": discrete_l2_error(v, ref),
            "shift": discrete_l2_error(shift_v, ref),
            "noise": discrete_l2_error(shift_v, shift_e),
        }
    return rows


def pick(rows, n, method, key):
    for row in rows:
        if row["n"] == n and row["method"] == method:
            return float(row[key])
    raise KeyError((n, method))


def test_criterion_01_kernel_dimension(criterion):
    t0 = time.perf_counter()
    got = {n: kernel_dimension(laplace_op(n)) for n in (11, 21, 31)}
    wall = time.perf_counter() - t0
    exact = all(got[n] == 4 * n - 4 for n in got)
    ok = exact and wall < 10.0
    criterion(
        1,
        ok,
        f"nullity {got} vs 4N-4 {'match' if exact else 'MISMATCH'}, "
        f"wall {wall:.2f}s (budget 10s)",
    )
    assert ok, (got, wall)


def test_criterion_02_kernel_basis_validity(criterion):
    t0 = time.perf_counter()
    stats = {}
    for n in (21, 101):
        basis = laplacian_kernel_basis(n)
        resid = float(np.max(np.abs(laplace_op(n).matrix @ basis.vectors)))
        min_diag = float(np.min(np.abs(qr_diagonals(basis))))
        stats[n] = (resid, min_diag)
    wall = time.perf_counter() - t0
    ok = (
        all(r <= 1e-8 and d > 1e-6 for r, d in stats.values())
        and wall < 30.0
    )
    criterion(
        2,
        ok,
        "max|A b| " + " ".join(f"N={n}:{r:.2e}" for n, (r, _) in stats.items())
        + " (<=1e-8), min QR diag "
        + " ".join(f"N={n}:{d:.2e}" for n, (_, d) in stats.items())
        + f" (>1e-6), wall {wall:.2f}s (budget 30s)",
    )
    assert ok, (stats, wall)


def test_criterion_03_last_qr_diagonal(criterion):
    last = float(np.abs(qr_diagonals(laplacian_kernel_basis(101))[-1]))
    ok = 0.010 <= last <= 0.020
    criterion(3, ok, f"last |R| diagonal at N=101 is {last:.6f}, band [0.010, 0.020]")
    assert ok, last


def test_criterion_04_projection_noise_reduction(criterion):
    n = 31
    zeta = 0.01
    grid = unit_square(n)
    op = laplace_op(n)
    w = laplacian_kernel_basis(n).vectors[:, 0]
    rng = np.random.Generator(np.random.PCG64(2026))
    t0 = time.perf_counter()
    ratios = []
    for _ in range(100):
        v = DensityField(grid, w + zeta * rng.standard_normal(w.size))
        u, _ = solve_least_norm(op, v)
        ratios.append(np.linalg.norm(u.values - w) / (zeta * n))
    wall = time.perf_counter() - t0
    mean = float(np.mean(ratios))
    law = float(np.sqrt((4 * n - 4) / n**2))
    ok = 0.5 * law <= mean <= 1.5 * law and wall < 60.0
    criterion(
        4,
        ok,
        f"mean reduction {mean:.5f} vs law {law:.5f}, band [{0.5 * law:.5f}, "
        f"{1.5 * law:.5f}], wall {wall:.1f}s (budget 60s)",
    )
    assert ok, (mean, law, wall)


def test_criterion_05_desk_scale_error_ordering(criterion, conv, indep):
    rows, wall = conv
    parts = []
    ok = wall < 900.0
    for n in (64, 128):
        l2 = {m: pick(rows, n, m, "l2") for m in ("mc", "plain", "overlap", "shift")}
        ordering = (
            l2["shift"] < l2["overlap"]
            and l2["overlap"] <= 1.1 * l2["plain"]
            and l2["plain"] < l2["mc"]
        )
        ratio = indep[n]["shift"] / indep[n]["mc"]
        halving = ratio <= 0.5
        ok = ok and ordering and halving
        parts.append(
            f"N={n} trajectory shift/overlap/plain/mc {l2['shift']:.4f}/"
            f"{l2['overlap']:.4f}/{l2['plain']:.4f}/{l2['mc']:.4f} ordering "
            f"{'ok' if ordering else 'BROKEN'}, independent shift/mc "
            f"{ratio:.3f} (need <=0.5), trajectory shift/mc "
            f"{l2['shift'] / l2['mc']:.3f} (not gated)"
        )
    criterion(5, ok, "; ".join(parts) + f"; wall {wall:.0f}s (budget 900s)")
    assert ok, parts


def test_criterion_06_shift_error_decay_rate(criterion, conv, indep):
    rows, _ = conv
    ns = STUDY_MESHES
    noise = [indep[n]["noise"] for n in ns]
    slope = loglog_slope(ns, noise)
    total_slope = loglog_slope(ns, [indep[n]["shift"] for n in ns])
    trajectory_slope = loglog_slope(ns, [pick(rows, n, "shift", "l2") for n in ns])
    ok = -0.8 <= slope <= -0.2
    criterion(
        6,
        ok,
        f"independent |shift(v)-shift(E)| {' '.join(f'{e:.5f}' for e in noise)} "
        f"over N={ns}, slope {slope:.3f}, band [-0.8, -0.2]; not gated: "
        f"independent total-error slope {total_slope:.3f}, trajectory slope "
        f"{trajectory_slope:.3f}",
    )
    assert ok, (noise, slope)


def test_criterion_07_h1_growth_contrast(criterion, conv):
    rows, _ = conv
    ns = STUDY_MESHES
    mc = [pick(rows, n, "mc", "h1") for n in ns]
    shift = [pick(rows, n, "shift", "h1") for n in ns]
    mc_growth = [mc[i + 1] / mc[i] for i in range(2)]
    shift_growth = [shift[i + 1] / shift[i] for i in range(2)]
    ok = all(1.5 <= g <= 3.0 for g in mc_growth) and all(
        g < 1.5 for g in shift_growth
    )
    criterion(
        7,
        ok,
        f"mc H1 growth per doubling {mc_growth[0]:.2f}, {mc_growth[1]:.2f} "
        f"(band [1.5, 3]); shift growth {shift_growth[0]:.2f}, "
        f"{shift_growth[1]:.2f} (< 1.5)",
    )
    assert ok, (mc_growth, shift_growth)


def test_criterion_08_error_concentration_on_block_rim(criterion):
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (64, 64))
    exact = DensityField.from_function(grid, ring_exact_density())
    op = assemble(ring_model(), grid)
    wins = 0
    rho_u_all = []
    for trial in range(20):
        ref = synthetic_reference(exact, zeta=0.01, seed=trial)
        u, _ = solve_least_norm(op, ref)
        rho_u = boundary_weight_rho(
            DensityField(grid, u.values - exact.values), thickness=2
        )
        rho_v = boundary_weight_rho(
            DensityField(grid, ref.values - exact.values), thickness=2
        )
        wins += rho_u > rho_v
        rho_u_all.append(rho_u)
    median = float(np.median(rho_u_all))
    ok = wins >= 18 and median >= 0.5
    criterion(
        8,
        ok,
        f"rho_u beats rho_v in {wins}/20 trials (need >=18), "
        f"median rho_u {median:.3f} (need >=0.5)",
    )
    assert ok, (wins, median)


def test_criterion_09_block_solver_speedup(criterion):
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (512, 512))
    exact = DensityField.from_function(grid, ring_exact_density())
    v = synthetic_reference(exact, zeta=0.01, seed=0)
    model = ring_model()
    t0 = time.perf_counter()
    _, reports = solve_blocks(model, v, BlockSolveConfig(BlockPartition(grid, (16, 16))))
    blocks_wall = time.perf_counter() - t0
    op = assemble(model, grid)
    t0 = time.perf_counter()
    _, whole = solve_least_norm(op, v)
    whole_wall = time.perf_counter() - t0
    ratio = whole_wall / blocks_wall
    ok = ratio >= 5.0
    direct = sum(r.solve.factor_nnz > 0 for r in reports)
    whole_path = (
        "direct" if whole.factor_nnz else f"CG, {whole.iterations} iterations"
    )
    criterion(
        9,
        ok,
        f"whole-domain {whole_wall:.1f}s ({whole_path}) vs blocks "
        f"{blocks_wall:.1f}s ({direct} of {len(reports)} 32^2 blocks direct) "
        f"at N=512, ratio {ratio:.1f}x (need >=5x)",
    )
    assert ok, (whole_wall, blocks_wall)


def test_criterion_10_sampler_mass_and_rate(criterion):
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (64, 64))
    exact_fn = ring_exact_density()
    exact = DensityField.from_function(grid, exact_fn)
    centers = grid.centers()
    r2 = centers[:, 0] ** 2 + centers[:, 1] ** 2
    annulus = np.flatnonzero((r2 >= 0.5) & (r2 <= 1.5))
    quad = grid_quadrature(exact_fn, grid, flat_indices=annulus)
    assert quad == pytest.approx(RING_ANNULUS_MASS, abs=1e-4)
    model = ring_model()
    errs = []
    ann_mass = None
    for n_samples in (10**5, 10**6, 10**7):
        hist = accumulate_histogram(
            model, grid, SamplerConfig(n_samples=n_samples, burn_in=20_000, seed=0)
        )
        dens = histogram_to_density(hist)
        errs.append(discrete_l2_error(dens, exact))
        if n_samples == 10**6:
            ann_mass = float(dens.values[annulus].sum() * grid.cell_volume)
    slope = loglog_slope((10**5, 10**6, 10**7), errs)
    mass_ok = abs(ann_mass - quad) <= 0.02
    slope_ok = -0.65 <= slope <= -0.35
    ok = mass_ok and slope_ok
    criterion(
        10,
        ok,
        f"annulus mass {ann_mass:.4f} vs quadrature {quad:.4f} (|diff| "
        f"{abs(ann_mass - quad):.4f} <= 0.02), L2-vs-samples slope {slope:.3f}, "
        f"band [-0.65, -0.35]",
    )
    assert ok, (ann_mass, quad, slope)


def test_criterion_11_three_dimensional_smoke(criterion):
    cases = (
        # the noisy rossler attractor is metastable, so its chains run
        # under the restart policy; the mmo flow is globally confining
        ("rossler", rossler_model(), -15.0, 15.0, 0.002, "restart"),
        ("mmo", mmo_model(), -1.5, 0.5, 5e-4, "error"),
    )
    parts = []
    ok = True
    for name, model, lo, hi, dt, policy in cases:
        grid = Grid((lo,) * 3, (hi,) * 3, (64, 64, 64))
        hist = accumulate_histogram(
            model,
            grid,
            SamplerConfig(n_samples=10**7, dt=dt, seed=0, on_escape=policy),
        )
        v = histogram_to_density(hist)
        u, rounds = solve_shifting(
            model, v, BlockSolveConfig(BlockPartition(grid, (4, 4, 4)))
        )
        worst = max(worst_residual(reports) for reports in rounds)
        scale = float(np.max(np.abs(assemble(model, grid).matrix @ v.values)))
        constraint_ok = worst <= 1e-6 * scale
        mass_ok = 0.8 <= u.mass <= 1.0
        done_ok = hist.total_retained == 10**7
        ok = ok and constraint_ok and mass_ok and done_ok
        parts.append(
            f"{name}: worst block residual {worst:.2e} vs 1e-6*|Av| "
            f"{1e-6 * scale:.2e}, mass {u.mass:.3f} in [0.8, 1.0], "
            f"restarts {hist.restarts}"
        )
    criterion(11, ok, "; ".join(parts))
    assert ok, parts
