import hashlib

import numpy as np
import pytest

import fpblock.sampler
from fpblock import (
    ConfigurationError,
    DivergenceError,
    EmptyHistogramError,
    Grid,
    Histogram,
    ModelSpec,
    SamplerConfig,
    accumulate_histogram,
    flat_bin_indices,
    histogram_to_density,
    mmo_model,
    ring_exact_density,
    ring_model,
    rossler_model,
    synthetic_reference,
    zero_drift_model,
)
from oracles import gauss_cell_integral


def _after_first_step(model, initial, seed=0):
    """State of a one-chain run after its first step, as the drift next sees it."""
    seen = []

    def drift(p):
        seen.append(np.array(p[0]))
        return model.drift(p)

    spy = ModelSpec(name=model.name, dim=model.dim, drift=drift, epsilon=model.epsilon)
    cfg = SamplerConfig(
        n_samples=1, burn_in=1, n_chains=1, seed=seed, initial=initial, dt=0.01
    )
    accumulate_histogram(spy, Grid((-2.0, -2.0), (2.0, 2.0), (4, 4)), cfg)
    return seen[1]


def test_step_without_drift_or_noise_is_identity():
    # epsilon must be positive; at 1e-300 the noise term is far below an ulp
    out = _after_first_step(zero_drift_model(2, epsilon=1e-300), (0.3, -1.2))
    assert np.array_equal(out, [0.3, -1.2])


def test_step_applies_drift_term():
    out = _after_first_step(ring_model(epsilon=1e-300), (1.0, 0.0))
    assert out == pytest.approx([1.0, -0.01])


def test_step_applies_scaled_noise():
    # chain 0 of seed 4 draws from the generator seeded by (4, 0)
    xi = np.random.Generator(np.random.PCG64(np.random.SeedSequence((4, 0))))
    out = _after_first_step(zero_drift_model(2, epsilon=1.0), (0.0, 0.0), seed=4)
    assert out == pytest.approx(0.1 * xi.standard_normal(2))


def _read_only_negation(p):
    out = -np.asarray(p)
    out.flags.writeable = False
    return out


@pytest.mark.parametrize(
    "drift", [lambda p: p, _read_only_negation], ids=["returns-input", "read-only"]
)
def test_step_never_writes_into_the_drift_output(drift):
    # x_{k+1} = x_k + f(x_k) dt + eps sqrt(dt) xi_k, written out by hand; a
    # drift that hands back its own input, or an array it does not let anyone
    # write, must see exactly these states
    seen = []

    def spy(p):
        seen.append(np.array(p))
        return drift(p)

    model = ModelSpec(name="aliased", dim=2, drift=spy, epsilon=0.5)
    cfg = SamplerConfig(
        n_samples=40, burn_in=10, n_chains=2, seed=3, initial=(0.4, -0.2), dt=0.01
    )
    hist = accumulate_histogram(model, Grid((-2.0, -2.0), (2.0, 2.0), (8, 8)), cfg)
    rngs = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((3, chain))))
        for chain in range(2)
    ]
    noise = np.stack([rng.standard_normal((30, 2)) for rng in rngs])
    states = np.array([[0.4, -0.2], [0.4, -0.2]])
    for t in range(30):
        assert np.array_equal(seen[t], states)
        states = states + drift(states) * 0.01 + 0.5 * np.sqrt(0.01) * noise[:, t]
    assert len(seen) == hist.steps == 30


def test_step_flags_non_finite_states():
    blowup = ModelSpec(
        name="blowup", dim=2, drift=lambda p: np.full_like(p, np.nan), epsilon=0.01
    )
    cfg = SamplerConfig(n_samples=10, burn_in=0, n_chains=2, initial=(0.0, 0.0))
    with pytest.raises(DivergenceError) as err:
        accumulate_histogram(blowup, Grid((-2.0, -2.0), (2.0, 2.0), (8, 8)), cfg)
    assert (err.value.chain, err.value.step) == (0, 0)


def test_same_seed_reproduces_counts_exactly():
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (16, 16))
    cfg = SamplerConfig(n_samples=20_000, burn_in=500, n_chains=4, seed=42)
    a = accumulate_histogram(ring_model(), grid, cfg)
    b = accumulate_histogram(ring_model(), grid, cfg)
    assert np.array_equal(a.counts, b.counts)
    assert a.total_retained == b.total_retained == 20_000


def test_counts_do_not_depend_on_chunk_size(monkeypatch):
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (16, 16))
    cfg = SamplerConfig(n_samples=5_000, burn_in=300, n_chains=3, seed=9)
    base = accumulate_histogram(ring_model(), grid, cfg)
    monkeypatch.setattr(fpblock.sampler, "_CHUNK_STEPS", 17)
    small = accumulate_histogram(ring_model(), grid, cfg)
    assert np.array_equal(base.counts, small.counts)


_ROSSLER_BOX = Grid((-10.0,) * 3, (10.0,) * 3, (16,) * 3)

# Sampler outputs frozen before its escape handling became one lockstep loop:
# the sha256 of the little-endian counts and the restart count, or, for the run
# that escapes under the error policy, the (chain, step) its DivergenceError
# names: the earliest escaping step, the lowest chain among ties, whatever the
# chunk size.
_FROZEN_RUNS = {
    "ring": (
        ring_model(),
        Grid((-2.0, -2.0), (2.0, 2.0), (32, 32)),
        SamplerConfig(n_samples=40_000, burn_in=1_000),
        ("589618ec1eff01eeb679e85c56f3e675e0d60714515abe7afc376927318a1539", 0),
    ),
    "rossler-restarts": (
        rossler_model(),
        _ROSSLER_BOX,
        SamplerConfig(
            n_samples=20_000, burn_in=500, n_chains=4, seed=1,
            safety_factor=1.0, on_escape="restart",
        ),
        ("dacd3d5c8f2c6ea7b4b528cf43f675fdc95dbbca1f8bfee8a2a5a2a504415f5c", 3),
    ),
    "runaway-restarts": (
        ModelSpec(name="runaway", dim=2, drift=lambda p: 2.0 * np.asarray(p), epsilon=0.5),
        Grid((-1.0, -1.0), (1.0, 1.0), (8, 8)),
        SamplerConfig(
            n_samples=1_000, burn_in=20, n_chains=2, seed=11, initial=(0.0, 0.0),
            dt=0.01, safety_factor=1.0, on_escape="restart",
        ),
        ("0f969d67b65cf52154cfc937f20b50bf1be5d368d300b9405d900f080e07e46e", 15),
    ),
    "mmo": (
        mmo_model(),
        Grid((-1.5,) * 3, (0.5,) * 3, (16,) * 3),
        SamplerConfig(n_samples=20_000, dt=5e-4, burn_in=500, n_chains=4, seed=2),
        ("1e060cc26ce97c16985e6c081d113a2245b6066760f883787b18f06e8e960885", 0),
    ),
    "non-divisible": (
        ring_model(),
        Grid((-2.0, -2.0), (2.0, 2.0), (16, 16)),
        SamplerConfig(n_samples=10_007, burn_in=300, n_chains=7, seed=3),
        ("22063c797f378017bf36445efeb55f52b9f2bd9138eff6153a611832d69ff75d", 0),
    ),
    "burn-in-spans-chunks": (
        ring_model(),
        Grid((-2.0, -2.0), (2.0, 2.0), (16, 16)),
        SamplerConfig(n_samples=8_000, burn_in=5_000, n_chains=4, seed=4),
        ("c96ed5cf9e0d7ece9e55faeb3277c220b302cebd19951cd1d6682da33f3dcfcd", 0),
    ),
    "escape-error": (
        rossler_model(),
        _ROSSLER_BOX,
        SamplerConfig(n_samples=20_000, burn_in=500, n_chains=4, seed=1, safety_factor=1.0),
        {"default": (1, 3810), 13: (1, 3810)},
    ),
}


@pytest.mark.parametrize("chunk", ["default", 13])
@pytest.mark.parametrize("case", list(_FROZEN_RUNS))
def test_sampler_outputs_match_frozen_oracles(case, chunk, monkeypatch):
    model, grid, cfg, expected = _FROZEN_RUNS[case]
    if chunk != "default":
        monkeypatch.setattr(fpblock.sampler, "_CHUNK_STEPS", chunk)
    if isinstance(expected, dict):
        with pytest.raises(DivergenceError) as err:
            accumulate_histogram(model, grid, cfg)
        assert (err.value.chain, err.value.step) == expected[chunk]
        return
    hist = accumulate_histogram(model, grid, cfg)
    digest = hashlib.sha256(hist.counts.astype("<u8").tobytes()).hexdigest()
    assert (digest, hist.restarts) == expected


def test_different_seeds_differ():
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (16, 16))
    a = accumulate_histogram(
        ring_model(), grid, SamplerConfig(n_samples=10_000, burn_in=200, seed=0)
    )
    b = accumulate_histogram(
        ring_model(), grid, SamplerConfig(n_samples=10_000, burn_in=200, seed=1)
    )
    assert not np.array_equal(a.counts, b.counts)


def test_zero_samples_short_circuits():
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (8, 8))
    hist = accumulate_histogram(ring_model(), grid, SamplerConfig(n_samples=0))
    assert hist.total_retained == 0
    assert np.all(hist.counts == 0)
    with pytest.raises(EmptyHistogramError):
        histogram_to_density(hist)


def test_out_of_domain_states_are_retained_but_unbinned():
    # park the chains far outside a tiny box: every state misses the grid
    grid = Grid((10.0, 10.0), (11.0, 11.0), (8, 8))
    cfg = SamplerConfig(
        n_samples=1_000,
        burn_in=10,
        n_chains=2,
        seed=3,
        initial=(0.0, 0.0),
        dt=1e-4,
    )
    hist = accumulate_histogram(zero_drift_model(2, epsilon=0.01), grid, cfg)
    assert hist.total_retained == 1_000
    assert hist.in_domain == 0


def test_divergence_error_reports_chain_and_step():
    exploding = ModelSpec(
        name="runaway", dim=2, drift=lambda p: 10.0 * np.asarray(p), epsilon=0.01
    )
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (8, 8))
    cfg = SamplerConfig(
        n_samples=100, burn_in=50, n_chains=2, seed=0, initial=(1.0, 1.0), dt=1.0
    )
    with pytest.raises(DivergenceError) as err:
        accumulate_histogram(exploding, grid, cfg)
    assert err.value.chain is not None
    assert err.value.step is not None
    assert err.value.step < 10


def test_default_initial_point_is_model_specific():
    # with nearly frozen dynamics all mass stays in the cell holding the
    # ring default start (0, 0); the odd grid centers a cell there
    grid = Grid((-2.5, -2.5), (2.5, 2.5), (5, 5))
    cfg = SamplerConfig(n_samples=8, burn_in=2, n_chains=2, seed=0, dt=1e-12)
    model = ModelSpec(
        name="ring", dim=2, drift=lambda p: np.zeros_like(np.asarray(p)), epsilon=1e-9
    )
    hist = accumulate_histogram(model, grid, cfg)
    flat = flat_bin_indices(grid, (0.0, 0.0))[0]
    assert flat == 2 * 5 + 2
    assert hist.counts[flat] == 8


def test_histogram_density_normalization():
    grid = Grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    counts = np.zeros(16, dtype=np.uint64)
    counts[5] = 1000
    hist = Histogram(grid=grid, counts=counts, total_retained=1000)
    dens = histogram_to_density(hist)
    assert dens.values[5] == pytest.approx(1.0 / grid.cell_volume)
    assert dens.mass == pytest.approx(1.0)


def test_uniform_counts_give_flat_density():
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (8, 8))
    hist = Histogram(
        grid=grid,
        counts=np.full(64, 25, dtype=np.uint64),
        total_retained=64 * 25,
    )
    dens = histogram_to_density(hist)
    assert np.allclose(dens.values, 1.0 / 16.0)


def test_histogram_validates_count_totals():
    grid = Grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    with pytest.raises(ConfigurationError):
        Histogram(grid=grid, counts=np.full(16, 10, dtype=np.uint64), total_retained=5)


def test_density_estimate_matches_exact_cell_probability():
    # long-run check: the histogram value in the cell containing (1, 0)
    # sits within three sampling standard deviations of the exact density,
    # where the std comes from the binomial count model with the cell
    # probability computed by quadrature
    model = ring_model(epsilon=1.0)
    exact = ring_exact_density(epsilon=1.0)
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (64, 64))
    n = 10_000_000
    cfg = SamplerConfig(n_samples=n, dt=0.002, burn_in=100_000, n_chains=16, seed=0)
    dens = histogram_to_density(accumulate_histogram(model, grid, cfg))

    flat = flat_bin_indices(grid, (1.0, 0.0))[0]
    idx = np.unravel_index(flat, grid.shape)
    assert idx == (48, 32)
    corner = [grid.lo[k] + idx[k] * grid.h for k in range(2)]
    p_cell = gauss_cell_integral(exact, corner, grid.h, dim=2)
    expected = p_cell / grid.cell_volume
    sigma = np.sqrt(n * p_cell * (1.0 - p_cell)) / (n * grid.cell_volume)
    assert abs(dens.values[flat] - expected) <= 3.0 * sigma


def test_synthetic_reference_zeta_zero_is_exact():
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (16, 16))
    from fpblock import DensityField

    exact = DensityField.from_function(grid, ring_exact_density())
    out = synthetic_reference(exact, zeta=0.0, seed=5)
    assert np.array_equal(out.values, exact.values)


def test_synthetic_reference_noise_statistics():
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (32, 32))
    from fpblock import DensityField

    exact = DensityField.from_function(grid, ring_exact_density())
    zeta = 0.01
    out = synthetic_reference(exact, zeta=zeta, seed=6)
    noise = out.values - exact.values
    cells = grid.num_cells
    assert abs(noise.mean()) <= 4.0 * zeta / np.sqrt(cells)
    assert noise.std() == pytest.approx(zeta, rel=0.15)
    # reproducible for a fixed seed
    again = synthetic_reference(exact, zeta=zeta, seed=6)
    assert np.array_equal(out.values, again.values)


def test_sampler_config_validation():
    with pytest.raises(ConfigurationError):
        SamplerConfig(n_samples=-1)
    with pytest.raises(ConfigurationError):
        SamplerConfig(n_samples=10, dt=0.0)
    with pytest.raises(ConfigurationError):
        SamplerConfig(n_samples=10, n_chains=0)
    with pytest.raises(ConfigurationError):
        SamplerConfig(n_samples=10, safety_factor=0.5)


def test_on_escape_must_be_a_known_policy():
    with pytest.raises(ConfigurationError):
        SamplerConfig(n_samples=10, on_escape="ignore")


def test_restart_policy_fills_quota_despite_escapes():
    # linear repulsion guarantees every chain leaves the box over and over
    runaway = ModelSpec(
        name="runaway", dim=2, drift=lambda p: 2.0 * np.asarray(p), epsilon=0.5
    )
    grid = Grid((-1.0, -1.0), (1.0, 1.0), (8, 8))
    cfg = SamplerConfig(
        n_samples=2_000,
        burn_in=20,
        n_chains=2,
        seed=5,
        initial=(0.0, 0.0),
        dt=0.01,
        safety_factor=1.0,
        on_escape="restart",
    )
    hist = accumulate_histogram(runaway, grid, cfg)
    assert hist.total_retained == 2_000
    # the box is the domain here, so every retained state lands in a cell
    assert hist.in_domain == 2_000
    assert hist.restarts > 0


def test_restart_histogram_is_chunk_invariant(monkeypatch):
    runaway = ModelSpec(
        name="runaway", dim=2, drift=lambda p: 2.0 * np.asarray(p), epsilon=0.5
    )
    grid = Grid((-1.0, -1.0), (1.0, 1.0), (8, 8))
    cfg = SamplerConfig(
        n_samples=1_000,
        burn_in=20,
        n_chains=2,
        seed=11,
        initial=(0.0, 0.0),
        dt=0.01,
        safety_factor=1.0,
        on_escape="restart",
    )
    base = accumulate_histogram(runaway, grid, cfg)
    monkeypatch.setattr(fpblock.sampler, "_CHUNK_STEPS", 13)
    small = accumulate_histogram(runaway, grid, cfg)
    assert np.array_equal(base.counts, small.counts)
    assert base.restarts == small.restarts > 0
    assert base.steps == small.steps > 20 + 1_000 // 2


def test_restart_gives_up_when_every_attempt_escapes():
    hopeless = ModelSpec(
        name="runaway", dim=2, drift=lambda p: 1e6 * np.asarray(p), epsilon=0.01
    )
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (8, 8))
    cfg = SamplerConfig(
        n_samples=100,
        burn_in=50,
        n_chains=1,
        seed=0,
        initial=(1.0, 1.0),
        dt=1.0,
        on_escape="restart",
    )
    with pytest.raises(DivergenceError) as err:
        accumulate_histogram(hopeless, grid, cfg)
    assert "restarts" in str(err.value)


def test_error_policy_runs_leave_restarts_at_zero():
    grid = Grid((-2.0, -2.0), (2.0, 2.0), (8, 8))
    hist = accumulate_histogram(
        ring_model(), grid, SamplerConfig(n_samples=500, burn_in=50, seed=1)
    )
    assert hist.restarts == 0


def test_restart_count_is_not_written_to_disk(tmp_path):
    from fpblock.fileio import read_histogram, write_histogram

    grid = Grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    counts = np.zeros(16, dtype=np.uint64)
    counts[3] = 7
    hist = Histogram(
        grid=grid, counts=counts, total_retained=10, restarts=3, steps=12
    )
    path = tmp_path / "h.fphist"
    write_histogram(hist, path)
    back = read_histogram(path)
    assert np.array_equal(back.counts, hist.counts)
    assert (back.restarts, back.steps) == (0, 0)


def test_histogram_rejects_negative_restarts():
    grid = Grid((0.0, 0.0), (1.0, 1.0), (2, 2))
    for field in ("restarts", "steps"):
        with pytest.raises(ConfigurationError):
            Histogram(
                grid=grid, counts=np.zeros(4, dtype=np.uint64), total_retained=0,
                **{field: -1},
            )
