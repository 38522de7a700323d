"""Euler-Maruyama sampling of long trajectories into cell-count histograms.

Chains are advanced in lockstep as one (n_chains, dim) array, but every
chain draws noise from its own generator seeded from (seed, chain_id), so
the resulting histogram is bit-identical for a fixed (seed, n_chains) no
matter how the work is chunked or ordered. States that land outside the
grid are retained in the total but binned nowhere, which keeps the density
estimate unbiased on the box.

With a few chains of two or three coordinates, a step costs its Python and
numpy calls, not its arithmetic, so the step makes as few as it can. Each
chunk draws every chain's noise into one (span, n_chains, dim) array and
scales it by eps sqrt(dt) once. A step is then one drift call and three
ufuncs writing into preallocated rows: x + f(x) dt + eps sqrt(dt) xi, rounded
exactly as that expression is. The last ufunc writes the new state into its
row of the chunk's positions, so no copy follows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    EmptyHistogramError,
)
from .grids import DensityField, Grid, flat_bin_indices
from .models import ModelSpec

_CHUNK_STEPS = 4096
ESCAPE_POLICIES = ("error", "restart")

_DEFAULT_INITIAL = {
    "ring": (0.0, 0.0),
    "rossler": (0.0, -5.0, 0.0),
    "mmo": (-1.0, 0.0, 0.0),
}


@dataclass(frozen=True)
class SamplerConfig:
    """How to run the chains.

    n_samples counts retained post-burn-in states over all chains; it is
    split as evenly as possible, the first n_samples mod n_chains chains
    taking one extra state. safety_factor scales the domain about its
    center into the box whose violation ends the run. on_escape decides
    what a violation means: "error" raises immediately, "restart" puts the
    offending chain back at the initial point with a fresh burn-in and
    keeps going, which is the only workable choice for systems whose
    attractor is not globally stable (noise eventually kicks a chain over
    the basin rim no matter how small dt is). Restarted chains still
    deliver their full sample quota; a run needing more than 64 restarts
    per chain on average is treated as divergent.
    """

    n_samples: int
    dt: float = 0.002
    burn_in: int = 100_000
    n_chains: int = 16
    seed: int = 0
    initial: tuple[float, ...] | None = None
    safety_factor: float = 100.0
    on_escape: str = "error"

    def __post_init__(self):
        if self.n_samples < 0:
            raise ConfigurationError("n_samples cannot be negative")
        if not 0.0 < self.dt < np.inf:
            raise ConfigurationError(f"time step must be positive and finite, got {self.dt}")
        if self.initial is not None and not np.all(np.isfinite(self.initial)):
            raise ConfigurationError(f"initial point must be finite, got {self.initial}")
        if self.burn_in < 0:
            raise ConfigurationError("burn_in cannot be negative")
        if self.n_chains < 1:
            raise ConfigurationError("need at least one chain")
        if not self.safety_factor >= 1.0:
            raise ConfigurationError("safety_factor must be at least 1")
        if self.on_escape not in ESCAPE_POLICIES:
            raise ConfigurationError(
                f"on_escape must be one of {ESCAPE_POLICIES}, got {self.on_escape!r}"
            )


@dataclass(frozen=True, eq=False)
class Histogram:
    """Integer cell counts plus the retained-state total behind them.

    restarts reports how many times a chain was sent back to its initial
    point during the run, and steps how many lockstep steps the run took,
    restart burn-ins included; each step advances every chain once. Both are
    diagnostics and are not stored when the histogram is written to disk.
    """

    grid: Grid
    counts: np.ndarray
    total_retained: int
    restarts: int = 0
    steps: int = 0

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.uint64).ravel()
        if counts.size != self.grid.num_cells:
            raise DimensionError(
                f"{counts.size} counts on a grid of {self.grid.num_cells} cells"
            )
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        if not 0 <= self.total_retained < 2**64:
            raise ConfigurationError(
                f"total_retained must lie in [0, 2^64) to match 64-bit counts, "
                f"got {self.total_retained}"
            )
        # the exact sum: a uint64 sum wraps past 2^64, the sums of the counts'
        # 32-bit halves do not on fewer than 2^32 cells
        binned = (int((counts >> 32).sum()) << 32) + int((counts & 0xFFFFFFFF).sum())
        if binned > self.total_retained:
            raise ConfigurationError("more binned counts than retained states")
        if self.restarts < 0:
            raise ConfigurationError("restarts cannot be negative")
        if self.steps < 0:
            raise ConfigurationError("steps cannot be negative")

    @property
    def in_domain(self) -> int:
        return int(self.counts.sum())


def _safety_bounds(grid: Grid, factor: float) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array(grid.lo)
    hi = np.array(grid.hi)
    center = 0.5 * (lo + hi)
    half = 0.5 * factor * (hi - lo)
    return center - half, center + half


def start_point(
    model: ModelSpec, initial: tuple[float, ...] | None
) -> tuple[float, ...]:
    """The point every chain starts and restarts from: initial, or the model default."""
    if initial is None:
        initial = _DEFAULT_INITIAL.get(model.name, (0.0,) * model.dim)
    if len(initial) != model.dim:
        raise DimensionError(
            f"initial point of length {len(initial)} for a {model.dim}-d model"
        )
    return tuple(float(v) for v in initial)


def accumulate_histogram(
    model: ModelSpec, grid: Grid, cfg: SamplerConfig
) -> Histogram:
    """Simulate, discard burn-in, and bin the retained states on the grid."""
    if model.dim != grid.dim:
        raise DimensionError(f"{model.dim}-d model binned on a {grid.dim}-d grid")
    n_chains = cfg.n_chains
    initial = start_point(model, cfg.initial)
    quotas = np.full(n_chains, cfg.n_samples // n_chains, dtype=np.int64)
    quotas[: cfg.n_samples % n_chains] += 1
    rngs = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, chain))))
        for chain in range(n_chains)
    ]
    initial_point = np.asarray(initial, dtype=float)
    states = np.tile(initial_point, (n_chains, 1))
    box_lo, box_hi = _safety_bounds(grid, cfg.safety_factor)
    amp = model.epsilon * np.sqrt(cfg.dt)
    dt = cfg.dt
    counts = np.zeros(grid.num_cells, dtype=np.int64)

    # Every chain carries its own age (states since the start or its last
    # restart) and count of kept states, so the binned set never depends on
    # how the run is cut into chunks. Noise is drawn for all chains each chunk
    # whether or not they still owe samples, which pins every chain to one
    # fixed point in its generator stream per step.
    age = np.zeros(n_chains, dtype=np.int64)
    taken = np.zeros(n_chains, dtype=np.int64)
    restarts = 0
    max_restarts = 64 * n_chains
    step_done = 0
    drift = model.drift
    drifted = np.empty_like(states)
    while (taken < quotas).any():
        owed = np.maximum(cfg.burn_in - age, 0) + quotas - taken
        span = int(min(_CHUNK_STEPS, owed.max()))
        noise = np.empty((span, n_chains, model.dim))
        for chain, rng in enumerate(rngs):
            noise[:, chain] = rng.standard_normal((span, model.dim))
        noise *= amp
        # Step t writes row t, and that row is the state the next step reads.
        rows = np.empty_like(noise)
        positions = rows.transpose(1, 0, 2)
        start = 0
        while start < span:
            with np.errstate(over="ignore", invalid="ignore"):
                # states + f(states) dt + amp xi, rounded in that order. The
                # drift's output is only read: a drift may return its input.
                for xi, row in zip(noise[start:], rows[start:]):
                    np.multiply(drift(states), dt, out=drifted)
                    drifted += states
                    states = np.add(drifted, xi, out=row)
            stretch = positions[:, start:]
            out = ~((stretch >= box_lo) & (stretch <= box_hi)).all(axis=2)
            # The stretch ends at its last step, or at the first step where any
            # chain left the box; a state that left is neither burned nor kept.
            cut = span - 1
            escaped = np.zeros(n_chains, dtype=bool)
            if out.any():
                cut = start + int(np.argmax(out.any(axis=0)))
                escaped = out[:, cut - start]
                if cfg.on_escape == "error":
                    # The earliest escaping step, lowest chain among ties.
                    chain, step = int(np.argmax(escaped)), step_done + cut
                    raise DivergenceError(
                        f"chain {chain} left the safety box at step {step}",
                        chain=chain,
                        step=step,
                    )
            n_ok = cut + 1 - start - escaped
            lo = start + np.clip(cfg.burn_in - age, 0, n_ok)
            take = np.minimum(quotas - taken, start + n_ok - lo)
            for chain in np.flatnonzero(take):
                flat = flat_bin_indices(
                    grid, positions[chain, lo[chain] : lo[chain] + take[chain]]
                )
                counts += np.bincount(flat[flat >= 0], minlength=grid.num_cells)
            age += n_ok
            taken += take
            # Escaped chains resume from the initial point on the same noise
            # rows; only those that still owe samples count as restarts and
            # owe a fresh burn-in.
            owing = np.flatnonzero(escaped & (taken < quotas))
            if restarts + owing.size > max_restarts:
                raise DivergenceError(
                    f"gave up after {max_restarts + 1} chain restarts",
                    chain=int(owing[max_restarts - restarts]),
                    step=step_done + cut,
                )
            restarts += owing.size
            age[owing] = 0
            states = positions[:, cut].copy()
            states[escaped] = initial_point
            start = cut + 1
        step_done += span
    return Histogram(
        grid=grid,
        counts=counts.astype(np.uint64),
        total_retained=cfg.n_samples,
        restarts=restarts,
        steps=step_done,
    )


def histogram_to_density(hist: Histogram) -> DensityField:
    """Counts scaled to a density: counts / (total_retained * h^dim)."""
    if hist.total_retained == 0:
        raise EmptyHistogramError("no state was retained: the sample is empty")
    if hist.in_domain == 0:
        raise EmptyHistogramError("every retained state fell outside the domain")
    scale = 1.0 / (hist.total_retained * hist.grid.cell_volume)
    return DensityField(hist.grid, hist.counts.astype(float) * scale)


def synthetic_reference(exact: DensityField, zeta: float, seed: int = 0) -> DensityField:
    """Exact field plus iid centered Gaussian noise of standard deviation zeta."""
    if zeta < 0.0:
        raise ConfigurationError("noise level must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(seed))
    noisy = exact.values + zeta * rng.standard_normal(exact.values.size)
    return DensityField(exact.grid, noisy)
