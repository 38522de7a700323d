"""Benchmark drift fields and the one case with a closed-form density.

All drifts are vectorized: they accept arrays of shape (..., dim) and return
the drift with the same shape, so the sampler can step many chains at once
and the assembler can evaluate whole grids of cell centers in one call. On
the sampler's few chains a numpy call costs more than its arithmetic, so
the built-in drifts fill one fresh array through views instead of stacking
their components, with every entry rounded as in the stacked formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError

DriftFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ModelSpec:
    """An SDE dX = f(X) dt + eps dW with isotropic constant noise."""

    name: str
    dim: int
    drift: DriftFn
    epsilon: float

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigurationError("model dimension must be positive")
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigurationError(
                f"noise amplitude must be positive and finite, got {self.epsilon}"
            )


def zero_drift_model(dim: int, epsilon: float = 1.0) -> ModelSpec:
    """Pure diffusion; its stationary operator is the scaled Laplacian."""

    def drift(p: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(p, dtype=float))

    return ModelSpec(name="zero", dim=dim, drift=drift, epsilon=epsilon)


def ring_model(epsilon: float = 1.0) -> ModelSpec:
    """Gradient descent into the unit circle plus a solid rotation.

    f(x, y) = (-4x(x^2+y^2-1) + y, -4y(x^2+y^2-1) - x). The rotational part
    is divergence-free and tangent to the level sets of (x^2+y^2-1)^2, so the
    stationary density is the same Gibbs density as for the gradient part
    alone; see ring_exact_density.
    """

    def drift(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        # (-x g + y, -y g - x) as p * (-g) plus (y, -x): (-x) g = x (-g) and
        # (-4) s = -(4 s) exactly, so every entry is rounded as in the formula
        f = p * ((x * x + y * y - 1.0) * -4.0)[..., None]
        fx, fy = f[..., 0], f[..., 1]
        fx += y
        fy -= x
        return f

    return ModelSpec(name="ring", dim=2, drift=drift, epsilon=epsilon)


def ring_exact_density(epsilon: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Stationary density of the ring model, u = exp(-2V/eps^2) / K.

    V(x, y) = (x^2 + y^2 - 1)^2 and K = pi * integral_{-1}^{inf}
    exp(-2t^2/eps^2) dt = pi * (eps/2) * sqrt(pi/2) * (1 + erf(sqrt(2)/eps)).
    Returns a vectorized callable on (..., 2) points.
    """
    if not epsilon > 0.0:
        raise ConfigurationError(f"noise amplitude must be positive, got {epsilon}")
    e2 = epsilon * epsilon
    half_gaussian = (epsilon / 2.0) * math.sqrt(math.pi / 2.0)
    norm = math.pi * (half_gaussian * (1.0 + math.erf(math.sqrt(2.0) / epsilon)))

    def density(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        v = x * x + y * y - 1.0
        return np.exp(-2.0 * v * v / e2) / norm

    return density


def rossler_model(
    epsilon: float = 0.1, a: float = 0.2, b: float = 0.2, c: float = 5.7
) -> ModelSpec:
    """Rossler system with additive noise.

    f(x, y, z) = (-y - z, x + a y, b + z (x - c)).
    """

    def drift(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        f = np.empty_like(p)
        fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
        np.negative(y, out=fx)
        fx -= z
        np.multiply(y, a, out=fy)
        fy += x
        np.subtract(x, c, out=fz)
        fz *= z
        fz += b
        return f

    return ModelSpec(name="rossler", dim=3, drift=drift, epsilon=epsilon)


def mmo_model(
    epsilon: float = 0.1,
    eta: float = 0.01,
    nu: float = 0.0072168,
    a: float = -0.3872,
    b: float = -0.3251,
    c: float = 1.17,
) -> ModelSpec:
    """Three-scale mixed-mode oscillator with one fast variable.

    f(x, y, z) = ((y - x^2 - x^3)/eta, z - x, -nu - a x - b y - c z). The
    x equation relaxes onto the critical manifold y = x^2 + x^3 on a time
    scale eta, so step sizes need to resolve 1/eta.
    """
    if not eta > 0.0:
        raise ConfigurationError(f"time-scale separation must be positive, got {eta}")

    def drift(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        f = np.empty_like(p)
        fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
        xx = x * x
        np.subtract(y, xx, out=fx)
        xx *= x
        fx -= xx
        fx /= eta
        np.subtract(z, x, out=fy)
        np.multiply(x, a, out=fz)
        np.subtract(-nu, fz, out=fz)
        fz -= b * y
        fz -= c * z
        return f

    return ModelSpec(name="mmo", dim=3, drift=drift, epsilon=epsilon)


_FACTORIES: dict[str, Callable[..., ModelSpec]] = {
    "ring": ring_model,
    "rossler": rossler_model,
    "mmo": mmo_model,
}


def model_by_name(name: str, epsilon: float | None = None) -> ModelSpec:
    """Look up a benchmark model, optionally overriding its default noise."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown model {name!r}; available: {sorted(_FACTORIES)}"
        ) from None
    return factory() if epsilon is None else factory(epsilon=epsilon)
