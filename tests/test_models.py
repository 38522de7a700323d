import subprocess
import sys

import numpy as np
import pytest

from fpblock import (
    ConfigurationError,
    Grid,
    mmo_model,
    model_by_name,
    ring_exact_density,
    ring_model,
    rossler_model,
    zero_drift_model,
)
from oracles import (
    grid_quadrature,
    mmo_drift_reference,
    ring_drift_reference,
    ring_normalizer_closed_form,
    rossler_drift_reference,
)


def test_ring_drift_hand_value():
    m = ring_model(epsilon=1.0)
    # at (2,0): x(x^2+y^2-1) = 6, so (-4*6 + 0, -0 - 2)
    assert m.drift(np.array([2.0, 0.0])) == pytest.approx([-24.0, -2.0])


def test_ring_drift_is_batch_friendly():
    m = ring_model()
    pts = np.array([[2.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    out = m.drift(pts)
    assert out.shape == (3, 2)
    assert out[0] == pytest.approx([-24.0, -2.0])
    assert out[1] == pytest.approx([0.0, 0.0])
    g = 4.0 * (1.0 + 1.0 - 1.0)
    assert out[2] == pytest.approx([-g + 1.0, -g - 1.0])


_DRIFT_REFERENCES = {
    "ring": (ring_model(), ring_drift_reference),
    "rossler": (rossler_model(), rossler_drift_reference),
    "rossler-params": (
        rossler_model(a=0.1, b=-0.3, c=4.0),
        lambda p: rossler_drift_reference(p, a=0.1, b=-0.3, c=4.0),
    ),
    "mmo": (mmo_model(), mmo_drift_reference),
}


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
@pytest.mark.parametrize("case", list(_DRIFT_REFERENCES))
def test_drift_is_bit_identical_to_its_stacked_formula(case, shape):
    model, reference = _DRIFT_REFERENCES[case]
    pts = 1.5 * np.random.default_rng(len(shape)).standard_normal(shape + (model.dim,))
    # signed zeros and points on the axes, where a reordered sum could flip a sign
    pts.reshape(-1, model.dim)[0] = 0.0
    pts.reshape(-1, model.dim)[-1, 1:] = -0.0
    out = model.drift(pts)
    ref = reference(pts)
    assert out.shape == ref.shape == pts.shape
    assert np.array_equal(out, ref)
    assert out.tobytes() == ref.tobytes()
    assert not np.shares_memory(out, pts)
    listed = pts.tolist()
    assert model.drift(listed).tobytes() == ref.tobytes()


def test_zero_drift_model():
    m = zero_drift_model(3)
    pts = np.random.default_rng(0).normal(size=(5, 3))
    assert np.all(m.drift(pts) == 0.0)
    assert m.dim == 3


def test_ring_normalizer_matches_closed_form():
    # the library and the oracle share the erf formula for K; the
    # independent check is grid quadrature, in the next test
    for eps in (1.0, 0.7, 1.3):
        dens = ring_exact_density(epsilon=eps)
        k_closed = ring_normalizer_closed_form(eps)
        # evaluate at the ring where V = 0: density is exactly 1/K
        val = float(dens(np.array([1.0, 0.0])))
        assert val == pytest.approx(1.0 / k_closed, rel=1e-9)


def test_ring_density_integrates_to_one():
    dens = ring_exact_density(epsilon=1.0)
    g = Grid((-3.0, -3.0), (3.0, 3.0), (100, 100))
    total = grid_quadrature(dens, g, order=3)
    # the tail outside [-3,3]^2 is below 1e-6
    assert total == pytest.approx(1.0, abs=2e-6)


def test_import_needs_no_quadrature_or_optimizer():
    # K is closed form, so importing the package and its CLI pulls in
    # neither scipy.integrate nor the scipy.optimize it drags along; the
    # solvers and the analysis import scipy where they factor, build a sparse
    # matrix or take singular values, so importing loads no scipy module at all
    code = (
        "import sys, fpblock, fpblock.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_sampling_loads_no_scipy(tmp_path):
    # fpblock sample bins chains and writes files; it never factors or builds
    # a sparse matrix, so it runs without importing scipy
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model = ring\ngrid.lo = -2,-2\ngrid.hi = 2,2\ngrid.n = 16,16\n"
        "sampler.samples = 2000\nsampler.burn_in = 100\nsampler.chains = 2\n"
        "sampler.seed = 3\n"
    )
    out = tmp_path / "ring.fphist"
    code = (
        "import sys; from fpblock.cli import main; "
        f"assert main(['sample', '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert out.exists()


def test_ring_density_radial_symmetry():
    dens = ring_exact_density()
    a = dens(np.array([1.2, 0.0]))
    b = dens(np.array([0.0, 1.2]))
    c = dens(np.array([1.2 / np.sqrt(2), 1.2 / np.sqrt(2)]))
    assert a == pytest.approx(b, rel=1e-12)
    assert a == pytest.approx(c, rel=1e-12)


def test_rossler_drift_values():
    m = rossler_model()
    assert m.epsilon == 0.1
    assert m.dim == 3
    out = m.drift(np.array([5.7, 0.0, 1.0]))
    # (-y - z, x + a y, b + z(x - c)) at (5.7, 0, 1)
    assert out == pytest.approx([-1.0, 5.7, 0.2])


def test_mmo_drift_values():
    m = mmo_model()
    out = m.drift(np.array([0.0, 0.0, 0.0]))
    assert out == pytest.approx([0.0, 0.0, -0.0072168])
    # the fast component vanishes on the critical manifold y = x^2 + x^3
    for x in (-1.0, -0.5, 0.25):
        p = np.array([x, x**2 + x**3, 0.3])
        assert m.drift(p)[0] == pytest.approx(0.0, abs=1e-12)


def test_mmo_fast_variable_scaling():
    m = mmo_model()
    p = np.array([0.0, 0.01, 0.0])
    # y offset of 0.01 is amplified by 1/eta = 100
    assert m.drift(p)[0] == pytest.approx(1.0)


def test_model_by_name():
    assert model_by_name("ring").name == "ring"
    assert model_by_name("rossler", epsilon=0.05).epsilon == 0.05
    assert model_by_name("mmo").dim == 3
    with pytest.raises(ConfigurationError) as err:
        model_by_name("lorenz")
    assert "ring" in str(err.value)


def test_epsilon_must_be_positive():
    with pytest.raises(ConfigurationError):
        ring_model(epsilon=0.0)
    with pytest.raises(ConfigurationError):
        zero_drift_model(2, epsilon=-1.0)
