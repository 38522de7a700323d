"""Which solves load scipy.linalg: only the band factor of small 1-D and 2-D
systems needs it, and importing it costs about 9 MB of peak memory, so the
multigrid, Jacobi and dense-rank paths must run without it. Each case runs
in a fresh interpreter, since a test process has long imported it."""

import subprocess
import sys

import pytest

_RING = """
from fpblock import (
    DensityField, Grid, assemble, restrict, ring_exact_density, ring_model,
    solve_least_norm, synthetic_reference,
)
grid = Grid((-2.0, -2.0), (2.0, 2.0), ({n}, {n}))
v = synthetic_reference(DensityField.from_function(grid, ring_exact_density()), zeta=0.01, seed=0)
"""


@pytest.mark.parametrize(
    "code, loaded",
    [
        # the whole 64^2 ring: CG under the multigrid V-cycle
        pytest.param(
            _RING.format(n=64)
            + """
_, report = solve_least_norm(assemble(ring_model(), grid), v)
assert report.iterations > 0 and report.factor_nnz == 0
""",
            False,
            id="whole-64^2-ring",
        ),
        # a 16^3 Rossler block: CG under Jacobi
        pytest.param(
            """
import numpy as np
from fpblock import DensityField, Grid, assemble, rossler_model, solve_least_norm
grid = Grid((-15.0,) * 3, (0.0,) * 3, (16, 16, 16))
v = DensityField(grid, np.random.default_rng(6).random(grid.num_cells))
_, report = solve_least_norm(assemble(rossler_model(), grid), v)
assert report.iterations > 0 and report.factor_nnz == 0
""",
            False,
            id="rossler-16^3-block",
        ),
        # the dense rank of the 11^2 zero-drift operator
        pytest.param(
            """
from fpblock import Grid, assemble, zero_drift_model
from fpblock.analysis import kernel_dimension
grid = Grid((0.0, 0.0), (1.0, 1.0), (11, 11))
assert kernel_dimension(assemble(zero_drift_model(2), grid)) == 40
""",
            False,
            id="kernel-dimension-11^2",
        ),
        # a 32^2 block of the 128^2 ring: the band factor
        pytest.param(
            _RING.format(n=128)
            + """
local = restrict(v, ((16, 48), (16, 48)))
_, report = solve_least_norm(assemble(ring_model(), local.grid), local)
assert report.iterations == 0 and report.factor_nnz > 0
""",
            True,
            id="ring-32^2-block",
        ),
    ],
)
def test_only_the_band_factor_loads_scipy_linalg(code, loaded):
    code += 'import sys\nprint("scipy.linalg" in sys.modules)\n'
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [str(loaded)]
