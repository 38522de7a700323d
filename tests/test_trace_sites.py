"""Every name the benchmark tracer wraps must still exist.

With ``--trace 1``, perfbench/spans.py swaps a wrapper in at each import
site listed in its SITES table, plus ``fpblock.cli.model_by_name``, and
refuses to start if one of those names is gone. This test catches such a
rename or deletion without running the benchmark, and the last one checks
that every least-norm solve still forms the normal matrix the per-layer
metrics read.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fpblock import (
    DensityField,
    Grid,
    InteriorOperator,
    SolveOptions,
    assemble,
    ring_model,
    rossler_model,
    solve_least_norm,
)

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

NAMES = [(target, attr) for target, attr, _, _ in spans.SITES]
NAMES.append(("fpblock.cli", "model_by_name"))


@pytest.mark.parametrize(
    "target, attr", NAMES, ids=[f"{target}.{attr}" for target, attr in NAMES]
)
def test_traced_name_resolves(target, attr):
    assert hasattr(spans._resolve(target), attr)


@pytest.mark.parametrize(
    "model, grid, direct",
    [
        (ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (32, 32)), True),
        (ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (128, 128)), False),
        (rossler_model(), Grid((-15.0,) * 3, (0.0,) * 3, (16, 16, 16)), False),
    ],
    ids=["direct-32^2", "multigrid-cg-128^2", "jacobi-cg-16^3"],
)
def test_every_solve_forms_one_normal_matrix(model, grid, direct, monkeypatch):
    # the traced benchmark reads operator.normal_nnz from the one
    # InteriorOperator.normal_matrix call each solve makes, and refuses a
    # solve that made none
    calls = []
    original = InteriorOperator.normal_matrix

    def counted(self, *args, **kwargs):
        calls.append(original(self, *args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(InteriorOperator, "normal_matrix", counted)
    v = DensityField(grid, np.random.default_rng(9).random(grid.num_cells))
    _, report = solve_least_norm(assemble(model, grid), v, SolveOptions(cg_rel_tol=1e-3))
    assert (report.factor_nnz > 0, report.iterations > 0) == (direct, not direct)
    assert len(calls) == 1
    assert type(calls[0].nnz) is int
