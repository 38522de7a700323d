"""Every name the benchmark tracer wraps must still exist.

With ``--trace 1``, perfbench/spans.py swaps a wrapper in at each import
site listed in its SITES table, plus ``fpblock.cli.model_by_name``, and
refuses to start if one of those names is gone. This test catches such a
rename or deletion without running the benchmark. The other tests check
that every least-norm solve still forms the normal matrix the per-layer
metrics read, and, through the tracer itself, what a block solve records:
one assembly and one drift call per partition, one solve per stack of
same-shape 2-D blocks and per 3-D block, and the per-layer metrics that
``perfbench/run.py --trace 1`` computes from those spans.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fpblock.repair
from fpblock import (
    DEFAULT_SHIFT_SCHEDULE,
    BlockPartition,
    BlockSolveConfig,
    DensityField,
    Grid,
    InteriorOperator,
    SolveOptions,
    assemble,
    enumerate_blocks,
    ring_model,
    rossler_model,
    solve_least_norm,
)
from fpblock.leastnorm import stack_limit

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


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _stacks(partition, iota):
    """The solve_least_norm calls of one solve_blocks round: one per stack of
    same-shape blocks."""
    shapes = Counter(
        tuple(b - a + 2 * iota for a, b in block.core) for block in enumerate_blocks(partition)
    )
    return sum(-(-count // stack_limit(shape)) for shape, count in shapes.items())


@pytest.mark.parametrize(
    "model, grid, blocks, method",
    [
        (ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (64, 64)), (2, 2), "plain"),
        (ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (64, 64)), (2, 2), "overlap"),
        (ring_model(), Grid((-2.0, -2.0), (2.0, 2.0), (64, 64)), (2, 2), "shift"),
        (rossler_model(), Grid((-15.0,) * 3, (15.0,) * 3, (30,) * 3), (2, 2, 2), "shift"),
    ],
    ids=["plain-64^2", "overlap-64^2", "shift-64^2", "shift-30^3"],
)
def test_block_solves_trace_one_assembly_per_partition(model, grid, blocks, method, tracer):
    # per-layer metrics count operator.assemble and drift calls per operation,
    # and leastnorm.solves per solve_least_norm call: each partition's
    # operator is assembled once, on its whole grid, and every block solves on
    # a window of it, 2-D blocks of one shape as stacks and 3-D blocks alone
    cfg = BlockSolveConfig(
        partition=BlockPartition(grid, blocks), solve=SolveOptions(cg_rel_tol=1e-6)
    )
    partitions = [cfg.partition]
    if method == "shift":
        partitions += fpblock.repair.shifted_partitions(cfg.partition, DEFAULT_SHIFT_SCHEDULE)
    iota = 1 if method == "overlap" else 0
    v = DensityField(
        grid.inflate(iota), np.random.default_rng(3).random(grid.inflate(iota).num_cells)
    )
    with tracer.operation(0):
        fpblock.repair.solve_method(tracer.model(model), v, cfg, method, iota=iota)

    rounds = sorted(
        (s for s in tracer.spans if s.name == "blocks.solve_blocks"), key=lambda s: s.start
    )
    assert len(rounds) == len(partitions)
    for span, part in zip(rounds, partitions):
        children = [s.name for s in tracer.spans if s.parent == span.id]
        assert children.count("operator.assemble") == 1
        assert children.count("leastnorm.solve_least_norm") == _stacks(part, iota)
    stacks = sum(_stacks(part, iota) for part in partitions)
    blocks_solved = sum(len(enumerate_blocks(part)) for part in partitions)
    assert (stacks == blocks_solved) == (grid.dim == 3)
    assert sum(s.drift_calls for s in (tracer.root, *tracer.spans)) == len(partitions)
    for solve in (s for s in tracer.spans if s.name == "leastnorm.solve_least_norm"):
        normal = [
            s for s in tracer.spans
            if s.parent == solve.id and s.name == "operator.normal_matrix"
        ]
        assert len(normal) == 1
        assert type(normal[0].attrs["nnz"]) is int and normal[0].attrs["nnz"] > 0
    # what perfbench/run.py --trace 1 computes from an operation's spans
    layers = {"models", "operator", "leastnorm", "blocks"} | (
        {"repair"} if method == "shift" else set()
    )
    spans.require_layers(tracer.spans, tracer.root, layers)
    metrics = spans.layer_metrics(tracer.spans, tracer.root, fpblock.repair.interface_jump)
    assert metrics["leastnorm.solves"] == stacks
    assert metrics["operator.assemble_calls"] == len(partitions)
    assert 0.0 < metrics["leastnorm.worst_residual"] < 1e-3
