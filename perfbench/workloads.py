"""The benchmark's four workloads: inputs from a seed, one operation, checks.

Each workload loads a different layer of fpblock (see README.md for why):

* ring-cli-64: the documented ``sample -> solve -> errors`` CLI path; the
  sampler does most of the work.
* ring-blocks-128: many small block solves (plain, overlap, shift) on a
  synthetic reference; no sampling.
* ring-whole-128: one large whole-domain least-norm solve; no blocks.
* rossler-3d-32: the 3-D path, sampler restarts and 7-point block systems.

Library calls go through module attributes (``fpblock.repair.solve_shifting``)
so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import fpblock.analysis
import fpblock.blocks
import fpblock.cli
import fpblock.fileio
import fpblock.leastnorm
import fpblock.operator
import fpblock.repair
import fpblock.sampler
from fpblock import (
    DEFAULT_SHIFT_SCHEDULE,
    BlockPartition,
    BlockSolveConfig,
    DensityField,
    Grid,
    SamplerConfig,
    ring_exact_density,
    ring_model,
    enumerate_blocks,
    rossler_model,
)

ORACLE_DIR = Path(__file__).resolve().parent / "oracles"
# Histogram digests and solved fields are frozen at this seed only.
ORACLE_SEED = 0
FIELD_TOL = 1e-10
# Criterion 11's forms: worst block residual against max|A v|, and the mass band.
# The benchmark computes the residual of each solved field itself; it does not
# take the solver's reports for it.
RESIDUAL_SHARE = 1e-6
MASS_BAND = (0.8, 1.0)
# On the ring nearly all of the mass lies in the box, and neither the projection
# nor a synthetic reference's zero-mean noise conserves it exactly: solved ring
# fields read up to 1.0004, so the band's upper edge is 1.01 there.
RING_MASS_BAND = (0.8, 1.01)
ZETA = 0.01
RING_BOX = ((-2.0, -2.0), (2.0, 2.0))


@dataclass
class Result:
    """What one operation produced, before its checks."""

    stages: dict[str, float]
    fields: dict[str, DensityField] = field(default_factory=dict)
    # The blocks whose constraints each field must satisfy; None is the whole grid.
    partitions: dict[str, BlockPartition | None] = field(default_factory=dict)
    counts: np.ndarray | None = None
    total: int | None = None
    reference: DensityField | None = None
    l2_error: float | None = None
    error_ratio: float | None = None
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    layers: frozenset[str]
    build: Callable[[int, Path], dict]
    operate: Callable[[dict], Result]
    check: Callable[[dict, Result], None]


def digest(counts: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(counts, dtype="<u8").tobytes()).hexdigest()


def _max_abs_av(model, v: DensityField) -> float:
    """max |A v|, with A the interior operator on v's own grid."""
    op = fpblock.operator.assemble(model, v.grid)
    return float(np.max(np.abs(op.matrix @ v.values)))


def _constraint_residual(model, fld: DensityField, partition) -> float:
    """max |A_b u_b| over the partition's blocks (or the whole grid for None)."""
    if partition is None:
        return _max_abs_av(model, fld)
    return max(
        _max_abs_av(model, fpblock.blocks.restrict(fld, blk.core))
        for blk in enumerate_blocks(partition)
    )


def _last_round(partition: BlockPartition) -> BlockPartition:
    """The partition of solve_shifting's final round under the default schedule."""
    shift = (DEFAULT_SHIFT_SCHEDULE[-1],) * partition.grid.dim
    return BlockPartition(grid=partition.grid, blocks=partition.blocks, shift=shift)


def _check_solution(res: Result, name: str, model, scale: float, band=MASS_BAND) -> None:
    fld = res.fields[name]
    worst = _constraint_residual(model, fld, res.partitions[name])
    if not worst <= RESIDUAL_SHARE * scale:
        res.problems.append(
            f"{name}: worst residual {worst:.3e} > {RESIDUAL_SHARE:g} * {scale:.3e}"
        )
    if not band[0] <= fld.mass <= band[1]:
        res.problems.append(f"{name}: mass {fld.mass:.4f} outside {band}")


def check_oracles(inp: dict, res: Result) -> None:
    """At the oracle seed, counts must match bit for bit and fields to 1e-10."""
    if inp["seed"] != ORACLE_SEED:
        return
    name = inp["workload"]
    frozen = json.loads((ORACLE_DIR / "digests.json").read_text())
    if res.counts is not None and digest(res.counts) != frozen[name]:
        res.problems.append("histogram counts differ from the frozen digest")
    with np.load(ORACLE_DIR / f"{name}.npz") as oracle:
        for key, fld in res.fields.items():
            dev = float(np.max(np.abs(fld.values - oracle[key])))
            if not dev <= FIELD_TOL:
                res.problems.append(f"{key}: max |u - frozen| = {dev:.3e}")


def _quality(res: Result, final: DensityField, mc: DensityField, exact: DensityField):
    res.l2_error = fpblock.analysis.discrete_l2_error(final, exact)
    res.error_ratio = res.l2_error / fpblock.analysis.discrete_l2_error(mc, exact)


# -- ring-cli-64 -------------------------------------------------------------

# 20,000 per chain after a 20,000-step burn-in: 40,000 lockstep steps, about a
# fifth of the defaults' 200,000, so that an 18 s run holds about 10 operations.
CLI_SAMPLES = 320_000
CLI_BURN_IN = 20_000


def build_ring_cli(seed: int, workdir: Path) -> dict:
    cfg = workdir / "ring.cfg"
    cfg.write_text(
        "model = ring\n"
        "grid.lo = -2,-2\n"
        "grid.hi = 2,2\n"
        "grid.n = 64,64\n"
        f"sampler.samples = {CLI_SAMPLES}\n"
        f"sampler.burn_in = {CLI_BURN_IN}\n"
        f"sampler.seed = {seed}\n"
    )
    grid = Grid(*RING_BOX, (64, 64))
    return {
        "workload": "ring-cli-64",
        "seed": seed,
        "config": str(cfg),
        "hist": str(workdir / "ref.fphist"),
        "solution": str(workdir / "u.fpgrid"),
        "errors": str(workdir / "err.csv"),
        "exact": DensityField.from_function(grid, ring_exact_density()),
        "model": ring_model(),
        "partition": BlockPartition(grid, (2, 2)),
    }


def operate_ring_cli(inp: dict) -> Result:
    cfg = ["--config", inp["config"]]
    steps = (
        ("sample_s", ["sample", *cfg, "--out", inp["hist"]]),
        ("solve_s", ["solve", *cfg, "--hist", inp["hist"], "--method", "shift",
                     "--blocks", "2x2", "--out", inp["solution"]]),
        ("errors_s", ["errors", *cfg, "--solution", inp["solution"],
                      "--reference", "exact", "--out", inp["errors"]]),
    )
    stages = {}
    problems = []
    # The commands print a summary line each; keep it off the result stream.
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        for stage, argv in steps:
            t0 = time.perf_counter()
            code = fpblock.cli.main(argv)
            stages[stage] = time.perf_counter() - t0
            if code != 0:
                problems.append(f"fpblock {argv[0]} exited {code}: {err.getvalue()}")
                break
    return Result(stages=stages, problems=problems)


def check_ring_cli(inp: dict, res: Result) -> None:
    if res.problems:
        return
    hist = fpblock.fileio.read_histogram(inp["hist"])
    meta = json.loads(Path(inp["hist"] + ".meta.json").read_text())
    if hist.total_retained != CLI_SAMPLES or meta["samples_retained"] != CLI_SAMPLES:
        res.problems.append(f"sample total {hist.total_retained} != {CLI_SAMPLES}")
    res.counts = hist.counts
    v = fpblock.sampler.histogram_to_density(hist)
    res.fields["shift"] = fpblock.fileio.read_field(inp["solution"])
    res.partitions["shift"] = _last_round(inp["partition"])
    scale = _max_abs_av(inp["model"], v)
    _check_solution(res, "shift", inp["model"], scale, RING_MASS_BAND)
    _quality(res, res.fields["shift"], v, inp["exact"])
    with open(inp["errors"]) as fh:
        row = dict(zip(*(line.strip().split(",") for line in fh)))
    if abs(float(row["l2"]) - res.l2_error) > 1e-12 * res.l2_error:
        res.problems.append(f"errors CSV l2 {row['l2']} != {res.l2_error!r}")


# -- synthetic ring references -----------------------------------------------


def _synthetic(seed: int, n: int, inflate: int):
    """Exact ring density plus N(0, ZETA^2) noise, drawn on the inflated grid."""
    grid = Grid(*RING_BOX, (n, n))
    fn = ring_exact_density()
    v_ext = fpblock.sampler.synthetic_reference(
        DensityField.from_function(grid.inflate(inflate), fn), ZETA, seed
    )
    v = fpblock.blocks.restrict(v_ext, ((inflate, inflate + n),) * 2)
    return grid, v_ext, v, DensityField.from_function(grid, fn)


# -- ring-blocks-128 ---------------------------------------------------------


def build_ring_blocks(seed: int, workdir: Path) -> dict:
    model = ring_model()
    grid, v_ext, v, exact = _synthetic(seed, 128, 1)
    return {
        "workload": "ring-blocks-128",
        "seed": seed,
        "model": model,
        "v": v,
        "v_ext": v_ext,
        "exact": exact,
        "cfg": BlockSolveConfig(BlockPartition(grid, (4, 4))),
        "scale": _max_abs_av(model, v),
    }


def operate_ring_blocks(inp: dict) -> Result:
    model, v, cfg = inp["model"], inp["v"], inp["cfg"]
    t0 = time.perf_counter()
    plain, _ = fpblock.blocks.solve_blocks(model, v, cfg)
    overlap, _ = fpblock.repair.solve_overlapping(model, inp["v_ext"], cfg, 1)
    shift, _ = fpblock.repair.solve_shifting(model, v, cfg)
    solve_s = time.perf_counter() - t0
    return Result(
        stages={"solve_s": solve_s},
        fields={"plain": plain, "overlap": overlap, "shift": shift},
        # Overlap keeps the core of each extended block, so its cores must
        # satisfy their own interior constraints.
        partitions={
            "plain": cfg.partition,
            "overlap": cfg.partition,
            "shift": _last_round(cfg.partition),
        },
    )


def check_synthetic(inp: dict, res: Result) -> None:
    for name in res.fields:
        _check_solution(res, name, inp["model"], inp["scale"], RING_MASS_BAND)
    # The last field is the workload's final answer: the shift result on
    # ring-blocks-128, the whole-domain solve on ring-whole-128.
    final = list(res.fields.values())[-1]
    _quality(res, final, inp["v"], inp["exact"])


# -- ring-whole-128 ----------------------------------------------------------


def build_ring_whole(seed: int, workdir: Path) -> dict:
    model = ring_model()
    grid, _, v, exact = _synthetic(seed, 128, 0)
    return {
        "workload": "ring-whole-128",
        "seed": seed,
        "model": model,
        "grid": grid,
        "v": v,
        "exact": exact,
        "scale": _max_abs_av(model, v),
    }


def operate_ring_whole(inp: dict) -> Result:
    t0 = time.perf_counter()
    op = fpblock.operator.assemble(inp["model"], inp["grid"])
    u, _ = fpblock.leastnorm.solve_least_norm(op, inp["v"])
    return Result(
        stages={"solve_s": time.perf_counter() - t0},
        fields={"whole": u},
        partitions={"whole": None},
    )


# -- rossler-3d-32 -----------------------------------------------------------

# A restarted chain owes a fresh burn-in and every chain waits for it in
# lockstep, so restarts make the work depend on the seed. A short burn-in keeps
# that extension small against the 20,000-step quota.
ROSSLER_SAMPLES = 320_000
ROSSLER_BURN_IN = 2_000


def build_rossler(seed: int, workdir: Path) -> dict:
    grid = Grid((-15.0,) * 3, (15.0,) * 3, (32,) * 3)
    return {
        "workload": "rossler-3d-32",
        "seed": seed,
        "model": rossler_model(),
        "grid": grid,
        # fpblock sample cannot set on_escape yet, so this path is library-only.
        "sampler": SamplerConfig(
            n_samples=ROSSLER_SAMPLES, burn_in=ROSSLER_BURN_IN, seed=seed,
            on_escape="restart",
        ),
        "cfg": BlockSolveConfig(BlockPartition(grid, (2, 2, 2))),
    }


def operate_rossler(inp: dict) -> Result:
    t0 = time.perf_counter()
    hist = fpblock.sampler.accumulate_histogram(inp["model"], inp["grid"], inp["sampler"])
    t1 = time.perf_counter()
    v = fpblock.sampler.histogram_to_density(hist)
    u, _ = fpblock.repair.solve_shifting(inp["model"], v, inp["cfg"])
    t2 = time.perf_counter()
    return Result(
        stages={"sample_s": t1 - t0, "solve_s": t2 - t1},
        fields={"shift": u},
        partitions={"shift": _last_round(inp["cfg"].partition)},
        counts=hist.counts,
        total=hist.total_retained,
        reference=v,
    )


def check_rossler(inp: dict, res: Result) -> None:
    if res.total != ROSSLER_SAMPLES:
        res.problems.append(f"sample total {res.total} != {ROSSLER_SAMPLES}")
    _check_solution(res, "shift", inp["model"],
                    _max_abs_av(inp["model"], res.reference))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ring-cli-64",
            frozenset({"cli", "config", "fileio", "sampler", "models", "grids",
                       "operator", "leastnorm", "blocks", "repair", "analysis"}),
            build_ring_cli, operate_ring_cli, check_ring_cli,
        ),
        Workload(
            "ring-blocks-128",
            frozenset({"operator", "leastnorm", "blocks", "repair"}),
            build_ring_blocks, operate_ring_blocks, check_synthetic,
        ),
        Workload(
            "ring-whole-128",
            frozenset({"operator", "leastnorm"}),
            build_ring_whole, operate_ring_whole, check_synthetic,
        ),
        Workload(
            "rossler-3d-32",
            frozenset({"sampler", "models", "grids", "operator", "leastnorm",
                       "blocks", "repair"}),
            build_rossler, operate_rossler, check_rossler,
        ),
    )
}
