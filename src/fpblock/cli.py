"""Command-line pipeline: sample, solve, errors, analyze, convergence.

Every command reads an optional flat key=value config file, applies --set
overrides and then the flags that alias config keys, runs, writes its output
atomically next to a JSON metadata sidecar, and exits 0. Configuration
problems exit 2, numerical failures 3, and file-format or I/O problems 4.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import fileio
from .analysis import (
    boundary_weight_rho,
    convergence_study,
    discrete_h1_error,
    discrete_l2_error,
    laplacian_kernel_basis,
    principal_angles,
    qr_diagonals,
)
from .blocks import BlockSolveConfig, worst_residual
from .config import RunConfig, _parse_ints, apply_overrides, parse_config
from .errors import (
    ConfigurationError,
    FormatError,
    FpblockError,
    NumericalError,
    UndefinedRatioError,
)
from .grids import BlockPartition, DensityField, Grid
from .models import ModelSpec, model_by_name, ring_exact_density, zero_drift_model
from .operator import assemble
# solve_shifting is kept for the benchmark tracer
from .repair import METHODS, method_settings, solve_method, solve_shifting
from .sampler import accumulate_histogram, histogram_to_density, start_point

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


# Flags that are other spellings of config keys: (argparse dest, key).
_FLAG_KEYS = (
    ("inflate", "sampler.inflate"),
    ("method", "solver.method"),
    ("blocks", "solver.blocks"),
    ("iota", "solver.iota"),
    ("schedule", "solver.schedule"),
    ("renormalize", "solver.renormalize"),
)


def _load_config(args) -> RunConfig:
    """Config file, then --set overrides, then aliasing flags, in that order."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = parse_config(Path(args.config).read_text())
    pairs = list(getattr(args, "set", None) or [])
    for dest, key in _FLAG_KEYS:
        value = getattr(args, dest, None)
        if value is not None:
            pairs.append(f"{key}={value}")
    return apply_overrides(cfg, pairs)


def _core_grid(cfg: RunConfig) -> Grid:
    return Grid(cfg.grid_lo, cfg.grid_hi, cfg.grid_n)


def _model(cfg: RunConfig) -> ModelSpec:
    return model_by_name(cfg.model, cfg.epsilon)


# One sidecar record per kind of setting, so each command keys a setting alike.
def _record(command: str, model: ModelSpec, grid: Grid | None = None) -> dict:
    record = {"command": command, "model": model.name, "epsilon": model.epsilon}
    if grid is not None:
        record.update(grid_n=list(grid.n), grid_lo=list(grid.lo), grid_hi=list(grid.hi))
    return record


def _sampler_record(cfg: RunConfig, model: ModelSpec) -> dict:
    sampler = cfg.sampler
    return {
        "dt": sampler.dt,
        "burn_in": sampler.burn_in,
        "chains": sampler.n_chains,
        "seed": sampler.seed,
        "initial": list(start_point(model, sampler.initial)),
        "on_escape": sampler.on_escape,
    }


def _solver_record(cfg: RunConfig, methods: tuple[str, ...]) -> dict:
    return {
        **method_settings(methods, cfg.iota, cfg.schedule),
        "cg_rel_tol": cfg.solve.cg_rel_tol,
        "cg_max_iters": cfg.solve.cg_max_iters,
    }


def cmd_sample(args) -> int:
    cfg = _load_config(args)
    model = _model(cfg)
    grid = _core_grid(cfg).inflate(cfg.inflate)
    t0 = time.perf_counter()
    hist = accumulate_histogram(model, grid, cfg.sampler)
    wall = time.perf_counter() - t0
    fileio.write_histogram(hist, args.out)
    fileio.write_sidecar(
        args.out,
        {
            **_record("sample", model, grid),
            "inflate": cfg.inflate,
            **_sampler_record(cfg, model),
            "samples_retained": hist.total_retained,
            "samples_in_domain": hist.in_domain,
            "restarts": hist.restarts,
            "steps": hist.steps,
            "wall_time": wall,
        },
    )
    print(
        f"sampled {hist.total_retained} states ({hist.in_domain} in domain) "
        f"onto {grid.n} in {wall:.2f}s -> {args.out}"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    model = _model(cfg)
    density = histogram_to_density(fileio.read_histogram(args.hist))
    core = _core_grid(cfg)
    partition = BlockPartition(grid=core, blocks=cfg.blocks)
    solve_cfg = BlockSolveConfig(partition=partition, solve=cfg.solve)

    t0 = time.perf_counter()
    fld, rounds = solve_method(
        model, density, solve_cfg, cfg.method, cfg.iota, cfg.schedule
    )
    wall = time.perf_counter() - t0
    all_reports = [rep for reps in rounds for rep in reps]
    if cfg.renormalize:
        fld = fld.renormalized()

    fileio.write_field(fld, args.out)
    fileio.write_sidecar(
        args.out,
        {
            **_record("solve", model, core),
            "method": cfg.method,
            "blocks": list(cfg.blocks),
            **_solver_record(cfg, (cfg.method,)),
            "renormalized": cfg.renormalize,
            "num_block_solves": len(all_reports),
            "total_cg_iterations": int(sum(r.solve.iterations for r in all_reports)),
            "max_cg_iterations": max(r.solve.iterations for r in all_reports),
            "direct_solves": sum(r.solve.factor_nnz > 0 for r in all_reports),
            "total_factor_nnz": int(sum(r.solve.factor_nnz for r in all_reports)),
            "worst_constraint_residual": worst_residual(all_reports),
            "min_value": fld.min_value,
            "mass": fld.mass,
            "wall_time": wall,
        },
    )
    print(
        f"{cfg.method} solve on {core.n} with {cfg.blocks} blocks: "
        f"{len(all_reports)} block solves, worst residual "
        f"{worst_residual(all_reports):.3e}, mass {fld.mass:.4f}, "
        f"{wall:.2f}s -> {args.out}"
    )
    return EXIT_OK


def _error_row(fld: DensityField, ref: DensityField) -> dict:
    row: dict = {
        "l2": discrete_l2_error(fld, ref),
        "h1": discrete_h1_error(fld, ref),
    }
    diff = DensityField(fld.grid, fld.values - ref.values)
    for d in (1, 2, 3, 4):
        try:
            row[f"rho_{d}"] = boundary_weight_rho(diff, d)
        except UndefinedRatioError:
            row[f"rho_{d}"] = ""
    row["min_value"] = fld.min_value
    row["mass"] = fld.mass
    return row


def cmd_errors(args) -> int:
    cfg = _load_config(args)
    fld = fileio.read_field(args.solution)
    meta = {"command": "errors", "solution": str(args.solution),
            "reference": str(args.reference)}
    if args.reference == "exact":
        if cfg.model != "ring" or fld.grid.dim != 2:
            raise ConfigurationError(
                "reference 'exact' is only available for the ring model on a "
                f"2-d grid, got {cfg.model} on a {fld.grid.dim}-d grid"
            )
        model = _model(cfg)
        ref = DensityField.from_function(fld.grid, ring_exact_density(model.epsilon))
        meta.update(_record("errors", model))
    else:
        ref = fileio.read_field(args.reference)
        if ref.grid != fld.grid:
            raise ConfigurationError("solution and reference grids differ")
    row = _error_row(fld, ref)
    names = list(row)
    if args.out:
        fileio.write_rows_csv([row], names, args.out)
        fileio.write_sidecar(args.out, meta)
    print(",".join(names))
    print(",".join(str(row[k]) for k in names))
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.what == "kernel":
        basis = laplacian_kernel_basis(args.n)
        diags = qr_diagonals(basis)
        op = assemble(
            zero_drift_model(2, epsilon=np.sqrt(2.0)),
            Grid((0.0, 0.0), (1.0, 1.0), (args.n, args.n)),
        )
        max_residual = max(
            float(np.max(np.abs(op.apply(basis.vectors[:, j]))))
            for j in range(basis.vectors.shape[1])
        )
        rows = []
        for j, (label, diag) in enumerate(zip(basis.labels, diags)):
            family = label[0]
            k = label[1] if family == "trig" else ""
            p = label[-1]
            rows.append(
                {"position": j, "family": family, "k": k, "p": p,
                 "r_diagonal": float(diag)}
            )
        if args.out:
            fileio.write_rows_csv(
                rows, ["position", "family", "k", "p", "r_diagonal"], args.out
            )
        print(
            f"kernel basis n={args.n}: {basis.vectors.shape[1]} vectors "
            f"(4n-4={4 * args.n - 4}), max |A b| = {max_residual:.3e}, "
            f"min |R_jj| = {diags.min():.6f}, last |R_jj| = {diags[-1]:.6f}"
        )
        return EXIT_OK

    cfg = _load_config(args)
    if args.zero_drift:
        eps = cfg.epsilon if cfg.epsilon is not None else 1.0
        model = zero_drift_model(2, epsilon=eps)
    else:
        model = _model(cfg)
    if model.dim != 2:
        raise ConfigurationError("principal angles are a 2-d diagnostic")
    lo = cfg.grid_lo[:2]
    hi = cfg.grid_hi[:2]
    grid = Grid(lo, hi, (args.n, args.n))
    op = assemble(model, grid)
    thicknesses = _parse_ints(args.thickness)
    rows = []
    for d in thicknesses:
        report = principal_angles(op, d)
        if report.warning:
            print(f"warning: {report.warning}", file=sys.stderr)
        for j, angle in enumerate(report.angles):
            rows.append(
                {
                    "thickness": d,
                    "index": j,
                    "angle": float(angle),
                    "cosine": float(np.cos(angle)),
                    "mean_cosine": report.mean_cosine,
                }
            )
        print(
            f"thickness {d}: kernel dim {report.kernel_dim}, "
            f"mean cosine {report.mean_cosine:.4f}"
        )
    if args.out:
        fileio.write_rows_csv(
            rows, ["thickness", "index", "angle", "cosine", "mean_cosine"], args.out
        )
    return EXIT_OK


def cmd_convergence(args) -> int:
    cfg = _load_config(args)
    if cfg.model != "ring":
        raise ConfigurationError("the convergence study needs the exact ring density")
    model = _model(cfg)
    exact = ring_exact_density(model.epsilon)
    mesh_sizes = _parse_ints(args.mesh)
    methods = tuple(args.methods.split(","))
    rows = convergence_study(
        model,
        exact,
        cfg.grid_lo,
        cfg.grid_hi,
        mesh_sizes,
        methods=methods,
        samples_per_cell=args.samples_per_cell,
        block_cells=args.block_cells,
        iota=cfg.iota,
        schedule=cfg.schedule,
        sampler=cfg.sampler,
        solve_opts=cfg.solve,
    )
    names = ["n", "method", "samples", "l2", "h1", "wall_time"]
    fileio.write_rows_csv(rows, names, args.out)
    fileio.write_sidecar(
        args.out,
        {
            **_record("convergence", model),
            "grid_lo": list(cfg.grid_lo),
            "grid_hi": list(cfg.grid_hi),
            "mesh_sizes": list(mesh_sizes),
            "methods": list(methods),
            "samples_per_cell": args.samples_per_cell,
            "block_cells": args.block_cells,
            **_sampler_record(cfg, model),
            **_solver_record(cfg, methods),
        },
    )
    for row in rows:
        print(
            f"n={row['n']:>4} {row['method']:>8}: l2={row['l2']:.5e} "
            f"h1={row['h1']:.5e} ({row['wall_time']:.2f}s)"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpblock",
        description="Stationary SDE densities via block least-norm projection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )

    p = sub.add_parser("sample", help="run chains and write an fphist histogram")
    common(p)
    p.add_argument("--inflate", metavar="IOTA",
                   help="extra cells per side on the binning grid")
    p.add_argument("--out", required=True, help="output .fphist path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("solve", help="project a histogram onto the kernel blockwise")
    common(p)
    p.add_argument("--hist", required=True, help="input .fphist path")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--blocks", metavar="KxL[xM]",
                   type=lambda text: text.replace("x", ","))
    p.add_argument("--iota", help="overlap extension")
    p.add_argument("--schedule", metavar="S1,S2,...",
                   help="shift fractions, e.g. 1/3,2/3,0")
    p.add_argument("--renormalize", action="store_const", const="true",
                   help="scale the result to unit mass")
    p.add_argument("--out", required=True, help="output .fpgrid path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("errors", help="error metrics of a solution field")
    common(p)
    p.add_argument("--solution", required=True, help="input .fpgrid path")
    p.add_argument("--reference", required=True,
                   help="reference .fpgrid path, or 'exact' for the ring density")
    p.add_argument("--out", default=None, help="optional CSV output path")
    p.set_defaults(func=cmd_errors)

    p = sub.add_parser("analyze", help="kernel diagnostics and principal angles")
    common(p)
    p.add_argument("what", choices=["kernel", "angles"])
    p.add_argument("--n", type=int, required=True, help="square lattice side")
    p.add_argument("--thickness", default="1,2,3",
                   help="boundary layer widths for angles")
    p.add_argument("--zero-drift", action="store_true",
                   help="use the pure-diffusion operator for angles")
    p.add_argument("--out", default=None, help="optional CSV output path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("convergence", help="errors across mesh refinements")
    common(p)
    p.add_argument("--mesh", default="64,128,256", help="comma list of sizes")
    p.add_argument("--methods", default=",".join(("mc", *METHODS)))
    p.add_argument("--samples-per-cell", type=float, default=390.625)
    p.add_argument("--block-cells", type=int, default=32)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FpblockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
