"""Spans around fpblock's public functions, installed from outside the library.

Every wrapped name is replaced at the import site its caller uses (blocks.py
calls ``fpblock.blocks.solve_least_norm``, not ``fpblock.leastnorm``'s), so
each call passes through exactly one wrapper. Spans are kept in memory with
their parent id and written out once the run ends. A model's drift is called
hundreds of thousands of times per sampling run, so drift calls are not spans:
their time, call count and evaluated rows are added to the enclosing span.

Installing fails if a wrapped name no longer exists, and ``require_layers``
fails if a layer the workload exercises recorded no call, so a refactor that
renames or deletes code cannot silently report zero time for a layer.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import time
from contextlib import contextmanager

import numpy as np


class TraceError(RuntimeError):
    """A wrapped name is missing or an exercised layer recorded no call."""


class Span:
    __slots__ = (
        "id", "parent", "op", "name", "start", "end", "attrs", "keep",
        "drift_s", "drift_calls", "drift_rows",
    )

    def __init__(self, span_id, parent, op, name):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = self.end = 0.0
        self.attrs = {}
        self.keep = {}
        self.drift_s = 0.0
        self.drift_calls = 0
        self.drift_rows = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _after_accumulate(span, args, kwargs, hist):
    span.attrs.update(
        restarts=hist.restarts, in_domain=hist.in_domain, total=hist.total_retained
    )


def _after_normal(span, args, kwargs, mat):
    span.attrs["nnz"] = int(mat.nnz)


def _after_solve(span, args, kwargs, result):
    report = result[1]
    span.attrs.update(
        iterations=int(report.iterations),
        residual=float(report.residual_constraint),
    )


def _after_solve_blocks(span, args, kwargs, result):
    span.keep["field"] = result[0]


def _after_shift(span, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    span.keep["partition"] = cfg.partition


def _file_bytes(index: int):
    """Hook recording the size of the file named by positional argument index."""

    def hook(span, args, kwargs, result):
        path = args[index] if len(args) > index else kwargs["path"]
        span.attrs["bytes"] = os.path.getsize(path)

    return hook


def _after_sidecar(span, args, kwargs, side):
    span.attrs["bytes"] = os.path.getsize(side)


# (module or class, attribute, span name, hook run after the call returns).
# Each entry is the name a caller on a workload's path looks up at call time.
SITES = (
    ("fpblock.cli", "main", "cli.main", None),
    ("fpblock.cli", "parse_config", "config.parse_config", None),
    ("fpblock.cli", "apply_overrides", "config.apply_overrides", None),
    ("fpblock.cli", "accumulate_histogram", "sampler.accumulate_histogram", _after_accumulate),
    ("fpblock.cli", "solve_shifting", "repair.solve_shifting", _after_shift),
    ("fpblock.cli", "discrete_l2_error", "analysis.discrete_l2_error", None),
    ("fpblock.cli", "discrete_h1_error", "analysis.discrete_h1_error", None),
    ("fpblock.cli", "boundary_weight_rho", "analysis.boundary_weight_rho", None),
    ("fpblock.fileio", "write_histogram", "fileio.write_histogram", _file_bytes(1)),
    ("fpblock.fileio", "write_field", "fileio.write_field", _file_bytes(1)),
    ("fpblock.fileio", "write_rows_csv", "fileio.write_rows_csv", _file_bytes(2)),
    ("fpblock.fileio", "write_sidecar", "fileio.write_sidecar", _after_sidecar),
    ("fpblock.fileio", "read_histogram", "fileio.read_histogram", _file_bytes(0)),
    ("fpblock.fileio", "read_field", "fileio.read_field", _file_bytes(0)),
    ("fpblock.sampler", "accumulate_histogram", "sampler.accumulate_histogram", _after_accumulate),
    ("fpblock.sampler", "flat_bin_indices", "grids.flat_bin_indices", None),
    ("fpblock.operator", "assemble", "operator.assemble", None),
    ("fpblock.blocks", "assemble", "operator.assemble", None),
    ("fpblock.repair", "assemble", "operator.assemble", None),
    ("fpblock.operator:InteriorOperator", "normal_matrix", "operator.normal_matrix", _after_normal),
    ("fpblock.leastnorm", "solve_least_norm", "leastnorm.solve_least_norm", _after_solve),
    ("fpblock.blocks", "solve_least_norm", "leastnorm.solve_least_norm", _after_solve),
    ("fpblock.repair", "solve_least_norm", "leastnorm.solve_least_norm", _after_solve),
    ("fpblock.blocks", "solve_blocks", "blocks.solve_blocks", _after_solve_blocks),
    ("fpblock.repair", "solve_blocks", "blocks.solve_blocks", _after_solve_blocks),
    ("fpblock.blocks", "restrict", "blocks.restrict", None),
    ("fpblock.repair", "restrict", "blocks.restrict", None),
    ("fpblock.blocks", "collage", "blocks.collage", None),
    ("fpblock.repair", "collage", "blocks.collage", None),
    ("fpblock.repair", "solve_shifting", "repair.solve_shifting", _after_shift),
    ("fpblock.repair", "solve_overlapping", "repair.solve_overlapping", None),
)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """In-memory span recorder; ``install`` swaps wrappers in, ``uninstall`` out."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root = Span(-1, None, None, "root")
        self.active = False
        self._stack: list[Span] = []
        self._next_id = 0
        self._op = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Swap every wrapper in; wraps nothing if a traced name is missing."""
        sites = [(*site, _resolve(site[0])) for site in SITES]
        sites.append(("fpblock.cli", "model_by_name", None, None, _resolve("fpblock.cli")))
        missing = [
            f"{target.replace(':', '.')}.{attr}"
            for target, attr, _, _, owner in sites
            if not hasattr(owner, attr)
        ]
        if missing:
            raise TraceError(f"traced names no longer exist: {missing}")
        for _, attr, name, hook, owner in sites:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if attr == "model_by_name":
                wrapper = functools.wraps(original)(
                    lambda *a, _f=original, **k: self.model(_f(*a, **k))
                )
            else:
                wrapper = self._wrap(name, original, hook)
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def model(self, model):
        """Copy of a ModelSpec whose drift adds its cost to the enclosing span."""
        drift = model.drift

        def traced_drift(p):
            if not self.active:
                return drift(p)
            t0 = time.perf_counter()
            out = drift(p)
            elapsed = time.perf_counter() - t0
            span = self._stack[-1] if self._stack else self.root
            span.drift_s += elapsed
            span.drift_calls += 1
            span.drift_rows += p.shape[0] if getattr(p, "ndim", 1) > 1 else 1
            return out

        return dataclasses.replace(model, drift=traced_drift)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1].id if self._stack else None
            span = Span(self._next_id, parent, self._op, name)
            self._next_id += 1
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    # -- recording ----------------------------------------------------------

    @contextmanager
    def operation(self, op: int):
        """Record spans tagged with one operation's index."""
        self._op = op
        self.root = Span(-1, None, op, "root")
        self.active = True
        try:
            yield
        finally:
            self.active = False

    @contextmanager
    def paused(self):
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def write(self, path) -> None:
        """Dump the spans as JSON lines: id, parent, op, name, start, end, attrs."""
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {
                    "id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                    "start": s.start, "end": s.end, **s.attrs,
                }
                if s.drift_calls:
                    rec.update(
                        drift_s=s.drift_s, drift_calls=s.drift_calls,
                        drift_rows=s.drift_rows,
                    )
                fh.write(json.dumps(rec) + "\n")


def require_layers(spans: list[Span], root: Span, layers) -> None:
    """Fail if any of the given layers recorded no call in these spans."""
    seen = {s.layer for s in spans}
    if any(s.drift_calls for s in (root, *spans)):
        seen.add("models")
    missing = sorted(set(layers) - seen)
    if missing:
        raise TraceError(f"layers {missing} recorded zero calls")


def layer_metrics(spans: list[Span], root: Span, interface_jump) -> dict[str, float]:
    """Per-layer numbers of one operation, from its spans (overhead excluded)."""
    children: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration

    def self_time(s: Span) -> float:
        return s.duration - children.get(s.id, 0.0) - s.drift_s

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str) -> float:
        return float(sum(s.duration for s in named(name)))

    acc = named("sampler.accumulate_histogram")
    acc_s = total("sampler.accumulate_histogram")
    solves = named("leastnorm.solve_least_norm")
    solve_ms = np.array([1e3 * s.duration for s in solves]) if solves else np.zeros(1)
    iterations = [s.attrs["iterations"] for s in solves]
    by_id = {s.id: s for s in spans}
    nnz_of = {}
    for s in named("operator.normal_matrix"):
        if s.parent in by_id:
            nnz_of[s.parent] = s.attrs["nnz"]
    missing_nnz = [s for s in solves if s.id not in nnz_of]
    if missing_nnz:
        raise TraceError(
            f"{len(missing_nnz)} solves formed no normal matrix; "
            "leastnorm.matvec_nnz_total needs a new definition"
        )
    solve_self = sum(self_time(s) for s in solves)
    shifts = named("repair.solve_shifting")
    rounds: list[Span] = []
    jumps: list[float] = []
    if shifts:
        shift = shifts[-1]
        rounds = sorted(
            (s for s in named("blocks.solve_blocks") if s.parent == shift.id),
            key=lambda s: s.start,
        )
        jumps = [interface_jump(r.keep["field"], shift.keep["partition"]) for r in rounds]
    total_drift = root.drift_s + sum(s.drift_s for s in spans)
    all_spans_with_drift = [root, *spans]
    out = {
        "sampler.accumulate_s": acc_s,
        "sampler.chain_steps_per_s": (
            sum(s.drift_rows for s in acc) / acc_s if acc_s > 0 else 0.0
        ),
        "sampler.restarts": sum(s.attrs["restarts"] for s in acc),
        "sampler.in_domain_fraction": (
            sum(s.attrs["in_domain"] for s in acc) / sum(s.attrs["total"] for s in acc)
            if acc else 0.0
        ),
        "sampler.self_s": sum(self_time(s) for s in acc),
        "models.drift_s": total_drift,
        "models.drift_calls": sum(s.drift_calls for s in all_spans_with_drift),
        "grids.bin_s": total("grids.flat_bin_indices"),
        "operator.assemble_s": total("operator.assemble"),
        "operator.assemble_calls": len(named("operator.assemble")),
        "operator.normal_s": total("operator.normal_matrix"),
        "operator.normal_nnz": sum(s.attrs["nnz"] for s in named("operator.normal_matrix")),
        "leastnorm.solve_s": total("leastnorm.solve_least_norm"),
        "leastnorm.solves": len(solves),
        "leastnorm.solve_ms.p50": float(np.percentile(solve_ms, 50)),
        "leastnorm.solve_ms.p99": float(np.percentile(solve_ms, 99)),
        "leastnorm.iterations_total": sum(iterations),
        "leastnorm.iterations_max": max(iterations, default=0),
        "leastnorm.us_per_iteration": (
            1e6 * solve_self / sum(iterations) if sum(iterations) else 0.0
        ),
        "leastnorm.matvec_nnz_total": sum(
            s.attrs["iterations"] * nnz_of[s.id] for s in solves
        ),
        "leastnorm.worst_residual": max((s.attrs["residual"] for s in solves), default=0.0),
        "blocks.solve_blocks_s": total("blocks.solve_blocks"),
        "blocks.self_s": sum(self_time(s) for s in named("blocks.solve_blocks")),
        "blocks.restrict_s": total("blocks.restrict"),
        "blocks.collage_s": total("blocks.collage"),
        "repair.shift_s": total("repair.solve_shifting"),
        "repair.overlap_s": total("repair.solve_overlapping"),
        "fileio.write_s": sum(s.duration for s in spans if s.name.startswith("fileio.write")),
        "fileio.read_s": sum(s.duration for s in spans if s.name.startswith("fileio.read")),
        "fileio.bytes": sum(s.attrs["bytes"] for s in spans if s.layer == "fileio"),
        "cli.self_s": sum(self_time(s) for s in named("cli.main")),
        "analysis.errors_s": sum(s.duration for s in spans if s.layer == "analysis"),
        "trace.spans": len(spans),
    }
    for k in range(4):
        out[f"repair.round_s.{k}"] = rounds[k].duration if k < len(rounds) else 0.0
        out[f"repair.interface_jump.{k}"] = jumps[k] if k < len(jumps) else 0.0
    return out
