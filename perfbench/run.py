"""fpblock benchmark: one workload per process, timed end to end or traced.

    python3 perfbench/run.py --workload ring-blocks-128 --seed 0 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --record perfbench/results/baseline.jsonl

The load is a closed loop with one client: each operation starts when the
previous one has returned and been checked. A run keeps starting operations
while the next one, at the median duration so far, still fits in --seconds
(at least one operation runs). With --trace 0 the last line of standard output
is a JSON object holding every end-to-end metric of BENCHMARK.json; with
--trace 1 it holds every per-layer metric, from operations run with spans
installed around fpblock's public functions, each paired with an untraced
operation so the tracing overhead is measured in the same run. ``all`` runs
every workload, each in a child process of its own, so that peak memory and
import time are per workload.

Times in the end-to-end metrics are calibrated: on a shared VM the host's
speed drifts by a third over minutes, so after every operation the run times
a fixed kernel that uses no fpblock code, and scales the operation's time by
CAL_REFERENCE_S over the mean of the kernel times taken just before and just
after it. Each set-up round runs in a fresh interpreter and is scaled by the
kernel timed in that interpreter right after it. A time is thus reported in
seconds of a host on which the kernel takes CAL_REFERENCE_S; the raw times are
printed and recorded next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = ("ring-cli-64", "ring-blocks-128", "ring-whole-128", "rossler-3d-32")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One set-up round in a fresh interpreter: import fpblock and build the
# inputs, then time the calibration kernel in the same process, so that both
# times come from the same CPU at the same moment.
SETUP_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
    "import pathlib, fpblock, fpblock.cli; from workloads import WORKLOADS; "
    "WORKLOADS[sys.argv[3]].build(int(sys.argv[4]), pathlib.Path(sys.argv[5])); "
    "t1 = time.perf_counter(); from run import Calibrator; "
    "print(t1 - t0, Calibrator().times[0])"
)
SETUP_ROUNDS = 5
# Calibrated times are seconds on a host where the calibration kernel takes
# this long: a fixed figure, near the kernel's time on the 2-vCPU VM the
# benchmark was written on (Python 3.11, numpy 2.4, scipy 1.17) at its faster
# moments. Changing it rescales every calibrated time.
CAL_REFERENCE_S = 0.22
CAL_GRID = 40
CAL_ITERATIONS = 8000
CAL_RESTART = 40
# Per-operation times the calibration scales; the raw ones keep a _raw_s name.
TIMED = ("wall_s", "solve_s", "sample_s")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Cap BLAS and OpenMP pools at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), cap) if current.isdigit() else cap)


def git_commit() -> str:
    """HEAD's hash, with "-dirty" if the tree has uncommitted changes."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("-dirty" if status.stdout.strip() else "")


def host_record(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "host": platform.node(),
        "nproc": nproc(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "commit": git_commit(),
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's per-operation values."""
    if len(values) > 1:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {"value": statistics.median(values), "p25": p25, "p75": p75, "n": len(values)}


class Calibrator:
    """Host speed from a fixed kernel timed before and after each measurement.

    The kernel is a conjugate-gradient loop on a 40x40 Laplacian with a fixed
    iteration count: small sparse products and vector updates driven from
    Python, the same mix as fpblock's block solves and lockstep sampler.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(CAL_GRID, CAL_GRID))
        eye = sp.eye(CAL_GRID)
        self.matrix = (sp.kron(d, eye) + sp.kron(eye, d)).tocsr()
        self.rhs = np.sin(np.arange(CAL_GRID * CAL_GRID, dtype=float))
        self.times = [self.kernel()]

    def kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(CAL_ITERATIONS // CAL_RESTART):
            # Restarting well before convergence keeps every iteration's work
            # the same and the iterates finite.
            r = self.rhs.copy()
            p = r.copy()
            x = 0.0 * r
            rr = r @ r
            for _ in range(CAL_RESTART):
                q = self.matrix @ p
                a = rr / (p @ q)
                x += a * p
                r -= a * q
                rr_next = r @ r
                p = r + (rr_next / rr) * p
                rr = rr_next
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Reference seconds per local second since the previous call."""
        self.times.append(self.kernel())
        return CAL_REFERENCE_S / statistics.mean(self.times[-2:])


def set_up(wl, seed: int, workdir: Path):
    """The inputs, and SETUP_ROUNDS calibrated set-up times from fresh interpreters."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), wl.name, str(seed),
             str(workdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        raw, kernel = map(float, out.stdout.split())
        rounds.append({"setup_raw_s": raw, "setup_s": raw * CAL_REFERENCE_S / kernel})
    return wl.build(seed, workdir), rounds


def run_op(wl, inp, tracer=None, index=0) -> dict:
    """One operation and its checks; an exception or a failed check fails it."""
    from workloads import check_oracles

    recording = tracer.operation(index) if tracer else nullcontext()
    t0 = time.perf_counter()
    try:
        with recording:
            res = wl.operate(inp)
            with tracer.paused() if tracer else nullcontext():
                wl.check(inp, res)
                check_oracles(inp, res)
    except Exception:
        traceback.print_exc()
        return {"wall_s": time.perf_counter() - t0, "raised": True,
                "problems": ["exception"]}
    wall = time.perf_counter() - t0
    for problem in res.problems:
        print(f"check failed: {wl.name} op {index}: {problem}", file=sys.stderr)
    return {
        "wall_s": wall,
        "raised": False,
        "problems": res.problems,
        **res.stages,
        **({"l2_error": res.l2_error, "error_ratio": res.error_ratio}
           if res.l2_error is not None else {}),
    }


def keep_going(start: float, ops: list[dict], seconds: float, cal=None) -> bool:
    typical = statistics.median(op["wall_raw_s"] for op in ops)
    if cal is not None:
        typical += statistics.median(cal.times)
    return time.perf_counter() - start + typical <= seconds


def measure(wl, inp, seconds: float, cal: Calibrator) -> list[dict]:
    ops = []
    start = time.perf_counter()
    while True:
        op = run_op(wl, inp, index=len(ops))
        scale = cal.scale()
        for name in TIMED:
            if name in op:
                op[name[:-2] + "_raw_s"] = op[name]
                op[name] *= scale
        ops.append(op)
        if not keep_going(start, ops, seconds, cal):
            return ops


def measure_traced(wl, inp, seconds: float, trace_path: Path):
    """Pairs of (untraced, traced) operations; per-layer metrics per traced op."""
    from fpblock.repair import interface_jump
    from spans import Tracer, layer_metrics, require_layers

    tracer = Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_op(wl, inp, index=len(plain)))
        index = len(traced)
        tracer.install()
        try:
            op = run_op(wl, dict(inp, model=tracer.model(inp["model"])), tracer, index)
        finally:
            tracer.uninstall()
        traced.append(op)
        if op["raised"]:
            raise RuntimeError(f"traced operation {index} raised; no layer metrics")
        spans = [s for s in tracer.spans if s.op == index]
        require_layers(spans, tracer.root, wl.layers)
        with tracer.paused():
            layers.append(layer_metrics(spans, tracer.root, interface_jump))
        pair = [{"wall_raw_s": a["wall_s"] + b["wall_s"]} for a, b in zip(plain, traced)]
        if not keep_going(start, pair, seconds):
            break
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    untraced_wall = statistics.median(op["wall_s"] for op in plain)
    traced_wall = statistics.median(op["wall_s"] for op in traced)
    for m in layers:
        m["trace.overhead_s"] = traced_wall - untraced_wall
        m["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    return plain + traced, layers


def run_one(args, spec) -> int:
    cap_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    seconds = float(args.seconds)
    workdir = SCRATCH / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inp, setup = set_up(wl, args.seed, workdir)
        if args.trace:
            trace_path = SCRATCH / "traces" / f"{wl.name}-seed{args.seed}.jsonl"
            ops, layer_ops = measure_traced(wl, inp, seconds, trace_path)
            wanted = spec["per_layer"]
            values = {
                m["name"]: summary([lm[m["name"]] for lm in layer_ops]) for m in wanted
            }
        else:
            cal = Calibrator()
            ops = measure(wl, inp, seconds, cal)
            good = [op for op in ops if not op["raised"]]
            if not good:
                print(f"error: every {wl.name} operation raised", file=sys.stderr)
                return 1
            wanted = spec["end_to_end"]
            values = {
                name: summary([op[name] for op in good])
                for name in ("wall_s", "solve_s", "sample_s", "wall_raw_s", "solve_raw_s",
                             "sample_raw_s", "l2_error", "error_ratio")
                if name in good[0]
            }
            for name in ("setup_s", "setup_raw_s"):
                values[name] = summary([r[name] for r in setup])
            values["cal_s"] = summary(cal.times)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values["peak_rss_mb"] = {"value": rss, "n": 1}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in ops if op["problems"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(sample_s="s", wall_raw_s="s", solve_raw_s="s", sample_raw_s="s",
                 setup_raw_s="s", cal_s="s", l2_error="1", error_ratio="1")
    host = host_record(args.seed)
    print(f"# fpblock benchmark: workload {wl.name}, seed {args.seed}, "
          f"trace {args.trace}, {seconds:g} s per run")
    print("# " + ", ".join(f"{k} {v}" for k, v in host.items()))
    print(f"# {len(ops)} operations attempted, {failed} failed, "
          f"failed_fraction {failed / len(ops):g}")
    print(f"# {'metric':30s} {'median':>14s} {'p25':>14s} {'p75':>14s}  unit    n")
    for name, v in values.items():
        print(f"  {name:30s} {v['value']:14.6g} {v.get('p25', v['value']):14.6g} "
              f"{v.get('p75', v['value']):14.6g}  {units[name]:6s} {v['n']}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
        },
    }
    if args.record:
        record = {"workload": wl.name, "trace": args.trace, "seconds": seconds,
                  **host, **{k: result[k] for k in ("correct", "attempted", "failed")},
                  "metrics": {k: {**v, "unit": units[k]} for k, v in values.items()}}
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.record:
            argv += ["--record", str(Path(args.record).resolve())]
        child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append the full result, host record included, to this JSONL file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "fpblock" / "__init__.py").is_file():
        print(f"error: no fpblock sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
