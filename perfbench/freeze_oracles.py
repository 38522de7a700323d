"""Freeze the seed-0 outputs the benchmark checks against.

    python3 perfbench/freeze_oracles.py [workload ...]

Runs each workload's operation once at the oracle seed and writes the sha256
digest of its histogram counts to oracles/digests.json and its solved fields
to oracles/<workload>.npz. Re-freeze only for a change that is meant to move
the outputs; a performance change must pass against the frozen ones.
"""

import json
import shutil
import sys

from run import SCRATCH, SRC, cap_threads

cap_threads()
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from workloads import ORACLE_DIR, ORACLE_SEED, WORKLOADS, digest  # noqa: E402


def main(names) -> None:
    ORACLE_DIR.mkdir(exist_ok=True)
    digests_path = ORACLE_DIR / "digests.json"
    digests = json.loads(digests_path.read_text()) if digests_path.exists() else {}
    for name in names or WORKLOADS:
        wl = WORKLOADS[name]
        workdir = SCRATCH / f"freeze-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            inp = wl.build(ORACLE_SEED, workdir)
            res = wl.operate(inp)
            wl.check(inp, res)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if res.problems:
            raise SystemExit(f"{name}: refusing to freeze failed outputs: {res.problems}")
        if res.counts is not None:
            digests[name] = digest(res.counts)
        np.savez_compressed(
            ORACLE_DIR / f"{name}.npz", **{k: f.values for k, f in res.fields.items()}
        )
        print(f"froze {name}: fields {sorted(res.fields)}")
    digests_path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
