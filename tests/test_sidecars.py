"""Every command's `.meta.json` sidecar against a frozen record.

`frozen_sidecars.json` holds the full sidecar of each case below, as the
commands wrote it before their settings moved into one set of record
builders, with `wall_time` dropped and the run directory written as
`<tmp>`. Floats compare to 1e-9 relative or 1e-12 absolute (a block
residual is round-off), the rest exactly. Run this file
as a script to print the current records in the same form.
"""

import csv
import json
import sys
from pathlib import Path

import pytest

from fpblock.cli import main

FROZEN = Path(__file__).with_name("frozen_sidecars.json")

CONFIG = {
    "model": "ring",
    "grid.lo": "-2,-2",
    "grid.hi": "2,2",
    "grid.n": "32,32",
    "sampler.samples": "40000",
    "sampler.burn_in": "2000",
    "sampler.chains": "4",
    "sampler.seed": "7",
    "solver.blocks": "2,2",
}

CONVERGENCE = ["--mesh", "32", "--methods", "mc,plain,overlap,shift",
               "--samples-per-cell", "20", "--block-cells", "16"]

# (case, argv with {d} for the run directory, output file); in run order
CASES = (
    ("sample", ["sample"], "s.fphist"),
    ("sample-inflate", ["sample", "--inflate", "1"], "si.fphist"),
    ("solve-plain", ["solve", "--hist", "{d}/s.fphist", "--method", "plain"], "p.fpgrid"),
    ("solve-overlap", ["solve", "--hist", "{d}/si.fphist", "--method", "overlap"],
     "o.fpgrid"),
    ("solve-shift", ["solve", "--hist", "{d}/s.fphist", "--method", "shift"], "h.fpgrid"),
    ("errors-file", ["errors", "--solution", "{d}/p.fpgrid", "--reference",
                     "{d}/h.fpgrid"], "ef.csv"),
    ("errors-exact", ["errors", "--solution", "{d}/p.fpgrid", "--reference",
                      "exact"], "ee.csv"),
    ("convergence", ["convergence", *CONVERGENCE], "c.csv"),
)


def _record(meta: dict, run_dir: Path) -> dict:
    return {
        key: value.replace(str(run_dir), "<tmp>") if isinstance(value, str) else value
        for key, value in meta.items()
        if key != "wall_time"
    }


def run_cases(run_dir: Path) -> dict:
    """Each case's sidecar record, the commands run in run_dir in CASES order."""
    cfg = run_dir / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in CONFIG.items()))
    records = {}
    for case, argv, out in CASES:
        argv = [arg.format(d=run_dir) for arg in argv]
        code = main([*argv, "--config", str(cfg), "--out", str(run_dir / out)])
        assert code == 0, case
        meta = json.loads((run_dir / f"{out}.meta.json").read_text())
        records[case] = _record(meta, run_dir)
    return records


def _same(actual, expected) -> bool:
    if isinstance(expected, float) and isinstance(actual, float):
        return actual == pytest.approx(expected, rel=1e-9, abs=1e-12)
    if isinstance(expected, list) and isinstance(actual, list):
        return len(actual) == len(expected) and all(map(_same, actual, expected))
    return type(actual) is type(expected) and actual == expected


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sidecars")


@pytest.fixture(scope="module")
def records(run_dir):
    return run_cases(run_dir)


@pytest.mark.parametrize("case", [case for case, _, _ in CASES])
def test_sidecar_matches_its_frozen_record(records, case):
    expected = json.loads(FROZEN.read_text())[case]
    if case == "convergence":
        # the one change since the freeze: the study records its start
        # point and escape policy, which it now honours
        expected = {**expected, "initial": [0.0, 0.0], "on_escape": "error"}
    actual = records[case]
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert _same(actual[key], expected[key]), (key, actual[key], expected[key])


def _l2(path: Path) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row["l2"]) for row in csv.DictReader(fh)]


def test_convergence_honours_and_records_the_start_point(records, run_dir, capsys):
    cfg = run_dir / "run.cfg"
    out = run_dir / "c-initial.csv"
    code = main(["convergence", *CONVERGENCE, "--config", str(cfg),
                 "--set", "sampler.initial=1.5,0", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    meta = json.loads((run_dir / "c-initial.csv.meta.json").read_text())
    assert meta["initial"] == [1.5, 0.0]
    assert meta["on_escape"] == "error"
    assert {k: v for k, v in meta.items() if k not in ("initial", "wall_time")} == {
        k: v for k, v in records["convergence"].items() if k != "initial"
    }
    default, moved = _l2(run_dir / "c.csv"), _l2(out)
    assert len(default) == len(moved) == 4
    assert all(a != b for a, b in zip(default, moved))


if __name__ == "__main__":
    import contextlib
    import tempfile

    # the commands' summary lines go to stderr, so stdout is the JSON alone
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        out = run_cases(Path(tmp))
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
