import csv
import json
import os

import numpy as np
import pytest

from fpblock import (
    DensityField,
    FormatError,
    Grid,
    Histogram,
    read_field,
    read_histogram,
    write_field,
    write_histogram,
    write_rows_csv,
    write_sidecar,
)


def test_field_round_trip_is_bit_identical(tmp_path):
    g = Grid((-2.0, -2.0), (2.0, 2.0), (12, 12))
    vals = np.random.default_rng(0).normal(size=144)
    vals[3] = 1e-308  # keep subnormal-adjacent values intact too
    fld = DensityField(g, vals)
    path = tmp_path / "field.fpgrid"
    write_field(fld, path)
    back = read_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, vals)


def test_field_round_trip_awkward_bounds(tmp_path):
    # bounds whose decimal expansion does not terminate
    g = Grid((-1.0 / 3.0,), (2.0 / 3.0,), (7,))
    fld = DensityField(g, np.linspace(0.0, 1.0, 7))
    path = tmp_path / "f.fpgrid"
    write_field(fld, path)
    back = read_field(path)
    assert back.grid.lo[0] == g.lo[0]
    assert back.grid.hi[0] == g.hi[0]


def test_field_round_trip_three_dimensional(tmp_path):
    g = Grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 4))
    fld = DensityField(g, np.arange(64.0))
    path = tmp_path / "cube.fpgrid"
    write_field(fld, path)
    back = read_field(path)
    assert back.grid.n == (4, 4, 4)
    assert np.array_equal(back.values, fld.values)


def test_histogram_round_trip(tmp_path):
    g = Grid((-2.0, -2.0), (2.0, 2.0), (8, 8))
    counts = np.random.default_rng(1).integers(0, 2**40, size=64, dtype=np.uint64)
    hist = Histogram(grid=g, counts=counts, total_retained=int(counts.sum()) + 17)
    path = tmp_path / "h.fphist"
    write_histogram(hist, path)
    back = read_histogram(path)
    assert back.grid == g
    assert np.array_equal(back.counts, counts)
    assert back.total_retained == hist.total_retained


def test_header_is_single_ascii_line(tmp_path):
    g = Grid((0.0,), (1.0,), (5,))
    path = tmp_path / "f.fpgrid"
    write_field(DensityField(g, np.zeros(5)), path)
    first = path.read_bytes().split(b"\n", 1)[0].decode("ascii")
    assert first.startswith("fpgrid v1 ")
    assert "dim=1" in first
    assert "n=5" in first


def test_read_rejects_wrong_magic(tmp_path):
    g = Grid((0.0,), (1.0,), (5,))
    path = tmp_path / "f.fpgrid"
    write_field(DensityField(g, np.zeros(5)), path)
    with pytest.raises(FormatError):
        read_histogram(path)


def test_read_rejects_truncated_payload(tmp_path):
    g = Grid((0.0,), (1.0,), (5,))
    path = tmp_path / "f.fpgrid"
    write_field(DensityField(g, np.zeros(5)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError):
        read_field(path)


def test_read_rejects_garbled_header(tmp_path):
    path = tmp_path / "junk.fpgrid"
    path.write_bytes(b"fpgrid v1 dim=2 n=oops lo=0,0 hi=1,1\n" + b"\x00" * 32)
    with pytest.raises(FormatError):
        read_field(path)
    path.write_bytes(b"fpgrid v2 dim=1 n=4 lo=0 hi=1\n" + b"\x00" * 32)
    with pytest.raises(FormatError):
        read_field(path)
    path.write_bytes(b"no newline at all")
    with pytest.raises(FormatError):
        read_field(path)


def test_histogram_header_requires_total(tmp_path):
    g = Grid((0.0,), (1.0,), (4,))
    path = tmp_path / "h.fphist"
    write_histogram(
        Histogram(grid=g, counts=np.zeros(4, dtype=np.uint64), total_retained=0),
        path,
    )
    raw = path.read_bytes().replace(b" total=0", b"")
    path.write_bytes(raw)
    with pytest.raises(FormatError):
        read_histogram(path)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    g = Grid((0.0,), (1.0,), (5,))
    write_field(DensityField(g, np.zeros(5)), tmp_path / "f.fpgrid")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.fpgrid"]


def test_rows_csv_export(tmp_path):
    rows = [{"n": 64, "l2": 0.5}, {"n": 128, "l2": 0.25}]
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, ["n", "l2"], path)
    with open(path, newline="") as f:
        got = list(csv.DictReader(f))
    assert got[0]["n"] == "64"
    assert got[1]["l2"] == "0.25"


def test_sidecar_json(tmp_path):
    out = tmp_path / "run.fpgrid"
    out.write_bytes(b"placeholder")
    meta_path = write_sidecar(out, {"seed": 3, "samples": 10})
    assert os.fspath(meta_path) == os.fspath(out) + ".meta.json"
    with open(meta_path) as f:
        assert json.load(f) == {"seed": 3, "samples": 10}


@pytest.mark.parametrize(
    "header, counts, problem",
    [
        (b"fphist v1 dim=1 n=4 lo=0.0 hi=1.0 total=3", [1] * 4, "more binned counts"),
        (b"fphist v1 dim=2 n=2,2 lo=0.0,0.0 hi=1.0,2.0 total=9", [1] * 4, "anisotropic"),
        (b"fphist v1 dim=1 n=4 lo=nan hi=1.0 total=9", [1] * 4, "finite"),
        # 2^63 + 2^63 + 5 wraps to 5 in a uint64 sum
        (b"fphist v1 dim=1 n=4 lo=0.0 hi=1.0 total=5", [2**63, 2**63, 5, 0],
         "more binned counts"),
        (b"fphist v1 dim=1 n=4 lo=0.0 hi=1.0 total=18446744073709551616", [1] * 4,
         "64-bit counts"),
    ],
    ids=["counts-over-total", "anisotropic-widths", "lo-nan", "counts-overflow",
         "total-overflow"],
)
def test_histogram_contents_the_grid_or_counts_reject_are_format_errors(
    tmp_path, header, counts, problem
):
    path = tmp_path / "bad.fphist"
    path.write_bytes(header + b"\n" + np.array(counts, dtype="<u8").tobytes())
    with pytest.raises(FormatError, match=problem) as err:
        read_histogram(path)
    assert str(path) in str(err.value)


def test_field_header_the_grid_rejects_is_a_format_error(tmp_path):
    path = tmp_path / "bad.fpgrid"
    path.write_bytes(b"fpgrid v1 dim=1 n=4 lo=0.0 hi=inf\n" + np.zeros(4).tobytes())
    with pytest.raises(FormatError, match="finite"):
        read_field(path)
