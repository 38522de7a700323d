"""On-disk formats: fpgrid v1, fphist v1, CSV exports, JSON sidecars.

Both binary formats consist of one ASCII header line followed by the raw
little-endian payload in row-major cell order:

    fpgrid v1 dim=<d> n=<n1,...> lo=<x1,...> hi=<x1,...>\n
    ... num_cells float64 values ...

    fphist v1 dim=<d> n=<n1,...> lo=<x1,...> hi=<x1,...> total=<m>\n
    ... num_cells uint64 counts ...

Writes go through a temp file and an atomic rename so a crashed run never
leaves a truncated file that parses.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FormatError
from .grids import DensityField, Grid
from .sampler import Histogram


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _fmt_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _fmt_ints(values) -> str:
    return ",".join(str(int(v)) for v in values)


def _header_fields(line: str, magic: str) -> dict[str, str]:
    parts = line.strip().split()
    if len(parts) < 2 or parts[0] != magic or parts[1] != "v1":
        raise FormatError(f"not a {magic} v1 header: {line.strip()!r}")
    fields: dict[str, str] = {}
    for token in parts[2:]:
        key, eq, value = token.partition("=")
        if not eq:
            raise FormatError(f"malformed header token {token!r}")
        fields[key] = value
    return fields


def _parse_grid(fields: dict[str, str]) -> Grid:
    try:
        dim = int(fields["dim"])
        n = tuple(int(v) for v in fields["n"].split(","))
        lo = tuple(float(v) for v in fields["lo"].split(","))
        hi = tuple(float(v) for v in fields["hi"].split(","))
    except (KeyError, ValueError) as exc:
        raise FormatError(f"incomplete or malformed grid header: {exc}") from exc
    if not (len(n) == len(lo) == len(hi) == dim):
        raise FormatError(f"header dim={dim} disagrees with its vectors")
    return Grid(lo, hi, n)


def _grid_tokens(grid: Grid) -> str:
    return (
        f"dim={grid.dim} n={_fmt_ints(grid.n)} "
        f"lo={_fmt_floats(grid.lo)} hi={_fmt_floats(grid.hi)}"
    )


def _read_binary(path, magic: str, dtype: str) -> tuple[dict, Grid, np.ndarray]:
    """Header fields, grid and payload of one fpgrid or fphist file."""
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: missing header line")
    fields = _header_fields(raw[:nl].decode("ascii", "replace"), magic)
    try:
        grid = _parse_grid(fields)
    except ConfigurationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    body = raw[nl + 1 :]
    expected = grid.num_cells * 8
    if len(body) != expected:
        raise FormatError(
            f"{path}: payload is {len(body)} bytes, grid needs {expected}"
        )
    return fields, grid, np.frombuffer(body, dtype=dtype)


def write_field(fld: DensityField, path) -> None:
    header = f"fpgrid v1 {_grid_tokens(fld.grid)}\n"
    payload = header.encode("ascii") + fld.values.astype("<f8").tobytes()
    _atomic_write_bytes(Path(path), payload)


def read_field(path) -> DensityField:
    _, grid, values = _read_binary(path, "fpgrid", "<f8")
    return DensityField(grid, values.astype(float))


def write_histogram(hist: Histogram, path) -> None:
    header = (
        f"fphist v1 {_grid_tokens(hist.grid)} total={hist.total_retained}\n"
    )
    payload = header.encode("ascii") + hist.counts.astype("<u8").tobytes()
    _atomic_write_bytes(Path(path), payload)


def read_histogram(path) -> Histogram:
    fields, grid, counts = _read_binary(path, "fphist", "<u8")
    try:
        total = int(fields["total"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: missing or malformed total") from exc
    try:
        return Histogram(grid=grid, counts=counts, total_retained=total)
    except ConfigurationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_rows_csv(rows: list[dict], fieldnames: list[str], path) -> None:
    text = io.StringIO(newline="")
    writer = csv.DictWriter(text, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    _atomic_write_bytes(Path(path), text.getvalue().encode())


def write_sidecar(out_path, metadata: dict) -> Path:
    """JSON metadata next to an output file, <name>.meta.json."""
    side = Path(str(out_path) + ".meta.json")
    _atomic_write_bytes(side, json.dumps(metadata, indent=2, sort_keys=True).encode())
    return side
