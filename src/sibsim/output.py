"""Artifact writers and readers: diagnostic CSV series, sweep tables, the
run manifest, and binary state checkpoints.

Numbers are written with 17 significant digits, enough for exact float64
round trips, so re-running an identical configuration reproduces every
file byte for byte.  Checkpoints are a short text header followed by raw
little-endian coefficient blocks (complex128 for u, float64 for v and vt)
flattened with the first (k) index fastest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

from .dynamics import State, TrajectoryRecord, make_state
from .grids import field_from_coef, make_grid

__all__ = [
    "write_series",
    "write_table",
    "write_manifest",
    "file_checksums",
    "checkpoint_name",
    "save_checkpoint",
    "load_checkpoint",
]

_MAGIC = "sibsim-state 1"


def _fmt(value) -> str:
    x = float(value)
    if math.isnan(x):
        return ""
    return format(x, ".17g")


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def write_series(path: str, record: TrajectoryRecord) -> None:
    """One CSV row per monitored sample; empty cell for unavailable values."""
    write_table(
        path,
        list(record.series),
        zip(*(record.series[col] for col in record.series)),
    )


def write_table(path: str, columns, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])
    _atomic_write(path, buf.getvalue().encode())


def _json_safe(value):
    """value with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def write_manifest(path: str, payload: dict) -> None:
    """Strict JSON (RFC 8259): a non-finite float is written as null."""
    data = json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(path, data.encode() + b"\n")


def file_checksums(directory: str, names) -> dict:
    """sha256 and size for each named artifact in the directory."""
    table = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            blob = fh.read()
        table[name] = {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
    return table


# ---------------------------------------------------------------------------
# checkpoints


def checkpoint_name(t: float) -> str:
    return f"state_t{t:.4f}.bin"


def save_checkpoint(path: str, state: State) -> None:
    g = state.grid
    header = "\n".join(
        [
            _MAGIC,
            f"grid {g.Lx:.17g} {g.Ly:.17g} {g.Nx} {g.Ny}",
            f"t {state.t:.17g}",
            "blocks u:complex128 v:float64 vt:float64",
            "layout little-endian k-fastest",
            "end",
        ]
    ) + "\n"
    body = b"".join(
        [
            state.u.coef.flatten(order="F").astype("<c16").tobytes(),
            state.v.coef.flatten(order="F").astype("<f8").tobytes(),
            state.vt.coef.flatten(order="F").astype("<f8").tobytes(),
        ]
    )
    _atomic_write(path, header.encode() + body)


def load_checkpoint(path: str) -> State:
    with open(path, "rb") as fh:
        blob = fh.read()
    head_end = blob.find(b"end\n")
    if not blob.startswith(_MAGIC.encode()) or head_end < 0:
        raise ValueError(f"{path} is not a state checkpoint")
    fields = {}
    for line in blob[:head_end].splitlines()[1:]:
        key, _, rest = line.partition(b" ")
        try:
            fields[key.decode()] = rest.decode()
        except UnicodeDecodeError:
            raise ValueError(
                f"{path}: checkpoint header line {line!r} is not UTF-8"
            ) from None

    def header_value(key, parse):
        if key not in fields:
            raise ValueError(f"{path}: checkpoint header has no {key!r} line")
        try:
            return parse(fields[key])
        except ValueError as err:
            raise ValueError(
                f"{path}: checkpoint header line {key!r} is malformed "
                f"({fields[key]!r}): {err}"
            ) from None

    def parse_grid(rest):
        lx, ly, nx, ny = rest.split()
        return make_grid(float(lx), float(ly), int(nx), int(ny))

    grid = header_value("grid", parse_grid)
    t = header_value("t", float)
    body = blob[head_end + 4 :]
    count = grid.Nx * grid.Ny
    u_bytes = 16 * count
    expected = u_bytes + 2 * 8 * count
    if len(body) != expected:
        raise ValueError(
            f"{path}: expected {expected} payload bytes, found {len(body)}"
        )

    def block(offset, size, dtype):
        return np.frombuffer(body, dtype=dtype, count=count, offset=offset).reshape(
            grid.shape, order="F"
        )

    u = block(0, u_bytes, "<c16").astype(np.complex128)
    v = block(u_bytes, 8 * count, "<f8").astype(np.float64)
    vt = block(u_bytes + 8 * count, 8 * count, "<f8").astype(np.float64)
    return make_state(
        field_from_coef(grid, u),
        field_from_coef(grid, v),
        field_from_coef(grid, vt),
        t,
    )
