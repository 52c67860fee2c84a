"""Portable binary snapshots of grid fields.

Layout: 4-byte magic "YMF1", little-endian u32 header byte length, UTF-8
JSON header, then the payload: one float64 little-endian array per
(component, algebra-coefficient) plane, components in lexicographic
multi-index order, spatial values x-fastest, ghosts excluded.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .algebra import su2, u1
from .grid import BoundarySpec, GridSpec, KForm, apply_boundary

__all__ = ["snapshot_write", "snapshot_read", "write_raw", "read_raw",
           "SnapshotError"]

MAGIC = b"YMF1"


class SnapshotError(ValueError):
    """Malformed snapshot file."""


def write_raw(header: dict, planes, path) -> None:
    """Write header JSON plus float64 planes in the fixed binary layout.

    `planes` is a sequence of 3-D arrays (already in (x, y, z) index
    order); each is serialized little-endian with x varying fastest.
    """
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for p in planes:
            arr = np.asarray(p, dtype="<f8")
            if not np.all(np.isfinite(arr)):
                raise SnapshotError("refusing to write non-finite payload")
            f.write(arr.tobytes(order="F"))


def read_raw(path):
    """Read (header, payload bytes) and validate magic/length."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 8 or data[:4] != MAGIC:
        raise SnapshotError("bad magic (not a field snapshot)")
    (hlen,) = struct.unpack("<I", data[4:8])
    if len(data) < 8 + hlen:
        raise SnapshotError(
            f"truncated header: need {8 + hlen - len(data)} more bytes"
        )
    try:
        header = json.loads(data[8 : 8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SnapshotError(f"unreadable header: {e}") from e
    return header, data[8 + hlen :]


def snapshot_write(field: KForm, t: float, path) -> None:
    """Persist a field and its flow time."""
    header = {
        "format": "YMF1",
        "endianness": "little",
        "shape": list(field.grid.shape),
        "extents": list(field.grid.extents),
        "spacing": list(field.grid.spacing),
        "group": field.algebra.group_id,
        "degree": field.degree,
        "coeff_planes": field.algebra.dim,
        "time": float(t),
        "boundary": field.bc.kind if field.bc is not None else None,
    }
    # one (x, y, z) plane per (component, coefficient), components outer
    planes = np.moveaxis(field.interior, -1, 1).reshape(
        (-1,) + field.grid.shape)
    write_raw(header, planes, path)


def snapshot_read(path):
    """Load (KForm, time) back from a snapshot file."""
    header, payload = read_raw(path)
    try:
        shape = tuple(header["shape"])
        group = header["group"]
        degree = int(header["degree"])
        extents = tuple(header["extents"])
        t = float(header["time"])
    except (KeyError, TypeError) as e:
        raise SnapshotError(f"header missing field: {e}") from e
    if header.get("endianness") != "little":
        raise SnapshotError("unsupported endianness tag")
    alg = {"U1": u1, "SU2": su2}.get(group, lambda: None)()
    if alg is None:
        raise SnapshotError(f"unknown group {group!r}")
    grid = GridSpec(extents, shape)
    field = KForm(degree, grid, alg)
    expected = field.interior.size * 8
    if len(payload) != expected:
        raise SnapshotError(
            f"payload length {len(payload)} != expected {expected} "
            f"(missing {expected - len(payload)} bytes)"
        )
    # each plane is x-fastest, so it reads as a C-order (z, y, x) array
    planes = np.frombuffer(payload, dtype="<f8").reshape(
        (-1, alg.dim) + shape[::-1])
    field.interior[...] = planes.transpose(0, 4, 3, 2, 1)
    bc = header.get("boundary")
    if bc is not None:
        field = apply_boundary(field, BoundarySpec(bc))
    return field, t
