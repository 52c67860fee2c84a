import json
import struct

import numpy as np
import pytest

from ymheat.fields import random_smooth
from ymheat.grid import GridSpec, KForm, NEUMANN, apply_boundary
from ymheat.snapshot import (
    MAGIC,
    SnapshotError,
    read_raw,
    snapshot_read,
    snapshot_write,
    write_raw,
)


def test_roundtrip_bitwise(tmp_path, unit_grid, su2_alg):
    A = apply_boundary(
        random_smooth(unit_grid, su2_alg, seed=51, amplitude=0.3), NEUMANN
    )
    p = tmp_path / "field.ymf"
    snapshot_write(A, 0.125, p)
    back, t = snapshot_read(p)
    assert t == 0.125
    assert np.array_equal(back.interior, A.interior)
    # ghost planes adjacent to the interior are refilled identically
    # (corner ghosts are never defined by the fill and are not compared)
    assert np.array_equal(back.values[:, 0, 1:-1, 1:-1],
                          A.values[:, 0, 1:-1, 1:-1])
    assert np.array_equal(back.values[:, 1:-1, -1, 1:-1],
                          A.values[:, 1:-1, -1, 1:-1])
    assert np.array_equal(back.values[:, 1:-1, 1:-1, 0],
                          A.values[:, 1:-1, 1:-1, 0])
    assert back.degree == 1 and back.algebra.group_id == "SU2"
    assert back.bc == NEUMANN


def test_payload_planes_in_component_coefficient_order(tmp_path, su2_alg):
    """Plane ci * dim + d of the payload holds component ci, coefficient d,
    x varying fastest; a round trip alone cannot see a consistent
    permutation of the planes."""
    g = GridSpec((1.0, 1.0, 1.0), (8, 9, 10))
    A = KForm(1, g, su2_alg)
    x, y, z = (np.arange(n, dtype=float) for n in g.shape)
    ramp = (x[:, None, None] + 10.0 * y[None, :, None]
            + 100.0 * z[None, None, :])
    for ci in range(3):
        for d in range(3):
            A.interior[ci, ..., d] = 1000.0 * (3 * ci + d) + ramp
    p = tmp_path / "field.ymf"
    snapshot_write(A, 0.0, p)
    planes = np.frombuffer(read_raw(p)[1], dtype="<f8").reshape(9, -1)
    x_fastest = (x[None, None, :] + 10.0 * y[None, :, None]
                 + 100.0 * z[:, None, None]).ravel()
    for k in range(9):
        assert np.array_equal(planes[k], 1000.0 * k + x_fastest)


def test_write_read_write_identical_bytes(tmp_path, unit_grid, u1_alg):
    from ymheat.fields import coulomb_cosine

    A = apply_boundary(coulomb_cosine(unit_grid), NEUMANN)
    p1, p2 = tmp_path / "a.ymf", tmp_path / "b.ymf"
    snapshot_write(A, 0.5, p1)
    back, t = snapshot_read(p1)
    snapshot_write(back, t, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_2x2x2_u1_zero_payload_is_192_zero_bytes(tmp_path):
    # hand-computed layout: 3 components x 8 nodes x 8 bytes = 192
    header = {
        "format": "YMF1", "endianness": "little", "shape": [2, 2, 2],
        "group": "U1", "degree": 1, "coeff_planes": 1, "time": 0.0,
    }
    planes = [np.zeros((2, 2, 2)) for _ in range(3)]
    p = tmp_path / "tiny.ymf"
    write_raw(header, planes, p)
    data = p.read_bytes()
    assert data[:4] == MAGIC
    (hlen,) = struct.unpack("<I", data[4:8])
    payload = data[8 + hlen:]
    assert len(payload) == 192
    assert payload == b"\x00" * 192


def test_payload_is_x_fastest(tmp_path):
    header = {"shape": [2, 2, 2]}
    plane = np.arange(8.0).reshape(2, 2, 2)  # (x, y, z) index order
    p = tmp_path / "order.ymf"
    write_raw(header, [plane], p)
    _, payload = read_raw(p)
    vals = np.frombuffer(payload, dtype="<f8")
    # x varies fastest: value at (x=1, y=0, z=0) = 4.0 comes second
    assert vals[0] == plane[0, 0, 0]
    assert vals[1] == plane[1, 0, 0]
    assert vals[2] == plane[0, 1, 0]
    assert vals[4] == plane[0, 0, 1]


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.ymf"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(SnapshotError, match="magic"):
        read_raw(p)


def test_truncated_payload_names_missing_bytes(tmp_path, unit_grid, su2_alg):
    A = apply_boundary(
        random_smooth(unit_grid, su2_alg, seed=52, amplitude=0.3), NEUMANN
    )
    p = tmp_path / "trunc.ymf"
    snapshot_write(A, 0.0, p)
    data = p.read_bytes()
    p.write_bytes(data[:-100])
    with pytest.raises(SnapshotError, match="missing 100 bytes"):
        snapshot_read(p)


def test_truncated_header(tmp_path):
    p = tmp_path / "th.ymf"
    p.write_bytes(MAGIC + struct.pack("<I", 1000) + b"{}")
    with pytest.raises(SnapshotError, match="truncated header"):
        read_raw(p)


def test_nan_payload_rejected_on_write(tmp_path, unit_grid, su2_alg):
    A = random_smooth(unit_grid, su2_alg, seed=53, amplitude=0.3)
    A.values[0, 5, 5, 5, 0] = np.nan
    with pytest.raises(SnapshotError, match="non-finite"):
        snapshot_write(A, 0.0, tmp_path / "nan.ymf")


def test_unknown_group_rejected(tmp_path):
    header = {
        "format": "YMF1", "endianness": "little", "shape": [8, 8, 8],
        "extents": [1.0, 1.0, 1.0], "spacing": [1 / 7] * 3, "group": "E8",
        "degree": 1, "coeff_planes": 248, "time": 0.0, "boundary": None,
    }
    p = tmp_path / "e8.ymf"
    write_raw(header, [], p)
    with pytest.raises(SnapshotError, match="group"):
        snapshot_read(p)


def test_header_is_valid_json(tmp_path, unit_grid, u1_alg):
    from ymheat.fields import coulomb_cosine

    A = apply_boundary(coulomb_cosine(unit_grid), NEUMANN)
    p = tmp_path / "hdr.ymf"
    snapshot_write(A, 1.5, p)
    header, _ = read_raw(p)
    assert header["endianness"] == "little"
    assert header["shape"] == [16, 16, 16]
    assert header["degree"] == 1
    assert header["group"] == "U1"
    assert header["time"] == 1.5
    assert header["boundary"] == "neumann"
    # header bytes really are UTF-8 JSON
    data = p.read_bytes()
    (hlen,) = struct.unpack("<I", data[4:8])
    json.loads(data[8 : 8 + hlen].decode("utf-8"))
