import struct

import numpy as np
import pytest

from fedspectra import fmmt
from fedspectra.errors import IngestionError


def test_roundtrip_float64(tmp_path, rng):
    arr = rng.normal(size=(2, 3, 4))
    fmmt.write_tensor(tmp_path / "t.fmmt", arr)
    back = fmmt.read_tensor(tmp_path / "t.fmmt")
    assert np.array_equal(back, arr)


def test_roundtrip_float32(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    fmmt.write_tensor(tmp_path / "t.fmmt", arr)
    back = fmmt.read_tensor(tmp_path / "t.fmmt")
    assert back.dtype == np.float64
    assert np.array_equal(back, arr.astype(np.float64))


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.fmmt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(IngestionError, match="magic"):
        fmmt.read_tensor(p)


def test_bad_version_rejected(tmp_path):
    p = tmp_path / "bad.fmmt"
    p.write_bytes(fmmt.MAGIC + struct.pack("<IB I", 9, 2, 1) + struct.pack("<I", 1) + b"\x00" * 8)
    with pytest.raises(IngestionError, match="version"):
        fmmt.read_tensor(p)


def test_bad_dtype_rejected(tmp_path):
    p = tmp_path / "bad.fmmt"
    p.write_bytes(fmmt.MAGIC + struct.pack("<IB I", 1, 7, 1) + struct.pack("<I", 1) + b"\x00" * 8)
    with pytest.raises(IngestionError, match="dtype"):
        fmmt.read_tensor(p)


def test_truncated_payload_rejected(tmp_path, rng):
    p = tmp_path / "t.fmmt"
    fmmt.write_tensor(p, rng.normal(size=(4, 4)))
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(IngestionError, match="payload"):
        fmmt.read_tensor(p)


def test_missing_file_rejected_with_path(tmp_path):
    p = tmp_path / "absent.fmmt"
    with pytest.raises(IngestionError, match="absent.fmmt: cannot read"):
        fmmt.read_tensor(p)


def test_directory_rejected(tmp_path):
    with pytest.raises(IngestionError, match="cannot read"):
        fmmt.read_tensor(tmp_path)


def test_dims_whose_product_wraps_rejected(tmp_path):
    # 65536**4 == 2**64 wraps to 0 in int64, which would match an empty payload
    p = tmp_path / "huge.fmmt"
    p.write_bytes(fmmt.MAGIC + struct.pack("<IB I", 1, 2, 4) + struct.pack("<4I", *[65536] * 4))
    with pytest.raises(IngestionError, match="payload"):
        fmmt.read_tensor(p)


def test_zero_dim_tensor_read(tmp_path):
    p = tmp_path / "s.fmmt"
    p.write_bytes(fmmt.MAGIC + struct.pack("<IB I", 1, 2, 0) + struct.pack("<d", 2.5))
    back = fmmt.read_tensor(p)
    assert back.shape == () and back == 2.5


def test_zero_dim_tensor_roundtrip(tmp_path):
    p = tmp_path / "s.fmmt"
    fmmt.write_tensor(p, np.float64(2.5))
    back = fmmt.read_tensor(p)
    assert back.shape == () and back == 2.5
    assert p.read_bytes() == fmmt.MAGIC + struct.pack("<IB I", 1, 2, 0) + struct.pack("<d", 2.5)


def _struct_bytes(arr) -> bytes:
    """The FMMT file of `arr` built field by field with struct: float32 stays
    float32, every other dtype (big-endian float32 included) becomes
    float64, and the payload is little-endian, row-major."""
    arr = np.asarray(arr)
    code, fmt = (1, "f") if arr.dtype == np.dtype(np.float32) else (2, "d")
    values = np.asarray(arr, dtype=np.float64).ravel(order="C").tolist()
    return (fmmt.MAGIC + struct.pack("<IB I", 1, code, arr.ndim)
            + struct.pack(f"<{arr.ndim}I", *arr.shape) + struct.pack(f"<{len(values)}{fmt}", *values))


@pytest.mark.parametrize(
    "make",
    [
        lambda r: np.float64(-2.5),
        lambda r: np.array(3.25, dtype=np.float32),
        lambda r: r.normal(size=(3, 4)),
        lambda r: r.normal(size=(2, 3)).astype(np.float32),
        lambda r: r.normal(size=(4, 5)).astype(">f8"),
        lambda r: r.normal(size=(4, 5)).astype(">f4"),
        lambda r: r.normal(size=(6, 8))[::2, 1::3],  # non-contiguous
        lambda r: r.normal(size=(3, 5)).T,  # Fortran order
        lambda r: r.normal(size=(2, 4)).astype(np.float32)[:, ::-1],
        lambda r: np.arange(6).reshape(2, 3),  # integers become float64
        lambda r: np.zeros((0, 3)),
    ],
    ids=["0d", "0d_f32", "f64", "f32", "big_f64", "big_f32", "strided", "fortran",
         "reversed_f32", "int", "empty"],
)
def test_write_bytes_match_struct_layout(tmp_path, rng, make):
    arr = make(rng)
    before = np.array(arr, copy=True)
    p = tmp_path / "t.fmmt"
    fmmt.write_tensor(p, arr)
    assert p.read_bytes() == _struct_bytes(arr)
    assert np.array_equal(np.asarray(arr), before)  # the input is only read
