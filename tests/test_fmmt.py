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
