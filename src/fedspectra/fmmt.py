"""Binary tensor file format "FMMT".

Layout: magic bytes ``FMMT``, little-endian u32 version (=1), u8 dtype code
(1 = float32, 2 = float64), u32 ndim, ndim u32 dims, then the row-major
payload. Readers reject unknown magic/version/dtype.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import IngestionError

MAGIC = b"FMMT"
VERSION = 1
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}


def write_tensor(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    code = _CODE_FOR.get(arr.dtype, 2)  # any other dtype is written as float64
    # copied only to convert or make contiguous; ascontiguousarray would make 0-d 1-d
    arr = np.asarray(arr, _DTYPE_CODES[code], order="C")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IB I", VERSION, code, arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        f.write(arr.data)


def read_tensor(path) -> np.ndarray:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read FMMT file: {exc.strerror}") from exc
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise IngestionError(f"{path}: not an FMMT file (bad magic)")
    try:
        version, code, ndim = struct.unpack_from("<IB I", raw, 4)
    except struct.error as exc:
        raise IngestionError(f"{path}: truncated FMMT header") from exc
    if version != VERSION:
        raise IngestionError(f"{path}: unsupported FMMT version {version}")
    if code not in _DTYPE_CODES:
        raise IngestionError(f"{path}: unknown FMMT dtype code {code}")
    offset = 4 + struct.calcsize("<IB I")
    try:
        dims = struct.unpack_from(f"<{ndim}I", raw, offset)
    except struct.error as exc:
        raise IngestionError(f"{path}: truncated FMMT dims") from exc
    offset += 4 * ndim
    dtype = _DTYPE_CODES[code]
    count = math.prod(dims)  # exact; np.prod wraps around in fixed width
    if len(raw) - offset != count * dtype.itemsize:
        raise IngestionError(f"{path}: payload size does not match dims {dims}")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    return data.reshape(dims).astype(np.float64)
