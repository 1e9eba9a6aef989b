"""Binary tensor records and named-checkpoint container.

Single tensor record layout (all integers little-endian):

    magic  b"LWT1"
    u8     dtype code: 0 = float32, 1 = float64
    u8     rank
    u32    dim[rank]
    raw    row-major payload, little-endian finite floats

Checkpoint container: a versioned header followed by ordered named records,
each a length-prefixed UTF-8 name plus an embedded tensor record. Order is
preserved so loading can be strict about what it expects.

    magic  b"LWTC"
    u16    version (currently 1)
    u32    length of UTF-8 JSON metadata block
    bytes  metadata (possibly empty)
    u32    record count
    then per record: u16 name length, name bytes, tensor record
"""
from __future__ import annotations

import io
import json
import struct
from collections import OrderedDict

import numpy as np

from .errors import FormatError, located

TENSOR_MAGIC = b"LWT1"
CHECKPOINT_MAGIC = b"LWTC"
CHECKPOINT_VERSION = 1

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_KIND_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_MAX_RANK = 8
_READ_CHUNK = 1 << 20  # bytes per read from a stream that cannot be sized


def _bytes_left(f):
    """Bytes between the position and the end of a seekable stream, else None."""
    if not f.seekable():
        return None
    pos = f.tell()
    end = f.seek(0, io.SEEK_END)
    f.seek(pos)
    return end - pos


def _read_exact(f, n, what):
    # a read allocates the size it asks for, so a large declared size is
    # checked against a seekable stream first, and read from any other in
    # bounded chunks: a forged header allocates nothing it cannot fill.
    # A read may return less than asked before the end (a raw pipe), so
    # a short read is followed by more until the end.
    left = _bytes_left(f) if n > io.DEFAULT_BUFFER_SIZE else None
    if left is not None and n > left:
        raise FormatError(f"truncated stream while reading {what}: {n} bytes declared, {left} remain")
    step = n if left is not None else min(n, _READ_CHUNK)
    buf = f.read(step)
    if len(buf) < n:
        buf = bytearray(buf)
        while len(buf) < n and (chunk := f.read(min(n - len(buf), step))):
            buf += chunk
    if len(buf) != n:
        raise FormatError(f"truncated stream while reading {what} ({len(buf)}/{n} bytes)")
    return buf


def _check_finite(arr):
    if not np.isfinite(arr).all():
        raise FormatError("payload holds non-finite values (NaN or Inf)")


def _storable(array):
    """(dtype code, array) of a record the reader accepts; every writer
    checks its records before it writes a byte."""
    arr = np.asarray(array)
    code = _KIND_TO_CODE.get(arr.dtype.newbyteorder("="))
    if code is None:
        raise FormatError(f"dtype {arr.dtype} is not storable; use float32 or float64")
    if arr.ndim > _MAX_RANK:
        raise FormatError(f"rank {arr.ndim} exceeds the format limit of {_MAX_RANK}")
    _check_finite(arr)
    return code, arr


def _write_record(f, code, arr):
    f.write(TENSOR_MAGIC + struct.pack(f"<BB{arr.ndim}I", code, arr.ndim, *arr.shape))
    f.write(np.ascontiguousarray(arr, dtype=_CODE_TO_DTYPE[code]).tobytes())


def write_tensor(f, array):
    """Write one array as an LWT1 record to a binary stream."""
    _write_record(f, *_storable(array))


def read_tensor(f):
    """Read one LWT1 record from a binary stream."""
    magic = _read_exact(f, 4, "magic")
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad tensor magic {magic!r}, expected {TENSOR_MAGIC!r}")
    code, rank = struct.unpack("<BB", _read_exact(f, 2, "header"))
    dtype = _CODE_TO_DTYPE.get(code)
    if dtype is None:
        raise FormatError(f"unknown dtype code {code}")
    if rank > _MAX_RANK:
        raise FormatError(f"rank {rank} exceeds the format limit of {_MAX_RANK}")
    shape = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, "dims")) if rank else ()
    count = 1
    for dim in shape:
        count *= dim
    payload = _read_exact(f, count * dtype.itemsize, "payload")
    arr = np.frombuffer(payload, dtype=dtype).reshape(shape)
    _check_finite(arr)
    return arr.astype(dtype.newbyteorder("="), copy=True)


def save_tensor(path, array):
    record = _storable(array)
    with open(path, "wb") as f:
        _write_record(f, *record)


def load_tensor(path):
    """Read a file of one LWT1 record; a format error names the file."""
    with located(path), open(path, "rb") as f:
        arr = read_tensor(f)
        if f.read(1):
            raise FormatError("trailing bytes after tensor record")
    return arr


def _checked_meta(meta):
    if not isinstance(meta, dict):
        raise FormatError(f"checkpoint metadata must be a JSON object, got {type(meta).__name__}")
    return meta


def save_checkpoint(path, named_arrays, meta=None):
    """Write an ordered name -> array mapping plus optional JSON metadata.
    The metadata and every record are checked, and a refused record named,
    before the file opens."""
    meta = _checked_meta({} if meta is None else meta)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    records = []
    for name, arr in named_arrays.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"record name too long: {name[:40]}...")
        with located(f"record '{name}'"):
            records.append((encoded, _storable(arr)))
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(meta_bytes)))
        f.write(meta_bytes + struct.pack("<I", len(records)))
        for encoded, record in records:
            f.write(struct.pack("<H", len(encoded)) + encoded)
            _write_record(f, *record)


def load_checkpoint(path):
    """(OrderedDict name -> array, meta dict) of a checkpoint; errors name the file and record."""
    with located(path), open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        (version,) = struct.unpack("<H", _read_exact(f, 2, "version"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<I", _read_exact(f, 4, "meta length"))
        try:
            meta = json.loads(_read_exact(f, meta_len, "metadata").decode("utf-8")) if meta_len else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"corrupt checkpoint metadata: {exc}") from exc
        _checked_meta(meta)
        (count,) = struct.unpack("<I", _read_exact(f, 4, "record count"))
        records = OrderedDict()
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "name length"))
            try:
                name = _read_exact(f, name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"record name is not UTF-8: {exc}") from exc
            if name in records:
                raise FormatError(f"duplicate record name '{name}'")
            with located(f"record '{name}'"):
                records[name] = read_tensor(f)
        if f.read(1):
            raise FormatError("trailing bytes after final record")
    return records, meta
