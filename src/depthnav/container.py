"""The one binary container behind every file the pipeline writes: worlds
(`world.bin`), datasets (`*.dset`) and model checkpoints (`*.ckpt`).

Layout (all integers little-endian):

    magic       4 bytes  b"DNAV"
    version     u32      (currently 1)
    head_len    u32      followed by head_len bytes of UTF-8 JSON,
                         {"arrays": [[name, dtype, shape], ...], "meta": {...}}
    payload     the arrays, little-endian, C order, in table order
    crc32       u32 over every preceding byte

The meta block is the caller's: it names the file's kind and holds whatever
else the reader needs to rebuild the object.  Round-trips are bit-exact and
equal inputs give equal bytes.  Every reader takes the caller's typed error
class and raises it for any malformed, corrupt or foreign file.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

MAGIC = b"DNAV"
VERSION = 1
DTYPES = ("<f4", "<f8", "|u1", "<u2")  # the dtypes a file may hold
_PREFIX = struct.Struct("<4sII")       # magic, version, head_len
_CHUNK = 1 << 20                       # bytes per read of the CRC pass


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write named arrays plus a JSON meta block."""
    arrays = {name: np.ascontiguousarray(a, np.asarray(a).dtype.newbyteorder("<"))
              for name, a in arrays.items()}
    table = [[name, a.dtype.str, list(a.shape)] for name, a in arrays.items()]
    if any(dtype not in DTYPES for _, dtype, _ in table):
        raise ValueError(f"container dtypes must be among {DTYPES}, got {table}")
    head = json.dumps({"arrays": table, "meta": meta}, sort_keys=True).encode("utf-8")
    blob = b"".join([_PREFIX.pack(MAGIC, VERSION, len(head)), head,
                     *(a.tobytes() for a in arrays.values())])
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(struct.pack("<I", zlib.crc32(blob)))


def _head(blob: bytes, path, error) -> tuple[dict, list, int]:
    """The parsed JSON head and the offset just past it."""
    if blob[:4] != MAGIC:
        raise error(f"{path}: not a depthnav file (bad magic)")
    if len(blob) < _PREFIX.size:
        raise error(f"{path}: truncated head")
    _, version, head_len = _PREFIX.unpack_from(blob)
    if version != VERSION:
        raise error(f"{path}: unsupported format version {version}")
    end = _PREFIX.size + head_len
    if len(blob) < end:
        raise error(f"{path}: truncated head")
    try:
        head = json.loads(blob[_PREFIX.size:end].decode("utf-8"))
        meta, table = head["meta"], head["arrays"]
        table = [(str(name), dtype, tuple(int(d) for d in shape)) for name, dtype, shape in table]
    except (ValueError, TypeError, KeyError) as exc:
        raise error(f"{path}: unreadable head ({exc})") from exc
    for name, dtype, shape in table:
        if dtype not in DTYPES or min(shape, default=0) < 0:
            raise error(f"{path}: bad array entry {name!r}: {dtype} {shape}")
    if not isinstance(meta, dict):
        raise error(f"{path}: meta block is not an object")
    return meta, table, end


def _read_head(fh, path, error) -> tuple[dict, list, int]:
    """_head of a file open at its start; leaves it open just past the head.
    A head length past the end of the file reads no more than the file."""
    prefix = fh.read(_PREFIX.size)
    head_len = _PREFIX.unpack(prefix)[2] if len(prefix) == _PREFIX.size else 0
    head_len = min(head_len, os.fstat(fh.fileno()).st_size)
    return _head(prefix + fh.read(head_len), path, error)


def read_meta(path, error) -> dict:
    """The meta block alone, read from the head without the payload (so
    the CRC is not checked)."""
    with open(path, "rb") as fh:
        return _read_head(fh, path, error)[0]


def _crc_ok(fh, size: int) -> bool:
    """Whether the file's last 4 bytes are the CRC32 of the bytes before
    them, streamed through one fixed-size buffer."""
    buf = memoryview(bytearray(_CHUNK))
    crc, left = 0, size - 4
    while left:
        n = fh.readinto(buf[:min(left, _CHUNK)])
        if not n:
            return False
        crc, left = zlib.crc32(buf[:n], crc), left - n
    return fh.read(4) == struct.pack("<I", crc)


def load_arrays(path, error) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, name -> array) of a file whose CRC checks out.  The CRC pass
    streams the file; each array is then read straight into its own buffer,
    so the peak memory is about the payload size."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != MAGIC:
            raise error(f"{path}: not a depthnav file (bad magic)")
        fh.seek(0)
        if size < _PREFIX.size + 4 or not _crc_ok(fh, size):
            raise error(f"{path}: CRC mismatch, file is truncated or corrupt")
        fh.seek(0)
        meta, table, off = _read_head(fh, path, error)
        sizes = [math.prod(shape) * np.dtype(dtype).itemsize for _, dtype, shape in table]
        if off + sum(sizes) != size - 4:
            raise error(f"{path}: payload size mismatch")
        arrays = {}
        for (name, dtype, shape), nbytes in zip(table, sizes):
            arrays[name] = np.empty(shape, dtype)
            if fh.readinto(arrays[name].reshape(-1).view(np.uint8)) != nbytes:
                raise error(f"{path}: CRC mismatch, file is truncated or corrupt")
    return meta, arrays
