"""Versioned binary cache and CSV export for coefficient tables.

Cache layout: magic b"ZML2", little-endian u64 value count n, little-endian
u64 header length, JSON header (label, params, dtype, width, sha256 of the
payload), then the payload: n records of `width` bytes each, little-endian
two's-complement integers, or IEEE doubles for a float64 table.

The width is the fewest bytes that hold every value of the table (`_width`),
rounded up to 1, 2, 4 or 8 for an int64 table so that it decodes as one
numpy array; a float64 table takes 8.  So d_3 to 10^7 (max 22 680) is
stored in 2 bytes a value, and tau to 15 000 in 10.

Every read checks the payload against the header's sha256 and its size
against width * n, one size check for every dtype, so a value count that
disagrees with the payload is caught without decoding it.  A short,
unparsable or incomplete header (one without a positive integer width
that its dtype allows) is a CacheError like a checksum mismatch, and so is
a file of an older layout, whose magic differs: `build-tables` rebuilds it.
Values are decoded only for a caller that needs them: `load_table`
verifies and decodes (an int64 table back to int64, a bigint one into
Python ints), `verify_table` verifies and decodes nothing, hashing the
payload 1 MB at a time so that a cache hit makes no payload-sized buffer.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"ZML2"
# the record widths an int64 or float64 table may take; a bigint one takes any
_WIDTHS = {"int64": (1, 2, 4, 8), "float64": (8,)}


class CacheError(Exception):
    pass


def _width(lo: int, hi: int) -> int:
    """The fewest bytes that hold every integer in [lo, hi] in two's complement."""
    return max(hi, ~lo).bit_length() // 8 + 1


def _payload(values, dtype: str) -> tuple:
    """(width, payload): the table as n records of `width` bytes, in a buffer
    to hash and write.  A float64 table that already is a little-endian
    array is its own payload, so no copy is made."""
    if dtype == "float64":
        return 8, np.ascontiguousarray(values, dtype="<f8")
    if dtype == "int64":
        need = _width(int(values.min(initial=0)), int(values.max(initial=0)))
        width = next(w for w in _WIDTHS["int64"] if w >= need)
        return width, np.ascontiguousarray(values, dtype=f"<i{width}")
    ints = list(map(int, values))
    width = _width(min(ints, default=0), max(ints, default=0))
    return width, b"".join([v.to_bytes(width, "little", signed=True) for v in ints])


def _decode_payload(buf: bytes, n: int, dtype: str, width: int):
    if dtype == "bigint":
        return [int.from_bytes(buf[i: i + width], "little", signed=True)
                for i in range(0, n * width, width)]
    if dtype == "int64":
        return np.frombuffer(buf, dtype=f"<i{width}").astype(np.int64)
    return np.frombuffer(buf, dtype="<f8").copy()


def table_dtype(values) -> str:
    if isinstance(values, np.ndarray):
        return "int64" if values.dtype.kind == "i" else "float64"
    return "bigint"


def save_table(path, label: str, params: dict, values) -> str:
    """Write a table; returns the payload checksum (hex)."""
    dtype = table_dtype(values)
    width, payload = _payload(values, dtype)
    checksum = hashlib.sha256(payload).hexdigest()
    header = json.dumps(
        {"label": label, "params": params, "dtype": dtype, "width": width,
         "sha256": checksum},
        sort_keys=True,
    ).encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(values)))
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        f.write(payload)
    return checksum


def _read_header(f, path) -> tuple:
    head = f.read(20)
    if head[:4] != MAGIC:
        raise CacheError(f"{path}: bad magic (not a {MAGIC.decode()} cache)")
    if len(head) < 20:
        raise CacheError(f"{path}: truncated header")
    n, hlen = struct.unpack("<QQ", head[4:])
    if hlen > os.fstat(f.fileno()).st_size - 20:
        raise CacheError(f"{path}: truncated header")
    try:
        header = json.loads(f.read(hlen))
    except ValueError as exc:
        raise CacheError(f"{path}: unreadable header ({exc})") from None
    if not isinstance(header, dict):
        header = {}
    dtype, width = header.get("dtype"), header.get("width")
    if not ({"label", "params", "sha256"} <= header.keys()
            and dtype in ("int64", "float64", "bigint") and type(width) is int and width > 0
            and (dtype == "bigint" or width in _WIDTHS[dtype])):
        raise CacheError(f"{path}: unreadable header (fields)")
    return n, header


def table_header(path) -> dict:
    """The JSON header of a cache file (label, params, dtype, width, sha256), unverified."""
    with open(path, "rb") as f:
        return _read_header(f, path)[1]


def _check_payload(path, n: int, header: dict, digest, size: int) -> None:
    if digest.hexdigest() != header["sha256"]:
        raise CacheError(f"{path}: checksum mismatch (corrupted cache)")
    if size != header["width"] * n:
        raise CacheError(f"{path}: {size} payload bytes for {n} values")


def _verified(path) -> tuple:
    """(value count, header) of a cache file whose payload matches its
    checksum, hashed a block at a time so no payload-sized buffer is made."""
    path = Path(path)
    digest, size = hashlib.sha256(), 0
    block = bytearray(1 << 20)
    view = memoryview(block)
    with open(path, "rb") as f:
        n, header = _read_header(f, path)
        while got := f.readinto(block):
            digest.update(view[:got])
            size += got
    _check_payload(path, n, header, digest, size)
    return n, header


def verify_table(path) -> dict:
    """Check a cache file against its checksum -> its header; decodes no values."""
    return _verified(path)[1]


def load_table(path):
    """Read a cache file -> (label, params, values). Verifies the checksum."""
    path = Path(path)
    with open(path, "rb") as f:
        n, header = _read_header(f, path)
        payload = f.read()
    _check_payload(path, n, header, hashlib.sha256(payload), len(payload))
    return header["label"], header["params"], _decode_payload(payload, n, header["dtype"],
                                                              header["width"])


def cache_key(label: str, params: dict, N: int) -> str:
    parts = [label] + [f"{k}{v}" for k, v in sorted(params.items())] + [f"N{N}"]
    return "_".join(str(p) for p in parts) + ".zml"


def export_csv(path, values) -> None:
    """Write (n, value) rows; integers exactly, floats via repr."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("n,value\n")
        for i, v in enumerate(values, start=1):
            if isinstance(v, (int, np.integer)):
                f.write(f"{i},{int(v)}\n")
            else:
                f.write(f"{i},{float(v)!r}\n")
