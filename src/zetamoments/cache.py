"""Versioned binary cache and CSV export for coefficient tables.

Cache layout: magic b"ZML1", little-endian u64 value count, little-endian
u64 header length, JSON header (label, params, dtype, sha256 of the payload),
then the raw payload.  int64/float64 tables are stored as little-endian
arrays, hashed and written straight from the array's buffer;
arbitrary-precision integer tables ("bigint") store each value as
u32 byte-length, sign byte, magnitude bytes (little-endian), encoded for
all values at once from one fixed-width record array (`_payload`).

Every read checks the payload against the header's sha256, and a short,
unparsable or incomplete header is a CacheError like a checksum mismatch.  Values are
decoded only for a caller that needs them: `load_table` verifies and
decodes, `verify_table` verifies and decodes nothing, hashing the payload
1 MB at a time so that a cache hit makes no payload-sized buffer.

The value count is outside the checksum.  An int64/float64 payload must
hold 8 bytes per value on both paths; a bigint payload must decode into
exactly the counted values with no byte left, which only `load_table`
checks: `verify_table` would have to walk the whole payload to do so, a
cost on every warm cache hit.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from itertools import repeat
from pathlib import Path

import numpy as np

MAGIC = b"ZML1"


class CacheError(Exception):
    pass


def _payload(values, dtype: str):
    """The payload as a buffer: a little-endian array, which for int64 and
    float64 is the table itself when it already is one, so no copy is made.

    A bigint table is encoded without a loop over its values in Python:
    every magnitude becomes W bytes (W those of the widest, at least 1) in
    one (n, 5 + W) uint8 record array that also holds the u32 lengths and
    the sign bytes; one boolean mask keeps the first 5 + length bytes of
    each record, in order.  The records cost n (5 + W) bytes, so one value
    far wider than the rest makes the encoder's buffer that much larger
    than the payload."""
    if dtype == "bigint":
        ints = list(map(int, values))
        n = len(ints)
        W = max((max(map(int.bit_length, ints), default=0) + 7) // 8, 1)
        mags = np.frombuffer(b"".join(map(int.to_bytes, map(abs, ints), repeat(W),
                                          repeat("little"))), dtype=np.uint8).reshape(n, W)
        # byte length: up to the last nonzero byte, and one byte for a zero
        nonzero = mags != 0
        nonzero[:, 0] = True
        length = W - np.argmax(nonzero[:, ::-1], axis=1)
        rec = np.empty((n, 5 + W), dtype=np.uint8)
        rec[:, :4] = length.astype("<u4").view(np.uint8).reshape(n, 4)
        rec[:, 4] = np.array(ints, dtype=object) < 0
        rec[:, 5:] = mags
        return rec[np.arange(5 + W) < 5 + length[:, None]]
    return np.ascontiguousarray(values, dtype="<i8" if dtype == "int64" else "<f8")


def _decode_payload(buf: bytes, n: int, dtype: str):
    if dtype == "bigint":
        out = []
        off = 0
        try:
            for _ in range(n):
                ln, sign = struct.unpack_from("<IB", buf, off)
                off += 5
                mag = int.from_bytes(buf[off: off + ln], "little")
                off += ln
                out.append(-mag if sign else mag)
        except struct.error:
            off = -1
        if off != len(buf):
            raise CacheError(f"{n} values do not fill the {len(buf)} payload bytes")
        return out
    arr = np.frombuffer(buf, dtype="<i8" if dtype == "int64" else "<f8", count=n)
    return arr.copy()


def table_dtype(values) -> str:
    if isinstance(values, np.ndarray):
        return "int64" if values.dtype.kind == "i" else "float64"
    return "bigint"


def save_table(path, label: str, params: dict, values) -> str:
    """Write a table; returns the payload checksum (hex)."""
    dtype = table_dtype(values)
    payload = _payload(values, dtype)
    checksum = hashlib.sha256(payload).hexdigest()
    header = json.dumps(
        {"label": label, "params": params, "dtype": dtype, "sha256": checksum},
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
        raise CacheError(f"{path}: bad magic (not a ZML1 cache)")
    if len(head) < 20:
        raise CacheError(f"{path}: truncated header")
    n, hlen = struct.unpack("<QQ", head[4:])
    if hlen > os.fstat(f.fileno()).st_size - 20:
        raise CacheError(f"{path}: truncated header")
    try:
        header = json.loads(f.read(hlen))
    except ValueError as exc:
        raise CacheError(f"{path}: unreadable header ({exc})") from None
    if not (isinstance(header, dict) and {"label", "params", "sha256"} <= header.keys()
            and header.get("dtype") in ("int64", "float64", "bigint")):
        raise CacheError(f"{path}: unreadable header (fields)")
    return n, header


def table_header(path) -> dict:
    """The JSON header of a cache file (label, params, dtype, sha256), unverified."""
    with open(path, "rb") as f:
        return _read_header(f, path)[1]


def _check_payload(path, n: int, header: dict, digest, size: int) -> None:
    if digest.hexdigest() != header["sha256"]:
        raise CacheError(f"{path}: checksum mismatch (corrupted cache)")
    if header["dtype"] != "bigint" and size != 8 * n:
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
    return header["label"], header["params"], _decode_payload(payload, n, header["dtype"])


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
