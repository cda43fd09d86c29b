"""Versioned binary cache and CSV export for coefficient tables.

Cache layout: magic b"ZML1", little-endian u64 value count, little-endian
u64 header length, JSON header (label, params, dtype, sha256 of the payload),
then the raw payload.  int64/float64 tables are stored as native arrays;
arbitrary-precision integer tables ("bigint") store each value as
u32 byte-length, sign byte, magnitude bytes (little-endian).
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"ZML1"


class CacheError(Exception):
    pass


def _payload_bytes(values, dtype: str) -> bytes:
    if dtype == "bigint":
        chunks = []
        for v in values:
            v = int(v)
            mag = abs(v)
            raw = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "little")
            chunks.append(struct.pack("<IB", len(raw), 1 if v < 0 else 0))
            chunks.append(raw)
        return b"".join(chunks)
    return np.asarray(values).astype("<i8" if dtype == "int64" else "<f8").tobytes()


def _decode_payload(buf: bytes, n: int, dtype: str):
    if dtype == "bigint":
        out = []
        off = 0
        for _ in range(n):
            ln, sign = struct.unpack_from("<IB", buf, off)
            off += 5
            mag = int.from_bytes(buf[off: off + ln], "little")
            off += ln
            out.append(-mag if sign else mag)
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
    payload = _payload_bytes(values, dtype)
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
    if f.read(4) != MAGIC:
        raise CacheError(f"{path}: bad magic (not a ZML1 cache)")
    n = struct.unpack("<Q", f.read(8))[0]
    hlen = struct.unpack("<Q", f.read(8))[0]
    return n, json.loads(f.read(hlen))


def table_header(path) -> dict:
    """The JSON header of a cache file (label, params, dtype, sha256), unverified."""
    with open(path, "rb") as f:
        return _read_header(f, path)[1]


def load_table(path):
    """Read a cache file -> (label, params, values). Verifies the checksum."""
    path = Path(path)
    with open(path, "rb") as f:
        n, header = _read_header(f, path)
        payload = f.read()
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise CacheError(f"{path}: checksum mismatch (corrupted cache)")
    values = _decode_payload(payload, n, header["dtype"])
    return header["label"], header["params"], values


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
