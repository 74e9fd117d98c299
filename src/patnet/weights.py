"""Binary weight container.

Layout (all integers little-endian):

    magic "PATW" | u32 version=1 | u32 tensor count
    per tensor: u16 name length | name UTF-8 | u8 dtype (0 = float32)
                | u8 ndim | ndim x u32 dims | raw float32 payload
    u32 CRC-32 (IEEE) of every preceding byte

Round trips are bitwise lossless. Loading validates magic, version, checksum
and, unless an explicit spec is supplied, matches the name set against the
known variants to recover which model (and whether it was fused) the file
holds.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .config import ModelSpec, VARIANT_TABLE, build_variant, iter_param_schema
from .model import ParamStore

MAGIC = b"PATW"
VERSION = 1
DTYPE_F32 = 0


class WeightFileError(Exception):
    """Base class for weight-file problems."""


class BadMagicError(WeightFileError):
    pass


class VersionError(WeightFileError):
    pass


class CrcError(WeightFileError):
    pass


class NameSetError(WeightFileError):
    pass


def serialize_store(store: ParamStore) -> bytes:
    parts = [MAGIC, struct.pack("<II", VERSION, len(store.tensors))]
    for name, tensor in store.tensors.items():
        raw = name.encode("utf-8")
        if tensor.dtype != np.float32:
            raise WeightFileError(f"tensor {name} is not float32")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<BB", DTYPE_F32, tensor.ndim))
        parts.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        parts.append(np.ascontiguousarray(tensor).astype("<f4").tobytes())
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def expected_file_size(store: ParamStore) -> int:
    """Independent byte-layout arithmetic, summed field by field."""
    size = 4 + 4 + 4  # magic, version, count
    for name, tensor in store.tensors.items():
        size += 2 + len(name.encode("utf-8")) + 1 + 1 + 4 * tensor.ndim
        size += 4 * tensor.size
    return size + 4  # trailing checksum


def save_weights(store: ParamStore, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_store(store))


def deserialize_store(blob: bytes) -> dict[str, np.ndarray]:
    if blob[:4] != MAGIC:
        raise BadMagicError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    if len(blob) < 16:
        raise CrcError(f"file too short ({len(blob)} bytes), corrupt or truncated")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    # a memoryview slice, so the checksum and the payloads copy no bytes
    view = memoryview(blob)
    if zlib.crc32(view[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CrcError("checksum mismatch (file corrupt or truncated)")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise VersionError(f"unknown version {version}, expected {VERSION}")

    tensors: dict[str, np.ndarray] = {}
    off = 12
    end = len(blob) - 4
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            try:
                name = blob[off : off + nlen].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WeightFileError(f"tensor name at byte {off} is not UTF-8") from exc
            off += nlen
            if name in tensors:
                raise WeightFileError(f"tensor name {name!r} appears twice")
            dtype, ndim = struct.unpack_from("<BB", blob, off)
            off += 2
            if dtype != DTYPE_F32:
                raise WeightFileError(f"tensor {name}: unsupported dtype {dtype}")
            dims = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
            n = math.prod(dims)  # exact: a fixed-width product could wrap
            if 4 * n > end - off:
                raise CrcError(f"tensor {name}: payload truncated")
            payload = view[off : off + 4 * n]
            off += 4 * n
            try:
                tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
            except ValueError as exc:  # over 64 dims, or an empty but too-large shape
                raise WeightFileError(f"tensor {name}: unusable shape {dims}") from exc
    except struct.error as exc:
        raise CrcError(f"file truncated while parsing: {exc}") from exc
    if off != end:
        raise WeightFileError(f"{end - off} trailing bytes after last tensor")
    return tensors


def _schema_names(spec: ModelSpec, fused: bool) -> set[str]:
    return {d.name for d in iter_param_schema(spec, fused)}


def match_store(tensors: dict[str, np.ndarray],
                spec: ModelSpec | None = None):
    """Return (variant_name, fused) for the name set, or raise NameSetError."""
    names = set(tensors)
    candidates = ([(spec.label or spec.config.name, spec)] if spec is not None
                  else [(v, build_variant(v)) for v in VARIANT_TABLE])
    for label, cand in candidates:
        for fused in (False, True):
            if names == _schema_names(cand, fused):
                return label, fused
    missing = _summarize(names, candidates)
    raise NameSetError(f"tensor names match no known model layout; {missing}")


def _summarize(names: set[str], candidates) -> str:
    best, best_diff = None, None
    for label, cand in candidates:
        for fused in (False, True):
            schema = _schema_names(cand, fused)
            diff = len(names ^ schema)
            if best_diff is None or diff < best_diff:
                best, best_diff = (label, fused, schema), diff
    label, fused, schema = best
    miss = sorted(schema - names)[:3]
    extra = sorted(names - schema)[:3]
    return (f"closest is {label} (fused={fused}) with "
            f"{best_diff} differing names, e.g. missing {miss}, unexpected {extra}")


def load_weights(path, spec: ModelSpec | None = None):
    """Load and validate; returns (ParamStore, variant_name)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    tensors = deserialize_store(blob)
    variant, fused = match_store(tensors, spec)
    return ParamStore(tensors=tensors, fused=fused), variant
