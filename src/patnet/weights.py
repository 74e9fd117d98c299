"""Binary weight container.

Layout (all integers little-endian):

    magic "PATW" | u32 version=1 | u32 tensor count
    per tensor: u16 name length | name UTF-8 | u8 dtype (0 = float32)
                | u8 ndim | ndim x u32 dims | raw float32 payload
    u32 CRC-32 (IEEE) of every preceding byte

Round trips are bitwise lossless. Both directions stream the file once
under a running CRC-32 that covers every byte: saving writes each payload
from its tensor's own buffer, loading reads each payload straight into its
tensor. Loading validates magic, version, checksum and layout, and, unless
an explicit spec is supplied, matches the tensor names and shapes against
the known variants to recover which model (and whether it was fused) the
file holds.
"""

from __future__ import annotations

import ctypes
import io
import math
import os
import struct
import zlib
from functools import lru_cache

import numpy as np

from .config import ModelSpec, VARIANT_TABLE, build_variant
from .model import ParamStore, iter_param_schema

MAGIC = b"PATW"
VERSION = 1
DTYPE_F32 = 0


class WeightFileError(ValueError):
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
    """The bytes of the PATW file ``save_weights`` would write."""
    _check_float32(store)
    buf = io.BytesIO()
    _write_store(buf, store)
    return buf.getvalue()


def expected_file_size(store: ParamStore) -> int:
    """Independent byte-layout arithmetic, summed field by field."""
    size = 4 + 4 + 4  # magic, version, count
    for name, tensor in store.tensors.items():
        size += 2 + len(name.encode("utf-8")) + 1 + 1 + 4 * tensor.ndim
        size += 4 * tensor.size
    return size + 4  # trailing checksum


def save_weights(store: ParamStore, path) -> None:
    """Write ``store`` to ``path`` as a PATW file, streamed: every payload
    goes to the file from the tensor's own buffer, so no copy of the file is
    built in memory. A tensor that is not float32 raises ``WeightFileError``
    before the file is created."""
    _check_float32(store)
    with open(path, "wb") as fh:
        _write_store(fh, store)


def _check_float32(store: ParamStore) -> None:
    for name, tensor in store.tensors.items():
        if tensor.dtype != np.float32:
            raise WeightFileError(f"tensor {name} is not float32")


def _write_store(fh, store: ParamStore) -> None:
    """Write the float32 tensors of ``store`` as a PATW file through ``fh``,
    in one pass under a running CRC-32; the mirror of ``_read_store``. Each
    payload is written from the tensor's own buffer when it is contiguous
    and little-endian, else from one little-endian copy of that tensor."""
    crc = 0

    def put(data, crc32=zlib.crc32):
        nonlocal crc
        fh.write(data)
        crc = crc32(data, crc)

    put(MAGIC + struct.pack("<II", VERSION, len(store.tensors)))
    for name, tensor in store.tensors.items():
        raw = name.encode("utf-8")
        put(struct.pack("<H", len(raw)) + raw
            + struct.pack(f"<BB{tensor.ndim}I", DTYPE_F32, tensor.ndim, *tensor.shape))
        # a flat byte view: 0-d and empty tensors included, which memoryview.cast refuses
        payload = np.ascontiguousarray(tensor, "<f4").reshape(-1).view(np.uint8)
        put(payload, zlib.crc32 if payload.size < _Body.SMALL else _crc32())
    fh.write(struct.pack("<I", crc))


@lru_cache(maxsize=1)
def _crc32():
    """The CRC-32 for payloads and whole files: libdeflate's when its shared
    library is found (several times zlib's speed on megabyte buffers), else
    ``zlib.crc32``. Both take ``(data, value=0)`` and give the same value,
    running CRCs included. Picked on first use, because ``find_library``
    runs ``ldconfig``."""
    import ctypes.util  # imports subprocess: a few ms that only loads need

    path = ctypes.util.find_library("deflate")
    if path is None:
        return zlib.crc32
    try:
        fn = ctypes.CDLL(path).libdeflate_crc32
    except (OSError, AttributeError):
        return zlib.crc32
    fn.argtypes = [ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t]
    fn.restype = ctypes.c_uint32

    def libdeflate_crc32(data, value=0):
        buf = np.frombuffer(data, np.uint8)  # any contiguous buffer, kept alive by buf
        return fn(value, buf.ctypes.data, buf.size)

    return libdeflate_crc32


class _Body:
    """The bytes of a PATW file before its stored CRC, read front to back,
    with the CRC-32 of every byte read so far."""

    CHUNK = 1 << 20  # read size when checksumming bytes no tensor takes
    SMALL = 8 << 10  # below this many bytes, zlib.crc32 beats a ctypes call

    def __init__(self, fh, end: int, head: bytes):
        self.fh, self.end = fh, end
        self.pos, self.crc = len(head), zlib.crc32(head)

    def take(self, n: int) -> bytes:
        """The next ``n`` header bytes, checksummed by zlib (see SMALL)."""
        if n > self.end - self.pos:
            raise CrcError("file truncated while parsing")
        raw = self.fh.read(n)
        self.pos += len(raw)
        self.crc = zlib.crc32(raw, self.crc)
        if len(raw) != n:
            raise CrcError("file truncated while parsing")
        return raw

    def fill(self, tensor: np.ndarray) -> None:
        """Read the next ``tensor.nbytes`` bytes straight into ``tensor``."""
        got = self.fh.readinto(tensor)
        self.pos += got
        if got != tensor.nbytes:  # the stream ended early: no checksum can match
            raise CrcError("file truncated while reading a payload")
        crc32 = zlib.crc32 if got < self.SMALL else _crc32()
        self.crc = crc32(tensor, self.crc)

    def checksum_ok(self) -> bool:
        """Checksum the rest of the body; True when the stored CRC matches."""
        while self.pos < self.end:
            chunk = self.fh.read(min(self.CHUNK, self.end - self.pos))
            if not chunk:
                return False
            self.pos += len(chunk)
            self.crc = _crc32()(chunk, self.crc)
        return self.fh.read(4) == struct.pack("<I", self.crc)


def _read_store(fh, size: int) -> dict[str, np.ndarray]:
    """Parse the PATW file of ``size`` bytes that ``fh`` reads, in one pass.

    Every payload is read straight into its tensor and checksummed as it
    arrives. The errors are those of checking the CRC before parsing: when a
    parse fails, the rest of the file is still checksummed, and a mismatch
    raises ``CrcError`` from the parse error. The body of an unknown version
    is never parsed.
    """
    magic = fh.read(4)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if size < 16:
        raise CrcError(f"file too short ({size} bytes), corrupt or truncated")
    body = _Body(fh, size - 4, magic)
    try:
        version, count = struct.unpack("<II", body.take(8))
        if version != VERSION:
            raise VersionError(f"unknown version {version}, expected {VERSION}")
        tensors = _read_tensors(body, count)
        if body.pos != body.end:
            raise WeightFileError(f"{body.end - body.pos} trailing bytes after last tensor")
    except WeightFileError as exc:
        if not body.checksum_ok():
            raise CrcError("checksum mismatch (file corrupt or truncated)") from exc
        raise
    if not body.checksum_ok():
        raise CrcError("checksum mismatch (file corrupt or truncated)")
    return tensors


def _read_tensors(body: _Body, count: int) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", body.take(2))
        at = body.pos
        try:
            name = body.take(nlen).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WeightFileError(f"tensor name at byte {at} is not UTF-8") from exc
        if name in tensors:
            raise WeightFileError(f"tensor name {name!r} appears twice")
        dtype, ndim = struct.unpack("<BB", body.take(2))
        if dtype != DTYPE_F32:
            raise WeightFileError(f"tensor {name}: unsupported dtype {dtype}")
        dims = struct.unpack(f"<{ndim}I", body.take(4 * ndim))
        n = math.prod(dims)  # exact: a fixed-width product could wrap
        # checked before allocating, so no tensor outgrows the file
        if 4 * n > body.end - body.pos:
            raise CrcError(f"tensor {name}: payload truncated")
        try:
            tensor = np.empty(dims, "<f4")
        except ValueError as exc:  # over 64 dims, or an empty but too-large shape
            raise WeightFileError(f"tensor {name}: unusable shape {dims}") from exc
        body.fill(tensor)
        tensors[name] = tensor
    return tensors


def deserialize_store(blob: bytes) -> dict[str, np.ndarray]:
    """Parse a PATW file held in memory, with the checks of ``load_weights``."""
    return _read_store(io.BytesIO(blob), len(blob))


@lru_cache(maxsize=64)
def _schema_layout(spec: ModelSpec, fused: bool) -> frozenset[tuple[str, tuple]]:
    return frozenset((d.name, d.shape) for d in iter_param_schema(spec, fused))


@lru_cache(maxsize=1)
def _variant_specs() -> tuple[tuple[str, ModelSpec], ...]:
    return tuple((v, build_variant(v)) for v in VARIANT_TABLE)


def match_store(tensors: dict[str, np.ndarray],
                spec: ModelSpec | None = None):
    """Return (variant_name, fused) for the tensor names and shapes, or raise
    NameSetError. Shapes matter: T0 and T1 share every name."""
    layout = {(name, t.shape) for name, t in tensors.items()}
    candidates = ([(spec.label, spec)] if spec is not None
                  else _variant_specs())
    for label, cand in candidates:
        for fused in (False, True):
            if layout == _schema_layout(cand, fused):
                return label, fused
    missing = _summarize(layout, candidates)
    raise NameSetError(f"tensor names and shapes match no known model layout; {missing}")


def _summarize(layout: set[tuple[str, tuple]], candidates) -> str:
    best, best_diff = None, None
    for label, cand in candidates:
        for fused in (False, True):
            schema = _schema_layout(cand, fused)
            diff = len(layout ^ schema)
            if best_diff is None or diff < best_diff:
                best, best_diff = (label, fused, schema), diff
    label, fused, schema = best
    miss = sorted(f"{n}{list(s)}" for n, s in schema - layout)[:3]
    extra = sorted(f"{n}{list(s)}" for n, s in layout - schema)[:3]
    return (f"closest is {label} (fused={fused}) with {best_diff} differing "
            f"tensors, e.g. missing {miss}, unexpected {extra}")


def load_weights(path, spec: ModelSpec | None = None):
    """Load and validate; returns (ParamStore, variant_name)."""
    with open(path, "rb") as fh:
        tensors = _read_store(fh, os.fstat(fh.fileno()).st_size)
    variant, fused = match_store(tensors, spec)
    return ParamStore(tensors=tensors, fused=fused), variant
