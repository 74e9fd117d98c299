import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patnet.fusion import fuse_model
from patnet.model import ParamStore, init_params
from patnet.weights import (
    BadMagicError,
    CrcError,
    NameSetError,
    VersionError,
    WeightFileError,
    deserialize_store,
    expected_file_size,
    load_weights,
    save_weights,
    serialize_store,
)

from test_model import tiny_spec


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def one_tensor_blob(name: bytes, dims, payload: bytes = b"") -> bytes:
    """A one-tensor file with a valid checksum and arbitrary header fields."""
    return with_crc(b"PATW" + struct.pack("<II", 1, 1) + struct.pack("<H", len(name))
                    + name + struct.pack("<BB", 0, len(dims))
                    + struct.pack(f"<{len(dims)}I", *dims) + payload)


@pytest.fixture(scope="module")
def t0_store():
    from patnet.config import build_variant
    return build_variant("T0"), init_params(build_variant("T0"), seed=4)


class TestRoundTrip:
    def test_bitwise_round_trip(self, t0_store, tmp_path):
        spec, store = t0_store
        path = tmp_path / "t0.patw"
        save_weights(store, path)
        loaded, variant = load_weights(path)
        assert variant == "T0"
        assert not loaded.fused
        assert loaded.names() == store.names()
        assert all(np.array_equal(loaded[k], store[k]) for k in store.names())

    def test_identical_seed_identical_bytes(self, t0_store):
        spec, store = t0_store
        again = init_params(spec, seed=4)
        assert serialize_store(store) == serialize_store(again)

    def test_fused_store_round_trips(self, tmp_path):
        spec = tiny_spec()
        store = init_params(spec, seed=1)
        fused, _ = fuse_model(store, spec)
        path = tmp_path / "tiny.patw"
        save_weights(fused, path)
        loaded, variant = load_weights(path, spec=spec)
        assert loaded.fused
        assert all(np.array_equal(loaded[k], fused[k]) for k in fused.names())


class TestByteLayout:
    def test_single_small_tensor_layout(self):
        store = ParamStore(tensors={"a": np.arange(6, dtype=np.float32).reshape(2, 3)})
        blob = serialize_store(store)
        # field-by-field arithmetic: magic 4 + version 4 + count 4
        # + name_len 2 + name 1 + dtype 1 + ndim 1 + dims 2*4 + payload 6*4
        # + crc 4
        by_hand = 4 + 4 + 4 + (2 + 1) + 1 + 1 + 8 + 24 + 4
        assert by_hand == 53
        assert len(blob) == by_hand
        assert expected_file_size(store) == by_hand

    def test_header_fields(self):
        store = ParamStore(tensors={"a": np.zeros((2, 3), np.float32)})
        blob = serialize_store(store)
        assert blob[:4] == b"PATW"
        version, count = struct.unpack_from("<II", blob, 4)
        assert version == 1 and count == 1
        (crc,) = struct.unpack("<I", blob[-4:])
        assert crc == zlib.crc32(blob[:-4]) & 0xFFFFFFFF

    def test_expected_size_matches_blob_for_model(self, t0_store):
        _, store = t0_store
        assert expected_file_size(store) == len(serialize_store(store))


class TestLoadErrors:
    def make_blob(self):
        store = ParamStore(tensors={"a": np.ones((2, 2), np.float32)})
        return serialize_store(store)

    def test_truncated_file_is_crc_error(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "t.patw"
        save_weights(init_params(spec, seed=0), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CrcError):
            load_weights(path)

    def test_flipped_payload_byte_is_crc_error(self):
        blob = bytearray(self.make_blob())
        blob[20] ^= 0xFF
        with pytest.raises(CrcError):
            deserialize_store(bytes(blob))

    def test_bad_magic(self):
        blob = bytearray(self.make_blob())
        blob[:4] = b"XXXX"
        with pytest.raises(BadMagicError):
            deserialize_store(bytes(blob))

    def test_unknown_version(self):
        blob = bytearray(self.make_blob())
        struct.pack_into("<I", blob, 4, 9)
        body = bytes(blob[:-4])
        blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(VersionError):
            deserialize_store(blob)

    def test_name_set_mismatch(self, tmp_path):
        spec = tiny_spec()
        store = init_params(spec, seed=0)
        renamed = dict(store.tensors)
        renamed["bogus.weight"] = renamed.pop("embed.conv.weight")
        path = tmp_path / "bad.patw"
        save_weights(ParamStore(tensors=renamed), path)
        with pytest.raises(NameSetError, match="bogus"):
            load_weights(path, spec=spec)

    def test_non_utf8_name_is_weight_file_error(self):
        with pytest.raises(WeightFileError, match="UTF-8"):
            deserialize_store(one_tensor_blob(b"\xff\xfe", (1,), b"\0" * 4))

    def test_dims_whose_product_wraps_int64_are_rejected(self):
        # 65536**4 == 2**64 wraps to an element count of 0 in int64
        with pytest.raises(CrcError, match="truncated"):
            deserialize_store(one_tensor_blob(b"a", (65536,) * 4))

    def test_empty_but_oversized_shape_is_weight_file_error(self):
        with pytest.raises(WeightFileError, match="shape"):
            deserialize_store(one_tensor_blob(b"a", (0, 2**32 - 1, 2**32 - 1)))

    def test_non_model_names_rejected_without_spec(self, tmp_path):
        path = tmp_path / "x.patw"
        path.write_bytes(self.make_blob())
        with pytest.raises(NameSetError):
            load_weights(path)


# Small stores: up to three tensors, arbitrary Unicode names, up to 3 dims of
# up to 3 elements each.
small_stores = st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    min_size=1, max_size=3,
).map(lambda shapes: ParamStore(tensors={
    name: np.arange(math.prod(shape), dtype=np.float32).reshape(shape)
    for name, shape in shapes.items()}))

u32s = st.one_of(st.sampled_from([0, 1, 65536, 2**31, 2**32 - 1]),
                 st.integers(0, 2**32 - 1))


def parse_or_typed_error(blob: bytes) -> None:
    try:
        deserialize_store(blob)
    except WeightFileError:
        pass


class TestFuzz:
    """Hostile files fail with a WeightFileError and nothing else."""

    @settings(max_examples=40, deadline=None)
    @given(small_stores, st.data())
    def test_truncation(self, store, data):
        blob = serialize_store(store)
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(WeightFileError):
            deserialize_store(blob[:cut])

    @settings(max_examples=60, deadline=None)
    @given(small_stores, st.data(), st.booleans())
    def test_bit_flip(self, store, data, fix_crc):
        blob = bytearray(serialize_store(store))
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        blob[bit // 8] ^= 1 << (bit % 8)
        if not fix_crc:
            with pytest.raises(WeightFileError):  # CRC-32 sees every 1-bit error
                deserialize_store(bytes(blob))
        else:
            parse_or_typed_error(with_crc(bytes(blob[:-4])))

    @settings(max_examples=60, deadline=None)
    @given(small_stores, u32s, st.integers(0, 255), st.lists(u32s, max_size=8))
    def test_absurd_count_ndim_and_dims(self, store, count, ndim, dims):
        body = serialize_store(store)[:-4]
        name_len = struct.unpack_from("<H", body, 12)[0]
        ndim_at = 12 + 2 + name_len + 1
        old_ndim = body[ndim_at]
        header = b"PATW" + struct.pack("<II", 1, count) + body[12:ndim_at]
        rest = body[ndim_at + 1 + 4 * old_ndim :]
        parse_or_typed_error(with_crc(header + bytes([ndim])
                                      + struct.pack(f"<{len(dims)}I", *dims) + rest))
