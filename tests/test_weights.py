import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patnet import weights
from patnet.config import VARIANT_TABLE, build_spec, build_variant
from patnet.fusion import fuse_model
from patnet.model import ParamStore, init_params, iter_param_schema
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

    def test_duplicate_tensor_name_is_weight_file_error(self):
        # a valid checksum over two tensors both named "a"
        entry = struct.pack("<H", 1) + b"a" + struct.pack("<BBI", 0, 1, 1)
        body = (b"PATW" + struct.pack("<II", 1, 2) + entry + struct.pack("<f", 1.0)
                + entry + struct.pack("<f", 2.0))
        with pytest.raises(WeightFileError, match="twice"):
            deserialize_store(with_crc(body))

    def test_t1_file_loads_as_t1(self, tmp_path):
        # T0 and T1 have the same tensor names; only the shapes tell them apart
        path = tmp_path / "t1.patw"
        save_weights(init_params(build_variant("T1"), seed=0), path)
        store, label = load_weights(path)
        assert label == "T1" and not store.fused

    def test_shape_mismatch_rejected(self, tmp_path):
        spec = tiny_spec()
        store = init_params(spec, seed=0)
        name = "embed.conv.weight"
        path = tmp_path / "narrow.patw"
        save_weights(ParamStore(tensors={**store.tensors, name: store[name][:1]}), path)
        with pytest.raises(NameSetError, match=name):
            load_weights(path, spec=spec)

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


# one tensor "ab" of two floats: name at 14, dims at 18, payload at 22
AB_BODY = one_tensor_blob(b"ab", (2,), struct.pack("<2f", 1.0, 2.0))[:-4]


class TestStreamedLoad:
    """The streamed load raises what checking the CRC before parsing would,
    and agrees with the in-memory parse."""

    @pytest.mark.parametrize("broken", [
        AB_BODY[:18] + struct.pack("<I", 2**31) + AB_BODY[22:],
        AB_BODY[:14] + b"\xff\xfe" + AB_BODY[16:],
        AB_BODY + b"\0" * 4,
    ], ids=["dims", "name", "trailing"])
    def test_broken_structure_with_stale_crc_is_crc_error(self, broken):
        stale = struct.pack("<I", zlib.crc32(AB_BODY))
        with pytest.raises(CrcError):
            deserialize_store(broken + stale)
        with pytest.raises(WeightFileError) as info:  # valid CRC: the parse error
            deserialize_store(with_crc(broken))
        assert "checksum" not in str(info.value)

    def test_unknown_version_body_is_never_parsed(self):
        body = b"PATW" + struct.pack("<II", 9, 5) + b"\xff" * 7  # not a v1 body
        with pytest.raises(VersionError):
            deserialize_store(with_crc(body))
        with pytest.raises(CrcError):
            deserialize_store(body + b"\0" * 4)

    def test_huge_claimed_tensor_allocates_nothing(self, tmp_path):
        blob = one_tensor_blob(b"a", (2**30,))
        path = tmp_path / "huge.patw"
        path.write_bytes(blob + b"\0" * (100 - len(blob)))
        tracemalloc.start()
        try:
            with pytest.raises(CrcError):
                load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_load_peak_memory_is_about_the_file_size(self, t0_store, tmp_path):
        path = tmp_path / "t0.patw"
        save_weights(t0_store[1], path)
        load_weights(path)  # build the schema caches outside the measurement
        tracemalloc.start()
        try:
            load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * path.stat().st_size

    def test_zlib_fallback_loads_the_same_tensors(self, t0_store, tmp_path, monkeypatch):
        path = tmp_path / "t0.patw"
        save_weights(t0_store[1], path)
        fast, _ = load_weights(path)
        monkeypatch.setattr(weights, "_crc32", lambda: zlib.crc32)
        slow, _ = load_weights(path)
        assert list(slow.tensors) == list(fast.tensors)
        assert all(slow[k].tobytes() == fast[k].tobytes() for k in fast.names())

    @pytest.mark.parametrize("variant", list(VARIANT_TABLE))
    @pytest.mark.parametrize("fused", [False, True])
    def test_file_load_matches_blob_parse(self, variant, fused, tmp_path):
        # every name of the variant, in schema order, at its rank; narrowed
        # to 16 base channels so that L (416 MB of weights) stays small
        _, depths, act = VARIANT_TABLE[variant]
        spec = build_spec(variant, 16, depths, act)
        rng = np.random.default_rng(len(variant))
        store = ParamStore(tensors={
            d.name: rng.standard_normal(d.shape).astype(np.float32)
            for d in iter_param_schema(spec, fused)})
        path = tmp_path / "w.patw"
        save_weights(store, path)
        loaded, label = load_weights(path, spec=spec)
        assert loaded.fused == fused and label == variant
        parsed = deserialize_store(path.read_bytes())
        assert list(loaded.tensors) == list(parsed) == list(store.tensors)
        for name, tensor in parsed.items():
            assert loaded[name].shape == tensor.shape
            assert loaded[name].tobytes() == tensor.tobytes() == store[name].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(small_stores)
    def test_small_stores_round_trip_through_a_file(self, tmp_path_factory, store):
        # empty and 0-d tensors included: readinto gets zero-size buffers
        path = tmp_path_factory.mktemp("rt") / "s.patw"
        save_weights(store, path)
        with open(path, "rb") as fh:
            loaded = weights._read_store(fh, path.stat().st_size)
        assert list(loaded) == list(store.tensors)
        for name, tensor in store.tensors.items():
            assert loaded[name].shape == tensor.shape
            assert loaded[name].tobytes() == tensor.tobytes()


class TestStreamedSave:
    def test_save_peak_memory_is_a_fraction_of_the_file_size(self, t0_store, tmp_path):
        # building the file in memory first peaked at about 2.9x its size
        path = tmp_path / "t0.patw"
        save_weights(t0_store[1], path)  # pick the CRC-32 outside the measurement
        tracemalloc.start()
        try:
            save_weights(t0_store[1], path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * path.stat().st_size

    def test_non_float32_store_raises_and_creates_no_file(self, tmp_path):
        path = tmp_path / "bad.patw"
        store = ParamStore(tensors={"a": np.zeros(3, np.float32),
                                    "b": np.zeros(2, np.float64)})
        with pytest.raises(WeightFileError, match="not float32"):
            save_weights(store, path)
        assert not path.exists()
        with pytest.raises(WeightFileError, match="not float32"):
            serialize_store(store)

    def test_file_and_blob_bytes_agree_for_any_layout(self, tmp_path):
        # non-contiguous, 0-d and empty tensors are written as their float32 values
        base = np.arange(24, dtype=np.float32).reshape(4, 6)
        store = ParamStore(tensors={"t": base.T, "s": base[:, ::2],
                                    "e": np.float32(2.5).reshape(()),
                                    "z": np.empty((0, 3), np.float32)})
        path = tmp_path / "v.patw"
        save_weights(store, path)
        assert path.read_bytes() == serialize_store(store)
        loaded = deserialize_store(path.read_bytes())
        for name, tensor in store.tensors.items():
            assert np.array_equal(loaded[name], tensor) and loaded[name].shape == tensor.shape


@pytest.mark.skipif(weights._crc32() is zlib.crc32, reason="libdeflate not found")
class TestLibdeflateCrc:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=70_000), st.lists(st.integers(0, 70_000), max_size=4),
           st.integers(0, 2**32 - 1))
    def test_running_crc_matches_zlib(self, data, cuts, start):
        crc = weights._crc32()
        bounds = [0, *sorted(c % (len(data) + 1) for c in cuts), len(data)]
        value = start
        for lo, hi in zip(bounds, bounds[1:]):  # pieces may be empty
            value = crc(data[lo:hi], value)
        assert value == zlib.crc32(data, start)

    def test_arrays_and_empty_buffers(self):
        crc = weights._crc32()
        for buf in [b"", np.empty((0, 3), np.float32), np.float32(1.5).reshape(()),
                    np.arange(5000, dtype=np.float32).reshape(50, 100)]:
            assert crc(buf) == zlib.crc32(buf)
            assert crc(buf, 123) == zlib.crc32(buf, 123)
