import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patnet.imageio import (
    IMAGENET_MEAN,
    IMAGENET_STD,
    ImageFormatError,
    bilinear_resize,
    center_crop,
    load_ppm,
    preprocess,
    save_ppm,
)
from patnet.reference import bilinear_resize_naive


def write_ppm(path, pixels, header=b"P6", maxval=255, comment=False):
    h = len(pixels)
    w = len(pixels[0])
    with open(path, "wb") as fh:
        fh.write(header + b"\n")
        if comment:
            fh.write(b"# a comment line\n")
        fh.write(f"{w} {h}\n{maxval}\n".encode())
        for row in pixels:
            for px in row:
                fh.write(bytes(px))


class TestLoadPpm:
    def test_red_pixel_at_origin(self, tmp_path):
        p = tmp_path / "a.ppm"
        write_ppm(p, [[(255, 0, 0), (0, 0, 0)], [(0, 0, 0), (0, 0, 0)]])
        img = load_ppm(p)
        assert img.shape == (1, 3, 2, 2) and img.dtype == np.uint8
        assert not img.flags.writeable
        assert img[0, 0, 0, 0] == 255
        assert img[0, 1, 0, 0] == 0

    def test_uniform_gray(self, tmp_path):
        p = tmp_path / "g.ppm"
        write_ppm(p, [[(128, 128, 128)] * 3] * 2)
        img = load_ppm(p)
        assert img.dtype == np.uint8 and not img.flags.writeable
        assert np.array_equal(img, np.full((1, 3, 2, 3), 128, np.uint8))

    def test_header_comment_tolerated(self, tmp_path):
        p = tmp_path / "c.ppm"
        write_ppm(p, [[(10, 20, 30)]], comment=True)
        img = load_ppm(p)
        assert img.dtype == np.uint8 and not img.flags.writeable
        assert img[0, :, 0, 0].tolist() == [10, 20, 30]

    def test_rejects_p5(self, tmp_path):
        p = tmp_path / "b.pgm"
        write_ppm(p, [[(1, 2, 3)]], header=b"P5")
        with pytest.raises(ImageFormatError, match="P6"):
            load_ppm(p)

    def test_rejects_wide_maxval(self, tmp_path):
        p = tmp_path / "m.ppm"
        write_ppm(p, [[(1, 2, 3)]], maxval=511)
        with pytest.raises(ImageFormatError, match="maxval"):
            load_ppm(p)

    def test_rejects_truncated_payload(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n4 4\n255\n\x00\x00")
        with pytest.raises(ImageFormatError, match="truncated"):
            load_ppm(p)

    def test_non_numeric_header_field(self, tmp_path):
        p = tmp_path / "n.ppm"
        for header, field in ((b"P6\nabc 1\n255\n", "width"),
                              (b"P6\n+2 +2\n+255\n", "width"),
                              (b"P6\n1_0 1\n255\n", "width"),
                              (b"P6\n1 -0\n255\n", "height"),
                              (b"P6\n1 1\n+255\n", "maxval"),
                              (b"P6\n1 1\n2_55\n", "maxval")):
            p.write_bytes(header + b"\x00" * 30)
            with pytest.raises(ImageFormatError, match=field):
                load_ppm(p)

    def test_zero_extent_rejected(self, tmp_path):
        p = tmp_path / "z.ppm"
        p.write_bytes(b"P6 0 0 255\n")
        with pytest.raises(ImageFormatError, match="empty"):
            load_ppm(p)

    def test_huge_header_fails_before_allocating(self, tmp_path):
        p = tmp_path / "huge.ppm"
        p.write_bytes(b"P6\n60000 60000\n255\n\x00")
        assert p.stat().st_size == 20
        tracemalloc.start()
        try:
            with pytest.raises(ImageFormatError, match="truncated"):
                load_ppm(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the float image it claims would take 43 GB

    def test_save_load_round_trip(self, tmp_path, rng):
        img = (rng.integers(0, 256, (1, 3, 5, 7)) / 255.0).astype(np.float32)
        p = tmp_path / "r.ppm"
        save_ppm(p, img)
        loaded = load_ppm(p)
        assert loaded.dtype == np.uint8 and not loaded.flags.writeable
        assert np.array_equal(loaded, np.clip(img * 255 + 0.5, 0, 255).astype(np.uint8))

    def test_load_save_round_trip(self, tmp_path, rng):
        p, q = tmp_path / "p.ppm", tmp_path / "q.ppm"
        p.write_bytes(ppm_bytes(7, 5, rng.integers(0, 256, 105, np.uint8).tobytes()))
        save_ppm(q, load_ppm(p))
        assert q.read_bytes() == p.read_bytes()


class TestResize:
    def test_matches_scalar_bilinear_formula(self, rng):
        x = rng.standard_normal((1, 2, 5, 7)).astype(np.float32)
        out = bilinear_resize(x, 3, 4)
        for oy in range(3):
            for ox in range(4):
                sy = min(max((oy + 0.5) * 5 / 3 - 0.5, 0.0), 4.0)
                sx = min(max((ox + 0.5) * 7 / 4 - 0.5, 0.0), 6.0)
                y0, x0 = int(sy), int(sx)
                y1, x1 = min(y0 + 1, 4), min(x0 + 1, 6)
                fy, fx = sy - y0, sx - x0
                for ci in range(2):
                    v = (x[0, ci, y0, x0] * (1 - fy) * (1 - fx)
                         + x[0, ci, y0, x1] * (1 - fy) * fx
                         + x[0, ci, y1, x0] * fy * (1 - fx)
                         + x[0, ci, y1, x1] * fy * fx)
                    assert out[0, ci, oy, ox] == pytest.approx(v, abs=1e-6)

    @pytest.mark.parametrize("layout", ["contiguous", "hwc", "uint8", "uint8_hwc"])
    @pytest.mark.parametrize("n,c,hw,out_hw,crop", [
        (1, 3, (5, 7), (11, 13), None),  # upscale
        (2, 4, (17, 13), (6, 5), None),  # downscale
        (2, 1, (9, 12), (7, 16), 5),  # mixed, small crop
        (1, 3, (1, 7), (4, 9), 3),  # one source row
        (2, 4, (9, 1), (12, 5), 4),  # one source column
        (1, 1, (1, 1), (3, 3), None),
        (2, 3, (6, 40), (30, 4), None),  # rows up, columns down
        (1, 4, (3, 30), (20, 6), 5),  # the same with a crop
    ])
    def test_bitwise_equal_to_loop_oracle(self, rng, layout, n, c, hw, out_hw, crop):
        if layout.startswith("uint8"):  # pixels; uint8_hwc is what load_ppm returns
            x = rng.integers(0, 256, (n, c, *hw), dtype=np.uint8)
        else:
            x = rng.standard_normal((n, c, *hw)).astype(np.float32)
        if layout.endswith("hwc"):  # the strides of an image decoded channel-last
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        out = bilinear_resize(x, *out_hw, crop)
        expected = bilinear_resize_naive(x, *out_hw, crop)
        assert out.flags.c_contiguous and out.dtype == np.float32
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()

    def test_identity_when_same_size(self, rng):
        x = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
        assert np.allclose(bilinear_resize(x, 6, 6), x, atol=1e-6)

    def test_constant_preserved(self):
        x = np.full((1, 1, 4, 9), 0.6, np.float32)
        assert np.allclose(bilinear_resize(x, 7, 3), 0.6, atol=1e-6)


class TestPreprocess:
    def test_geometry_300x500(self, rng):
        img = rng.uniform(0, 1, (1, 3, 300, 500)).astype(np.float32)
        out = preprocess(img)
        assert out.shape == (1, 3, 224, 224)
        # shorter side 300 -> 249, longer 500 -> 415, crop centered
        resized = bilinear_resize(img, 249, 415)
        cropped = center_crop(resized, 224)
        expected = (cropped - IMAGENET_MEAN[None, :, None, None]) \
            / IMAGENET_STD[None, :, None, None]
        assert np.abs(out - expected).max() <= 1e-6

    @pytest.mark.parametrize("hw", [(300, 500), (500, 300), (224, 224), (1, 40)])
    def test_pixels_preprocess_as_their_float_image(self, rng, hw):
        # the former pipeline: the whole image cast and divided by 255 first
        u8 = rng.integers(0, 256, (1, 3, *hw), dtype=np.uint8)
        out = preprocess(u8)
        expected = preprocess(u8.astype(np.float32) / np.float32(255))
        assert out.dtype == np.float32 and out.tobytes() == expected.tobytes()

    def test_portrait_orientation(self, rng):
        img = rng.uniform(0, 1, (1, 3, 500, 300)).astype(np.float32)
        assert preprocess(img).shape == (1, 3, 224, 224)

    def test_normalization_constants(self):
        img = np.full((1, 3, 249, 249), 0.5, np.float32)
        out = preprocess(img)
        expected = (0.5 - IMAGENET_MEAN) / IMAGENET_STD
        for ci in range(3):
            assert np.allclose(out[0, ci], expected[ci], atol=1e-6)

    @pytest.mark.parametrize("hw", [(300, 500), (500, 300), (249, 249), (32, 1)])
    def test_cropped_resize_is_the_window_of_the_full_resize(self, rng, hw):
        img = rng.uniform(0, 1, (1, 3, *hw)).astype(np.float32)
        out_h, out_w = (249, 415) if hw[0] <= hw[1] else (415, 249)
        if hw == (32, 1):
            out_h, out_w = 7968, 249
        full = center_crop(bilinear_resize(img, out_h, out_w), 224)
        assert bilinear_resize(img, out_h, out_w, 224).tobytes() == full.tobytes()

    @pytest.mark.parametrize("width,height", [(1, 32), (100000, 1)])
    def test_memory_bounded_by_the_crop_for_thin_images(self, tmp_path, width, height):
        # resizing the shorter side to 249 makes the other side 249 times
        # the aspect ratio: 7968 for 1x32, 24.9 million for 100000x1
        path = tmp_path / "thin.ppm"
        path.write_bytes(f"P6\n{width} {height}\n255\n".encode()
                         + bytes(range(256)) * (3 * width * height // 256)
                         + bytes(3 * width * height % 256))
        img = load_ppm(path)
        tracemalloc.start()
        try:
            out = preprocess(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 3, 224, 224) and np.all(np.isfinite(out))
        assert peak < 16 << 20  # the full 1x32 resize alone peaked at 95 MB

    # tracemalloc peaks of preprocess(load_ppm(p)) for these files: 10.56 MiB
    # when the resize gathered rows and columns in one 2-D step, 10.27 MiB
    # when load_ppm decoded to an 8.2 MiB float image beside the file's
    # 2.1 MiB of bytes. Now the pixels are a view of those bytes, and the
    # resize adds 1.67 MiB to them: 3.73 MiB.
    @pytest.mark.parametrize("width,height,bound", [(731, 982, 11_071_398),
                                                    (982, 731, 11_069_352)])
    def test_memory_peak_of_a_photo_sized_image(self, tmp_path, width, height, bound):
        path = tmp_path / "photo.ppm"
        path.write_bytes(ppm_bytes(width, height, bytes(range(256)) * (3 * width * height // 256)
                                   + bytes(3 * width * height % 256)))
        tracemalloc.start()
        try:
            img = load_ppm(path)
            loaded, load_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = preprocess(img)
            added = tracemalloc.get_traced_memory()[1] - loaded
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 3, 224, 224) and out.flags.c_contiguous
        assert max(load_peak, loaded + added) <= bound
        # the output (0.57 MiB), two scratch planes of the output's size
        # (0.38 MiB) and one gathered set of 224 source rows of about 660
        # pixels (0.57 MiB as float32, beside 0.14 MiB as uint8): a second
        # row set alive would add 0.57 MiB
        assert added < 1.75 * 2**20

    def test_crop_window_is_centered(self):
        # a bright dot at the exact center survives the crop at the center
        img = np.zeros((1, 3, 320, 640), np.float32)
        img[:, :, 160, 320] = 1.0
        out = preprocess(img)
        hot = np.unravel_index(np.argmax(out[0, 0]), out[0, 0].shape)
        assert abs(hot[0] - 112) <= 2 and abs(hot[1] - 112) <= 2


def ppm_bytes(width, height, pixels: bytes) -> bytes:
    return f"P6\n{width} {height}\n255\n".encode() + pixels


small_ppms = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda wh: st.binary(min_size=3 * wh[0] * wh[1], max_size=3 * wh[0] * wh[1])
    .map(lambda px: ppm_bytes(*wh, px)))

header_fields = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.text(alphabet="0123456789+-_ abc#\n", max_size=8),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.ppm"


def load_or_typed_error(path, blob: bytes) -> None:
    path.write_bytes(blob)
    try:
        img = load_ppm(path)
    except ImageFormatError:
        return
    assert img.shape[:2] == (1, 3) and min(img.shape[2:]) >= 1


class TestFuzz:
    """Hostile files fail with an ImageFormatError and nothing else."""

    @settings(max_examples=40, deadline=None)
    @given(small_ppms, st.data())
    def test_truncation(self, fuzz_path, blob, data):
        fuzz_path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(ImageFormatError):
            load_ppm(fuzz_path)

    @settings(max_examples=60, deadline=None)
    @given(small_ppms, st.data())
    def test_bit_flip(self, fuzz_path, blob, data):
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        load_or_typed_error(fuzz_path, bytes(flipped))

    @settings(max_examples=60, deadline=None)
    @given(header_fields, header_fields, header_fields, st.binary(max_size=64))
    def test_absurd_header(self, fuzz_path, width, height, maxval, pixels):
        head = f"P6\n{width} {height}\n{maxval}\n".encode()
        load_or_typed_error(fuzz_path, head + pixels)
