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
        assert img.shape == (1, 3, 2, 2)
        assert img[0, 0, 0, 0] == 1.0
        assert img[0, 1, 0, 0] == 0.0

    def test_uniform_gray(self, tmp_path):
        p = tmp_path / "g.ppm"
        write_ppm(p, [[(128, 128, 128)] * 3] * 2)
        img = load_ppm(p)
        assert np.allclose(img, 128 / 255)

    def test_header_comment_tolerated(self, tmp_path):
        p = tmp_path / "c.ppm"
        write_ppm(p, [[(10, 20, 30)]], comment=True)
        img = load_ppm(p)
        assert img[0, 2, 0, 0] == pytest.approx(30 / 255)

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
        p.write_bytes(b"P6\nabc 1\n255\n\x00\x00\x00")
        with pytest.raises(ImageFormatError, match="width"):
            load_ppm(p)

    def test_zero_extent_rejected(self, tmp_path):
        p = tmp_path / "z.ppm"
        p.write_bytes(b"P6 0 0 255\n")
        with pytest.raises(ImageFormatError, match="empty"):
            load_ppm(p)

    def test_save_load_round_trip(self, tmp_path, rng):
        img = (rng.integers(0, 256, (1, 3, 5, 7)) / 255.0).astype(np.float32)
        p = tmp_path / "r.ppm"
        save_ppm(p, img)
        assert np.allclose(load_ppm(p), img, atol=1e-7)


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

    def test_portrait_orientation(self, rng):
        img = rng.uniform(0, 1, (1, 3, 500, 300)).astype(np.float32)
        assert preprocess(img).shape == (1, 3, 224, 224)

    def test_normalization_constants(self):
        img = np.full((1, 3, 249, 249), 0.5, np.float32)
        out = preprocess(img)
        expected = (0.5 - IMAGENET_MEAN) / IMAGENET_STD
        for ci in range(3):
            assert np.allclose(out[0, ci], expected[ci], atol=1e-6)

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
