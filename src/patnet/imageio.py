"""PPM (binary P6) loading and classification preprocessing.

The eval-time pipeline: scale pixels to [0, 1], bilinear-resize the shorter
side to round(crop / 0.9), center-crop, then standardize with the usual
ImageNet channel statistics. Resizing samples at half-pixel centers so the
result is reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .tensor_ops import ShapeError

IMAGENET_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float32)
IMAGENET_STD = np.array([0.229, 0.224, 0.225], dtype=np.float32)
TEST_CROP_RATIO = 0.9


class ImageFormatError(ValueError):
    pass


def _read_token(blob: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines
    while pos < len(blob):
        ch = blob[pos : pos + 1]
        if ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(blob) and not blob[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ImageFormatError("unexpected end of PPM header")
    return blob[start:pos], pos


def load_ppm(path) -> np.ndarray:
    """Binary P6 file with maxval 255 -> float32 (1, 3, h, w) in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, pos = _read_token(blob, 0)
    if magic != b"P6":
        raise ImageFormatError(f"not a binary P6 file (magic {magic!r})")
    fields = []
    for what in ("width", "height", "maxval"):
        tok, pos = _read_token(blob, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise ImageFormatError(
                f"PPM {what} {tok[:16]!r} is not a decimal number") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"empty image ({width}x{height})")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval}, expected 255")
    if pos >= len(blob) or not blob[pos : pos + 1].isspace():
        raise ImageFormatError("missing whitespace separator before pixel data")
    pos += 1  # single whitespace byte after maxval
    raw = blob[pos : pos + width * height * 3]
    if len(raw) != width * height * 3:
        raise ImageFormatError("pixel payload truncated")
    img = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    chw = img.transpose(2, 0, 1).astype(np.float32) / 255.0
    return chw[None]


def bilinear_resize(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resampling of an (n, c, h, w) tensor."""
    n, c, h, w = x.shape
    if out_h < 1 or out_w < 1:
        raise ShapeError("resize target must be at least 1x1")

    def axis_coords(out_n, in_n):
        src = (np.arange(out_n, dtype=np.float64) + 0.5) * (in_n / out_n) - 0.5
        src = np.clip(src, 0.0, in_n - 1)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, in_n - 1)
        frac = (src - lo).astype(np.float32)
        return lo, hi, frac

    y0, y1, fy = axis_coords(out_h, h)
    x0, x1, fx = axis_coords(out_w, w)
    top = x[:, :, y0][:, :, :, x0] * (1 - fx) + x[:, :, y0][:, :, :, x1] * fx
    bot = x[:, :, y1][:, :, :, x0] * (1 - fx) + x[:, :, y1][:, :, :, x1] * fx
    out = top * (1 - fy)[None, None, :, None] + bot * fy[None, None, :, None]
    return out.astype(x.dtype)


def center_crop(x: np.ndarray, size: int) -> np.ndarray:
    h, w = x.shape[2:]
    if h < size or w < size:
        raise ShapeError(f"image {h}x{w} smaller than crop {size}")
    top = (h - size) // 2
    left = (w - size) // 2
    return x[:, :, top : top + size, left : left + size]


def preprocess(img: np.ndarray, crop: int = 224) -> np.ndarray:
    """Resize-shorter-side / center-crop / normalize; returns (1, 3, crop, crop)."""
    h, w = img.shape[2:]
    short = round(crop / TEST_CROP_RATIO)
    if h <= w:
        out_h, out_w = short, max(1, round(w * short / h))
    else:
        out_h, out_w = max(1, round(h * short / w)), short
    resized = bilinear_resize(img, out_h, out_w)
    cropped = center_crop(resized, crop)
    return ((cropped - IMAGENET_MEAN[None, :, None, None])
            / IMAGENET_STD[None, :, None, None]).astype(np.float32)


def save_ppm(path, img: np.ndarray) -> None:
    """Write a (1, 3, h, w) float tensor in [0, 1] as binary P6."""
    arr = np.clip(img[0] * 255.0 + 0.5, 0, 255).astype(np.uint8)
    h, w = arr.shape[1:]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(arr.transpose(1, 2, 0).tobytes())
