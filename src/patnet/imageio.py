"""PPM (binary P6) loading and classification preprocessing.

The eval-time pipeline: bilinear-resize the shorter side to
round(crop / 0.9), scaling uint8 pixels to [0, 1] as their rows are read,
center-crop, then standardize with the usual ImageNet channel statistics.
``load_ppm`` returns the file's uint8 pixels, so no whole-image float copy
is made. Resizing samples at half-pixel centers so the result is
reproducible bit for bit.
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
    """Binary P6 file with maxval 255 -> uint8 (1, 3, h, w) pixels.

    The result is a read-only view of the file's bytes with channel-last
    strides: decoding makes no per-pixel copy, cast or divide.
    ``bilinear_resize`` scales the rows it reads to [0, 1].
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, pos = _read_token(blob, 0)
    if magic != b"P6":
        raise ImageFormatError(f"not a binary P6 file (magic {magic!r})")
    fields = []
    for what in ("width", "height", "maxval"):
        tok, pos = _read_token(blob, pos)
        try:
            if not tok.isdigit():  # int() would also take a sign and '_'
                raise ValueError(tok)
            fields.append(int(tok))
        except ValueError:  # also a token with more digits than int() reads
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
    raw = memoryview(blob)[pos : pos + width * height * 3]
    if len(raw) != width * height * 3:
        raise ImageFormatError("pixel payload truncated")
    img = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    return img.transpose(2, 0, 1)[None]


def bilinear_resize(x: np.ndarray, out_h: int, out_w: int,
                    crop: int | None = None) -> np.ndarray:
    """Half-pixel-center bilinear resampling of an (n, c, h, w) tensor.

    A float tensor is resampled in its own precision (float32 at least). A
    uint8 tensor is read as pixels in [0, 1]: each gathered source row set
    is cast to float32 and divided by 255, so the result is bitwise that of
    resampling ``x.astype(np.float32) / np.float32(255)``, and is float32.

    With ``crop``, only the centered crop x crop window of the out_h x out_w
    result is computed and returned, bitwise equal to
    ``center_crop(bilinear_resize(x, out_h, out_w), crop)`` but in memory
    bounded by the window, not by the resized image, which a thin input
    makes arbitrarily large.

    Each plane is resampled separably: the output's source rows are gathered
    from the window of columns it reads, then the output's columns from
    them, one source row set at a time. For ``preprocess``'s resizes, which
    keep the aspect ratio, that row set holds about as many values as the
    larger of the source window and the output plane. Every output element goes through the same float
    operations in the same order as the one-step formula ``((a00 gx + a01
    fx) gy) + ((a10 gx + a11 fx) fy)``, where ``gx = 1 - fx`` and
    ``gy = 1 - fy``.
    """
    n, c, h, w = x.shape
    if out_h < 1 or out_w < 1:
        raise ShapeError("resize target must be at least 1x1")
    rows, cols = (0, out_h), (0, out_w)
    if crop is not None:
        if out_h < crop or out_w < crop:
            raise ShapeError(f"image {out_h}x{out_w} smaller than crop {crop}")
        row0, col0 = (out_h - crop) // 2, (out_w - crop) // 2
        rows, cols = (row0, row0 + crop), (col0, col0 + crop)

    def axis_coords(span, out_n, in_n):
        src = (np.arange(*span, dtype=np.float64) + 0.5) * (in_n / out_n) - 0.5
        src = np.clip(src, 0.0, in_n - 1)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, in_n - 1)
        frac = (src - lo).astype(np.float32)
        return lo, hi, frac

    y0, y1, fy = axis_coords(rows, out_h, h)
    x0, x1, fx = axis_coords(cols, out_w, w)
    # only source columns x0[0]..x1[-1] are read; the second gather indexes
    # within that window
    xs = slice(x0[0], x1[-1] + 1)
    x0, x1 = x0 - xs.start, x1 - xs.start
    gx, gy, fy = 1 - fx, (1 - fy)[:, None], fy[:, None]
    pixels = x.dtype == np.uint8
    dt = np.result_type(x.dtype, fx.dtype)
    out = np.empty((n, c, len(y0), len(x0)), dt)
    bot, tmp = np.empty(out.shape[2:], dt), np.empty(out.shape[2:], dt)
    for i in range(n):
        for j in range(c):
            top = out[i, j]
            plane = x[i, j, :, xs]
            for y, acc in ((y0, top), (y1, bot)):
                part = plane[y].astype(dt, copy=False)
                if pixels:
                    part /= np.float32(255)
                # every index is in range; a non-raising mode writes out= unbuffered
                np.take(part, x0, 1, acc, "wrap")
                acc *= gx
                np.take(part, x1, 1, tmp, "wrap")
                tmp *= fx
                acc += tmp
                del part  # one source row set alive at a time
            top *= gy
            bot *= fy
            top += bot
    return out if pixels else out.astype(x.dtype, copy=False)


def center_crop(x: np.ndarray, size: int) -> np.ndarray:
    h, w = x.shape[2:]
    if h < size or w < size:
        raise ShapeError(f"image {h}x{w} smaller than crop {size}")
    top = (h - size) // 2
    left = (w - size) // 2
    return x[:, :, top : top + size, left : left + size]


def preprocess(img: np.ndarray, crop: int = 224) -> np.ndarray:
    """Resize-shorter-side / center-crop / normalize; returns (1, 3, crop, crop).

    ``img`` is uint8 pixels, as ``load_ppm`` returns them, or floats in
    [0, 1]; ``bilinear_resize`` scales pixels to [0, 1] as it reads them.
    """
    h, w = img.shape[2:]
    short = round(crop / TEST_CROP_RATIO)
    if h <= w:
        out_h, out_w = short, max(1, round(w * short / h))
    else:
        out_h, out_w = max(1, round(h * short / w)), short
    out = bilinear_resize(img, out_h, out_w, crop)  # a new array: normalised in place
    out -= IMAGENET_MEAN[None, :, None, None]
    out /= IMAGENET_STD[None, :, None, None]
    return out.astype(np.float32, copy=False)


def save_ppm(path, img: np.ndarray) -> None:
    """Write a (1, 3, h, w) image as binary P6: uint8 pixels, as ``load_ppm``
    returns them, as they are, and floats in [0, 1] rounded to pixels."""
    arr = img[0]
    if arr.dtype != np.uint8:
        arr = np.clip(arr * 255.0 + 0.5, 0, 255).astype(np.uint8)
    h, w = arr.shape[1:]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(arr.transpose(1, 2, 0).tobytes())
