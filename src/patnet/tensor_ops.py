"""Dense NCHW tensor kernels: convolution, normalization, activations, pooling,
channel statistics and row softmax.

All kernels are pure functions over numpy arrays. Activations and weights are
float32 in deployment; every kernel preserves the dtype it is handed so the
gradient checker can rerun the same code in float64. The matching naive loop
oracles live in ``patnet.reference``.

``conv2d`` picks one of three GEMM paths from the kernel shape alone:

* 3x3, stride 1, pad 1 (grouped or not): one GEMM of the tap-major weights
  against the unpadded input gives all nine tap images, which are then
  shift-added into the centre tap over their valid overlap;
* kernel == stride, pad 0, ungrouped (patch embedding and merging, and the
  pointwise 1x1 convs as the k = 1 case): one reshape/transpose copy makes the
  columns, a view for k = 1, and ``W @ cols`` is already NCHW;
* any other shape: pad, then im2col and one GEMM per group.

GELU is the erf form, not the tanh approximation, with erfc from the
Abramowitz & Stegun 7.1.26 fit (absolute error of erfc at most 1.5e-7); in
float32 it is within 1e-6 of the exact function. It walks its input in
consecutive blocks of ``_GELU_BLOCK`` elements through two block-sized
scratch buffers, so its scratch stays at 512 KiB in float32 however large the
activation is, and every element goes through the same ufuncs as in one pass
over the whole tensor.

Every kernel runs on the calling thread, over the whole batch at once, and
starts no thread of its own; numpy's OpenBLAS threads the GEMMs at the
thread count it was started with, which nothing here changes.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# stabilizer added to the spatial variance before the square root
EPS_STAT = 1e-5

ACTIVATION_KINDS = ("relu", "gelu")


class ShapeError(ValueError):
    """Raised when an operand dimension does not match the kernel contract."""


def check_tensor4(x: np.ndarray, what: str = "tensor") -> np.ndarray:
    if x.ndim != 4:
        raise ShapeError(f"{what}: expected 4 dims (n, c, h, w), got {x.ndim}")
    return x


@dataclass(frozen=True)
class ConvParams:
    """Weights of one 2-d convolution.

    ``weight`` is (out_ch, in_ch // groups, kh, kw); ``bias`` is a length
    out_ch vector or None. Padding is zero-fill on both spatial sides.
    """

    weight: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        if self.weight.ndim != 4:
            raise ShapeError(f"conv weight must have 4 dims, got {self.weight.ndim}")
        if self.stride < 1 or self.padding < 0 or self.groups < 1:
            raise ShapeError("conv stride/padding/groups out of range")
        if self.out_ch % self.groups != 0:
            raise ShapeError(
                f"out_ch {self.out_ch} not divisible by groups {self.groups}")
        if self.bias is not None and self.bias.shape != (self.out_ch,):
            raise ShapeError(
                f"conv bias length {self.bias.shape} != out_ch {self.out_ch}")

    @property
    def out_ch(self) -> int:
        return self.weight.shape[0]

    @property
    def in_ch(self) -> int:
        return self.weight.shape[1] * self.groups

    @property
    def kh(self) -> int:
        return self.weight.shape[2]

    @property
    def kw(self) -> int:
        return self.weight.shape[3]

    @property
    def taps_weight(self) -> np.ndarray:
        """3x3 weight in the (groups, 9 * out / groups, in / groups) tap-major
        layout of ``_conv3x3_taps``: a new copy on every access, which
        ``conv2d`` makes once per call, so nothing keeps a second copy of
        ``weight`` between calls."""
        g = self.groups
        og, cg = self.out_ch // g, self.weight.shape[1]
        taps = self.weight.reshape(g, og, cg, 9).transpose(0, 3, 1, 2)
        return taps.reshape(g, 9 * og, cg)


@dataclass(frozen=True)
class BnParams:
    """Inference-mode batch normalization parameters for C channels."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        c = self.gamma.shape[0]
        for name in ("beta", "running_mean", "running_var"):
            v = getattr(self, name)
            if v.shape != (c,):
                raise ShapeError(f"bn {name} shape {v.shape} != ({c},)")
        if self.eps < 0:
            raise ShapeError("bn eps must be non-negative")
        if np.any(self.running_var < 0):
            raise ShapeError("bn running_var must be non-negative")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


def conv_out_hw(h: int, w: int, p: ConvParams) -> tuple[int, int]:
    oh = (h + 2 * p.padding - p.kh) // p.stride + 1
    ow = (w + 2 * p.padding - p.kw) // p.stride + 1
    return oh, ow


def conv2d(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Zero-padded strided 2-d convolution (cross-correlation, the usual CNN
    convention) with grouped channels."""
    check_tensor4(x, "conv2d input")
    n, c, h, w = x.shape
    if c != p.in_ch:
        raise ShapeError(f"conv2d: input channels {c} != weight in_ch {p.in_ch}")
    oh, ow = conv_out_hw(h, w, p)
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"conv2d: padded input {h + 2 * p.padding}x{w + 2 * p.padding} "
            f"admits no {p.kh}x{p.kw} window at stride {p.stride}")

    out = np.empty((n, p.out_ch, oh, ow), np.result_type(p.weight, x))
    if p.kh == p.kw == 3 and p.stride == 1 and p.padding == 1:
        _conv3x3_taps(x, p.taps_weight, _tap_adds(h, w), out)
    elif p.kh == p.kw == p.stride and p.padding == 0 and p.groups == 1:
        _conv_patchify(x, p, out)
    else:
        _conv_im2col(x, p, out)
    if p.bias is not None:
        out += p.bias.reshape(1, -1, 1, 1).astype(out.dtype, copy=False)
    return out


def _conv3x3_taps(x: np.ndarray, weight: np.ndarray, adds: tuple,
                  out: np.ndarray) -> None:
    """3x3, stride 1, pad 1, into ``out``, one image at a time: one GEMM of
    the (9 * out, in) tap-major ``weight`` against the unpadded image yields
    all nine tap images, then the eight off-centre taps ``adds`` lists are
    added into the centre one over their valid overlap, which is exactly the
    zero-padded result without a padded copy. The nine-fold scratch holds
    one image, not the whole batch."""
    n, c, h, w = x.shape
    g, nine_og, cg = weight.shape
    og = nine_og // 9
    scratch = np.empty((g, nine_og, h * w), out.dtype)
    taps = scratch.reshape(g, 9, og, h * w)
    for i in range(n):  # the nine tap images of one image at a time
        np.matmul(weight, x[i].reshape(g, cg, h * w), out=scratch)
        o = out[i].reshape(g, og, h * w)
        np.copyto(o, taps[:, 4])
        for t, dead, a, b, off in adds:
            tap = taps[:, t]
            if dead is not None:
                tap.reshape(g, og, h, w)[..., dead] = 0
            np.add(o[..., a:b], tap[..., a + off : b + off], out=o[..., a:b])


@lru_cache(maxsize=32)
def _tap_adds(h: int, w: int) -> tuple:
    """(tap, dead column, start, stop, offset) of each off-centre 3x3 tap at
    extent h x w, in tap order.

    Output position p of a flattened h * w image reads tap position
    p + dy * w + dx, so each tap is one add over the flat range
    [start, stop) of p. Where that range crosses a row end, the read wraps
    to the tap's column that its dx never reads legitimately (column 0 for
    dx = +1, w - 1 for dx = -1); zeroing that dead column first makes each
    wrapped read add +0. Taps with nothing to add are left out.
    """
    adds = []
    for t in (0, 1, 2, 3, 5, 6, 7, 8):
        dy, dx = t // 3 - 1, t % 3 - 1
        off = dy * w + dx
        start, stop = max(0, -off), h * w - max(0, off)
        if stop > start:
            adds.append((t, {1: 0, 0: None, -1: w - 1}[dx], start, stop, off))
    return tuple(adds)


def _conv_patchify(x: np.ndarray, p: ConvParams, out: np.ndarray) -> None:
    """Kernel == stride, no padding, into ``out``: the windows tile the
    input, so one reshape/transpose copy turns them into (in * k * k,
    oh * ow) columns and ``W @ cols`` is already NCHW. Rows and columns past
    the last whole window are dropped, as the strided windows never reach
    them. For 1x1 stride 1 the columns are a view of the input and this is
    one plain GEMM."""
    n, c = x.shape[:2]
    oh, ow = out.shape[2:]
    k = p.stride
    tiles = x[:, :, : oh * k, : ow * k].reshape(n, c, oh, k, ow, k)
    cols = tiles.transpose(0, 1, 3, 5, 2, 4).reshape(n, c * k * k, oh * ow)
    np.matmul(p.weight.reshape(p.out_ch, c * k * k), cols,
              out=out.reshape(n, p.out_ch, oh * ow))


def _conv_im2col(x: np.ndarray, p: ConvParams, out: np.ndarray) -> None:
    """Every other shape, into ``out``: pad, then one GEMM per group over
    sliding-window columns."""
    n, c = x.shape[:2]
    oh, ow = out.shape[2:]
    if p.padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (p.padding,) * 2, (p.padding,) * 2))
    g = p.groups
    cg = c // g
    win = sliding_window_view(x, (p.kh, p.kw), axis=(2, 3))
    win = win[:, :, :: p.stride, :: p.stride]
    cols = win.reshape(n, g, cg, oh * ow, p.kh * p.kw)
    cols = np.ascontiguousarray(cols.transpose(0, 1, 3, 2, 4))
    cols = cols.reshape(n, g, oh * ow, cg * p.kh * p.kw)
    wm = p.weight.reshape(1, g, p.out_ch // g, cg * p.kh * p.kw)
    res = np.matmul(cols, wm.transpose(0, 1, 3, 2))  # (n, g, L, out/g)
    np.copyto(out.reshape(n, g, p.out_ch // g, oh * ow), res.transpose(0, 1, 3, 2))


def batch_norm_infer(x: np.ndarray, p: BnParams,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Per-channel affine normalization with frozen statistics, into ``out``
    (which may be ``x``) or a new array."""
    check_tensor4(x, "batch_norm input")
    if x.shape[1] != p.channels:
        raise ShapeError(
            f"batch_norm: input channels {x.shape[1]} != param length {p.channels}")
    scale = (p.gamma / np.sqrt(p.running_var + p.eps)).astype(x.dtype, copy=False)
    shift = (p.beta - p.running_mean * scale).astype(x.dtype, copy=False)
    scale, shift = scale.reshape(1, -1, 1, 1), shift.reshape(1, -1, 1, 1)

    def part(x, out):
        np.multiply(x, scale, out=out)
        out += shift

    return _elementwise(part, x, out)


def _elementwise(fn, x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``fn(x, out)``, into ``out`` (checked to match ``x`` in shape and
    dtype, and which may be ``x``) or a new array like ``x``; 0-d input, a
    numpy scalar too, runs as a 1-element view."""
    if out is None:
        out = np.empty_like(x)
    elif out.shape != x.shape or out.dtype != x.dtype:
        raise ShapeError(f"out {out.shape} {out.dtype} does not match "
                         f"input {x.shape} {x.dtype}")
    fn(*np.atleast_1d(x, out))
    return out


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return _elementwise(lambda x, out: np.maximum(x, 0, out=out), x, out)


# Abramowitz & Stegun 7.1.26: erfc(z) = t * P(t) * exp(-z^2) for z >= 0 with
# t = 1 / (1 + p z), absolute error at most 1.5e-7. Here z = |x| / sqrt 2, so
# p is pre-divided by sqrt 2, and P is pre-halved for the 0.5 in GELU.
_AS_P = 0.3275911 / np.sqrt(2.0)
_AS_HALF_COEFFS = tuple(0.5 * a for a in (
    1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))
# GELU's block: 256 KiB per float32 scratch buffer, so the two of them and
# the block of x they are computed from stay in a 2 MiB L2
_GELU_BLOCK = 1 << 16


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """GELU in its erf form, x * Phi(x), not the tanh approximation.

    Evaluated as max(x, 0) - 0.5 * |x| * erfc(|x| / sqrt 2), which equals
    0.5 * x * (1 + erf(x / sqrt 2)) for either sign of x and never subtracts
    two nearly equal numbers. erfc is the A&S 7.1.26 fit, computed with
    in-place ufuncs over blocks of ``_GELU_BLOCK`` elements and two scratch
    buffers of one block each, into ``out`` (which may be ``x``) or a new
    array. In float32 the result is within 1e-6 of the exact function, and
    gelu(0) == 0 exactly.
    """
    return _elementwise(_gelu_into, x, out)


def _gelu_into(x: np.ndarray, out: np.ndarray) -> None:
    # the iterator hands out matching blocks of x and out in memory order,
    # buffering only layouts it cannot walk in place; the scratch is
    # allocated per call, so concurrent callers never share it
    with np.nditer([x, out], flags=["external_loop", "buffered", "zerosize_ok"],
                   op_flags=[["readonly"], ["writeonly"]], order="K",
                   buffersize=_GELU_BLOCK) as blocks:
        t = np.empty(min(x.size, _GELU_BLOCK), x.dtype)
        q = np.empty_like(t)
        for xb, ob in blocks:
            _gelu_block(xb, ob, t[:len(xb)], q[:len(xb)])


def _gelu_block(x: np.ndarray, out: np.ndarray, t: np.ndarray, q: np.ndarray) -> None:
    # ``x`` is read until the last step, and ``out`` may be ``x``. |x| is
    # taken twice into ``t`` rather than kept in a third buffer: abs is
    # exact, so both reads agree bit for bit
    dt = x.dtype.type
    np.abs(x, out=t)
    t *= dt(_AS_P)
    t += 1
    np.reciprocal(t, out=t)
    np.multiply(t, dt(_AS_HALF_COEFFS[0]), out=q)
    for c in _AS_HALF_COEFFS[1:]:
        q += dt(c)
        q *= t
    with np.errstate(over="ignore"):  # x^2 = inf only where exp(-x^2 / 2) is 0
        np.multiply(x, x, out=t)
    t *= dt(-0.5)
    np.exp(t, out=t)
    q *= t
    np.abs(x, out=t)
    q *= t  # 0.5 * |x| * erfc(|x| / sqrt 2)
    np.maximum(x, 0, out=out)
    out -= q


def hard_sigmoid(x: np.ndarray) -> np.ndarray:
    return np.clip((x + 3.0) / 6.0, 0.0, 1.0).astype(x.dtype, copy=False)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; the sign picks e / (1 + e) or 1 / (1 + e)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def activation(x: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    """``kind`` of ``x``, into ``out`` (which may be ``x``) or a new array."""
    if kind == "relu":
        return relu(x, out=out)
    if kind == "gelu":
        return gelu(x, out=out)
    raise ValueError(f"unknown activation {kind!r}; expected one of {ACTIVATION_KINDS}")


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Spatial mean per (n, c). Returns an (n, c) matrix."""
    check_tensor4(x, "global_avg_pool input")
    return x.mean(axis=(2, 3))


def channel_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and stabilized standard deviation over the spatial
    positions of every (n, c) slice.

    std is sqrt(var + EPS_STAT) so constant channels still produce a usable,
    strictly positive scale.
    """
    check_tensor4(x, "channel_stats input")
    mean = np.empty(x.shape[:2], x.dtype)
    std = np.empty(x.shape[:2], x.dtype)
    hw = x.shape[2] * x.shape[3]
    # the steps of np.var, reusing the mean: bitwise equal to x.var
    x.mean(axis=(2, 3), out=mean)
    d = x - mean[:, :, None, None]
    np.square(d, out=d)
    np.sqrt(d.sum(axis=(2, 3)) / hw + EPS_STAT, out=std, dtype=x.dtype)
    return mean, std


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax over the last axis."""
    return _softmax_in_place(m - m.max(axis=-1, keepdims=True))


def _softmax_in_place(shifted: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of rows whose maximum is already 0."""
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    k = b.shape[-2 if b.ndim > 1 else -1]
    if a.shape[-1] != k:
        raise ShapeError(f"matmul: inner dims disagree ({a.shape[-1]} vs {k})")
    return np.matmul(a, b)


@lru_cache(maxsize=1)
def _openblas_threads():
    """The thread-count getter of the OpenBLAS numpy is linked against, or
    None when it does not export the scipy-openblas call."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)  # its dependencies are searched too
        get = lib.scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get


def thread_config() -> dict:
    """The threads a forward runs on: every kernel runs on the calling
    thread, and ``blas_threads`` is the OpenBLAS thread count its GEMMs use
    (None where OpenBLAS cannot be queried)."""
    get = _openblas_threads()
    return {"blas_threads": get() if get else None}
