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
float32 it is within 1e-6 of the exact function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# stabilizer added to the spatial variance before the square root
EPS_STAT = 1e-5

ACTIVATION_KINDS = ("relu", "gelu", "hard_sigmoid")


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

    @cached_property
    def taps_weight(self) -> np.ndarray:
        """3x3 weight in the (groups, 9 * out / groups, in / groups) tap-major
        layout of ``_conv3x3_taps``; one copy, made on first use, so
        ``weight`` must not be changed in place afterwards."""
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
    if c % p.groups != 0:
        raise ShapeError(f"conv2d: channels {c} not divisible by groups {p.groups}")
    oh, ow = conv_out_hw(h, w, p)
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"conv2d: padded input {h + 2 * p.padding}x{w + 2 * p.padding} "
            f"admits no {p.kh}x{p.kw} window at stride {p.stride}")

    if p.kh == p.kw == 3 and p.stride == 1 and p.padding == 1:
        out = _conv3x3_taps(x, p)
    elif p.kh == p.kw == p.stride and p.padding == 0 and p.groups == 1:
        out = _conv_patchify(x, p, oh, ow)
    else:
        out = _conv_im2col(x, p, oh, ow)
    if p.bias is not None:
        out += p.bias.reshape(1, -1, 1, 1).astype(out.dtype, copy=False)
    return out


def _conv3x3_taps(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """3x3, stride 1, pad 1: one GEMM of the (9 * out, in) tap-major weights
    against the unpadded input yields all nine tap images, then the eight
    off-centre taps are added into the centre one over their valid overlap,
    which is exactly the zero-padded result without a padded copy."""
    n, c, h, w = x.shape
    g = p.groups
    cg, og = c // g, p.out_ch // g
    taps = np.matmul(p.taps_weight, x.reshape(n, g, cg, h * w)).reshape(n, g, 9, og, h, w)
    out = taps[:, :, 4].copy()
    for out_idx, tap_idx in _tap_overlaps(h, w):
        o = out[out_idx]
        np.add(o, taps[tap_idx], out=o)
    return out.reshape(n, p.out_ch, h, w)


@lru_cache(maxsize=32)
def _tap_overlaps(h: int, w: int) -> tuple:
    """(output index, tap-image index) of each off-centre 3x3 tap over its
    valid overlap at extent h x w, in tap order."""
    spans = []
    for t in (0, 1, 2, 3, 5, 6, 7, 8):
        dy, dx = t // 3 - 1, t % 3 - 1
        # output rows y read tap rows y + dy; keep both inside [0, h)
        oy, ox = slice(max(0, -dy), h - max(0, dy)), slice(max(0, -dx), w - max(0, dx))
        iy, ix = slice(max(0, dy), h + min(0, dy)), slice(max(0, dx), w + min(0, dx))
        spans.append(((..., oy, ox), (slice(None), slice(None), t, slice(None), iy, ix)))
    return tuple(spans)


def _conv_patchify(x: np.ndarray, p: ConvParams, oh: int, ow: int) -> np.ndarray:
    """Kernel == stride, no padding: the windows tile the input, so one
    reshape/transpose copy turns them into (in * k * k, oh * ow) columns and
    ``W @ cols`` is already NCHW. Rows and columns past the last whole
    window are dropped, as the strided windows never reach them. For 1x1
    stride 1 the columns are a view of the input and this is one plain GEMM."""
    n, c = x.shape[:2]
    k = p.stride
    tiles = x[:, :, : oh * k, : ow * k].reshape(n, c, oh, k, ow, k)
    cols = tiles.transpose(0, 1, 3, 5, 2, 4).reshape(n, c * k * k, oh * ow)
    out = np.matmul(p.weight.reshape(p.out_ch, c * k * k), cols)
    return out.reshape(n, p.out_ch, oh, ow)


def _conv_im2col(x: np.ndarray, p: ConvParams, oh: int, ow: int) -> np.ndarray:
    """Every other shape: pad, then one GEMM per group over sliding-window
    columns."""
    n, c = x.shape[:2]
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
    out = np.matmul(cols, wm.transpose(0, 1, 3, 2))  # (n, g, L, out/g)
    out = out.transpose(0, 1, 3, 2).reshape(n, p.out_ch, oh, ow)
    return np.ascontiguousarray(out)


def batch_norm_infer(x: np.ndarray, p: BnParams) -> np.ndarray:
    """Per-channel affine normalization with frozen statistics."""
    check_tensor4(x, "batch_norm input")
    if x.shape[1] != p.channels:
        raise ShapeError(
            f"batch_norm: input channels {x.shape[1]} != param length {p.channels}")
    scale = (p.gamma / np.sqrt(p.running_var + p.eps)).astype(x.dtype, copy=False)
    shift = (p.beta - p.running_mean * scale).astype(x.dtype, copy=False)
    return x * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


# Abramowitz & Stegun 7.1.26: erfc(z) = t * P(t) * exp(-z^2) for z >= 0 with
# t = 1 / (1 + p z), absolute error at most 1.5e-7. Here z = |x| / sqrt 2, so
# p is pre-divided by sqrt 2, and P is pre-halved for the 0.5 in GELU.
_AS_P = 0.3275911 / np.sqrt(2.0)
_AS_HALF_COEFFS = tuple(0.5 * a for a in (
    1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU in its erf form, x * Phi(x), not the tanh approximation.

    Evaluated as max(x, 0) - 0.5 * |x| * erfc(|x| / sqrt 2), which equals
    0.5 * x * (1 + erf(x / sqrt 2)) for either sign of x and never subtracts
    two nearly equal numbers. erfc is the A&S 7.1.26 fit, computed with
    in-place ufuncs into the output and two scratch buffers. In float32 the
    result is within 1e-6 of the exact function, and gelu(0) == 0 exactly.
    """
    dt = x.dtype.type
    a = np.abs(x)
    t = np.multiply(a, dt(_AS_P))
    t += 1
    np.reciprocal(t, out=t)
    q = np.multiply(t, dt(_AS_HALF_COEFFS[0]))
    for c in _AS_HALF_COEFFS[1:]:
        q += dt(c)
        q *= t
    with np.errstate(over="ignore"):  # x^2 = inf only where exp(-x^2 / 2) is 0
        np.multiply(x, x, out=t)
    t *= dt(-0.5)
    np.exp(t, out=t)
    q *= t
    q *= a  # 0.5 * |x| * erfc(|x| / sqrt 2)
    np.maximum(x, 0, out=a)
    a -= q
    return a


def hard_sigmoid(x: np.ndarray) -> np.ndarray:
    return np.clip((x + 3.0) / 6.0, 0.0, 1.0).astype(x.dtype, copy=False)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; the sign picks e / (1 + e) or 1 / (1 + e)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def activation(x: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return relu(x)
    if kind == "gelu":
        return gelu(x)
    if kind == "hard_sigmoid":
        return hard_sigmoid(x)
    raise ValueError(f"unknown activation {kind!r}; expected one of {ACTIVATION_KINDS}")


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Spatial mean per (n, c). Returns an (n, c) matrix."""
    check_tensor4(x, "global_avg_pool input")
    return x.mean(axis=(2, 3))


def channel_stats(x: np.ndarray, eps: float = EPS_STAT) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and stabilized standard deviation over the spatial
    positions of every (n, c) slice.

    std is sqrt(var + eps) so constant channels still produce a usable,
    strictly positive scale.
    """
    check_tensor4(x, "channel_stats input")
    mean = x.mean(axis=(2, 3))
    var = x.var(axis=(2, 3))
    std = np.sqrt(var + eps, dtype=x.dtype)
    return mean.astype(x.dtype, copy=False), std


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax over the last axis."""
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else -1]:
        raise ShapeError(
            f"matmul: inner dims disagree ({a.shape[-1]} vs {b.shape[0]})")
    return np.matmul(a, b)
