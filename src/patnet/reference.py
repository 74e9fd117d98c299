"""Naive reference implementations used to cross-check the fast kernels.

Everything here is written as plain loops over scalars (or arbitrary-precision
accumulation where it matters) and is intentionally independent of the GEMM
paths in ``tensor_ops``. Only run these at toy sizes.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor_ops import BnParams, ConvParams, conv_out_hw


def conv2d_naive(x: np.ndarray, p: ConvParams) -> np.ndarray:
    n, c, h, w = x.shape
    assert c == p.in_ch
    oh, ow = conv_out_hw(h, w, p)
    g = p.groups
    cg = c // g
    og = p.out_ch // g
    out = np.zeros((n, p.out_ch, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for oc in range(p.out_ch):
            grp = oc // og
            for oy in range(oh):
                for ox in range(ow):
                    acc = x.dtype.type(0.0)
                    for ic in range(cg):
                        for ky in range(p.kh):
                            for kx in range(p.kw):
                                iy = oy * p.stride + ky - p.padding
                                ix = ox * p.stride + kx - p.padding
                                if 0 <= iy < h and 0 <= ix < w:
                                    acc += (x[ni, grp * cg + ic, iy, ix]
                                            * p.weight[oc, ic, ky, kx])
                    if p.bias is not None:
                        acc += p.bias[oc]
                    out[ni, oc, oy, ox] = acc
    return out


def batch_norm_naive(x: np.ndarray, p: BnParams) -> np.ndarray:
    out = np.empty_like(x)
    for ci in range(x.shape[1]):
        denom = math.sqrt(float(p.running_var[ci]) + p.eps)
        out[:, ci] = (p.gamma[ci] * (x[:, ci] - p.running_mean[ci]) / denom
                      + p.beta[ci])
    return out


def global_avg_pool_naive(x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    out = np.zeros((n, c), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            total = 0.0
            for yi in range(h):
                for xi in range(w):
                    total += float(x[ni, ci, yi, xi])
            out[ni, ci] = total / (h * w)
    return out


def channel_stats_naive(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass mean / population-variance computation."""
    n, c, h, w = x.shape
    mean = np.zeros((n, c), dtype=np.float64)
    std = np.zeros((n, c), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            vals = [float(x[ni, ci, yi, xi]) for yi in range(h) for xi in range(w)]
            m = sum(vals) / len(vals)
            var = sum((v - m) ** 2 for v in vals) / len(vals)
            mean[ni, ci] = m
            std[ni, ci] = math.sqrt(var + eps)
    return mean, std


def gelu_naive(x: np.ndarray) -> np.ndarray:
    """Exact GELU, 0.5 * x * (1 + erf(x / sqrt 2)), one ``math.erf`` call per
    element in float64."""
    flat = [0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0)))
            for v in np.asarray(x, np.float64).ravel().tolist()]
    return np.array(flat, np.float64).reshape(np.shape(x))


def sigmoid_naive(x: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)) in extended precision."""
    with np.errstate(over="ignore"):  # exp(-x) = inf gives the right limit, 0
        out = 1.0 / (1.0 + np.exp(-np.asarray(x, np.longdouble)))
    return out.astype(np.float64)


def softmax_rows_naive(m: np.ndarray) -> np.ndarray:
    """Row softmax accumulated in extended precision."""
    m2 = m.reshape(-1, m.shape[-1]).astype(np.longdouble)
    out = np.zeros_like(m2)
    for r in range(m2.shape[0]):
        mx = m2[r].max()
        e = np.exp(m2[r] - mx)
        out[r] = e / e.sum()
    return out.reshape(m.shape).astype(np.float64)


def matmul_naive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    r, k = a.shape
    k2, c = b.shape
    assert k == k2
    out = np.zeros((r, c), dtype=a.dtype)
    for i in range(r):
        for j in range(c):
            acc = a.dtype.type(0.0)
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def bilinear_resize_naive(x: np.ndarray, out_h: int, out_w: int,
                          crop: int | None = None) -> np.ndarray:
    """Half-pixel-center bilinear resize of a float32 (n, c, h, w) tensor,
    one output element at a time in float32 scalars. Source coordinates are
    computed in float64 and each fraction rounded to float32 once; the blend
    is ``((a00 gx + a01 fx) gy) + ((a10 gx + a11 fx) fy)`` in that order.
    A uint8 tensor is read as pixels: each source value ``a`` is
    ``float32(a) / float32(255)``. With ``crop``, only the centered
    crop x crop window is returned."""
    n, c, h, w = x.shape
    scale = np.float32(255) if x.dtype == np.uint8 else None

    def at(p, y, x_):
        return p[y, x_] if scale is None else np.float32(p[y, x_]) / scale

    top, left, oh, ow = 0, 0, out_h, out_w
    if crop is not None:
        top, left, oh, ow = (out_h - crop) // 2, (out_w - crop) // 2, crop, crop

    def coord(i, out_n, in_n):
        s = min(max((i + 0.5) * (in_n / out_n) - 0.5, 0.0), in_n - 1.0)
        lo = math.floor(s)
        f = np.float32(s - lo)
        return lo, min(lo + 1, in_n - 1), f, np.float32(1) - f

    out = np.empty((n, c, oh, ow), np.float32)
    for oy in range(oh):
        y0, y1, fy, gy = coord(top + oy, out_h, h)
        for ox in range(ow):
            x0, x1, fx, gx = coord(left + ox, out_w, w)
            for ni in range(n):
                for ci in range(c):
                    p = x[ni, ci]
                    a = (at(p, y0, x0) * gx + at(p, y0, x1) * fx) * gy
                    b = (at(p, y1, x0) * gx + at(p, y1, x1) * fx) * fy
                    out[ni, ci, oy, ox] = a + b
    return out
