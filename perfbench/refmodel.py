"""Independent float64 oracle for the benchmark's output check.

This re-derives the unfused PATNet forward pass and the eval preprocessing
directly from the stored tensors and the model spec, in float64, without
calling any kernel, block, model or imageio code of the engine. The engine's
fused and unfused float32 paths are both checked against it, so a kernel
rewrite that changes results shows up even when it changes every path alike.

Only the mixers the benchmark's variants use (``pat_ch`` and ``pat_sf``) are
implemented.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

BN_EPS = 1e-5
STAT_EPS = 1e-5
IMAGENET_MEAN = np.array([0.485, 0.456, 0.406])
IMAGENET_STD = np.array([0.229, 0.224, 0.225])


def _conv(x, w, b=None, stride=1, pad=0):
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    kh, kw = w.shape[2:]
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.einsum("nchwij,ocij->nohw", win, w, optimize=True)
    if b is not None:
        out = out + b[None, :, None, None]
    return out


def _bn(x, t, name):
    scale = t[f"{name}.gamma"] / np.sqrt(t[f"{name}.var"] + BN_EPS)
    shift = t[f"{name}.beta"] - t[f"{name}.mean"] * scale
    return x * scale[None, :, None, None] + shift[None, :, None, None]


def _act(x, kind):
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "gelu":
        return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    raise ValueError(f"unsupported activation {kind!r}")


def _pat_ch(x, t, prefix, cp):
    y_p = _conv(x[:, :cp], t[f"{prefix}.patch.conv3.weight"], pad=1)
    x_u = x[:, cp:]
    z = np.concatenate([x_u.mean(axis=(2, 3)),
                        np.sqrt(x_u.var(axis=(2, 3)) + STAT_EPS)], axis=1)
    h = np.maximum(z @ t[f"{prefix}.patch.se.w1"].T + t[f"{prefix}.patch.se.b1"], 0.0)
    g = 1.0 / (1.0 + np.exp(-(h @ t[f"{prefix}.patch.se.w2"].T
                              + t[f"{prefix}.patch.se.b2"])))
    return np.concatenate([y_p, x_u * g[:, :, None, None]], axis=1)


def _pat_sf(x, t, prefix, cp, heads):
    y_p = _conv(x[:, :cp], t[f"{prefix}.patsf.conv3.weight"], pad=1)
    x_u = x[:, cp:]
    n, c_u, h, w = x_u.shape
    L, d = h * w, c_u // heads
    tok = x_u.reshape(n, c_u, L).transpose(0, 2, 1)
    g = lambda k: t[f"{prefix}.patsf.{k}"]

    def proj(m):
        return (tok @ g(f"w{m}").T + g(f"b{m}")).reshape(n, L, heads, d).transpose(0, 2, 1, 3)

    q, k, v = proj("q"), proj("k"), proj("v")
    ys, xs = np.divmod(np.arange(L), w)
    idx = ((ys[:, None] - ys[None, :] + h - 1) * (2 * w - 1)
           + xs[:, None] - xs[None, :] + w - 1)
    logits = q @ k.transpose(0, 1, 3, 2) / np.sqrt(d) + g("rpe")[:, idx][None]
    logits = np.exp(logits - logits.max(axis=-1, keepdims=True))
    attn = logits / logits.sum(axis=-1, keepdims=True)
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(n, L, c_u)
    y_u = (ctx @ g("wo").T + g("bo")).transpose(0, 2, 1).reshape(n, c_u, h, w)
    return np.concatenate([y_p, y_u], axis=1)


def _mlp_gate(x, t, prefix, b, act):
    h = _act(_bn(_conv(x, t[f"{prefix}.mlp.conv1.weight"]), t, f"{prefix}.mlp.bn"), act)
    m = _conv(h, t[f"{prefix}.mlp.conv2.weight"], t[f"{prefix}.mlp.conv2.bias"])
    if b.sp_cp is None:
        return m
    logit = _conv(m, t[f"{prefix}.patsp.map.weight"], t[f"{prefix}.patsp.map.bias"])
    a = np.clip((logit + 3.0) / 6.0, 0.0, 1.0)
    return np.concatenate([m[:, : b.sp_cp], m[:, b.sp_cp:] * a], axis=1)


def reference_logits(spec, tensors: dict, x: np.ndarray) -> np.ndarray:
    """(n, classes) float64 logits of the unfused model ``tensors`` on ``x``."""
    t = {k: np.asarray(v, dtype=np.float64) for k, v in tensors.items()}
    act = spec.activation
    x = np.asarray(x, dtype=np.float64)
    x = _bn(_conv(x, t["embed.conv.weight"], stride=4), t, "embed.bn")
    for si, blocks in enumerate(spec.stages, start=1):
        if si > 1:
            x = _bn(_conv(x, t[f"merge{si - 1}.conv.weight"], stride=2), t,
                    f"merge{si - 1}.bn")
        for bi, b in enumerate(blocks):
            prefix = f"stage{si}.block{bi}"
            if b.mixer == "pat_ch":
                mix = lambda z: _pat_ch(z, t, prefix, b.mixer_cp)
            elif b.mixer == "pat_sf":
                mix = lambda z: _pat_sf(z, t, prefix, b.mixer_cp, b.heads)
            else:
                raise ValueError(f"unsupported mixer {b.mixer!r}")
            if b.double_residual:
                x = x + mix(x)
                x = x + _mlp_gate(x, t, prefix, b, act)
            else:
                x = x + _mlp_gate(mix(x), t, prefix, b, act)
    pooled = x.mean(axis=(2, 3))
    wc = t["head.conv.weight"].reshape(t["head.conv.weight"].shape[0], -1)
    hidden = _act(pooled @ wc.T + t["head.conv.bias"], act)
    return hidden @ t["head.fc.weight"].T + t["head.fc.bias"]


def _resize_axis(out_n, in_n):
    src = np.clip((np.arange(out_n) + 0.5) * (in_n / out_n) - 0.5, 0.0, in_n - 1)
    lo = np.floor(src).astype(np.int64)
    return lo, np.minimum(lo + 1, in_n - 1), src - lo


def reference_preprocess(pixels: np.ndarray, crop: int = 224) -> np.ndarray:
    """(h, w, 3) uint8 pixels -> (1, 3, crop, crop) float64 model input:
    half-pixel bilinear resize of the shorter side to round(crop / 0.9),
    center crop, ImageNet standardization."""
    img = pixels.astype(np.float64).transpose(2, 0, 1) / 255.0
    _, h, w = img.shape
    short = round(crop / 0.9)
    if h <= w:
        oh, ow = short, max(1, round(w * short / h))
    else:
        oh, ow = max(1, round(h * short / w)), short
    y0, y1, fy = _resize_axis(oh, h)
    x0, x1, fx = _resize_axis(ow, w)
    rows = img[:, y0] * (1 - fy)[None, :, None] + img[:, y1] * fy[None, :, None]
    out = rows[:, :, x0] * (1 - fx) + rows[:, :, x1] * fx
    top, left = (oh - crop) // 2, (ow - crop) // 2
    out = out[:, top: top + crop, left: left + crop]
    out = (out - IMAGENET_MEAN[:, None, None]) / IMAGENET_STD[:, None, None]
    return out[None]
