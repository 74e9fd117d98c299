"""Analytic reverse-mode derivatives for the three attention blocks, checked
against central finite differences.

The scalar objective is always <upstream, block(x)>. Analytic gradients are
computed in the probe dtype (float32 by default, float64 for the tight
check); the numeric side always runs the forward in float64.

The blocks checked are the ones the engine builds: probe parameters are
drawn, and rebuilt into block parameters, by the lowering's own helpers in
``model.py`` (``_mixer`` for pat_ch and pat_sf, ``_gate_map`` for pat_sp),
so every name, shape, fan-in and conv setting comes from the one layer
layout. A probe tensor's name is its lowered name less the ``probe.<tag>.``
prefix, e.g. ``se.w1`` for ``probe.patch.se.w1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import model
from .blocks import (
    PartialSplit,
    pat_ch_forward,
    pat_sf_forward,
    pat_sp_forward,
    relative_index_grid,
)
from .config import BlockSpec
from .tensor_ops import ConvParams, channel_stats, conv2d, hard_sigmoid, sigmoid

KINK_MARGIN = 1e-2


@dataclass
class GradReport:
    """Per-tensor max relative error between analytic and numeric gradients."""

    block: str
    seed: int
    sizes: dict[str, int]
    tolerance: float
    errors: dict[str, float] = field(default_factory=dict)
    passed: bool = True

    @property
    def max_error(self) -> float:
        return max(self.errors.values(), default=0.0)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def finite_diff_grad(f, x: np.ndarray, h: float) -> np.ndarray:
    """Central differences (f(x+h e_i) - f(x-h e_i)) / 2h in float64."""
    if h <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# primitive vjps
# ---------------------------------------------------------------------------

def conv2d_vjp(x, p: ConvParams, upstream):
    """Gradients of <upstream, conv2d(x, p)> for a stride-1 convolution."""
    assert p.stride == 1 and p.groups == 1
    # input gradient: correlate upstream with the flipped, transposed kernel
    w_flip = p.weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    back = ConvParams(np.ascontiguousarray(w_flip), None,
                      padding=p.kh - 1 - p.padding)
    gx = conv2d(upstream, back)

    pad = p.padding
    xp = np.pad(x, ((0, 0), (0, 0), (pad,) * 2, (pad,) * 2)) if pad else x
    win = sliding_window_view(xp, (p.kh, p.kw), axis=(2, 3))
    gw = np.einsum("nayx,nbyxhw->abhw", upstream, win)
    gb = upstream.sum(axis=(0, 2, 3)) if p.bias is not None else None
    return gx, gw.astype(x.dtype), gb


def softmax_vjp(softmax_out, upstream):
    """Backprop through a row softmax given its output."""
    inner = (upstream * softmax_out).sum(axis=-1, keepdims=True)
    return softmax_out * (upstream - inner)


def _stats_vjp(x_u, mean, std, g_mean, g_std):
    hw = x_u.shape[2] * x_u.shape[3]
    gx = np.broadcast_to(g_mean[:, :, None, None] / hw, x_u.shape).copy()
    gx += g_std[:, :, None, None] * (x_u - mean[:, :, None, None]) / (hw * std[:, :, None, None])
    return gx


# ---------------------------------------------------------------------------
# per-block forward / vjp over flat parameter dicts
# ---------------------------------------------------------------------------

def _short(name: str) -> str:
    """A lowered tensor name less its ``probe.<tag>.`` prefix."""
    return name.split(".", 2)[2]


def _lower(kind: str, take, split: PartialSplit, rpe_hw, heads: int | None):
    """The block's parameters, built by the model's lowering helpers, which
    ask ``take`` for each tensor in storage order. Only the mixer fields of
    the ``BlockSpec`` are read, and the op's MACs are unused (extent 0)."""
    if kind == "pat_sp":
        return model._gate_map(take, "probe", split.c_total)
    b = BlockSpec(split.c_total, kind, split.c_p, None, 0, heads=heads)
    return model._mixer(take, "probe", b, rpe_hw, 0).params


def _as_params(kind: str, params: dict[str, np.ndarray], split: PartialSplit,
               rpe_hw, heads: int):
    return _lower(kind, lambda name, *_: params[_short(name)], split, rpe_hw, heads)


def block_apply(kind: str, params: dict[str, np.ndarray], x: np.ndarray,
                split: PartialSplit, rpe_hw=None, heads: int | None = None):
    return _kind(kind)[0](x, _as_params(kind, params, split, rpe_hw, heads), split)


# Each _<kind>_vjp returns (input grad, parameter grads, kink distance): the
# smallest distance of the block's relu or hard-sigmoid pre-activations to
# their kink, inf when the block has none.

def _conv3_vjp(p, x, split, up, gx, grads):
    """Backprop the split branch's 3x3 conv, when the block has one."""
    if p.conv3 is not None:
        cp = split.c_p
        gx[:, :cp], grads["conv3.weight"], _ = conv2d_vjp(x[:, :cp], p.conv3, up[:, :cp])


def _pat_ch_vjp(p, x, split, up):
    cp = split.c_p
    x_u, up_u = x[:, cp:], up[:, cp:]
    grads = {}
    gx = np.zeros_like(x)
    _conv3_vjp(p, x, split, up, gx, grads)
    if split.c_u == 0:  # the lowering built no gate
        return gx, grads, np.inf

    mean, std = channel_stats(x_u)
    z = np.concatenate([mean, std], axis=1)
    h_pre = z @ p.se_w1.T + p.se_b1
    h = np.maximum(h_pre, 0)
    g_pre = h @ p.se_w2.T + p.se_b2
    gate = sigmoid(g_pre)

    gx[:, cp:] = up_u * gate[:, :, None, None]
    d_gate = (up_u * x_u).sum(axis=(2, 3))
    d_gpre = d_gate * gate * (1.0 - gate)
    grads["se.b2"] = d_gpre.sum(axis=0)
    grads["se.w2"] = d_gpre.T @ h
    d_h = d_gpre @ p.se_w2
    d_hpre = d_h * (h_pre > 0)
    grads["se.b1"] = d_hpre.sum(axis=0)
    grads["se.w1"] = d_hpre.T @ z
    d_z = d_hpre @ p.se_w1
    c_u = split.c_u
    gx[:, cp:] += _stats_vjp(x_u, mean, std, d_z[:, :c_u], d_z[:, c_u:])
    return gx, grads, float(np.abs(h_pre).min())


def _pat_sp_vjp(p, x, split, up):
    cp = split.c_p
    x_u = x[:, cp:]
    up_u = up[:, cp:]
    a_pre = conv2d(x, p.map_conv)
    a = hard_sigmoid(a_pre)

    gx = up.copy()
    gx[:, cp:] = up_u * a
    d_a = (up_u * x_u).sum(axis=1, keepdims=True)
    inside = (a_pre > -3.0) & (a_pre < 3.0)
    d_apre = d_a * inside.astype(d_a.dtype) / 6.0
    gx_map, gw, gb = conv2d_vjp(x, p.map_conv, d_apre)
    gx += gx_map
    return gx, {"map.weight": gw, "map.bias": gb}, float(np.abs(np.abs(a_pre) - 3.0).min())


def _pat_sf_vjp(p, x, split, up):
    cp = split.c_p
    x_u, up_u = x[:, cp:], up[:, cp:]
    grads = {}
    gx = np.zeros_like(x)
    _conv3_vjp(p, x, split, up, gx, grads)
    if split.c_u == 0:  # nothing attends: block_vjp zero-fills its tensors
        return gx, grads, np.inf

    n, c_u, hh, ww = x_u.shape
    L = hh * ww
    heads, d = p.heads, p.head_dim
    t = x_u.reshape(n, c_u, L).transpose(0, 2, 1)
    q = t @ p.wq.T + p.bq
    k = t @ p.wk.T + p.bk
    v = t @ p.wv.T + p.bv

    def hview(m):
        return m.reshape(n, L, heads, d).transpose(0, 2, 1, 3)

    qh, kh, vh = hview(q), hview(k), hview(v)
    scale = 1.0 / np.sqrt(d)
    idx = relative_index_grid(hh, ww)
    bias = p.rpe_table[:, idx]
    logits = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale + bias[None]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    ctx = np.matmul(attn, vh)
    ctx_m = ctx.transpose(0, 2, 1, 3).reshape(n, L, c_u)

    d_out = up_u.reshape(n, c_u, L).transpose(0, 2, 1)
    grads["bo"] = d_out.sum(axis=(0, 1))
    grads["wo"] = np.einsum("nlo,nli->oi", d_out, ctx_m)
    d_ctx = (d_out @ p.wo).reshape(n, L, heads, d).transpose(0, 2, 1, 3)

    d_attn = np.matmul(d_ctx, vh.transpose(0, 1, 3, 2))
    d_vh = np.matmul(attn.transpose(0, 1, 3, 2), d_ctx)
    d_logits = softmax_vjp(attn, d_attn)

    g_rpe = np.zeros_like(p.rpe_table)
    d_bias = d_logits.sum(axis=0)  # (heads, L, L)
    for hi in range(heads):
        np.add.at(g_rpe[hi], idx.reshape(-1), d_bias[hi].reshape(-1))
    grads["rpe"] = g_rpe

    d_qh = np.matmul(d_logits, kh) * scale
    d_kh = np.matmul(d_logits.transpose(0, 1, 3, 2), qh) * scale

    def merge(m):
        return m.transpose(0, 2, 1, 3).reshape(n, L, c_u)

    d_q, d_k, d_v = merge(d_qh), merge(d_kh), merge(d_vh)
    d_t = np.zeros_like(t)
    for nm, dm in (("wq", d_q), ("wk", d_k), ("wv", d_v)):
        grads[nm] = np.einsum("nlo,nli->oi", dm, t)
        grads[f"b{nm[1]}"] = dm.sum(axis=(0, 1))
        d_t += dm @ getattr(p, nm)
    gx[:, cp:] = d_t.transpose(0, 2, 1).reshape(n, c_u, hh, ww)
    return gx, grads, np.inf


# kind -> (block function, vjp, default probe sizes)
_KINDS = {
    "pat_ch": (pat_ch_forward, _pat_ch_vjp, dict(channels=8, c_p=2, hw=4)),
    "pat_sp": (pat_sp_forward, _pat_sp_vjp, dict(channels=8, c_p=2, hw=4)),
    "pat_sf": (pat_sf_forward, _pat_sf_vjp, dict(channels=16, c_p=4, hw=3, heads=2)),
}
BLOCK_KINDS = tuple(_KINDS)


def _kind(kind: str) -> tuple:
    """The ``_KINDS`` entry of ``kind``."""
    if kind not in _KINDS:
        raise ValueError(f"unknown block kind {kind!r}")
    return _KINDS[kind]


def block_vjp(kind: str, params: dict[str, np.ndarray], x: np.ndarray,
              split: PartialSplit, upstream: np.ndarray,
              rpe_hw=None, heads: int | None = None):
    """Exact gradients of <upstream, block(x)> wrt the input and every
    parameter tensor. The hard-sigmoid uses subgradient 1/6 strictly inside
    (-3, 3) and 0 outside."""
    vjp = _kind(kind)[1]
    if upstream.shape != x.shape:
        raise ValueError(f"upstream shape {upstream.shape} != input {x.shape}")
    p = _as_params(kind, params, split, rpe_hw, heads)
    gx, grads, _ = vjp(p, x, split, upstream)
    for name, t in params.items():  # a tensor the block leaves unused
        grads.setdefault(name, np.zeros_like(t))
    return gx, grads


# ---------------------------------------------------------------------------
# probe construction and the checker
# ---------------------------------------------------------------------------

def _block_args(sizes: dict) -> tuple:
    """The (rpe_hw, heads) that the block of ``sizes`` is lowered with."""
    return (sizes["hw"], sizes["hw"]), sizes.get("heads")


def _draw(kind: str, rng, split: PartialSplit, rpe_hw, heads):
    """Probe parameters, by name and as the block's parameter object: each
    tensor normal(0, 1/sqrt(fan_in)), with fan-in 4 for the tensors the
    model initializes to constants (biases, position tables)."""
    params = {}

    def take(name, shape, init, fan_in):
        t = (rng.standard_normal(shape) / np.sqrt(fan_in or 4)).astype(np.float32)
        params[_short(name)] = t
        return t

    return params, _lower(kind, take, split, rpe_hw, heads)


def make_probe(kind: str, seed: int, sizes: dict | None = None):
    """Seeded probe (x, split, params, upstream); resamples anything that
    lands within the kink margin of relu or hard-sigmoid."""
    _, vjp, defaults = _kind(kind)
    sizes = dict(defaults, **(sizes or {}))
    hw = sizes["hw"]
    split = PartialSplit(sizes["channels"], sizes["c_p"])
    for attempt in range(64):
        rng = np.random.default_rng((seed, attempt))
        x = rng.standard_normal((1, sizes["channels"], hw, hw)).astype(np.float32)
        params, p = _draw(kind, rng, split, *_block_args(sizes))
        # the kink distance does not depend on the upstream, so x stands in
        if vjp(p, x, split, x)[2] > KINK_MARGIN:
            break
    upstream = rng.standard_normal(x.shape).astype(np.float32)
    return x, split, params, upstream, sizes


def gradcheck_block(kind: str, seed: int = 0, sizes: dict | None = None,
                    dtype=np.float32, tolerance: float = 1e-3,
                    corrupt: float | None = None) -> GradReport:
    """Compare the analytic block gradients against central differences.

    ``corrupt`` scales the largest analytic gradient entry by (1 + corrupt);
    the checker is expected to flag it, which is its own self test.
    """
    x, split, params, upstream, sizes = make_probe(kind, seed, sizes)
    h = 1e-3 if dtype == np.float32 else 1e-5
    rpe_hw, heads = _block_args(sizes)

    xd = x.astype(dtype)
    pd = {k: v.astype(dtype) for k, v in params.items()}
    upd = upstream.astype(dtype)
    gx, gparams = block_vjp(kind, pd, xd, split, upd, rpe_hw=rpe_hw, heads=heads)
    analytic = {"input": gx, **gparams}

    if corrupt is not None:
        flat_max = max(analytic, key=lambda k: np.abs(analytic[k]).max())
        t = analytic[flat_max].copy()
        i = np.unravel_index(np.abs(t).argmax(), t.shape)
        t[i] *= 1.0 + corrupt
        analytic[flat_max] = t

    p64 = {k: v.astype(np.float64) for k, v in params.items()}
    x64 = x.astype(np.float64)
    up64 = upstream.astype(np.float64)

    def objective(tensors: dict[str, np.ndarray], xin: np.ndarray) -> float:
        y = block_apply(kind, tensors, xin, split, rpe_hw=rpe_hw, heads=heads)
        return float((up64 * y).sum())

    report = GradReport(block=kind, seed=seed, sizes=sizes, tolerance=tolerance)
    numeric = {"input": finite_diff_grad(lambda v: objective(p64, v), x64, h)}
    for name in params:
        def f(v, _n=name):
            t = dict(p64)
            t[_n] = v
            return objective(t, x64)
        numeric[name] = finite_diff_grad(f, p64[name], h)

    for name, num in numeric.items():
        ana = analytic[name].astype(np.float64)
        err = np.abs(ana - num) / np.maximum(1.0, np.abs(num))
        report.errors[name] = float(err.max(initial=0.0))  # 0 for an empty tensor
    report.passed = all(e < tolerance for e in report.errors.values())
    return report
