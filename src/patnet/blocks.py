"""The three partial attention blocks plus the plain partial-convolution
baseline.

Every block splits its input along channels: the first ``c_p`` channels go
through a regular convolution, the remaining "untouched" channels are
reweighted by an attention gate, and the two halves are concatenated back in
the original order. Setting ``c_p = 0`` turns a block into its full-attention
counterpart; ``c_p = c_total`` degrades it to the dense convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor_ops import (
    ConvParams,
    ShapeError,
    channel_stats,
    check_tensor4,
    conv2d,
    hard_sigmoid,
    matmul,
    relu,
    sigmoid,
    softmax_rows,
)


def se_hidden_width(c_untouched: int) -> int:
    """Bottleneck width of the statistics gate head for ``c_untouched``
    gated channels (the head input is the 2x wider [mean; std] vector)."""
    return max(8, c_untouched)


@dataclass(frozen=True)
class PartialSplit:
    """Channel split contract: the FIRST ``c_p`` channels form the
    convolution branch, the rest are the untouched branch."""

    c_total: int
    c_p: int

    def __post_init__(self):
        if not 0 <= self.c_p <= self.c_total:
            raise ShapeError(f"split c_p {self.c_p} outside [0, {self.c_total}]")

    @property
    def c_u(self) -> int:
        return self.c_total - self.c_p


def channel_split(x: np.ndarray, s: PartialSplit) -> tuple[np.ndarray, np.ndarray]:
    check_tensor4(x, "channel_split input")
    if x.shape[1] != s.c_total:
        raise ShapeError(
            f"channel_split: input channels {x.shape[1]} != split total {s.c_total}")
    return x[:, : s.c_p], x[:, s.c_p :]


def channel_concat(x_p: np.ndarray, x_u: np.ndarray) -> np.ndarray:
    """Stack the conv-branch channels back in front of the untouched ones."""
    if x_p.shape[1] == 0:
        return x_u
    if x_u.shape[1] == 0:
        return x_p
    if x_p.shape[0] != x_u.shape[0] or x_p.shape[2:] != x_u.shape[2:]:
        raise ShapeError(
            f"channel_concat: spatial/batch mismatch {x_p.shape} vs {x_u.shape}")
    return np.concatenate([x_p, x_u], axis=1)


# ---------------------------------------------------------------------------
# channel attention
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatChParams:
    """Partial channel-attention block: 3x3 conv on the split branch and a
    Gaussian-statistics SE gate on the untouched branch.

    ``se_w1`` maps the concatenated [mean; std] vector (length 2*c_u) to the
    hidden width, ``se_w2`` maps back to one logistic gate per untouched
    channel.
    """

    conv3: ConvParams | None
    se_w1: np.ndarray | None = None
    se_b1: np.ndarray | None = None
    se_w2: np.ndarray | None = None
    se_b2: np.ndarray | None = None


def gaussian_se_gate(x_u: np.ndarray, p: PatChParams) -> np.ndarray:
    """Per-(n, c) gate in (0, 1) computed from channel mean and std."""
    mean, std = channel_stats(x_u)
    z = np.concatenate([mean, std], axis=1)
    if p.se_w1.shape[1] != z.shape[1]:
        raise ShapeError(
            f"se gate: stats width {z.shape[1]} != se_w1 input {p.se_w1.shape[1]}")
    h = relu(matmul(z, p.se_w1.T) + p.se_b1.astype(z.dtype, copy=False))
    return sigmoid(matmul(h, p.se_w2.T) + p.se_b2.astype(z.dtype, copy=False))


def pat_ch_forward(x: np.ndarray, p: PatChParams, s: PartialSplit) -> np.ndarray:
    x_p, x_u = channel_split(x, s)
    y_p = conv2d(x_p, p.conv3) if s.c_p > 0 else x_p
    if s.c_u == 0:
        return y_p
    gate = gaussian_se_gate(x_u, p)[:, :, None, None]
    out = np.empty(x.shape, np.result_type(y_p, x_u, gate))
    out[:, : s.c_p] = y_p
    np.multiply(x_u, gate, out=out[:, s.c_p :])
    return out


# ---------------------------------------------------------------------------
# spatial attention
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatSpParams:
    """Partial spatial-attention block: a pointwise conv squeezes all input
    channels into one spatial map which, after a hard-sigmoid, reweights the
    untouched channels. The split branch passes through unchanged."""

    map_conv: ConvParams

    def __post_init__(self):
        if self.map_conv.out_ch != 1:
            raise ShapeError("spatial map conv must emit exactly 1 channel")
        if self.map_conv.kh != 1 or self.map_conv.kw != 1:
            raise ShapeError("spatial map conv must be 1x1")


def pat_sp_forward(x: np.ndarray, p: PatSpParams, s: PartialSplit) -> np.ndarray:
    a = hard_sigmoid(conv2d(x, p.map_conv))
    return apply_spatial_gate(x, a, s)


def apply_spatial_gate(x: np.ndarray, a: np.ndarray, s: PartialSplit) -> np.ndarray:
    """Multiply the untouched channels of ``x`` by the (n, 1, h, w) map."""
    x_p, x_u = channel_split(x, s)
    if s.c_u == 0:
        return x
    out = np.empty(x.shape, np.result_type(x, a))
    out[:, : s.c_p] = x_p
    np.multiply(x_u, a, out=out[:, s.c_p :])
    return out


# ---------------------------------------------------------------------------
# self attention
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatSfParams:
    """Partial self-attention block for one fixed spatial extent.

    The untouched channels are flattened to h*w tokens and run through
    multi-head attention with an additive learned relative-position bias;
    the split branch keeps the usual 3x3 conv.

    ``rpe_table`` is (heads, (2H-1)*(2W-1)), indexed by the flattened
    relative offset (dy + H - 1, dx + W - 1) for the extent (H, W) given in
    ``rpe_hw``.
    """

    conv3: ConvParams | None
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    heads: int
    rpe_table: np.ndarray
    rpe_hw: tuple[int, int]

    def __post_init__(self):
        c_u = self.wq.shape[0]
        if c_u % self.heads != 0:
            raise ShapeError(f"c_u {c_u} not divisible by heads {self.heads}")
        hh, ww = self.rpe_hw
        bins = (2 * hh - 1) * (2 * ww - 1)
        if self.rpe_table.shape != (self.heads, bins):
            raise ShapeError(
                f"rpe table shape {self.rpe_table.shape} != ({self.heads}, {bins})")

    @property
    def head_dim(self) -> int:
        return self.wq.shape[0] // self.heads

    @cached_property
    def position_bias(self) -> np.ndarray:
        """``attention_bias`` of these parameters, computed on first use."""
        return attention_bias(self)


def relative_index_grid(h: int, w: int) -> np.ndarray:
    """(h*w, h*w) matrix of flattened relative-offset bin indices for
    row-major token order."""
    ys, xs = np.divmod(np.arange(h * w), w)
    dy = ys[:, None] - ys[None, :] + (h - 1)
    dx = xs[:, None] - xs[None, :] + (w - 1)
    return dy * (2 * w - 1) + dx


def attention_bias(p: PatSfParams) -> np.ndarray:
    """(heads, L, L) additive pre-softmax bias from the learned table."""
    idx = relative_index_grid(*p.rpe_hw)
    return p.rpe_table[:, idx]


def pat_sf_forward(x: np.ndarray, p: PatSfParams, s: PartialSplit) -> np.ndarray:
    x_p, x_u = channel_split(x, s)
    n, c_u, h, w = x_u.shape
    if (h, w) != p.rpe_hw:
        raise ShapeError(
            f"self-attention extent {h}x{w} does not match the "
            f"{p.rpe_hw[0]}x{p.rpe_hw[1]} relative-position table")

    y_p = conv2d(x_p, p.conv3) if s.c_p > 0 else x_p
    if c_u == 0:
        return y_p

    L = h * w
    d = p.head_dim
    tokens = x_u.reshape(n, c_u, L).transpose(0, 2, 1)  # (n, L, c_u)
    dt = tokens.dtype
    q = matmul(tokens, p.wq.T.astype(dt, copy=False)) + p.bq.astype(dt, copy=False)
    k = matmul(tokens, p.wk.T.astype(dt, copy=False)) + p.bk.astype(dt, copy=False)
    v = matmul(tokens, p.wv.T.astype(dt, copy=False)) + p.bv.astype(dt, copy=False)

    def heads_view(m):  # (n, L, c_u) -> (n, heads, L, d)
        return m.reshape(n, L, p.heads, d).transpose(0, 2, 1, 3)

    qh, kh, vh = heads_view(q), heads_view(k), heads_view(v)
    logits = np.matmul(qh, kh.transpose(0, 1, 3, 2)) / np.sqrt(d).astype(dt)
    logits += p.position_bias.astype(dt, copy=False)
    attn = softmax_rows(logits)
    ctx = np.matmul(attn, vh)  # (n, heads, L, d)
    ctx = ctx.transpose(0, 2, 1, 3).reshape(n, L, c_u)
    y_u = matmul(ctx, p.wo.T.astype(dt, copy=False)) + p.bo.astype(dt, copy=False)
    # both branches go straight into one output buffer, no concat copy
    out = np.empty(x.shape, np.result_type(y_p, y_u))
    out[:, : s.c_p] = y_p
    out[:, s.c_p :] = y_u.transpose(0, 2, 1).reshape(n, c_u, h, w)
    return out


# ---------------------------------------------------------------------------
# plain partial convolution baseline
# ---------------------------------------------------------------------------

def pconv_forward(x: np.ndarray, conv3: ConvParams, s: PartialSplit) -> np.ndarray:
    """Partial convolution: conv on the split branch, identity elsewhere."""
    x_p, x_u = channel_split(x, s)
    y_p = conv2d(x_p, conv3) if s.c_p > 0 else x_p
    return channel_concat(y_p, x_u)
