"""The three partial attention blocks plus the plain partial-convolution
baseline.

Every block splits its input along channels: the first ``c_p`` channels go
through a regular convolution, the remaining "untouched" channels are
reweighted by an attention gate (copied, in plain partial convolution), and
``_partial`` writes both branches, in the original channel order, into one
fresh output. So no block returns memory shared with its input, except the
spatial gate of a split without untouched channels, which returns its input.
Setting ``c_p = 0`` turns a block into its full-attention counterpart;
``c_p = c_total`` degrades it to the dense convolution. The model's dense
and depthwise study arms are that case: ``pconv_forward`` over every
channel, which returns the conv's own output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor_ops import (
    ConvParams,
    ShapeError,
    _over_batch,
    _softmax_in_place,
    channel_stats,
    check_tensor4,
    conv2d,
    hard_sigmoid,
    matmul,
    relu,
    sigmoid,
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


def _partial(x: np.ndarray, s: PartialSplit, conv3: ConvParams | None,
             untouched, dtype) -> np.ndarray:
    """The output of a partial block. On this thread, ``conv3`` runs on the
    first ``s.c_p`` channels of ``x`` (None passes them through). Then one
    fresh output, of the result type of that branch and ``dtype``, is filled
    over batch slices: the conv branch in front, and behind it what
    ``untouched(lo, hi, out_u)`` writes for the untouched channels of images
    ``lo:hi``. Without untouched channels the conv branch is the output."""
    x_p = x[:, : s.c_p]
    y_p = x_p if conv3 is None or s.c_p == 0 else conv2d(x_p, conv3)
    if s.c_u == 0:
        return y_p
    out = np.empty(x.shape, np.result_type(y_p, dtype))

    def part(lo, hi):
        out[lo:hi, : s.c_p] = y_p[lo:hi]
        untouched(lo, hi, out[lo:hi, s.c_p :])

    _over_batch(part, len(x))
    return out


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
    """Per-(n, c) gate in (0, 1) computed from channel mean and std.

    Each image is its own one-row GEMM, ``(n, 1, k) @ (k, m)``, so its gate
    is computed as at batch 1 (see ``model.model_forward``)."""
    mean, std = channel_stats(x_u)
    z = np.concatenate([mean, std], axis=1)[:, None]
    if p.se_w1.shape[1] != z.shape[2]:
        raise ShapeError(
            f"se gate: stats width {z.shape[2]} != se_w1 input {p.se_w1.shape[1]}")
    h = relu(matmul(z, p.se_w1.T) + p.se_b1.astype(z.dtype, copy=False))
    return sigmoid(matmul(h, p.se_w2.T) + p.se_b2.astype(z.dtype, copy=False))[:, 0]


def pat_ch_forward(x: np.ndarray, p: PatChParams, s: PartialSplit) -> np.ndarray:
    x_u = channel_split(x, s)[1]
    if s.c_u == 0:  # nothing is gated, and the block has no gate head
        return _partial(x, s, p.conv3, None, x_u.dtype)
    gate = gaussian_se_gate(x_u, p)[:, :, None, None]
    return _partial(x, s, p.conv3, lambda lo, hi, out: np.multiply(
        x_u[lo:hi], gate[lo:hi], out=out), np.result_type(x_u, gate))


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
    x_u = channel_split(x, s)[1]
    return _partial(x, s, None, lambda lo, hi, out: np.multiply(
        x_u[lo:hi], a[lo:hi], out=out), np.result_type(x, a))


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
    ``rpe_hw``. The (heads, L, L) bias gathered from it is not kept here:
    ``pat_sf_forward`` makes it on every call (``attention_bias``).
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


@lru_cache(maxsize=32)
def relative_index_grid(h: int, w: int) -> np.ndarray:
    """(h*w, h*w) matrix of flattened relative-offset bin indices for
    row-major token order. Cached per extent and read-only, so every
    forward at one extent shares one grid."""
    ys, xs = np.divmod(np.arange(h * w), w)
    dy = ys[:, None] - ys[None, :] + (h - 1)
    dx = xs[:, None] - xs[None, :] + (w - 1)
    idx = dy * (2 * w - 1) + dx
    idx.flags.writeable = False
    return idx


def attention_bias(p: PatSfParams) -> np.ndarray:
    """(heads, L, L) additive pre-softmax bias from the learned table, made
    by ``pat_sf_forward`` on every call and freed when it returns."""
    return np.take(p.rpe_table, relative_index_grid(*p.rpe_hw), axis=1)


def pat_sf_forward(x: np.ndarray, p: PatSfParams, s: PartialSplit) -> np.ndarray:
    x_u = channel_split(x, s)[1]
    h, w = x_u.shape[2:]
    if (h, w) != p.rpe_hw:
        raise ShapeError(
            f"self-attention extent {h}x{w} does not match the "
            f"{p.rpe_hw[0]}x{p.rpe_hw[1]} relative-position table")
    dt = x_u.dtype
    if s.c_u == 0:  # nothing attends, and no position bias is built
        return _partial(x, s, p.conv3, None, dt)
    weights = [m.astype(dt, copy=False)
               for m in (p.wq.T, p.bq, p.wk.T, p.bk, p.wv.T, p.bv, p.wo.T, p.bo)]
    bias = attention_bias(p).astype(dt, copy=False)
    return _partial(x, s, p.conv3, lambda lo, hi, out: _attend(
        x_u[lo:hi], weights, bias, p.heads, out), dt)


# Per-image projection GEMMs of at most this many MACs are not folded over
# the batch. OpenBLAS (SkylakeX kernels) runs SGEMMs up to 100^3 MACs through
# a small-matrix kernel whose rows change bits with the row count, and
# 4 tokens x 192 x 192 does (a T0 block at 64 x 64 input); its blocked kernel
# above that gives every row the same bits for any row count.
_SMALL_GEMM_MACS = 1 << 20


def _attend(x_u: np.ndarray, weights: list, bias: np.ndarray, heads: int,
            out: np.ndarray) -> None:
    """Multi-head attention over the h * w tokens of ``x_u`` into ``out``;
    ``weights`` are the transposed projections and their biases, in q, k, v,
    output order, ``bias`` the (heads, L, L) position bias. Unless the
    per-image projections are small, the tokens of all ``n`` images are one
    contiguous (n * L, c_u) matrix and each projection one GEMM over it,
    bitwise equal to one GEMM per image."""
    wq, bq, wk, bk, wv, bv, wo, bo = weights
    n, c_u, h, w = x_u.shape
    L, d = h * w, c_u // heads
    dt = x_u.dtype
    tokens = x_u.reshape(n, c_u, L).transpose(0, 2, 1)  # (n, L, c_u)
    if L * c_u * c_u > _SMALL_GEMM_MACS:
        tokens = np.ascontiguousarray(tokens).reshape(n * L, c_u)

    def heads_view(m):  # (n * L, c_u) or (n, L, c_u) -> (n, heads, L, d)
        return m.reshape(n, L, heads, d).transpose(0, 2, 1, 3)

    qh, kh, vh = (heads_view(np.matmul(tokens, wm) + bm)
                  for wm, bm in ((wq, bq), (wk, bk), (wv, bv)))
    logits = np.matmul(qh, kh.transpose(0, 1, 3, 2)) / np.sqrt(d).astype(dt)
    logits += bias
    logits -= logits.max(axis=-1, keepdims=True)
    attn = _softmax_in_place(logits)
    ctx = np.matmul(attn, vh)  # (n, heads, L, d)
    ctx = ctx.transpose(0, 2, 1, 3).reshape(tokens.shape)
    y_u = np.matmul(ctx, wo) + bo
    out[:] = y_u.reshape(n, L, c_u).transpose(0, 2, 1).reshape(n, c_u, h, w)


# ---------------------------------------------------------------------------
# plain partial convolution baseline
# ---------------------------------------------------------------------------

def pconv_forward(x: np.ndarray, conv3: ConvParams, s: PartialSplit) -> np.ndarray:
    """Partial convolution: conv on the split branch, identity elsewhere."""
    x_u = channel_split(x, s)[1]
    return _partial(x, s, conv3, lambda lo, hi, out: np.copyto(out, x_u[lo:hi]),
                    x_u.dtype)
