"""Parameter store, the lowering with the parameter schema it records,
deterministic initialization, the execution plan and the end-to-end forward
pass.

Block layout inside a stage:

* stages 1-3 (single residual):  y = x + gate(mlp(mixer(x)))
* stage 4   (double residual):   y1 = x + mixer(x); y = y1 + gate(mlp(y1))

where ``mixer`` is the block's spatial-mixing operator, ``mlp`` is
conv1x1 -> BN -> activation -> conv1x1, and ``gate`` is the trailing
spatial-attention reweighting (absent in some study configurations).

``build_plan`` lowers a ``(ModelSpec, ParamStore)`` pair into a ``Plan``: a
flat tuple of typed ops (embed, merge, mixer, MLP with its gate, residual,
head), each holding its resolved parameter bundles, its MACs per image and a
stable name. Every mixer is one ``Mixer`` op, a partial block from
``blocks``; the dense and depthwise study arms run as partial convs over
every channel. The lowering is the one place that names, shapes and
initializes stored tensors: each is asked for through a ``take`` callable,
in storage order. ``build_plan``'s ``take`` reads the store, checking each
tensor's presence and shape; ``plan_and_schema``'s records a ``ParamDef``
and hands back a zero-stride stand-in, and that record is the schema
(``iter_param_schema``) that initialization, counting, fusion and
weight-file validation use. Work that depends only on the weights happens
in the lowering or, in ``build_plan``, once per op afterwards: building and
validating every ``ConvParams``/``BnParams``, and the attention biases. A
plan holds no other copy of the weights: each 3x3 conv call makes its own
tap-major copy (``ConvParams.taps_weight``). Whether the store is fused is
decided while lowering, never in the forward.
``model_forward`` builds the plan on its first call for a store and keeps it
on that store, so a store's tensors must not be mutated in place after its
first forward; build a new ``ParamStore`` instead.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import blocks as B
from . import tensor_ops as T
from .blocks import PartialSplit, PatChParams, PatSfParams, PatSpParams
from .config import CLASSIFIER_HIDDEN, NUM_CLASSES, BlockSpec, ModelSpec, check_extent
from .tensor_ops import BnParams, ConvParams, ShapeError

BN_EPS = 1e-5

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


@dataclass
class ParamStore:
    """Named tensors of one built model. Treat as immutable once created:
    the first forward caches an execution plan built from these tensors."""

    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    fused: bool = False
    plan: Plan | None = field(default=None, init=False, repr=False, compare=False)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def names(self) -> list[str]:
        return list(self.tensors)

    def total_elements(self) -> int:
        return sum(t.size for t in self.tensors.values())


@dataclass(frozen=True)
class ParamDef:
    """Name, shape and initializer of one stored tensor, as the lowering
    asks for it (see ``iter_param_schema``)."""

    name: str
    shape: tuple[int, ...]
    init: str  # normal | zeros | ones
    fan_in: int = 0


# Every op holds its MACs per image, and ``counting.count_flops`` is their sum.
# Conventions: a conv costs positions * out_ch * (in_ch / groups) * k^2; a
# fully-connected layer or matmul the product of its three dims; attention its
# q/k/v/o projections plus 2 * L^2 * width for the score and context GEMMs;
# each elementwise gating multiply costs one. Activations, softmax and
# normalization are free. A fused ``Mlp`` does not charge the gate-logit row
# merged into its second conv: that cost rides along in the widened conv, which
# is the point of the rewrite.

def _conv_macs(conv: ConvParams | None, hw: int) -> int:
    """MACs per image of ``conv`` over ``hw`` output positions."""
    if conv is None:
        return 0
    return hw * conv.out_ch * conv.weight.shape[1] * conv.kh * conv.kw


# ---------------------------------------------------------------------------
# plan ops
# ---------------------------------------------------------------------------
#
# Every op is called as op(held, skip) and returns its output. ``held`` is a
# one-slot list holding the op's input, which the op pops, so once the op is
# done with its input no reference to it is left (a caller's argument would
# stay alive for the whole call). Ops reach kernels and blocks through their
# modules (T.conv2d, B.pat_ch_forward) at call time, never through references
# taken while building: the per-layer tracer times a forward by rebinding
# those module attributes.

class _Op:
    # True when this op's output is the shortcut that the next Residual adds
    saves = False


@dataclass(frozen=True, eq=False)
class Stem(_Op):
    """Embedding or merging conv, then its BN, in place, unless the store is
    fused."""

    name: str
    macs: int
    conv: ConvParams
    bn: BnParams | None
    saves = True

    def __call__(self, held, skip):
        x = T.conv2d(held.pop(), self.conv)
        return x if self.bn is None else T.batch_norm_infer(x, self.bn, x)


@dataclass(frozen=True, eq=False)
class Mixer(_Op):
    """A partial block: ``forward`` names the ``blocks`` function that runs
    ``params`` over ``split``, looked up on every call."""

    name: str
    macs: int
    forward: str  # pat_ch_forward | pat_sf_forward | pconv_forward
    params: PatChParams | PatSfParams | ConvParams
    split: PartialSplit

    def __call__(self, held, skip):
        return getattr(B, self.forward)(held.pop(), self.params, self.split)


@dataclass(frozen=True, eq=False)
class Mlp(_Op):
    """conv1 -> BN -> activation -> conv2, then the spatial gate.

    ``gate`` is the gate's split, None without a gate. ``gate_map`` is the
    standalone map conv; when the gate is present but ``gate_map`` is None,
    the map is merged into ``conv2``, whose last output channel is the gate
    logit. ``bn`` is None once folded into ``conv1``. BN and the activation
    overwrite the output of ``conv1``. The input is popped straight into
    ``conv1``, so it is freed before ``conv2`` allocates, and no name holds
    the hidden tensor once ``conv2`` has run, so it is freed before the gate
    allocates. How many images it sees at once is ``model_forward``'s
    choice (``_prefix_chunks``).
    """

    name: str
    macs: int
    conv1: ConvParams
    bn: BnParams | None
    act: str
    conv2: ConvParams
    gate: PartialSplit | None
    gate_map: PatSpParams | None

    def __call__(self, held, skip):
        m = T.conv2d(self._hidden(held), self.conv2)
        if self.gate is None:
            return m
        if self.gate_map is not None:
            return B.pat_sp_forward(m, self.gate_map, self.gate)
        c = self.gate.c_total
        return B.apply_spatial_gate(m[:, :c], T.hard_sigmoid(m[:, c:]), self.gate)

    def _hidden(self, held):
        # ``out`` goes by position, so a wrapper that passes on only
        # positional arguments still sees every call
        h = T.conv2d(held.pop(), self.conv1)
        if self.bn is not None:
            T.batch_norm_infer(h, self.bn, h)
        return T.activation(h, self.act, h)


@dataclass(frozen=True, eq=False)
class Residual(_Op):
    """Adds the shortcut to the branch output in place. Every branch op
    returns a buffer of its own, never memory shared with its input (the
    partial blocks through ``blocks._partial``), so the add never writes
    into the shortcut."""

    name: str
    macs: int = 0
    saves = True

    def __call__(self, held, skip):
        x = held.pop()
        T._over_batch(lambda lo, hi: np.add(skip[lo:hi], x[lo:hi], out=x[lo:hi]), len(x))
        return x


@dataclass(frozen=True, eq=False)
class Head(_Op):
    """Global average pool, hidden fully-connected layer, activation and the
    classifier. Each image is its own one-row GEMM, ``(n, 1, k) @ (k, m)``,
    so its logits are computed as at batch 1 (see ``model_forward``)."""

    name: str
    macs: int
    conv_w: np.ndarray  # (hidden, c4)
    conv_b: np.ndarray
    fc_w: np.ndarray
    fc_b: np.ndarray
    act: str

    def __call__(self, held, skip):
        pooled = T.global_avg_pool(held.pop())[:, None]  # (n, 1, c4)
        hidden = T.activation(T.matmul(pooled, self.conv_w.T) + self.conv_b, self.act)
        return (T.matmul(hidden, self.fc_w.T) + self.fc_b)[:, 0]


@dataclass(frozen=True, eq=False)
class Plan:
    """The lowered model: ``ops`` run in order on the (n, 3, h, w) input."""

    spec: ModelSpec
    ops: tuple

    @property
    def macs(self) -> int:
        """MACs per image, the sum over the ops."""
        return sum(op.macs for op in self.ops)


def _run(ops, held: list) -> np.ndarray:
    """Run ``ops`` on the input in the one-slot list ``held``, which holds
    the next op's input until it pops it. Besides ``held`` the runner names
    only ``skip``, the output of the last op that saves (or the input), which
    the next Residual adds, so nothing names the input once an op that saves
    has consumed it."""
    skip = held[0]
    for op in ops:
        held.append(op(held, skip))
        if op.saves:
            skip = held[0]
    return held.pop()


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

# Each helper gets every tensor through ``take(name, shape, init, fan_in)``,
# in storage order; the module docstring says what each ``take`` does.

def _conv(take, name: str, out_ch: int, in_ch: int, k: int, stride: int = 1,
          padding: int = 0, groups: int = 1, bias: bool = False) -> ConvParams:
    fan_in = in_ch // groups * k * k
    weight = take(f"{name}.weight", (out_ch, in_ch // groups, k, k), "normal", fan_in)
    b = take(f"{name}.bias", (out_ch,), "zeros", 0) if bias else None
    return ConvParams(weight, b, stride, padding, groups)


def _bn(take, name: str, c: int) -> BnParams:
    return BnParams(take(f"{name}.gamma", (c,), "ones", 0),
                    take(f"{name}.beta", (c,), "zeros", 0),
                    take(f"{name}.mean", (c,), "zeros", 0),
                    take(f"{name}.var", (c,), "ones", 0), BN_EPS)


def _dense(take, w: str, b: str, out_dim: int, in_dim: int) -> tuple:
    """Weight and bias of a fully-connected layer."""
    return (take(w, (out_dim, in_dim), "normal", in_dim),
            take(b, (out_dim,), "zeros", 0))


def _stem(take, fused: bool, name: str, in_ch: int, out_ch: int, k: int,
          hw: int) -> Stem:
    conv = _conv(take, f"{name}.conv", out_ch, in_ch, k, stride=k, bias=fused)
    bn = None if fused else _bn(take, f"{name}.bn", out_ch)
    return Stem(name, _conv_macs(conv, hw), conv, bn)


def _mixer(take, prefix: str, b: BlockSpec, rpe_hw: tuple[int, int], hw: int) -> Mixer:
    name = f"{prefix}.mixer"
    c, cp = b.channels, b.mixer_cp
    split = PartialSplit(c, cp)
    c_u = split.c_u
    if b.mixer == "pat_ch":
        at = f"{prefix}.patch"
        conv = _conv(take, f"{at}.conv3", cp, cp, 3, padding=1) if cp > 0 else None
        if c_u == 0:
            return Mixer(name, _conv_macs(conv, hw), "pat_ch_forward",
                         PatChParams(conv), split)
        hid = B.se_hidden_width(c_u)
        w1, b1 = _dense(take, f"{at}.se.w1", f"{at}.se.b1", hid, 2 * c_u)
        w2, b2 = _dense(take, f"{at}.se.w2", f"{at}.se.b2", c_u, hid)
        gate = w1.size + w2.size + c_u * hw
        return Mixer(name, _conv_macs(conv, hw) + gate, "pat_ch_forward",
                     PatChParams(conv, w1, b1, w2, b2), split)
    if b.mixer == "pat_sf":
        at = f"{prefix}.patsf"
        conv = _conv(take, f"{at}.conv3", cp, cp, 3, padding=1) if cp > 0 else None
        proj = [t for m in "qkvo"
                for t in _dense(take, f"{at}.w{m}", f"{at}.b{m}", c_u, c_u)]
        bins = (2 * rpe_hw[0] - 1) * (2 * rpe_hw[1] - 1)
        p = PatSfParams(conv, *proj, heads=b.heads,
                        rpe_table=take(f"{at}.rpe", (b.heads, bins), "zeros", 0),
                        rpe_hw=rpe_hw)
        projections = hw * (p.wq.size + p.wk.size + p.wv.size + p.wo.size)
        macs = _conv_macs(conv, hw) + projections + 2 * hw * hw * c_u
        return Mixer(name, macs, "pat_sf_forward", p, split)
    # the dense and depthwise study arms are partial convs over every channel
    if b.mixer == "pconv":
        conv = _conv(take, f"{prefix}.pconv.conv3", cp, cp, 3, padding=1)
    elif b.mixer == "conv_dense":
        conv = _conv(take, f"{prefix}.conv.conv3", c, c, 3, padding=1)
        split = PartialSplit(c, c)
    elif b.mixer == "conv_dw":
        conv = _conv(take, f"{prefix}.dwconv.conv3", c, c, 3, padding=1, groups=c)
        split = PartialSplit(c, c)
    else:
        raise ValueError(f"unknown mixer {b.mixer!r}")
    return Mixer(name, _conv_macs(conv, hw), "pconv_forward", conv, split)


def _gate_map(take, prefix: str, c: int) -> PatSpParams:
    """The spatial gate's standalone 1x1 map conv over all ``c`` channels."""
    return PatSpParams(_conv(take, f"{prefix}.patsp.map", 1, c, 1, bias=True))


def _mlp(take, fused: bool, prefix: str, b: BlockSpec, act: str, hw: int) -> Mlp:
    c, hid = b.channels, b.mlp_hidden
    conv1 = _conv(take, f"{prefix}.mlp.conv1", hid, c, 1, bias=fused)
    bn = None if fused else _bn(take, f"{prefix}.mlp.bn", hid)
    gate = None if b.sp_cp is None else PartialSplit(c, b.sp_cp)
    gate_map = None
    if fused and gate is not None:
        # the gate map merged into the second conv: one extra output row,
        # the gate logit, which is not charged (see _conv_macs)
        conv2 = _conv(take, f"{prefix}.mlp.conv2m", c + 1, hid, 1, bias=True)
        conv2_macs = hw * c * hid
    else:
        conv2 = _conv(take, f"{prefix}.mlp.conv2", c, hid, 1, bias=True)
        conv2_macs = _conv_macs(conv2, hw)
        if gate is not None:
            gate_map = _gate_map(take, prefix, c)
    macs = _conv_macs(conv1, hw) + conv2_macs
    if gate is not None:
        macs += gate.c_u * hw + (_conv_macs(gate_map.map_conv, hw) if gate_map else 0)
    return Mlp(f"{prefix}.mlp", macs, conv1, bn, act, conv2, gate, gate_map)


def _block_ops(take, fused: bool, prefix: str, b: BlockSpec, act: str,
               rpe_hw: tuple[int, int], hw: int) -> list:
    mixer = _mixer(take, prefix, b, rpe_hw, hw)
    mlp = _mlp(take, fused, prefix, b, act, hw)
    if b.double_residual:
        return [mixer, Residual(f"{prefix}.residual1"),
                mlp, Residual(f"{prefix}.residual2")]
    return [mixer, mlp, Residual(f"{prefix}.residual")]


def _lower(spec: ModelSpec, take, fused: bool) -> Plan:
    widths, rpe_hw = spec.stage_channels, spec.final_hw
    h, w = spec.input_hw[0] // 4, spec.input_hw[1] // 4
    ops = [_stem(take, fused, "embed", 3, widths[0], 4, h * w)]
    for si, blocks in enumerate(spec.stages, start=1):
        if si > 1:
            h, w = h // 2, w // 2
            ops.append(_stem(take, fused, f"merge{si - 1}", widths[si - 2],
                             widths[si - 1], 2, h * w))
        for bi, b in enumerate(blocks):
            ops += _block_ops(take, fused, f"stage{si}.block{bi}", b, spec.activation,
                              rpe_hw, h * w)
    conv = _conv(take, "head.conv", CLASSIFIER_HIDDEN, widths[3], 1, bias=True)
    conv_w = conv.weight.reshape(CLASSIFIER_HIDDEN, -1)
    fc_w, fc_b = _dense(take, "head.fc.weight", "head.fc.bias", NUM_CLASSES,
                        CLASSIFIER_HIDDEN)
    ops.append(Head("head", conv_w.size + fc_w.size, conv_w, conv.bias, fc_w, fc_b,
                    spec.activation))
    return Plan(spec, tuple(ops))


def build_plan(spec: ModelSpec, store: ParamStore) -> Plan:
    """Lower ``spec`` over the tensors of ``store`` into a ``Plan``.

    Each tensor the lowering takes must be in ``store`` with the shape it
    asks for; the first that is missing or of another shape raises
    ``ShapeError``, naming it, before any kernel runs. The plan makes every
    ``pat_sf`` position bias now, so a forward allocates nothing that
    outlives it."""
    tensors = store.tensors

    def take(name, shape, init, fan_in):
        t = tensors.get(name)
        if t is None or t.shape != shape:
            got = "is missing" if t is None else f"has shape {t.shape}"
            raise ShapeError(f"tensor {name!r} {got}; {spec.label} expects shape {shape}")
        return t

    plan = _lower(spec, take, store.fused)
    for op in plan.ops:
        if isinstance(op, Mixer) and op.forward == "pat_sf_forward" and op.split.c_u:
            op.params.position_bias  # cached on the params, made here once
    return plan


@lru_cache(maxsize=None)
def _stand_in(shape: tuple[int, ...]) -> np.ndarray:
    """A read-only zero-stride float32 array of ``shape``."""
    return np.broadcast_to(np.float32(0), shape)


def plan_and_schema(spec: ModelSpec, fused: bool = False) -> tuple[Plan, list[ParamDef]]:
    """Lower ``spec`` over zero-stride stand-ins, recording every tensor the
    lowering takes: the plan (enough for its MACs) and the parameter schema,
    without allocating the weights of the large variants."""
    defs = []

    def take(name, shape, init, fan_in):
        defs.append(ParamDef(name, shape, init, fan_in))
        return _stand_in(shape)

    return _lower(spec, take, fused), defs


def iter_param_schema(spec: ModelSpec, fused: bool = False) -> list[ParamDef]:
    """The stored tensors of ``spec`` in their fixed order. The same list
    drives initialization, exact parameter counting, fusion's output order
    and weight-file validation, and it is what ``build_plan`` reads."""
    return plan_and_schema(spec, fused)[1]


def init_params(spec: ModelSpec, seed: int) -> ParamStore:
    """Deterministic store: normal(0, 1/sqrt(fan_in)) weights, identity BN,
    zero biases and zero relative-position tables."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for d in iter_param_schema(spec, fused=False):
        if d.init == "normal":
            t = rng.standard_normal(d.shape, dtype=np.float32)
            t /= np.float32(np.sqrt(d.fan_in))
        elif d.init == "ones":
            t = np.ones(d.shape, dtype=np.float32)
        else:
            t = np.zeros(d.shape, dtype=np.float32)
        tensors[d.name] = t
    return ParamStore(tensors=tensors, fused=False)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _keep_freed_heap() -> None:
    """Keep the memory a forward frees mapped for the next forward.

    By default glibc hands the top of the heap back to the kernel once about
    twice its largest recent block is free, so each forward faults its whole
    working set back in: about 1000 minor page faults, roughly a tenth of a
    T0 batch-1 forward. With these settings blocks up to 16 MB (every
    buffer of a T2 forward at batch 8, whose largest is the 6.4 MB hidden
    tensor of a 4-image stage-1 chunk) come from the heap and up to 256 MB
    of free heap stays mapped; larger blocks, such as a weight file being
    read, are still mapped and unmapped on their own. One arena serves every
    thread, so the batch-split pool threads reuse the same retained heap
    instead of growing an arena of their own (about 9 MB more peak RSS
    over 20 forwards of T2 at batch 8). Process-wide, so set once per
    process; a no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mallopt(_M_ARENA_MAX, 1)


# A batched forward runs its first ops over image chunks while an MLP among
# them would hold more than this in hidden tensor for the whole batch: 2 MiB
# for each of two threads, one core's L2 on the 2-vCPU Xeon this was sized
# on. A chunk holds at least one image per engine thread, so its kernels
# still split, and two per thread where the batch allows two such chunks:
# one image per thread ran 2-4% slower at batch 8. Each chunk costs a pool
# round trip per kernel, so the ops after that MLP's next merge run whole.
_CHUNK_BYTES = 4 << 20


def _prefix_chunks(ops, n: int, hw: tuple[int, int]) -> tuple[int, int]:
    """``(k, step)``: run ``ops[:k]`` over chunks of ``step`` images of an
    ``n``-image batch at extent ``hw``, then the rest over the whole batch.
    ``ops[k - 1]`` is the first ``Stem`` after the last MLP whose float32
    hidden tensor for the whole batch exceeds ``_CHUNK_BYTES``, so the
    chunks run that merge too and are gathered at its output, a quarter of
    the extent at twice the channels (``k`` is ``len(ops)`` when no stem
    follows it). ``(0, n)`` when nothing needs chunks or one chunk would
    hold the whole batch."""
    h, w = hw
    last, widest = -1, 0
    for i, op in enumerate(ops):
        if isinstance(op, Stem):
            h, w = T.conv_out_hw(h, w, op.conv)
        elif isinstance(op, Mlp):
            hidden = op.conv1.out_ch * h * w * 4  # float32 bytes per image
            if n * hidden > _CHUNK_BYTES:
                last, widest = i, max(widest, hidden)
    if not widest:
        return 0, n
    chunks = -(-n * widest // _CHUNK_BYTES)
    step = max(-(-n // chunks), T._THREADS, min(2 * T._THREADS, -(-n // 2)))
    if step >= n:
        return 0, n
    return next((i + 1 for i in range(last, len(ops)) if isinstance(ops[i], Stem)),
                len(ops)), step


def _run_chunks(ops, x: np.ndarray, step: int) -> np.ndarray:
    """``ops`` over contiguous chunks of ``step`` images of ``x``, each
    converted to float32 on its own. The outputs are gathered by one
    concatenate after the last chunk returns, so while a chunk runs only
    the outputs of the chunks before it are live, not a whole-batch buffer,
    and none outlives the gather."""
    chunks = [_run(ops, [np.ascontiguousarray(x[lo:lo + step], dtype=np.float32)])
              for lo in range(0, len(x), step)]
    return np.concatenate(chunks)


def model_forward(spec: ModelSpec, store: ParamStore, x: np.ndarray) -> np.ndarray:
    """Run the classifier end to end; returns (n, num_classes) logits.

    The first call for ``store`` (or for another ``spec``) builds its plan
    and keeps it on ``store.plan``; later calls only run it. The first plan
    built in the process also sets its heap policy (``_keep_freed_heap``).
    Each op pops its input from the runner (``_run``), so an activation is
    freed once the op that consumes it is done with it, unless it is the
    shortcut of a later residual add. Where an MLP's hidden tensor for the
    whole batch would exceed ``_CHUNK_BYTES``, the ops up to and including
    the merge after the last such MLP run over image chunks, whose merge
    outputs are concatenated once the last chunk is done, before the rest
    runs over the whole batch (``_prefix_chunks``, ``_run_chunks``). Every
    buffer a forward allocates, the output aside, is freed by its end: the
    plan made what outlives it. A batch of two or more runs with its
    kernels split across the engine's threads
    (``tensor_ops._split_batches``); the logits are bitwise those of a
    serial forward, whatever chunks the images run in. Each image's row is
    bitwise its batch-1 logits where numpy runs a stacked ``(n, 1, k) @
    (k, m)`` matmul one image at a time and OpenBLAS's SGEMM above 2^20 MACs
    gives rows whose bits do not depend on the row count
    (``blocks._SMALL_GEMM_MACS``); checked with numpy 2.4 and OpenBLAS
    0.3.31 on its SkylakeX kernels.
    """
    T.check_tensor4(x, "model input")
    n, c, h, w = x.shape
    if c != 3:
        raise ShapeError(f"model input must have 3 channels, got {c}")
    check_extent(h, w)
    if (h, w) != spec.input_hw:
        raise ShapeError(
            f"input extent {h}x{w} does not match the {spec.input_hw[0]}x"
            f"{spec.input_hw[1]} extent this spec (and its position tables) "
            f"was built for")
    plan = store.plan
    if plan is None or (plan.spec is not spec and plan.spec != spec):
        _keep_freed_heap()
        plan = store.plan = build_plan(spec, store)
    with T._split_batches(n):
        k, step = _prefix_chunks(plan.ops, n, (h, w))
        if not k:
            return _run(plan.ops, [np.ascontiguousarray(x, dtype=np.float32)])
        return _run(plan.ops[k:], [_run_chunks(plan.ops[:k], x, step)])
