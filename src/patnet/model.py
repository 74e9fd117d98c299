"""Parameter store, deterministic initialization, the execution plan and the
end-to-end forward pass.

Block layout inside a stage:

* stages 1-3 (single residual):  y = x + gate(mlp(mixer(x)))
* stage 4   (double residual):   y1 = x + mixer(x); y = y1 + gate(mlp(y1))

where ``mixer`` is the block's spatial-mixing operator, ``mlp`` is
conv1x1 -> BN -> activation -> conv1x1, and ``gate`` is the trailing
spatial-attention reweighting (absent in some study configurations).

``build_plan`` lowers a ``(ModelSpec, ParamStore)`` pair into a ``Plan``: a
flat tuple of typed ops (embed, merge, mixer, MLP with its gate, residual,
head), each holding its resolved parameter bundles, its MACs per image and a
stable name. All work that depends only on the weights happens there or once
per op afterwards: building and validating every ``ConvParams``/``BnParams``,
the tap-major 3x3 weights and the attention biases. Whether the store is
fused is decided while lowering, never in the forward. ``model_forward``
builds the plan on its first call for a store and keeps it on that store,
so a store's tensors must not be mutated in place after its first forward;
build a new ``ParamStore`` instead.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from . import blocks as B
from . import tensor_ops as T
from .blocks import PartialSplit, PatChParams, PatSfParams, PatSpParams
from .config import BlockSpec, ModelSpec, iter_param_schema
from .tensor_ops import BnParams, ConvParams, ShapeError

BN_EPS = 1e-5

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


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
# store -> typed parameter bundles
# ---------------------------------------------------------------------------

def _conv_from(store: ParamStore, name: str, stride: int = 1, padding: int = 0,
               groups: int = 1) -> ConvParams:
    bias = store[f"{name}.bias"] if f"{name}.bias" in store else None
    return ConvParams(store[f"{name}.weight"], bias, stride, padding, groups)


def _bn_from(store: ParamStore, name: str) -> BnParams:
    return BnParams(store[f"{name}.gamma"], store[f"{name}.beta"],
                    store[f"{name}.mean"], store[f"{name}.var"], BN_EPS)


def patch_params_from(store: ParamStore, prefix: str, b: BlockSpec) -> PatChParams:
    conv = (_conv_from(store, f"{prefix}.patch.conv3", padding=1)
            if b.mixer_cp > 0 else None)
    if b.channels - b.mixer_cp > 0:
        return PatChParams(conv,
                           store[f"{prefix}.patch.se.w1"],
                           store[f"{prefix}.patch.se.b1"],
                           store[f"{prefix}.patch.se.w2"],
                           store[f"{prefix}.patch.se.b2"])
    return PatChParams(conv)


def patsf_params_from(store: ParamStore, prefix: str, b: BlockSpec,
                      rpe_hw: tuple[int, int]) -> PatSfParams:
    conv = (_conv_from(store, f"{prefix}.patsf.conv3", padding=1)
            if b.mixer_cp > 0 else None)
    g = lambda k: store[f"{prefix}.patsf.{k}"]
    return PatSfParams(conv, g("wq"), g("bq"), g("wk"), g("bk"),
                       g("wv"), g("bv"), g("wo"), g("bo"),
                       heads=b.heads, rpe_table=g("rpe"), rpe_hw=rpe_hw)


def _conv_macs(conv: ConvParams | None, hw: int) -> int:
    """MACs per image of ``conv`` over ``hw`` output positions."""
    if conv is None:
        return 0
    return hw * conv.out_ch * conv.weight.shape[1] * conv.kh * conv.kw


# ---------------------------------------------------------------------------
# plan ops
# ---------------------------------------------------------------------------
#
# Every op is called as op(x, skip) and returns its output. Ops reach kernels
# and blocks through their modules (T.conv2d, B.pat_ch_forward) at call time,
# never through references taken while building: the per-layer tracer times
# a forward by rebinding those module attributes.

class _Op:
    # True when this op's output is the shortcut that the next Residual adds
    saves = False


@dataclass(frozen=True, eq=False)
class Stem(_Op):
    """Embedding or merging conv, then its BN unless the store is fused."""

    name: str
    macs: int
    conv: ConvParams
    bn: BnParams | None
    saves = True

    def __call__(self, x, skip):
        x = T.conv2d(x, self.conv)
        return x if self.bn is None else T.batch_norm_infer(x, self.bn)


@dataclass(frozen=True, eq=False)
class PatChMixer(_Op):
    name: str
    macs: int
    params: PatChParams
    split: PartialSplit

    def __call__(self, x, skip):
        return B.pat_ch_forward(x, self.params, self.split)


@dataclass(frozen=True, eq=False)
class PatSfMixer(_Op):
    name: str
    macs: int
    params: PatSfParams
    split: PartialSplit

    def __call__(self, x, skip):
        return B.pat_sf_forward(x, self.params, self.split)


@dataclass(frozen=True, eq=False)
class PConvMixer(_Op):
    name: str
    macs: int
    conv: ConvParams
    split: PartialSplit

    def __call__(self, x, skip):
        return B.pconv_forward(x, self.conv, self.split)


@dataclass(frozen=True, eq=False)
class ConvMixer(_Op):
    """Dense or depthwise 3x3 conv over all channels."""

    name: str
    macs: int
    conv: ConvParams

    def __call__(self, x, skip):
        return T.conv2d(x, self.conv)


@dataclass(frozen=True, eq=False)
class Mlp(_Op):
    """conv1 -> BN -> activation -> conv2, then the spatial gate.

    ``gate`` is the gate's split, None without a gate. ``gate_map`` is the
    standalone map conv; when the gate is present but ``gate_map`` is None,
    the map is merged into ``conv2``, whose last output channel is the gate
    logit. ``bn`` is None once folded into ``conv1``.
    """

    name: str
    macs: int
    conv1: ConvParams
    bn: BnParams | None
    act: str
    conv2: ConvParams
    gate: PartialSplit | None
    gate_map: PatSpParams | None

    def __call__(self, x, skip):
        h = T.conv2d(x, self.conv1)
        if self.bn is not None:
            h = T.batch_norm_infer(h, self.bn)
        m = T.conv2d(T.activation(h, self.act), self.conv2)
        if self.gate is None:
            return m
        if self.gate_map is not None:
            return B.pat_sp_forward(m, self.gate_map, self.gate)
        c = self.gate.c_total
        return B.apply_spatial_gate(m[:, :c], T.hard_sigmoid(m[:, c:]), self.gate)


@dataclass(frozen=True, eq=False)
class Residual(_Op):
    """Adds the shortcut to the branch output, in place when the branch
    output is a buffer of its own; a branch may return a view of its input
    (``channel_concat`` and ``apply_spatial_gate`` do when a side is empty)."""

    name: str
    macs: int = 0
    saves = True

    def __call__(self, x, skip):
        if np.may_share_memory(x, skip):
            return skip + x
        np.add(skip, x, out=x)
        return x


@dataclass(frozen=True, eq=False)
class Head(_Op):
    """Global average pool, hidden fully-connected layer, activation and the
    classifier."""

    name: str
    macs: int
    conv_w: np.ndarray  # (hidden, c4)
    conv_b: np.ndarray
    fc_w: np.ndarray
    fc_b: np.ndarray
    act: str

    def __call__(self, x, skip):
        pooled = T.global_avg_pool(x)  # (n, c4)
        hidden = T.activation(T.matmul(pooled, self.conv_w.T) + self.conv_b, self.act)
        return T.matmul(hidden, self.fc_w.T) + self.fc_b


@dataclass(frozen=True, eq=False)
class Plan:
    """The lowered model: ``ops`` run in order on the (n, 3, h, w) input."""

    spec: ModelSpec
    ops: tuple

    @property
    def macs(self) -> int:
        """MACs per image; equals ``counting.count_flops`` for the store."""
        return sum(op.macs for op in self.ops)


def _run(ops, x: np.ndarray) -> np.ndarray:
    # a Residual adds the output of the last op that saves, or ``x``
    skip = x
    for op in ops:
        x = op(x, skip)
        if op.saves:
            skip = x
    return x


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

def _stem(store: ParamStore, name: str, stride: int, hw: int) -> Stem:
    conv = _conv_from(store, f"{name}.conv", stride=stride)
    bn = None if store.fused else _bn_from(store, f"{name}.bn")
    return Stem(name, _conv_macs(conv, hw), conv, bn)


def _mixer(store: ParamStore, prefix: str, b: BlockSpec,
           rpe_hw: tuple[int, int], hw: int):
    name = f"{prefix}.mixer"
    split = PartialSplit(b.channels, b.mixer_cp)
    c_u = split.c_u
    if b.mixer == "pat_ch":
        p = patch_params_from(store, prefix, b)
        gate = p.se_w1.size + p.se_w2.size + c_u * hw if c_u > 0 else 0
        return PatChMixer(name, _conv_macs(p.conv3, hw) + gate, p, split)
    if b.mixer == "pat_sf":
        p = patsf_params_from(store, prefix, b, rpe_hw)
        projections = hw * (p.wq.size + p.wk.size + p.wv.size + p.wo.size)
        macs = _conv_macs(p.conv3, hw) + projections + 2 * hw * hw * c_u
        return PatSfMixer(name, macs, p, split)
    if b.mixer == "pconv":
        conv = _conv_from(store, f"{prefix}.pconv.conv3", padding=1)
        return PConvMixer(name, _conv_macs(conv, hw), conv, split)
    if b.mixer == "conv_dense":
        conv = _conv_from(store, f"{prefix}.conv.conv3", padding=1)
        return ConvMixer(name, _conv_macs(conv, hw), conv)
    if b.mixer == "conv_dw":
        conv = _conv_from(store, f"{prefix}.dwconv.conv3", padding=1,
                          groups=b.channels)
        return ConvMixer(name, _conv_macs(conv, hw), conv)
    raise ValueError(f"unknown mixer {b.mixer!r}")


def _mlp(store: ParamStore, prefix: str, b: BlockSpec, act: str, hw: int) -> Mlp:
    conv1 = _conv_from(store, f"{prefix}.mlp.conv1")
    bn = None if store.fused else _bn_from(store, f"{prefix}.mlp.bn")
    gate = None if b.sp_cp is None else PartialSplit(b.channels, b.sp_cp)
    gate_map = None
    if store.fused and gate is not None:
        conv2 = _conv_from(store, f"{prefix}.mlp.conv2m")
        # the merged gate-logit row is not charged (see counting.py)
        conv2_macs = hw * b.channels * conv2.in_ch
    else:
        conv2 = _conv_from(store, f"{prefix}.mlp.conv2")
        conv2_macs = _conv_macs(conv2, hw)
        if gate is not None:
            gate_map = PatSpParams(_conv_from(store, f"{prefix}.patsp.map"))
    macs = _conv_macs(conv1, hw) + conv2_macs
    if gate is not None:
        macs += gate.c_u * hw + (_conv_macs(gate_map.map_conv, hw) if gate_map else 0)
    return Mlp(f"{prefix}.mlp", macs, conv1, bn, act, conv2, gate, gate_map)


def _block_ops(store: ParamStore, prefix: str, b: BlockSpec, act: str,
               rpe_hw: tuple[int, int], hw: int) -> list:
    mixer = _mixer(store, prefix, b, rpe_hw, hw)
    mlp = _mlp(store, prefix, b, act, hw)
    if b.double_residual:
        return [mixer, Residual(f"{prefix}.residual1"),
                mlp, Residual(f"{prefix}.residual2")]
    return [mixer, mlp, Residual(f"{prefix}.residual")]


def build_plan(spec: ModelSpec, store: ParamStore) -> Plan:
    """Lower ``spec`` over the tensors of ``store`` into a ``Plan``."""
    h, w = spec.input_hw[0] // 4, spec.input_hw[1] // 4
    ops = [_stem(store, "embed", 4, h * w)]
    for si, blocks in enumerate(spec.stages, start=1):
        if si > 1:
            h, w = h // 2, w // 2
            ops.append(_stem(store, f"merge{si - 1}", 2, h * w))
        for bi, b in enumerate(blocks):
            ops += _block_ops(store, f"stage{si}.block{bi}", b, spec.activation,
                              spec.final_hw, h * w)
    hidden = spec.config.classifier_hidden
    conv_w = store["head.conv.weight"].reshape(hidden, -1)
    fc_w = store["head.fc.weight"]
    ops.append(Head("head", conv_w.size + fc_w.size, conv_w, store["head.conv.bias"],
                    fc_w, store["head.fc.bias"], spec.activation))
    return Plan(spec, tuple(ops))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def _keep_freed_heap() -> None:
    """Keep the memory a forward frees mapped for the next forward.

    By default glibc hands the top of the heap back to the kernel once about
    twice its largest recent block is free, so each forward faults its whole
    working set back in: about 1000 minor page faults, roughly a tenth of a
    T0 batch-1 forward. With these settings blocks up to 16 MB (every
    activation of T2 at batch 8) come from the heap and up to 256 MB of
    free heap stays mapped; larger blocks, such as a weight file being read,
    are still mapped and unmapped on their own. Process-wide; a no-op where
    the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def block_forward(x, store: ParamStore, prefix: str, b: BlockSpec, act: str,
                  rpe_hw: tuple[int, int]):
    """One residual block, lowered from ``store`` for this call."""
    return _run(_block_ops(store, prefix, b, act, rpe_hw, x.shape[2] * x.shape[3]), x)


def model_forward(spec: ModelSpec, store: ParamStore, x: np.ndarray) -> np.ndarray:
    """Run the classifier end to end; returns (n, num_classes) logits.

    The first call for ``store`` (or for another ``spec``) builds its plan
    and keeps it on ``store.plan``; later calls only run it. Building a plan
    also sets the process's heap policy (``_keep_freed_heap``).
    """
    T.check_tensor4(x, "model input")
    n, c, h, w = x.shape
    if c != 3:
        raise ShapeError(f"model input must have 3 channels, got {c}")
    if h % 32 != 0 or w % 32 != 0:
        raise ShapeError(f"input extent {h}x{w} not divisible by 32")
    if (h, w) != spec.input_hw:
        raise ShapeError(
            f"input extent {h}x{w} does not match the {spec.input_hw[0]}x"
            f"{spec.input_hw[1]} extent this spec (and its position tables) "
            f"was built for")
    plan = store.plan
    if plan is None or (plan.spec is not spec and plan.spec != spec):
        _keep_freed_heap()
        plan = store.plan = build_plan(spec, store)
    return _run(plan.ops, np.ascontiguousarray(x, dtype=np.float32))
