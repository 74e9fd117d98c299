"""Inference-time rewrites: BN folding and gate-map merging.

Both rewrites are exact in real arithmetic. ``fuse_model`` applies them to a
whole store, measures the float deviation of every rewrite on a random probe
batch, rejects a rewrite whose deviation is out of bounds, and returns a new
store; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor_ops as T
from .config import ModelSpec
from .model import Mlp, ParamStore, Stem, iter_param_schema, lower_store
from .tensor_ops import BnParams, ConvParams, ShapeError

PROBE_SEED = 0x5EED
# a rewrite passes when its probe deviation is at most this share of the
# largest magnitude in the probe's reference output
FUSE_RTOL = 1e-4


class FusionError(ValueError):
    """A rewrite's output drifted from the layers it replaces."""


@dataclass
class FusionReport:
    """Outcome of one fuse pass: per-rewrite max abs deviation on a probe
    batch and the number of tensors the rewrites removed."""

    deviations: dict[str, float] = field(default_factory=dict)
    tensors_removed: int = 0

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values(), default=0.0)


def fold_bn(conv: ConvParams, bn: BnParams) -> ConvParams:
    """Absorb a trailing inference-mode BN into the convolution."""
    if bn.channels != conv.out_ch:
        raise ShapeError(
            f"fold_bn: bn channels {bn.channels} != conv out_ch {conv.out_ch}")
    scale = bn.gamma / np.sqrt(bn.running_var + bn.eps)
    weight = (conv.weight * scale[:, None, None, None]).astype(np.float32, copy=False)
    bias = conv.bias if conv.bias is not None else np.zeros(conv.out_ch, np.float32)
    bias = ((bias - bn.running_mean) * scale + bn.beta).astype(np.float32, copy=False)
    return ConvParams(weight, bias, conv.stride, conv.padding, conv.groups)


def merge_patsp(mlp_conv2: ConvParams, map_conv: ConvParams) -> ConvParams:
    """Compose the 1-channel spatial-gate conv onto the second MLP conv.

    The result emits c+1 channels: the first c reproduce ``mlp_conv2``, the
    last one is the pre-hard-sigmoid gate logit.
    """
    for name, conv in (("mlp_conv2", mlp_conv2), ("map_conv", map_conv)):
        if conv.kh != 1 or conv.kw != 1 or conv.stride != 1 or conv.groups != 1:
            raise ShapeError(f"merge_patsp: {name} must be a plain 1x1 conv")
    c = mlp_conv2.out_ch
    if map_conv.in_ch != c or map_conv.out_ch != 1:
        raise ShapeError(
            f"merge_patsp: map conv must be ({c} -> 1), got "
            f"({map_conv.in_ch} -> {map_conv.out_ch})")

    w2 = mlp_conv2.weight.reshape(c, mlp_conv2.in_ch)
    b2 = (mlp_conv2.bias if mlp_conv2.bias is not None
          else np.zeros(c, np.float32))
    mw = map_conv.weight.reshape(c)
    mb = map_conv.bias[0] if map_conv.bias is not None else np.float32(0.0)

    weight = np.concatenate([w2, (mw @ w2)[None, :]], axis=0).astype(np.float32, copy=False)
    bias = np.concatenate([b2, [mw @ b2 + mb]]).astype(np.float32, copy=False)
    return ConvParams(weight.reshape(c + 1, mlp_conv2.in_ch, 1, 1), bias)


def _check(report: FusionReport, key: str, ref: np.ndarray, out: np.ndarray) -> None:
    """Record the deviation of ``out`` from ``ref`` under ``key``; raise
    ``FusionError`` unless it is within ``FUSE_RTOL`` of ``ref``'s scale
    (a NaN deviation never is)."""
    with np.errstate(invalid="ignore"):  # inf - inf: the NaN fails the check below
        deviation = float(np.abs(ref - out).max())
    report.deviations[key] = deviation
    scale = float(np.abs(ref).max())
    if not deviation <= FUSE_RTOL * scale:
        raise FusionError(f"{key}: probe deviation {deviation:.3e} exceeds "
                          f"{FUSE_RTOL:g} x the reference's max magnitude {scale:.3e}")


def _fold(rng, report: FusionReport, name: str, conv: ConvParams,
          bn: BnParams) -> ConvParams:
    fused = fold_bn(conv, bn)
    side = max(conv.kh, conv.stride) * 2
    x = rng.standard_normal((2, conv.in_ch, side, side), dtype=np.float32)
    _check(report, f"fold_bn:{name}", T.batch_norm_infer(T.conv2d(x, conv), bn),
           T.conv2d(x, fused))
    return fused


def _merge(rng, report: FusionReport, block: str, conv2: ConvParams,
           map_conv: ConvParams) -> ConvParams:
    merged = merge_patsp(conv2, map_conv)
    x = rng.standard_normal((2, conv2.in_ch, 4, 4), dtype=np.float32)
    m = T.conv2d(x, conv2)
    _check(report, f"merge_patsp:{block}",
           np.concatenate([m, T.conv2d(m, map_conv)], axis=1), T.conv2d(x, merged))
    return merged


def fuse_model(store: ParamStore, spec: ModelSpec) -> tuple[ParamStore, FusionReport]:
    """Fold every conv+BN pair and merge every spatial-gate map conv.

    The store is lowered once, with ``build_plan``'s shape checks but
    without its attention biases; each embed or merge ``Stem`` and each ``Mlp``
    of the plan is rewritten from its resolved parameters, in plan order, and
    the new convs are stored under their op's names in the fused schema's
    order. Raises ``FusionError`` when a rewrite's probe deviation is out of
    bounds (see ``FUSE_RTOL``).
    """
    if store.fused:
        raise ValueError("store is already fused")
    rng = np.random.default_rng(PROBE_SEED)
    report = FusionReport()
    out: dict[str, np.ndarray] = {}

    def put(name: str, conv: ConvParams):
        out[f"{name}.weight"], out[f"{name}.bias"] = conv.weight, conv.bias

    for op in lower_store(spec, store).ops:
        if isinstance(op, Stem):
            put(f"{op.name}.conv", _fold(rng, report, f"{op.name}.conv", op.conv, op.bn))
        elif isinstance(op, Mlp):
            put(f"{op.name}.conv1", _fold(rng, report, f"{op.name}.conv1", op.conv1, op.bn))
            if op.gate_map is not None:
                block = op.name.rpartition(".")[0]
                put(f"{op.name}.conv2m",
                    _merge(rng, report, block, op.conv2, op.gate_map.map_conv))

    tensors = {**store.tensors, **out}
    fused = {d.name: tensors[d.name] for d in iter_param_schema(spec, fused=True)}
    report.tensors_removed = len(store.tensors) - len(fused)
    return ParamStore(tensors=fused, fused=True), report
