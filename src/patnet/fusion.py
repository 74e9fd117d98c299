"""Inference-time rewrites: BN folding and gate-map merging.

Both rewrites are exact in real arithmetic. ``fuse_model`` applies them to a
whole store, measures the float deviation of every rewrite on a random probe
batch, and returns a new store; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor_ops as T
from .config import ModelSpec, iter_param_schema
from .model import ParamStore, _bn_from
from .tensor_ops import BnParams, ConvParams, ShapeError

PROBE_SEED = 0x5EED


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
    weight = (conv.weight * scale[:, None, None, None]).astype(np.float32)
    bias = conv.bias if conv.bias is not None else np.zeros(conv.out_ch, np.float32)
    bias = ((bias - bn.running_mean) * scale + bn.beta).astype(np.float32)
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

    weight = np.concatenate([w2, (mw @ w2)[None, :]], axis=0).astype(np.float32)
    bias = np.concatenate([b2, [mw @ b2 + mb]]).astype(np.float32)
    return ConvParams(weight.reshape(c + 1, mlp_conv2.in_ch, 1, 1), bias)


def _probe_conv_bn(rng, conv: ConvParams, bn: BnParams, fused: ConvParams) -> float:
    side = max(conv.kh, conv.stride) * 2
    x = rng.standard_normal((2, conv.in_ch, side, side), dtype=np.float32)
    y_ref = T.batch_norm_infer(T.conv2d(x, conv), bn)
    y_fused = T.conv2d(x, fused)
    return float(np.abs(y_ref - y_fused).max())


def _probe_merge(rng, conv2: ConvParams, map_conv: ConvParams,
                 merged: ConvParams) -> float:
    x = rng.standard_normal((2, conv2.in_ch, 4, 4), dtype=np.float32)
    m = T.conv2d(x, conv2)
    ref = np.concatenate([m, T.conv2d(m, map_conv)], axis=1)
    return float(np.abs(ref - T.conv2d(x, merged)).max())


def fuse_model(store: ParamStore, spec: ModelSpec) -> tuple[ParamStore, FusionReport]:
    """Fold every conv+BN pair and merge every spatial-gate map conv."""
    if store.fused:
        raise ValueError("store is already fused")
    rng = np.random.default_rng(PROBE_SEED)
    report = FusionReport()
    out: dict[str, np.ndarray] = {}

    def put_conv(name: str, conv: ConvParams):
        out[f"{name}.weight"] = conv.weight
        if conv.bias is not None:
            out[f"{name}.bias"] = conv.bias

    def fold(conv_name: str, bn_name: str, stride: int):
        conv = ConvParams(store[f"{conv_name}.weight"], None, stride=stride)
        bn = _bn_from(store, bn_name)
        fused = fold_bn(conv, bn)
        report.deviations[f"fold_bn:{conv_name}"] = _probe_conv_bn(rng, conv, bn, fused)
        put_conv(conv_name, fused)

    fold("embed.conv", "embed.bn", 4)
    for si, blocks in enumerate(spec.stages, start=1):
        if si > 1:
            fold(f"merge{si - 1}.conv", f"merge{si - 1}.bn", 2)
        for bi, b in enumerate(blocks):
            prefix = f"stage{si}.block{bi}"
            fold(f"{prefix}.mlp.conv1", f"{prefix}.mlp.bn", 1)
            conv2 = ConvParams(store[f"{prefix}.mlp.conv2.weight"],
                               store[f"{prefix}.mlp.conv2.bias"])
            if b.sp_cp is not None:
                map_conv = ConvParams(store[f"{prefix}.patsp.map.weight"],
                                      store[f"{prefix}.patsp.map.bias"])
                merged = merge_patsp(conv2, map_conv)
                report.deviations[f"merge_patsp:{prefix}"] = _probe_merge(
                    rng, conv2, map_conv, merged)
                put_conv(f"{prefix}.mlp.conv2m", merged)
            else:
                put_conv(f"{prefix}.mlp.conv2", conv2)

    fused_names = {d.name for d in iter_param_schema(spec, fused=True)}
    for name, tensor in store.tensors.items():
        if name not in out and name in fused_names:
            out[name] = tensor

    # keep the canonical schema order
    ordered = {d.name: out[d.name] for d in iter_param_schema(spec, fused=True)}
    report.tensors_removed = len(store.tensors) - len(ordered)
    return ParamStore(tensors=ordered, fused=True), report
