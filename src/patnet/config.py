"""Variant configurations and the layer-level model description.

A ``ModelSpec`` is the resolved block list of one model: widths, mixers,
split points and depths. It names no tensors; the lowering in ``model.py``
turns it into stored tensors and plan ops, and everything downstream
(initialization, forward pass, counting, fusion, serialization) works from
that lowering.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .tensor_ops import ShapeError

HEAD_DIM = 32

# name -> (base channels, per-stage depths, activation)
VARIANT_TABLE = {
    "T0": (32, (1, 2, 6, 4), "gelu"),
    "T1": (48, (1, 2, 6, 4), "gelu"),
    "T2": (64, (2, 2, 6, 4), "relu"),
    "S": (96, (2, 2, 9, 4), "relu"),
    "M": (128, (2, 3, 16, 4), "relu"),
    "L": (160, (2, 3, 20, 4), "relu"),
}

ABLATION_MODES = (
    "full_ch",
    "full_sp",
    "full_sf",
    "no_patch",
    "no_patsp",
    "no_patsf",
    "conv_dense",
    "conv_dw",
    "depths_2284",
)

# published reference costs, used by tests and the summary command
REFERENCE_PARAMS_M = {"T0": 4.3, "T1": 7.8, "T2": 12.6, "S": 29.0, "M": 61.3, "L": 104.3}
REFERENCE_FLOPS_G = {"T0": 0.25, "T1": 0.55, "T2": 1.03, "S": 2.71, "M": 6.69, "L": 11.91}


@dataclass(frozen=True)
class VariantConfig:
    """Static description of one model variant."""

    name: str
    base_channels: int
    depths: tuple[int, int, int, int]
    activation: str
    partial_ratio: float = 0.25
    mlp_ratio: int = 2
    classifier_hidden: int = 1280
    num_classes: int = 1000

    def stage_width(self, stage: int) -> int:
        """Channel width of 1-based ``stage``; doubles at every merge."""
        return self.base_channels * (1 << (stage - 1))


@dataclass(frozen=True)
class BlockSpec:
    """One residual block inside a stage.

    ``mixer`` is the spatial-mixing operator at the front of the block;
    ``sp_cp`` is the split point of the trailing spatial-attention gate
    (None removes the gate entirely). Stage-4 blocks use the two-residual
    layout (one shortcut around the mixer, one around MLP + gate).
    """

    channels: int
    mixer: str  # pat_ch | pat_sf | pconv | conv_dense | conv_dw
    mixer_cp: int
    sp_cp: int | None
    mlp_hidden: int
    heads: int | None = None
    double_residual: bool = False


@dataclass(frozen=True)
class ModelSpec:
    """Fully resolved layer list for one buildable model."""

    config: VariantConfig
    input_hw: tuple[int, int]
    stage_channels: tuple[int, int, int, int]
    stages: tuple[tuple[BlockSpec, ...], ...]
    label: str = ""

    @property
    def final_hw(self) -> tuple[int, int]:
        return self.input_hw[0] // 32, self.input_hw[1] // 32

    @property
    def activation(self) -> str:
        return self.config.activation


def check_extent(h: int, w: int) -> None:
    """Reject an input extent that the stem and the three merges cannot
    reduce to whole positions: each side must be a multiple of 32, at least
    32."""
    if min(h, w) < 32:
        raise ShapeError(f"input extent {h}x{w} below the minimum of 32")
    if h % 32 != 0 or w % 32 != 0:
        raise ShapeError(f"input extent {h}x{w} not divisible by 32")


def _make_block(channels: int, ratio: float, mlp_ratio: int,
                last_stage: bool) -> BlockSpec:
    c_p = int(round(channels * ratio))
    if abs(channels * ratio - c_p) > 1e-9:
        raise ValueError(f"channels {channels} not divisible at ratio {ratio}")
    if last_stage:
        c_u = channels - c_p
        if c_u % HEAD_DIM != 0:
            raise ValueError(
                f"untouched width {c_u} not divisible by head_dim {HEAD_DIM}")
        return BlockSpec(channels, "pat_sf", c_p, c_p, channels * mlp_ratio,
                         heads=c_u // HEAD_DIM, double_residual=True)
    return BlockSpec(channels, "pat_ch", c_p, c_p, channels * mlp_ratio)


def build_spec(config: VariantConfig, input_size: int = 224,
               label: str | None = None) -> ModelSpec:
    """Assemble the block list for ``config`` at a square input size."""
    check_extent(input_size, input_size)
    widths = tuple(config.stage_width(i) for i in range(1, 5))
    stages = []
    for i, (c, depth) in enumerate(zip(widths, config.depths), start=1):
        blocks = tuple(
            _make_block(c, config.partial_ratio, config.mlp_ratio, i == 4)
            for _ in range(depth))
        stages.append(blocks)
    return ModelSpec(config=config, input_hw=(input_size, input_size),
                     stage_channels=widths, stages=tuple(stages),
                     label=label if label is not None else config.name)


def build_variant(name: str, input_size: int = 224) -> ModelSpec:
    """Model spec for one of the published variants."""
    if name not in VARIANT_TABLE:
        raise ValueError(
            f"unknown variant {name!r}; valid names: {', '.join(VARIANT_TABLE)}")
    c, depths, act = VARIANT_TABLE[name]
    return build_spec(VariantConfig(name, c, depths, act), input_size)


def _map_blocks(spec: ModelSpec, fn) -> ModelSpec:
    stages = tuple(tuple(fn(blk) for blk in blocks) for blocks in spec.stages)
    return dataclasses.replace(spec, stages=stages)


def build_ablation(spec: ModelSpec, mode: str) -> ModelSpec:
    """Apply one of the study substitutions to an assembled spec.

    Modes compose: feeding the result back in with another mode stacks the
    substitutions.
    """
    if mode not in ABLATION_MODES:
        raise ValueError(
            f"unknown ablation mode {mode!r}; valid modes: {', '.join(ABLATION_MODES)}")
    label = f"{spec.label}+{mode}"

    if mode == "full_ch":
        out = _map_blocks(spec, lambda b: dataclasses.replace(b, mixer_cp=0)
                          if b.mixer == "pat_ch" else b)
    elif mode == "full_sp":
        out = _map_blocks(spec, lambda b: dataclasses.replace(b, sp_cp=0)
                          if b.sp_cp is not None else b)
    elif mode == "full_sf":
        out = _map_blocks(
            spec,
            lambda b: dataclasses.replace(b, mixer_cp=0, heads=b.channels // HEAD_DIM)
            if b.mixer == "pat_sf" else b)
    elif mode == "no_patch":
        out = _map_blocks(spec, lambda b: dataclasses.replace(b, mixer="pconv")
                          if b.mixer == "pat_ch" else b)
    elif mode == "no_patsp":
        out = _map_blocks(spec, lambda b: dataclasses.replace(b, sp_cp=None))
    elif mode == "no_patsf":
        out = _map_blocks(
            spec,
            lambda b: dataclasses.replace(b, mixer="pat_ch", heads=None)
            if b.mixer == "pat_sf" else b)
    elif mode == "conv_dense":
        out = _map_blocks(
            spec,
            lambda b: dataclasses.replace(b, mixer="conv_dense", mixer_cp=b.channels)
            if b.mixer == "pat_ch" else b)
    elif mode == "conv_dw":
        out = _widen_for_dwconv(spec)
    else:  # depths_2284
        cfg = dataclasses.replace(spec.config, depths=(2, 2, 8, 2))
        out = build_spec(cfg, spec.input_hw[0])
    return dataclasses.replace(out, label=label)


def _widen_for_dwconv(spec: ModelSpec) -> ModelSpec:
    # The depthwise study arm is widened by 5/4 in the stages where the
    # depthwise conv replaces the partial-attention conv (stages 1-3); the
    # attention stage keeps its width so the head layout stays valid.
    widths = list(spec.stage_channels)
    stages = []
    for i, blocks in enumerate(spec.stages, start=1):
        out_blocks = []
        for b in blocks:
            if b.mixer == "pat_ch":
                c = b.channels * 5 // 4
                if b.channels * 5 % 4 != 0 or c % 4 != 0:
                    raise ValueError(f"cannot widen {b.channels} channels by 5/4")
                widths[i - 1] = c
                b = dataclasses.replace(
                    b, channels=c, mixer="conv_dw", mixer_cp=c,
                    sp_cp=None if b.sp_cp is None else c // 4,
                    mlp_hidden=c * spec.config.mlp_ratio)
            out_blocks.append(b)
        stages.append(tuple(out_blocks))
    return dataclasses.replace(spec, stage_channels=tuple(widths),
                               stages=tuple(stages))
