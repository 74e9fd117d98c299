"""The published variants and the layer-level model description.

A ``ModelSpec`` is one buildable model: its label, input extent, activation
and block list. Widths, mixers, split points and depths live only in the
blocks. A spec names no tensors; the lowering in ``model.py`` turns it into
stored tensors and plan ops, and everything downstream (initialization,
forward pass, counting, fusion, serialization) works from that lowering.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .tensor_ops import ACTIVATION_KINDS, ShapeError

HEAD_DIM = 32
# every variant splits c_p = c // PARTIAL_DIVISOR channels off for its
# partial branches, widens its MLP to MLP_RATIO * c, and ends in the same head
PARTIAL_DIVISOR = 4
MLP_RATIO = 2
CLASSIFIER_HIDDEN = 1280
NUM_CLASSES = 1000

# name -> (base channels, per-stage depths, activation)
VARIANT_TABLE = {
    "T0": (32, (1, 2, 6, 4), "gelu"),
    "T1": (48, (1, 2, 6, 4), "gelu"),
    "T2": (64, (2, 2, 6, 4), "relu"),
    "S": (96, (2, 2, 9, 4), "relu"),
    "M": (128, (2, 3, 16, 4), "relu"),
    "L": (160, (2, 3, 20, 4), "relu"),
}

# published reference costs, used by tests and the summary command
REFERENCE_PARAMS_M = {"T0": 4.3, "T1": 7.8, "T2": 12.6, "S": 29.0, "M": 61.3, "L": 104.3}
REFERENCE_FLOPS_G = {"T0": 0.25, "T1": 0.55, "T2": 1.03, "S": 2.71, "M": 6.69, "L": 11.91}


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
    """Fully resolved layer list for one buildable model.

    The block list is the whole model: a stage's width is the width of its
    blocks, so widening a study arm's blocks widens its stages too.
    """

    label: str
    input_hw: tuple[int, int]
    stages: tuple[tuple[BlockSpec, ...], ...]
    activation: str

    @property
    def stage_channels(self) -> tuple[int, ...]:
        return tuple(blocks[0].channels for blocks in self.stages)

    @property
    def final_hw(self) -> tuple[int, int]:
        return self.input_hw[0] // 32, self.input_hw[1] // 32


def check_extent(h: int, w: int) -> None:
    """Reject an input extent that the stem and the three merges cannot
    reduce to whole positions: each side must be a multiple of 32, at least
    32."""
    if min(h, w) < 32:
        raise ShapeError(f"input extent {h}x{w} below the minimum of 32")
    if h % 32 != 0 or w % 32 != 0:
        raise ShapeError(f"input extent {h}x{w} not divisible by 32")


def _make_block(channels: int, last_stage: bool) -> BlockSpec:
    if channels % PARTIAL_DIVISOR != 0:
        raise ValueError(f"channels {channels} not divisible by {PARTIAL_DIVISOR}")
    c_p = channels // PARTIAL_DIVISOR
    if last_stage:
        c_u = channels - c_p
        if c_u % HEAD_DIM != 0:
            raise ValueError(
                f"untouched width {c_u} not divisible by head_dim {HEAD_DIM}")
        return BlockSpec(channels, "pat_sf", c_p, c_p, channels * MLP_RATIO,
                         heads=c_u // HEAD_DIM, double_residual=True)
    return BlockSpec(channels, "pat_ch", c_p, c_p, channels * MLP_RATIO)


def build_spec(label: str, base_channels: int, depths: tuple[int, ...],
               activation: str, input_size: int = 224) -> ModelSpec:
    """Assemble the block list of a four-stage model whose width starts at
    ``base_channels`` and doubles at every merge, at a square input size."""
    check_extent(input_size, input_size)
    if len(depths) != 4:
        raise ValueError(f"stage depths {depths} must name 4 stages")
    if activation not in ACTIVATION_KINDS:
        raise ValueError(
            f"unknown activation {activation!r}; expected one of {ACTIVATION_KINDS}")
    if min(depths) < 1:
        raise ValueError(f"stage depths {depths} must each be at least 1")
    stages = tuple((_make_block(base_channels << si, si == 3),) * depth
                   for si, depth in enumerate(depths))
    return ModelSpec(label, (input_size, input_size), stages, activation)


def build_variant(name: str, input_size: int = 224) -> ModelSpec:
    """Model spec for one of the published variants."""
    if name not in VARIANT_TABLE:
        raise ValueError(
            f"unknown variant {name!r}; valid names: {', '.join(VARIANT_TABLE)}")
    return build_spec(name, *VARIANT_TABLE[name], input_size)


def _widen(n: int) -> int:
    if n * 5 % 4 != 0:
        raise ValueError(f"cannot widen {n} channels by 5/4")
    return n * 5 // 4


def _conv_dw(b: BlockSpec) -> BlockSpec:
    # The depthwise study arm replaces the partial conv of pat_ch blocks and
    # widens them by 5/4, scaling whatever gate split and MLP width it finds;
    # attention blocks keep their width so the head layout stays valid.
    if b.mixer != "pat_ch":
        return b
    c = _widen(b.channels)
    return dataclasses.replace(
        b, channels=c, mixer="conv_dw", mixer_cp=c,
        sp_cp=None if b.sp_cp is None else _widen(b.sp_cp),
        mlp_hidden=_widen(b.mlp_hidden))


# mode -> rewrite of one block; depths_2284 re-depths stages instead
_BLOCK_MODES = {
    "full_ch": lambda b: dataclasses.replace(b, mixer_cp=0) if b.mixer == "pat_ch" else b,
    "full_sp": lambda b: dataclasses.replace(b, sp_cp=0) if b.sp_cp is not None else b,
    "full_sf": lambda b: (dataclasses.replace(b, mixer_cp=0, heads=b.channels // HEAD_DIM)
                          if b.mixer == "pat_sf" else b),
    "no_patch": lambda b: (dataclasses.replace(b, mixer="pconv")
                           if b.mixer == "pat_ch" else b),
    "no_patsp": lambda b: dataclasses.replace(b, sp_cp=None),
    "no_patsf": lambda b: (dataclasses.replace(b, mixer="pat_ch", heads=None)
                           if b.mixer == "pat_sf" else b),
    "conv_dense": lambda b: (
        dataclasses.replace(b, mixer="conv_dense", mixer_cp=b.channels)
        if b.mixer == "pat_ch" else b),
    "conv_dw": _conv_dw,
}

ABLATION_MODES = (*_BLOCK_MODES, "depths_2284")


def build_ablation(spec: ModelSpec, mode: str) -> ModelSpec:
    """Apply one of the study substitutions to an assembled spec.

    Modes compose: each rewrites the spec it is given, so feeding the result
    back in with another mode stacks the substitutions. ``conv_dw`` scales
    the gate split it finds by 5/4, and ``depths_2284`` repeats each stage's
    first block to depths 2-2-8-2, keeping whatever earlier modes made of it.
    """
    if mode not in ABLATION_MODES:
        raise ValueError(
            f"unknown ablation mode {mode!r}; valid modes: {', '.join(ABLATION_MODES)}")
    label = f"{spec.label}+{mode}"
    if mode == "depths_2284":
        stages = tuple(blocks[:1] * d for blocks, d in zip(spec.stages, (2, 2, 8, 2)))
        return dataclasses.replace(spec, stages=stages, label=label)
    rewrite = _BLOCK_MODES[mode]
    stages = tuple(tuple(map(rewrite, blocks)) for blocks in spec.stages)
    return dataclasses.replace(spec, stages=stages, label=label)
