import math

import pytest

from patnet.config import (
    REFERENCE_FLOPS_G,
    REFERENCE_PARAMS_M,
    VARIANT_TABLE,
    build_ablation,
    build_variant,
)
from patnet.blocks import se_hidden_width
from patnet.config import CLASSIFIER_HIDDEN, NUM_CLASSES, BlockSpec
from patnet.counting import count_flops, count_params
from patnet.model import init_params, iter_param_schema

from test_model import tiny_spec


# An analytic MAC count, written from the block layout independently of the
# execution plan, as an oracle for the per-op MACs that count_flops sums.

def analytic_block_flops(b: BlockSpec, hw: int, fused: bool) -> int:
    c = b.channels
    total = 0

    if b.mixer in ("pat_ch", "pconv", "pat_sf"):
        if b.mixer_cp > 0:
            total += hw * b.mixer_cp * b.mixer_cp * 9
    elif b.mixer == "conv_dense":
        total += hw * c * c * 9
    elif b.mixer == "conv_dw":
        total += hw * c * 9

    if b.mixer == "pat_ch":
        c_u = c - b.mixer_cp
        if c_u > 0:
            hid = se_hidden_width(c_u)
            total += hid * 2 * c_u + c_u * hid  # gate head, once per sample
            total += c_u * hw  # gate multiply
    elif b.mixer == "pat_sf":
        c_u = c - b.mixer_cp
        total += 4 * hw * c_u * c_u  # q, k, v, o projections
        total += 2 * hw * hw * c_u  # attention score and context GEMMs

    total += hw * b.mlp_hidden * c  # mlp conv1
    total += hw * c * b.mlp_hidden  # mlp conv2

    if b.sp_cp is not None:
        if not fused:
            total += hw * c  # standalone 1x1 map conv
        total += (c - b.sp_cp) * hw  # gate multiply
    return total


def analytic_flops(spec, hw, fused: bool) -> int:
    sh, sw = hw[0] // 4, hw[1] // 4
    total = sh * sw * spec.stage_channels[0] * 3 * 16  # embedding conv 4x4/4
    for si, blocks in enumerate(spec.stages, start=1):
        if si > 1:
            sh, sw = sh // 2, sw // 2
            cin = spec.stage_channels[si - 2]
            cout = spec.stage_channels[si - 1]
            total += sh * sw * cout * cin * 4  # merging conv 2x2/2
        for b in blocks:
            total += analytic_block_flops(b, sh * sw, fused)
    c4 = spec.stage_channels[3]
    total += c4 * CLASSIFIER_HIDDEN
    total += CLASSIFIER_HIDDEN * NUM_CLASSES
    return total


class TestCountParams:
    @pytest.mark.parametrize("name", list(VARIANT_TABLE))
    def test_within_five_percent_of_reference(self, name):
        millions = count_params(build_variant(name)) / 1e6
        target = REFERENCE_PARAMS_M[name]
        assert abs(millions / target - 1) <= 0.05, (name, millions, target)

    @pytest.mark.parametrize("name", list(VARIANT_TABLE))
    def test_equals_init_store_element_sum(self, name):
        spec = build_variant(name)
        assert count_params(spec) == init_params(spec, seed=0).total_elements()

    @pytest.mark.parametrize(
        "mode", ["full_ch", "full_sf", "no_patch", "no_patsp", "conv_dense",
                 "conv_dw", "depths_2284"])
    def test_ablation_counts_match_stores(self, mode):
        spec = build_ablation(tiny_spec(), mode)
        assert count_params(spec) == init_params(spec, seed=0).total_elements()

    def test_fused_schema_counts_fewer(self):
        spec = build_variant("T0")
        assert count_params(spec, fused=True) < count_params(spec)

    def test_pointwise_conv_closed_form(self):
        # a 1x1 conv c -> 2c with bias holds c*2c + 2c scalars
        defs = {d.name: d for d in iter_param_schema(tiny_spec(), fused=True)}
        w = defs["stage1.block0.mlp.conv1.weight"]
        b = defs["stage1.block0.mlp.conv1.bias"]
        total = math.prod(w.shape) + math.prod(b.shape)
        cc = w.shape[1]
        assert w.shape[0] == 2 * cc
        assert total == cc * 2 * cc + 2 * cc


class TestCountFlops:
    @pytest.mark.parametrize("name", list(VARIANT_TABLE))
    def test_within_five_percent_of_reference(self, name):
        giga = count_flops(build_variant(name)) / 1e9
        target = REFERENCE_FLOPS_G[name]
        assert abs(giga / target - 1) <= 0.05, (name, giga, target)

    def test_single_conv_closed_form(self):
        # 3x3 conv, 16 -> 16 channels, 56x56 output
        assert 16 * 16 * 9 * 56 * 56 == 7_225_344

    def test_block_formula_decomposes(self):
        b = BlockSpec(channels=64, mixer="pconv", mixer_cp=16, sp_cp=16,
                      mlp_hidden=128)
        hw = 56 * 56
        expected = (hw * 16 * 16 * 9          # partial conv
                    + hw * 128 * 64 * 2       # two pointwise convs
                    + hw * 64                 # gate map conv
                    + hw * 48)                # gate multiplies
        assert analytic_block_flops(b, hw, fused=False) == expected

    def test_conv_type_study_magnitudes(self):
        t2 = build_variant("T2")
        flops = {
            "pat": count_flops(t2) / 1e9,
            "dense": count_flops(build_ablation(t2, "conv_dense")) / 1e9,
            "dw": count_flops(build_ablation(t2, "conv_dw")) / 1e9,
        }
        assert abs(flops["pat"] / 1.03 - 1) <= 0.10
        assert abs(flops["dense"] / 2.12 - 1) <= 0.10
        assert abs(flops["dw"] / 1.28 - 1) <= 0.10
        assert flops["pat"] < flops["dw"] < flops["dense"]

    def test_quadratic_scaling_with_attention_excess(self):
        spec = build_variant("T0")
        ratio = count_flops(spec, (448, 448)) / count_flops(spec, (224, 224))
        assert 4.0 < ratio < 4.6

    def test_fused_strictly_cheaper(self):
        spec = build_variant("T0")
        assert count_flops(spec, fused=True) < count_flops(spec)

    def test_rejects_bad_extent(self):
        with pytest.raises(ValueError, match="divisible by 32"):
            count_flops(build_variant("T0"), (100, 100))

    @pytest.mark.parametrize("hw", [(0, 64), (64, -32)])
    def test_rejects_extent_below_32(self, hw):
        with pytest.raises(ValueError, match="minimum of 32"):
            count_flops(build_variant("T0"), hw)

    def test_full_attention_study_costs_more(self):
        t2 = build_variant("T2")
        base = count_flops(t2)
        assert count_flops(build_ablation(t2, "full_sf")) > base
