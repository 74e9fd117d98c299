import dataclasses
import platform
import resource

import numpy as np
import pytest

from patnet import blocks
from patnet import model as model_mod
from patnet import tensor_ops
from patnet.config import (
    ABLATION_MODES,
    VARIANT_TABLE,
    VariantConfig,
    build_ablation,
    build_spec,
    build_variant,
    iter_param_schema,
)
from patnet.counting import count_flops
from patnet.fusion import fuse_model
from patnet.model import (
    ParamStore,
    block_forward,
    build_plan,
    init_params,
    model_forward,
)
from patnet.tensor_ops import BnParams, ShapeError, batch_norm_infer

from conftest import rand_t4

TINY = VariantConfig("tiny", 32, (1, 1, 1, 1), "gelu")


def tiny_spec(depths=(1, 1, 1, 1), activation="gelu", input_size=32):
    return build_spec(dataclasses.replace(TINY, depths=depths,
                                          activation=activation), input_size)


class TestBuildVariant:
    def test_t0_row(self):
        spec = build_variant("T0")
        assert spec.stage_channels == (32, 64, 128, 256)
        assert spec.config.depths == (1, 2, 6, 4)
        assert spec.config.activation == "gelu"

    def test_l_row(self):
        spec = build_variant("L")
        assert spec.stage_channels == (160, 320, 640, 1280)
        assert spec.config.depths == (2, 3, 20, 4)
        assert spec.config.activation == "relu"

    def test_last_stage_uses_attention_blocks(self):
        spec = build_variant("T2")
        assert all(b.mixer == "pat_ch" for st in spec.stages[:3] for b in st)
        assert all(b.mixer == "pat_sf" and b.double_residual
                   for b in spec.stages[3])
        assert all(not b.double_residual for st in spec.stages[:3] for b in st)

    def test_t2_vs_s_differ_only_in_width_and_depth(self):
        t2, s = build_variant("T2").config, build_variant("S").config
        diffs = {f.name for f in dataclasses.fields(t2)
                 if getattr(t2, f.name) != getattr(s, f.name)}
        assert diffs == {"name", "base_channels", "depths"}

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="T0.*T1.*T2.*S.*M.*L"):
            build_variant("XL")

    def test_partial_ratio_quarter(self):
        spec = build_variant("T0")
        for stage in spec.stages:
            for b in stage:
                assert b.mixer_cp * 4 == b.channels
                assert b.sp_cp * 4 == b.channels

    def test_stage_extent_algebra(self):
        assert build_variant("T0").final_hw == (7, 7)
        assert build_variant("T0", input_size=256).final_hw == (8, 8)

    def test_indivisible_input_rejected(self):
        with pytest.raises(ValueError, match="divisible by 32"):
            build_variant("T0", input_size=100)


class TestInitParams:
    def test_same_seed_bitwise_identical(self):
        spec = tiny_spec()
        a = init_params(spec, seed=11)
        b = init_params(spec, seed=11)
        assert a.names() == b.names()
        assert all(np.array_equal(a[k], b[k]) for k in a.names())

    def test_different_seed_differs(self):
        spec = tiny_spec()
        a = init_params(spec, seed=11)
        b = init_params(spec, seed=12)
        assert any(not np.array_equal(a[k], b[k]) for k in a.names())

    def test_bn_is_near_identity_at_init(self, rng):
        spec = tiny_spec()
        store = init_params(spec, seed=0)
        bn = BnParams(store["embed.bn.gamma"], store["embed.bn.beta"],
                      store["embed.bn.mean"], store["embed.bn.var"])
        x = rand_t4(rng, 1, 32, 4, 4)
        # init statistics scale by 1/sqrt(1 + eps)
        assert np.abs(batch_norm_infer(x, bn) - x).max() <= 5e-5

    def test_rpe_tables_and_biases_zero(self):
        store = init_params(tiny_spec(), seed=3)
        assert not store["stage4.block0.patsf.rpe"].any()
        assert not store["stage4.block0.patsp.map.bias"].any()
        assert not store["stage1.block0.patch.se.b1"].any()

    def test_all_float32(self):
        store = init_params(tiny_spec(), seed=0)
        assert all(t.dtype == np.float32 for t in store.tensors.values())


class TestModelForward:
    def test_tiny_shape_and_determinism(self, rng):
        spec = tiny_spec()
        store = init_params(spec, seed=5)
        x = rand_t4(rng, 2, 3, 32, 32)
        y1 = model_forward(spec, store, x)
        y2 = model_forward(spec, store, x)
        assert y1.shape == (2, 1000)
        assert np.isfinite(y1).all()
        assert np.array_equal(y1, y2)

    def test_wrong_channel_count_rejected(self, rng):
        spec = tiny_spec()
        store = init_params(spec, seed=5)
        with pytest.raises(ShapeError, match="3 channels"):
            model_forward(spec, store, rand_t4(rng, 1, 4, 32, 32))

    def test_odd_extent_rejected(self, rng):
        spec = tiny_spec()
        store = init_params(spec, seed=5)
        with pytest.raises(ShapeError, match="divisible by 32"):
            model_forward(spec, store, rand_t4(rng, 1, 3, 33, 33))

    def test_extent_must_match_position_tables(self, rng):
        spec = tiny_spec(input_size=32)
        store = init_params(spec, seed=5)
        with pytest.raises(ShapeError, match="extent"):
            model_forward(spec, store, rand_t4(rng, 1, 3, 64, 64))

    def test_alternate_input_size_when_built_for_it(self, rng):
        spec = tiny_spec(input_size=64)
        store = init_params(spec, seed=5)
        y = model_forward(spec, store, rand_t4(rng, 1, 3, 64, 64))
        assert y.shape == (1, 1000) and np.isfinite(y).all()

    def test_relu_variant_runs(self, rng):
        spec = tiny_spec(activation="relu")
        store = init_params(spec, seed=5)
        assert np.isfinite(model_forward(spec, store, rand_t4(rng, 1, 3, 32, 32))).all()

    def test_pconv_block_with_zero_second_conv_is_identity(self, rng):
        # zeroing the mlp output leaves only the residual path
        spec = build_ablation(tiny_spec(), "no_patch")
        store = init_params(spec, seed=9)
        tensors = dict(store.tensors)
        for name in list(tensors):
            if ".mlp.conv2." in name:
                tensors[name] = np.zeros_like(tensors[name])
        store0 = ParamStore(tensors=tensors, fused=False)

        x = rand_t4(rng, 1, 3, 32, 32)
        # compare against a stack with additionally zeroed embeddings to
        # isolate one block is overkill; instead check block level directly
        from patnet.model import block_forward
        b = spec.stages[0][0]
        h = rand_t4(rng, 1, b.channels, 8, 8)
        out = block_forward(h, store0, "stage1.block0", b, "gelu", spec.final_hw)
        assert np.array_equal(out, h)


class TestAblations:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown ablation"):
            build_ablation(tiny_spec(), "bogus")

    def test_no_patch_swaps_mixer(self):
        spec = build_ablation(build_variant("T2"), "no_patch")
        assert all(b.mixer == "pconv" for st in spec.stages[:3] for b in st)
        assert all(b.mixer == "pat_sf" for b in spec.stages[3])

    def test_no_patsp_drops_gates(self):
        spec = build_ablation(build_variant("T2"), "no_patsp")
        assert all(b.sp_cp is None for st in spec.stages for b in st)

    def test_no_patsf_uses_channel_attention_in_last_stage(self):
        spec = build_ablation(build_variant("T2"), "no_patsf")
        assert all(b.mixer == "pat_ch" for b in spec.stages[3])
        assert all(b.double_residual for b in spec.stages[3])

    def test_full_modes_zero_the_split(self):
        t2 = build_variant("T2")
        assert all(b.mixer_cp == 0 for st in build_ablation(t2, "full_ch").stages[:3]
                   for b in st)
        assert all(b.sp_cp == 0 for st in build_ablation(t2, "full_sp").stages
                   for b in st)
        sf = build_ablation(t2, "full_sf").stages[3][0]
        assert sf.mixer_cp == 0 and sf.heads == 512 // 32

    def test_depths_2284_changes_only_last_two_stages(self):
        base = build_variant("T2")
        spec = build_ablation(base, "depths_2284")
        assert spec.config.depths == (2, 2, 8, 2)
        assert spec.stage_channels == base.stage_channels
        assert [len(s) for s in spec.stages] == [2, 2, 8, 2]

    def test_conv_dw_widens_early_stages_only(self):
        spec = build_ablation(build_variant("T2"), "conv_dw")
        assert spec.stage_channels == (80, 160, 320, 512)
        assert all(b.mixer == "conv_dw" for st in spec.stages[:3] for b in st)
        assert all(b.mixer == "pat_sf" and b.channels == 512
                   for b in spec.stages[3])

    def test_fasternet_composite_structure(self):
        # stripping all three attention paths leaves plain pconv blocks;
        # no_patsf first so the substituted stage-4 blocks get swapped too
        spec = build_variant("T2")
        for mode in ("no_patsf", "no_patch", "no_patsp"):
            spec = build_ablation(spec, mode)
        names = {d.name for d in iter_param_schema(spec)}
        assert not any(".se." in n or ".patsp." in n or ".patsf.w" in n
                       for n in names)
        assert spec.config.depths == (2, 2, 6, 4)

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_every_mode_still_runs_forward(self, rng, mode):
        spec = build_ablation(tiny_spec(), mode)
        store = init_params(spec, seed=2)
        y = model_forward(spec, store, rand_t4(rng, 1, 3, 32, 32))
        assert y.shape == (1, 1000) and np.isfinite(y).all()


def shape_store(spec, fused):
    """Zero-stride tensors with the schema's shapes: enough to lower a plan
    without allocating the weights of the large variants."""
    return ParamStore(tensors={d.name: np.broadcast_to(np.float32(0), d.shape)
                               for d in iter_param_schema(spec, fused)}, fused=fused)


class TestPlan:
    @pytest.mark.parametrize("variant", list(VARIANT_TABLE))
    def test_op_macs_sum_to_count_flops(self, variant):
        base = build_variant(variant)
        for mode in (None, *ABLATION_MODES):
            spec = base if mode is None else build_ablation(base, mode)
            for fused in (False, True):
                plan = build_plan(spec, shape_store(spec, fused))
                assert plan.macs == count_flops(spec, spec.input_hw, fused), (mode, fused)
                assert len({op.name for op in plan.ops}) == len(plan.ops)

    def test_built_once_per_store(self, rng, monkeypatch):
        spec = tiny_spec()
        store = init_params(spec, seed=5)
        builds, biases = [], []
        monkeypatch.setattr(model_mod, "build_plan",
                            lambda *a: builds.append(a) or build_plan(*a))
        real_bias = blocks.attention_bias
        monkeypatch.setattr(blocks, "attention_bias",
                            lambda p: biases.append(p) or real_bias(p))
        x = rand_t4(rng, 1, 3, 32, 32)
        y1 = model_forward(spec, store, x)
        plan = store.plan
        y2 = model_forward(spec, store, x)
        assert len(builds) == 1 and store.plan is plan
        assert len(biases) == 1  # one pat_sf block, its bias made once
        assert y1.tobytes() == y2.tobytes()

        other = ParamStore(tensors=store.tensors)
        assert model_forward(spec, other, x).tobytes() == y1.tobytes()
        assert len(builds) == 2 and other.plan is not plan

    @pytest.mark.parametrize("fused", [False, True])
    def test_kernel_wrappers_bound_after_build_see_every_call(self, rng, monkeypatch,
                                                               fused):
        # The per-layer tracer rebinds these module attributes after set-up;
        # a plan that kept references from its build would hide calls from it.
        spec = tiny_spec()
        store = init_params(spec, seed=5)
        if fused:
            store, _ = fuse_model(store, spec)
        x = rand_t4(rng, 1, 3, 32, 32)
        model_forward(spec, store, x)

        calls = {"conv2d": 0, "activation": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod, name in ((tensor_ops, "conv2d"), (blocks, "conv2d"),
                          (tensor_ops, "activation")):
            monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
        model_forward(spec, store, x)
        # embed and 3 merges; per block (4) the mixer's 3x3 conv, both MLP
        # convs and, unless merged into the second, the gate-map conv; one
        # activation per MLP and one in the head
        assert calls == {"conv2d": 4 + 4 * (3 if fused else 4), "activation": 4 + 1}

    def test_residual_never_writes_into_the_block_input(self, rng):
        # a pconv mixer without conv channels returns a view of its input
        spec = tiny_spec()
        for mode in ("no_patsf", "full_ch", "no_patch"):
            spec = build_ablation(spec, mode)
        b = spec.stages[3][0]
        assert b.mixer == "pconv" and b.mixer_cp == 0 and b.double_residual
        store = init_params(spec, seed=3)
        h = rand_t4(rng, 1, b.channels, 1, 1)
        before = h.copy()
        block_forward(h, store, "stage4.block0", b, "gelu", spec.final_hw)
        assert np.array_equal(h, before)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is set through glibc's mallopt")
    def test_forward_reuses_the_heap_it_freed(self, rng):
        spec = build_variant("T0")
        store = init_params(spec, seed=0)
        x = rand_t4(rng, 1, 3, 224, 224)
        model_forward(spec, store, x)
        model_forward(spec, store, x)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        model_forward(spec, store, x)
        # about 800 when the heap is handed back after every forward
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100
