import dataclasses
import inspect
import platform
import resource
import tracemalloc
import weakref

import numpy as np
import pytest

import patnet
from patnet import blocks
from patnet import model as model_mod
from patnet import tensor_ops
from patnet.config import (
    ABLATION_MODES,
    HEAD_DIM,
    NUM_CLASSES,
    VARIANT_TABLE,
    ModelSpec,
    build_ablation,
    build_spec,
    build_variant,
)
from patnet.counting import count_flops
from patnet.fusion import FUSE_RTOL, fuse_model
from patnet.model import (
    Mixer,
    ParamStore,
    build_plan,
    init_params,
    iter_param_schema,
    model_forward,
    plan_and_schema,
)
from patnet.tensor_ops import BnParams, ShapeError, batch_norm_infer

from conftest import rand_t4

def tiny_spec(depths=(1, 1, 1, 1), activation="gelu", input_size=32):
    return build_spec("tiny", 32, depths, activation, input_size)


def block_forward(x, store, prefix, b, act, rpe_hw):
    """One residual block, lowered from ``store`` for this call."""
    ops = model_mod._block_ops(lambda name, *_: store[name], store.fused, prefix, b,
                               act, rpe_hw, x.shape[2] * x.shape[3])
    return model_mod._run(ops, [x])


def test_every_exported_name_resolves():
    missing = [name for name in patnet.__all__ if not hasattr(patnet, name)]
    assert missing == []


class TestBuildVariant:
    def test_t0_row(self):
        spec = build_variant("T0")
        assert spec.stage_channels == (32, 64, 128, 256)
        assert tuple(map(len, spec.stages)) == (1, 2, 6, 4)
        assert spec.activation == "gelu"

    def test_l_row(self):
        spec = build_variant("L")
        assert spec.stage_channels == (160, 320, 640, 1280)
        assert tuple(map(len, spec.stages)) == (2, 3, 20, 4)
        assert spec.activation == "relu"

    def test_last_stage_uses_attention_blocks(self):
        spec = build_variant("T2")
        assert all(b.mixer == "pat_ch" for st in spec.stages[:3] for b in st)
        assert all(b.mixer == "pat_sf" and b.double_residual
                   for b in spec.stages[3])
        assert all(not b.double_residual for st in spec.stages[:3] for b in st)

    def test_t2_vs_s_differ_only_in_width_and_depth(self):
        rows = VARIANT_TABLE["T2"], VARIANT_TABLE["S"]
        assert [a != b for a, b in zip(*rows)] == [True, True, False]
        t2, s = build_variant("T2"), build_variant("S")
        assert (t2.input_hw, t2.activation) == (s.input_hw, s.activation)

        def per_channel(b):  # the block with every width divided by its own
            return (b.mixer, b.mixer_cp / b.channels, b.sp_cp / b.channels,
                    b.mlp_hidden / b.channels, (b.heads or 0) * HEAD_DIM / b.channels,
                    b.double_residual)

        assert ([{per_channel(b) for b in st} for st in t2.stages]
                == [{per_channel(b) for b in st} for st in s.stages])

    def test_spec_is_label_extent_blocks_and_activation(self):
        assert [f.name for f in dataclasses.fields(ModelSpec)] == [
            "label", "input_hw", "stages", "activation"]

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

    @pytest.mark.parametrize("size", [0, -32])
    def test_input_below_32_rejected(self, size):
        with pytest.raises(ValueError, match="minimum of 32"):
            build_variant("T0", input_size=size)


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

    def test_membership_by_name(self):
        store = init_params(tiny_spec(), seed=0)
        assert "embed.conv.weight" in store
        assert "embed.conv.bogus" not in store


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

    @pytest.mark.parametrize("chunk_bytes", [None, 1])
    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("variant", ["T0", "T2"])
    def test_an_empty_batch_gives_empty_logits(self, monkeypatch, variant, fused,
                                               chunk_bytes):
        spec = build_variant(variant, input_size=64)
        store = init_params(spec, seed=0)
        if fused:
            store, _ = fuse_model(store, spec)
        if chunk_bytes is not None:
            monkeypatch.setattr(model_mod, "_CHUNK_BYTES", chunk_bytes)
        y = model_forward(spec, store, np.zeros((0, 3, 64, 64), np.float32))
        assert y.shape == (0, NUM_CLASSES) and y.dtype == np.float32

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
        assert tuple(map(len, spec.stages)) == (2, 2, 8, 2)
        assert spec.stage_channels == base.stage_channels
        assert [len(s) for s in spec.stages] == [2, 2, 8, 2]

    @pytest.mark.parametrize("variant", list(VARIANT_TABLE))
    def test_depths_2284_commutes_with_every_mode(self, variant):
        base = build_variant(variant)
        deep = build_ablation(base, "depths_2284")
        for mode in ABLATION_MODES:
            after = build_ablation(build_ablation(base, mode), "depths_2284")
            before = build_ablation(deep, mode)
            assert after.stages == before.stages, mode

    def test_conv_dw_keeps_a_full_gate_split(self):
        spec = build_ablation(build_ablation(build_variant("T2"), "full_sp"), "conv_dw")
        assert all(b.sp_cp == 0 for st in spec.stages for b in st)

    def test_empty_stage_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            tiny_spec(depths=(1, 1, 0, 1))

    @pytest.mark.parametrize("depths", [(1, 1, 1), (1, 1, 1, 1, 1)])
    def test_depths_must_name_four_stages(self, depths):
        with pytest.raises(ValueError, match="must name 4 stages"):
            tiny_spec(depths=depths)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activation 'swish'"):
            build_spec("x", 32, (1, 1, 1, 1), "swish")

    def test_base_width_not_divisible_by_4_rejected(self):
        with pytest.raises(ValueError, match="channels 30 not divisible by 4"):
            build_spec("base30", 30, (1, 1, 1, 1), "gelu")

    def test_attention_width_not_a_multiple_of_head_dim_rejected(self):
        # base 40: stage 4 has 320 channels, of which 240 are untouched
        with pytest.raises(ValueError, match="untouched width 240 not divisible by head_dim 32"):
            build_spec("base40", 40, (1, 1, 1, 1), "gelu")

    def test_conv_dw_widens_early_stages_only(self):
        spec = build_ablation(build_variant("T2"), "conv_dw")
        assert spec.stage_channels == (80, 160, 320, 512)
        assert all(b.mixer == "conv_dw" for st in spec.stages[:3] for b in st)
        assert all(b.mixer == "pat_sf" and b.channels == 512
                   for b in spec.stages[3])
        deep = build_ablation(spec, "depths_2284")
        assert deep.stage_channels == (80, 160, 320, 512)
        assert [len(s) for s in deep.stages] == [2, 2, 8, 2]

    def test_fasternet_composite_structure(self):
        # stripping all three attention paths leaves plain pconv blocks;
        # no_patsf first so the substituted stage-4 blocks get swapped too
        spec = build_variant("T2")
        for mode in ("no_patsf", "no_patch", "no_patsp"):
            spec = build_ablation(spec, mode)
        names = {d.name for d in iter_param_schema(spec)}
        assert not any(".se." in n or ".patsp." in n or ".patsf.w" in n
                       for n in names)
        assert tuple(map(len, spec.stages)) == (2, 2, 6, 4)

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_every_mode_still_runs_forward(self, rng, mode):
        spec = build_ablation(tiny_spec(), mode)
        store = init_params(spec, seed=2)
        y = model_forward(spec, store, rand_t4(rng, 1, 3, 32, 32))
        assert y.shape == (1, 1000) and np.isfinite(y).all()


class TestPlan:
    @pytest.mark.parametrize("variant", list(VARIANT_TABLE))
    def test_op_macs_sum_to_count_flops(self, variant):
        # count_flops is the plan's sum, so both are checked against the
        # analytic formula; T0 and T2 also at an extent other than the spec's
        from test_counting import analytic_flops
        base = build_variant(variant)
        for mode in (None, *ABLATION_MODES):
            spec = base if mode is None else build_ablation(base, mode)
            for fused in (False, True):
                plan, _ = plan_and_schema(spec, fused)
                expected = analytic_flops(spec, spec.input_hw, fused)
                assert plan.macs == expected, (mode, fused)
                assert count_flops(spec, spec.input_hw, fused) == expected, (mode, fused)
                assert len({op.name for op in plan.ops}) == len(plan.ops)
                if variant in ("T0", "T2"):
                    assert (count_flops(spec, (448, 448), fused)
                            == analytic_flops(spec, (448, 448), fused)), (mode, fused)

    def test_every_mixer_is_a_partial_block(self, rng):
        # the dense and depthwise arms run as partial convs over every
        # channel, bitwise the plain conv
        base = build_variant("T0", input_size=64)
        composed = base
        for mode in ("no_patsf", "full_ch", "no_patch"):
            composed = build_ablation(composed, mode)
        for spec in (base, composed, *(build_ablation(base, m) for m in ABLATION_MODES)):
            mixers = [op for op in plan_and_schema(spec)[0].ops
                      if op.name.endswith(".mixer")]
            assert len(mixers) == sum(map(len, spec.stages)), spec.label
            for op in mixers:
                assert type(op) is Mixer, (spec.label, op.name)
                assert inspect.isfunction(getattr(blocks, op.forward)), (spec.label, op.name)
        for mode in ("conv_dense", "conv_dw"):
            spec = build_ablation(base, mode)
            plan = build_plan(spec, init_params(spec, seed=5))
            mixers = iter(op for op in plan.ops if op.name.endswith(".mixer"))
            checked = 0
            for si, stage in enumerate(spec.stages):
                hw = spec.input_hw[0] // (4 << si)
                for b, op in zip(stage, mixers):
                    if b.mixer != mode:
                        continue
                    for n in (1, 3):
                        x = rand_t4(rng, n, b.channels, hw, hw)
                        y, ref = op([x], None), tensor_ops.conv2d(x, op.params)
                        assert y.shape == ref.shape and y.tobytes() == ref.tobytes(), (
                            mode, op.name, n)
                    checked += 1
            assert checked == sum(map(len, spec.stages[:3])), mode

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
        assert len(biases) == 2  # one pat_sf block, its bias made per forward
        assert y1.tobytes() == y2.tobytes()

        other = ParamStore(tensors=store.tensors)
        assert model_forward(spec, other, x).tobytes() == y1.tobytes()
        assert len(builds) == 2 and other.plan is not plan

    def test_build_plan_allocates_no_array(self, monkeypatch):
        # a plan holds only references to store tensors, and each forward
        # makes its position biases: build_plan of a fused T2 store at 224
        # keeps about 20 KiB of Python objects, against 471 KiB when it made
        # the four biases. A stand-in plan makes no bias either
        biases = []
        real_bias = blocks.attention_bias
        monkeypatch.setattr(blocks, "attention_bias",
                            lambda p: biases.append(p) or real_bias(p))
        spec = build_variant("T2")
        plan_and_schema(spec, fused=False)
        plan_and_schema(spec, fused=True)
        store, _ = fuse_model(init_params(spec, seed=0), spec)
        tracemalloc.start()
        try:
            plan = build_plan(spec, store)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert biases == [] and plan.ops and kept < 64 << 10

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

    @pytest.mark.parametrize("case", ["missing", "other_variant", "head_shape"])
    def test_a_store_that_does_not_match_its_spec_fails_before_any_kernel(
            self, monkeypatch, case):
        spec = build_variant("T0", input_size=64)
        store = init_params(spec, seed=0)
        if case == "missing":
            del store.tensors["stage2.block1.mlp.bn.var"]
            message = r"'stage2\.block1\.mlp\.bn\.var' is missing; T0 expects shape \(128,\)"
        elif case == "other_variant":  # a T0 store under the T1 spec
            spec = build_variant("T1", input_size=64)
            message = (r"'embed\.conv\.weight' has shape \(32, 3, 4, 4\); "
                       r"T1 expects shape \(48, 3, 4, 4\)")
        else:
            store.tensors["head.fc.weight"] = np.zeros((NUM_CLASSES, 7), np.float32)
            message = (r"'head\.fc\.weight' has shape \(1000, 7\); "
                       r"T0 expects shape \(1000, 1280\)")
        kernels = []
        monkeypatch.setattr(tensor_ops, "conv2d", lambda *a: kernels.append(a))
        with pytest.raises(ShapeError, match=message):
            model_forward(spec, store, np.zeros((1, 3, 64, 64), np.float32))
        assert kernels == [] and store.plan is None

    def test_residual_never_writes_into_the_block_input(self, rng):
        # a pconv mixer without conv channels copies its whole input, and the
        # residual adds into that copy
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

    def test_batched_forward_keeps_one_copy_of_each_activation(self):
        # BN and activations overwrite their conv's output, stage 1 (a
        # 6.25 MiB hidden tensor over the 4 MiB budget) runs over two
        # 4-image chunks, and the 3x3 tap scratch exists per image: T2 fused
        # at batch 8 and 160 x 160 peaks at 9.47 MiB (12.62 MiB with
        # whole-batch MLPs, 22.0 MB when BN, the activation and the taps
        # each kept a second buffer)
        assert fused_forward_peak("T2", 8, 160) < 19 << 20

    def test_batched_gelu_forward_holds_its_activations_and_gelu_blocks(self):
        # T0 fused at batch 8 and 160 x 160 peaks in a stage-1 MLP, at 40 x 40:
        # the 32-channel shortcut, the 64-channel hidden tensor and the second
        # conv's 32-channel output, 6.25 MiB in float32, are live together.
        # GELU adds two scratch blocks per batch slice, and runs before the
        # second conv allocates. Peaks on 2 CPUs: 14.07 MiB with three
        # whole-tensor GELU buffers, 6.37 MiB with blocked GELU
        peak = fused_forward_peak("T0", 8, 160)
        activation = 8 * 32 * 40 * 40 * 4
        slices = min(8, tensor_ops._THREADS) if tensor_ops._split_ready() else 1
        assert peak < 4 * activation + slices * 2 * 4 * tensor_ops._GELU_BLOCK

    def test_mlp_input_is_freed_before_its_second_conv(self, monkeypatch):
        # the runner holds no reference to the mixer output once the MLP has
        # popped it, so conv1 is its last user
        spec = build_variant("T2", input_size=64)
        store, _ = fuse_model(init_params(spec, seed=0), spec)
        x = np.random.default_rng(0).standard_normal((2, 3, 64, 64), dtype=np.float32)
        model_forward(spec, store, x)  # build the plan
        ops = {op.name: op for op in store.plan.ops}
        mixer, conv2 = ops["stage1.block0.mixer"], ops["stage1.block0.mlp"].conv2
        mixer_out, dead = [], []
        real_forward, real_conv = getattr(blocks, mixer.forward), tensor_ops.conv2d

        def forward(x, params, split):
            y = real_forward(x, params, split)
            if params is mixer.params:
                mixer_out.append(weakref.ref(y))
            return y

        def conv2d(x, p):
            if p is conv2:
                dead.append(mixer_out[0]() is None)
            return real_conv(x, p)

        monkeypatch.setattr(blocks, mixer.forward, forward)
        monkeypatch.setattr(tensor_ops, "conv2d", conv2d)
        model_forward(spec, store, x)
        assert len(mixer_out) == 1 and dead == [True]

    def test_large_mlps_run_over_chunks_of_at_least_the_thread_count(self, monkeypatch):
        # T2 fused at batch 8 and 224 x 224: a stage-1 hidden tensor is
        # 8 x 128 x 56 x 56 float32, 12.25 MiB, and a stage-2 one 6.13 MiB,
        # both over the 4 MiB budget, so stages 1 and 2 run over chunks of
        # max(2, t, min(2t, 4)) images with t engine threads: the 2 the
        # budget asks for, at least one per thread, and two per thread while
        # the batch still makes two chunks. Stages 3 and 4 run whole
        spec = build_variant("T2")
        store, _ = fuse_model(init_params(spec, seed=0), spec)
        x = np.random.default_rng(0).standard_normal((8, 3, 224, 224), dtype=np.float32)
        model_forward(spec, store, x)  # build the plan
        conv1 = {id(op.conv1): op.name for op in store.plan.ops if op.name.endswith(".mlp")}
        seen, real_conv = [], tensor_ops.conv2d

        def conv2d(x, p):
            if id(p) in conv1:
                seen.append((conv1[id(p)].split(".")[0], len(x)))
            return real_conv(x, p)

        monkeypatch.setattr(tensor_ops, "conv2d", conv2d)
        model_forward(spec, store, x)
        threads = tensor_ops._THREADS
        step = max(2, threads, min(2 * threads, 4))
        chunks = [min(step, 8 - lo) for lo in range(0, 8, step)]
        by_stage = [[k for stage, k in seen if stage == f"stage{i}"] for i in range(1, 5)]
        # per chunk, the two blocks of stage 1, then the two of stage 2
        assert by_stage[:2] == [[k for k in chunks for _ in range(2)]] * 2
        assert by_stage[2:] == [[8] * 6, [8] * 4]

    def test_chunked_forward_holds_one_chunk_of_hidden_tensor(self):
        # T2 fused at batch 8 and 224 x 224 runs stages 1 and 2 and merge2
        # over 4-image chunks and peaks at 13.12 MiB (13.88 MiB with the
        # gathered buffer allocated after the first chunk, 15.41 MiB when
        # the chunks ended before merge2), which a test below bounds tightly.
        # The bound here is that of
        # chunking only the MLPs, by ``step`` images each (16.87 MiB with
        # 2-image chunks): the shortcut and the MLP input of the whole batch,
        # and one chunk's hidden tensor and 65-channel second conv output.
        # With whole-batch MLPs the forward peaks at 24.6 MiB
        step = max(2, tensor_ops._THREADS)
        live = 4 * 56 * 56 * (2 * 8 * 64 + step * (128 + 65))
        assert fused_forward_peak("T2", 8, 224) < live + (1 << 20)

    def test_a_larger_batch_runs_more_chunks_not_larger_ones(self, monkeypatch):
        # with two engine threads, T2 fused at batch 16 and 224 x 224 runs
        # stages 1 to 3 and merge3 over four 4-image chunks and peaks at
        # 13.50 MiB, one chunk's working set and three finished merge3
        # outputs, under the batch-8 bound of the test above (13.88 MiB with
        # the gathered buffer allocated after the first chunk, 15.41 MiB when
        # the chunks ended before merge3, 31.46 MiB
        # when only the MLPs ran over chunks, with the shortcut and the MLP
        # input held for all 16 images)
        monkeypatch.setattr(tensor_ops, "_THREADS", 2)
        live = 4 * 56 * 56 * (2 * 8 * 64 + 2 * (128 + 65))
        assert fused_forward_peak("T2", 16, 224) < live + (1 << 20)

    def test_the_chunked_prefix_is_gathered_after_its_merge(self, monkeypatch):
        # with two engine threads, T2 fused at batch 8 and 224 x 224 runs
        # stages 1 and 2 and merge2 over 4-image chunks, so the chunks are
        # gathered at merge2's 256-channel 14 x 14 output, not at stage 2's
        # 128-channel 28 x 28 one, twice its bytes, and only after the last
        # chunk. It peaks at 13.12 MiB in the second chunk's stage-1 MLP,
        # where the first chunk's merge2 output and the chunk's 64-channel
        # shortcut, 128-channel hidden tensor and 65-channel conv2 output
        # are live (13.88 MiB with the whole gathered buffer allocated after
        # the first chunk, 15.41 MiB when the chunks ended before merge2)
        monkeypatch.setattr(tensor_ops, "_THREADS", 2)
        chunk = 4 * 56 * 56 * 4 * (64 + 128 + 65)
        finished = 4 * 256 * 14 * 14 * 4
        assert fused_forward_peak("T2", 8, 224) < chunk + finished + (1 << 19)

    def test_chunks_lower_the_peak_of_a_batch_of_three(self, monkeypatch):
        # with two engine threads, T2 fused at batch 3 and 224 x 224 runs
        # stage 1 as 2 + 1 images and peaks at 6.18 MiB, below the whole
        # batch's 64-channel shortcut and MLP input and 128-channel hidden
        # tensor, which a whole-batch MLP holds (9.24 MiB when only the MLPs
        # ran over chunks, which at n = 3 saved nothing)
        monkeypatch.setattr(tensor_ops, "_THREADS", 2)
        assert fused_forward_peak("T2", 3, 224) < 3 * 56 * 56 * 4 * (64 + 64 + 128)

    @pytest.mark.parametrize("kind", ["float32", "float64", "strided"])
    @pytest.mark.parametrize("fused", [False, True])
    def test_every_op_may_run_over_chunks(self, rng, monkeypatch, fused, kind):
        # a 1-byte budget puts every MLP over it, so the whole plan, head
        # included, runs over chunks of two images per engine thread, the
        # last one short, each converted to float32 on its own; the logits
        # are bitwise the whole batch's
        spec = tiny_spec()
        store = perturbed(init_params(spec, seed=5), seed=5)
        if fused:
            store, _ = fuse_model(store, spec)
        threads = tensor_ops._THREADS
        x = rand_t4(rng, 4 * threads + 1, 3, 32, 32)
        whole = model_forward(spec, store, x)
        x = {"float32": x, "float64": x.astype(np.float64),
             "strided": np.repeat(x, 2, axis=3)[..., ::2]}[kind]
        monkeypatch.setattr(model_mod, "_CHUNK_BYTES", 1)
        ops = store.plan.ops
        assert model_mod._prefix_chunks(ops, len(x), (32, 32)) == (len(ops), 2 * threads)
        assert model_forward(spec, store, x).tobytes() == whole.tobytes()

    def test_chunk_outputs_live_until_their_one_gather(self, rng, monkeypatch):
        # the chunk outputs are concatenated once, after the last chunk, so
        # while a chunk runs only the outputs of the chunks before it are
        # live, and none is left once the gathered output goes on to the
        # rest of the plan
        spec = tiny_spec()
        store = init_params(spec, seed=5)
        x = rand_t4(rng, 4 * tensor_ops._THREADS + 1, 3, 32, 32)
        model_forward(spec, store, x)  # build the plan
        monkeypatch.setattr(model_mod, "_CHUNK_BYTES", 1)
        outputs, alive, real_run = [], [], model_mod._run

        def run(ops, held):
            alive.append([ref() is not None for ref in outputs])
            y = real_run(ops, held)
            outputs.append(weakref.ref(y))
            return y

        monkeypatch.setattr(model_mod, "_run", run)
        y = model_forward(spec, store, x)
        # 3 chunks, then the rest of the plan, empty here, on the gathered
        # output, which is the logits
        assert alive == [[], [True], [True, True], [False] * 3]
        assert [ref() is not None for ref in outputs] == [False] * 3 + [True]
        assert outputs[3]() is y and y.shape == (len(x), NUM_CLASSES)

    # (the op the chunks end after, images per chunk) for T2 at 224 x 224,
    # by batch and engine threads; None, n when the batch runs whole
    PREFIX_RULE = {
        2: {1: (None, 2), 2: (None, 2), 4: (None, 2)},
        3: {1: ("merge1", 2), 2: ("merge1", 2), 4: (None, 3)},
        8: {1: ("merge2", 2), 2: ("merge2", 4), 4: ("merge2", 4)},
        16: {1: ("merge3", 3), 2: ("merge3", 4), 4: ("merge3", 8)},
    }

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("n", list(PREFIX_RULE))
    def test_prefix_chunk_rule(self, monkeypatch, n, threads):
        # the widest hidden tensor is 1.53 MiB per image, at stage 1, so
        # n = 2 fits the 4 MiB budget, n = 3 needs 2 chunks of it and n = 8
        # needs 4. At n = 8 stage 2 (0.77 MiB per image) is over the budget
        # too, and at n = 16 (7 chunks) stage 3 (0.38 MiB per image) is.
        # Floors: one image per thread, and two per thread where the batch
        # allows two such chunks
        monkeypatch.setattr(tensor_ops, "_THREADS", threads)
        ops = plan_and_schema(build_variant("T2"), fused=True)[0].ops
        end, step = self.PREFIX_RULE[n][threads]
        k = 0 if end is None else [op.name for op in ops].index(end) + 1
        assert model_mod._prefix_chunks(ops, n, (224, 224)) == (k, step)

    @pytest.mark.parametrize("variant", ["T0", "T2"])
    def test_a_plan_keeps_no_copy_of_its_weights(self, variant):
        # after its first forward a plan holds only references to the
        # store's tensors; each 3x3 conv call makes its own tap-major
        # weights and each pat_sf call its position bias: 40 KiB for T0 and
        # 22 KiB for T2 stay allocated, against 0.84 and 3.21 MiB when every
        # plan kept a tap-major copy of each 3x3 weight
        spec = build_variant(variant, input_size=64)
        store, _ = fuse_model(init_params(spec, seed=0), spec)
        x = np.random.default_rng(0).standard_normal((2, 3, 64, 64), dtype=np.float32)
        tracemalloc.start()
        try:
            model_forward(spec, store, x)  # the output is freed at once
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert store.plan is not None and kept < 256 << 10

    def test_converted_input_is_freed_after_the_stem(self):
        # a float64 input is copied to float32; once the stem has consumed
        # the copy nothing names it, so the copy (2.46 MB) does not raise
        # the peak
        spec = build_variant("T2", input_size=160)
        store, _ = fuse_model(init_params(spec, seed=0), spec)
        x64 = np.random.default_rng(0).standard_normal((8, 3, 160, 160))
        x32 = x64.astype(np.float32)
        model_forward(spec, store, x32)  # build the plan outside the measurement
        peaks = []
        for x in (x32, x64):
            tracemalloc.start()
            try:
                model_forward(spec, store, x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.1e6


def fused_forward_peak(variant: str, n: int, size: int) -> int:
    """tracemalloc peak of a fused forward of ``n`` images, with the plan
    built outside the measurement."""
    spec = build_variant(variant, input_size=size)
    store, _ = fuse_model(init_params(spec, seed=0), spec)
    x = np.random.default_rng(0).standard_normal((n, 3, size, size), dtype=np.float32)
    model_forward(spec, store, x)
    tracemalloc.start()
    try:
        model_forward(spec, store, x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def perturbed(store: ParamStore, seed: int) -> ParamStore:
    """Non-zero biases and position tables, BN away from identity."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, t in store.tensors.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("bias", "b1", "b2", "bq", "bk", "bv", "bo", "rpe", "beta", "mean"):
            t = rng.normal(0.0, 0.2, t.shape).astype(np.float32)
        elif leaf in ("gamma", "var"):
            t = rng.uniform(0.5, 1.5, t.shape).astype(np.float32)
        tensors[name] = t
    return ParamStore(tensors=tensors)


class TestBatchInvariance:
    """An image's logits do not depend on the batch it is sent in."""

    # at 224 the pat_sf projections of a batch slice run as one GEMM; at 64
    # they run per image (see blocks._SMALL_GEMM_MACS)
    @pytest.mark.parametrize("variant,size", [("T0", 224), ("T2", 224), ("T0", 64)])
    def test_each_row_is_bitwise_its_batch_1_forward(self, monkeypatch, variant, size):
        spec = build_variant(variant, input_size=size)
        store = perturbed(init_params(spec, seed=3), seed=3)
        fused, _ = fuse_model(store, spec)
        x = np.random.default_rng(4).standard_normal((8, 3, size, size), dtype=np.float32)
        for s in (store, fused):
            single = [model_forward(spec, s, x[i : i + 1]).tobytes() for i in range(8)]
            for pool in ("armed", None):
                if pool is None:
                    monkeypatch.setattr(tensor_ops, "_POOL", None)
                for n in (3, 8):
                    rows = model_forward(spec, s, x[:n])
                    assert [rows[i : i + 1].tobytes() for i in range(n)] == single[:n], (
                        s.fused, pool, n)
            monkeypatch.undo()


class TestNonSquareExtents:
    """A model built for a non-square input runs end to end: the pat_sf
    position bias is gathered over an (h, w) grid with h != w."""

    @pytest.mark.parametrize("hw", [(64, 96), (96, 64), (32, 128)],
                             ids=["64x96", "96x64", "32x128"])
    @pytest.mark.parametrize("variant", ["T0", "T2"])
    def test_forward(self, variant, hw):
        spec = dataclasses.replace(build_variant(variant), input_hw=hw)
        store = perturbed(init_params(spec, seed=3), seed=3)
        fused, _ = fuse_model(store, spec)
        x = np.random.default_rng(4).standard_normal((3, 3, *hw), dtype=np.float32)
        ref = model_forward(spec, store, x)
        assert np.isfinite(ref).all()
        scale = float(np.abs(ref).max())
        assert float(np.abs(model_forward(spec, fused, x) - ref).max()) <= FUSE_RTOL * scale
        for s in (store, fused):
            rows = model_forward(spec, s, x)
            for i in range(3):
                assert rows[i].tobytes() == model_forward(spec, s, x[i : i + 1])[0].tobytes(), (
                    s.fused, i)
            assert s.plan.macs == count_flops(spec, hw, s.fused)
