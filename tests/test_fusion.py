import dataclasses

import numpy as np
import pytest

from patnet import blocks, fusion, tensor_ops
from patnet.config import build_variant
from patnet.fusion import FusionError, fold_bn, fuse_model, merge_patsp
from patnet.model import ParamStore, init_params, model_forward
from patnet.tensor_ops import BnParams, ConvParams, ShapeError, batch_norm_infer, conv2d

from conftest import rand_t4
from test_model import tiny_spec


def random_bn(rng, c):
    return BnParams(rng.uniform(0.5, 2.0, c).astype(np.float32),
                    rng.standard_normal(c).astype(np.float32),
                    rng.standard_normal(c).astype(np.float32),
                    rng.uniform(0.2, 3.0, c).astype(np.float32))


class TestFoldBn:
    def test_identity_bn_leaves_conv_unchanged(self, rng):
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        conv = ConvParams(w, padding=1)
        bn = BnParams(np.ones(4, np.float32), np.zeros(4, np.float32),
                      np.zeros(4, np.float32), np.ones(4, np.float32), eps=0.0)
        fused = fold_bn(conv, bn)
        assert np.array_equal(fused.weight, w)
        assert np.allclose(fused.bias, 0.0)

    def test_zero_conv_with_beta_gives_bias(self):
        conv = ConvParams(np.zeros((2, 3, 1, 1), np.float32))
        bn = BnParams(np.ones(2, np.float32), np.full(2, 2.0, np.float32),
                      np.zeros(2, np.float32), np.ones(2, np.float32), eps=0.0)
        assert np.allclose(fold_bn(conv, bn).bias, 2.0)

    def test_random_pair_equivalent_on_input(self, rng):
        conv = ConvParams(rng.standard_normal((6, 4, 3, 3)).astype(np.float32),
                          rng.standard_normal(6).astype(np.float32), padding=1)
        bn = random_bn(rng, 6)
        x = rand_t4(rng, 2, 4, 6, 6)
        ref = batch_norm_infer(conv2d(x, conv), bn)
        out = conv2d(x, fold_bn(conv, bn))
        assert np.abs(ref - out).max() <= 1e-4

    def test_channel_mismatch_rejected(self, rng):
        conv = ConvParams(np.ones((4, 2, 1, 1), np.float32))
        with pytest.raises(ShapeError, match="out_ch"):
            fold_bn(conv, random_bn(rng, 3))


class TestMergePatsp:
    def test_zero_map_appends_zero_row(self, rng):
        c = 6
        conv2 = ConvParams(rng.standard_normal((c, 2 * c, 1, 1)).astype(np.float32),
                           rng.standard_normal(c).astype(np.float32))
        map_conv = ConvParams(np.zeros((1, c, 1, 1), np.float32),
                              np.array([0.75], np.float32))
        merged = merge_patsp(conv2, map_conv)
        assert merged.out_ch == c + 1
        assert not merged.weight[c].any()
        assert merged.bias[c] == pytest.approx(0.75)
        assert np.array_equal(merged.weight[:c], conv2.weight)

    def test_selector_map_copies_row(self, rng):
        c = 5
        conv2 = ConvParams(rng.standard_normal((c, 2 * c, 1, 1)).astype(np.float32),
                           rng.standard_normal(c).astype(np.float32))
        w = np.zeros((1, c, 1, 1), np.float32)
        w[0, 0] = 1.0
        merged = merge_patsp(conv2, ConvParams(w, np.zeros(1, np.float32)))
        assert np.allclose(merged.weight[c], conv2.weight[0], atol=1e-7)
        assert merged.bias[c] == pytest.approx(conv2.bias[0])

    def test_random_merge_matches_two_conv_pipeline(self, rng):
        c = 8
        conv2 = ConvParams(rng.standard_normal((c, 2 * c, 1, 1)).astype(np.float32),
                           rng.standard_normal(c).astype(np.float32))
        map_conv = ConvParams(rng.standard_normal((1, c, 1, 1)).astype(np.float32),
                              rng.standard_normal(1).astype(np.float32))
        merged = merge_patsp(conv2, map_conv)
        worst = 0.0
        for _ in range(1000):
            x = rand_t4(rng, 1, 2 * c, 3, 3)
            m = conv2d(x, conv2)
            ref = np.concatenate([m, conv2d(m, map_conv)], axis=1)
            worst = max(worst, float(np.abs(ref - conv2d(x, merged)).max()))
        assert worst <= 1e-4

    def test_rejects_non_pointwise(self, rng):
        conv2 = ConvParams(rng.standard_normal((4, 8, 3, 3)).astype(np.float32))
        map_conv = ConvParams(np.ones((1, 4, 1, 1), np.float32))
        with pytest.raises(ShapeError, match="1x1"):
            merge_patsp(conv2, map_conv)


@pytest.fixture(scope="module")
def fused_pair():
    spec = tiny_spec()
    store = init_params(spec, seed=21)
    fused, report = fuse_model(store, spec)
    return spec, store, fused, report


class TestFuseModel:
    def test_fused_store_is_smaller(self, fused_pair):
        _, store, fused, report = fused_pair
        assert len(fused.tensors) < len(store.tensors)
        assert report.tensors_removed == len(store.tensors) - len(fused.tensors)
        assert fused.fused

    def test_rewrite_deviations_recorded_and_small(self, fused_pair):
        spec, _, _, report = fused_pair
        n_folds = 4 + sum(len(s) for s in spec.stages)  # embed + merges + mlps
        n_merges = sum(len(s) for s in spec.stages)
        assert len(report.deviations) == n_folds + n_merges
        assert report.max_deviation <= 1e-4

    def test_end_to_end_equivalence(self, fused_pair, rng):
        spec, store, fused, _ = fused_pair
        for _ in range(4):
            x = rand_t4(rng, 1, 3, 32, 32)
            a = model_forward(spec, store, x)
            b = model_forward(spec, fused, x)
            assert np.abs(a - b).max() <= 1e-3

    def test_double_fuse_rejected(self, fused_pair):
        spec, _, fused, _ = fused_pair
        with pytest.raises(ValueError, match="already fused"):
            fuse_model(fused, spec)

    def test_makes_no_attention_bias(self, monkeypatch):
        # fusing reads the lowered ops' weights and runs no forward
        calls = []
        real = blocks.attention_bias
        monkeypatch.setattr(blocks, "attention_bias", lambda p: calls.append(p) or real(p))
        spec = build_variant("T2")
        fuse_model(init_params(spec, seed=0), spec)
        assert calls == []

    def test_mismatched_store_raises_before_any_kernel(self, monkeypatch):
        spec = tiny_spec()
        store = init_params(spec, seed=21)
        name = "stage1.block0.mlp.conv1.weight"
        bad = with_tensor(store, name, store[name][:, :-1])
        calls = []
        monkeypatch.setattr(tensor_ops, "conv2d", lambda *a: calls.append(a))
        with pytest.raises(ShapeError, match=f"tensor '{name}' has shape"):
            fuse_model(bad, spec)
        assert calls == []

    def test_source_store_untouched(self, fused_pair):
        spec, store, _, _ = fused_pair
        fresh = init_params(spec, seed=21)
        assert all(np.array_equal(store[k], fresh[k]) for k in fresh.names())


def with_tensor(store, name, value):
    return ParamStore(tensors={**store.tensors, name: value})


class TestFusionGate:
    def test_nan_deviation_is_rejected(self):
        # (x - inf) - (x - inf) is NaN, which max() would pass over
        spec = tiny_spec()
        store = init_params(spec, seed=21)
        mean = "stage1.block0.mlp.bn.mean"
        bad = with_tensor(store, mean, np.full_like(store[mean], np.inf))
        with pytest.raises(FusionError, match="fold_bn:stage1.block0.mlp.conv1"):
            fuse_model(bad, spec)

    def test_drifting_fold_is_rejected(self, monkeypatch):
        real = fusion.fold_bn

        def off_by_one(conv, bn):
            fused = real(conv, bn)
            return dataclasses.replace(fused, bias=fused.bias + 1)

        monkeypatch.setattr(fusion, "fold_bn", off_by_one)
        spec = tiny_spec()
        with pytest.raises(FusionError, match="fold_bn:embed.conv"):
            fuse_model(init_params(spec, seed=21), spec)
