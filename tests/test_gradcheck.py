import numpy as np
import pytest

from patnet.blocks import PartialSplit
from patnet.gradcheck import (
    BLOCK_KINDS,
    block_vjp,
    conv2d_vjp,
    finite_diff_grad,
    gradcheck_block,
    make_probe,
    softmax_vjp,
)
from patnet.tensor_ops import ConvParams, conv2d, softmax_rows

from conftest import rand_t4


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda v: float(v[0] ** 2), np.array([3.0]), h=1e-4)
        assert abs(g[0] - 6.0) <= 1e-7

    def test_constant_function(self):
        g = finite_diff_grad(lambda v: 1.25, np.ones(5), h=1e-4)
        assert not g.any()

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda v: 0.0, np.ones(1), h=0.0)

    def test_conv_input_gradient(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        up = rng.standard_normal((1, 3, 5, 5))
        p = ConvParams(w, padding=1)

        gx, _, _ = conv2d_vjp(x, p, up)
        num = finite_diff_grad(lambda v: float((up * conv2d(v, p)).sum()), x, 1e-5)
        rel = np.abs(gx - num) / np.maximum(1.0, np.abs(num))
        assert rel.max() <= 1e-6


class TestBlockVjp:
    def test_zero_upstream_gives_zero_grads(self, rng):
        x, split, params, _, sizes = make_probe("pat_ch", seed=0)
        gx, grads = block_vjp("pat_ch", params, x, split, np.zeros_like(x))
        assert not gx.any()
        assert all(not g.any() for g in grads.values())

    def test_saturated_gate_kills_map_gradient(self, rng):
        c = 8
        x = rand_t4(rng, 1, c, 4, 4)
        params = {
            "map.weight": np.zeros((1, c, 1, 1), np.float32),
            "map.bias": np.full(1, 10.0, np.float32),
        }
        up = rand_t4(rng, 1, c, 4, 4)
        _, grads = block_vjp("pat_sp", params, x, PartialSplit(c, 2), up)
        assert not grads["map.weight"].any()
        assert not grads["map.bias"].any()

    def test_conv_branch_gradient_ignores_untouched_input(self, rng):
        x, split, params, _, _ = make_probe("pat_ch", seed=3)
        up = np.zeros_like(x)
        up[:, : split.c_p] = rand_t4(rng, 1, split.c_p, x.shape[2], x.shape[3])
        gx, _ = block_vjp("pat_ch", params, x, split, up)
        assert not gx[:, split.c_p :].any()

    def test_upstream_shape_checked(self, rng):
        x, split, params, _, _ = make_probe("pat_ch", seed=0)
        with pytest.raises(ValueError, match="upstream"):
            block_vjp("pat_ch", params, x, split, x[:, :, :2, :2])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="block kind"):
            block_vjp("pat_xx", {}, np.zeros((1, 4, 2, 2)), PartialSplit(4, 1),
                      np.zeros((1, 4, 2, 2)))

    def test_gradcheck_of_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown block kind 'bogus'"):
            gradcheck_block("bogus")


class TestSoftmaxVjp:
    def test_annihilates_constants(self, rng):
        logits = rng.standard_normal((6, 9)).astype(np.float64)
        s = softmax_rows(logits)
        up = rng.standard_normal((6, 9))
        g = softmax_vjp(s, up)
        assert np.abs(g.sum(axis=-1)).max() <= 1e-6


class TestGradcheckBlock:
    def test_pat_ch_default_probe_passes(self):
        report = gradcheck_block("pat_ch", seed=0)
        assert report.passed and report.max_error < 1e-3

    def test_pat_ch_tight_in_float64(self):
        report = gradcheck_block("pat_ch", seed=0, dtype=np.float64,
                                 tolerance=1e-6)
        assert report.passed, report.errors

    def test_pat_sf_nine_tokens_two_heads(self):
        report = gradcheck_block("pat_sf", seed=1,
                                 sizes=dict(channels=16, c_p=4, hw=3, heads=2))
        assert report.passed, report.errors

    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    @pytest.mark.parametrize("seed", range(5))
    def test_all_blocks_all_seeds(self, kind, seed):
        report = gradcheck_block(kind, seed=seed)
        assert report.passed, (kind, seed, report.errors)

    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    @pytest.mark.parametrize("c_p", [0, 8])
    def test_no_conv_and_all_conv_splits(self, kind, c_p):
        # at c_p == channels the lowering builds no gate and empty projections
        report = gradcheck_block(kind, sizes=dict(channels=8, c_p=c_p, heads=2))
        assert report.passed, (kind, c_p, report.errors)

    def test_injected_fault_detected(self):
        report = gradcheck_block("pat_ch", seed=0, corrupt=0.1)
        assert not report.passed

    def test_report_covers_input_and_params(self):
        report = gradcheck_block("pat_sp", seed=0)
        assert set(report.errors) == {"input", "map.weight", "map.bias"}
