import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patnet import reference as ref
from patnet import tensor_ops
from patnet.tensor_ops import (
    EPS_STAT,
    BnParams,
    ConvParams,
    ShapeError,
    activation,
    batch_norm_infer,
    channel_stats,
    conv2d,
    gelu,
    global_avg_pool,
    hard_sigmoid,
    matmul,
    relu,
    sigmoid,
    softmax_rows,
)

from conftest import rand_t4


class TestConv2d:
    def test_all_ones_3x3_sums_window(self):
        x = np.ones((1, 1, 3, 3), np.float32)
        p = ConvParams(np.ones((1, 1, 3, 3), np.float32))
        out = conv2d(x, p)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_1x1_unit_kernel_is_identity(self, rng):
        x = rand_t4(rng, 2, 1, 5, 4)
        p = ConvParams(np.ones((1, 1, 1, 1), np.float32))
        assert np.array_equal(conv2d(x, p), x)

    def test_matches_naive_with_padding(self, rng):
        x = rand_t4(rng, 2, 8, 6, 6)
        w = rng.standard_normal((4, 8, 3, 3)).astype(np.float32)
        p = ConvParams(w, padding=1)
        fast = conv2d(x, p)
        naive = ref.conv2d_naive(x, p)
        assert np.abs(fast - naive).max() <= 1e-5

    def test_stride_and_bias_match_naive(self, rng):
        x = rand_t4(rng, 1, 3, 7, 7)
        w = rng.standard_normal((5, 3, 2, 2)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        p = ConvParams(w, b, stride=2, padding=1)
        assert np.abs(conv2d(x, p) - ref.conv2d_naive(x, p)).max() <= 1e-5

    def test_depthwise_equals_per_channel(self, rng):
        c = 6
        x = rand_t4(rng, 2, c, 5, 5)
        w = rng.standard_normal((c, 1, 3, 3)).astype(np.float32)
        p = ConvParams(w, padding=1, groups=c)
        whole = conv2d(x, p)
        for ci in range(c):
            single = conv2d(x[:, ci : ci + 1],
                            ConvParams(w[ci : ci + 1], padding=1))
            assert np.array_equal(whole[:, ci : ci + 1], single)

    @pytest.mark.parametrize("hw", [(1, 1), (2, 3), (7, 7), (1, 5), (5, 1)])
    @pytest.mark.parametrize("groups", [1, 6])
    def test_3x3_taps_match_naive(self, rng, hw, groups):
        # 3x3 stride 1 pad 1, dense and depthwise, on extents where most or
        # all of the off-centre taps fall off the edge, or where every
        # flattened tap add wraps across row ends (one row or one column)
        x = rand_t4(rng, 2, 6, *hw)
        w = rng.standard_normal((6, 6 // groups, 3, 3)).astype(np.float32)
        b = rng.standard_normal(6).astype(np.float32)
        p = ConvParams(w, b, padding=1, groups=groups)
        assert np.abs(conv2d(x, p) - ref.conv2d_naive(x, p)).max() <= 1e-5

    @pytest.mark.parametrize("k,hw", [(2, (6, 8)), (2, (7, 5)), (4, (8, 12)),
                                      (4, (9, 11))])
    def test_patchify_matches_naive(self, rng, k, hw):
        # kernel == stride, pad 0; odd extents leave a remainder row/column
        x = rand_t4(rng, 2, 3, *hw)
        w = rng.standard_normal((5, 3, k, k)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        p = ConvParams(w, b, stride=k)
        assert np.abs(conv2d(x, p) - ref.conv2d_naive(x, p)).max() <= 1e-5

    def test_channel_mismatch_names_dimension(self, rng):
        x = rand_t4(rng, 1, 5, 4, 4)
        p = ConvParams(np.ones((2, 8, 1, 1), np.float32))
        with pytest.raises(ShapeError, match="channels 5"):
            conv2d(x, p)

    def test_no_admissible_window_rejected(self):
        x = np.ones((1, 1, 2, 2), np.float32)
        with pytest.raises(ShapeError, match="window"):
            conv2d(x, ConvParams(np.ones((1, 1, 4, 4), np.float32)))


class TestBatchNorm:
    def test_identity_params(self, rng):
        x = rand_t4(rng, 2, 3, 4, 4)
        p = BnParams(np.ones(3, np.float32), np.zeros(3, np.float32),
                     np.zeros(3, np.float32), np.ones(3, np.float32), eps=0.0)
        assert np.allclose(batch_norm_infer(x, p), x, atol=1e-7)

    def test_constant_input_returns_beta(self):
        x = np.full((1, 2, 3, 3), 5.0, np.float32)
        p = BnParams(np.array([2.0, -1.0], np.float32),
                     np.array([0.25, 7.0], np.float32),
                     np.full(2, 5.0, np.float32), np.ones(2, np.float32))
        out = batch_norm_infer(x, p)
        assert np.allclose(out[0, 0], 0.25, atol=1e-6)
        assert np.allclose(out[0, 1], 7.0, atol=1e-6)

    def test_matches_scalar_formula(self, rng):
        x = rand_t4(rng, 2, 5, 3, 4)
        p = BnParams(rng.standard_normal(5).astype(np.float32),
                     rng.standard_normal(5).astype(np.float32),
                     rng.standard_normal(5).astype(np.float32),
                     rng.uniform(0.1, 2.0, 5).astype(np.float32))
        assert np.abs(batch_norm_infer(x, p) - ref.batch_norm_naive(x, p)).max() <= 1e-6

    def test_length_mismatch_rejected(self, rng):
        x = rand_t4(rng, 1, 4, 2, 2)
        p = BnParams(np.ones(3, np.float32), np.zeros(3, np.float32),
                     np.zeros(3, np.float32), np.ones(3, np.float32))
        with pytest.raises(ShapeError):
            batch_norm_infer(x, p)


class TestActivations:
    def test_relu_values(self):
        x = np.array([[[[-1.0, 2.0]]]], np.float32)
        assert np.array_equal(activation(x, "relu"),
                              np.array([[[[0.0, 2.0]]]], np.float32))

    def test_gelu_zero_and_symmetry(self):
        x = np.array([0.0, 1.0, -1.0], np.float32)
        y = activation(x, "gelu")
        assert y[0] == 0.0
        # gelu(x) - gelu(-x) == x
        assert math.isclose(float(y[1] - y[2]), 1.0, rel_tol=1e-6)

    def test_gelu_against_erf_formula(self, rng):
        x = rng.standard_normal(64).astype(np.float32)
        expected = np.array([0.5 * v * (1 + math.erf(v / math.sqrt(2))) for v in x],
                            np.float32)
        assert np.abs(activation(x, "gelu") - expected).max() <= 1e-6

    def test_gelu_matches_float64_oracle(self):
        x = np.concatenate([np.linspace(-10.0, 10.0, 200_001),
                            [1e4, -1e4, 0.0]]).astype(np.float32)
        y = activation(x, "gelu")
        assert y.dtype == np.float32
        assert np.abs(y - ref.gelu_naive(x)).max() <= 1e-6

    def test_sigmoid_matches_extended_precision(self):
        # within two units of the last place of 1.0 in the working dtype
        for dtype in (np.float32, np.float64):
            x = np.linspace(-40.0, 40.0, 8001).astype(dtype)
            y = sigmoid(x)
            assert y.dtype == dtype
            assert np.abs(y - ref.sigmoid_naive(x)).max() <= 2 * np.finfo(dtype).eps

    def test_sigmoid_large_magnitude_no_overflow(self):
        x = np.array([-1e4, -100.0, 0.0, 100.0, 1e4], np.float32)
        with np.errstate(over="raise", invalid="raise"):
            y = sigmoid(x)
        assert y.tolist() == [0.0, pytest.approx(0.0, abs=1e-40), 0.5, 1.0, 1.0]

    @pytest.mark.parametrize("v,expected", [(-3.0, 0.0), (3.0, 1.0),
                                            (1.5, 0.75), (0.0, 0.5)])
    def test_hard_sigmoid_piecewise(self, v, expected):
        assert float(hard_sigmoid(np.array([v], np.float32))[0]) == pytest.approx(expected)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown activation"):
            activation(np.zeros(1, np.float32), "swish")

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32))
    def test_hard_sigmoid_range(self, vals):
        y = hard_sigmoid(np.array(vals, np.float32).reshape(1, 1, 1, -1))
        assert np.all(y >= 0.0) and np.all(y <= 1.0)


class TestInPlace:
    """BN and the activations write into ``out``, which may be their input,
    with the bits of the out-of-place call."""

    BN = BnParams(np.linspace(0.5, 1.5, 6, dtype=np.float32),
                  np.linspace(-0.2, 0.2, 6, dtype=np.float32),
                  np.linspace(-1.0, 1.0, 6, dtype=np.float32),
                  np.linspace(0.5, 2.0, 6, dtype=np.float32))
    KERNELS = {
        "relu": lambda x, out: relu(x, out=out),
        "gelu": lambda x, out: gelu(x, out=out),
        "batch_norm": lambda x, out: batch_norm_infer(x, TestInPlace.BN, out=out),
        "activation-relu": lambda x, out: activation(x, "relu", out=out),
        "activation-gelu": lambda x, out: activation(x, "gelu", out=out),
    }

    @pytest.mark.parametrize("armed", [
        False,
        pytest.param(True, marks=pytest.mark.skipif(
            not tensor_ops._split_ready(), reason="the batch split cannot run here"))],
        ids=["serial", "split"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_out_is_x_bitwise_out_of_place(self, rng, kernel, dtype, armed):
        fn = self.KERNELS[kernel]
        x = (rng.standard_normal((5, 6, 7, 9)) * 3).astype(dtype)
        x[0, 0, 0, :5] = [0.0, -0.0, 40.0, -40.0, 1e30]  # gelu's exp underflow and x^2 = inf
        with tensor_ops._split_batches(len(x) if armed else 1):
            assert (tensor_ops._split_thread is not None) == armed
            expected = fn(x, None)
            y = x.copy()
            got = fn(y, y)
        assert got is y and got.dtype == dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [k for k in KERNELS if k != "batch_norm"])
    def test_zero_d_input_runs_as_one_element(self, kernel, dtype):
        # a 0-d array or a numpy scalar, with or without ``out``, gives the
        # bits of the 1-element call and keeps its dtype
        fn = self.KERNELS[kernel]
        for v in (-40.0, -1.5, -0.0, 0.7, 3.0):
            one = fn(np.array([v], dtype), None)
            for x in (np.array(v, dtype), dtype(v)):
                y = fn(x, None)
                assert y.shape == () and y.dtype == dtype
                assert y.tobytes() == one.tobytes()
                out = np.empty((), dtype)
                assert fn(x, out) is out and out.tobytes() == one.tobytes()
            a = np.array(v, dtype)
            assert fn(a, a) is a and a.tobytes() == one.tobytes()

    def test_out_must_match_the_input(self):
        x = np.ones((2, 6, 3, 3), np.float32)
        for out in (np.empty((2, 6, 3, 4), np.float32), np.empty(x.shape, np.float64)):
            for fn in self.KERNELS.values():
                with pytest.raises(ShapeError, match="does not match"):
                    fn(x, out)

    B = tensor_ops._GELU_BLOCK
    # each takes a C-contiguous (2, n) array and returns a copy of its values
    # in a layout
    LAYOUTS = {
        "contiguous": lambda a: a.copy(),
        "transposed": lambda a: a.T.copy().T,
        "strided": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
    }

    @pytest.mark.parametrize("armed", [
        False,
        pytest.param(True, marks=pytest.mark.skipif(
            not tensor_ops._split_ready(), reason="the batch split cannot run here"))],
        ids=["serial", "split"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 5])
    def test_gelu_blocks_keep_the_unblocked_bits(self, rng, n, layout, dtype, armed):
        # serial runs walk 2n elements and split runs n per slice, so block
        # boundaries fall inside rows, at their ends and past them
        a = (rng.standard_normal((2, n)) * 4).astype(dtype)
        special = [0.0, -0.0, 40.0, -40.0, 1e30]  # exp underflow and x^2 = inf
        k = min(len(special), a.size)
        a.reshape(-1)[:k] = special[:k]
        view = self.LAYOUTS[layout]
        expected = _gelu_unblocked(view(a))
        y = view(a)
        with tensor_ops._split_batches(2 if armed else 1):
            assert (tensor_ops._split_thread is not None) == armed
            got = gelu(view(a))
            assert gelu(y, y) is y
        assert got.dtype == dtype and got.strides == np.empty_like(view(a)).strides
        assert got.tobytes() == expected.tobytes()
        assert y.tobytes() == expected.tobytes()

    def test_gelu_in_place_scratch_is_two_blocks(self):
        # gelu(x, x) on 9.2 MiB of float32 allocates two scratch blocks of
        # 4 * 2^16 bytes (512 KiB); 64 KiB is left for the iterator and small
        # objects. Three whole-tensor scratch buffers would add 27.6 MiB
        x = np.random.default_rng(0).standard_normal((8, 96, 56, 56), dtype=np.float32)
        tracemalloc.start()
        try:
            gelu(x, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 4 * self.B + (64 << 10)


def _gelu_unblocked(x):
    """GELU's A&S steps in one pass over three whole-tensor buffers, the
    unblocked evaluation the blocked kernel must match bit for bit."""
    dt = x.dtype.type
    a = np.abs(x)
    t = np.multiply(a, dt(tensor_ops._AS_P))
    t += 1
    np.reciprocal(t, out=t)
    q = np.multiply(t, dt(tensor_ops._AS_HALF_COEFFS[0]))
    for c in tensor_ops._AS_HALF_COEFFS[1:]:
        q += dt(c)
        q *= t
    with np.errstate(over="ignore"):
        np.multiply(x, x, out=t)
    t *= dt(-0.5)
    np.exp(t, out=t)
    q *= t
    q *= a
    out = np.maximum(x, 0)
    out -= q
    return out


class TestPoolingAndStats:
    def test_pool_constant(self):
        x = np.full((1, 2, 3, 3), 3.0, np.float32)
        assert np.allclose(global_avg_pool(x), 3.0)

    def test_pool_two_values(self):
        x = np.array([[[[0.0, 2.0]]]], np.float32)
        assert float(global_avg_pool(x)[0, 0]) == 1.0

    def test_pool_matches_naive(self, rng):
        x = rand_t4(rng, 2, 4, 5, 5)
        assert np.abs(global_avg_pool(x) - ref.global_avg_pool_naive(x)).max() <= 1e-6

    def test_stats_constant_channel(self):
        x = np.full((1, 1, 4, 4), 2.5, np.float32)
        mean, std = channel_stats(x)
        assert float(mean[0, 0]) == pytest.approx(2.5)
        assert float(std[0, 0]) == pytest.approx(math.sqrt(EPS_STAT), rel=1e-5)

    def test_stats_two_values(self):
        x = np.array([[[[1.0, 3.0]]]], np.float32)
        mean, std = channel_stats(x)
        assert float(mean[0, 0]) == pytest.approx(2.0)
        assert float(std[0, 0]) == pytest.approx(math.sqrt(1.0 + EPS_STAT), rel=1e-6)

    def test_stats_match_two_pass(self, rng):
        x = rand_t4(rng, 1, 8, 4, 4)
        mean, std = channel_stats(x)
        m2, s2 = ref.channel_stats_naive(x, EPS_STAT)
        assert np.abs(mean - m2).max() <= 1e-6
        assert np.abs(std - s2).max() <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 5, 1, 1), (1, 7, 3, 5), (3, 24, 14, 14)])
    def test_stats_bitwise_numpy_var(self, rng, shape, dtype):
        x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
        mean, std = channel_stats(x)
        assert mean.dtype == std.dtype == dtype
        assert np.array_equal(mean, x.mean(axis=(2, 3)))
        assert np.array_equal(std, np.sqrt(x.var(axis=(2, 3)) + EPS_STAT, dtype=dtype))

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_stats_std_floor(self, h, w, seed):
        x = (np.random.default_rng(seed).standard_normal((1, 3, h, w)) * 10).astype(np.float32)
        _, std = channel_stats(x)
        assert np.all(std >= math.sqrt(EPS_STAT) * (1 - 1e-6))


class TestSoftmax:
    def test_equal_row(self):
        out = softmax_rows(np.full((1, 4), 2.0, np.float32))
        assert np.allclose(out, 0.25)

    def test_large_magnitude_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 1000.0]], np.float32))
        assert np.allclose(out, 0.5)
        assert np.isfinite(out).all()

    def test_matches_extended_precision(self, rng):
        m = rng.standard_normal((8, 8)).astype(np.float32) * 3
        assert np.abs(softmax_rows(m) - ref.softmax_rows_naive(m)).max() <= 1e-6

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10_000),
           st.sampled_from([1.0, 100.0, 1000.0]))
    @settings(max_examples=60)
    def test_rows_sum_to_one(self, r, c, seed, scale):
        m = (np.random.default_rng(seed).standard_normal((r, c)) * scale).astype(np.float32)
        sums = softmax_rows(m).sum(axis=-1)
        assert np.abs(sums - 1.0).max() <= 1e-6


class TestMatmul:
    def test_identity(self, rng):
        a = rng.standard_normal((4, 4)).astype(np.float32)
        assert np.allclose(matmul(np.eye(4, dtype=np.float32), a), a)

    def test_scalar_product(self):
        assert float(matmul(np.array([[3.0]], np.float32),
                            np.array([[4.0]], np.float32))[0, 0]) == 12.0

    def test_matches_triple_loop(self, rng):
        a = rng.standard_normal((7, 5)).astype(np.float32)
        b = rng.standard_normal((5, 3)).astype(np.float32)
        assert np.abs(matmul(a, b) - ref.matmul_naive(a, b)).max() <= 1e-5

    def test_dim_mismatch_rejected(self):
        # the message names the two dimensions compared, for a 2-d and a
        # stacked right operand
        with pytest.raises(ShapeError, match=r"inner dims disagree \(3 vs 4\)"):
            matmul(np.zeros((2, 3), np.float32), np.zeros((4, 2), np.float32))
        with pytest.raises(ShapeError, match=r"inner dims disagree \(3 vs 5\)"):
            matmul(np.zeros((2, 1, 3), np.float32), np.zeros((2, 5, 6), np.float32))
