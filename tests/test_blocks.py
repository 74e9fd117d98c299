import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patnet import reference as ref
from patnet.blocks import (
    PartialSplit,
    PatChParams,
    PatSfParams,
    PatSpParams,
    apply_spatial_gate,
    channel_split,
    gaussian_se_gate,
    pat_ch_forward,
    pat_sf_forward,
    pat_sp_forward,
    pconv_forward,
    relative_index_grid,
)
from patnet.tensor_ops import ConvParams, ShapeError

from conftest import rand_t4


def make_conv3(rng, c):
    w = rng.standard_normal((c, c, 3, 3)).astype(np.float32) / 3.0
    return ConvParams(w, padding=1)


def identity_conv3(c):
    w = np.zeros((c, c, 3, 3), np.float32)
    w[np.arange(c), np.arange(c), 1, 1] = 1.0
    return ConvParams(w, padding=1)


def make_patch(rng, c_u, conv=None, w_scale=1.0, b2=None):
    hid = max(8, c_u)
    return PatChParams(
        conv,
        se_w1=(rng.standard_normal((hid, 2 * c_u)) * w_scale).astype(np.float32),
        se_b1=np.zeros(hid, np.float32),
        se_w2=(rng.standard_normal((c_u, hid)) * w_scale).astype(np.float32),
        se_b2=np.zeros(c_u, np.float32) if b2 is None else b2,
    )


def make_patsf(rng, c_u, heads, hw, conv=None, scale=1.0, zero_rpe=False):
    """``hw`` is the side of a square extent or an (h, w) pair."""
    hh, ww = (hw, hw) if isinstance(hw, int) else hw

    def mat():
        return (rng.standard_normal((c_u, c_u)) * scale / math.sqrt(c_u)).astype(np.float32)

    def vec():
        return (rng.standard_normal(c_u) * scale * 0.2).astype(np.float32)

    bins = (2 * hh - 1) * (2 * ww - 1)
    rpe = np.zeros((heads, bins), np.float32) if zero_rpe else \
        (rng.standard_normal((heads, bins)) * 0.3).astype(np.float32)
    return PatSfParams(conv, mat(), vec(), mat(), vec(), mat(), vec(),
                       mat(), vec(), heads=heads, rpe_table=rpe, rpe_hw=(hh, ww))


class TestSplitConcat:
    def test_quarter_ratio_widths(self):
        s = PartialSplit(64, 16)
        assert s.c_p == 16 and s.c_u == 48

    def test_zero_cp_degenerate(self, rng):
        x = rand_t4(rng, 1, 4, 2, 2)
        x_p, x_u = channel_split(x, PartialSplit(4, 0))
        assert x_p.shape[1] == 0
        assert np.array_equal(x_u, x)

    def test_round_trip_bitwise(self, rng):
        x = rand_t4(rng, 2, 8, 3, 3)
        s = PartialSplit(8, 2)
        assert np.array_equal(pconv_forward(x, identity_conv3(s.c_p), s), x)

    def test_split_channel_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            channel_split(rand_t4(rng, 1, 6, 2, 2), PartialSplit(8, 2))

    @given(st.integers(0, 8), st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_round_trip_property(self, c_p, seed):
        x = np.random.default_rng(seed).standard_normal((1, 8, 2, 2)).astype(np.float32)
        s = PartialSplit(8, c_p)
        assert np.array_equal(pconv_forward(x, identity_conv3(c_p), s), x)


class TestGaussianSeGate:
    def test_zero_weights_give_half(self, rng):
        c_u = 6
        p = make_patch(rng, c_u, w_scale=0.0)
        gate = gaussian_se_gate(rand_t4(rng, 2, c_u, 4, 4), p)
        assert np.allclose(gate, 0.5)

    def test_saturation_at_large_bias(self, rng):
        c_u = 6
        p = make_patch(rng, c_u, w_scale=0.0, b2=np.full(c_u, 20.0, np.float32))
        gate = gaussian_se_gate(rand_t4(rng, 1, c_u, 4, 4), p)
        assert np.all(gate.astype(np.float64) > 1 - 1e-8)

    def test_matches_scalar_recomputation(self, rng):
        c_u = 8
        x = rand_t4(rng, 1, c_u, 4, 4)
        p = make_patch(rng, c_u)
        gate = gaussian_se_gate(x, p)
        expected = _scalar_gate(p, x)
        for ci in range(c_u):
            assert float(gate[0, ci]) == pytest.approx(expected[ci], abs=1e-6)

    def test_gate_open_interval(self, rng):
        gate = gaussian_se_gate(rand_t4(rng, 2, 8, 3, 3), make_patch(rng, 8))
        assert np.all(gate > 0.0) and np.all(gate < 1.0)


def _scalar_gate(p, x):
    """Plain-python SE head evaluation for one sample."""
    c_u = x.shape[1]
    stats = []
    for ci in range(c_u):
        vals = [float(v) for v in x[0, ci].reshape(-1)]
        m = sum(vals) / len(vals)
        var = sum((v - m) ** 2 for v in vals) / len(vals)
        stats.append((m, math.sqrt(var + 1e-5)))
    z = [m for m, _ in stats] + [s for _, s in stats]
    hid = []
    for row, b in zip(p.se_w1, p.se_b1):
        acc = sum(float(w) * v for w, v in zip(row, z)) + float(b)
        hid.append(max(acc, 0.0))
    out = []
    for row, b in zip(p.se_w2, p.se_b2):
        acc = sum(float(w) * v for w, v in zip(row, hid)) + float(b)
        out.append(1.0 / (1.0 + math.exp(-acc)))
    return out


class TestPatCh:
    def test_full_cp_reduces_to_conv(self, rng):
        c = 8
        x = rand_t4(rng, 1, c, 5, 5)
        conv = make_conv3(rng, c)
        p = PatChParams(conv)
        out = pat_ch_forward(x, p, PartialSplit(c, c))
        assert np.array_equal(out, _fast(x, conv))

    def test_zero_se_halves_untouched(self, rng):
        c, cp = 8, 2
        x = rand_t4(rng, 1, c, 4, 4)
        p = make_patch(rng, c - cp, conv=make_conv3(rng, cp), w_scale=0.0)
        out = pat_ch_forward(x, p, PartialSplit(c, cp))
        assert np.allclose(out[:, cp:], x[:, cp:] * 0.5)

    def test_matches_composed_oracle(self, rng):
        c, cp = 16, 4
        x = rand_t4(rng, 1, c, 6, 6)
        conv = make_conv3(rng, cp)
        p = make_patch(rng, c - cp, conv=conv)
        out = pat_ch_forward(x, p, PartialSplit(c, cp))

        conv_ref = ref.conv2d_naive(x[:, :cp], conv)
        gate = np.array(_scalar_gate(p, x[:, cp:]), np.float32)
        untouched_ref = x[:, cp:] * gate[None, :, None, None]
        assert np.abs(out[:, :cp] - conv_ref).max() <= 1e-5
        assert np.abs(out[:, cp:] - untouched_ref).max() <= 1e-5

    def test_conv_branch_ignores_untouched_channels(self, rng):
        c, cp = 8, 2
        x = rand_t4(rng, 1, c, 4, 4)
        p = make_patch(rng, c - cp, conv=make_conv3(rng, cp))
        s = PartialSplit(c, cp)
        base = pat_ch_forward(x, p, s)
        x2 = x.copy()
        x2[:, cp:] += rand_t4(rng, 1, c - cp, 4, 4)
        moved = pat_ch_forward(x2, p, s)
        assert np.array_equal(base[:, :cp], moved[:, :cp])

    def test_gate_ignores_conv_channels(self, rng):
        c, cp = 8, 2
        x = rand_t4(rng, 1, c, 4, 4)
        p = make_patch(rng, c - cp, conv=make_conv3(rng, cp))
        x2 = x.copy()
        x2[:, :cp] += 1.0
        assert np.array_equal(gaussian_se_gate(x[:, cp:], p),
                              gaussian_se_gate(x2[:, cp:], p))

    def test_contraction_on_untouched(self, rng):
        c, cp = 8, 2
        x = rand_t4(rng, 2, c, 4, 4)
        p = make_patch(rng, c - cp, conv=make_conv3(rng, cp))
        out = pat_ch_forward(x, p, PartialSplit(c, cp))
        assert np.all(np.abs(out[:, cp:]) <= np.abs(x[:, cp:]))

    def test_zero_ratio_with_unit_gate_is_identity(self, rng):
        c = 8
        x = rand_t4(rng, 1, c, 4, 4)
        p = make_patch(rng, c, w_scale=0.0, b2=np.full(c, 40.0, np.float32))
        out = pat_ch_forward(x, p, PartialSplit(c, 0))
        assert np.array_equal(out, x)


def _fast(x, conv):
    from patnet.tensor_ops import conv2d
    return conv2d(x, conv)


class TestPatSp:
    def test_zero_map_halves_untouched(self, rng):
        c, cp = 8, 2
        x = rand_t4(rng, 1, c, 4, 4)
        p = PatSpParams(ConvParams(np.zeros((1, c, 1, 1), np.float32),
                                   np.zeros(1, np.float32)))
        out = pat_sp_forward(x, p, PartialSplit(c, cp))
        assert np.array_equal(out[:, :cp], x[:, :cp])
        assert np.allclose(out[:, cp:], x[:, cp:] * 0.5)

    def test_saturated_map_is_identity(self, rng):
        c = 8
        x = rand_t4(rng, 2, c, 3, 3)
        p = PatSpParams(ConvParams(np.zeros((1, c, 1, 1), np.float32),
                                   np.full(1, 10.0, np.float32)))
        out = pat_sp_forward(x, p, PartialSplit(c, 2))
        assert np.array_equal(out, x)

    def test_matches_scalar_recomputation(self, rng):
        c, cp = 8, 2
        x = rand_t4(rng, 2, c, 5, 5)
        w = rng.standard_normal((1, c, 1, 1)).astype(np.float32)
        b = rng.standard_normal(1).astype(np.float32)
        p = PatSpParams(ConvParams(w, b))
        out = pat_sp_forward(x, p, PartialSplit(c, cp))

        for ni in range(2):
            for yi in range(5):
                for xi in range(5):
                    logit = sum(float(w[0, ci, 0, 0]) * float(x[ni, ci, yi, xi])
                                for ci in range(c)) + float(b[0])
                    a = min(max((logit + 3.0) / 6.0, 0.0), 1.0)
                    for ci in range(cp, c):
                        expected = float(x[ni, ci, yi, xi]) * a
                        assert float(out[ni, ci, yi, xi]) == pytest.approx(
                            expected, abs=1e-6)

    def test_contraction_on_untouched(self, rng):
        c, cp = 8, 2
        x = rand_t4(rng, 1, c, 4, 4)
        w = rng.standard_normal((1, c, 1, 1)).astype(np.float32)
        p = PatSpParams(ConvParams(w, np.zeros(1, np.float32)))
        out = pat_sp_forward(x, p, PartialSplit(c, cp))
        assert np.all(np.abs(out[:, cp:]) <= np.abs(x[:, cp:]))

    def test_full_ratio_is_identity(self, rng):
        c = 8
        x = rand_t4(rng, 1, c, 3, 3)
        w = rng.standard_normal((1, c, 1, 1)).astype(np.float32)
        p = PatSpParams(ConvParams(w, np.zeros(1, np.float32)))
        assert np.array_equal(pat_sp_forward(x, p, PartialSplit(c, c)), x)


class TestPatSf:
    def test_single_token_attention(self, rng):
        c, cp = 8, 4
        c_u = c - cp
        x = rand_t4(rng, 1, c, 1, 1)
        p = make_patsf(rng, c_u, heads=2, hw=1, conv=None, zero_rpe=False)
        # 3x3 conv on a 1x1 extent still works through padding
        conv = make_conv3(rng, cp)
        p = PatSfParams(conv, p.wq, p.bq, p.wk, p.bk, p.wv, p.bv, p.wo, p.bo,
                        heads=2, rpe_table=p.rpe_table, rpe_hw=(1, 1))
        out = pat_sf_forward(x, p, PartialSplit(c, cp))
        xu = x[0, cp:, 0, 0].astype(np.float64)
        v = p.wv.astype(np.float64) @ xu + p.bv
        expected = p.wo.astype(np.float64) @ v + p.bo
        assert np.abs(out[0, cp:, 0, 0] - expected).max() <= 1e-5

    def test_zero_query_uniform_attention(self, rng):
        c, cp, hw = 16, 4, 3
        c_u = c - cp
        x = rand_t4(rng, 1, c, hw, hw)
        base = make_patsf(rng, c_u, heads=2, hw=hw, conv=make_conv3(rng, cp),
                          zero_rpe=True)
        p = PatSfParams(base.conv3, np.zeros_like(base.wq), np.zeros_like(base.bq),
                        base.wk, base.bk, base.wv, base.bv, base.wo, base.bo,
                        heads=2, rpe_table=base.rpe_table, rpe_hw=(hw, hw))
        out = pat_sf_forward(x, p, PartialSplit(c, cp))

        tokens = x[0, cp:].reshape(c_u, hw * hw).T.astype(np.float64)
        v = tokens @ p.wv.T.astype(np.float64) + p.bv
        mean_v = v.mean(axis=0)
        expected = p.wo.astype(np.float64) @ mean_v + p.bo
        for t in range(hw * hw):
            got = out[0, cp:].reshape(c_u, hw * hw)[:, t]
            assert np.abs(got - expected).max() <= 1e-5

    @pytest.mark.parametrize("hh,ww", [(4, 4), (2, 3), (3, 2)])
    def test_matches_flat_oracle(self, rng, hh, ww):
        c, cp, heads = 16, 4, 2
        c_u = c - cp
        x = rand_t4(rng, 1, c, hh, ww)
        conv = make_conv3(rng, cp)
        p = make_patsf(rng, c_u, heads=heads, hw=(hh, ww), conv=conv)
        out = pat_sf_forward(x, p, PartialSplit(c, cp))

        # flat per-element recomputation in float64; token t sits at row
        # t // ww, column t % ww, and each pair reads the table bin of its
        # offset (dy, dx), counted from (-(hh - 1), -(ww - 1))
        L = hh * ww
        d = c_u // heads
        tokens = x[0, cp:].reshape(c_u, L).T.astype(np.float64)
        q = tokens @ p.wq.T + p.bq
        k = tokens @ p.wk.T + p.bk
        v = tokens @ p.wv.T + p.bv
        ctx = np.zeros((L, c_u))
        for h in range(heads):
            sl = slice(h * d, (h + 1) * d)
            logits = q[:, sl] @ k[:, sl].T / math.sqrt(d)
            for i in range(L):
                for j in range(L):
                    dy, dx = i // ww - j // ww, i % ww - j % ww
                    logits[i, j] += p.rpe_table[h, (dy + hh - 1) * (2 * ww - 1) + dx + ww - 1]
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            attn = e / e.sum(axis=1, keepdims=True)
            ctx[:, sl] = attn @ v[:, sl]
        expected_u = (ctx @ p.wo.T + p.bo).T.reshape(c_u, hh, ww)
        assert np.abs(out[0, cp:] - expected_u).max() <= 1e-5
        assert np.abs(out[0, :cp] - ref.conv2d_naive(x[:, :cp], conv)[0]).max() <= 1e-5

    def test_index_grid_is_cached_and_read_only(self):
        # every forward at one extent shares one grid, so none may write it
        idx = relative_index_grid(2, 3)
        assert relative_index_grid(2, 3) is idx and not idx.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            idx[0, 0] = 1

    def test_zero_rpe_is_purely_content_based(self, rng):
        # a zero position table must reproduce bias-free attention exactly
        c, cp, hw, heads = 16, 4, 3, 2
        c_u = c - cp
        x = rand_t4(rng, 1, c, hw, hw)
        p = make_patsf(rng, c_u, heads=heads, hw=hw, conv=make_conv3(rng, cp),
                       zero_rpe=True)
        out = pat_sf_forward(x, p, PartialSplit(c, cp))

        L, d = hw * hw, c_u // heads
        tokens = x[0, cp:].reshape(c_u, L).T.astype(np.float64)
        q = tokens @ p.wq.T + p.bq
        k = tokens @ p.wk.T + p.bk
        v = tokens @ p.wv.T + p.bv
        ctx = np.zeros((L, c_u))
        for h in range(heads):
            sl = slice(h * d, (h + 1) * d)
            logits = q[:, sl] @ k[:, sl].T / math.sqrt(d)  # no bias term
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            ctx[:, sl] = (e / e.sum(axis=1, keepdims=True)) @ v[:, sl]
        expected = (ctx @ p.wo.T + p.bo).T.reshape(c_u, hw, hw)
        assert np.abs(out[0, cp:] - expected).max() <= 1e-5

    def test_extent_mismatch_rejected(self, rng):
        c, cp = 16, 4
        p = make_patsf(rng, c - cp, heads=2, hw=3, conv=make_conv3(rng, cp))
        with pytest.raises(ShapeError, match="extent"):
            pat_sf_forward(rand_t4(rng, 1, c, 4, 4), p, PartialSplit(c, cp))

    def test_conv_branch_ignores_untouched_channels(self, rng):
        c, cp, hw = 16, 4, 3
        x = rand_t4(rng, 1, c, hw, hw)
        p = make_patsf(rng, c - cp, heads=2, hw=hw, conv=make_conv3(rng, cp))
        s = PartialSplit(c, cp)
        base = pat_sf_forward(x, p, s)
        x2 = x.copy()
        x2[:, cp:] *= 1.7
        moved = pat_sf_forward(x2, p, s)
        assert np.array_equal(base[:, :cp], moved[:, :cp])

    def test_outputs_are_convex_token_mixes(self, rng):
        # with wo = I, b = 0 the untouched output is attn @ V; rows of attn
        # are convex weights, so outputs stay inside V's column-wise range
        c, cp, hw = 16, 4, 3
        c_u = c - cp
        x = rand_t4(rng, 1, c, hw, hw)
        base = make_patsf(rng, c_u, heads=2, hw=hw, conv=make_conv3(rng, cp))
        p = PatSfParams(base.conv3, base.wq, base.bq, base.wk, base.bk,
                        base.wv, base.bv,
                        np.eye(c_u, dtype=np.float32), np.zeros(c_u, np.float32),
                        heads=2, rpe_table=base.rpe_table, rpe_hw=(hw, hw))
        out = pat_sf_forward(x, p, PartialSplit(c, cp))
        tokens = x[0, cp:].reshape(c_u, hw * hw).T
        v = tokens @ p.wv.T + p.bv  # (L, c_u)
        got = out[0, cp:].reshape(c_u, hw * hw).T
        eps = 1e-5
        assert np.all(got >= v.min(axis=0) - eps)
        assert np.all(got <= v.max(axis=0) + eps)

    def test_full_ratio_reduces_to_conv(self, rng):
        c = 8
        x = rand_t4(rng, 1, c, 3, 3)
        conv = make_conv3(rng, c)
        zm = np.zeros((0, 0), np.float32)
        zv = np.zeros(0, np.float32)
        p = PatSfParams(conv, zm, zv, zm, zv, zm, zv, zm, zv, heads=1,
                        rpe_table=np.zeros((1, 25), np.float32), rpe_hw=(3, 3))
        out = pat_sf_forward(x, p, PartialSplit(c, c))
        assert np.array_equal(out, _fast(x, conv))


class TestPConv:
    def test_untouched_pass_through_bitwise(self, rng):
        c, cp = 8, 2
        x = rand_t4(rng, 1, c, 4, 4)
        out = pconv_forward(x, make_conv3(rng, cp), PartialSplit(c, cp))
        assert np.array_equal(out[:, cp:], x[:, cp:])

    def test_zero_cp_is_identity(self, rng):
        x = rand_t4(rng, 1, 4, 3, 3)
        out = pconv_forward(x, make_conv3(rng, 1), PartialSplit(4, 0))
        assert np.array_equal(out, x)

    def test_equals_patch_with_saturated_gate(self, rng):
        c, cp = 8, 2
        x = rand_t4(rng, 1, c, 4, 4)
        conv = make_conv3(rng, cp)
        forced = make_patch(rng, c - cp, conv=conv, w_scale=0.0,
                            b2=np.full(c - cp, 40.0, np.float32))
        assert np.array_equal(pconv_forward(x, conv, PartialSplit(c, cp)),
                              pat_ch_forward(x, forced, PartialSplit(c, cp)))


@pytest.mark.parametrize("cp", [0, 2])
def test_partial_blocks_never_return_memory_of_their_input(rng, cp):
    # the residual add writes into a block's output in place
    c, hw = 8, 3
    x = rand_t4(rng, 2, c, hw, hw)
    s = PartialSplit(c, cp)
    conv = make_conv3(rng, cp) if cp else None
    outs = {
        "pat_ch": pat_ch_forward(x, make_patch(rng, c - cp, conv=conv), s),
        "pat_sf": pat_sf_forward(x, make_patsf(rng, c - cp, 2, hw, conv=conv), s),
        "spatial_gate": apply_spatial_gate(x, rand_t4(rng, 2, 1, hw, hw), s),
        "pconv": pconv_forward(x, make_conv3(rng, cp or 1), s),
    }
    for name, out in outs.items():
        assert out.shape == x.shape and not np.may_share_memory(out, x), name
