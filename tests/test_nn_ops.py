"""Forward-value checks for the autodiff core: ops against naive oracles."""

import gc
import itertools

import numpy as np
import pytest

from hiloseg import nn
from hiloseg.nn import functional as F
from hiloseg.nn.layers import (
    ConditionalPointNorm,
    Conv3d,
    Dense,
    ElementNorm,
    Module,
    PointNorm,
    ReferencePoints,
    ResidualBlockConv3d,
    ResidualBlockFC,
    fan_in_uniform,
)
from hiloseg.nn.tensor import grad_enabled, memory_meter


def naive_conv3d(x, w, padding=0):
    """Six-loop cross-correlation, the slow reference for conv3d."""
    b, d, h, wd, cin = x.shape
    k = w.shape[0]
    cout = w.shape[4]
    if padding:
        p = padding
        x = np.pad(x, ((0, 0), (p, p), (p, p), (p, p), (0, 0)))
    od, oh, ow = (n - k + 1 for n in x.shape[1:4])
    out = np.zeros((b, od, oh, ow, cout), dtype=x.dtype)
    for bi in range(b):
        for zo in range(od):
            for yo in range(oh):
                for xo in range(ow):
                    patch = x[bi, zo : zo + k, yo : yo + k, xo : xo + k, :]
                    for co in range(cout):
                        out[bi, zo, yo, xo, co] = np.sum(patch * w[..., :, co])
    return out


def naive_conv3d_grads(x, w, g, padding=0):
    """conv3d's input and weight gradients for output gradient ``g`` by plain
    loops: each output voxel sends its gradient through the kernel back to
    its patch, and its patch times its gradient to the kernel."""
    p = padding
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p), (0, 0)))
    k = w.shape[0]
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    b, od, oh, ow, _ = g.shape
    for bi, zo, yo, xo in itertools.product(range(b), range(od), range(oh), range(ow)):
        patch = (bi, slice(zo, zo + k), slice(yo, yo + k), slice(xo, xo + k))
        go = g[bi, zo, yo, xo]
        dxp[patch] += w @ go
        dw += xp[patch][..., None] * go
    d, h, wd = x.shape[1:4]
    return dxp[:, p : p + d, p : p + h, p : p + wd], dw


def set_conv_chunks(monkeypatch, chunks, x, padding, k=3):
    """Cap conv3d's scratch for input ``x``: "whole" leaves the cap, "plane"
    gives one output plane per chunk, and "pair" gives the forward and
    weight-gradient passes k + 1 slab planes, two output planes, per chunk,
    so the last chunk is ragged when the output depth is odd."""
    if chunks == "plane":
        monkeypatch.setattr(F, "CONV_SCRATCH_BYTES", 1)
    elif chunks == "pair":
        oh, ow = (n + 2 * padding - k + 1 for n in x.shape[2:4])
        slab_plane = oh * ow * k * k * x.shape[4] * x.itemsize
        monkeypatch.setattr(F, "CONV_SCRATCH_BYTES", (k + 1) * slab_plane)


def conv3d_grads(x, w, g, padding=0):
    """Input and weight gradients of conv3d for output gradient ``g``."""
    xt = nn.Tensor(x.copy(), requires_grad=True)
    wt = nn.Tensor(w.copy(), requires_grad=True)
    y = F.conv3d(xt, wt, padding=padding)
    F.sum_all(F.mul(y, g)).backward()  # hands conv3d exactly g
    return xt.grad, wt.grad


class TestElementwiseOps:
    def test_add_mul_scale_values(self, rng):
        a = nn.Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        b = nn.Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        np.testing.assert_allclose(F.add(a, b).data, a.data + b.data)
        np.testing.assert_allclose(F.mul(a, b).data, a.data * b.data)
        np.testing.assert_allclose(F.scale(a, -2.5).data, a.data * -2.5)

    def test_broadcast_add_gradient_unbroadcasts(self, rng):
        a = nn.parameter(rng.normal(size=(4, 3)).astype(np.float64))
        b = nn.parameter(rng.normal(size=(3,)).astype(np.float64))
        F.sum_all(F.add(a, b)).backward()
        np.testing.assert_allclose(a.grad, np.ones((4, 3)))
        np.testing.assert_allclose(b.grad, np.full(3, 4.0))

    def test_matmul_and_reshape(self, rng):
        a = nn.Tensor(rng.normal(size=(2, 5, 3)).astype(np.float64))
        b = nn.Tensor(rng.normal(size=(3, 7)).astype(np.float64))
        np.testing.assert_allclose(F.matmul(a, b).data, a.data @ b.data)
        np.testing.assert_allclose(
            F.reshape(a, (10, 3)).data, a.data.reshape(10, 3)
        )

    @pytest.mark.parametrize("op", ["matmul", "add", "mul"])
    def test_parameter_gradient_sums_instances_in_order(self, rng, op):
        """A parameter's float32 gradient over a batch of 3 is the
        single-instance gradients added in instance order, bit for bit."""
        x = rng.normal(size=(3, 50, 8)).astype(np.float32)
        shape = (8, 6) if op == "matmul" else (8,)
        w0 = rng.normal(size=shape).astype(np.float32)
        g = rng.normal(size=(3, 50, shape[-1])).astype(np.float32)

        def grad(rows):
            w = nn.parameter(w0.copy())
            F.sum_all(F.mul(getattr(F, op)(nn.Tensor(x[rows]), w), g[rows])).backward()
            return w.grad

        g0, g1, g2 = (grad(slice(i, i + 1)) for i in range(3))
        np.testing.assert_array_equal(grad(slice(None)), (g0 + g1) + g2)

    def test_concat_matches_numpy(self, rng):
        parts = [nn.Tensor(rng.normal(size=(2, n)).astype(np.float32)) for n in (1, 4, 2)]
        got = F.concat(parts, axis=-1)
        np.testing.assert_allclose(got.data, np.concatenate([p.data for p in parts], axis=-1))

    def test_mean_sum_reductions(self, rng):
        a = nn.parameter(rng.normal(size=(6, 2)).astype(np.float64))
        assert F.mean_all(a).item() == pytest.approx(a.data.mean())
        s = F.sum_all(a)
        assert s.item() == pytest.approx(a.data.sum())
        s.backward()
        np.testing.assert_allclose(a.grad, np.ones((6, 2)))


class TestActivations:
    def test_leaky_relu_formula(self, rng):
        x = rng.normal(size=200).astype(np.float64)
        got = F.leaky_relu(nn.Tensor(x), slope=0.01).data
        want = np.where(x > 0, x, 0.01 * x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [1e-30, 0.01, 0.5, 1.0])
    def test_leaky_relu_bit_equal_to_where_formula(self, dtype, slope):
        x = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-40, -1e-40, 3e38, -3e38, 1.5, -2.5],
            dtype=dtype,
        )
        got = F.leaky_relu(nn.Tensor(x), slope=slope).data
        want = np.where(x > 0, x, x * slope)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("slope", [0.0, -0.01, 1.5, np.nan])
    def test_leaky_relu_slope_outside_unit_interval(self, slope):
        with pytest.raises(ValueError, match="slope"):
            F.leaky_relu(nn.Tensor(np.ones(3)), slope=slope)

    def test_selu_constants_and_formula(self, rng):
        # the fixed-point constants, to full double precision
        assert abs(F.SELU_LAMBDA - 1.0507009873554804934193349852946) < 1e-12
        assert abs(F.SELU_ALPHA - 1.6732632423543772848170429916717) < 1e-12
        x = rng.normal(size=200).astype(np.float64) * 3
        got = F.selu(nn.Tensor(x)).data
        want = np.where(x > 0, F.SELU_LAMBDA * x, F.SELU_LAMBDA * F.SELU_ALPHA * (np.exp(x) - 1))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_selu_bit_equal_to_where_formula(self, dtype, bits):
        """The forward has the bits of where(x > 0, lambda*x, lambda*alpha*
        expm1(min(x, 0))), and the gradient taken from the output those of
        the gradient taken from the input, on random bit patterns: NaNs,
        infinities, subnormals and signed zeros included."""
        rng = np.random.default_rng(3)
        x = rng.integers(0, np.iinfo(bits).max, 200_000, dtype=bits, endpoint=True).view(dtype)
        tiny = np.finfo(dtype).smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 1.0, -1.0]
        x = np.concatenate([x, np.array(special, dtype)])
        g = rng.normal(size=x.shape).astype(dtype)
        lam, lam_alpha = F.SELU_LAMBDA, F.SELU_LAMBDA * F.SELU_ALPHA
        with np.errstate(all="ignore"):
            neg = lam_alpha * np.expm1(np.minimum(x, 0.0))
            want = np.where(x > 0, lam * x, neg)
            want_grad = np.where(x > 0, g * lam, g * (neg + lam_alpha))
            xt = nn.Tensor(x.copy(), requires_grad=True)
            y = F.selu(xt)
            got = y.data.tobytes()
            F.sum_all(F.mul(y, g)).backward()  # hands selu exactly g
        assert got == want.tobytes()
        assert xt.grad.tobytes() == want_grad.tobytes()

    def test_selu_self_normalizing_fixed_point(self, rng):
        # unit-gaussian input keeps roughly zero mean and unit variance
        x = rng.standard_normal(200_000)
        y = F.selu(nn.Tensor(x)).data
        assert abs(y.mean()) < 0.01
        assert abs(y.var() - 1.0) < 0.02

    def test_sigmoid_formula_and_stability(self):
        x = np.array([-1000.0, -20.0, -1.0, 0.0, 1.0, 20.0, 1000.0])
        with np.errstate(over="raise", invalid="raise"):
            got = F.sigmoid(nn.Tensor(x)).data
        want = 1.0 / (1.0 + np.exp(-x[1:-1]))
        np.testing.assert_allclose(got[1:-1], want, rtol=1e-12)
        # the extremes saturate without overflow
        assert got[0] == 0.0 and got[-1] == 1.0


class TestConv3d:
    def test_matches_naive_loops(self, rng):
        for padding in (0, 1, 2):
            x = rng.normal(size=(2, 5, 4, 6, 3)).astype(np.float64)
            w = rng.normal(size=(3, 3, 3, 3, 2)).astype(np.float64)
            got = F.conv3d(nn.Tensor(x), nn.Tensor(w), padding=padding).data
            want = naive_conv3d(x, w, padding=padding)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_pointwise_kernel_is_channel_mix(self, rng):
        x = rng.normal(size=(1, 3, 3, 3, 4)).astype(np.float64)
        w = rng.normal(size=(1, 1, 1, 4, 2)).astype(np.float64)
        got = F.conv3d(nn.Tensor(x), nn.Tensor(w)).data
        np.testing.assert_allclose(got, x @ w[0, 0, 0], rtol=1e-12)

    def test_identity_kernel(self):
        x = np.arange(2 * 4 * 4 * 4 * 1, dtype=np.float64).reshape(2, 4, 4, 4, 1)
        w = np.zeros((3, 3, 3, 1, 1))
        w[1, 1, 1, 0, 0] = 1.0
        got = F.conv3d(nn.Tensor(x), nn.Tensor(w), padding=1).data
        np.testing.assert_allclose(got, x)

    def test_zero_kernel(self, rng):
        x = rng.normal(size=(1, 4, 4, 4, 2))
        got = F.conv3d(nn.Tensor(x), nn.Tensor(np.zeros((3, 3, 3, 2, 3)))).data
        assert got.shape == (1, 2, 2, 2, 3)
        assert not got.any()

    def test_shape_validation(self, rng):
        x = nn.Tensor(rng.normal(size=(1, 4, 4, 4, 2)))
        with pytest.raises(ValueError):
            F.conv3d(x, nn.Tensor(np.zeros((3, 3, 3, 5, 1))))  # cin mismatch
        with pytest.raises(ValueError):
            F.conv3d(x, nn.Tensor(np.zeros((3, 3, 2, 2, 1))))  # non-cubic
        with pytest.raises(ValueError):
            F.conv3d(x, nn.Tensor(np.zeros((5, 5, 5, 2, 1))))  # kernel too large
        for padding in (-1, 3):
            with pytest.raises(ValueError, match="padding"):
                F.conv3d(x, nn.Tensor(np.zeros((3, 3, 3, 2, 1))), padding=padding)

    def test_chunked_path_independent_of_scratch_cap(self, rng, monkeypatch):
        """The im2col chunking cap changes scratch size, never the result."""
        x = rng.normal(size=(2, 7, 5, 6, 3)).astype(np.float64)
        w = rng.normal(size=(3, 3, 3, 3, 4)).astype(np.float64)
        big = F.conv3d(nn.Tensor(x), nn.Tensor(w), padding=1).data
        monkeypatch.setattr(F, "CONV_SCRATCH_BYTES", 1)  # one output plane per chunk
        small = F.conv3d(nn.Tensor(x), nn.Tensor(w), padding=1).data
        np.testing.assert_array_equal(big, small)

    # ids "5"/"1" (Cout) and "False"/"True" (whole items / one plane per
    # chunk) are the names these cases had before Cin and the pair chunks varied
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("cin, cout", [(3, 5), (3, 1), (1, 5)], ids=["5", "1", "stem"])
    @pytest.mark.parametrize("chunks", ["whole", "plane", "pair"], ids=["False", "True", "pair"])
    def test_gradients_match_plain_loops(self, rng, monkeypatch, padding, cin, cout, chunks):
        x = rng.normal(size=(2, 5, 4, 6, cin))
        w = rng.normal(size=(3, 3, 3, cin, cout))
        set_conv_chunks(monkeypatch, chunks, x, padding)
        g = rng.normal(size=F.conv3d(nn.Tensor(x), nn.Tensor(w), padding=padding).shape)
        got = conv3d_grads(x, w, g, padding)
        want = naive_conv3d_grads(x, w, g, padding)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    # ids "1-p": stride 1, padding p, the names these cases had when conv3d
    # also took stride 2; the other ids as in test_gradients_match_plain_loops
    @pytest.mark.parametrize("padding", [0, 1], ids=["1-0", "1-1"])
    @pytest.mark.parametrize("cin, cout", [(4, 5), (4, 1), (1, 5)], ids=["5", "1", "stem"])
    @pytest.mark.parametrize("chunks", ["whole", "plane", "pair"], ids=["False", "True", "pair"])
    def test_gradients_in_reference_order(self, rng, monkeypatch, padding, cin, cout, chunks):
        """Both float32 gradients keep the per-instance reference order: an
        item's input gradient has the same bits alone and in a batch of 3, and
        the kernel gradient adds the items' partials in order, which makes
        micro-batched training exact."""
        x = rng.normal(size=(3, 7, 6, 8, cin)).astype(np.float32)
        w = rng.normal(size=(3, 3, 3, cin, cout)).astype(np.float32)
        set_conv_chunks(monkeypatch, chunks, x, padding)
        g = rng.normal(size=F.conv3d(nn.Tensor(x), nn.Tensor(w), padding=padding).shape)
        g = g.astype(np.float32)
        dx, dw = conv3d_grads(x, w, g, padding)
        alone = [conv3d_grads(x[i : i + 1], w, g[i : i + 1], padding) for i in range(3)]
        assert dx.dtype == dw.dtype == np.float32
        for i, (dx_i, _) in enumerate(alone):
            np.testing.assert_array_equal(dx[i : i + 1], dx_i)
        np.testing.assert_array_equal(dw, (alone[0][1] + alone[1][1]) + alone[2][1])

    def test_chunked_backward_independent_of_scratch_cap(self, rng, monkeypatch):
        """Chunk edges only regroup float64 sums: both gradients agree."""
        x = rng.normal(size=(2, 7, 5, 6, 3))
        w = rng.normal(size=(3, 3, 3, 3, 4))
        g = rng.normal(size=(2, 7, 5, 6, 4))
        big = conv3d_grads(x, w, g, padding=1)
        monkeypatch.setattr(F, "CONV_SCRATCH_BYTES", 1)  # one output plane per chunk
        small = conv3d_grads(x, w, g, padding=1)
        for got, want in zip(small, big):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_plane_chunks_cover_each_output_plane_once(self, monkeypatch, k):
        """Chunks tile the output planes in order, and a chunk of more than one
        output plane copies at most ``CONV_SCRATCH_BYTES`` of slab rows."""
        h, w = 7, 6
        for d, c, cap in itertools.product((k, k + 1, 9, 16), (1, 6), (1, 5000, 40000, 1 << 30)):
            monkeypatch.setattr(F, "CONV_SCRATCH_BYTES", cap)
            slab = F._slabs(np.zeros((2, d, h, w, c), np.float32), k)
            chunks = F._plane_chunks(slab, k)
            assert [z for d0, d1 in chunks for z in range(d0, d1)] == list(range(d - k + 1))
            for d0, d1 in chunks:
                col = F._col(slab, 1, d0, d1, k)
                rows = (d1 - d0 + k - 1) * (h - k + 1) * (w - k + 1)
                assert col.shape == (rows, k * k * c)
                assert d1 - d0 == 1 or col.nbytes <= cap

    def test_backward_scratch_stays_capped(self, rng, monkeypatch):
        """The meter's peak over forward and backward is the arrays conv3d
        must hold plus one chunk of input-gradient columns, never a whole
        item's."""
        cap = 64 << 10
        monkeypatch.setattr(F, "CONV_SCRATCH_BYTES", cap)
        b, n, cin, cout = 2, 12, 8, 8
        x = nn.Tensor(rng.normal(size=(b, n, n, n, cin)).astype(np.float32), requires_grad=True)
        w = nn.Tensor(rng.normal(size=(3, 3, 3, cin, cout)).astype(np.float32), requires_grad=True)
        gc.collect()
        base = memory_meter.current
        memory_meter.reset_peak()
        F.sum_all(F.conv3d(x, w, padding=1)).backward()
        peak = memory_meter.peak - base
        f32 = 4
        output = b * n**3 * cout * f32  # held twice: the value and its gradient
        padded = b * (n + 2) ** 3 * max(cin, cout) * f32  # the padded input or output gradient
        dx = 2 * x.data.nbytes  # the input gradient and its accumulated copy
        plane = n * n * 27 * cout * f32  # one output plane of input-gradient columns
        bound = 2 * output + padded + dx + w.data.nbytes + max(cap, plane)
        assert peak <= bound
        item_columns = n**3 * 27 * cout * f32
        assert peak + item_columns > bound  # so the bound would catch unchunked columns


class TestResampling:
    def test_avg_pool_matches_reshape_mean(self, rng):
        x = rng.normal(size=(2, 6, 4, 8, 3)).astype(np.float64)
        got = F.avg_pool3d(nn.Tensor(x), 2).data
        want = x.reshape(2, 3, 2, 2, 2, 4, 2, 3).mean(axis=(2, 4, 6))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_avg_pool_validation(self, rng):
        t = nn.Tensor(rng.normal(size=(1, 6, 6, 6, 1)))
        assert F.avg_pool3d(t, 1) is t
        with pytest.raises(ValueError):
            F.avg_pool3d(t, 4)
        with pytest.raises(ValueError):
            F.avg_pool3d(t, 0)

    def test_upsample_matches_repeat(self, rng):
        x = rng.normal(size=(2, 3, 2, 4, 5)).astype(np.float32)
        got = F.upsample_nearest3d(nn.Tensor(x), 2).data
        want = x.repeat(2, axis=1).repeat(2, axis=2).repeat(2, axis=3)
        np.testing.assert_array_equal(got, want)

    def test_upsample_inverts_pool_on_constant_blocks(self, rng):
        coarse = rng.normal(size=(1, 2, 2, 2, 3)).astype(np.float64)
        up = F.upsample_nearest3d(nn.Tensor(coarse), 3)
        back = F.avg_pool3d(up, 3).data
        np.testing.assert_allclose(back, coarse, rtol=1e-12)

    def test_adaptive_pool_uniform_case(self, rng):
        x = rng.normal(size=(2, 4, 4, 4, 3)).astype(np.float64)
        got = F.adaptive_avg_pool3d(nn.Tensor(x), (2, 2, 2)).data
        want = F.avg_pool3d(nn.Tensor(x), 2).data
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_adaptive_pool_ragged_bins(self, rng):
        # extent 5 onto 2 bins splits as [0:2], [2:5]
        x = rng.normal(size=(1, 5, 2, 2, 1)).astype(np.float64)
        got = F.adaptive_avg_pool3d(nn.Tensor(x), (2, 1, 1)).data
        want0 = x[:, 0:2].mean(axis=(1, 2, 3))
        want1 = x[:, 2:5].mean(axis=(1, 2, 3))
        np.testing.assert_allclose(got[:, 0, 0, 0], want0, rtol=1e-12)
        np.testing.assert_allclose(got[:, 1, 0, 0], want1, rtol=1e-12)

    def test_adaptive_pool_target_too_large(self, rng):
        with pytest.raises(ValueError):
            F.adaptive_avg_pool3d(nn.Tensor(rng.normal(size=(1, 2, 4, 4, 1))), (3, 2, 2))

    def test_pad_right(self, rng):
        x = rng.normal(size=(2, 2, 3, 2, 4)).astype(np.float32)
        t = nn.Tensor(x)
        assert F.pad_right3d(t, (2, 3, 2)) is t
        out = F.pad_right3d(t, (4, 3, 5)).data
        assert out.shape == (2, 4, 3, 5, 4)
        np.testing.assert_array_equal(out[:, :2, :3, :2], x)
        assert not out[:, 2:].any() and not out[:, :, :, 2:].any()
        with pytest.raises(ValueError):
            F.pad_right3d(t, (1, 3, 2))

    def test_repeat_middle(self, rng):
        x = rng.normal(size=(3, 5)).astype(np.float32)
        out = F.repeat_middle(nn.Tensor(x), 4).data
        assert out.shape == (3, 4, 5)
        for i in range(4):
            np.testing.assert_array_equal(out[:, i], x)
        with pytest.raises(ValueError):
            F.repeat_middle(nn.Tensor(x), 0)


class TestLosses:
    def test_bce_matches_elementwise_mean(self, rng):
        p = rng.uniform(0.01, 0.99, size=50)
        t = (rng.random(50) > 0.5).astype(np.float64)
        loss = F.bce_loss(nn.Tensor(p[None]), t[None]).item()
        assert loss == pytest.approx(F.elementwise_bce(p, t).mean(), rel=1e-12)

    def test_bce_closed_form(self):
        loss = F.bce_loss(nn.Tensor(np.array([[0.9, 0.2]])), np.array([[1.0, 0.0]])).item()
        want = (-np.log(0.9) - np.log(0.8)) / 2
        assert loss == pytest.approx(want, rel=1e-6)

    def test_focal_reduces_to_half_bce(self, rng):
        """gamma 0 drops the modulating factor; alpha 0.5 halves both classes."""
        p = rng.uniform(0.05, 0.95, size=64)
        t = (rng.random(64) > 0.7).astype(np.float64)
        focal = F.focal_loss(nn.Tensor(p[None]), t[None], gamma=0.0, alpha=0.5).item()
        bce = F.bce_loss(nn.Tensor(p[None]), t[None]).item()
        assert focal == pytest.approx(0.5 * bce, rel=1e-10)
        np.testing.assert_allclose(
            F.elementwise_focal(p, t, gamma=0.0, alpha=0.5),
            0.5 * F.elementwise_bce(p, t),
            rtol=1e-10,
        )

    def test_focal_formula(self, rng):
        p = rng.uniform(0.05, 0.95, size=32)
        t = (rng.random(32) > 0.5).astype(np.float64)
        pt = np.where(t == 1, p, 1 - p)
        at = np.where(t == 1, 0.25, 0.75)
        want = (-at * (1 - pt) ** 2 * np.log(pt)).mean()
        assert F.focal_loss(nn.Tensor(p[None]), t[None]).item() == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("loss, elementwise", [
        (F.bce_loss, F.elementwise_bce), (F.focal_loss, F.elementwise_focal),
    ])
    def test_one_mean_per_entry(self, rng, loss, elementwise):
        p = rng.uniform(0.05, 0.95, size=(3, 4, 5))
        t = (rng.random((3, 4, 5)) > 0.5).astype(np.float64)
        got = loss(nn.Tensor(p), t).data
        np.testing.assert_allclose(got, elementwise(p, t).mean(axis=(1, 2)), rtol=1e-12)

    def test_focal_downweights_easy_examples(self):
        easy = F.elementwise_focal(np.array([0.99]), np.array([1.0]))
        hard = F.elementwise_focal(np.array([0.51]), np.array([1.0]))
        ratio_focal = hard[0] / easy[0]
        ratio_bce = F.elementwise_bce(np.array([0.51]), np.array([1.0]))[0] / F.elementwise_bce(
            np.array([0.99]), np.array([1.0])
        )[0]
        assert ratio_focal > ratio_bce * 100

    def test_perfect_prediction_is_near_zero(self):
        t = np.array([[1.0, 0.0, 1.0]])
        p = np.array([[1.0, 0.0, 1.0]])
        assert F.bce_loss(nn.Tensor(p), t).item() < 1e-5
        assert F.focal_loss(nn.Tensor(p), t).item() < 1e-5

    def test_clamp_keeps_losses_finite_and_masks_gradients(self):
        p = nn.parameter(np.array([[0.0, 1.0, 0.5]]))
        t = np.array([[1.0, 0.0, 1.0]])
        loss = F.bce_loss(p, t)
        assert np.isfinite(loss.item())
        loss.backward()
        assert p.grad[0, 0] == 0.0 and p.grad[0, 1] == 0.0
        assert p.grad[0, 2] != 0.0


class TestConditionalPointNorm:
    def test_fresh_network_equals_plain_point_norm(self, rng):
        """Zero-initialized affine heads with biases (1, 0) make a new
        conditional norm behave exactly like an unconditioned norm, whatever
        the condition."""
        x = rng.normal(size=(6, 7, 8)).astype(np.float64)
        cond = rng.normal(size=(6, 5)).astype(np.float64)
        cpn = ConditionalPointNorm(8, 5, rng=0, ref=3, dtype=np.float64)
        pn = PointNorm(8, ref=3, dtype=np.float64)
        got = cpn(nn.Tensor(x), nn.Tensor(cond)).data
        want = pn(nn.Tensor(x)).data
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_condition_changes_output_after_nudge(self, rng):
        cpn = ConditionalPointNorm(4, 3, rng=0, ref=2, dtype=np.float64)
        # push the zero-initialized gamma head off zero so the condition matters
        cpn.gamma_stack[1].w.data += rng.normal(size=cpn.gamma_stack[1].w.data.shape) * 0.1
        x = nn.Tensor(rng.normal(size=(2, 5, 4)).astype(np.float64))
        c1 = cpn(x, nn.Tensor(np.zeros((2, 3)))).data
        c2 = cpn(x, nn.Tensor(np.ones((2, 3)))).data
        assert np.abs(c1 - c2).max() > 1e-6

    def test_per_element_affine(self, rng):
        """Each batch element gets its own (gamma, beta) from its condition."""
        cpn = ConditionalPointNorm(4, 2, rng=1, ref=2, dtype=np.float64)
        cpn.beta_stack[1].w.data += 0.5
        x = np.zeros((2, 3, 4))
        cond = np.array([[1.0, 0.0], [0.0, 0.0]])
        out = cpn(nn.Tensor(x), nn.Tensor(cond)).data
        # a zero input keeps only beta: its bias (0) for the zero condition,
        # shifted by the nudged head for the other
        np.testing.assert_array_equal(out[1], 0.0)
        assert np.abs(out[0]).max() > 1e-6


class TestPerInstanceNorms:
    """Statistics come from one batch element alone: from its whole space
    and channels (ElementNorm) or, per channel, from its reference points
    (PointNorm, ConditionalPointNorm)."""

    @staticmethod
    def norms():
        # (norm, input shape, axes of the statistics, condition shape,
        #  the entries of axis 1 the statistics pool)
        return [
            (ElementNorm(3, dtype=np.float64), (4, 3, 4, 2, 3), (1, 2, 3, 4), None, slice(None)),
            (PointNorm(3, ref=4, dtype=np.float64), (4, 7, 3), (1,), None, slice(-4, None)),
            (ConditionalPointNorm(3, 2, rng=0, ref=4, dtype=np.float64), (4, 7, 3), (1,), (4, 2),
             slice(-4, None)),
        ]

    @staticmethod
    def call(norm, x, cond_shape):
        if cond_shape is None:
            return norm(x)
        return norm(x, nn.Tensor(np.ones(cond_shape)))

    def test_unit_moments_over_the_pooled_entries(self, rng):
        """ElementNorm: zero mean, unit variance; the point norms: unit mean
        square, each over the entries its statistics pool."""
        for norm, shape, axes, cond_shape, pooled in self.norms():
            x = rng.normal(loc=3.0, scale=2.0, size=shape)
            out = self.call(norm, nn.Tensor(x), cond_shape).data[:, pooled]
            if isinstance(norm, ElementNorm):
                v = x[:, pooled].var(axis=axes)
                np.testing.assert_allclose(out.mean(axis=axes), 0.0, atol=1e-10)
                got = out.var(axis=axes)
            else:
                v = np.square(x[:, pooled]).mean(axis=axes)
                np.testing.assert_allclose(out * np.sqrt(v + 1e-5)[:, None], x[:, pooled],
                                           rtol=1e-12)
                got = np.square(out).mean(axis=axes)
            # unit but for the eps under the square root
            np.testing.assert_allclose(got, v / (v + 1e-5), rtol=1e-10)

    def test_all_zero_element_stays_finite(self, rng):
        """An all-air window standardizes to zeros with finite gradients."""
        for norm, shape, _, cond_shape, _ in self.norms():
            x = rng.normal(size=shape)
            x[1] = 0.0
            xt = nn.parameter(x)
            out = self.call(norm, xt, cond_shape)
            assert np.isfinite(out.data).all()
            # standardized to zeros, so every position holds the same beta
            rows = out.data[1].reshape(-1, shape[-1])
            np.testing.assert_array_equal(rows, np.broadcast_to(rows[0], rows.shape))
            F.sum_all(F.mul(out, nn.Tensor(rng.normal(size=shape)))).backward()
            assert np.isfinite(xt.grad).all()
            assert all(np.isfinite(p.grad).all() for p in norm.parameters())

    def test_element_ignores_its_batch_mates(self, rng):
        for norm, shape, _, cond_shape, _ in self.norms():
            x = rng.normal(size=shape)
            full = self.call(norm, nn.Tensor(x), cond_shape).data
            alone = self.call(norm, nn.Tensor(x[2:3]), cond_shape and (1,) + cond_shape[1:]).data
            np.testing.assert_allclose(alone[0], full[2], rtol=1e-12)

    def test_point_ignores_the_other_queries(self, rng):
        """Dropping query points (not reference points) leaves the rest as
        they were, and no query's gradient reaches another query."""
        for norm, shape, _, cond_shape, _ in self.norms()[1:]:
            x = rng.normal(size=shape)
            full = self.call(norm, nn.Tensor(x), cond_shape).data
            keep = [0, 2] + list(range(3, shape[1]))
            part = self.call(norm, nn.Tensor(x[:, keep]), cond_shape).data
            np.testing.assert_allclose(part, full[:, keep], rtol=1e-12)
            xt = nn.parameter(x)
            out = self.call(norm, xt, cond_shape)
            F.sum_all(F.slice_middle(out, 1)).backward()
            np.testing.assert_array_equal(xt.grad[:, 1:3], 0.0)
            assert np.abs(xt.grad[:, 0]).sum() > 0 and np.abs(xt.grad[:, 3:]).sum() > 0

    def test_reference_points_tile_the_unit_cube(self):
        ref = ReferencePoints(dtype=np.float64)
        assert len(ref) == 27
        assert len(np.unique(ref.points, axis=0)) == 27
        np.testing.assert_allclose(np.sort(np.unique(ref.points)), [1 / 6, 1 / 2, 5 / 6])
        queries = nn.Tensor(np.zeros((2, 5, 3)))
        both = ref.append(queries).data
        assert both.shape == (2, 32, 3)
        np.testing.assert_array_equal(both[:, 5:], np.broadcast_to(ref.points, (2, 27, 3)))


class TestResidualBlocks:
    def test_fc_block_with_zero_weights_is_identity(self, rng):
        block = ResidualBlockFC(6, 6, rng=0, ref=2, dtype=np.float64)
        for p in block.parameters():
            p.data = np.zeros_like(p.data)
        x = rng.normal(size=(4, 5, 6)).astype(np.float64)
        out = block(nn.Tensor(x)).data
        np.testing.assert_array_equal(out, x)

    def test_conv_block_with_zero_weights_is_identity(self, rng):
        block = ResidualBlockConv3d(3, 3, rng=0, dtype=np.float64)
        for p in block.parameters():
            p.data = np.zeros_like(p.data)
        x = rng.normal(size=(2, 4, 4, 4, 3)).astype(np.float64)
        out = block(nn.Tensor(x)).data
        np.testing.assert_array_equal(out, x)

    def test_channel_change_uses_projection(self, rng):
        block = ResidualBlockFC(4, 7, rng=0, ref=2)
        assert block.proj is not None
        out = block(nn.Tensor(rng.normal(size=(3, 5, 4)).astype(np.float32)))
        assert out.data.shape == (3, 5, 7)
        same = ResidualBlockFC(4, 4, rng=0, ref=2)
        assert same.proj is None

    def test_conditioned_block_routes_condition(self, rng):
        block = ResidualBlockFC(4, 4, rng=0, ref=2, cond_dim=3, dtype=np.float64)
        assert isinstance(block.norm1, ConditionalPointNorm)
        assert isinstance(ResidualBlockFC(4, 4, rng=0, ref=2).norm1, PointNorm)
        x = nn.Tensor(rng.normal(size=(2, 5, 4)).astype(np.float64))
        out = block(x, cond=nn.Tensor(np.zeros((2, 3))))
        assert out.data.shape == (2, 5, 4)


class TestDenseConvLayers:
    def test_dense_zero_init(self):
        d = Dense(3, 5, rng=0, zero_init=True, bias_init=1.5)
        assert not d.w.data.any()
        np.testing.assert_array_equal(d.b.data, np.full(5, 1.5, dtype=np.float32))

    def test_dense_is_affine_map(self, rng):
        d = Dense(3, 2, rng=4, dtype=np.float64)
        x = rng.normal(size=(6, 3))
        np.testing.assert_allclose(d(nn.Tensor(x)).data, x @ d.w.data + d.b.data, rtol=1e-12)

    def test_fan_in_bound(self):
        w = fan_in_uniform(np.random.default_rng(0), (100, 50), 100, np.float64)
        assert np.abs(w).max() <= 1.0 / np.sqrt(100)

    def test_conv_layer_default_padding_keeps_size(self, rng):
        conv = Conv3d(2, 3, 3, rng=0)
        out = conv(nn.Tensor(rng.normal(size=(1, 5, 6, 7, 2)).astype(np.float32)))
        assert out.data.shape == (1, 5, 6, 7, 3)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = nn.parameter(np.array([1.0, -2.0, 0.5], dtype=np.float64))
        opt = nn.Adam([p], lr=0.01)
        p.grad = np.array([0.5, -3.0, 1e-3])
        opt.step()
        # m-hat = g and v-hat = g^2 on step one, so the update is
        # lr * g / (|g| + eps), essentially lr * sign(g)
        np.testing.assert_allclose(p.data, [0.99, -1.99, 0.5 - 0.01], rtol=1e-6)

    def test_none_and_zero_gradients_are_no_ops(self):
        p = nn.parameter(np.array([1.0, 2.0], dtype=np.float64))
        q = nn.parameter(np.array([3.0], dtype=np.float64))
        opt = nn.Adam([p, q], lr=0.1)
        q.grad = np.zeros(1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        np.testing.assert_array_equal(q.data, [3.0])

    def test_quadratic_descent_converges(self):
        p = nn.parameter(np.array([10.0], dtype=np.float64))
        opt = nn.Adam([p], lr=0.1)
        for _ in range(500):
            p.grad = 2.0 * (p.data - 3.0)
            opt.step()
            p.zero_grad()
        assert abs(p.data[0] - 3.0) < 0.05

    def test_moments_follow_defaults(self):
        p = nn.parameter(np.array([0.0], dtype=np.float64))
        opt = nn.Adam([p], lr=0.001)
        assert opt.beta1 == 0.9 and opt.beta2 == 0.999 and opt.eps == 1e-8
        g1, g2 = np.array([1.0]), np.array([2.0])
        p.grad = g1
        opt.step()
        p.grad = g2
        opt.step()
        np.testing.assert_allclose(opt.m[0], 0.9 * (0.1 * 1.0) + 0.1 * 2.0, rtol=1e-12)
        np.testing.assert_allclose(
            opt.v[0], 0.999 * (0.001 * 1.0) + 0.001 * 4.0, rtol=1e-12
        )


class TestModulePlumbing:
    def test_nested_names_include_list_indices(self):
        class Toy(Module):
            def __init__(self):
                self.blocks = [Dense(2, 2, rng=0), Dense(2, 2, rng=1)]
                self.head = Dense(2, 1, rng=2)

        names = [n for n, _ in Toy().named_parameters()]
        assert "blocks.0.w" in names and "blocks.1.b" in names and "head.w" in names

    def test_state_dict_round_trip(self, rng):
        a = ResidualBlockFC(4, 6, rng=3, ref=2)
        b = ResidualBlockFC(4, 6, rng=9, ref=2)
        state = a.state_dict()
        assert state.keys() == dict(a.named_parameters()).keys()
        b.load_state_dict(state)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_load_rejects_mismatched_keys(self):
        d = Dense(2, 2, rng=0)
        state = d.state_dict()
        state["spurious"] = np.zeros(1)
        with pytest.raises(ValueError):
            d.load_state_dict(state)
        state = {k: v for k, v in d.state_dict().items() if k != "b"}
        with pytest.raises(ValueError):
            d.load_state_dict(state)

    def test_load_rejects_wrong_shape(self):
        d = Dense(2, 2, rng=0)
        state = d.state_dict()
        state["w"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            d.load_state_dict(state)

    def test_parameter_count(self):
        d = Dense(3, 5, rng=0)
        assert d.parameter_count() == 3 * 5 + 5


class TestAutodiffMechanics:
    def test_item_needs_exactly_one_entry(self):
        assert nn.Tensor(np.array([[0.25]])).item() == 0.25
        # the loss ops return one mean per entry: two entries are not one number
        with pytest.raises(ValueError, match="one entry"):
            F.bce_loss(nn.Tensor(np.array([0.9, 0.2])), np.array([1.0, 0.0])).item()
        with pytest.raises(ValueError, match="one entry"):
            nn.Tensor(np.zeros(0)).item()

    def test_no_grad_builds_no_tape(self, rng):
        a = nn.parameter(rng.normal(size=(3,)).astype(np.float32))
        with nn.no_grad():
            out = F.scale(a, 2.0)
        assert out._backward is None and out._parents == ()

    def test_constant_inputs_build_no_tape(self, rng):
        a = nn.Tensor(rng.normal(size=(3,)).astype(np.float32))
        out = F.scale(a, 2.0)
        assert out._backward is None and out._parents == ()

    def test_grad_state_restored_after_exception(self):
        assert grad_enabled()
        with pytest.raises(RuntimeError):
            with nn.no_grad():
                raise RuntimeError("boom")
        assert grad_enabled()

    def test_backward_requires_scalar(self, rng):
        a = nn.parameter(rng.normal(size=(3,)).astype(np.float64))
        with pytest.raises(ValueError):
            F.scale(a, 1.0).backward()

    def test_backward_consumes_tape_and_keeps_leaves(self, rng):
        a = nn.parameter(np.ones(3, dtype=np.float64))
        h = F.scale(a, 2.0)
        loss = F.sum_all(h)
        loss.backward()
        np.testing.assert_allclose(a.grad, np.full(3, 2.0))
        assert a.data is not None
        # intermediates release data, closures, and graph links
        assert h.data is None and h._backward is None and h._parents == ()

    def test_gradient_accumulates_across_backwards(self, rng):
        a = nn.parameter(np.ones(2, dtype=np.float64))
        F.sum_all(F.scale(a, 1.0)).backward()
        F.sum_all(F.scale(a, 1.0)).backward()
        np.testing.assert_allclose(a.grad, np.full(2, 2.0))

    def test_diamond_graph_accumulates_both_paths(self, rng):
        a = nn.parameter(np.array([3.0], dtype=np.float64))
        left = F.scale(a, 2.0)
        right = F.scale(a, 5.0)
        F.sum_all(F.add(left, right)).backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_accumulate_grad_shape_check(self):
        a = nn.parameter(np.zeros(3))
        with pytest.raises(ValueError):
            a.accumulate_grad(np.zeros(4))

    @pytest.mark.parametrize("axes", [(2,), (1, 2)])
    def test_batch_standardize_over_given_axes(self, rng, axes):
        """Per-point (channel axis) and per-element statistics in float32
        agree with a float64 reference."""
        x = rng.normal(loc=2.0, scale=3.0, size=(3, 50, 64))
        node = F.batch_standardize(nn.Tensor(x.astype(np.float32)), 1e-5, axes)
        want = (x - x.mean(axis=axes, keepdims=True)) / np.sqrt(
            x.var(axis=axes, keepdims=True) + 1e-5
        )
        np.testing.assert_allclose(node.data, want, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_standardize_has_the_bits_of_np_var(self, rng, dtype):
        """The variance taken from the centred array equals ``np.var`` bit for
        bit, all-zero elements included."""
        for shape, axes in [((3, 50, 64), (1, 2)), ((4, 6, 5, 7, 3), (1, 2, 3, 4)), ((2, 9, 8), (2,))]:
            x = rng.normal(loc=2.0, scale=3.0, size=shape).astype(dtype)
            x[0] = 0
            node = F.batch_standardize(nn.Tensor(x), 1e-5, axes)
            inv = 1.0 / np.sqrt(x.var(axis=axes, keepdims=True) + 1e-5)
            np.testing.assert_array_equal(node.data, (x - x.mean(axis=axes, keepdims=True)) * inv)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_standardize_means_have_the_bits_of_np_mean(self, rng, dtype):
        """Its four means (``np.add.reduce`` over a count) equal ``np.mean``
        bit for bit: the forward, and the backward against its formula with
        ``np.mean``."""
        cases = [((3, 50, 64), (1, 2)), ((4, 6, 5, 7, 3), (1, 2, 3, 4)), ((2, 9, 8), (2,)),
                 ((2, 30, 5), (1,))]
        for shape, axes in cases:
            x = rng.normal(loc=2.0, scale=3.0, size=shape).astype(dtype)
            assert F._mean(x, axes).tobytes() == x.mean(axis=axes, keepdims=True).tobytes()
            g = rng.normal(size=shape).astype(dtype)
            xt = nn.Tensor(x, requires_grad=True)
            out = F.batch_standardize(xt, 1e-5, axes)
            xhat = out.data.copy()
            F.sum_all(F.mul(out, g)).backward()
            inv = 1.0 / np.sqrt(x.var(axis=axes, keepdims=True) + 1e-5)
            gm = g.mean(axis=axes, keepdims=True)
            want = inv * (g - gm - xhat * (g * xhat).mean(axis=axes, keepdims=True))
            assert xt.grad.tobytes() == want.tobytes()
            src = x[:, -3:]
            ref = F.batch_standardize(nn.Tensor(x), 1e-5, (1,), ref=3)
            inv = 1.0 / np.sqrt((src * src).mean(axis=(1,), keepdims=True) + 1e-5)
            assert ref.data.tobytes() == (x * inv).tobytes()

    def test_batch_standardize_by_reference_entries(self, rng):
        """With ``ref``, every entry is scaled by the root mean square of the
        last ``ref`` entries of axis 1, per element and channel."""
        x = rng.normal(loc=2.0, scale=3.0, size=(3, 50, 8))
        node = F.batch_standardize(nn.Tensor(x), 1e-5, (1,), ref=10)
        ms = np.square(x[:, -10:]).mean(axis=1, keepdims=True)
        np.testing.assert_allclose(node.data, x / np.sqrt(ms + 1e-5), rtol=1e-12)


class TestMemoryMeter:
    def test_tracks_allocation_and_release(self):
        before = memory_meter.current

        def scope():
            t = nn.Tensor(np.zeros((256, 256), dtype=np.float32))
            assert memory_meter.current >= before + t.data.nbytes
            return t.data.nbytes

        nbytes = scope()
        assert memory_meter.current < before + nbytes

    def test_no_double_count(self):
        arr = np.zeros(1000, dtype=np.float64)
        memory_meter.track(arr)
        mid = memory_meter.current
        memory_meter.track(arr)
        assert memory_meter.current == mid

    def test_views_ride_on_their_base(self):
        arr = memory_meter.track(np.zeros(1000, dtype=np.float64))
        mid = memory_meter.current
        memory_meter.track(arr[100:900])
        assert memory_meter.current == mid

    def test_reset_peak(self):
        keep = nn.Tensor(np.zeros(64, dtype=np.float32))
        tmp = nn.Tensor(np.zeros((512, 512), dtype=np.float32))
        del tmp
        memory_meter.reset_peak()
        assert memory_meter.peak == memory_meter.current
        assert keep.data is not None
