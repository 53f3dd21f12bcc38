"""Forward-value checks for the autodiff core: ops against naive oracles."""

import itertools
import warnings
import weakref

import numpy as np
import pytest
from conftest import assert_same_bits, backward_sum, meter_peak

from hiloseg import nn
from hiloseg.nn import functional as F
from hiloseg.nn.layers import (
    REFERENCE_POINTS,
    Conv3d,
    Dense,
    Module,
    Norm,
    ResidualBlockConv3d,
    ResidualBlockFC,
    fan_in_uniform,
)
from hiloseg.nn.optim import CLIP_NORM, global_norm
from hiloseg.nn.tensor import grad_enabled, memory_meter, no_grad


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
    backward_sum(F.mul(y, g))  # hands conv3d exactly g
    return xt.grad, wt.grad


class TestElementwiseOps:
    def test_add_mul_scale_values(self, rng):
        a = nn.Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        b = nn.Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        np.testing.assert_allclose(F.add(a, b).data, a.data + b.data)
        np.testing.assert_allclose(F.mul(a, b).data, a.data * b.data)
        np.testing.assert_allclose(F.mul(a, -2.5).data, a.data * -2.5)

    def test_broadcast_add_gradient_unbroadcasts(self, rng):
        a = nn.parameter(rng.normal(size=(4, 3)).astype(np.float64))
        b = nn.parameter(rng.normal(size=(3,)).astype(np.float64))
        backward_sum(F.add(a, b))
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
            backward_sum(F.mul(getattr(F, op)(nn.Tensor(x[rows]), w), g[rows]))
            return w.grad

        g0, g1, g2 = (grad(slice(i, i + 1)) for i in range(3))
        np.testing.assert_array_equal(grad(slice(None)), (g0 + g1) + g2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matmul_rows_independent_of_batch(self, rng, dtype):
        """Each row of a (B, K) matmul, and of its input gradient, has the
        bits of that row multiplied alone (OpenBLAS rounds a (1, K) @ (K, M)
        product differently from the same row inside (B, K) @ (K, M))."""
        x = rng.normal(size=(4, 128)).astype(dtype)
        w = nn.Tensor(rng.normal(size=(128, 64)).astype(dtype))
        g = rng.normal(size=(4, 64)).astype(dtype)

        def run(rows):
            a = nn.Tensor(x[rows].copy(), requires_grad=True)
            out = F.matmul(a, w)
            values = out.data  # backward drops an op result's data
            backward_sum(F.mul(out, g[rows]))
            return values, a.grad

        out, grad = run(slice(None))
        for i in range(4):
            out_i, grad_i = run(slice(i, i + 1))
            np.testing.assert_array_equal(out[i : i + 1], out_i, err_msg=f"row {i}")
            np.testing.assert_array_equal(grad[i : i + 1], grad_i, err_msg=f"row {i}")

    def test_concat_matches_numpy(self, rng):
        parts = [nn.Tensor(rng.normal(size=(2, n)).astype(np.float32)) for n in (1, 4, 2)]
        got = F.concat(parts, axis=-1)
        np.testing.assert_allclose(got.data, np.concatenate([p.data for p in parts], axis=-1))


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [1e-30, 0.01, 0.5, 1.0])
    def test_leaky_relu_gradient_bit_equal_to_where_formula(self, dtype, slope):
        """The input gradient has the bits of where(out > 0, g, g * slope) for
        every pair of special values in the output and in the gradient."""
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-40, -1e-40, 1.5, -2.5]
        x, g = (a.ravel() for a in np.meshgrid(np.array(special, dtype), np.array(special, dtype)))
        with np.errstate(all="ignore"):
            xt = nn.Tensor(x.copy(), requires_grad=True)
            y = F.leaky_relu(xt, slope=slope)
            want = np.where(y.data > 0, g, g * slope)
            backward_sum(F.mul(y, g))  # hands leaky_relu exactly g
        assert xt.grad.dtype == want.dtype
        assert xt.grad.tobytes() == want.tobytes()

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
            backward_sum(F.mul(y, g))  # hands selu exactly g
        assert got == want.tobytes()
        assert xt.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_selu_gradient_bit_equal_to_where_formula(self, dtype):
        """The input gradient has the bits of where(out > 0, g * lambda,
        g * (out + lambda*alpha)) for every pair of special values in the
        input and in the gradient."""
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-40, -1e-40, 1.5, -2.5]
        x, g = (a.ravel() for a in np.meshgrid(np.array(special, dtype), np.array(special, dtype)))
        with np.errstate(all="ignore"):
            xt = nn.Tensor(x.copy(), requires_grad=True)
            y = F.selu(xt)
            want = np.where(y.data > 0, g * F.SELU_LAMBDA,
                            g * (y.data + F.SELU_LAMBDA * F.SELU_ALPHA))
            backward_sum(F.mul(y, g))  # hands selu exactly g
        assert xt.grad.dtype == want.dtype
        assert xt.grad.tobytes() == want.tobytes()

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
    # chunk) are the names these cases had before Cin and the pair chunks
    # varied; at padding 1 "same" writes the input gradient over g
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("cin, cout", [(3, 5), (3, 1), (1, 5), (3, 3)],
                             ids=["5", "1", "stem", "same"])
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("chunks", ["whole", "plane", "pair"])
    def test_correlation_over_its_input_keeps_the_bits(self, rng, monkeypatch, chunks, k, dtype):
        """A same-size correlation written over its input has the bits of
        one into an array of its own under every chunking: each chunk's
        padded block gets back the input planes that earlier chunks
        overwrote, k - 1 - p of them, more than one chunk's worth when a
        chunk is one plane and k = 5."""
        p = (k - 1) // 2
        x = rng.normal(size=(2, 7, 6, 5, 3)).astype(dtype)
        wk = rng.normal(size=(k, k * k * 3, 3)).astype(dtype)
        set_conv_chunks(monkeypatch, chunks, x, p, k)
        want = F._correlate(x, wk, p, metered=True)
        got = F._correlate(x, wk, p, metered=True, out=x)
        assert got is x
        assert got.tobytes() == want.tobytes()

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
            xi = np.zeros((d, h, w, c), np.float32)
            od, oh, ow = d - k + 1, h - k + 1, w - k + 1
            chunks = F._plane_chunks(od, oh, ow, k, c, xi.itemsize)
            assert [z for d0, d1 in chunks for z in range(d0, d1)] == list(range(od))
            for d0, d1 in chunks:
                col = F._col(F._padded_planes(xi, 0, d0, d1 + k - 1), k)
                rows = (d1 - d0 + k - 1) * oh * ow
                assert col.shape == (rows, k * k * c)
                assert d1 - d0 == 1 or col.nbytes <= cap

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_padded_planes_are_planes_of_the_padded_item(self, rng, k):
        """Every run of at least k padded planes, as a chunk needs, equals
        those planes of the whole item zero-padded at once, and is
        C-contiguous."""
        xi = rng.normal(size=(4, 3, 5, 2)).astype(np.float32)
        for pad in range(k):
            whole = np.pad(xi, [(pad, pad)] * 3 + [(0, 0)])
            for lo, hi in itertools.combinations(range(len(whole) + 1), 2):
                if hi - lo < k:
                    continue
                block = F._padded_planes(xi, pad, lo, hi)
                assert block.flags.c_contiguous
                np.testing.assert_array_equal(block, whole[lo:hi])

    @pytest.mark.parametrize("b", [1, 2])
    def test_forward_pads_one_chunk_of_one_item(self, rng, b):
        """Under no_grad the meter holds conv3d's output and one chunk of one
        item's padded planes. For a 16³ × 6 float32 item and k = 3 a chunk is
        7 output planes, so 9 padded planes of 18² × 6 entries, 69,984 B;
        the whole padded item would be 139,968 B."""
        x = nn.Tensor(rng.normal(size=(b, 16, 16, 16, 6)).astype(np.float32))
        w = nn.Tensor(rng.normal(size=(3, 3, 3, 6, 6)).astype(np.float32))
        with no_grad():
            peak = meter_peak(lambda: F.conv3d(x, w, padding=1))
        assert peak == x.data.nbytes + 9 * 18**2 * 6 * 4

    def test_backward_scratch_stays_capped(self, rng, monkeypatch):
        """The meter's peak over forward and backward is the arrays conv3d
        must hold plus one chunk of one item's padded planes and one chunk
        of input-gradient columns, never a whole item's. With Cin = Cout
        the input gradient is written over the output gradient, so no
        input-sized array of its own is allowed for it."""
        cap = 64 << 10
        monkeypatch.setattr(F, "CONV_SCRATCH_BYTES", cap)
        b, n, cin, cout = 2, 12, 8, 8
        x = nn.Tensor(rng.normal(size=(b, n, n, n, cin)).astype(np.float32), requires_grad=True)
        w = nn.Tensor(rng.normal(size=(3, 3, 3, cin, cout)).astype(np.float32), requires_grad=True)
        peak = meter_peak(lambda: backward_sum(F.conv3d(x, w, padding=1)))
        f32, c = 4, max(cin, cout)
        output = b * n**3 * cout * f32  # held twice: the value and its gradient
        chunk = max(d1 - d0 for d0, d1 in F._plane_chunks(n, n, n, 3, c, f32))
        padded = (chunk + 2) * (n + 2) ** 2 * c * f32  # padded planes of the input or its gradient
        saved = x.data.nbytes  # input planes saved for the next chunk, far fewer
        plane = n * n * 27 * cout * f32  # one output plane of input-gradient columns
        bound = 2 * output + padded + saved + w.data.nbytes + max(cap, plane)
        assert peak <= bound
        item_columns = n**3 * 27 * cout * f32
        assert peak + item_columns > bound  # so the bound would catch unchunked columns


# op -> (operand shapes of a, b for a batch of B and C output channels, the
# fused call, the two-op composition it replaces)
ADDED_OPERAND = {
    "mul": (lambda B, C: ((B, 7, C), (C,)),
            lambda a, b, c: F.mul(a, b, c), lambda a, b, c: F.add(F.mul(a, b), c)),
    "matmul": (lambda B, C: ((B, 7, 5), (5, C)),
               lambda a, b, c: F.matmul(a, b, c), lambda a, b, c: F.add(F.matmul(a, b), c)),
    "conv3d": (lambda B, C: ((B, 4, 3, 5, 2), (3, 3, 3, 2, C)),
               lambda a, b, c: F.conv3d(a, b, 1, c),
               lambda a, b, c: F.add(F.conv3d(a, b, 1), c)),
    "conv3d_pointwise": (lambda B, C: ((B, 2, 3, 4, 5), (1, 1, 1, 5, C)),
                         lambda a, b, c: F.conv3d(a, b, 0, c),
                         lambda a, b, c: F.add(F.conv3d(a, b, 0), c)),
}


class TestAddedOperand:
    """``mul(a, b, c)``, ``matmul(a, w, bias)`` and ``conv3d(x, w, p, bias)``
    add their last operand into the product's buffer; values and gradients
    must be those of the two-op composition bit for bit, and a batch split
    into micro-batches must give the whole batch's bits."""

    B, C = 3, 4

    def operands(self, rng, op, addend, dtype):
        a_shape, b_shape = ADDED_OPERAND[op][0](self.B, self.C)
        if addend == "channel":
            c_shape = (self.C,)
        else:
            c_shape = (self.B,) + (1,) * (len(a_shape) - 2) + (self.C,)
        return [rng.normal(size=shape).astype(dtype) for shape in (a_shape, b_shape, c_shape)]

    @staticmethod
    def run(fn, a, b, c, g):
        """Values and the gradients of all three operands for output gradient ``g``."""
        leaves = [nn.Tensor(v.copy(), requires_grad=True) for v in (a, b, c)]
        out = fn(*leaves)
        values = out.data
        backward_sum(F.mul(out, g))  # hands the op exactly g
        return [values] + [t.grad for t in leaves]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("addend", ["channel", "element"])
    @pytest.mark.parametrize("op", sorted(ADDED_OPERAND))
    def test_bit_equal_to_the_composition(self, rng, op, addend, dtype):
        a, b, c = self.operands(rng, op, addend, dtype)
        _, fused, composed = ADDED_OPERAND[op]
        with no_grad():
            g = composed(nn.Tensor(a), nn.Tensor(b), nn.Tensor(c)).data
        g = rng.normal(size=g.shape).astype(dtype)
        got, want = self.run(fused, a, b, c, g), self.run(composed, a, b, c, g)
        for name, x, y in zip(("value", "a", "b", "c"), got, want):
            assert x.dtype == dtype, name
            np.testing.assert_array_equal(x, y, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("addend", ["channel", "element"])
    @pytest.mark.parametrize("op", sorted(ADDED_OPERAND))
    def test_micro_batches_give_the_whole_batch(self, rng, op, addend, dtype):
        """Items 0 and 1–2 as two micro-batches: the shared operand (and a
        per-channel addend) accumulates over both backwards."""
        a, b, c = self.operands(rng, op, addend, dtype)
        _, fused, _ = ADDED_OPERAND[op]
        with no_grad():
            g = fused(nn.Tensor(a), nn.Tensor(b), nn.Tensor(c)).data
        g = rng.normal(size=g.shape).astype(dtype)
        whole = self.run(fused, a, b, c, g)
        bt = nn.Tensor(b.copy(), requires_grad=True)
        ct = nn.Tensor(c.copy(), requires_grad=True) if addend == "channel" else None
        values, a_grads, c_grads = [], [], []
        for rows in (slice(0, 1), slice(1, 3)):
            at = nn.Tensor(a[rows].copy(), requires_grad=True)
            cr = ct if ct is not None else nn.Tensor(c[rows].copy(), requires_grad=True)
            out = fused(at, bt, cr)
            values.append(out.data)
            backward_sum(F.mul(out, g[rows]))
            a_grads.append(at.grad)
            if ct is None:
                c_grads.append(cr.grad)
        split = [np.concatenate(values), np.concatenate(a_grads), bt.grad,
                 ct.grad if ct is not None else np.concatenate(c_grads)]
        for name, x, y in zip(("value", "a", "b", "c"), split, whole):
            np.testing.assert_array_equal(x, y, err_msg=name)

    def test_zero_dim_product_refuses_an_addend(self):
        """numpy returns the product of two 0-d arrays as a scalar, which has
        no buffer to add into: the op raises rather than drop the addend."""
        one = nn.Tensor(np.array(2.0))
        with pytest.raises(TypeError):
            F.mul(one, one, one)

    def test_added_operand_keeps_no_array(self, rng):
        """The closure captures no array for the added operand: an op result
        added in dies with its caller's last reference, and its gradient
        still arrives, summed over the 7 rows it broadcasts across."""
        a, b, c = (nn.Tensor(v, requires_grad=True)
                   for v in self.operands(rng, "mul", "element", np.float64))
        addend = F.mul(c, 1.0)
        ref = weakref.ref(addend.data)
        out = F.mul(a, b, addend)
        del addend
        assert ref() is None
        backward_sum(out)
        np.testing.assert_array_equal(c.grad, np.full(c.shape, 7.0))


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

    def test_upsample_output_is_metered(self, rng):
        """The output owns its memory, so the byte meter counts it: under
        no_grad the op's peak is its output. Values and gradient equal the
        broadcast formula bit for bit."""
        b, d, h, w, c, f = 2, 3, 2, 4, 5, 2
        x = nn.Tensor(rng.normal(size=(b, d, h, w, c)).astype(np.float32), requires_grad=True)
        with no_grad():
            peak = meter_peak(lambda: F.upsample_nearest3d(x, f))
        out = F.upsample_nearest3d(x, f)
        assert out.data.base is None
        assert peak == out.data.nbytes
        spread = (b, d, f, h, f, w, f, c)
        want = np.broadcast_to(x.data[:, :, None, :, None, :, None, :], spread)
        np.testing.assert_array_equal(out.data, want.reshape(out.shape))
        g = rng.normal(size=out.shape).astype(np.float32)
        backward_sum(F.mul(out, g))  # hands upsampling exactly g
        np.testing.assert_array_equal(x.grad, g.reshape(spread).sum(axis=(2, 4, 6)))

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
    """``Norm`` with ``ref`` and ``cond_dim``: the affine comes from a condition."""

    def test_fresh_network_equals_plain_point_norm(self, rng):
        """Zero-initialized affine heads with biases (1, 0) make a new
        conditional norm behave exactly like an unconditioned norm, whatever
        the condition."""
        x = rng.normal(size=(6, 7, 8)).astype(np.float64)
        cond = rng.normal(size=(6, 5)).astype(np.float64)
        cpn = Norm(8, ref=3, cond_dim=5, rng=0, dtype=np.float64)
        pn = Norm(8, ref=3, dtype=np.float64)
        got = cpn(nn.Tensor(x), nn.Tensor(cond)).data
        want = pn(nn.Tensor(x)).data
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_condition_changes_output_after_nudge(self, rng):
        cpn = Norm(4, ref=2, cond_dim=3, rng=0, dtype=np.float64)
        # push the zero-initialized gamma head off zero so the condition matters
        cpn.gamma_stack[1].w.data += rng.normal(size=cpn.gamma_stack[1].w.data.shape) * 0.1
        x = nn.Tensor(rng.normal(size=(2, 5, 4)).astype(np.float64))
        c1 = cpn(x, nn.Tensor(np.zeros((2, 3)))).data
        c2 = cpn(x, nn.Tensor(np.ones((2, 3)))).data
        assert np.abs(c1 - c2).max() > 1e-6

    def test_per_element_affine(self, rng):
        """Each batch element gets its own (gamma, beta) from its condition."""
        cpn = Norm(4, ref=2, cond_dim=2, rng=1, dtype=np.float64)
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
    and channels (no ``ref``) or, per channel, from its reference points
    (``ref``, with or without a condition)."""

    @staticmethod
    def norms():
        # (norm, input shape, axes of the statistics, condition shape,
        #  the entries of axis 1 the statistics pool)
        return [
            (Norm(3, dtype=np.float64), (4, 3, 4, 2, 3), (1, 2, 3, 4), None, slice(None)),
            (Norm(3, ref=4, dtype=np.float64), (4, 7, 3), (1,), None, slice(-4, None)),
            (Norm(3, ref=4, cond_dim=2, rng=0, dtype=np.float64), (4, 7, 3), (1,), (4, 2),
             slice(-4, None)),
        ]

    @staticmethod
    def call(norm, x, cond_shape):
        if cond_shape is None:
            return norm(x)
        return norm(x, nn.Tensor(np.ones(cond_shape)))

    def test_unit_moments_over_the_pooled_entries(self, rng):
        """Without ``ref``: zero mean, unit variance; with it: unit mean
        square, each over the entries its statistics pool."""
        for norm, shape, axes, cond_shape, pooled in self.norms():
            x = rng.normal(loc=3.0, scale=2.0, size=shape)
            out = self.call(norm, nn.Tensor(x), cond_shape).data[:, pooled]
            if norm.ref is None:
                v = x[:, pooled].var(axis=axes)
                np.testing.assert_allclose(out.mean(axis=axes), 0.0, atol=1e-10)
                got = out.var(axis=axes)
            else:
                v = np.square(x[:, pooled]).mean(axis=axes)
                np.testing.assert_allclose(out * np.sqrt(v + norm.eps)[:, None], x[:, pooled],
                                           rtol=1e-12)
                got = np.square(out).mean(axis=axes)
            # unit but for the eps under the square root
            np.testing.assert_allclose(got, v / (v + norm.eps), rtol=1e-10)

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
            backward_sum(F.mul(out, nn.Tensor(rng.normal(size=shape))))
            assert np.isfinite(xt.grad).all()
            assert all(np.isfinite(p.grad).all() for p in norm.parameters())

    def test_stack_on_an_all_zero_element_keeps_gradients_finite(self, rng):
        """A chain of norms on an all-air window multiplies its gradient by
        1/sqrt(eps) per norm; 16 of them must not overflow float32."""
        x = rng.normal(size=(2, 4, 4, 4, 3)).astype(np.float32)
        x[1] = 0.0
        xt = nn.parameter(x)
        norms = [Norm(3) for _ in range(16)]
        h = xt
        for norm in norms:
            h = F.selu(norm(h))
        backward_sum(F.mul(h, nn.Tensor(rng.normal(size=x.shape).astype(np.float32))))
        assert np.isfinite(xt.grad).all()
        assert all(np.isfinite(p.grad).all() for norm in norms for p in norm.parameters())

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
            backward_sum(F.slice_middle(out, 1))
            np.testing.assert_array_equal(xt.grad[:, 1:3], 0.0)
            assert np.abs(xt.grad[:, 0]).sum() > 0 and np.abs(xt.grad[:, 3:]).sum() > 0

    def test_reference_points_tile_the_unit_cube(self):
        assert REFERENCE_POINTS.shape == (27, 3) and REFERENCE_POINTS.dtype == np.float64
        assert len(np.unique(REFERENCE_POINTS, axis=0)) == 27
        np.testing.assert_allclose(np.sort(np.unique(REFERENCE_POINTS)), [1 / 6, 1 / 2, 5 / 6])


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

    def test_conv_block_frees_conv1_output_before_conv2(self, rng, monkeypatch):
        """Under no_grad conv2 starts with as many metered bytes alive as
        conv1 did, its input alone. The block's peak is then one 16³ × 6
        float32 activation next to the block input, which each convolution
        writes over, the 9 padded planes of one 7-plane chunk (9·18·18·6·4
        = 69,984 B) and the input plane saved for the next chunk (16² × 6
        float32): every op of the block writes over the array it consumes,
        so norm2's affine, conv2's bias and the residual sum go into the
        buffer of the ops before them."""
        block = ResidualBlockConv3d(6, 6, rng=0)
        x = nn.Tensor(rng.normal(size=(1, 16, 16, 16, 6)).astype(np.float32))
        live = []
        conv3d = F.conv3d

        def counted(*args, **kwargs):
            live.append(memory_meter.current)
            return conv3d(*args, **kwargs)

        monkeypatch.setattr(F, "conv3d", counted)
        with no_grad():
            peak = meter_peak(lambda: block(x))
        assert len(live) == 2 and live[1] == live[0]
        assert peak == x.data.nbytes + 69_984 + 16**2 * 6 * 4

    @pytest.mark.parametrize("kind", ["conv", "fc", "fc-conditional"])
    def test_first_layer_output_dies_once_norm2_standardized_it(self, rng, monkeypatch, kind):
        """With and without a tape, conv1's or dense1's output holds no
        array by the time norm2 applies its affine: the block hands it to
        ``norm2.scaled`` (``inplace=True``), which hands it over once
        standardized, however long the tensor object lives. Without a tape
        the standardization wrote over the array; under one, the array
        itself is dead, since no backward reads it."""
        if kind == "conv":
            block = ResidualBlockConv3d(3, 3, rng=0)
            x, args = nn.Tensor(rng.normal(size=(2, 4, 4, 4, 3)).astype(np.float32)), ()
            name = "conv1"
        else:
            cond = 5 if kind == "fc-conditional" else None
            block = ResidualBlockFC(3, 4, rng=0, ref=2, cond_dim=cond)
            x = nn.Tensor(rng.normal(size=(2, 6, 3)).astype(np.float32))
            args = (nn.Tensor(rng.normal(size=(2, 5)).astype(np.float32)),) if cond else ()
            name = "dense1"
        first = getattr(block, name)
        made, at_affine = [], []

        def recorded(t, **kwargs):
            out = first(t, **kwargs)
            made.append((weakref.ref(out), weakref.ref(out.data)))
            return out

        mul = F.mul

        def affine(*a, **kwargs):
            if made:  # norm2's: norm1's ran before the first layer
                out, arr = made[0]
                at_affine.append((out() is None or out().data is None, arr() is None))
            return mul(*a, **kwargs)

        monkeypatch.setattr(block, name, recorded)
        monkeypatch.setattr(F, "mul", affine)
        with no_grad():
            block(x, *args)
        assert [released for released, _ in at_affine] == [True]
        made.clear()
        at_affine.clear()
        block(x, *args)
        assert at_affine == [(True, True)]

    def test_channel_change_uses_projection(self, rng):
        block = ResidualBlockFC(4, 7, rng=0, ref=2)
        assert block.proj is not None
        out = block(nn.Tensor(rng.normal(size=(3, 5, 4)).astype(np.float32)))
        assert out.data.shape == (3, 5, 7)
        same = ResidualBlockFC(4, 4, rng=0, ref=2)
        assert same.proj is None

    def test_conditioned_block_routes_condition(self, rng):
        block = ResidualBlockFC(4, 4, rng=0, ref=2, cond_dim=3, dtype=np.float64)
        assert block.norm1.conditional and block.norm2.conditional
        assert not ResidualBlockFC(4, 4, rng=0, ref=2).norm1.conditional
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

    def test_global_norm_is_clipped_before_the_moments(self):
        """Gradients of 1e35 entries, whose float32 squares overflow, are
        scaled in place to the global norm ``CLIP_NORM`` first, so the
        moments and the step stay finite; below it, no bit moves."""
        p = nn.parameter(np.zeros((4, 5), dtype=np.float32))
        q = nn.parameter(np.zeros(3, dtype=np.float32))
        opt = nn.Adam([p, q], lr=0.1)
        p.grad = np.full((4, 5), 1e35, dtype=np.float32)
        q.grad = np.array([-1e35, 0.0, 1e30], dtype=np.float32)
        exact = np.sqrt(sum(np.square(g, dtype=np.float64).sum() for g in (p.grad, q.grad)))
        assert global_norm([p.grad, q.grad]) == pytest.approx(exact, rel=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opt.step()
        assert global_norm([p.grad, q.grad]) == pytest.approx(CLIP_NORM, rel=1e-6)
        assert all(np.isfinite(a).all() for a in [*opt.m, *opt.v, p.data, q.data])

        small = np.full(3, 5.0, dtype=np.float32)  # norm 8.66
        q.grad, p.grad = small.copy(), None
        opt.step()
        assert q.grad.tobytes() == small.tobytes()


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
        assert sum(p.data.size for p in d.parameters()) == 3 * 5 + 5


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
            out = F.mul(a, 2.0)
        assert out._backward is None and out._parents == ()

    def test_constant_inputs_build_no_tape(self, rng):
        a = nn.Tensor(rng.normal(size=(3,)).astype(np.float32))
        out = F.mul(a, 2.0)
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
            F.mul(a, 1.0).backward()

    def test_backward_consumes_tape_and_keeps_leaves(self, rng):
        a = nn.parameter(np.ones(3, dtype=np.float64))
        h = F.mul(a, 2.0)
        backward_sum(F.mul(h, 1.0))
        np.testing.assert_allclose(a.grad, np.full(3, 2.0))
        assert a.data is not None
        # intermediates release data, closures, and graph links
        assert h.data is None and h._backward is None and h._parents == ()

    def test_gradient_accumulates_across_backwards(self, rng):
        a = nn.parameter(np.ones(2, dtype=np.float64))
        backward_sum(F.mul(a, 1.0))
        backward_sum(F.mul(a, 1.0))
        np.testing.assert_allclose(a.grad, np.full(2, 2.0))

    def test_diamond_graph_accumulates_both_paths(self, rng):
        a = nn.parameter(np.array([3.0], dtype=np.float64))
        left = F.mul(a, 2.0)
        right = F.mul(a, 5.0)
        backward_sum(F.add(left, right))
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
            backward_sum(F.mul(out, g))
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


def with_specials(rng, x: np.ndarray, n: int = 4) -> np.ndarray:
    """``x`` with -0.0, +inf, -inf and NaN written over ``n`` random entries
    each, and a run of -0.0 along its first axis."""
    x = x.copy()
    flat = x.reshape(-1)
    for value in (-0.0, np.inf, -np.inf, np.nan):
        flat[rng.choice(flat.size, min(n, flat.size), replace=False)] = value
    x[..., :1] = -0.0
    return x


def wide(rng, shape, dtype) -> np.ndarray:
    """Normal entries scaled by powers of ten from 1e-6 to 1e6, so that a sum
    in another order rounds differently."""
    return (rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, size=shape)).astype(dtype)


# (input shape, gamma/beta shape, whether the input is a non-contiguous view)
CHANNEL_CASES = {
    "grid": ((2, 16, 16, 16, 6), (6,), False),  # a HiLo micro-batch at the window side
    "concat": ((2, 8, 8, 8, 12), (12,), False),  # the grid decoder's pooled input
    "one channel": ((1, 4, 4, 4, 1), (1,), False),
    "one column": ((2, 4, 4, 1, 6), (6,), False),
    "points": ((2, 4123, 64), (64,), False),  # occupancy points plus 27 reference points
    "point affine": ((2, 4123, 64), (2, 1, 64), False),  # a conditional norm's (B, 1, C)
    "view": ((2, 4, 4, 8, 6), (6,), True),
}


class TestChannelRows:
    """The per-channel operands, gradient sums, pooling and upsampling keep
    the bits of the numpy expressions they replaced, forward and backward,
    on the models' shapes and on each fallback."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CHANNEL_CASES))
    def test_affine_bits(self, rng, case, dtype):
        """``mul(x, gamma, beta)``: ``x * gamma + beta``, the input gradient
        ``g * gamma``, and gamma's and beta's gradients as the per-instance
        reductions over rows, summed in instance order."""
        shape, pshape, view = CHANNEL_CASES[case]
        if view:  # every other column: not C-contiguous
            x = with_specials(rng, wide(rng, shape, dtype))[:, :, :, ::2]
        else:
            x = with_specials(rng, wide(rng, shape, dtype))
        gamma, beta = (with_specials(rng, wide(rng, pshape, dtype), 1) for _ in range(2))
        g = with_specials(rng, wide(rng, x.shape, dtype))
        leaves = [nn.Tensor(v, requires_grad=True) for v in (x, gamma.copy(), beta.copy())]
        with np.errstate(all="ignore"):
            out = F.mul(*leaves)
            assert out.data.base is None  # metered
            assert_same_bits(out.data, np.add(x * gamma, beta), "value")
            backward_sum(F.mul(out, g))  # hands mul exactly g
            assert_same_bits(leaves[0].grad, g * gamma, "x")
            for leaf, d in ((leaves[1], g * x), (leaves[2], g)):
                if len(pshape) == 1:
                    c = pshape[0]
                    want = np.add.reduce(d[0].reshape(-1, c), axis=0)
                    for di in d[1:]:
                        want = want + np.add.reduce(di.reshape(-1, c), axis=0)
                else:
                    want = d.sum(axis=1, keepdims=True)
                assert_same_bits(leaf.grad, want, "parameter")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cout", [1, 6])
    def test_conv_bias_bits(self, rng, dtype, cout):
        """A conv3d bias: added as ``out + b``, its gradient one row sum per
        instance."""
        x = wide(rng, (2, 6, 6, 6, 3), dtype)
        w, b = wide(rng, (3, 3, 3, 3, cout), dtype), with_specials(rng, wide(rng, (cout,), dtype), 0)
        bt = nn.Tensor(b.copy(), requires_grad=True)
        out = F.conv3d(nn.Tensor(x), nn.Tensor(w), 1, bt)
        with no_grad():
            plain = F.conv3d(nn.Tensor(x), nn.Tensor(w), 1).data
        assert_same_bits(out.data, plain + b, "value")
        g = wide(rng, out.shape, dtype)
        backward_sum(F.mul(out, g))
        want = np.add.reduce(g[0].reshape(-1, cout), axis=0) + np.add.reduce(
            g[1].reshape(-1, cout), axis=0)
        assert_same_bits(bt.grad, want, "bias")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(16**3, 6), (8**3, 6), (8**3, 12), (4123, 64), (27, 64),
                                       (2, 6), (9, 1), (4096, 1)])
    def test_channel_sum_is_the_row_reduction(self, rng, shape, dtype):
        """Guard: numpy's einsum adds a C-contiguous (rows, C) array's rows in
        order, the bits of ``np.add.reduce(axis=0)``, on the shapes the models
        sum (a per-instance conv bias and norm affine at 16³ and 8³, a dense
        layer's 4,123 points). A numpy whose einsum loop changes fails here,
        not as a silent drift of trained bits. C = 1 keeps the reduction."""
        g = wide(rng, shape, dtype)
        want = np.add.reduce(g, axis=0)
        if shape[1] > 1:
            assert_same_bits(np.einsum("ij->j", g), want, "einsum")
        assert_same_bits(F._unbroadcast(g, shape[1:]), want, "channel sum")
        if shape[0] > 8 and shape[1] > 1:  # the data tell the orders apart
            assert np.add.reduce(g[::-1], axis=0).tobytes() != want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 4123, 64), (2, 27, 64), (2, 30, 1)])
    @pytest.mark.parametrize("view", [False, True])
    def test_point_sums(self, rng, shape, dtype, view):
        """The (B, N, C) -> (B, 1, C) sum of a conditional norm's affine
        gradient and of the reference-point backward of ``batch_standardize``:
        the bits of ``sum(axis=1, keepdims=True)``, as an array of its own."""
        g = with_specials(rng, wide(rng, shape, dtype))
        if view:
            g = np.concatenate([g, g], axis=2)[:, :, ::2]
        with np.errstate(all="ignore"):
            got = F._unbroadcast(g, (shape[0], 1, shape[2]))
            assert_same_bits(got, g.sum(axis=1, keepdims=True))
        assert got.base is None
        x = wide(rng, shape, dtype)
        ref = 27 if shape[1] > 27 else 3
        xt = nn.Tensor(x, requires_grad=True)
        out = F.batch_standardize(xt, 1e-5, (1,), ref=ref)
        xhat = out.data.copy()
        g = wide(rng, shape, dtype)
        backward_sum(F.mul(out, g))
        src = x[:, -ref:]
        inv = 1.0 / np.sqrt(F._mean(src * src, (1,)) + 1e-5)
        gx = (g * xhat).sum(axis=(1,), keepdims=True) / ref
        want = inv * g
        want[:, -ref:] -= inv * xhat[:, -ref:] * gx
        assert_same_bits(xt.grad, want, "reference backward")

    @staticmethod
    def pool_input(rng, shape, f, dtype):
        """Wide entries, with windows of -0.0, of +inf, of -inf, of +inf and
        -inf, and of NaN: one special value per window, so no two NaNs meet
        in one sum, where numpy's loops may keep either's payload."""
        x = wide(rng, shape, dtype)
        b, d, h, w, c = shape
        windows = x.reshape(b, d // f, f, h // f, f, w // f, f, c).transpose(0, 1, 3, 5, 7, 2, 4, 6)
        windows = windows.reshape(-1, f**3)  # a copy, one row per window
        rows = rng.choice(len(windows), min(5, len(windows)), replace=False)
        for row, fill in zip(rows, ("zeros", np.inf, -np.inf, "both", np.nan)):
            if fill == "zeros":
                windows[row] = -0.0
            elif fill == "both":
                windows[row, :2] = np.inf, -np.inf
            else:
                windows[row, rng.integers(f**3)] = fill
        windows = windows.reshape(b, d // f, h // f, w // f, c, f, f, f)
        return np.ascontiguousarray(windows.transpose(0, 1, 5, 2, 6, 3, 7, 4)).reshape(shape)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("f", [2, 3])
    @pytest.mark.parametrize("c", [1, 6, 12])
    @pytest.mark.parametrize("grid", [(2, 2, 2), (1, 1, 1), (2, 1, 3)])
    def test_pooling_bits(self, rng, grid, c, f, dtype):
        """``avg_pool3d`` forward: the reshaped ``mean``; backward: the
        gradient divided by f³ and broadcast. ``upsample_nearest3d``
        forward: the broadcast; backward: the reshaped ``sum``."""
        od, oh, ow = grid
        b = 2
        fine = (b, od * f, oh * f, ow * f, c)
        spread = (b, od, f, oh, f, ow, f, c)
        x = self.pool_input(rng, fine, f, dtype)
        xt = nn.Tensor(x, requires_grad=True)
        with np.errstate(all="ignore"):
            out = F.avg_pool3d(xt, f)
            assert out.data.base is None  # metered
            assert_same_bits(out.data, x.reshape(spread).mean(axis=(2, 4, 6)), "pool")
            g = with_specials(rng, wide(rng, out.shape, dtype))
            backward_sum(F.mul(out, g))
            want = np.empty(fine, dtype)
            want.reshape(spread)[...] = g[:, :, None, :, None, :, None, :] / f**3
            assert_same_bits(xt.grad, want, "pool backward")

            y = with_specials(rng, wide(rng, out.shape, dtype))
            yt = nn.Tensor(y, requires_grad=True)
            up = F.upsample_nearest3d(yt, f)
            assert up.data.base is None
            want = np.empty(fine, dtype)
            want.reshape(spread)[...] = y[:, :, None, :, None, :, None, :]
            assert_same_bits(up.data, want, "upsample")
            g = self.pool_input(rng, fine, f, dtype)
            backward_sum(F.mul(up, g))
            assert_same_bits(yt.grad, g.reshape(spread).sum(axis=(2, 4, 6)), "upsample backward")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pooling_a_view(self, rng, dtype):
        """A non-contiguous input pools as its contiguous copy does."""
        x = wide(rng, (2, 4, 4, 8, 6), dtype)[:, :, :, ::2]
        got = F.avg_pool3d(nn.Tensor(x), 2).data
        assert_same_bits(got, x.reshape(2, 2, 2, 2, 2, 2, 2, 6).mean(axis=(2, 4, 6)))
        assert_same_bits(F.upsample_nearest3d(nn.Tensor(x), 2).data,
                         x.repeat(2, axis=1).repeat(2, axis=2).repeat(2, axis=3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_backward_bits(self, rng, dtype):
        """Written over ``g``, the sigmoid's input gradient has the bits of
        ``g * out * (1.0 - out)``, with -0.0, ±inf and NaN among the inputs
        and the gradients. (Pooling's, divided over ``g``:
        ``test_pooling_bits``.)"""
        x = with_specials(rng, wide(rng, (2, 4, 4, 4, 3), dtype))
        g = with_specials(rng, wide(rng, x.shape, dtype))
        with np.errstate(all="ignore"):
            xt = nn.Tensor(x, requires_grad=True)
            y = F.sigmoid(xt)
            out = y.data.copy()
            backward_sum(F.mul(y, g))  # hands the sigmoid exactly g
            assert_same_bits(xt.grad, g * out * (1.0 - out))

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_sigmoid_bits(self, dtype, bits):
        """The sigmoid has the bits of the two-branch formula split by a
        boolean mask, on random bit patterns, NaN payloads included, on a
        16³ tile and on a MISE chunk of (1, 8219); no overflow warning."""
        rng = np.random.default_rng(5)

        def masked(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        patterns = rng.integers(0, np.iinfo(bits).max, 100_000, dtype=bits, endpoint=True)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-40, -1e-40, 100.0, -100.0]
        for x in (np.concatenate([patterns.view(dtype), np.array(special, dtype)]),
                  (rng.standard_normal((1, 16, 16, 16)) * 8).astype(dtype),
                  (rng.standard_normal((1, 8219)) * 8).astype(dtype)):
            with np.errstate(all="ignore"):
                want = masked(x)
            # signaling NaNs among the patterns set the invalid flag in exp,
            # in both formulas; no finite input overflows
            with np.errstate(over="raise", invalid="ignore"):
                assert_same_bits(F.sigmoid(nn.Tensor(x)).data, want)
