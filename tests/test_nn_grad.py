"""Central finite-difference verification of every backward closure.

All checks run in 64-bit so the difference quotient itself is trustworthy;
the helper in conftest compares analytic gradients against central
differences at randomly probed positions.
"""

import numpy as np
import pytest

from hiloseg import nn
from hiloseg.models.hilo import HiLoConfig, HiLoEncoder, HiLoGridDecoder
from hiloseg.models.onet import OnetConfig, OnetDecoder, OnetModel
from hiloseg.nn import functional as F
from hiloseg.nn.layers import (
    Conv3d,
    Dense,
    Norm,
    ResidualBlockConv3d,
    ResidualBlockFC,
)

from conftest import finite_difference_check


def t64(rng, *shape):
    return nn.parameter(rng.normal(size=shape).astype(np.float64))


class TestPrimitiveGradients:
    def test_arithmetic_chain(self, rng):
        a = t64(rng, 4, 3)
        b = t64(rng, 4, 3)
        c = t64(rng, 3)

        def loss():
            return F.mul(F.add(a, c), F.mul(b, 1.7))

        finite_difference_check(loss, [a, b, c], rng=rng)

    def test_matmul_reshape_concat(self, rng):
        a = t64(rng, 2, 3, 4)
        w = t64(rng, 4, 5)
        b = t64(rng, 2, 3, 5)

        def loss():
            h = F.concat([F.matmul(a, w), b], axis=-1)
            return F.reshape(h, (6, 10))

        finite_difference_check(loss, [a, w, b], rng=rng)

    def test_activations(self, rng):
        for act in (F.leaky_relu, F.selu, F.sigmoid):
            x = t64(rng, 40)
            weights = nn.Tensor(rng.normal(size=40).astype(np.float64))

            def loss():
                return F.mul(act(x), weights)

            finite_difference_check(loss, [x], rng=rng)

    def test_resampling_chain(self, rng):
        x = t64(rng, 2, 4, 4, 4, 3)

        def loss():
            h = F.avg_pool3d(x, 2)
            h = F.upsample_nearest3d(h, 2)
            h = F.pad_right3d(h, (5, 6, 4))
            h = F.adaptive_avg_pool3d(h, (2, 2, 2))
            return h

        finite_difference_check(loss, [x], rng=rng)

    def test_adaptive_pool_ragged(self, rng):
        x = t64(rng, 1, 5, 7, 3, 2)

        def loss():
            return F.adaptive_avg_pool3d(x, (2, 3, 2))

        finite_difference_check(loss, [x], rng=rng)

    def test_repeat_middle(self, rng):
        x = t64(rng, 3, 6)
        weights = nn.Tensor(rng.normal(size=(3, 5, 6)).astype(np.float64))

        def loss():
            return F.mul(F.repeat_middle(x, 5), weights)

        finite_difference_check(loss, [x], rng=rng)

    def test_slice_middle(self, rng):
        x = t64(rng, 2, 7, 3)
        weights = nn.Tensor(rng.normal(size=(2, 4, 3)).astype(np.float64))

        def loss():
            return F.mul(F.slice_middle(x, 4), weights)

        finite_difference_check(loss, [x], rng=rng)


    @pytest.mark.parametrize("op, a_shape, b_shape", [
        ("mul", (2, 5, 3), (3,)),
        ("matmul", (2, 5, 4), (4, 3)),
        ("conv3d", (2, 3, 4, 3, 2), (3, 3, 3, 2, 3)),
        ("conv3d_pointwise", (2, 3, 2, 3, 4), (1, 1, 1, 4, 3)),
        ("matmul_residual", (2, 5, 4), (4, 3)),
    ])
    def test_added_operand(self, rng, op, a_shape, b_shape):
        """The operand an op adds into its product's buffer, per element
        (B, 1, ..., C), gets its gradient through the op's own closure."""
        a, b = t64(rng, *a_shape), t64(rng, *b_shape)
        c = t64(rng, 2, *(1,) * (len(a_shape) - 2), 3)
        weights = nn.Tensor(rng.normal(size=a_shape[:-1] + (3,)))
        fused = {
            "mul": lambda: F.mul(a, b, c),
            "matmul": lambda: F.matmul(a, b, c),
            "matmul_residual": lambda: F.matmul(a, b, None, c),
            "conv3d": lambda: F.conv3d(a, b, 1, c),
            "conv3d_pointwise": lambda: F.conv3d(a, b, 0, c),
        }[op]

        def loss():
            return F.mul(F.selu(fused()), weights)

        finite_difference_check(loss, [a, b, c], rng=rng)


class TestConvGradients:
    def test_stride1_padded(self, rng):
        x = t64(rng, 2, 4, 4, 4, 3)
        w = t64(rng, 3, 3, 3, 3, 2)

        def loss():
            return F.conv3d(x, w, padding=1)

        finite_difference_check(loss, [x, w], rng=rng)

    def test_pointwise(self, rng):
        x = t64(rng, 2, 3, 3, 3, 4)
        w = t64(rng, 1, 1, 1, 4, 2)

        def loss():
            return F.sigmoid(F.conv3d(x, w))

        finite_difference_check(loss, [x, w], rng=rng)

    def test_layer_with_bias(self, rng):
        conv = Conv3d(2, 3, 3, rng=7, dtype=np.float64)
        x = t64(rng, 2, 4, 4, 4, 2)

        def loss():
            return F.selu(conv(x))

        finite_difference_check(loss, [x, conv.w, conv.b], rng=rng)


class TestNormalizationGradients:
    def test_element_norm(self, rng):
        norm = Norm(3, dtype=np.float64)
        norm.gamma.data = rng.normal(1.0, 0.2, size=3)
        norm.beta.data = rng.normal(0.0, 0.2, size=3)
        x = t64(rng, 2, 3, 2, 3, 3)

        def loss():
            return F.sigmoid(norm(x))

        finite_difference_check(loss, [x, norm.gamma, norm.beta], rng=rng)

    def test_point_norm(self, rng):
        norm = Norm(5, ref=3, dtype=np.float64)
        norm.gamma.data = rng.normal(1.0, 0.2, size=5)
        norm.beta.data = rng.normal(0.0, 0.2, size=5)
        x = t64(rng, 2, 6, 5)

        def loss():
            return F.sigmoid(norm(x))

        finite_difference_check(loss, [x, norm.gamma, norm.beta], rng=rng)

    def test_conditional_point_norm(self, rng):
        norm = Norm(4, ref=3, cond_dim=3, rng=5, dtype=np.float64)
        for stack in (norm.gamma_stack, norm.beta_stack):
            stack[1].w.data = rng.normal(size=stack[1].w.data.shape) * 0.3
        x = t64(rng, 2, 5, 4)
        cond = t64(rng, 2, 3)

        def loss():
            return F.sigmoid(norm(x, cond))

        finite_difference_check(loss, [x, cond] + norm.parameters(), rng=rng, n_probes=80)


class TestBlockGradients:
    def test_residual_fc(self, rng):
        block = ResidualBlockFC(4, 6, rng=2, ref=3, dtype=np.float64)
        x = t64(rng, 2, 5, 4)

        def loss():
            return F.sigmoid(block(x))

        finite_difference_check(loss, [x] + block.parameters(), rng=rng, n_probes=80)

    def test_residual_fc_conditioned(self, rng):
        block = ResidualBlockFC(4, 6, rng=3, ref=2, cond_dim=3, dtype=np.float64)
        x = t64(rng, 3, 4, 4)
        cond = t64(rng, 3, 3)

        def loss():
            return F.sigmoid(block(x, cond=cond))

        finite_difference_check(loss, [x, cond] + block.parameters(), rng=rng, n_probes=80)

    def test_residual_fc_on_reference_points(self, rng):
        block = ResidualBlockFC(4, 4, rng=3, ref=4, cond_dim=3, dtype=np.float64)
        x = t64(rng, 2, 6, 4)
        cond = t64(rng, 2, 3)

        def loss():
            return F.sigmoid(block(x, cond=cond))

        finite_difference_check(loss, [x, cond] + block.parameters(), rng=rng, n_probes=80)

    def test_residual_conv(self, rng):
        block = ResidualBlockConv3d(2, 3, rng=4, dtype=np.float64)
        x = t64(rng, 2, 3, 3, 3, 2)

        def loss():
            return F.sigmoid(block(x))

        finite_difference_check(loss, [x] + block.parameters(), rng=rng, n_probes=80)

    def test_recomputed_hilo_encoder(self, rng):
        """The encoder's tape rebuilt in the backward gives its input and
        every parameter their gradients."""
        cfg = HiLoConfig(window_size=4, levels=1, encoder_blocks=2, base_channels=2)
        enc = HiLoEncoder(cfg, rng=np.random.default_rng(5), dtype=np.float64)
        x = t64(rng, 2, 4, 4, 4, 1)

        def loss():
            return F.sigmoid(F.recompute(enc, (x,), enc.parameters()))

        finite_difference_check(loss, [x] + enc.parameters(), rng=rng, n_probes=80)

    def test_recomputed_hilo_grid_decoder(self, rng):
        """Under a tape the decoder's pooled blocks run through one
        ``F.recompute``: the concat and every parameter get their gradients."""
        cfg = HiLoConfig(window_size=4, levels=2, cnn_decoder_blocks=3, base_channels=2)
        dec = HiLoGridDecoder(cfg, rng=np.random.default_rng(7), dtype=np.float64)
        for p in dec.parameters():  # off the zero-initialized head
            p.data[...] = rng.normal(scale=0.5, size=p.shape)
        h = t64(rng, 2, 2, 2, 2, 4)
        calls = []

        def loss():
            return dec(h)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(F, "recompute", lambda *a, _op=F.recompute: calls.append(a) or _op(*a))
            finite_difference_check(loss, [h] + dec.parameters(), rng=rng, n_probes=80)
        pooled = [p for block in dec.blocks[:-1] for p in block.parameters()]
        assert calls and all(params == pooled for _, _, params in calls)

    def test_recomputed_conditional_onet_decoder(self, rng):
        """Under a tape each decoder block runs through ``F.recompute`` with
        its norms' conditioned affines as further inputs: the coordinates,
        the latent and every parameter get their gradients."""
        dec = OnetDecoder(3, 4, 2, "cbn", F.leaky_relu, rng=np.random.default_rng(6),
                          dtype=np.float64)
        for p in dec.parameters():  # off the zero-initialized head and affine layers
            p.data[...] = rng.normal(scale=0.5, size=p.shape)
        coords = t64(rng, 2, 5, 3)
        latent = t64(rng, 2, 3)
        calls = []

        def loss():
            return dec(coords, latent)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(F, "recompute", lambda *a, _op=F.recompute: calls.append(a) or _op(*a))
            finite_difference_check(loss, [coords, latent] + dec.parameters(), rng=rng,
                                    n_probes=80)
        assert calls and all(len(xs) == 5 for _, xs, _ in calls)

    def test_recomputed_onet_encoder(self, rng):
        """Under a tape the occupancy model's encoder runs through one
        ``F.recompute`` on the volume batch, with its parameters as the
        recompute's: the volumes and every parameter get their gradients."""
        cfg = OnetConfig(encoder_blocks=2, decoder_blocks=1, base_channels=2, latent_dim=4,
                         decoder_hidden=4)
        model = OnetModel(cfg, seed=2, dtype=np.float64)
        for p in model.parameters():  # off the zero-initialized head and affine layers
            p.data[...] = rng.normal(scale=0.5, size=p.shape)
        vols = nn.Tensor(rng.random((2, 6, 5, 7, 1)), requires_grad=True)
        coords = nn.Tensor(rng.random((2, 5, 3)))
        calls = []

        def loss():
            return model(vols, coords)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(F, "recompute", lambda *a, _op=F.recompute: calls.append(a) or _op(*a))
            finite_difference_check(loss, [vols] + model.parameters(), rng=rng, n_probes=80)
        encoder_calls = [c for c in calls if c[0] is model.encoder]
        assert encoder_calls and all(xs == (vols,) and params == model.encoder.parameters()
                                     for _, xs, params in encoder_calls)

    def test_dense_layer(self, rng):
        dense = Dense(5, 7, rng=6, dtype=np.float64)
        x = t64(rng, 8, 5)

        def loss():
            return F.leaky_relu(dense(x))

        finite_difference_check(loss, [x, dense.w, dense.b], rng=rng)


class TestLossGradients:
    def test_bce(self, rng):
        z = t64(rng, 60)
        target = (rng.random(60) > 0.6).astype(np.float64)

        def loss():
            return F.bce_loss(F.sigmoid(z), target)

        finite_difference_check(loss, [z], rng=rng)

    def test_focal(self, rng):
        z = t64(rng, 60)
        target = (rng.random(60) > 0.6).astype(np.float64)

        def loss():
            return F.focal_loss(F.sigmoid(z), target, gamma=2.0, alpha=0.25)

        finite_difference_check(loss, [z], rng=rng)

    def test_focal_unit_gamma(self, rng):
        """gamma = 1 stresses the (gamma - 1) power term in the closure."""
        z = t64(rng, 40)
        target = (rng.random(40) > 0.4).astype(np.float64)

        def loss():
            return F.focal_loss(F.sigmoid(z), target, gamma=1.0, alpha=0.4)

        finite_difference_check(loss, [z], rng=rng)


    @pytest.mark.parametrize("loss_op", [F.bce_loss, F.focal_loss])
    def test_per_entry_seed(self, rng, loss_op):
        """Each entry's mean loss takes its own upstream gradient."""
        z = t64(rng, 3, 4, 5)
        target = (rng.random((3, 4, 5)) > 0.5).astype(np.float64)
        weights = nn.Tensor(rng.normal(size=3))

        def loss():
            return F.mul(loss_op(F.sigmoid(z), target), weights)

        finite_difference_check(loss, [z], rng=rng, reduce="sum")


class TestEndToEndGradient:
    def test_small_conv_net(self, rng):
        """Conv encoder into dense head, the full op mix in one graph."""
        conv1 = Conv3d(1, 3, 3, rng=8, dtype=np.float64)
        norm = Norm(3, dtype=np.float64)
        dense = Dense(3 * 8, 1, rng=9, dtype=np.float64)
        x = t64(rng, 2, 4, 4, 4, 1)
        target = np.array([[1.0], [0.0]])

        def loss():
            h = F.selu(norm(conv1(x)))
            h = F.avg_pool3d(h, 2)
            h = F.reshape(h, (2, 3 * 8))
            return F.bce_loss(F.sigmoid(dense(h)), target)

        params = [x, conv1.w, conv1.b, norm.gamma, norm.beta, dense.w, dense.b]
        finite_difference_check(loss, params, rng=rng, n_probes=100)
