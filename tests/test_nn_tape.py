"""The tape: what its graph nodes keep alive, how gradients are handed to
them, the seeded sweep that rebuilds a tape in the backward
(``F.recompute``), the hand-over that releases an array, and the hooks a
profiler rebinds (an op result's ``_backward`` and
``Tensor.accumulate_grad``)."""

import contextlib
import itertools
import weakref

import numpy as np
import pytest
from conftest import assert_same_bits, backward_sum

from hiloseg import nn
from hiloseg.models.hilo import HiLoConfig, HiLoGridDecoder
from hiloseg.models.onet import OnetConfig, OnetDecoder, OnetModel
from hiloseg.nn import functional as F
from hiloseg.nn.layers import Conv3d, Dense, Norm, ResidualBlockConv3d, ResidualBlockFC
from hiloseg.nn.tensor import Tensor, hand_over


def record_outputs(monkeypatch, names, keep=None):
    """Make each named op of ``F`` log a weak reference to its result's data
    under its name; with a list ``keep``, also hold every result handle."""
    made = {name: [] for name in names}
    for name in names:
        op = getattr(F, name)

        def logged(*args, _op=op, _name=name, **kwargs):
            out = _op(*args, **kwargs)
            made[_name].append(weakref.ref(out.data))
            if keep is not None:
                keep.append(out)
            return out

        monkeypatch.setattr(F, name, logged)
    return made


def alive(refs):
    return [r() is not None for r in refs]


def conv_block_case(rng):
    # the activation is looked up now, so a logged op is the one bound
    block = ResidualBlockConv3d(2, 3, rng=4, activation=F.selu)
    return block, nn.Tensor(rng.normal(size=(2, 4, 5, 3, 2)).astype(np.float32),
                            requires_grad=True)


def fc_block_case(rng):
    block = ResidualBlockFC(4, 6, rng=2, ref=3, activation=F.leaky_relu)
    return block, nn.Tensor(rng.normal(size=(2, 9, 4)).astype(np.float32), requires_grad=True)


class TestRetention:
    """An op result dies with its handle unless a backward reads it."""

    @pytest.mark.parametrize(
        "case, activation, result, dropped",
        [(conv_block_case, "selu", "add", ("mul", "conv3d", "matmul")),
         (fc_block_case, "leaky_relu", "matmul", ("mul",))],
        ids=["conv", "fc"],
    )
    def test_only_what_backward_reads_stays_alive(self, monkeypatch, case, activation, result,
                                                  dropped):
        names = tuple(dict.fromkeys((result, "add") + dropped + ("batch_standardize", activation)))

        def gradients(keep):
            with monkeypatch.context() as m:
                made = record_outputs(m, names, keep)
                block, x = case(np.random.default_rng(7))
                out = block(x)  # no collection: reference counts alone free the rest
                g = np.random.default_rng(8).normal(size=out.shape).astype(np.float32)
                state = {name: alive(refs) for name, refs in made.items()}
                backward_sum(F.mul(out, g))
                grads = [x.grad] + [p.grad for p in block.parameters()]
                del out
                after = {name: alive(refs) for name, refs in made.items()}
            return state, after, grads

        state, after, grads = gradients(keep=None)
        # the block's result is the last add, or the FC block's dense2, which
        # adds the skip into its own buffer; every other add, mul, conv3d and
        # matmul output is dead once the forward returns
        assert state[result][-1] and not any(state[result][:-1])
        for name in dropped:
            assert state[name] and not any(state[name]), name
        if result != "add":
            assert state["add"] == []
        # backward reads the standardized outputs and the activations
        assert state["batch_standardize"] and all(state["batch_standardize"])
        assert state[activation] and all(state[activation])
        # the walk consumes the tape: nothing is left behind
        assert not any(itertools.chain.from_iterable(after.values()))

        held: list = []
        _, _, want = gradients(keep=held)  # every op result held to the end
        assert len(held) > len(names)
        for got, ref in zip(grads, want):
            np.testing.assert_array_equal(got, ref)

    def test_selu_and_leaky_relu_keep_their_output_not_their_input(self, rng):
        for op in (F.selu, F.leaky_relu):
            x = nn.Tensor(rng.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
            h = F.mul(x, 2.0)
            ref_in = weakref.ref(h.data)
            y = op(h)
            ref_out = weakref.ref(y.data)
            loss = F.mul(y, 1.0)  # the tape now holds y's node
            del h, y
            assert ref_in() is None and ref_out() is not None
            backward_sum(loss)
            assert ref_out() is None


class TestGradientHandOver:
    """A fresh gradient becomes the node's gradient without a copy; nothing
    else does, so no two tensors ever share a gradient buffer."""

    @staticmethod
    def watch_buffers(monkeypatch):
        """Check after every accumulation that no two nodes seen so far hold
        overlapping gradient buffers."""
        seen: list = []
        original = Tensor.accumulate_grad

        def checked(self, g, fresh=False):
            original(self, g, fresh=fresh)
            if not any(t is self for t in seen):
                seen.append(self)
            grads = [t.grad for t in seen if t.grad is not None]
            for a, b in itertools.combinations(grads, 2):
                assert not np.shares_memory(a, b)

        monkeypatch.setattr(Tensor, "accumulate_grad", checked)
        return seen

    def test_add_of_two_leaves(self, rng, monkeypatch):
        seen = self.watch_buffers(monkeypatch)
        a = nn.parameter(rng.normal(size=(3, 4)))
        b = nn.parameter(rng.normal(size=(3, 4)))
        out = F.add(a, b)
        backward_sum(F.mul(out, 3.0))
        np.testing.assert_array_equal(a.grad, np.full((3, 4), 3.0))
        np.testing.assert_array_equal(b.grad, np.full((3, 4), 3.0))
        assert not np.shares_memory(a.grad, b.grad)
        assert any(t is a for t in seen) and any(t is b for t in seen)

    def test_diamond_graph(self, rng, monkeypatch):
        self.watch_buffers(monkeypatch)
        a = nn.parameter(rng.normal(size=(2, 5)))
        left = F.mul(a, 2.0)
        right = F.mul(a, a)
        backward_sum(F.add(F.add(left, right), left))
        np.testing.assert_allclose(a.grad, 4.0 + 2.0 * a.data, rtol=1e-15)

    def test_same_leaf_twice(self, rng, monkeypatch):
        self.watch_buffers(monkeypatch)
        a = nn.parameter(rng.normal(size=(4,)))
        backward_sum(F.add(a, a))
        np.testing.assert_array_equal(a.grad, np.full(4, 2.0))

    def test_fresh_owned_array_is_adopted(self, rng):
        a = nn.parameter(rng.normal(size=(3,)).astype(np.float32))
        g = np.ones(3, np.float32)
        a.accumulate_grad(g, fresh=True)
        assert a.grad is g
        a.accumulate_grad(np.ones(3, np.float32), fresh=True)
        assert a.grad is g and (g == 2.0).all()

    @pytest.mark.parametrize(
        "make",
        [lambda: np.ones(6, np.float32)[:3],  # a view
         lambda: np.broadcast_to(np.float32(1.0), (3,)),  # read-only
         lambda: np.ones(3, np.float64)],  # another dtype
        ids=["view", "read-only", "dtype"],
    )
    def test_other_arrays_are_copied(self, rng, make):
        a = nn.parameter(rng.normal(size=(3,)).astype(np.float32))
        g = make()
        a.accumulate_grad(g, fresh=True)
        assert a.grad is not g and not np.shares_memory(a.grad, g)
        assert a.grad.dtype == np.float32 and a.grad.base is None

    def test_arrays_not_marked_fresh_are_copied(self, rng):
        a = nn.parameter(rng.normal(size=(3,)).astype(np.float32))
        g = np.ones(3, np.float32)
        a.accumulate_grad(g)
        assert a.grad is not g

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "copied"])
    @pytest.mark.parametrize("op", [
        F.leaky_relu,
        F.selu,
        F.sigmoid,
        lambda x: F.batch_standardize(x, 1e-3, (1, 2)),
        lambda x: F.batch_standardize(x, 1e-5, (1,), 2),
        lambda x: F.mul(x, nn.parameter(np.full(3, 1.5, np.float32)),
                        nn.parameter(np.ones((2, 5, 3), np.float32))),
        lambda x: F.matmul(nn.parameter(np.ones((2, 5, 4), np.float32)),
                           nn.parameter(np.ones((4, 3), np.float32)),
                           nn.parameter(np.zeros(3, np.float32)), x),
    ], ids=["leaky_relu", "selu", "sigmoid", "batch_standardize", "batch_standardize_ref",
            "mul", "matmul_residual"])
    def test_backward_writes_its_input_gradient_into_its_own(self, rng, monkeypatch, op, fresh):
        """These closures hand their input (mul: its first operand; matmul:
        its residual) the gradient they were given, written over in place.
        A seed handed over is that buffer; any other seed is copied first and
        never written."""
        self.watch_buffers(monkeypatch)
        x = nn.Tensor(rng.normal(size=(2, 5, 3)).astype(np.float32), requires_grad=True)
        y = op(x)
        s = rng.normal(size=y.shape).astype(np.float32)
        want = s.copy()
        y.backward(seed=s, fresh=fresh)
        assert np.shares_memory(x.grad, s) == fresh
        if not fresh:
            assert s.tobytes() == want.tobytes()

    def test_conv3d_input_gradient_is_adopted(self, rng, monkeypatch):
        self.watch_buffers(monkeypatch)
        x = nn.Tensor(rng.normal(size=(1, 4, 4, 4, 2)).astype(np.float32), requires_grad=True)
        w = nn.parameter(rng.normal(size=(3, 3, 3, 2, 2)).astype(np.float32))
        backward_sum(F.conv3d(x, w, padding=1))
        assert x.grad.base is None and x.grad.flags.writeable

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "copied"])
    @pytest.mark.parametrize("k, padding, cout, over", [
        (3, 1, 2, True), (5, 2, 2, True), (3, 0, 2, False), (3, 1, 3, False),
    ], ids=["same", "k5", "valid", "cout"])
    def test_conv3d_writes_a_same_shape_input_gradient_over_g(self, rng, monkeypatch, fresh,
                                                               k, padding, cout, over):
        """An input gradient of the output gradient's shape (Cin = Cout,
        2p = k - 1) is written over the output gradient the closure owns;
        another shape gets an array of its own, and a seed not handed over
        is copied first and never written."""
        self.watch_buffers(monkeypatch)
        x = nn.Tensor(rng.normal(size=(2, 6, 5, 4, 2)).astype(np.float32), requires_grad=True)
        w = nn.parameter(rng.normal(size=(k, k, k, 2, cout)).astype(np.float32))
        y = F.conv3d(x, w, padding=padding)
        s = rng.normal(size=y.shape).astype(np.float32)
        want = s.copy()
        y.data = None
        y.backward(seed=s, fresh=fresh)
        assert np.shares_memory(x.grad, s) == (over and fresh)
        if not fresh:
            assert s.tobytes() == want.tobytes()


class TestHandOver:
    """``hand_over``: a tensor that is not a leaf gives up its array."""

    def test_a_leaf_keeps_its_data(self, rng):
        for leaf in (nn.parameter(rng.normal(size=(3, 2))),
                     Tensor(rng.normal(size=(3, 2)), requires_grad=True)):
            d, bits = leaf.data, leaf.data.copy()
            hand_over(leaf)
            assert leaf.data is d
            assert_same_bits(d, bits)

    @pytest.mark.parametrize("make", [
        lambda w: Tensor(w.data.copy()),
        lambda w: F.add(w, w),
        lambda w: F.add(Tensor(w.data), Tensor(w.data)),
    ], ids=["constant", "op-result-on-the-tape", "op-result-without-a-tape"])
    def test_a_constant_or_op_result_gives_up_its_array(self, rng, make):
        """Its ``data`` becomes None and the array dies with its last
        holder; a holder elsewhere sees its bits unchanged."""
        w = nn.parameter(rng.normal(size=(3, 2)).astype(np.float32))
        held = make(w)
        kept, bits = held.data, held.data.copy()
        hand_over(held)
        assert held.data is None
        assert_same_bits(kept, bits)
        dropped = make(w)
        ref = weakref.ref(dropped.data)
        hand_over(dropped)
        assert dropped.data is None and ref() is None

    def test_an_array_a_backward_reads_outlives_the_hand_over(self, rng):
        """selu's backward reads its output: the tape keeps the array, and
        the gradient equals the one without the hand-over."""
        def gradient(release):
            w = nn.parameter(np.random.default_rng(1).normal(size=(3, 2)).astype(np.float32))
            y = F.selu(w)
            ref = weakref.ref(y.data)
            if release:
                hand_over(y)
            assert ref() is not None
            y.backward(seed=np.ones(y.shape, y.dtype))
            return w.grad

        assert_same_bits(gradient(True), gradient(False))


class TestHookContract:
    """A profiler times backward closures by rebinding an op result's
    ``_backward`` and counts gradients by rebinding ``Tensor.accumulate_grad``."""

    def test_rebound_backward_runs_once(self, rng):
        a = nn.parameter(rng.normal(size=(3,)))
        h = F.mul(a, 2.0)
        inner = h._backward
        calls = []

        def wrapped(g):
            calls.append(g.copy())
            inner(g)

        h._backward = wrapped
        assert h._backward is wrapped
        backward_sum(h)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.ones(3))
        np.testing.assert_array_equal(a.grad, np.full(3, 2.0))
        assert h._backward is None

    def test_each_parameter_gets_one_partial_per_instance_in_order(self, rng, monkeypatch):
        batch = 3
        conv = Conv3d(2, 3, 3, rng=1)
        norm = Norm(3)
        dense = Dense(3, 2, rng=2)
        params = conv.parameters() + norm.parameters() + dense.parameters()
        x = rng.normal(size=(batch, 4, 4, 4, 2)).astype(np.float32)
        g = rng.normal(size=(batch, 4, 4, 4, 2)).astype(np.float32)
        partials: dict[int, list] = {}
        original = Tensor.accumulate_grad

        def recorded(self, grad, fresh=False):
            if any(self is p for p in params):
                partials.setdefault(id(self), []).append(np.array(grad, copy=True))
            original(self, grad, fresh=fresh)

        monkeypatch.setattr(Tensor, "accumulate_grad", recorded)

        def run(rows):
            partials.clear()
            for p in params:
                p.zero_grad()
            h = dense(F.selu(norm(conv(nn.Tensor(x[rows])))))
            backward_sum(F.mul(h, g[rows]))
            return [partials[id(p)] for p in params]

        whole = run(slice(None))
        alone = [run(slice(i, i + 1)) for i in range(batch)]
        for k, got in enumerate(whole):
            assert len(got) == batch
            for i in range(batch):
                assert len(alone[i][k]) == 1
                np.testing.assert_array_equal(got[i], alone[i][k][0])


class TestRecompute:
    """``F.recompute`` keeps its inputs only and rebuilds its tape in the
    backward, where a seeded ``Tensor.backward`` sweeps it."""

    def test_seeded_backward_equals_weighted_sum(self, rng):
        w = nn.parameter(rng.normal(size=(3, 4)).astype(np.float32))
        x = rng.normal(size=(5, 3)).astype(np.float32)
        s = rng.normal(size=(5, 4)).astype(np.float32)

        def grad(sweep):
            w.zero_grad()
            sweep(F.selu(F.matmul(nn.Tensor(x), w)))
            return w.grad

        seeded = grad(lambda y: y.backward(seed=s))
        summed = grad(lambda y: backward_sum(F.mul(y, s)))
        assert seeded.tobytes() == summed.tobytes()

    def test_non_scalar_root_needs_a_seed(self, rng):
        w = nn.parameter(rng.normal(size=(3,)))
        with pytest.raises(ValueError, match="scalar"):
            F.mul(w, 2.0).backward()

    def test_forward_keeps_no_activation(self, monkeypatch, rng):
        names = ("conv3d", "matmul", "batch_standardize", "mul", "add", "selu")
        made = record_outputs(monkeypatch, names)
        block, x = conv_block_case(rng)
        y = F.recompute(block, (x,), block.parameters())
        live = {name: sum(r() is not None for r in made[name]) for name in names}
        # the forward runs without a tape, so norm2, its affine, the
        # activation, conv2 and the residual sum write over conv1's output,
        # the one op record alive: y's data
        assert live == {"conv3d": 2, "matmul": 0, "batch_standardize": 1, "mul": 1, "add": 1,
                        "selu": 1}
        assert all(r() is y.data for name in names for r in made[name] if r() is not None)

    @staticmethod
    def block_gradients(rng, wrap, context=contextlib.nullcontext):
        block, x = conv_block_case(rng)
        loss = F.mul(wrap(block, x), 0.5)
        with context():
            backward_sum(loss)
        return [t.grad for t in [x] + block.parameters()]

    def test_without_a_tape_is_fn_of_its_inputs_and_hands_them_over(self, rng):
        """Without a tape, ``recompute`` is ``fn(*xs)`` bit for bit and
        records nothing; an input that is not a leaf then gives up its
        array unwritten, and a leaf keeps its data."""
        block, _ = conv_block_case(rng)
        xd = rng.normal(size=(2, 4, 5, 3, 2)).astype(np.float32)
        with nn.no_grad():
            want = block(Tensor(xd.copy())).data
            x = Tensor(xd.copy())
            arr = x.data
            y = F.recompute(block, (x,), block.parameters())
            leaf = Tensor(xd.copy(), requires_grad=True)
            from_leaf = F.recompute(block, (leaf,), block.parameters())
        assert y.node is None
        assert_same_bits(y.data, want)
        assert x.data is None
        assert_same_bits(arr, xd)
        assert_same_bits(from_leaf.data, want)
        assert_same_bits(leaf.data, xd)

    def test_with_a_tape_hands_its_inputs_over_to_its_node(self, rng):
        """Under a tape an input that is not a leaf gives up its array to
        the recompute node, which keeps it until its backward has run."""
        block, x = conv_block_case(rng)
        h = F.add(x, x)
        ref = weakref.ref(h.data)
        y = F.recompute(block, (h,), block.parameters())
        assert h.data is None and ref() is not None
        backward_sum(y)
        assert ref() is None and x.grad is not None

    def test_gradients_bit_equal_to_a_kept_tape(self):
        kept = self.block_gradients(np.random.default_rng(1), lambda f, x: f(x))
        rebuilt = self.block_gradients(np.random.default_rng(1),
                                       lambda f, x: F.recompute(f, (x,), f.parameters()))
        for a, b in zip(kept, rebuilt):
            assert a.tobytes() == b.tobytes()

    @staticmethod
    def decoder_case(conditioning, blocks=3):
        """An occupancy decoder with random weights (its head and affine
        layers start at zero), 7 queries and a leaf latent, built after any
        op is patched so its activation is the patched one."""
        rng = np.random.default_rng(3)
        dec = OnetDecoder(6, 8, blocks, conditioning, F.leaky_relu, rng=4)
        for p in dec.parameters():
            p.data[...] = rng.normal(scale=0.5, size=p.shape)
        coords = nn.Tensor(rng.random((2, 7, 3)).astype(np.float32), requires_grad=True)
        latent = nn.Tensor(rng.normal(size=(2, 6)).astype(np.float32), requires_grad=True)
        return dec, coords, latent

    @pytest.mark.parametrize("conditioning", ["cbn", "concat"])
    def test_decoder_gradients_bit_equal_to_a_kept_tape(self, conditioning, monkeypatch):
        """The conditioning stacks stay on the outer tape, so the latent's
        gradient sums their contributions in the kept tape's order."""
        def gradients():
            dec, coords, latent = self.decoder_case(conditioning)
            backward_sum(F.mul(dec(coords, latent), 0.5))
            return [t.grad for t in [coords, latent] + dec.parameters()]

        rebuilt = gradients()
        with monkeypatch.context() as m:
            m.setattr(F, "recompute", lambda fn, xs, params: fn(*xs))
            kept = gradients()
        for a, b in zip(kept, rebuilt):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("conditioning", ["cbn", "concat"])
    def test_model_gradients_bit_equal_to_a_kept_tape(self, conditioning, monkeypatch):
        """The occupancy model rebuilds its encoder's tape in one recompute
        on the volume batch, seeded by the latent's gradient, which the
        decoder's consumers sum in the kept tape's order: the encoder's and
        the decoder's parameters get the kept tape's gradients."""
        cfg = OnetConfig(conditioning=conditioning, encoder_blocks=2, decoder_blocks=2,
                         base_channels=2, latent_dim=6, decoder_hidden=8)

        def gradients(recompute):
            rng = np.random.default_rng(3)
            model = OnetModel(cfg, seed=4)
            for p in model.parameters():  # off the zero-initialized head and affine layers
                p.data[...] = rng.normal(scale=0.5, size=p.shape)
            vols = nn.Tensor(rng.random((2, 6, 5, 7, 1)).astype(np.float32))
            coords = nn.Tensor(rng.random((2, 7, 3)).astype(np.float32))
            calls = []
            with monkeypatch.context() as m:
                m.setattr(F, "recompute", lambda *a: calls.append(a[0]) or recompute(*a))
                backward_sum(F.mul(model(vols, coords), 0.5))
            return [p.grad for p in model.parameters()], calls[0] is model.encoder

        rebuilt, encoder_first = gradients(F.recompute)
        kept, _ = gradients(lambda fn, xs, params: fn(*xs))
        assert encoder_first
        assert len(kept) == len(rebuilt)
        for a, b in zip(kept, rebuilt):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("conditioning", ["cbn", "concat"])
    def test_taped_decoder_forward_keeps_no_block_activation(self, conditioning, monkeypatch):
        """Until the backward, a block keeps its input (in its recompute
        node) and none of its activations: of the per-point standardized
        outputs and activations, only the final norm's and the head's input
        are alive."""
        names = ("batch_standardize", "leaky_relu")
        made = record_outputs(monkeypatch, names)
        dec, coords, latent = self.decoder_case(conditioning)
        y = dec(coords, latent)
        points = (2, 7 + len(dec.reference), 8)
        live = {name: sum(r() is not None and r().shape == points for r in made[name])
                for name in names}
        assert len(made["batch_standardize"]) == 1 + 2 * len(dec.blocks)
        assert live == {"batch_standardize": 1, "leaky_relu": 1}
        backward_sum(y)
        assert all(r() is None for name in names for r in made[name])

    @staticmethod
    def grid_decoder_case():
        """A three-block grid decoder with random weights (its head starts at zero) on a
        leaf concat of two levels' (2, 2, 2, 2, 2) encodings; its blocks'
        activation is looked up now, so a patched ``F.selu`` is the one
        they call."""
        rng = np.random.default_rng(3)
        cfg = HiLoConfig(window_size=4, levels=2, cnn_decoder_blocks=3, base_channels=2)
        dec = HiLoGridDecoder(cfg, rng=4)
        for block in dec.blocks:
            block.activation = F.selu
        for p in dec.parameters():
            p.data[...] = rng.normal(scale=0.5, size=p.shape)
        h = nn.Tensor(rng.normal(size=(2, 2, 2, 2, 4)).astype(np.float32), requires_grad=True)
        return dec, h

    def test_grid_decoder_gradients_bit_equal_to_a_kept_tape(self, monkeypatch):
        """The pooled blocks rebuilt in one recompute give the concat and
        every parameter the kept tape's gradients."""
        def gradients():
            dec, h = self.grid_decoder_case()
            backward_sum(F.mul(dec(h), 0.5))
            return [t.grad for t in [h] + dec.parameters()]

        rebuilt = gradients()
        with monkeypatch.context() as m:
            m.setattr(F, "recompute", lambda fn, xs, params: fn(*xs))
            kept = gradients()
        assert len(kept) == len(rebuilt)
        for a, b in zip(kept, rebuilt):
            assert a.tobytes() == b.tobytes()

    def test_taped_grid_decoder_forward_keeps_no_pooled_block_activation(self, monkeypatch):
        """Until the backward, the pooled blocks keep their input (in the
        recompute node) and none of their standardized outputs or
        activations; only the full-resolution last block and final norm
        keep theirs."""
        names = ("batch_standardize", "selu")
        made = record_outputs(monkeypatch, names)
        dec, h = self.grid_decoder_case()
        y = dec(h)
        n = 2 * (len(dec.blocks) - 1)  # two norms and two activations per pooled block
        for name in names:
            assert alive(made[name]) == [False] * n + [True] * 3
        backward_sum(y)
        assert all(r() is None for name in names for r in made[name])

    def test_backward_inside_no_grad_still_reaches_the_parameters(self):
        def wrap(f, x):
            return F.recompute(f, (x,), f.parameters())

        outside = self.block_gradients(np.random.default_rng(2), wrap)
        inside = self.block_gradients(np.random.default_rng(2), wrap, nn.no_grad)
        for a, b in zip(outside, inside):
            assert b is not None and a.tobytes() == b.tobytes()
