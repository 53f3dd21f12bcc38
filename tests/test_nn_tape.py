"""The tape: what its graph nodes keep alive, how gradients are handed to
them, and the hooks a profiler rebinds (an op result's ``_backward`` and
``Tensor.accumulate_grad``)."""

import itertools
import weakref

import numpy as np
import pytest

from hiloseg import nn
from hiloseg.nn import functional as F
from hiloseg.nn.layers import Conv3d, Dense, ElementNorm, ResidualBlockConv3d, ResidualBlockFC
from hiloseg.nn.tensor import Tensor


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
        "case, activation, dropped",
        [(conv_block_case, "selu", ("mul", "add", "conv3d", "matmul")),
         (fc_block_case, "leaky_relu", ("mul", "add", "matmul"))],
        ids=["conv", "fc"],
    )
    def test_only_what_backward_reads_stays_alive(self, monkeypatch, case, activation, dropped):
        names = dropped + ("batch_standardize", activation)

        def gradients(keep):
            with monkeypatch.context() as m:
                made = record_outputs(m, names, keep)
                block, x = case(np.random.default_rng(7))
                out = block(x)  # no collection: reference counts alone free the rest
                g = np.random.default_rng(8).normal(size=out.shape).astype(np.float32)
                state = {name: alive(refs) for name, refs in made.items()}
                F.sum_all(F.mul(out, g)).backward()
                grads = [x.grad] + [p.grad for p in block.parameters()]
                del out
                after = {name: alive(refs) for name, refs in made.items()}
            return state, after, grads

        state, after, grads = gradients(keep=None)
        # the block's result is the last add; every other add, mul, conv3d
        # and matmul output is dead once the forward returns
        assert state["add"][-1] and not any(state["add"][:-1])
        for name in dropped:
            if name != "add":
                assert state[name] and not any(state[name]), name
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
            h = F.scale(x, 2.0)
            ref_in = weakref.ref(h.data)
            y = op(h)
            ref_out = weakref.ref(y.data)
            loss = F.sum_all(y)  # the tape now holds y's node
            del h, y
            assert ref_in() is None and ref_out() is not None
            loss.backward()
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
        F.sum_all(F.scale(out, 3.0)).backward()
        np.testing.assert_array_equal(a.grad, np.full((3, 4), 3.0))
        np.testing.assert_array_equal(b.grad, np.full((3, 4), 3.0))
        assert not np.shares_memory(a.grad, b.grad)
        assert any(t is a for t in seen) and any(t is b for t in seen)

    def test_diamond_graph(self, rng, monkeypatch):
        self.watch_buffers(monkeypatch)
        a = nn.parameter(rng.normal(size=(2, 5)))
        left = F.scale(a, 2.0)
        right = F.mul(a, a)
        F.sum_all(F.add(F.add(left, right), left)).backward()
        np.testing.assert_allclose(a.grad, 4.0 + 2.0 * a.data, rtol=1e-15)

    def test_same_leaf_twice(self, rng, monkeypatch):
        self.watch_buffers(monkeypatch)
        a = nn.parameter(rng.normal(size=(4,)))
        F.sum_all(F.add(a, a)).backward()
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

    def test_conv3d_input_gradient_is_adopted(self, rng, monkeypatch):
        self.watch_buffers(monkeypatch)
        x = nn.Tensor(rng.normal(size=(1, 4, 4, 4, 2)).astype(np.float32), requires_grad=True)
        w = nn.parameter(rng.normal(size=(3, 3, 3, 2, 2)).astype(np.float32))
        F.sum_all(F.conv3d(x, w, padding=1)).backward()
        assert x.grad.base is None and x.grad.flags.writeable


class TestHookContract:
    """A profiler times backward closures by rebinding an op result's
    ``_backward`` and counts gradients by rebinding ``Tensor.accumulate_grad``."""

    def test_rebound_backward_runs_once(self, rng):
        a = nn.parameter(rng.normal(size=(3,)))
        h = F.scale(a, 2.0)
        inner = h._backward
        calls = []

        def wrapped(g):
            calls.append(g.copy())
            inner(g)

        h._backward = wrapped
        assert h._backward is wrapped
        F.sum_all(h).backward()
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.ones(3))
        np.testing.assert_array_equal(a.grad, np.full(3, 2.0))
        assert h._backward is None

    def test_each_parameter_gets_one_partial_per_instance_in_order(self, rng, monkeypatch):
        batch = 3
        conv = Conv3d(2, 3, 3, rng=1)
        norm = ElementNorm(3)
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
            F.sum_all(F.mul(h, g[rows])).backward()
            return [partials[id(p)] for p in params]

        whole = run(slice(None))
        alone = [run(slice(i, i + 1)) for i in range(batch)]
        for k, got in enumerate(whole):
            assert len(got) == batch
            for i in range(batch):
                assert len(alone[i][k]) == 1
                np.testing.assert_array_equal(got[i], alone[i][k][0])
