"""The in-place rule: without a tape, an op asked to (``inplace=True``)
writes its result over the operand it consumes, which gives the bits of its
own result; it never writes over a leaf, a view or a read-only array, and
under a tape it ignores the request."""

import numpy as np
import pytest
from conftest import assert_same_bits, backward_sum

from hiloseg import nn
from hiloseg.models import HiLoConfig, HiLoModel, OnetConfig, OnetModel
from hiloseg.nn import functional as F
from hiloseg.nn.layers import ResidualBlockConv3d, ResidualBlockFC
from hiloseg.nn.tensor import no_grad

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 1e30, -1e30],
                   dtype=np.float32)


def normal(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


def values(rng, *shape):
    """Normal entries, with the special values at the front."""
    v = normal(rng, *shape)
    n = min(v.size, SPECIAL.size)
    v.reshape(-1)[:n] = SPECIAL[:n]
    return v


# name -> (op applied to the operand tensors and the keyword, operand
# arrays' maker, index of the consumed operand)
CASES = {
    "mul-channels": (F.mul, lambda rng: [values(rng, 2, 3, 4, 5, 6), normal(rng, 6),
                                         normal(rng, 6)], 0),
    "mul-points": (F.mul, lambda rng: [values(rng, 2, 7, 3), normal(rng, 2, 1, 3),
                                       normal(rng, 2, 1, 3)], 0),
    "add": (F.add, lambda rng: [values(rng, 2, 3, 4, 5, 6),
                                values(rng, 2, 3, 4, 5, 6)[::-1].copy()], 1),
    "selu": (F.selu, lambda rng: [values(rng, 2, 3, 4, 5, 6)], 0),
    "leaky_relu": (lambda x, **kw: F.leaky_relu(x, 0.2, **kw),
                   lambda rng: [values(rng, 2, 3, 4, 5, 6)], 0),
    "leaky_relu-slope-1": (lambda x, **kw: F.leaky_relu(x, 1.0, **kw),
                           lambda rng: [values(rng, 2, 7, 3)], 0),
    "batch_standardize": (lambda x, **kw: F.batch_standardize(x, 1e-3, (1, 2, 3, 4), **kw),
                          lambda rng: [normal(rng, 2, 3, 4, 5, 6)], 0),
    "batch_standardize-ref": (lambda x, **kw: F.batch_standardize(x, 1e-5, (1,), 3, **kw),
                              lambda rng: [normal(rng, 2, 9, 4)], 0),
}


def _conv(cin, cout, k, p):
    def op(x, w, b, **kw):
        return F.conv3d(x, w, p, b, **kw)

    def make(rng):
        return [normal(rng, 2, 7, 6, 5, cin), normal(rng, k, k, k, cin, cout), normal(rng, cout)]

    return op, make, 0


# name -> (Cin, Cout, k, padding)
CONV_SHAPES = {
    "k3": (3, 3, 3, 1),
    "k5": (2, 2, 5, 2),  # two input planes saved per chunk
}
CONV_CASES = {name: _conv(*shape) for name, shape in CONV_SHAPES.items()}


def operands(case):
    """The case's operand arrays, the same on every call."""
    return case[1](np.random.default_rng(0))


def run(case, inplace, wrap=nn.Tensor):
    arrays = operands(case)
    tensors = [wrap(a) for a in arrays]
    with no_grad():
        out = case[0](*tensors, inplace=inplace)
    return arrays, tensors, out


def assert_in_place(case, monkeypatch=None, scratch=None):
    """The in-place result has the out-of-place bits, sits in the consumed
    operand's array, whose tensor lost its data, and the other operands are
    untouched."""
    if scratch is not None:
        monkeypatch.setattr(F, "CONV_SCRATCH_BYTES", scratch)
    want = run(case, False)[2].data
    arrays, tensors, out = run(case, True)
    fresh = operands(case)
    consumed = case[2]
    assert_same_bits(out.data, want, "result")
    assert out.data is arrays[consumed]
    assert tensors[consumed].data is None
    for i, (t, a) in enumerate(zip(tensors, fresh)):
        if i != consumed:
            assert_same_bits(t.data, a, f"operand {i}")


@pytest.mark.parametrize("name", CASES)
def test_result_is_written_over_the_consumed_operand(name):
    assert_in_place(CASES[name])


@pytest.mark.parametrize("name", ["leaky_relu", "leaky_relu-slope-1"])
def test_leaky_relu_runs_chunk_by_chunk(name, monkeypatch):
    """Chunks of 7 entries through one scratch cut the rows mid-way."""
    monkeypatch.setattr(F, "INPLACE_CHUNK", 7)
    assert_in_place(CASES[name])


@pytest.mark.parametrize("name", CONV_CASES)
@pytest.mark.parametrize("scratch", [None, 1], ids=["one-chunk", "chunk-per-plane"])
def test_same_shape_conv_writes_over_its_input(name, scratch, monkeypatch):
    """One chunk, or one output plane per chunk, each restoring the input
    planes the chunk before it overwrote from the saved copy."""
    cin, _, k, _ = CONV_SHAPES[name]
    assert_in_place(CONV_CASES[name], monkeypatch, scratch)
    assert len(F._plane_chunks(7, 6, 5, k, cin, 4)) == (1 if scratch is None else 7)


@pytest.mark.parametrize("shape", [(3, 4, 3, 1), (3, 3, 3, 0)], ids=["cin-cout", "valid"])
def test_conv_of_another_shape_keeps_its_input(shape):
    """A result of another shape than the input (Cin ≠ Cout, or no
    padding) gets an array of its own."""
    case = _conv(*shape)
    want = run(case, False)[2].data
    arrays, tensors, out = run(case, True)
    assert_same_bits(out.data, want)
    assert tensors[0].data is arrays[0]
    assert_same_bits(arrays[0], operands(case)[0])


def _views(a):
    """A tensor on a view of a copy of ``a``, as F.reshape returns."""
    return nn.Tensor(a.copy().reshape(-1).reshape(a.shape))


def _read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return nn.Tensor(a)


@pytest.mark.parametrize("wrap", [nn.parameter, _views, _read_only],
                         ids=["leaf", "view", "read-only"])
@pytest.mark.parametrize("name", [*CASES, *CONV_CASES])
def test_leaf_view_or_read_only_operand_is_never_written(name, wrap):
    case = {**CASES, **CONV_CASES}[name]
    want = run(case, False)[2].data
    consumed = case[2]
    _, tensors, out = run(case, True, wrap)
    assert_same_bits(out.data, want, "result")
    assert tensors[consumed].data is not None
    assert not np.shares_memory(out.data, tensors[consumed].data)
    assert_same_bits(tensors[consumed].data, operands(case)[consumed])


F32, F64 = np.float32, np.float64


@pytest.mark.parametrize("op, a, b, consumed", [
    (F.mul, ((2, 1, 3), F32), ((2, 4, 3), F32), 0),  # the product is wider than a
    (F.mul, ((4, 3), F32), ((2, 4, 3), F32), 0),  # and has more axes
    (F.mul, ((2, 4, 3), F32), ((3,), F64), 0),  # a float64 b promotes the product
    (F.add, ((2, 4, 3), F64), ((2, 4, 3), F32), 1),  # a float64 a promotes the sum
], ids=["mul-wider", "mul-more-axes", "mul-promoted", "add-promoted"])
def test_result_that_does_not_fit_the_operand_gets_its_own_array(op, a, b, consumed):
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=shape).astype(dtype) for shape, dtype in (a, b)]
    tensors = [nn.Tensor(x.copy()) for x in arrays]
    with no_grad():
        got, want = op(*tensors, inplace=True), op(*map(nn.Tensor, arrays))
    assert_same_bits(got.data, want.data)
    assert_same_bits(tensors[consumed].data, arrays[consumed])


@pytest.mark.parametrize("kind", ["conv", "conv-proj", "fc", "fc-proj", "fc-conditional"])
def test_block_never_writes_over_its_input(kind):
    """A residual block hands over only the temporaries it made: its input,
    the skip, comes out as it went in."""
    rng = np.random.default_rng(0)
    args = ()
    if kind.startswith("conv"):
        block = ResidualBlockConv3d(3, 3 if kind == "conv" else 4, rng=0)
        x = normal(rng, 2, 4, 5, 3, 3)
    else:
        cond = 5 if kind == "fc-conditional" else None
        block = ResidualBlockFC(3, 4 if kind == "fc-proj" else 3, rng=0, ref=2, cond_dim=cond)
        x = normal(rng, 2, 6, 3)
        args = (nn.Tensor(normal(rng, 2, 5)),) if cond else ()
    t = nn.Tensor(x.copy())
    with no_grad():
        block(t, *args)
    assert_same_bits(t.data, x)


@pytest.mark.parametrize("name", [*CASES, *CONV_CASES])
def test_tape_ignores_the_request(name):
    """Under a tape the same calls leave every operand as it was, constants
    included, and give the gradients of the plain call bit for bit."""
    case = {**CASES, **CONV_CASES}[name]
    op = case[0]

    def results(inplace, wrap):
        arrays = operands(case)
        tensors = [wrap(a) for a in arrays]
        out = op(*tensors, inplace=inplace)
        result = out.data.copy()
        if out.node is not None:
            backward_sum(out)
        for t, a, b in zip(tensors, arrays, operands(case)):
            assert t.data is a
            assert_same_bits(a, b, "operand")
        return result, [t.grad for t in tensors]

    for wrap in (nn.Tensor, nn.parameter):
        (want, want_g), (got, got_g) = results(False, wrap), results(True, wrap)
        assert_same_bits(got, want, "result")
        for a, b in zip(got_g, want_g):
            assert (a is None) == (b is None)
            if a is not None:
                assert_same_bits(a, b, "gradient")


def _hilo_step(decoder):
    cfg = HiLoConfig(window_size=8, levels=2, decoder=decoder, encoder_blocks=2,
                     cnn_decoder_blocks=2, onet_decoder_blocks=2, base_channels=3,
                     decoder_hidden=8)
    model = HiLoModel(cfg, seed=1)
    rng = np.random.default_rng(2)
    levels = [nn.Tensor(rng.normal(size=(2, 8, 8, 8, 1)).astype(np.float32)) for _ in range(2)]
    if decoder == "cnn":
        out, target = model.forward_batch(iter(levels)), rng.random((2, 8, 8, 8)) < 0.5
    else:
        coords = nn.Tensor(rng.random((2, 5, 3)).astype(np.float32))
        out, target = model.forward_batch(iter(levels), coords), rng.random((2, 5)) < 0.5
    backward_sum(F.bce_loss(out, target))


def _onet_step(conditioning):
    cfg = OnetConfig(conditioning=conditioning, encoder_blocks=3, decoder_blocks=2,
                     latent_dim=8, base_channels=2, decoder_hidden=8)
    model = OnetModel(cfg, seed=1)
    rng = np.random.default_rng(2)
    vols = nn.Tensor(rng.normal(size=(2, 8, 8, 8, 1)).astype(np.float32))
    coords = nn.Tensor(rng.random((2, 6, 3)).astype(np.float32))
    backward_sum(F.bce_loss(model(vols, coords), rng.random((2, 6)) < 0.5))


@pytest.mark.parametrize("step", [lambda: _hilo_step("cnn"), lambda: _hilo_step("onet"),
                                  lambda: _onet_step("cbn"), lambda: _onet_step("concat")],
                         ids=["hilo-cnn", "hilo-onet", "onet-cbn", "onet-concat"])
def test_recompute_keeps_its_inputs_intact(step, monkeypatch):
    """A training step's recompute forwards run without a tape, so their
    blocks write over their temporaries; never over an input that a
    recompute node keeps for its backward."""
    recompute, take = F.recompute, F._take
    kept, taken = [], []

    def recorded_recompute(fn, xs, params):
        kept.extend((x.data, x.data.copy()) for x in xs)
        return recompute(fn, xs, params)

    def counted_take(t, *operands):
        d = take(t, *operands)
        taken.append(d is not None)
        return d

    monkeypatch.setattr(F, "recompute", recorded_recompute)
    monkeypatch.setattr(F, "_take", counted_take)
    step()
    assert kept and any(taken)
    for a, before in kept:
        assert_same_bits(a, before, "kept input")
