"""The dtype rule: an op returns the dtype of its floating inputs, and every
gradient it passes back keeps it, so a model built in float32 trains in
float32 end to end. Integer helper arrays (pooling widths, targets) are cast,
never allowed to promote.
"""

import inspect

import numpy as np
import pytest
from conftest import backward_sum

from hiloseg.models import (
    HiLoConfig,
    HiLoModel,
    OnetConfig,
    OnetModel,
    normalize_coords,
    onet_decode,
    onet_encode,
)
from hiloseg.nn import functional as F
from hiloseg.nn.tensor import Tensor, no_grad
from hiloseg.voxel import VoxelVolume

DTYPES = [np.float32, np.float64]


def leaf(rng, shape, dtype):
    return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)


def probs(rng, shape, dtype):
    return Tensor(rng.uniform(0.05, 0.95, size=shape).astype(dtype), requires_grad=True)


def recomputed(rng, dtype):
    w = leaf(rng, (3, 4), dtype)
    return F.recompute(lambda x: F.selu(F.matmul(x, w)), (leaf(rng, (2, 3), dtype),), [w])


# op name -> builder(rng, dtype) returning the op's result; the leaves it makes
# carry the dtype, every other argument is a Python number or an integer array
OPS = {
    "add": lambda r, t: F.add(leaf(r, (2, 3, 4), t), leaf(r, (4,), t)),
    "mul": lambda r, t: F.mul(leaf(r, (2, 3, 4), t), leaf(r, (4,), t)),
    "matmul": lambda r, t: F.matmul(leaf(r, (2, 5), t), leaf(r, (5, 3), t)),
    "reshape": lambda r, t: F.reshape(leaf(r, (2, 6), t), (2, 3, 2)),
    "concat": lambda r, t: F.concat([leaf(r, (2, 3), t), leaf(r, (2, 2), t)], axis=-1),
    "leaky_relu": lambda r, t: F.leaky_relu(leaf(r, (2, 7), t)),
    "selu": lambda r, t: F.selu(leaf(r, (2, 7), t)),
    "sigmoid": lambda r, t: F.sigmoid(leaf(r, (2, 7), t)),
    "conv3d": lambda r, t: F.conv3d(leaf(r, (2, 4, 5, 3, 2), t), leaf(r, (3, 3, 3, 2, 3), t), 1),
    "avg_pool3d": lambda r, t: F.avg_pool3d(leaf(r, (2, 4, 4, 2, 3), t), 2),
    "upsample_nearest3d": lambda r, t: F.upsample_nearest3d(leaf(r, (2, 2, 1, 2, 3), t), 2),
    "adaptive_avg_pool3d": lambda r, t: F.adaptive_avg_pool3d(leaf(r, (2, 5, 7, 6, 2), t),
                                                              (2, 3, 4)),
    "pad_right3d": lambda r, t: F.pad_right3d(leaf(r, (2, 3, 2, 2, 2), t), (4, 4, 3)),
    "repeat_middle": lambda r, t: F.repeat_middle(leaf(r, (2, 3), t), 4),
    "slice_middle": lambda r, t: F.slice_middle(leaf(r, (2, 5, 3), t), 2),
    "batch_standardize": lambda r, t: F.batch_standardize(leaf(r, (2, 4, 3), t), 1e-5, (1, 2)),
    "bce_loss": lambda r, t: F.bce_loss(probs(r, (2, 6), t), r.random((2, 6)) > 0.5),
    "focal_loss": lambda r, t: F.focal_loss(probs(r, (2, 6), t),
                                            r.integers(0, 2, (2, 6), dtype=np.uint8)),
    "recompute": recomputed,
}
def recomputed_two_inputs(rng, dtype):
    w = leaf(rng, (3, 4), dtype)
    return F.recompute(lambda x, s: F.selu(F.mul(F.matmul(x, w), s)),
                       (leaf(rng, (2, 3), dtype), leaf(rng, (2, 1), dtype)), [w])


# the reference-point form of batch_standardize is its own branch, and so
# are recompute's hand-over of more than one input gradient and each operand
# an op adds into its product's buffer; a row named ``<op>_<operand>`` covers
# an optional operand (test_every_op_is_covered)
OPS_EXTRA = {
    "batch_standardize_ref": lambda r, t: F.batch_standardize(leaf(r, (2, 6, 3), t), 1e-5,
                                                              (1,), 3),
    "recompute_two_inputs": recomputed_two_inputs,
    "mul_c": lambda r, t: F.mul(leaf(r, (2, 3, 4), t), leaf(r, (4,), t), leaf(r, (2, 1, 4), t)),
    "matmul_bias": lambda r, t: F.matmul(leaf(r, (2, 5), t), leaf(r, (5, 3), t),
                                         leaf(r, (3,), t)),
    "matmul_residual": lambda r, t: F.matmul(leaf(r, (2, 5), t), leaf(r, (5, 3), t),
                                             leaf(r, (3,), t), leaf(r, (2, 3), t)),
    "conv3d_bias": lambda r, t: F.conv3d(leaf(r, (2, 4, 5, 3, 2), t),
                                         leaf(r, (3, 3, 3, 2, 3), t), 1, leaf(r, (3,), t)),
    # on 0-d operands numpy returns a scalar, not an array
    "add_0d": lambda r, t: F.add(leaf(r, (), t), leaf(r, (), t)),
    "mul_0d": lambda r, t: F.mul(leaf(r, (), t), leaf(r, (), t)),
}


@pytest.fixture
def dtypes_seen(monkeypatch):
    """Dtype of every op result and of every gradient handed to a node."""
    seen = []
    make_node, accumulate_grad = F.make_node, Tensor.accumulate_grad

    def recorded_node(out_data, parents, backward_fn):
        seen.append(("result", out_data.dtype))
        return make_node(out_data, parents, backward_fn)

    def recorded_grad(self, g, fresh=False):
        seen.append(("gradient", g.dtype))
        return accumulate_grad(self, g, fresh)

    monkeypatch.setattr(F, "make_node", recorded_node)
    monkeypatch.setattr(Tensor, "accumulate_grad", recorded_grad)
    return seen


def test_every_op_is_covered():
    """A new op in nn.functional gets a row in OPS, and a new optional
    operand of an op (an argument defaulting to None) a row in OPS_EXTRA."""
    not_ops = {"as_tensor", "elementwise_bce", "elementwise_focal"}
    public = {
        name for name, fn in vars(F).items()
        if callable(fn) and getattr(fn, "__module__", None) == F.__name__
        and not name.startswith("_") and name not in not_ops
    }
    assert public == set(OPS)
    optional = {
        f"{name}_{arg.name}" for name in public
        for arg in inspect.signature(getattr(F, name)).parameters.values() if arg.default is None
    }
    assert optional <= set(OPS_EXTRA)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op", sorted(OPS) + sorted(OPS_EXTRA))
def test_op_keeps_dtype(op, dtype, dtypes_seen):
    out = {**OPS, **OPS_EXTRA}[op](np.random.default_rng(0), dtype)
    backward_sum(out)
    kinds = {kind for kind, _ in dtypes_seen}
    assert kinds == {"result", "gradient"}
    wrong = [(kind, str(d)) for kind, d in dtypes_seen if d != dtype]
    assert not wrong, f"{op} leaves {np.dtype(dtype)}: {wrong}"


ONET_TINY = dict(encoder_blocks=2, decoder_blocks=2, base_channels=4, latent_dim=16,
                 decoder_hidden=8)
HILO_TINY = dict(window_size=8, levels=2, encoder_blocks=2, cnn_decoder_blocks=2,
                 onet_decoder_blocks=2, base_channels=2, decoder_hidden=8, batch_size=2)


def onet_loss(conditioning, dtype, rng):
    model = OnetModel(OnetConfig(conditioning=conditioning, **ONET_TINY), seed=0, dtype=dtype)
    # odd pooled extents make adaptive pooling's bins ragged
    vols = Tensor(rng.random((2, 12, 10, 6, 1)).astype(dtype))
    pred = model(vols, Tensor(rng.random((2, 5, 3)).astype(dtype)))
    return F.bce_loss(pred, rng.random((2, 5)) > 0.5)


def hilo_loss(decoder, dtype, rng):
    model = HiLoModel(HiLoConfig(decoder=decoder, **HILO_TINY), seed=0, dtype=dtype)
    levels = [Tensor(rng.random((2, 8, 8, 8, 1)).astype(dtype)) for _ in range(2)]
    if decoder == "cnn":
        return F.focal_loss(model.forward_batch(levels), rng.random((2, 8, 8, 8)) > 0.5)
    pred = model.forward_batch(levels, Tensor(rng.random((2, 5, 3)).astype(dtype)))
    return F.bce_loss(pred, rng.random((2, 5)) > 0.5)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("build, variant", [
    (onet_loss, "cbn"), (onet_loss, "concat"), (hilo_loss, "cnn"), (hilo_loss, "onet"),
])
def test_model_trains_in_its_dtype(build, variant, dtype, dtypes_seen):
    """Forward and backward of each model variant: every op result and every
    gradient is in the model's dtype."""
    backward_sum(build(variant, dtype, np.random.default_rng(1)))
    wrong = sorted({(kind, str(d)) for kind, d in dtypes_seen if d != dtype})
    assert len(dtypes_seen) > 100
    assert not wrong, f"{variant} model in {np.dtype(dtype)}: {wrong}"


def test_onet_encode_decode_keeps_float64():
    """A float64 occupancy model encodes to a float64 latent and decodes at
    float64 coordinates: nothing on the way is rounded to float32."""
    cfg = OnetConfig(input_downsample=2, **ONET_TINY)
    model = OnetModel(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(2)
    vol = VoxelVolume(rng.random((12, 10, 14)).astype(np.float32))
    latent = onet_encode(vol, cfg, model)
    assert latent.dtype == np.float64
    coords = np.stack([rng.integers(0, d, size=40) for d in vol.dims], axis=1)
    got = onet_decode(coords, latent, cfg, model, vol.dims)
    assert got.dtype == np.float64
    with no_grad():
        want = model.decoder(Tensor((coords / np.array(vol.dims, dtype=np.float64))[None]),
                             Tensor(latent[None])).data[0]
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dims", [(160, 104, 154), (320, 208, 308)])
def test_normalized_coords_round_to_the_float32_quotient(dims):
    """The float64 quotient cast to float32 is bit-equal to the float32
    division, so float32 models see the coordinates they always did."""
    for axis, d in enumerate(dims):
        coords = np.zeros((d, 3), dtype=np.int64)
        coords[:, axis] = np.arange(d)
        got = normalize_coords(coords, dims).astype(np.float32)
        want = coords.astype(np.float32) / np.asarray(dims, dtype=np.float32)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
