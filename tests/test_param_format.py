"""The parameter format: the ``state_dict()`` names and shapes of tiny
models of each family and variant, and a SHA-256 of their seed-0 weights.

Names and shapes are the checkpoint format, so a change to them breaks every
saved checkpoint. The weights pin the initialization's draw order, so a
layer that draws in another order fails here rather than in a manual diff of
trained states.
"""

import hashlib

import numpy as np
import pytest

from hiloseg.models import HiLoConfig, HiLoModel, OnetConfig, OnetModel

HILO = dict(window_size=8, levels=1, encoder_blocks=1, cnn_decoder_blocks=1,
            onet_decoder_blocks=1, base_channels=2, decoder_hidden=4)
ONET = dict(encoder_blocks=1, decoder_blocks=1, base_channels=2, latent_dim=4, decoder_hidden=4)

MODELS = {
    "hilo-cnn": lambda: HiLoModel(HiLoConfig(decoder="cnn", **HILO), seed=0),
    "hilo-onet": lambda: HiLoModel(HiLoConfig(decoder="onet", **HILO), seed=0),
    "onet-cbn": lambda: OnetModel(OnetConfig(conditioning="cbn", **ONET), seed=0),
    "onet-concat": lambda: OnetModel(OnetConfig(conditioning="concat", **ONET), seed=0),
}

# model -> its state_dict() as "name shape" lines, in order
FORMAT = {
    "hilo-cnn": """
encoders.0.stem.w (3, 3, 3, 1, 2)
encoders.0.blocks.0.norm1.gamma (2,)
encoders.0.blocks.0.norm1.beta (2,)
encoders.0.blocks.0.conv1.w (3, 3, 3, 2, 2)
encoders.0.blocks.0.norm2.gamma (2,)
encoders.0.blocks.0.norm2.beta (2,)
encoders.0.blocks.0.conv2.w (3, 3, 3, 2, 2)
encoders.0.blocks.0.conv2.b (2,)
decoder.blocks.0.norm1.gamma (2,)
decoder.blocks.0.norm1.beta (2,)
decoder.blocks.0.conv1.w (3, 3, 3, 2, 2)
decoder.blocks.0.norm2.gamma (2,)
decoder.blocks.0.norm2.beta (2,)
decoder.blocks.0.conv2.w (3, 3, 3, 2, 2)
decoder.blocks.0.conv2.b (2,)
decoder.final_norm.gamma (2,)
decoder.final_norm.beta (2,)
decoder.head.w (3, 3, 3, 2, 1)
decoder.head.b (1,)
""",
    "hilo-onet": """
encoders.0.stem.w (3, 3, 3, 1, 2)
encoders.0.blocks.0.norm1.gamma (2,)
encoders.0.blocks.0.norm1.beta (2,)
encoders.0.blocks.0.conv1.w (3, 3, 3, 2, 2)
encoders.0.blocks.0.norm2.gamma (2,)
encoders.0.blocks.0.norm2.beta (2,)
encoders.0.blocks.0.conv2.w (3, 3, 3, 2, 2)
encoders.0.blocks.0.conv2.b (2,)
decoder.input.w (131, 4)
decoder.input.b (4,)
decoder.blocks.0.norm1.gamma (4,)
decoder.blocks.0.norm1.beta (4,)
decoder.blocks.0.dense1.w (4, 4)
decoder.blocks.0.norm2.gamma (4,)
decoder.blocks.0.norm2.beta (4,)
decoder.blocks.0.dense2.w (4, 4)
decoder.blocks.0.dense2.b (4,)
decoder.final_norm.gamma (4,)
decoder.final_norm.beta (4,)
decoder.head.w (4, 1)
decoder.head.b (1,)
""",
    "onet-cbn": """
encoder.stem.w (3, 3, 3, 1, 2)
encoder.blocks.0.norm1.gamma (2,)
encoder.blocks.0.norm1.beta (2,)
encoder.blocks.0.conv1.w (3, 3, 3, 2, 2)
encoder.blocks.0.norm2.gamma (2,)
encoder.blocks.0.norm2.beta (2,)
encoder.blocks.0.conv2.w (3, 3, 3, 2, 2)
encoder.blocks.0.conv2.b (2,)
encoder.final_norm.gamma (2,)
encoder.final_norm.beta (2,)
encoder.head.w (128, 4)
encoder.head.b (4,)
decoder.input.w (3, 4)
decoder.input.b (4,)
decoder.blocks.0.norm1.gamma_stack.0.w (4, 4)
decoder.blocks.0.norm1.gamma_stack.0.b (4,)
decoder.blocks.0.norm1.gamma_stack.1.w (4, 4)
decoder.blocks.0.norm1.gamma_stack.1.b (4,)
decoder.blocks.0.norm1.beta_stack.0.w (4, 4)
decoder.blocks.0.norm1.beta_stack.0.b (4,)
decoder.blocks.0.norm1.beta_stack.1.w (4, 4)
decoder.blocks.0.norm1.beta_stack.1.b (4,)
decoder.blocks.0.dense1.w (4, 4)
decoder.blocks.0.norm2.gamma_stack.0.w (4, 4)
decoder.blocks.0.norm2.gamma_stack.0.b (4,)
decoder.blocks.0.norm2.gamma_stack.1.w (4, 4)
decoder.blocks.0.norm2.gamma_stack.1.b (4,)
decoder.blocks.0.norm2.beta_stack.0.w (4, 4)
decoder.blocks.0.norm2.beta_stack.0.b (4,)
decoder.blocks.0.norm2.beta_stack.1.w (4, 4)
decoder.blocks.0.norm2.beta_stack.1.b (4,)
decoder.blocks.0.dense2.w (4, 4)
decoder.blocks.0.dense2.b (4,)
decoder.final_norm.gamma_stack.0.w (4, 4)
decoder.final_norm.gamma_stack.0.b (4,)
decoder.final_norm.gamma_stack.1.w (4, 4)
decoder.final_norm.gamma_stack.1.b (4,)
decoder.final_norm.beta_stack.0.w (4, 4)
decoder.final_norm.beta_stack.0.b (4,)
decoder.final_norm.beta_stack.1.w (4, 4)
decoder.final_norm.beta_stack.1.b (4,)
decoder.head.w (4, 1)
decoder.head.b (1,)
""",
    "onet-concat": """
encoder.stem.w (3, 3, 3, 1, 2)
encoder.blocks.0.norm1.gamma (2,)
encoder.blocks.0.norm1.beta (2,)
encoder.blocks.0.conv1.w (3, 3, 3, 2, 2)
encoder.blocks.0.norm2.gamma (2,)
encoder.blocks.0.norm2.beta (2,)
encoder.blocks.0.conv2.w (3, 3, 3, 2, 2)
encoder.blocks.0.conv2.b (2,)
encoder.final_norm.gamma (2,)
encoder.final_norm.beta (2,)
encoder.head.w (128, 4)
encoder.head.b (4,)
decoder.input.w (7, 4)
decoder.input.b (4,)
decoder.blocks.0.norm1.gamma (4,)
decoder.blocks.0.norm1.beta (4,)
decoder.blocks.0.dense1.w (4, 4)
decoder.blocks.0.norm2.gamma (4,)
decoder.blocks.0.norm2.beta (4,)
decoder.blocks.0.dense2.w (4, 4)
decoder.blocks.0.dense2.b (4,)
decoder.final_norm.gamma (4,)
decoder.final_norm.beta (4,)
decoder.head.w (4, 1)
decoder.head.b (1,)
""",
}

# model -> SHA-256 over each parameter's name and float32 bytes, in order
WEIGHTS_SHA256 = {
    "hilo-cnn": "1fed537f1ebf0138de5d80c4ffec8e72015d8bdb84851c85493c1a473eb193ef",
    "hilo-onet": "4cbc2386739f477c5d250c0d232732ab6df5034468c8423cc670bccb21b9e9c5",
    "onet-cbn": "de639ac594a699c540524df8c13062f35b0213838b05da1857515e0388941ba0",
    "onet-concat": "1f2dd2a7a7a8db69308ad365348affa7a0ef3f52717c7e682ce24565848db1f7",
}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_state_dict_names_and_shapes(kind):
    state = MODELS[kind]().state_dict()
    got = [f"{name} {tuple(arr.shape)}" for name, arr in state.items()]
    assert got == FORMAT[kind].strip().splitlines()


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_seed_0_weights(kind):
    h = hashlib.sha256()
    for name, arr in MODELS[kind]().state_dict().items():
        assert arr.dtype == np.float32
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == WEIGHTS_SHA256[kind]
