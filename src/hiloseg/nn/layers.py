"""Layers and parameter containers built on the functional ops.

A ``Module`` owns named parameters (trainable tensors), discovered by
walking attributes, including lists of submodules, so checkpointing gets
stable hierarchical names like ``encoders.1.blocks.0.conv1.w``. The one
normalization, ``Norm``, takes its statistics from one batch element alone,
so a module holds no other state and runs the same code in training and
inference.
"""

from __future__ import annotations

import numpy as np

from ..rng import make_rng
from . import functional as F
from .tensor import Tensor, hand_over, memory_meter, parameter


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Module:
    def _children(self):
        for name, value in vars(self).items():
            if isinstance(value, (Tensor, Module)):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, (Tensor, Module)):
                        yield f"{name}.{i}", item

    def named_parameters(self, prefix: str = ""):
        for name, value in self._children():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor):
                if value.requires_grad:
                    yield full, value
            else:
                yield from value.named_parameters(f"{full}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own_params = dict(self.named_parameters())
        missing = set(own_params) - set(state)
        extra = set(state) - set(own_params)
        if missing or extra:
            raise ValueError(
                f"state mismatch; missing {sorted(missing)[:4]}, unexpected {sorted(extra)[:4]}"
            )
        for name, p in own_params.items():
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = memory_meter.track(np.ascontiguousarray(arr))

    def eval(self) -> "Module":
        """Returns the module unchanged: training and inference run the same
        code. Kept only because the benchmark's set-up still calls it."""
        return self


class Dense(Module):
    def __init__(self, cin: int, cout: int, rng, dtype=np.float32, zero_init: bool = False,
                 bias: bool = True, bias_init: float = 0.0):
        rng = make_rng(rng)
        if zero_init:
            w = np.zeros((cin, cout), dtype=dtype)
        else:
            w = fan_in_uniform(rng, (cin, cout), cin, dtype)
        self.w = parameter(w)
        self.b = parameter(np.full(cout, bias_init, dtype=dtype)) if bias else None

    def __call__(self, x: Tensor, residual: Tensor | None = None) -> Tensor:
        return F.matmul(x, self.w, self.b, residual)


class Conv3d(Module):
    """Channels-last 3D convolution with cubic kernels."""

    def __init__(self, cin: int, cout: int, k: int = 3, rng=None, dtype=np.float32,
                 padding: int | None = None, zero_init: bool = False, bias: bool = True):
        rng = make_rng(rng)
        self.padding = (k // 2) if padding is None else padding  # default keeps the size
        if zero_init:
            w = np.zeros((k, k, k, cin, cout), dtype=dtype)
        else:
            w = fan_in_uniform(rng, (k, k, k, cin, cout), cin * k**3, dtype)
        self.w = parameter(w)
        self.b = parameter(np.zeros(cout, dtype=dtype)) if bias else None

    def __call__(self, x: Tensor, inplace: bool = False) -> Tensor:
        return F.conv3d(x, self.w, self.padding, self.b, inplace)


# The 27 cell centres of the unit cube's 3×3×3 grid, (27, 3) float64. A
# coordinate decoder appends them to every element's query points, scales its
# norms by their statistics, and drops them again before its head. 8 points
# cost validation IoU; 64 put the occupancy trainer's byte-meter peak 1.5%
# above batch norm's (each point is one more row of every decoder activation).
REFERENCE_POINTS = np.ascontiguousarray((np.indices((3, 3, 3)).reshape(3, -1).T + 0.5) / 3)
REFERENCE_POINTS.flags.writeable = False


class Norm(Module):
    """A normalization whose statistics come from one batch element alone,
    so no element's output or gradient depends on the others in its batch,
    followed by a per-channel affine.

    Without ``ref``, each element is standardized over its whole space and
    channels (group norm with one group, Wu & He 2018). An all-air window
    has variance 0, so each norm scales its backward gradient by
    1/sqrt(eps); eps is 1e-3 so a chain of them stays finite.

    With ``ref``, each channel of an element's (B, N, C) points is scaled by
    its root mean square over the element's last ``ref`` points, the
    reference points (eps 1e-5). A point's output then depends on itself and
    its element's reference points only, never on the other points queried
    with it. Nothing is subtracted, so a shift shared by all of an element's
    points (a concatenated latent, a stream bias) still reaches the output.
    The reference set follows virtual batch normalization (Salimans et al.
    2016).

    Without ``cond_dim``, the affine is a learnable ``gamma`` and ``beta``.
    With it, two small dense stacks (two layers, leaky ReLU after the first)
    map a (B, cond_dim) condition to one (gamma, beta) pair per element
    (``affine``). Their final layers start at zero weights with biases
    (1, 0), so a fresh conditional norm equals the unconditioned one.
    """

    def __init__(self, channels: int, ref: int | None = None, cond_dim: int | None = None,
                 rng=None, dtype=np.float32):
        self.ref = ref
        self.eps = 1e-3 if ref is None else 1e-5
        self.conditional = cond_dim is not None
        if not self.conditional:
            self.gamma = parameter(np.ones(channels, dtype=dtype))
            self.beta = parameter(np.zeros(channels, dtype=dtype))
            return
        rng = make_rng(rng)
        self.gamma_stack = [
            Dense(cond_dim, channels, rng, dtype),
            Dense(channels, channels, rng, dtype, zero_init=True, bias_init=1.0),
        ]
        self.beta_stack = [
            Dense(cond_dim, channels, rng, dtype),
            Dense(channels, channels, rng, dtype, zero_init=True, bias_init=0.0),
        ]

    def affine(self, cond: Tensor) -> tuple[Tensor, Tensor]:
        """A conditional norm's (gamma, beta) for each batch element, each
        (B, 1, C), to broadcast across the element's points."""
        gamma, beta = (s[1](F.leaky_relu(s[0](cond))) for s in (self.gamma_stack, self.beta_stack))
        shape = (gamma.data.shape[0], 1, gamma.data.shape[1])
        return F.reshape(gamma, shape), F.reshape(beta, shape)

    def scaled(self, x: Tensor, gamma: Tensor, beta: Tensor, inplace: bool = False) -> Tensor:
        """The standardized ``x`` times ``gamma`` plus ``beta``. The affine
        writes over the standardized array. ``inplace`` says the caller
        hands ``x`` over, a temporary it made: the standardization may
        write over it (``F._take`` says when), and either way ``x`` gives up
        its array once standardized (``hand_over``), with or without a
        tape, before the affine runs."""
        axes = tuple(range(1, x.data.ndim)) if self.ref is None else (1,)
        xhat = F.batch_standardize(x, self.eps, axes, self.ref, inplace)
        if inplace:
            hand_over(x)
        return F.mul(xhat, gamma, beta, inplace=True)

    def __call__(self, x: Tensor, cond: Tensor | None = None) -> Tensor:
        gamma, beta = self.affine(cond) if self.conditional else (self.gamma, self.beta)
        return self.scaled(x, gamma, beta)


class ResidualBlockFC(Module):
    """Pre-activation fully connected residual block: (norm, act, dense) x 2 + skip,
    the skip added into dense2's own buffer (``F.matmul``'s ``residual``).

    The norms are point norms on the last ``ref`` reference points,
    conditional when ``cond_dim`` is given. A call is ``condition``, which
    maps the condition to both norms' per-element affines, then ``points``,
    the per-point path, which reads those affines and ``point_parameters``.

    Without a tape, each op of ``points`` after norm1's standardization
    writes over the array the op before it made (``inplace=True``, the
    in-place rule of ``nn.functional``): norm1's affine and the first
    activation over norm1's output; norm2's standardization and affine and
    the second activation over dense1's output. The block input, the skip,
    is never handed over. So the path holds its input, norm1's output until
    dense1 has read it, and dense1's output, until dense2 adds the skip into
    an array of its own. Under a tape the ops allocate their results, and
    ``norm2.scaled`` is handed dense1's output (``inplace=True``), so that
    output gives up its array once standardized, before norm2's affine
    allocates, however the call was spelled.
    """

    def __init__(self, cin: int, cout: int, rng, ref: int, activation=F.leaky_relu,
                 cond_dim: int | None = None, dtype=np.float32):
        rng = make_rng(rng)
        self.activation = activation
        self.norm1 = Norm(cin, ref, cond_dim, rng, dtype)
        # no bias on dense1, as under batch norm, which cancels shifts
        self.dense1 = Dense(cin, cout, rng, dtype, bias=False)
        self.norm2 = Norm(cout, ref, cond_dim, rng, dtype)
        self.dense2 = Dense(cout, cout, rng, dtype)
        self.proj = Dense(cin, cout, rng, dtype, bias=False) if cin != cout else None

    def condition(self, cond: Tensor | None) -> tuple:
        """Both conditional norms' (gamma, beta) from ``cond``; () for norms
        with their own affine parameters."""
        if not self.norm1.conditional:
            return ()
        return (*self.norm1.affine(cond), *self.norm2.affine(cond))

    def point_parameters(self) -> list[Tensor]:
        """The parameters ``points`` reads: all but the conditional norms'."""
        parts = [self.dense1, self.dense2, self.proj]
        if not self.norm1.conditional:
            parts += [self.norm1, self.norm2]
        return [p for m in parts if m is not None for p in m.parameters()]

    def points(self, x: Tensor, *affine: Tensor) -> Tensor:
        """The block on (B, N, C) points, given ``condition``'s tensors."""
        n1, n2 = self.norm1, self.norm2
        g1, b1, g2, b2 = affine or (n1.gamma, n1.beta, n2.gamma, n2.beta)
        act = self.activation
        h = act(n2.scaled(self.dense1(act(n1.scaled(x, g1, b1), inplace=True)), g2, b2,
                          inplace=True), inplace=True)
        return self.dense2(h, self.proj(x) if self.proj is not None else x)

    def __call__(self, x: Tensor, cond: Tensor | None = None) -> Tensor:
        return self.points(x, *self.condition(cond))


class ResidualBlockConv3d(Module):
    """Pre-activation convolutional residual block with 3x3x3 kernels, each
    batch element normalized on its own (``Norm`` without ``ref``).

    Without a tape, each op after norm1's standardization writes over the
    array the op before it made (``inplace=True``, the in-place rule of
    ``nn.functional``): norm1's affine, both activations, norm2's
    standardization and affine, conv1 and conv2 where their result has
    their input's shape (Cin = Cout), and the residual sum, over conv2's
    output. The block input, the skip, is never handed over, so a block
    with Cin = Cout holds its input and one working buffer, next to one
    chunk of a convolution's padded planes and its saved input plane. Under
    a tape the ops allocate their results, and conv1's output is handed to
    ``norm2.scaled``, as in ``ResidualBlockFC``, so it gives up its array
    once standardized, before norm2's affine allocates.
    """

    def __init__(self, cin: int, cout: int, rng, activation=F.selu, dtype=np.float32):
        rng = make_rng(rng)
        self.activation = activation
        self.norm1 = Norm(cin, dtype=dtype)
        # no bias on conv1, as under batch norm (the element norm cancels only a shared shift)
        self.conv1 = Conv3d(cin, cout, 3, rng, dtype, bias=False)
        self.norm2 = Norm(cout, dtype=dtype)
        self.conv2 = Conv3d(cout, cout, 3, rng, dtype)
        self.proj = Conv3d(cin, cout, 1, rng, dtype, bias=False) if cin != cout else None

    def __call__(self, x: Tensor) -> Tensor:
        n1, n2 = self.norm1, self.norm2
        act = self.activation
        h = act(n2.scaled(self.conv1(act(n1(x), inplace=True), inplace=True), n2.gamma, n2.beta,
                          inplace=True), inplace=True)
        h = self.conv2(h, inplace=True)
        skip = self.proj(x) if self.proj is not None else x
        return F.add(skip, h, inplace=True)
