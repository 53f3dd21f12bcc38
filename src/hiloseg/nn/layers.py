"""Layers and parameter containers built on the functional ops.

A ``Module`` owns named parameters (trainable tensors), discovered by
walking attributes, including lists of submodules, so checkpointing gets
stable hierarchical names like ``encoders.1.blocks.0.conv1.w``. Every norm
takes its statistics from one batch element alone, so a module holds no
other state and runs the same code in training and inference.
"""

from __future__ import annotations

import numpy as np

from ..rng import make_rng
from . import functional as F
from .tensor import Tensor, memory_meter, parameter


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

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

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

    def __call__(self, x: Tensor) -> Tensor:
        return F.matmul(x, self.w, self.b)


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

    def __call__(self, x: Tensor) -> Tensor:
        return F.conv3d(x, self.w, self.padding, self.b)


class _OwnStats(Module):
    """Statistics of each batch element alone, over its whole space and
    channels (group norm with one group), so no element's output or gradient
    depends on the others in its batch.
    """

    def __init__(self, eps: float):
        self.eps = eps

    def _standardize(self, x: Tensor) -> Tensor:
        return F.batch_standardize(x, self.eps, tuple(range(1, x.data.ndim)))


class _ReferenceStats(Module):
    """Each channel of a batch element's (B, N, C) points scaled by its root
    mean square over the element's reference points, the last ``ref``.

    A point's output depends on itself and its element's fixed reference
    points only: never on the rest of the batch, nor on the other points
    queried with it. Nothing is subtracted, so a shift shared by all of an
    element's points (a concatenated latent, a stream bias) still reaches
    the output. The reference set follows virtual batch normalization
    (Salimans et al. 2016).
    """

    def __init__(self, eps: float, ref: int):
        self.eps = eps
        self.ref = ref

    def _standardize(self, x: Tensor) -> Tensor:
        return F.batch_standardize(x, self.eps, (1,), self.ref)


class _AffineNorm(Module):
    """The subclass's standardizer followed by an affine."""

    def scaled(self, x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
        """The standardized ``x`` times ``gamma`` plus ``beta``. ``x`` is
        rebound once standardized, so an input handed over by a plain method
        call with no star-arguments (``norm.scaled(t, gamma, beta)``) dies
        there; an instance call or a star-call keeps it until it returns."""
        x = self._standardize(x)
        return F.mul(x, gamma, beta)


class _ChannelAffine(_AffineNorm):
    """A learnable per-channel affine after the subclass's standardizer."""

    def _init_affine(self, channels: int, dtype) -> None:
        self.gamma = parameter(np.ones(channels, dtype=dtype))
        self.beta = parameter(np.zeros(channels, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return self.scaled(x, self.gamma, self.beta)


class _ConditionalAffine(_AffineNorm):
    """An affine computed from a conditioning vector after the subclass's
    standardizer.

    Two small dense stacks (two layers, leaky ReLU after the first) map the
    condition to per-channel gamma and beta, one pair per batch element. The
    final layers start at zero weights with biases (1, 0), so a fresh network
    behaves exactly like its unconditioned norm with a unit affine.
    """

    def _init_affine(self, channels: int, cond_dim: int, rng, hidden: int | None, dtype) -> None:
        rng = make_rng(rng)
        hidden = hidden or channels
        self.gamma_stack = [
            Dense(cond_dim, hidden, rng, dtype),
            Dense(hidden, channels, rng, dtype, zero_init=True, bias_init=1.0),
        ]
        self.beta_stack = [
            Dense(cond_dim, hidden, rng, dtype),
            Dense(hidden, channels, rng, dtype, zero_init=True, bias_init=0.0),
        ]

    def _affine_from(self, cond: Tensor, stack) -> Tensor:
        h = F.leaky_relu(stack[0](cond))
        return stack[1](h)

    def affine(self, cond: Tensor) -> tuple[Tensor, Tensor]:
        """The (gamma, beta) pair of each batch element, each (B, 1, C), to
        broadcast across the element's points."""
        gamma = self._affine_from(cond, self.gamma_stack)  # (B, C)
        beta = self._affine_from(cond, self.beta_stack)
        shape = (gamma.data.shape[0], 1, gamma.data.shape[1])
        return F.reshape(gamma, shape), F.reshape(beta, shape)

    def __call__(self, x: Tensor, cond: Tensor) -> Tensor:
        return self.scaled(x, *self.affine(cond))


class ElementNorm(_ChannelAffine, _OwnStats):
    """Each batch element standardized over its own space and channels, with
    a per-channel affine: the conv blocks' normalization.

    An all-air window has variance 0, so each norm scales its backward
    gradient by 1/sqrt(eps); eps is 1e-3 so a chain of them stays finite.
    """

    def __init__(self, channels: int, eps: float = 1e-3, dtype=np.float32):
        _OwnStats.__init__(self, eps)
        self._init_affine(channels, dtype)


class PointNorm(_ChannelAffine, _ReferenceStats):
    """Points scaled per channel by their element's reference points, with a
    per-channel affine: the coordinate decoders' normalization."""

    def __init__(self, channels: int, ref: int, eps: float = 1e-5, dtype=np.float32):
        _ReferenceStats.__init__(self, eps, ref)
        self._init_affine(channels, dtype)


class ConditionalPointNorm(_ConditionalAffine, _ReferenceStats):
    """Reference-point scaling whose affine comes from a conditioning vector."""

    def __init__(self, channels: int, cond_dim: int, rng, ref: int, hidden: int | None = None,
                 eps: float = 1e-5, dtype=np.float32):
        _ReferenceStats.__init__(self, eps, ref)
        self._init_affine(channels, cond_dim, rng, hidden, dtype)


class ReferencePoints:
    """A fixed lattice of the ``side**3`` cell centres of the unit cube.

    A coordinate decoder appends it to every element's query points, scales
    its per-point norms by the statistics of these points, and drops them
    again before its head.
    """

    # 27 points: 8 cost validation IoU, 64 put the occupancy trainer's
    # byte-meter peak 1.5% above batch norm's (each point is one more row
    # of every decoder activation)
    side = 3

    def __init__(self, dtype=np.float32):
        g = (np.arange(self.side) + 0.5) / self.side
        grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1)
        self.points = grid.reshape(-1, 3).astype(dtype)

    def __len__(self) -> int:
        return len(self.points)

    def append(self, coords01: Tensor) -> Tensor:
        """(B, N, 3) queries to (B, N + len(self), 3)."""
        b = coords01.data.shape[0]
        return F.concat([coords01, Tensor(np.broadcast_to(self.points, (b,) + self.points.shape))],
                        axis=1)


class ResidualBlockFC(Module):
    """Pre-activation fully connected residual block: (norm, act, dense) x 2 + skip.

    The norms are point norms on the last ``ref`` reference points,
    conditional when ``cond_dim`` is given. A call is ``condition``, which
    maps the condition to both norms' per-element affines, then ``points``,
    the per-point path, which reads those affines and ``point_parameters``.

    dense1's output is handed to ``norm2.scaled`` as a temporary, with no
    local holding it, so without a tape it dies once standardized, before
    norm2's affine allocates. The hand-over is a plain method call with its
    arguments spelled out: CPython 3.11 and later move those into the
    callee's frame, where an instance call (``norm2(t)``) or a star-call
    (``scaled(t, *pair)``) keeps them in an argument tuple until it returns.
    """

    def __init__(self, cin: int, cout: int, rng, ref: int, activation=F.leaky_relu,
                 cond_dim: int | None = None, dtype=np.float32):
        rng = make_rng(rng)
        self.activation = activation
        if cond_dim:
            norm, cond_args = ConditionalPointNorm, (cond_dim, rng)
        else:
            norm, cond_args = PointNorm, ()
        self.norm1 = norm(cin, *cond_args, ref=ref, dtype=dtype)
        # no bias on dense1, as under batch norm, which cancels shifts
        self.dense1 = Dense(cin, cout, rng, dtype, bias=False)
        self.norm2 = norm(cout, *cond_args, ref=ref, dtype=dtype)
        self.dense2 = Dense(cout, cout, rng, dtype)
        self.proj = Dense(cin, cout, rng, dtype, bias=False) if cin != cout else None

    def condition(self, cond: Tensor | None) -> tuple:
        """Both conditional norms' (gamma, beta) from ``cond``; () for norms
        with their own affine parameters."""
        if not isinstance(self.norm1, _ConditionalAffine):
            return ()
        return (*self.norm1.affine(cond), *self.norm2.affine(cond))

    def point_parameters(self) -> list[Tensor]:
        """The parameters ``points`` reads: all but the conditional norms'."""
        parts = [self.dense1, self.dense2, self.proj]
        if not isinstance(self.norm1, _ConditionalAffine):
            parts += [self.norm1, self.norm2]
        return [p for m in parts if m is not None for p in m.parameters()]

    def points(self, x: Tensor, *affine: Tensor) -> Tensor:
        """The block on (B, N, C) points, given ``condition``'s tensors."""
        n1, n2 = self.norm1, self.norm2
        g1, b1, g2, b2 = affine or (n1.gamma, n1.beta, n2.gamma, n2.beta)
        h = self.activation(n2.scaled(self.dense1(self.activation(n1.scaled(x, g1, b1))), g2, b2))
        h = self.dense2(h)
        skip = self.proj(x) if self.proj is not None else x
        return F.add(skip, h)

    def __call__(self, x: Tensor, cond: Tensor | None = None) -> Tensor:
        return self.points(x, *self.condition(cond))


class ResidualBlockConv3d(Module):
    """Pre-activation convolutional residual block with 3x3x3 kernels, each
    batch element normalized on its own (``ElementNorm``).

    conv1's output is handed to ``norm2.scaled`` by a plain method call, as
    in ``ResidualBlockFC``, so without a tape it dies once standardized,
    before norm2's affine allocates.
    """

    def __init__(self, cin: int, cout: int, rng, activation=F.selu, dtype=np.float32):
        rng = make_rng(rng)
        self.activation = activation
        self.norm1 = ElementNorm(cin, dtype=dtype)
        # no bias on conv1, as under batch norm (the element norm cancels only a shared shift)
        self.conv1 = Conv3d(cin, cout, 3, rng, dtype, bias=False)
        self.norm2 = ElementNorm(cout, dtype=dtype)
        self.conv2 = Conv3d(cout, cout, 3, rng, dtype)
        self.proj = Conv3d(cin, cout, 1, rng, dtype, bias=False) if cin != cout else None

    def __call__(self, x: Tensor) -> Tensor:
        n1, n2 = self.norm1, self.norm2
        h = self.activation(n2.scaled(self.conv1(self.activation(n1(x))), n2.gamma, n2.beta))
        h = self.conv2(h)
        skip = self.proj(x) if self.proj is not None else x
        return F.add(skip, h)
