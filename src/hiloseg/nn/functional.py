"""Differentiable ops. Conv tensors are channels-last: (B, D, H, W, C).

Each op computes its forward result with numpy and records a closure that
pushes vector-Jacobian products into its parents. conv3d builds im2col
buffers in bounded chunks and recomputes them during backward, so scratch
memory stays capped regardless of batch or window size.

conv3d fixes the bits of its results, not only their values: exact
micro-batching of the trainers rests on them (a 1e-7 change in a gradient
can grow to 1e-3 in a weight within a few Adam steps).

- The im2col matrix stays C-contiguous (rows, k³·Cin), used as
  ``col @ w2d`` and ``col.T @ gb``. OpenBLAS rounds some of these products
  differently when only the operands' storage order changes.
- The input gradient is summed into a channels-first padded buffer, so each
  kernel offset adds a contiguous (Cin, planes, oh, ow) block in runs of
  ``ow`` floats rather than ``Cin``. Every entry still receives its terms
  item by item, chunk by chunk and offset by offset in (dz, dy, dx) order;
  changing that order changes the rounding. Stride > 1 takes the same path
  through strided slices.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, make_node, memory_meter

# Upper bound on transient im2col scratch per chunk.
CONV_SCRATCH_BYTES = 4 << 20

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805

PROB_CLAMP = 1e-7


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype or np.float32))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b) -> Tensor:
    b = as_tensor(b, dtype=a.dtype)
    out = a.data + b.data

    def bw(g):
        if a.requires_grad or a._parents:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad or b._parents:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return make_node(out, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    b = as_tensor(b, dtype=a.dtype)
    out = a.data * b.data

    def bw(g):
        if a.requires_grad or a._parents:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad or b._parents:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    return make_node(out, (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s

    def bw(g):
        a.accumulate_grad(g * s)

    return make_node(out, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with a of shape (..., K) stacks and b a (K, M) matrix."""
    out = a.data @ b.data

    def bw(g):
        if a.requires_grad or a._parents:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad or b._parents:
            k = a.data.shape[-1]
            m = g.shape[-1]
            b.accumulate_grad(a.data.reshape(-1, k).T @ g.reshape(-1, m))

    return make_node(out, (a, b), bw)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def bw(g):
        a.accumulate_grad(g.reshape(a.data.shape))

    return make_node(out, (a,), bw)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            if t.requires_grad or t._parents:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate_grad(np.ascontiguousarray(g[tuple(idx)]))

    return make_node(out, tuple(tensors), bw)


def mean_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.mean(), dtype=a.dtype)

    def bw(g):
        a.accumulate_grad(np.full(a.data.shape, float(g) / a.data.size, dtype=a.dtype))

    return make_node(out, (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum(), dtype=a.dtype)

    def bw(g):
        a.accumulate_grad(np.full(a.data.shape, float(g), dtype=a.dtype))

    return make_node(out, (a,), bw)


# ---------------------------------------------------------------------------
# activations


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    # For 0 < slope <= 1 the maximum equals where(x > 0, x, x * slope) bit for
    # bit, signed zeros, infinities and NaN included; at slope 0, inf * 0 is NaN.
    if not 0 < slope <= 1:
        raise ValueError(f"leaky_relu slope must be in (0, 1], got {slope}")
    out = np.maximum(x.data, x.data * slope)

    def bw(g):
        x.accumulate_grad(np.where(x.data > 0, g, g * slope))

    return make_node(out, (x,), bw)


def selu(x: Tensor) -> Tensor:
    pos = x.data > 0
    neg = SELU_LAMBDA * SELU_ALPHA * np.expm1(np.minimum(x.data, 0.0))
    out = np.where(pos, SELU_LAMBDA * x.data, neg)

    def bw(g):
        # on the negative branch d/dx = lambda*alpha*e^x = out + lambda*alpha
        x.accumulate_grad(np.where(pos, g * SELU_LAMBDA, g * (neg + SELU_LAMBDA * SELU_ALPHA)))

    return make_node(out, (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    out = np.empty_like(x.data)
    pos = x.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bw(g):
        x.accumulate_grad(g * out * (1.0 - out))

    return make_node(out, (x,), bw)


# ---------------------------------------------------------------------------
# convolution and resampling


def conv3d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """3D cross-correlation. x: (B, D, H, W, Cin); w: (k, k, k, Cin, Cout)."""
    if x.data.ndim != 5 or w.data.ndim != 5:
        raise ValueError("conv3d expects a 5-d input and a 5-d kernel")
    k = w.data.shape[0]
    if w.data.shape[:3] != (k, k, k) or w.data.shape[3] != x.data.shape[4]:
        raise ValueError(
            f"kernel shape {w.data.shape} incompatible with input shape {x.data.shape}"
        )
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    b, d, h, wd, cin = x.data.shape
    cout = w.data.shape[4]
    od = (d + 2 * padding - k) // stride + 1
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    if min(od, oh, ow) < 1:
        raise ValueError("kernel larger than padded input")

    if k == 1 and stride == 1 and padding == 0:
        return matmul(x, reshape(w, (cin, cout)))

    w2d = w.data.reshape(k * k * k * cin, cout)
    rows_per_item = od * oh * ow
    cap = max(1, CONV_SCRATCH_BYTES // (k * k * k * cin * x.data.itemsize))
    d_step = max(1, min(od, cap // max(1, oh * ow)))
    p = padding
    padded = (d + 2 * p, h + 2 * p, wd + 2 * p)
    inner = (slice(p, p + d), slice(p, p + h), slice(p, p + wd))

    def _windows():
        # one strided view of every window: (B, od, oh, ow, Cin, k, k, k)
        if p == 0:
            xp = x.data
        else:
            xp = memory_meter.track(np.zeros((b, *padded, cin), dtype=x.data.dtype))
            xp[(slice(None), *inner)] = x.data
        v = sliding_window_view(xp, (k, k, k), axis=(1, 2, 3))
        return v[:, ::stride, ::stride, ::stride]

    def _col(win, bi, d0, d1):
        # im2col rows for output planes [d0, d1) of item bi, C-contiguous
        # (rows, k³·Cin): see the module docstring for why this layout stays
        n = (d1 - d0) * oh * ow
        col = win[bi, d0:d1].transpose(0, 1, 2, 4, 5, 6, 3).reshape(n, k * k * k * cin)
        return memory_meter.track(col)

    win = _windows()
    out = memory_meter.track(np.empty((b, od, oh, ow, cout), dtype=x.data.dtype))
    for bi in range(b):
        for d0 in range(0, od, d_step):
            d1 = min(d0 + d_step, od)
            block = _col(win, bi, d0, d1) @ w2d
            out[bi, d0:d1] = block.reshape(d1 - d0, oh, ow, cout)
    del win

    def bw(g):
        g2 = g.reshape(b, rows_per_item, cout)
        need_dx = x.requires_grad or x._parents
        need_dw = w.requires_grad or w._parents
        win = _windows() if need_dw else None
        dw2d = np.zeros_like(w2d) if need_dw else None
        dxp = None
        if need_dx:
            # channels-first: offsets add runs of ow floats, not Cin
            dxp = memory_meter.track(np.zeros((b, cin, *padded), dtype=x.data.dtype))
        for bi in range(b):
            for d0 in range(0, od, d_step):
                d1 = min(d0 + d_step, od)
                rows = slice(d0 * oh * ow, d1 * oh * ow)
                gb = g2[bi, rows]
                if need_dw:
                    dw2d += _col(win, bi, d0, d1).T @ gb
                if need_dx:
                    # (dz, dy, dx, Cin, planes, oh, ow): one contiguous block
                    # per kernel offset, added in the fixed order the module
                    # docstring gives
                    dcol = memory_meter.track(w2d @ gb.T).reshape(k, k, k, cin, d1 - d0, oh, ow)
                    for dz in range(k):
                        z0 = dz + d0 * stride
                        for dy in range(k):
                            for dx in range(k):
                                dxp[
                                    bi,
                                    :,
                                    z0 : z0 + (d1 - d0) * stride : stride,
                                    dy : dy + oh * stride : stride,
                                    dx : dx + ow * stride : stride,
                                ] += dcol[dz, dy, dx]
        if need_dw:
            w.accumulate_grad(dw2d.reshape(w.data.shape))
        if need_dx:
            crop = dxp[(slice(None), slice(None), *inner)]
            x.accumulate_grad(np.ascontiguousarray(crop.transpose(0, 2, 3, 4, 1)))

    return make_node(out, (x, w), bw)


def avg_pool3d(x: Tensor, factor: int) -> Tensor:
    """Non-overlapping mean pooling over the three spatial axes."""
    if factor < 1:
        raise ValueError(f"pooling factor must be >= 1, got {factor}")
    if factor == 1:
        return x
    b, d, h, w, c = x.data.shape
    if d % factor or h % factor or w % factor:
        raise ValueError(f"spatial dims {(d, h, w)} not divisible by factor {factor}")
    f = factor
    od, oh, ow = d // f, h // f, w // f
    out = x.data.reshape(b, od, f, oh, f, ow, f, c).mean(axis=(2, 4, 6))

    def bw(g):
        gb = np.broadcast_to(
            g[:, :, None, :, None, :, None, :] / f**3, (b, od, f, oh, f, ow, f, c)
        )
        x.accumulate_grad(gb.reshape(b, d, h, w, c))

    return make_node(out, (x,), bw)


def upsample_nearest3d(x: Tensor, factor: int) -> Tensor:
    """Repeat every voxel ``factor`` times along each spatial axis."""
    if factor < 1:
        raise ValueError(f"upsampling factor must be >= 1, got {factor}")
    if factor == 1:
        return x
    b, d, h, w, c = x.data.shape
    f = factor
    out = np.broadcast_to(
        x.data[:, :, None, :, None, :, None, :], (b, d, f, h, f, w, f, c)
    ).reshape(b, d * f, h * f, w * f, c)

    def bw(g):
        x.accumulate_grad(g.reshape(b, d, f, h, f, w, f, c).sum(axis=(2, 4, 6)))

    return make_node(out, (x,), bw)


def _adaptive_bins(n: int, m: int):
    idx = np.arange(m + 1)
    edges = (idx * n) // m
    starts = edges[:-1]
    widths = np.diff(edges)
    if (widths < 1).any():
        raise ValueError(f"adaptive pooling target {m} exceeds input extent {n}")
    return starts, widths


def adaptive_avg_pool3d(x: Tensor, target: tuple[int, int, int]) -> Tensor:
    """Average-pool onto a fixed spatial grid with near-uniform integer bins."""
    b, d, h, w, c = x.data.shape
    plan = [_adaptive_bins(n, m) for n, m in zip((d, h, w), target)]
    out = x.data
    for axis, (starts, widths) in enumerate(plan, start=1):
        out = np.add.reduceat(out, starts, axis=axis)
        shape = [1] * out.ndim
        shape[axis] = len(widths)
        out = out / widths.reshape(shape)

    def bw(g):
        for axis, (starts, widths) in reversed(list(enumerate(plan, start=1))):
            shape = [1] * g.ndim
            shape[axis] = len(widths)
            g = np.repeat(g / widths.reshape(shape), widths, axis=axis)
        x.accumulate_grad(np.ascontiguousarray(g))

    return make_node(np.ascontiguousarray(out), (x,), bw)


def pad_right3d(x: Tensor, target: tuple[int, int, int]) -> Tensor:
    """Zero-pad the spatial axes of a (B, D, H, W, C) tensor up to ``target``."""
    b, d, h, w, c = x.data.shape
    td, th, tw = target
    if (td, th, tw) == (d, h, w):
        return x
    if td < d or th < h or tw < w:
        raise ValueError(f"target {target} smaller than input {(d, h, w)}")
    out = np.zeros((b, td, th, tw, c), dtype=x.data.dtype)
    out[:, :d, :h, :w, :] = x.data

    def bw(g):
        x.accumulate_grad(np.ascontiguousarray(g[:, :d, :h, :w, :]))

    return make_node(out, (x,), bw)


def repeat_middle(x: Tensor, n: int) -> Tensor:
    """Repeat a (B, C) tensor into (B, n, C), one copy per middle slot."""
    if n < 1:
        raise ValueError(f"repeat count must be >= 1, got {n}")
    b, c = x.data.shape
    out = np.ascontiguousarray(np.broadcast_to(x.data[:, None, :], (b, n, c)))

    def bw(g):
        x.accumulate_grad(g.sum(axis=1))

    return make_node(out, (x,), bw)


def slice_middle(x: Tensor, stop: int) -> Tensor:
    """The first ``stop`` entries of axis 1 of (B, N, C)."""

    def bw(g):
        full = np.zeros_like(x.data)
        full[:, :stop] = g
        x.accumulate_grad(full)

    return make_node(np.ascontiguousarray(x.data[:, :stop]), (x,), bw)


# ---------------------------------------------------------------------------
# normalization


def batch_standardize(x: Tensor, eps: float, axes: tuple[int, ...], ref: int | None = None):
    """Standardize over ``axes`` (non-negative): subtract the mean and divide
    by the root of the biased variance plus ``eps``.

    With ``ref``, every entry is instead scaled by the root mean square of
    the last ``ref`` entries of axis 1 (``axes`` must include axis 1), and
    nothing is subtracted: the other entries neither move these statistics
    nor depend on each other, and a shift shared by all entries (such as a
    condition concatenated onto each point) survives.
    """
    if ref is None:
        mean = x.data.mean(axis=axes, keepdims=True)
        var = x.data.var(axis=axes, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - mean) * inv
    else:
        src = x.data[:, -ref:]
        var = (src * src).mean(axis=axes, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = x.data * inv

    def bw(g):
        if ref is None:
            gm = g.mean(axis=axes, keepdims=True)
            gx = (g * xhat).mean(axis=axes, keepdims=True)
            x.accumulate_grad(inv * (g - gm - xhat * gx))
            return
        # each entry's own term; the statistics' term lands on the reference set
        gx = (g * xhat).sum(axis=axes, keepdims=True) / (src.size // var.size)
        grad = inv * g
        grad[:, -ref:] -= inv * xhat[:, -ref:] * gx
        x.accumulate_grad(grad)

    return make_node(xhat, (x,), bw)


# ---------------------------------------------------------------------------
# losses


def _clamped(pred: Tensor):
    p = np.clip(pred.data, PROB_CLAMP, 1.0 - PROB_CLAMP)
    mask = (pred.data > PROB_CLAMP) & (pred.data < 1.0 - PROB_CLAMP)
    return p, mask


def elementwise_bce(pred_data: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-element binary cross-entropy on plain arrays (no gradient)."""
    p = np.clip(pred_data, PROB_CLAMP, 1.0 - PROB_CLAMP)
    t = np.asarray(target, dtype=p.dtype)
    return -(t * np.log(p) + (1.0 - t) * np.log1p(-p))


def elementwise_focal(pred_data: np.ndarray, target: np.ndarray,
                      gamma: float = 2.0, alpha: float = 0.25) -> np.ndarray:
    """Per-element focal loss on plain arrays (no gradient)."""
    p = np.clip(pred_data, PROB_CLAMP, 1.0 - PROB_CLAMP)
    t = np.asarray(target, dtype=p.dtype)
    p_t = t * p + (1.0 - t) * (1.0 - p)
    a_t = t * alpha + (1.0 - t) * (1.0 - alpha)
    return -a_t * (1.0 - p_t) ** gamma * np.log(p_t)


def bce_loss(pred: Tensor, target) -> Tensor:
    """Mean binary cross-entropy; probabilities are clamped away from {0, 1}."""
    t = np.asarray(target, dtype=pred.dtype)
    loss = np.asarray(elementwise_bce(pred.data, t).mean(), dtype=pred.dtype)

    def bw(g):
        p, mask = _clamped(pred)
        d = (p - t) / (p * (1.0 - p)) / p.size
        pred.accumulate_grad(np.where(mask, d, 0.0) * float(g))

    return make_node(loss, (pred,), bw)


def focal_loss(pred: Tensor, target, gamma: float = 2.0, alpha: float = 0.25) -> Tensor:
    """Focal loss, mean-reduced: -alpha_t * (1 - p_t)^gamma * log(p_t)."""
    t = np.asarray(target, dtype=pred.dtype)
    loss = np.asarray(elementwise_focal(pred.data, t, gamma, alpha).mean(), dtype=pred.dtype)

    def bw(g):
        # d/dp_t of -a_t (1-p_t)^g log p_t, then chain through p_t = t*p + (1-t)(1-p).
        # The clamp keeps 1-p_t >= PROB_CLAMP, so the (gamma-1) power stays finite.
        p, mask = _clamped(pred)
        p_t = t * p + (1.0 - t) * (1.0 - p)
        a_t = t * alpha + (1.0 - t) * (1.0 - alpha)
        one_m = 1.0 - p_t
        d_pt = a_t * (gamma * one_m ** (gamma - 1.0) * np.log(p_t) - one_m**gamma / p_t)
        d = d_pt * (2.0 * t - 1.0) / p.size
        pred.accumulate_grad(np.where(mask, d, 0.0) * float(g))

    return make_node(loss, (pred,), bw)
