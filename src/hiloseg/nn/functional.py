"""Differentiable ops. Conv tensors are channels-last: (B, D, H, W, C).

Each op computes its forward result with numpy and records a closure that
pushes vector-Jacobian products into its parents. conv3d lowers to GEMMs on
slab columns, a partial im2col over the two fast spatial axes (Chellapilla
et al. 2006; Anderson et al. 2017). A slab row holds one k×k window of all
channels, k²·C entries. The slab rows of padded planes [d0, d1 + k - 1),
copied once, hold the columns of output planes [d0, d1) for each slow-axis
offset a as one contiguous row block, a planes down, so a chunk of output
planes costs one copy and k GEMMs. Chunks are sized to
``CONV_SCRATCH_BYTES`` in the forward pass and both backward passes, so
scratch stays capped regardless of batch or window size, and small enough
to stay in cache. The input gradient is the correlation of the padded
output gradient with the flipped, transposed kernel (Dumoulin & Visin
2016), run through the same chunked helper as the forward pass.

The trainers split a batch into micro-batches to bound memory, and the
result must not depend on the split: a 1e-7 change in a gradient can grow
to 1e-3 in a weight within a few Adam steps. So every op keeps a
per-instance reduction contract:

- What an op computes for one batch instance comes from that instance's
  data alone, through array shapes that do not depend on the batch size.
  conv3d loops over items, and its chunks of output planes depend on an
  item's shape and ``CONV_SCRATCH_BYTES`` only.
- An op whose parameter gradient sums over batch axis 0 (matmul's weight,
  a bias or scale broadcast by ``add`` or ``mul``, conv3d's kernel) adds one
  partial per instance straight into the parameter's gradient, in instance
  order. The sum is (((g0 + g1) + g2) + ...) under every split, a fixed
  association (Demmel & Nguyen 2013). It holds for leaves that one op uses
  once per forward pass, which is how every model uses its parameters.
- The slab columns stay C-contiguous (rows, k²·C), used per offset a in a
  fixed order as ``col[rows_a] @ wk[a]`` and ``col[rows_a].T @ gb``.
  OpenBLAS rounds some of these products differently when only the
  operands' storage order changes.

The byte meter counts conv3d's padded copies, its outputs and the slab
columns of its input-gradient pass, one chunk at a time; the input
gradient becomes the input's gradient without a copy when it has none
yet. The slab columns of the forward and weight-gradient passes are not
counted.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, make_node, memory_meter

# Upper bound on the slab columns of one chunk, small enough to stay in L2.
CONV_SCRATCH_BYTES = 512 << 10

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


def _accumulate_unbroadcast(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` summed down to t's shape into t's gradient; a sum over the
    batch axis goes in one partial per instance (module docstring)."""
    shape = t.data.shape
    if g.ndim > len(shape) or (shape and shape[0] != g.shape[0]):
        for i in range(g.shape[0]):
            t.accumulate_grad(_unbroadcast(g[i : i + 1], shape))
    else:
        t.accumulate_grad(_unbroadcast(g, shape))


def add(a: Tensor, b) -> Tensor:
    b = as_tensor(b, dtype=a.dtype)
    out = a.data + b.data

    def bw(g):
        if a.requires_grad or a._parents:
            _accumulate_unbroadcast(a, g)
        if b.requires_grad or b._parents:
            _accumulate_unbroadcast(b, g)

    return make_node(out, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    b = as_tensor(b, dtype=a.dtype)
    out = a.data * b.data

    def bw(g):
        if a.requires_grad or a._parents:
            _accumulate_unbroadcast(a, g * b.data)
        if b.requires_grad or b._parents:
            _accumulate_unbroadcast(b, g * a.data)

    return make_node(out, (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s

    def bw(g):
        a.accumulate_grad(g * s)

    return make_node(out, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with a of shape (B, ..., K) and b a (K, M) matrix, or a kernel
    whose leading axes are all 1 (a 1x1x1 convolution's (1, 1, 1, K, M))."""
    mat = b.data.reshape(b.data.shape[-2:])
    out = a.data @ mat

    def bw(g):
        if a.requires_grad or a._parents:
            a.accumulate_grad(g @ mat.T)
        if b.requires_grad or b._parents:
            k, m = mat.shape
            for ai, gi in zip(a.data, g):
                b.accumulate_grad((ai.reshape(-1, k).T @ gi.reshape(-1, m)).reshape(b.data.shape))

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


def _padded(src: np.ndarray, pad: int) -> np.ndarray:
    """Channels-last ``src`` zero-padded by ``pad`` on each spatial side, C-contiguous."""
    if pad == 0:
        return np.ascontiguousarray(src)
    b, d, h, w, c = src.shape
    out = memory_meter.track(np.zeros((b, d + 2 * pad, h + 2 * pad, w + 2 * pad, c), src.dtype))
    out[:, pad:-pad, pad:-pad, pad:-pad] = src
    return out


def _slabs(xp: np.ndarray, k: int) -> np.ndarray:
    """The k×k windows over the two fast axes of C-contiguous ``xp``, for
    every padded plane, as one strided view (B, D, oh, ow, k, k, C): a plane
    of slab rows, k²·C entries each, per input plane."""
    b, d, h, w, c = xp.shape
    sb, sd, sh, sw, sc = xp.strides
    shape = (b, d, h - k + 1, w - k + 1, k, k, c)
    return np.ndarray(shape, xp.dtype, xp, 0, (sb, sd, sh, sw, sh, sw, sc))


def _plane_chunks(slab: np.ndarray, k: int):
    """[d0, d1) ranges of output planes whose d1 - d0 + k - 1 slab planes fit
    ``CONV_SCRATCH_BYTES``, at least one output plane each."""
    od = slab.shape[1] - k + 1
    plane_bytes = slab[0, 0].size * slab.itemsize
    d_step = max(1, min(od, CONV_SCRATCH_BYTES // plane_bytes - (k - 1)))
    return [(d0, min(d0 + d_step, od)) for d0 in range(0, od, d_step)]


def _col(slab: np.ndarray, bi: int, d0: int, d1: int, k: int, metered: bool = False) -> np.ndarray:
    """Slab rows of planes [d0, d1 + k - 1) of item bi, the columns of output
    planes [d0, d1), C-contiguous (planes·oh·ow, k²·C). Rows
    [a·oh·ow, a·oh·ow + (d1 - d0)·oh·ow) are the columns of slow-axis offset
    a. ``metered`` allocates them where the byte meter sees them; otherwise
    ``reshape`` copies into an array the meter never counts."""
    block = slab[bi, d0 : d1 + k - 1]
    shape = (block.shape[0] * block.shape[1] * block.shape[2], block[0, 0, 0].size)
    if not metered:
        return block.reshape(shape)
    col = memory_meter.track(np.empty(shape, slab.dtype))
    col.reshape(block.shape)[...] = block
    return col


def _correlate(xp: np.ndarray, wk: np.ndarray, metered: bool) -> np.ndarray:
    """Valid cross-correlation of padded ``xp`` with the kernel ``wk``
    reshaped to (k, k²·C, Cout), item by item and chunk by chunk: one GEMM
    per slow-axis offset on a contiguous row block of the chunk's slab."""
    k, cout = wk.shape[0], wk.shape[2]
    slab = _slabs(xp, k)
    b, dp, oh, ow = slab.shape[:4]
    plane = oh * ow
    out = memory_meter.track(np.empty((b, dp - k + 1, oh, ow, cout), dtype=xp.dtype))
    chunks = _plane_chunks(slab, k)
    for bi in range(b):
        for d0, d1 in chunks:
            col = _col(slab, bi, d0, d1, k, metered)
            n = (d1 - d0) * plane
            acc = col[:n] @ wk[0]
            for a in range(1, k):
                acc += col[a * plane : a * plane + n] @ wk[a]
            del col  # one chunk's columns alive at a time
            out[bi, d0:d1] = acc.reshape(d1 - d0, oh, ow, cout)
    return out


def conv3d(x: Tensor, w: Tensor, padding: int = 0) -> Tensor:
    """3D cross-correlation at stride 1. x: (B, D, H, W, Cin);
    w: (k, k, k, Cin, Cout); ``padding`` in [0, k - 1] zeros on each side."""
    if x.data.ndim != 5 or w.data.ndim != 5:
        raise ValueError("conv3d expects a 5-d input and a 5-d kernel")
    k = w.data.shape[0]
    if w.data.shape[:3] != (k, k, k) or w.data.shape[3] != x.data.shape[4]:
        raise ValueError(
            f"kernel shape {w.data.shape} incompatible with input shape {x.data.shape}"
        )
    if not 0 <= padding < k:
        raise ValueError(f"padding must lie in [0, {k - 1}] for kernel side {k}, got {padding}")
    if min(x.data.shape[1:4]) + 2 * padding < k:
        raise ValueError("kernel larger than padded input")
    if k == 1:
        return matmul(x, w)

    cin, cout = w.data.shape[3:]
    p = padding
    out = _correlate(_padded(x.data, p), w.data.reshape(k, -1, cout), metered=False)

    def bw(g):
        if w.requires_grad or w._parents:
            slab = _slabs(_padded(x.data, p), k)
            plane = slab.shape[2] * slab.shape[3]
            chunks = _plane_chunks(slab, k)
            for bi in range(g.shape[0]):
                dw = np.zeros((k, k * k * cin, cout), dtype=g.dtype)
                for d0, d1 in chunks:
                    col = _col(slab, bi, d0, d1, k)
                    gb = g[bi, d0:d1].reshape(-1, cout)
                    for a in range(k):
                        dw[a] += col[a * plane : a * plane + len(gb)].T @ gb
                    del col
                w.accumulate_grad(dw.reshape(w.data.shape))
            del slab  # frees the padded input before the input-gradient pass
        if x.requires_grad or x._parents:
            # the transposed convolution: flipped offsets, Cout and Cin swapped
            wt = np.ascontiguousarray(w.data[::-1, ::-1, ::-1].transpose(0, 1, 2, 4, 3))
            dx = _correlate(_padded(g, k - 1 - p), wt.reshape(k, -1, cin), metered=True)
            if x.grad is None and dx.dtype == x.dtype:
                x.grad = dx  # fresh, metered, of x's shape: no copy to make
            else:
                x.accumulate_grad(dx)

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
        xc = x.data - x.data.mean(axis=axes, keepdims=True)
        var = (xc * xc).mean(axis=axes, keepdims=True)  # np.var's own steps, bit for bit
        inv = 1.0 / np.sqrt(var + eps)
        xhat = xc * inv
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


def _entry_means(loss: np.ndarray, dtype) -> np.ndarray:
    """Mean of each entry's (axis 0) elementwise losses."""
    return np.asarray(loss.mean(axis=tuple(range(1, loss.ndim))), dtype=dtype)


def _entry_grad(d: np.ndarray, mask: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Elementwise derivatives ``d`` of entry means seeded by ``g`` per entry."""
    per_entry = g.reshape(g.shape + (1,) * (d.ndim - 1))
    return np.where(mask, d / (d.size // len(d)), 0.0) * per_entry


def bce_loss(pred: Tensor, target) -> Tensor:
    """Binary cross-entropy, one mean per entry of axis 0; probabilities are
    clamped away from {0, 1}."""
    t = np.asarray(target, dtype=pred.dtype)
    loss = _entry_means(elementwise_bce(pred.data, t), pred.dtype)

    def bw(g):
        p, mask = _clamped(pred)
        pred.accumulate_grad(_entry_grad((p - t) / (p * (1.0 - p)), mask, g))

    return make_node(loss, (pred,), bw)


def focal_loss(pred: Tensor, target, gamma: float = 2.0, alpha: float = 0.25) -> Tensor:
    """Focal loss -alpha_t * (1 - p_t)^gamma * log(p_t), one mean per entry
    of axis 0."""
    t = np.asarray(target, dtype=pred.dtype)
    loss = _entry_means(elementwise_focal(pred.data, t, gamma, alpha), pred.dtype)

    def bw(g):
        # d/dp_t of -a_t (1-p_t)^g log p_t, then chain through p_t = t*p + (1-t)(1-p).
        # The clamp keeps 1-p_t >= PROB_CLAMP, so the (gamma-1) power stays finite.
        p, mask = _clamped(pred)
        p_t = t * p + (1.0 - t) * (1.0 - p)
        a_t = t * alpha + (1.0 - t) * (1.0 - alpha)
        one_m = 1.0 - p_t
        d_pt = a_t * (gamma * one_m ** (gamma - 1.0) * np.log(p_t) - one_m**gamma / p_t)
        pred.accumulate_grad(_entry_grad(d_pt * (2.0 * t - 1.0), mask, g))

    return make_node(loss, (pred,), bw)
