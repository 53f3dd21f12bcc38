"""Differentiable ops. Conv tensors are channels-last: (B, D, H, W, C).

Each op computes its forward result with numpy and records a closure that
pushes vector-Jacobian products into its parents' graph nodes. A closure
captures those nodes and only the arrays its backward reads, never a
tensor, so the tape keeps:

- conv3d: its input (for the kernel gradient) and kernel (for the input
  gradient), each only when the other gradient is wanted; matmul and mul
  likewise their operands;
- batch_standardize: its output ``xhat`` and inverse scale ``inv``;
- sigmoid, selu and leaky_relu: their output, not their input;
- the losses: their prediction (a sigmoid output, which the sigmoid keeps
  anyway) and target;
- add, reshape, concat, pooling, upsampling, padding and slicing: shapes
  only;
- an operand added into the buffer of the op's product (``mul``'s ``c``,
  a ``matmul`` or ``conv3d`` bias): nothing. Its gradient goes first,
  through the per-instance sum that ``add``'s closure gives its second
  operand, so the op has the values and gradients of ``add`` on the
  product bit for bit, without the product's second array;
- ``matmul``'s ``residual``, added after the bias: nothing. It plays
  ``add``'s first operand: its node comes first among the op's parents,
  and it gets ``g`` itself, last, once the closure has read it;
- recompute: its inputs only, from which its backward rebuilds the tape of
  its function.

Without a tape there is nothing to keep, and an op asked to
(``inplace=True``) writes its result over the operand it consumes:
``mul``'s ``a``, ``add``'s ``b``, the input of ``selu``, ``leaky_relu`` and
``batch_standardize`` (either kind), and the input of a conv3d whose
result has its shape (Cin = Cout and 2p = k - 1, k > 1), chunk by chunk as
its input-gradient pass writes over ``g``. ``_take`` grants the request
only when no tape is recorded and the operand is no graph node (neither a
leaf nor an op result on a tape) and holds a C-contiguous, writeable,
floating array of its own that the result fits at its dtype; otherwise
the op allocates its result as it does without the keyword. The bits are
the same either way. The consumed tensor's ``data`` becomes None, so a
stale reference fails loudly. The layers (``nn.layers``) hand over only
temporaries that they made themselves, so a no-tape residual block holds
its input and one working buffer. Under a tape the request is ignored: the
tape, its gradients and the trained bits stay as they are, and the
no-tape forward of a recompute cannot write over the inputs its node
keeps, which are the outer tape's nodes or constants no layer hands over.

A closure that allocates a gradient for one parent passes it with
``fresh=True``, and it becomes that parent's first gradient without a copy
(``Tensor.accumulate_grad``). A closure owns the gradient it is handed
(``Tensor.backward``), so ``add`` hands ``g`` itself to its first parent
the same way and copies it only for the second, and the elementwise
backwards (``leaky_relu``, ``selu``, ``sigmoid``, ``batch_standardize`` and
``mul``'s first operand) write their input gradient over ``g`` and hand it
on, with no array of their own; pooling divides ``g`` in place before it
spreads it. conv3d writes an input gradient of ``g``'s shape (Cin = Cout
and 2p = k - 1, every 3×3×3 block conv) over ``g``, once the bias and
kernel gradients have read it, chunk by chunk: before a chunk's GEMMs
overwrite ``g``'s planes, it saves the k - 1 - p of them that the next
chunk's padded block reads. conv3d lowers to GEMMs on
slab columns, a partial im2col over the two fast spatial axes (Chellapilla
et al. 2006; Anderson et al. 2017). It takes the unpadded input; for a
chunk of output planes [d0, d1) of one item it zero-pads only that item's
padded planes [d0, d1 + k - 1) into a block. A slab row holds one k×k
window of all channels of the block, k²·C entries. The block's slab rows,
copied once, hold the columns of output planes [d0, d1) for each
slow-axis offset a as one contiguous row block, a planes down, so a chunk
of output planes costs one padded block, one copy and k GEMMs. Chunks are
sized to ``CONV_SCRATCH_BYTES`` in the forward pass and both backward
passes, so scratch stays capped regardless of batch or window size, and
small enough to stay in cache. The input gradient is the correlation of
the output gradient, padded by k - 1 - p, with the flipped, transposed
kernel (Dumoulin & Visin 2016), run through the same chunked helper as the
forward pass.

An op returns the dtype of its floating inputs, and every gradient it passes
back has it too, so a model built in float32 trains in float32 end to end.
Integer helper arrays (adaptive pooling's bin widths, loss targets) are cast
to that dtype before they meet a floating array; numpy would otherwise
promote the result to float64.

The trainers split a batch into micro-batches to bound memory, and the
result must not depend on the split: a 1e-7 change in a gradient can grow
to 1e-3 in a weight within a few Adam steps. So every op keeps a
per-instance reduction contract:

- What an op computes for one batch instance comes from that instance's
  data alone, through array shapes that do not depend on the batch size.
  conv3d loops over items, and its chunks of output planes depend on an
  item's shape and ``CONV_SCRATCH_BYTES`` only. matmul multiplies a 2-D
  (B, K) operand one row at a time, forward and input gradient: OpenBLAS
  rounds a row of a (B, K) @ (K, M) product differently from the same row
  alone.
- An op whose parameter gradient sums over batch axis 0 (matmul's weight,
  a bias, scale or shift broadcast over the batch, conv3d's kernel) adds one
  partial per instance straight into the parameter's gradient, in instance
  order. The sum is (((g0 + g1) + g2) + ...) under every split, a fixed
  association (Demmel & Nguyen 2013). It holds for leaves that one op uses
  once per forward pass, which is how every model uses its parameters.
- The slab columns stay C-contiguous (rows, k²·C), used per offset a in a
  fixed order as ``col[rows_a] @ wk[a]`` and ``col[rows_a].T @ gb``.
  OpenBLAS rounds some of these products differently when only the
  operands' storage order changes.

Per-channel work on a channels-last tensor runs on long rows, since C is
small (6 in the default HiLo model) and numpy loops once per innermost run:

- A (C,) operand (``mul``'s gamma and its gradient's, a norm's beta, a
  conv3d or matmul bias) meets a C-contiguous 5-D tensor as rows of W·C
  entries against the vector tiled W times. Elementwise, the bits are the
  broadcast's. (B, N, C) point tensors broadcast as numpy does.
- A per-channel gradient sum adds the (rows, C) rows in order through
  einsum, as ``np.add.reduce(axis=0)`` does for C > 1; a (B, N, C) to
  (B, 1, C) sum adds the points in order the same way. For C = 1 numpy
  sums pairwise, and the reduction stays.
- Pooling adds the f³ strided slices of its windows in C order, then +0.0,
  the bits of the reshaped ``sum``. Its backward and upsampling broadcast
  each voxel onto f·C entries of a row once, then copy whole rows.

Each keeps the bits of the numpy expression it replaced. The one exception
is a NaN's payload where two different NaNs meet in one window sum: numpy's
own loops may keep either.

The byte meter counts every op's output, upsampling's included (reshape's
is a view, counted with its input; a result written over its operand is
that operand's array, counted once), and conv3d's scratch in part: one
chunk at a time, one item's padded planes in every pass, the slab columns
of its input-gradient pass, and the input planes a pass written in place
saves for the next chunk, one chunk's at a time. An in-place
``leaky_relu``'s chunk scratch is counted too. The slab columns of
the forward and weight-gradient passes, the per-item kernel gradient
``dw`` and the flipped kernel are not counted.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import (Tensor, enable_grad, grad_enabled, hand_over, make_node, memory_meter,
                     no_grad)

# Upper bound on the slab columns of one chunk, small enough to stay in L2.
CONV_SCRATCH_BYTES = 512 << 10

# Entries of the scratch that leaky_relu, written over its input, reads one
# chunk's product from.
INPLACE_CHUNK = 1 << 14

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805

PROB_CLAMP = 1e-7


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype or np.float32))


def _channel_op(op, a: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``op(a, v, out=out)`` for the ufunc ``op``, an array ``a`` and an
    operand ``v`` that broadcasts to it. A (C,) ``v`` against a C-contiguous
    channels-last 5-D ``a`` runs on rows of W·C entries against ``v`` tiled
    W times (module docstring). Without ``out`` the result owns its
    memory, so the byte meter counts it."""
    if (a.ndim == 5 and v.shape == a.shape[4:] and a.flags.c_contiguous
            and (out is None or out.flags.c_contiguous)):
        if out is None:
            out = np.empty(a.shape, np.result_type(a, v))
        row = np.repeat(v[None], a.shape[3], axis=0).reshape(-1)  # v tiled W times
        op(a.reshape(-1, row.size), row, out=out.reshape(-1, row.size))
        return out
    return op(a, v, out=out)


def _take(t: Tensor, *operands: np.ndarray) -> np.ndarray | None:
    """``t``'s array, for an op asked to write its result over it, or None
    where it may not (module docstring): a tape is recorded, ``t`` is a
    graph node (a leaf, or an op result on a tape), its array is a view,
    not C-contiguous, read-only or not floating, or one of the op's other
    ``operands`` would not broadcast into it at its dtype. A taken tensor
    is handed over (``hand_over``), so a stale reference fails loudly."""
    d = t.data
    if (grad_enabled() or t.node is not None or d.base is not None or d.dtype.kind != "f"
            or not d.flags.carray):  # C-contiguous, aligned and writeable
        return None
    for o in operands:  # the trailing axes of d's shape, first; else 1s where they differ
        if o.dtype != d.dtype or o.shape != d.shape[d.ndim - o.ndim:] and (o.ndim > d.ndim or any(
                n != 1 and n != m for n, m in zip(o.shape[::-1], d.shape[::-1]))):
            return None
    hand_over(t)
    return d


def _point_sum(g: np.ndarray) -> np.ndarray:
    """``g.sum(axis=1, keepdims=True)`` of a (B, N, C) array bit for bit, as
    an array of its own: einsum adds the points in order, as that reduction
    does for C > 1 on a C-contiguous ``g``."""
    b, _, c = g.shape
    if c == 1 or not g.flags.c_contiguous:
        return g.sum(axis=1, keepdims=True)
    out = np.empty((b, 1, c), g.dtype)
    np.einsum("bnc->bc", g, out=out.reshape(b, c))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if len(shape) == 1 and g.ndim > 1 and g.shape[-1] == shape[0] and g.flags.c_contiguous:
        # a per-channel gradient: the rows summed in order, the bits of
        # np.add.reduce over them, which sums pairwise for C = 1 (module
        # docstring), and of the sum over the leading axes
        g2d = g.reshape(-1, shape[0])
        return np.add.reduce(g2d, axis=0) if shape[0] == 1 else np.einsum("ij->j", g2d)
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes == (1,) and g.ndim == 3:  # a per-element affine's sum over its points
        return _point_sum(g)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _accumulate_unbroadcast(node: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` summed down to the node's shape into its gradient; a sum
    over the batch axis goes in one partial per instance (module docstring).
    ``fresh`` as in ``Tensor.accumulate_grad``; a sum is always fresh."""
    shape = node.shape
    if g.ndim > len(shape) or (shape and shape[0] != g.shape[0]):
        for i in range(g.shape[0]):
            gi = g[i : i + 1]
            part = _unbroadcast(gi, shape)
            node.accumulate_grad(part, fresh=part is not gi)
    else:
        part = _unbroadcast(g, shape)
        node.accumulate_grad(part, fresh=fresh or part is not g)


def add(a: Tensor, b, inplace: bool = False) -> Tensor:
    """a + b; ``inplace`` writes the sum over ``b``, where ``_take`` lets it."""
    b = as_tensor(b, dtype=a.dtype)
    ad, bd = a.data, b.data
    out = np.add(ad, bd, out=_take(b, ad) if inplace else None)
    na, nb = a.node, b.node

    def bw(g):  # the closure owns g (Tensor.backward): a copy to b, g itself to a
        if nb is not None:
            _accumulate_unbroadcast(nb, g)
        if na is not None:
            _accumulate_unbroadcast(na, g, fresh=True)

    return make_node(out, (na, nb), bw)


def _add_into(out: np.ndarray, c) -> Tensor | None:
    """Add the optional operand ``c``, which must broadcast to ``out``'s
    shape, into the op's own result ``out``, which rounds as ``out + c``
    does, and return ``c``'s graph node (None without one). Its backward
    sends ``c``'s gradient first, as ``add`` does."""
    if c is None:
        return None
    c = as_tensor(c, dtype=out.dtype)
    _channel_op(np.add, out, c.data, out=out)  # raises on a numpy scalar, which += would rebind
    return c.node


def mul(a: Tensor, b, c=None, inplace: bool = False) -> Tensor:
    """a·b, plus ``c`` added into the product's buffer when given: the values
    and gradients of ``add(mul(a, b), c)`` without its second array.
    ``inplace`` writes the result over ``a``, where ``_take`` lets it."""
    b = as_tensor(b, dtype=a.dtype)
    ad, bd = a.data, b.data
    out = _channel_op(np.multiply, ad, bd, out=_take(a, bd) if inplace else None)
    nc = _add_into(out, c)
    na, nb = a.node, b.node
    ad = ad if nb is not None else None
    bd = bd if na is not None else None

    def bw(g):  # g is read for c and b, then overwritten for a
        if nc is not None:
            _accumulate_unbroadcast(nc, g)
        if nb is not None:
            _accumulate_unbroadcast(nb, g * ad, fresh=True)
        if na is not None:
            _accumulate_unbroadcast(na, _channel_op(np.multiply, g, bd, out=g), fresh=True)

    return make_node(out, (na, nb, nc), bw)


def matmul(a: Tensor, b: Tensor, bias=None, residual=None) -> Tensor:
    """a @ b with a of shape (B, ..., K) and b a (K, M) matrix, or a kernel
    whose leading axes are all 1 (a 1x1x1 convolution's (1, 1, 1, K, M)),
    plus ``bias`` added into the product's buffer when given: the values and
    gradients of ``add(matmul(a, b), bias)`` without its second array.
    ``residual`` is added after the bias in the same buffer: the values and
    gradients of ``add(residual, matmul(a, b, bias))``, whose first operand
    gets ``g`` itself, last."""
    mat = b.data.reshape(b.data.shape[-2:])

    def product(x, y):
        # a 2-D operand row by row (module docstring), into an owned array
        if x.ndim != 2:
            return x @ y
        res = np.empty((x.shape[0], y.shape[1]), np.result_type(x, y))
        np.matmul(x[:, None, :], y, out=res[:, None, :])
        return res

    out = product(a.data, mat)
    nc = _add_into(out, bias)
    nr = _add_into(out, residual)
    na, nb = a.node, b.node
    ad = a.data if nb is not None else None
    k, m = mat.shape

    def bw(g):
        if nc is not None:
            _accumulate_unbroadcast(nc, g)
        if na is not None:
            na.accumulate_grad(product(g, mat.T), fresh=True)
        if nb is not None:
            for ai, gi in zip(ad, g):
                part = ai.reshape(-1, k).T @ gi.reshape(-1, m)
                nb.accumulate_grad(part if part.shape == nb.shape else part.reshape(nb.shape),
                                   fresh=True)
        if nr is not None:
            _accumulate_unbroadcast(nr, g, fresh=True)

    # the residual first, as add's first operand: the reverse sweep's order
    return make_node(out, (nr, na, nb, nc), bw)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    na = a.node

    def bw(g):
        na.accumulate_grad(g.reshape(na.shape))

    return make_node(out, (na,), bw)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)
    nodes = tuple(t.node for t in tensors)

    def bw(g):
        for n, lo, hi in zip(nodes, bounds[:-1], bounds[1:]):
            if n is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                n.accumulate_grad(np.ascontiguousarray(g[tuple(idx)]), fresh=True)

    return make_node(out, nodes, bw)


# ---------------------------------------------------------------------------
# activations


def leaky_relu(x: Tensor, slope: float = 0.01, inplace: bool = False) -> Tensor:
    # For 0 < slope <= 1 the maximum equals where(x > 0, x, x * slope) bit for
    # bit, signed zeros, infinities and NaN included; at slope 0, inf * 0 is NaN.
    # Written over x (``inplace``), the product goes chunk by chunk through
    # one metered scratch of at most INPLACE_CHUNK entries.
    if not 0 < slope <= 1:
        raise ValueError(f"leaky_relu slope must be in (0, 1], got {slope}")
    out = _take(x) if inplace else None
    if out is None:
        out = x.data * slope
        np.maximum(x.data, out, out=out)
    else:
        flat = out.reshape(-1)
        scratch = memory_meter.track(np.empty(min(flat.size, INPLACE_CHUNK), out.dtype))
        for i in range(0, flat.size, INPLACE_CHUNK):
            part = flat[i : i + INPLACE_CHUNK]
            np.maximum(part, np.multiply(part, slope, out=scratch[: part.size]), out=part)
    nx = x.node

    def bw(g):
        # out > 0 exactly where x > 0; 1 or slope times g has the bits of
        # where(out > 0, g, g * slope), and numpy's float where is slow
        factor = np.maximum(out > 0, np.asarray(slope, out.dtype))
        nx.accumulate_grad(np.multiply(factor, g, out=g), fresh=True)

    return make_node(out, (nx,), bw)


def selu(x: Tensor, inplace: bool = False) -> Tensor:
    # lambda*max(x, 0) + lambda*alpha*expm1(min(x, 0)) has the bits of
    # where(x > 0, lambda*x, lambda*alpha*expm1(min(x, 0))): one branch adds
    # an exact zero, and it builds no data-dependent mask. ``inplace`` writes
    # the result over x once the negative branch is read out of it.
    xd = x.data
    neg = np.minimum(xd, 0.0)
    out = np.maximum(xd, 0.0, out=_take(x) if inplace else None)
    out *= SELU_LAMBDA
    np.expm1(neg, out=neg)
    neg *= SELU_LAMBDA * SELU_ALPHA
    out += neg
    nx = x.node

    def bw(g):
        # out > 0 exactly where x > 0; on the negative branch
        # d/dx = lambda*alpha*e^x = out + lambda*alpha. One buffer has the
        # bits of where(out > 0, g * lambda, g * (out + lambda*alpha)); g
        # stays the first factor, whose NaN a NaN product keeps
        d = out + SELU_LAMBDA * SELU_ALPHA
        np.copyto(d, SELU_LAMBDA, where=out > 0)
        nx.accumulate_grad(np.multiply(g, d, out=g), fresh=True)

    return make_node(out, (nx,), bw)


def sigmoid(x: Tensor) -> Tensor:
    # 1/(1 + e^-x) for x >= 0 and e^x/(1 + e^x) below, with e = e^-|x| <= 1,
    # so no exp overflows; min(x, -x) is -|x| that keeps x's own NaN
    e = np.exp(np.minimum(x.data, -x.data))
    d = 1.0 + e
    out = np.where(x.data >= 0, 1.0 / d, e / d)
    nx = x.node

    def bw(g):  # g * out * (1.0 - out), written over g
        np.multiply(g, out, out=g)
        nx.accumulate_grad(np.multiply(g, 1.0 - out, out=g), fresh=True)

    return make_node(out, (nx,), bw)


# ---------------------------------------------------------------------------
# convolution and resampling


def _plane_chunks(od: int, oh: int, ow: int, k: int, c: int, itemsize: int):
    """[d0, d1) ranges of ``od`` output planes whose d1 - d0 + k - 1 planes
    of slab rows (oh·ow rows of k²·``c`` entries each) fit
    ``CONV_SCRATCH_BYTES``, at least one output plane each."""
    plane_bytes = oh * ow * k * k * c * itemsize
    d_step = max(1, min(od, CONV_SCRATCH_BYTES // plane_bytes - (k - 1)))
    return [(d0, min(d0 + d_step, od)) for d0 in range(0, od, d_step)]


def _padded_planes(xi: np.ndarray, pad: int, lo: int, hi: int) -> np.ndarray:
    """Planes [lo, hi) of the channels-last item ``xi`` (D, H, W, C) once it
    is zero-padded by ``pad`` on each spatial side, as a C-contiguous block
    the byte meter counts. The run must hold an input plane, as a chunk's
    k or more planes do for ``pad`` < k."""
    d, h, w, c = xi.shape
    block = memory_meter.track(np.zeros((hi - lo, h + 2 * pad, w + 2 * pad, c), xi.dtype))
    z0, z1 = max(lo, pad), min(hi, d + pad)  # the padded planes that hold input planes
    block[z0 - lo : z1 - lo, pad : pad + h, pad : pad + w] = xi[z0 - pad : z1 - pad]
    return block


def _col(block: np.ndarray, k: int, metered: bool = False) -> np.ndarray:
    """The slab rows of the C-contiguous padded planes ``block`` (P, H, W, C):
    every k×k window over the two fast axes, k²·C entries, as C-contiguous
    (P·oh·ow, k²·C). For the block of padded planes [d0, d1 + k - 1), rows
    [a·oh·ow, a·oh·ow + (d1 - d0)·oh·ow) are the columns of output planes
    [d0, d1) at slow-axis offset a. ``metered`` allocates them where the byte
    meter sees them; otherwise ``reshape`` copies into an array the meter
    never counts."""
    p, h, w, c = block.shape
    sd, sh, sw, sc = block.strides
    slab = np.ndarray((p, h - k + 1, w - k + 1, k, k, c), block.dtype, block, 0,
                      (sd, sh, sw, sh, sw, sc))
    shape = (slab.shape[0] * slab.shape[1] * slab.shape[2], k * k * c)
    if not metered:
        return slab.reshape(shape)
    col = memory_meter.track(np.empty(shape, block.dtype))
    col.reshape(slab.shape)[...] = slab
    return col


def _correlate(x: np.ndarray, wk: np.ndarray, pad: int, metered: bool,
               out: np.ndarray | None = None) -> np.ndarray:
    """Valid cross-correlation of channels-last ``x`` zero-padded by ``pad``
    with the kernel ``wk`` reshaped to (k, k²·C, Cout), item by item and
    chunk by chunk: one chunk's padded planes, then one GEMM per slow-axis
    offset on a contiguous row block of their slab columns.

    ``out`` is None, for a result of its own, or ``x`` itself, C-contiguous
    and of the result's shape, which the result then overwrites chunk by
    chunk. Chunk [d0, d1) overwrites input planes [d0, d1), and the next
    chunk's padded block reads the ``pad`` input planes before d1, so those
    are saved, metered, before the GEMMs write, and put back into the next
    block."""
    k, cout = wk.shape[0], wk.shape[2]
    b, d, h, w, c = x.shape
    od, oh, ow = (n + 2 * pad - k + 1 for n in (d, h, w))
    plane = oh * ow
    keep = pad if out is x else 0  # input planes saved for the next chunk
    if out is None:
        out = memory_meter.track(np.empty((b, od, oh, ow, cout), dtype=x.dtype))
    chunks = _plane_chunks(od, oh, ow, k, c, x.itemsize)
    for bi in range(b):
        saved = None
        for d0, d1 in chunks:
            block = _padded_planes(x[bi], pad, d0, d1 + k - 1)
            if saved is not None:  # input planes [d0 - len(saved), d0), overwritten
                block[pad - len(saved) : pad, pad : pad + h, pad : pad + w] = saved
                saved = None  # restored: one chunk's saved planes alive at a time
            if keep and d1 < od:  # input planes [max(d1 - keep, 0), d1), from the block
                z0, z1 = max(d1 - keep, 0) + pad - d0, d1 + pad - d0
                saved = memory_meter.track(block[z0:z1, pad : pad + h, pad : pad + w].copy())
            # the padded block dies once its columns are copied out
            col = _col(block, k, metered)
            del block
            n = (d1 - d0) * plane
            acc = out[bi, d0:d1].reshape(n, cout)  # a view: the GEMMs write in place
            np.matmul(col[:n], wk[0], out=acc)
            for a in range(1, k):
                acc += col[a * plane : a * plane + n] @ wk[a]
            del col  # one chunk's columns alive at a time
    return out


def conv3d(x: Tensor, w: Tensor, padding: int = 0, bias=None, inplace: bool = False) -> Tensor:
    """3D cross-correlation at stride 1. x: (B, D, H, W, Cin);
    w: (k, k, k, Cin, Cout); ``padding`` in [0, k - 1] zeros on each side.
    ``bias`` is added into the result's buffer when given: the values and
    gradients of ``add(conv3d(x, w, padding), bias)`` without its second
    array. ``inplace`` writes a result of the input's shape (Cin = Cout,
    2·padding = k - 1, k > 1) over ``x`` chunk by chunk, where ``_take``
    lets it, as the input-gradient pass writes over ``g``."""
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
        return matmul(x, w, bias)

    cin, cout = w.data.shape[3:]
    p = padding
    xd = x.data
    over_x = inplace and cin == cout and 2 * p == k - 1
    out = _correlate(xd, w.data.reshape(k, -1, cout), p, metered=False,
                     out=_take(x) if over_x else None)
    nc = _add_into(out, bias)
    nx, nw = x.node, w.node
    xd = xd if nw is not None else None  # the kernel gradient reads the input
    wd = w.data if nx is not None else None  # the input gradient reads the kernel

    def bw(g):
        if nc is not None:
            _accumulate_unbroadcast(nc, g)
        if nw is not None:
            b, od, oh, ow = g.shape[:4]
            plane = oh * ow
            chunks = _plane_chunks(od, oh, ow, k, cin, xd.itemsize)
            for bi in range(b):
                dw = np.zeros((k, k * k * cin, cout), dtype=g.dtype)
                for d0, d1 in chunks:
                    col = _col(_padded_planes(xd[bi], p, d0, d1 + k - 1), k)
                    gb = g[bi, d0:d1].reshape(-1, cout)
                    for a in range(k):
                        dw[a] += col[a * plane : a * plane + len(gb)].T @ gb
                    del col
                nw.accumulate_grad(dw.reshape(nw.shape))
        if nx is not None:
            # the transposed convolution: flipped offsets, Cout and Cin swapped,
            # written over g when it has the input's shape (the closure owns g)
            wt = np.ascontiguousarray(wd[::-1, ::-1, ::-1].transpose(0, 1, 2, 4, 3))
            over_g = cin == cout and 2 * p == k - 1 and g.flags.c_contiguous
            dx = _correlate(g, wt.reshape(k, -1, cin), k - 1 - p, metered=True,
                            out=g if over_g else None)
            nx.accumulate_grad(dx, fresh=True)

    return make_node(out, (nx, nw, nc), bw)


def _window_sums(x: np.ndarray, f: int) -> np.ndarray:
    """The sums over the non-overlapping f³ windows of the channels-last
    ``x``, bit for bit those of ``x.reshape(b, d/f, f, h/f, f, w/f, f,
    c).sum(axis=(2, 4, 6))``, as an array of its own. For C > 1 that
    reduction adds the f³ strided slices in C order, starting from +0.0;
    ``((s0 + s1) + ...) + 0.0`` has the same bits and loops over fewer,
    longer runs. For C = 1 it sums pairwise, and runs here as it is."""
    b, d, h, w, c = x.shape
    v = x.reshape(b, d // f, f, h // f, f, w // f, f, c)
    if c == 1:
        return v.sum(axis=(2, 4, 6))
    slices = [v[:, :, i, :, j, :, k] for i in range(f) for j in range(f) for k in range(f)]
    out = np.add(slices[0], slices[1])
    for s in slices[2:]:
        np.add(out, s, out=out)
    np.add(out, 0.0, out=out)  # -0.0 where every entry is -0.0 becomes +0.0
    return out


def _spread(x: np.ndarray, f: int) -> np.ndarray:
    """Every voxel of the channels-last ``x`` repeated ``f`` times along each
    spatial axis, as an array of its own, so the byte meter counts it. Each
    voxel's C entries are broadcast f times along the fast axis once; rows
    and planes are then copied whole along the two slower axes."""
    b, d, h, w, c = x.shape
    out = np.empty((b, d * f, h * f, w * f, c), x.dtype)
    v = out.reshape(b * d, f, h, f, w * f * c)
    v[:, 0, :, 0].reshape(b * d, h, w, f, c)[...] = x.reshape(b * d, h, w, 1, c)
    v[:, 0, :, 1:] = v[:, 0, :, :1]
    v[:, 1:] = v[:, :1]
    return out


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
    out = _window_sums(x.data, f)
    # as ndarray.mean divides its sum: by an intp count, in place
    np.true_divide(out, np.intp(f**3), out=out, casting="unsafe")
    nx = x.node

    def bw(g):
        nx.accumulate_grad(_spread(np.true_divide(g, f**3, out=g), f), fresh=True)

    return make_node(out, (nx,), bw)


def upsample_nearest3d(x: Tensor, factor: int) -> Tensor:
    """Repeat every voxel ``factor`` times along each spatial axis."""
    if factor < 1:
        raise ValueError(f"upsampling factor must be >= 1, got {factor}")
    if factor == 1:
        return x
    f = factor
    out = _spread(x.data, f)
    nx = x.node

    def bw(g):
        nx.accumulate_grad(_window_sums(g, f), fresh=True)

    return make_node(out, (nx,), bw)


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
        out = out / widths.reshape(shape).astype(out.dtype)
    nx = x.node

    def bw(g):
        for axis, (starts, widths) in reversed(list(enumerate(plan, start=1))):
            shape = [1] * g.ndim
            shape[axis] = len(widths)
            g = np.repeat(g / widths.reshape(shape).astype(g.dtype), widths, axis=axis)
        nx.accumulate_grad(np.ascontiguousarray(g), fresh=True)

    return make_node(np.ascontiguousarray(out), (nx,), bw)


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
    nx = x.node

    def bw(g):
        nx.accumulate_grad(np.ascontiguousarray(g[:, :d, :h, :w, :]), fresh=True)

    return make_node(out, (nx,), bw)


def repeat_middle(x: Tensor, n: int) -> Tensor:
    """Repeat a (B, C) tensor into (B, n, C), one copy per middle slot."""
    if n < 1:
        raise ValueError(f"repeat count must be >= 1, got {n}")
    b, c = x.data.shape
    out = np.ascontiguousarray(np.broadcast_to(x.data[:, None, :], (b, n, c)))
    nx = x.node

    def bw(g):
        nx.accumulate_grad(g.sum(axis=1), fresh=True)

    return make_node(out, (nx,), bw)


def slice_middle(x: Tensor, stop: int) -> Tensor:
    """The first ``stop`` entries of axis 1 of (B, N, C)."""
    nx = x.node

    def bw(g):
        full = np.zeros(nx.shape, dtype=nx.dtype)
        full[:, :stop] = g
        nx.accumulate_grad(full, fresh=True)

    return make_node(np.ascontiguousarray(x.data[:, :stop]), (nx,), bw)


# ---------------------------------------------------------------------------
# normalization


def _mean(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``a.mean(axis=axes, keepdims=True)`` bit for bit: the same pairwise
    sum divided by the same count, without numpy's Python-level wrapper."""
    return np.add.reduce(a, axis=axes, keepdims=True) / math.prod(a.shape[ax] for ax in axes)


def batch_standardize(x: Tensor, eps: float, axes: tuple[int, ...], ref: int | None = None,
                      inplace: bool = False):
    """Standardize over ``axes`` (non-negative): subtract the mean and divide
    by the root of the biased variance plus ``eps``.

    With ``ref``, every entry is instead scaled by the root mean square of
    the last ``ref`` entries of axis 1 (``axes`` must include axis 1), and
    nothing is subtracted: the other entries neither move these statistics
    nor depend on each other, and a shift shared by all entries (such as a
    condition concatenated onto each point) survives.

    The backward keeps the output ``xhat`` and the inverse scale ``inv``,
    never the input. ``inplace`` writes ``xhat`` over ``x``, once its
    statistics are read, where ``_take`` lets it.
    """
    xd = x.data
    if ref is None:
        mean = _mean(xd, axes)
        xhat = np.subtract(xd, mean, out=_take(x) if inplace else None)
        var = _mean(xhat * xhat, axes)  # np.var's own steps, bit for bit
        inv = 1.0 / np.sqrt(var + eps)
        xhat *= inv
    else:
        src = xd[:, -ref:]
        var = _mean(src * src, axes)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = np.multiply(xd, inv, out=_take(x) if inplace else None)
        count = src.size // var.size  # entries behind each statistic
    nx = x.node

    def bw(g):
        if ref is None:
            gm = _mean(g, axes)
            gx = _mean(g * xhat, axes)
            np.subtract(g, gm, out=g)
            g -= xhat * gx
            np.multiply(inv, g, out=g)  # inv stays the first factor, as in inv * g
            nx.accumulate_grad(g, fresh=True)
            return
        # each entry's own term; the statistics' term lands on the reference set
        gx = (_point_sum(g * xhat) if axes == (1,) and g.ndim == 3
              else (g * xhat).sum(axis=axes, keepdims=True)) / count
        np.multiply(inv, g, out=g)
        g[:, -ref:] -= inv * xhat[:, -ref:] * gx
        nx.accumulate_grad(g, fresh=True)

    return make_node(xhat, (nx,), bw)


# ---------------------------------------------------------------------------
# losses


def _clamp(pred: np.ndarray) -> np.ndarray:
    """Probabilities clamped away from {0, 1}, as every loss reads them."""
    return np.clip(pred, PROB_CLAMP, 1.0 - PROB_CLAMP)


def _focal_terms(p: np.ndarray, t: np.ndarray, alpha: float):
    """Focal loss's true-class probability ``p_t`` and class weight ``a_t``."""
    return t * p + (1.0 - t) * (1.0 - p), t * alpha + (1.0 - t) * (1.0 - alpha)


def elementwise_bce(pred_data: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-element binary cross-entropy on plain arrays (no gradient)."""
    p = _clamp(pred_data)
    t = np.asarray(target, dtype=p.dtype)
    return -(t * np.log(p) + (1.0 - t) * np.log1p(-p))


def elementwise_focal(pred_data: np.ndarray, target: np.ndarray,
                      gamma: float = 2.0, alpha: float = 0.25) -> np.ndarray:
    """Per-element focal loss on plain arrays (no gradient)."""
    p = _clamp(pred_data)
    p_t, a_t = _focal_terms(p, np.asarray(target, dtype=p.dtype), alpha)
    return -a_t * (1.0 - p_t) ** gamma * np.log(p_t)


def _entry_means(loss: np.ndarray, dtype) -> np.ndarray:
    """Mean of each entry's (axis 0) elementwise losses."""
    return np.asarray(loss.mean(axis=tuple(range(1, loss.ndim))), dtype=dtype)


def _entry_grad(d: np.ndarray, pred: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Elementwise derivatives ``d`` of entry means seeded by ``g`` per entry,
    zero where ``_clamp`` moved ``pred``."""
    per_entry = g.reshape(g.shape + (1,) * (d.ndim - 1))
    kept = (pred > PROB_CLAMP) & (pred < 1.0 - PROB_CLAMP)
    return np.where(kept, d / (d.size // len(d)), 0.0) * per_entry


def bce_loss(pred: Tensor, target) -> Tensor:
    """Binary cross-entropy, one mean per entry of axis 0; probabilities are
    clamped away from {0, 1}."""
    t = np.asarray(target, dtype=pred.dtype)
    loss = _entry_means(elementwise_bce(pred.data, t), pred.dtype)
    pd, npred = pred.data, pred.node

    def bw(g):
        p = _clamp(pd)
        npred.accumulate_grad(_entry_grad((p - t) / (p * (1.0 - p)), pd, g), fresh=True)

    return make_node(loss, (npred,), bw)


def focal_loss(pred: Tensor, target, gamma: float = 2.0, alpha: float = 0.25) -> Tensor:
    """Focal loss -alpha_t * (1 - p_t)^gamma * log(p_t), one mean per entry
    of axis 0."""
    t = np.asarray(target, dtype=pred.dtype)
    loss = _entry_means(elementwise_focal(pred.data, t, gamma, alpha), pred.dtype)
    pd, npred = pred.data, pred.node

    def bw(g):
        # d/dp_t of -a_t (1-p_t)^g log p_t, then chain through p_t = t*p + (1-t)(1-p).
        # The clamp keeps 1-p_t >= PROB_CLAMP, so the (gamma-1) power stays finite.
        p = _clamp(pd)
        p_t, a_t = _focal_terms(p, t, alpha)
        one_m = 1.0 - p_t
        d_pt = a_t * (gamma * one_m ** (gamma - 1.0) * np.log(p_t) - one_m**gamma / p_t)
        npred.accumulate_grad(_entry_grad(d_pt * (2.0 * t - 1.0), pd, g), fresh=True)

    return make_node(loss, (npred,), bw)


# ---------------------------------------------------------------------------
# recomputation


def recompute(fn, xs: tuple, params) -> Tensor:
    """``fn(*xs)``, with the tape of ``fn`` rebuilt in the backward instead
    of kept (Chen et al. 2016, *Training Deep Nets with Sublinear Memory
    Cost*). The caller hands ``xs`` over: once ``fn`` has run, each input
    that is not a leaf gives up its array (``hand_over``), and ``fn`` may
    hand one over sooner, as each encoder does after its stem.

    Without a tape it is ``fn(*xs)``, so a model calls this function
    whether or not a tape is recorded. With one, it takes the arrays and
    graph nodes of ``xs`` before ``fn`` runs, runs ``fn`` without a tape
    and records one node that keeps those arrays only. The backward re-runs
    ``fn`` on a fresh tape, even inside ``no_grad``, on one leaf per input,
    hands the rebuilt output over, since the sweep needs its array only
    where a closure of ``fn`` captured it, and seeds its reverse sweep with
    the incoming gradient, handed over (``Tensor.backward``). ``params``,
    the leaves ``fn`` reads, receive their gradients there; each input leaf
    then hands its gradient to its input's node. ``fn`` must depend on
    ``xs`` and ``params`` alone: the ops are deterministic, so the rebuilt
    tape and the gradients equal a kept tape's bit for bit, with one
    exception. An input with consumers outside ``fn`` gets one partial sum
    per recompute node, where a kept tape adds each of ``fn``'s
    contributions in its own order, so its gradient may differ in the last
    bit; ``OnetDecoder`` passes its norms' affines, not the latent they
    are computed from, for that reason. The users are the model forwards:
    each ``HiLoEncoder``, the blocks of ``HiLoGridDecoder`` before its
    upsampling, as one function, the ``OnetEncoder``, and the per-point
    path of each ``OnetDecoder`` block.
    """
    if not grad_enabled():
        out = fn(*xs)
        hand_over(*xs)
        return out
    datas, nodes = [x.data for x in xs], [x.node for x in xs]
    with no_grad():
        out = fn(*xs).data
    hand_over(*xs)

    def bw(g):
        with enable_grad():
            leaves = [Tensor(d, requires_grad=n is not None) for d, n in zip(datas, nodes)]
            y = fn(*leaves)
        hand_over(y)
        y.backward(seed=g, fresh=True)
        for leaf, n in zip(leaves, nodes):
            if n is not None and leaf.grad is not None:
                n.accumulate_grad(leaf.grad, fresh=True)

    return make_node(out, (*nodes, *(p.node for p in params)), bw)
