"""Shared fixtures, the finite-difference gradient checker, a summing
backward, the byte meter's peak probe, calls that keep their arguments, a
bit-equality assertion and a training queue's eviction record."""

import contextlib
import gc

import numpy as np
import pytest

from hiloseg.models.hilo import HiLoModel
from hiloseg.nn.layers import Module, Norm, ResidualBlockFC
from hiloseg.nn.tensor import memory_meter


def meter_peak(fn) -> int:
    """Byte-meter peak while ``fn`` runs, above the level at its start."""
    gc.collect()
    memory_meter.reset_peak()
    base = memory_meter.current
    fn()
    return memory_meter.peak - base


def _module_classes(cls=Module):
    for sub in cls.__subclasses__():
        yield sub
        yield from _module_classes(sub)


def _holding(fn):
    def held(*args, **kwargs):
        return fn(*args, **kwargs)  # args and kwargs live until fn returns

    return held


@contextlib.contextmanager
def held_arguments():
    """Inside the block, every model-level call keeps its arguments alive
    until it returns, as an instance call, a star-call, a tracing wrapper
    or CPython 3.10's plain calls do: the ``__call__`` of each of the
    package's ``nn.Module`` subclasses, ``Norm.scaled``,
    ``ResidualBlockFC.points`` and ``HiLoModel.forward_batch`` are wrapped.
    A memory figure that holds inside it does not rest on how a call is
    spelled."""
    methods = [(cls, "__call__") for cls in set(_module_classes())
               if cls.__module__.startswith("hiloseg.") and "__call__" in vars(cls)]
    methods += [(Norm, "scaled"), (ResidualBlockFC, "points"), (HiLoModel, "forward_batch")]
    originals = [(cls, name, vars(cls)[name]) for cls, name in methods]
    try:
        for cls, name, fn in originals:
            setattr(cls, name, _holding(fn))
        yield
    finally:
        for cls, name, fn in originals:
            setattr(cls, name, fn)


def backward_sum(y) -> None:
    """Backpropagate the sum of ``y``'s entries: ``y`` is the root, and each
    entry is seeded with 1. ``y`` drops its data first, as the input of a
    summing root would."""
    y.data = None
    y.backward(seed=np.ones(y.shape, y.dtype), fresh=True)


def assert_same_bits(got, want, what: str = "") -> None:
    """``got`` has ``want``'s dtype, shape and bytes, NaN payloads and signed
    zeros included."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    if got.tobytes() != want.tobytes():
        bits = f"u{got.itemsize}"
        n = np.count_nonzero(got.view(bits) != want.view(bits))
        raise AssertionError(f"{what}: {n} of {got.size} entries differ in their bits")


def recording_evictions(queue) -> list:
    """Wrap ``queue.push`` so each push appends what it evicted (or None)."""
    evicted, push = [], queue.push

    def recording_push(entry):
        evicted.append(push(entry))
        return evicted[-1]

    queue.push = recording_push
    return evicted


def finite_difference_check(build, tensors, n_probes=50, eps=1e-5,
                            tol=1e-4, rng=None, reduce="mean"):
    """Compare analytic gradients against central finite differences.

    ``build`` maps nothing to a fresh Tensor, and the loss is the mean (or
    with ``reduce="sum"``, the sum) of its entries; ``build`` must reread
    the current values of ``tensors``, which this helper perturbs in place.
    ``tensors`` are the leaves whose gradients are probed; each must have
    requires_grad set. Probes are random scalar positions across all leaves.
    Returns the worst relative error seen.
    """
    rng = np.random.default_rng(rng)

    def loss_value():
        y = build().data
        return float(y.mean() if reduce == "mean" else y.sum())

    for t in tensors:
        t.zero_grad()
    y = build()
    weight = 1 / y.data.size if reduce == "mean" else 1.0
    y.backward(seed=np.full(y.shape, weight, y.dtype), fresh=True)
    grads = [np.array(t.grad, copy=True) for t in tensors]

    worst = 0.0
    sizes = np.array([t.data.size for t in tensors])
    probs = sizes / sizes.sum()
    for _ in range(n_probes):
        ti = int(rng.choice(len(tensors), p=probs))
        t = tensors[ti]
        flat = t.data.reshape(-1)
        j = int(rng.integers(flat.size))
        keep = flat[j]
        flat[j] = keep + eps
        up = loss_value()
        flat[j] = keep - eps
        down = loss_value()
        flat[j] = keep
        numeric = (up - down) / (2 * eps)
        analytic = grads[ti].reshape(-1)[j]
        denom = max(abs(numeric), abs(analytic), 1e-6)
        rel = abs(numeric - analytic) / denom
        worst = max(worst, rel)
        assert rel < tol, (
            f"gradient mismatch at tensor {ti} position {j}: "
            f"analytic {analytic:.3e} vs numeric {numeric:.3e} (rel {rel:.2e})"
        )
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
