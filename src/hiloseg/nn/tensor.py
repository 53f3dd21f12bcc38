"""Reverse-mode autodiff over numpy arrays.

A ``Tensor`` wraps an ndarray plus an optional gradient and a backward
closure recorded when the op that produced it ran. ``backward()`` topologically
sorts the tape and propagates vector-Jacobian products. Inference code wraps
forward passes in ``no_grad()`` so no tape (and no activation cache) is built.

Arrays this core allocates register with a byte meter, which is how the
training-memory bound is measured: the meter's peak is the analog of device
memory (parameters, gradients, optimizer moments, activations, conv3d's
padded copies and the slab columns of its input-gradient pass), deliberately
excluding host-side dataset storage. Only arrays that own their memory are
counted, so scratch that numpy returns as a view of a fresh copy (the slab
columns ``reshape`` builds in conv3d's forward and weight-gradient passes)
is not.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np


class _MemoryMeter:
    """Live bytes of the arrays registered with ``track``, each released by a
    weak-reference callback when its array is collected, in whatever thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.current = 0
        self.peak = 0
        self._refs: dict[int, weakref.ref] = {}

    def track(self, arr: np.ndarray) -> np.ndarray:
        if isinstance(arr, np.ndarray) and arr.base is None:  # views ride on their base
            key, nbytes = id(arr), arr.nbytes
            # made outside the lock: allocating may run a collection, whose
            # callbacks take the lock; a ref dropped unused never calls back
            ref = weakref.ref(arr, lambda r: self._release(key, r, nbytes))
            with self._lock:
                old = self._refs.get(key)
                if old is not None and old() is arr:
                    return arr  # already accounted; do not double-count
                self._refs[key] = ref
                self.current += nbytes
                if self.current > self.peak:
                    self.peak = self.current
        return arr

    def _release(self, key: int, ref: weakref.ref, nbytes: int) -> None:
        with self._lock:
            self.current -= nbytes
            if self._refs.get(key) is ref:  # the id may already name a newer array
                del self._refs[key]

    def reset_peak(self) -> None:
        with self._lock:
            self.peak = self.current


memory_meter = _MemoryMeter()

_grad_enabled = threading.local()


def grad_enabled() -> bool:
    return getattr(_grad_enabled, "value", True)


class no_grad:
    """Context manager disabling tape construction (forward-only mode)."""

    def __enter__(self):
        self._prev = grad_enabled()
        _grad_enabled.value = False
        return self

    def __exit__(self, *exc):
        _grad_enabled.value = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float32)
        self.data = memory_meter.track(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ValueError(f"gradient shape {g.shape} != data shape {self.data.shape}")
        if self.grad is None:
            self.grad = memory_meter.track(np.array(g, dtype=self.data.dtype, copy=True))
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from this (scalar) tensor through the recorded tape.

        The tape is consumed: intermediate activations are freed as soon as
        their gradient contribution has propagated, so a graph can only be
        walked once. Leaves (parameters and explicit-grad inputs) keep both
        their data and their accumulated gradients.
        """
        if self.data.size != 1:
            raise ValueError("backward() must start from a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:  # iterative DFS; deep graphs would blow the recursion limit
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(topo):
            fn = node._backward
            if fn is not None and node.grad is not None:
                fn(node.grad)
            if node is not self and not node.requires_grad:
                # free intermediate grads eagerly; only leaves keep theirs
                node.grad = None
            if fn is not None:
                # The tape is one-shot. Reverse topological order means every
                # consumer of this node already ran, so its closure, graph
                # links, and activation buffer are dead weight from here on;
                # dropping them keeps the backward-pass peak near the live
                # frontier instead of the whole forward history.
                node._backward = None
                node._parents = ()
                if node is not self:
                    node.data = None

    def item(self) -> float:
        """The value of a one-entry tensor."""
        if self.data.size != 1:
            raise ValueError(f"item() needs a tensor of one entry, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def parameter(data: np.ndarray) -> Tensor:
    return Tensor(np.ascontiguousarray(data), requires_grad=True)


def make_node(out_data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Wrap an op result, recording the tape edge only when gradients can flow."""
    if grad_enabled() and any(p.requires_grad or p._parents for p in parents):
        return Tensor(out_data, _parents=parents, _backward=backward_fn)
    return Tensor(out_data)
