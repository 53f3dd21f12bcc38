"""Reverse-mode autodiff over numpy arrays.

An op's result owns its array; the tape holds graph nodes without data
(``Tensor`` lists the parts a tensor plays). Each backward closure captures
only the arrays it reads (``nn.functional`` says which), so an activation
dies when the caller drops it unless a backward needs it: the reverse sweep
needs only the values it reads (Griewank & Walther 2008), which is also why
autograd keeps per-op saved tensors apart from the tensors a user holds
(Paszke et al. 2019). ``backward()`` topologically sorts the nodes and
propagates vector-Jacobian products, each arriving through
``Tensor.accumulate_grad``. Inference code wraps forward passes in
``no_grad()`` so no tape is built.

Arrays this core allocates register with a byte meter, which is how the
training-memory bound is measured: the meter's peak is the analog of device
memory (parameters, gradients, optimizer moments, the activations a caller
holds or a backward closure captured, conv3d's padded copies and the slab
columns of its input-gradient pass), deliberately excluding host-side
dataset storage. Only arrays that own their memory are counted, so scratch
that numpy returns as a view of a fresh copy (the slab columns ``reshape``
builds in conv3d's forward and weight-gradient passes) is not.
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
    """An array, or a node of the tape, or both.

    A tensor plays one of four parts:

    - a constant holds ``data`` only; no gradient flows into it;
    - a leaf (``requires_grad``: a parameter or an explicit-grad input)
      holds ``data`` and ``grad`` and is its own graph node;
    - an op result on the tape holds ``data`` and ``_node``, the graph node
      the op recorded; dropping the result frees its data unless a backward
      closure captured the array;
    - a graph node holds no data: the op's backward closure, the parent
      nodes, the gradient slot, ``shape`` and ``dtype``, and a weak
      reference to its op result.

    ``shape`` and ``dtype`` are fixed at construction; replacing a leaf's
    ``data`` must keep both.
    """

    __slots__ = ("data", "grad", "requires_grad", "shape", "dtype",
                 "_node", "_fn", "_inputs", "_handle", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float32)
        self.data = memory_meter.track(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.shape = data.shape
        self.dtype = data.dtype
        self._node: Tensor | None = None
        self._fn = None
        self._inputs: tuple = ()
        self._handle = None

    @property
    def node(self) -> "Tensor | None":
        """The graph node this tensor's gradient flows into: the recorded
        node of an op result on the tape, the tensor itself for a leaf, and
        None for a constant."""
        if self._node is not None:
            return self._node
        return self if self.requires_grad else None

    # The op result's view of its node, which is what the tests and the
    # benchmark's tracer read and rebind; ``backward`` calls what is set.
    @property
    def _backward(self):
        return (self if self._node is None else self._node)._fn

    @_backward.setter
    def _backward(self, fn) -> None:
        (self if self._node is None else self._node)._fn = fn

    @property
    def _parents(self) -> tuple:
        return (self if self._node is None else self._node)._inputs

    def accumulate_grad(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` into this node's gradient. ``fresh`` says the caller
        allocated ``g`` for this call alone; the first gradient then adopts
        it, if it owns its memory, is writeable and has this node's dtype,
        instead of copying it. Views, read-only broadcasts and arrays sent
        to more than one node are copied."""
        if g.shape != self.shape:
            raise ValueError(f"gradient shape {g.shape} != data shape {self.shape}")
        if self.grad is not None:
            self.grad += g
        elif fresh and g.base is None and g.flags.writeable and g.dtype == self.dtype:
            self.grad = memory_meter.track(g)
        else:
            self.grad = memory_meter.track(np.array(g, dtype=self.dtype, copy=True))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from this (scalar) tensor through the recorded tape.

        The tape is consumed: each node's closure, graph links and
        intermediate gradient are dropped once it has run, so the arrays a
        closure captured die with it, and an op result still held by the
        caller loses its data. A graph can only be walked once. Leaves
        (parameters and explicit-grad inputs) keep both their data and their
        accumulated gradients.
        """
        if self.data.size != 1:
            raise ValueError("backward() must start from a scalar tensor")
        root = self if self._node is None else self._node
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:  # iterative DFS; deep graphs would blow the recursion limit
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._inputs:
                if id(p) not in seen:
                    stack.append((p, False))
        root.accumulate_grad(np.ones_like(self.data))
        for node in reversed(topo):
            fn = node._fn
            if fn is not None and node.grad is not None:
                fn(node.grad)
            if node is not root and not node.requires_grad:
                # free intermediate grads eagerly; only leaves keep theirs
                node.grad = None
            if fn is not None:
                # Reverse topological order means every consumer of this node
                # already ran, so its closure (with the arrays it captured)
                # and graph links are dead weight from here on.
                node._fn = None
                node._inputs = ()
                handle = node._handle() if node is not root else None
                if handle is not None:
                    handle.data = None

    def item(self) -> float:
        """The value of a one-entry tensor."""
        if self.data.size != 1:
            raise ValueError(f"item() needs a tensor of one entry, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"


def parameter(data: np.ndarray) -> Tensor:
    return Tensor(np.ascontiguousarray(data), requires_grad=True)


def make_node(out_data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Wrap an op result. When gradients can flow, record its graph node:
    ``backward_fn`` pushes the node's gradient into ``parents``, the graph
    nodes of the op's inputs (None for a constant input). The closure must
    capture only the arrays it reads, never the input or output tensors."""
    out = Tensor(out_data)
    parents = tuple(p for p in parents if p is not None)
    if parents and grad_enabled():
        node = Tensor.__new__(Tensor)
        node.data = node.grad = node._node = None
        node.requires_grad = False
        node.shape, node.dtype = out.shape, out.dtype
        node._fn, node._inputs, node._handle = backward_fn, parents, weakref.ref(out)
        out._node = node
    return out
