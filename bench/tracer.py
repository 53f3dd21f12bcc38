"""In-memory span tracer and the probes that attach it to ``hiloseg``.

A span is one call into a wrapped function: (name, start, end, parent),
recorded in a list owned by the calling thread, so spans of the trainer's
loader thread never become children of a training step. Spans stay in
memory until the run ends; ``aggregate`` then turns them into per-name call
counts, inclusive times and self times (a span's duration minus the part of
it that its child spans cover).

``Probes.install`` replaces every binding a caller can look a probed
function up by: the defining module's global, every ``from x import name``
copy in other ``hiloseg`` modules, default argument values that captured
the function (residual blocks bind their activation that way), and methods
on classes and on the module-level byte meter. ``nn`` ops additionally get
their returned node's backward closure wrapped, so backward time lands on
the op that recorded it.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

# nn.functional ops that are timed forward and backward, named nn.<op>.
NN_OPS = (
    "conv3d", "matmul", "add", "mul", "leaky_relu", "selu", "sigmoid",
    "batch_standardize", "avg_pool3d", "upsample_nearest3d", "concat",
    "repeat_middle", "bce_loss", "focal_loss",
)

# (module, attribute, span name) of plain functions probed by name.
FUNCTIONS = (
    ("hiloseg.voxel", "build_pyramid", "voxel.build_pyramid"),
    ("hiloseg.voxel", "extract_window", "voxel.extract_window"),
    ("hiloseg.voxel", "average_pool", "voxel.average_pool"),
    ("hiloseg.sampling", "sample_biased_coords", "sampling.sample_biased_coords"),
    ("hiloseg.data_io", "load_volume", "data_io.load_volume"),
    ("hiloseg.data_io", "write_dataset", "data_io.write_dataset"),
    ("hiloseg.nn.checkpoint", "save_checkpoint", "nn.checkpoint.save"),
    ("hiloseg.nn.checkpoint", "load_checkpoint", "nn.checkpoint.load"),
    ("hiloseg.models.hilo", "hilo_forward", "models.hilo_forward"),
    ("hiloseg.models.onet", "onet_encode", "models.onet_encode"),
    ("hiloseg.models.onet", "onet_decode", "models.onet_decode"),
    ("hiloseg.models.train", "train_hilo", "models.train_hilo"),
    ("hiloseg.models.train", "train_superres_onet", "models.train_superres_onet"),
    ("hiloseg.inference", "segment_volume", "inference.segment_volume"),
    ("hiloseg.inference", "mise_evaluate", "inference.mise_evaluate"),
)

# (module, class, method, span name) of methods probed on their class.
METHODS = (
    ("hiloseg.nn.tensor", "Tensor", "backward", "nn.backward"),
    ("hiloseg.nn.tensor", "Tensor", "accumulate_grad", "nn.accumulate_grad"),
    ("hiloseg.nn.optim", "Adam", "step", "nn.adam.step"),
    ("hiloseg.queue", "BatchLoader", "next_batch", "queue.next_batch"),
    ("hiloseg.queue", "TrainingQueue", "sample_batch", "queue.sample_batch"),
    ("hiloseg.models.hilo", "HiLoModel", "forward_batch", "models.forward_batch"),
)

METER_TRACK = "nn.meter.track"


@dataclass
class ThreadSpans:
    """Spans recorded by one thread; ``parent`` indexes into ``spans``."""

    thread: str
    spans: list = field(default_factory=list)  # [name, start, end, parent]
    stack: list = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[ThreadSpans] = []

    def _thread_spans(self) -> ThreadSpans:
        ts = getattr(self._local, "ts", None)
        if ts is None:
            ts = ThreadSpans(threading.current_thread().name)
            self._local.ts = ts
            with self._lock:
                self.threads.append(ts)
        return ts

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        local = self._local
        thread_spans = self._thread_spans

        def traced(*args, **kwargs):
            ts = getattr(local, "ts", None) or thread_spans()
            stack = ts.stack
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(ts.spans))
            ts.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _Span(self, name)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.ts = tracer._thread_spans()
        self.name = name

    def __enter__(self):
        stack = self.ts.stack
        self.rec = [self.name, perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(self.ts.spans))
        self.ts.spans.append(self.rec)
        return self

    def __exit__(self, *exc):
        self.rec[2] = perf_counter()
        self.ts.stack.pop()
        return False


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children.

    Children are clipped to their parent's interval, so a child that was
    still open when the parent's clock stopped cannot push the result below
    zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(max(end - start, 0.0) - covered)
    return out


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def aggregate(tracer: Tracer) -> dict[str, SpanStats]:
    """Per span name: call count, inclusive time and self time, all threads."""
    stats: dict[str, SpanStats] = {}
    for ts in tracer.threads:
        for (name, start, end, _), own in zip(ts.spans, self_times(ts.spans)):
            s = stats.setdefault(name, SpanStats())
            s.calls += 1
            s.total_s += end - start
            s.self_s += own
    return stats


def children_of(ts: ThreadSpans, parent_name: str):
    """Yield (parent span, [child spans in start order]) for each named parent."""
    kids: dict[int, list] = {}
    for span in ts.spans:
        if span[3] >= 0:
            kids.setdefault(span[3], []).append(span)
    for i, span in enumerate(ts.spans):
        if span[0] == parent_name:
            yield span, sorted(kids.get(i, ()), key=lambda s: s[1])


# ---------------------------------------------------------------------------
# probes on hiloseg


def _wrap_op(tracer: Tracer, name: str, fn):
    """Forward span around the op, and a backward span around its closure."""
    forward = tracer.wrap(f"nn.{name}", fn)
    bwd_name = f"nn.{name}.bwd"

    def op(*args, **kwargs):
        result = forward(*args, **kwargs)
        node = result[0] if isinstance(result, tuple) else result
        bw = getattr(node, "_backward", None)
        # An op may return its input unchanged (factor 1) or another op's node
        # (a 1x1 conv is a matmul); that closure is not this op's to time.
        if bw is not None and not hasattr(bw, "__wrapped__") and not any(node is a for a in args):
            node._backward = tracer.wrap(bwd_name, bw)
        return result

    op.__wrapped__ = fn
    return op


class Probes:
    """Installed wrappers, and the record needed to take them out again."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._restore: list = []
        self._lock = threading.Lock()
        self.load_bytes = 0  # bytes of volumes returned by data_io.load_volume

    def _count_load(self, load_volume):
        def counted(*args, **kwargs):
            vol = load_volume(*args, **kwargs)
            with self._lock:  # the trainer's loader thread loads too
                self.load_bytes += vol.data.nbytes
            return vol

        return counted

    def _set(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
        setattr(obj, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Point every hiloseg global and default argument at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hiloseg" or mod_name.startswith("hiloseg.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                for fn in _functions_in(value, mod_name):
                    defaults = fn.__defaults__
                    if defaults and any(d is original for d in defaults):
                        # __defaults__ lives outside the function's __dict__
                        self._restore.append((fn, "__defaults__", defaults))
                        fn.__defaults__ = tuple(wrapper if d is original else d for d in defaults)

    def install(self) -> "Probes":
        import importlib

        from hiloseg.nn import functional as F
        from hiloseg.nn.tensor import memory_meter

        t = self.tracer
        for op in NN_OPS:
            original = getattr(F, op)
            self._rebind(original, _wrap_op(t, op, original))
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            inner = self._count_load(original) if name == "data_io.load_volume" else original
            self._rebind(original, t.wrap(name, inner))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._set(cls, attr, t.wrap(name, cls.__dict__[attr]))
        # every caller reaches the meter through the one module-level instance
        self._set(memory_meter, "track", t.wrap(METER_TRACK, memory_meter.track))
        return self

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            if value is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, value)
        self._restore.clear()


_MISSING = object()


def _functions_in(value, mod_name: str):
    """Functions defined in ``mod_name``: module-level ones and class methods."""
    if getattr(value, "__module__", None) != mod_name:
        return
    if isinstance(value, type):
        for member in vars(value).values():
            if hasattr(member, "__defaults__"):
                yield member
    elif hasattr(value, "__defaults__"):
        yield value


def missing_calls(stats: dict[str, SpanStats], expected) -> list[str]:
    """Expected span names that recorded no call (a binding the probes missed)."""
    return sorted(name for name in expected if stats.get(name, SpanStats()).calls == 0)
