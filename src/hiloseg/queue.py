"""Bounded in-memory training queue with FIFO, occurrence, and hardness policies.

The queue decouples disk loading from batch formation: a loader pushes one
new instance per formed batch while gradient steps run, so training never
waits on the disk once steady state is reached. Sampling and eviction follow
the softmax weightings of the occurrence/hardness policies; FIFO samples
uniformly and evicts the oldest entry.
"""

from __future__ import annotations

import itertools
import logging
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from .rng import make_rng

log = logging.getLogger(__name__)

POLICIES = ("fifo", "occurrence", "hardness")

# Hardness of a never-trained entry: effectively +inf, so fresh instances are
# sampled promptly and never become the eviction candidate before first training.
MAX_HARDNESS = float(np.finfo(np.float64).max)


@dataclass
class QueueEntry:
    instance_id: Any
    payload: Any
    occurrences: int = 0
    hardness: float = MAX_HARDNESS
    insertion_index: int = field(default=0, compare=False)


class TrainingQueue:
    """Bounded pool of training instances with policy-weighted sampling.

    Holds at most ``capacity`` entries; ``policy`` (one of ``POLICIES``)
    weights both the draws and the choice of the entry to evict. Draws are
    sequential and with replacement; each draw increments the drawn entry's
    occurrence count immediately, so later draws within one batch already
    see the updated weights.
    """

    def __init__(self, capacity: int = 512, policy: str = "fifo"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self._entries: dict[Any, QueueEntry] = {}
        self._counter = itertools.count()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def instance_ids(self) -> list:
        return list(self._entries)

    # -- policy internals ---------------------------------------------------

    def _evict_candidate(self) -> Any:
        entries = self._entries.values()
        if self.policy == "fifo":
            key = lambda e: e.insertion_index
            return min(entries, key=key).instance_id
        if self.policy == "occurrence":
            # most occurrences out first; ties broken by age (older first)
            return max(entries, key=lambda e: (e.occurrences, -e.insertion_index)).instance_id
        # hardness: best (lowest) training loss out first; ties by age
        return min(entries, key=lambda e: (e.hardness, e.insertion_index)).instance_id

    def _weights(self, entries: list[QueueEntry]) -> np.ndarray:
        if self.policy == "fifo":
            return np.full(len(entries), 1.0 / len(entries))
        if self.policy == "occurrence":
            score = np.array([-e.occurrences for e in entries], dtype=np.float64)
        else:
            score = np.array([e.hardness for e in entries], dtype=np.float64)
        score -= score.max()  # softmax shift invariance keeps exp() finite
        w = np.exp(score)
        return w / w.sum()

    # -- operations ----------------------------------------------------------

    def push(self, entry: QueueEntry):
        """Insert an entry, evicting one per policy when at capacity.

        Returns the evicted instance_id, or None.
        """
        with self._lock:
            if entry.instance_id in self._entries:
                raise ValueError(f"instance {entry.instance_id!r} is already queued")
            evicted = None
            if len(self._entries) >= self.capacity:
                evicted = self._evict_candidate()
                del self._entries[evicted]
            entry.insertion_index = next(self._counter)
            self._entries[entry.instance_id] = entry
            return evicted

    def sample_batch(self, batch_size: int, rng) -> list[QueueEntry]:
        rng = make_rng(rng)
        with self._lock:
            if not self._entries:
                raise ValueError("cannot sample from an empty queue")
            pool = list(self._entries.values())
            out: list[QueueEntry] = []
            for _ in range(batch_size):
                entry = pool[int(rng.choice(len(pool), p=self._weights(pool)))]
                entry.occurrences += 1  # sequential update: next draw sees it
                out.append(entry)
            return out

    def update_hardness(self, instance_id, loss: float) -> None:
        with self._lock:
            if instance_id not in self._entries:
                raise KeyError(f"unknown instance {instance_id!r}")
            self._entries[instance_id].hardness = float(loss)


class BatchLoader:
    """Single producer thread feeding a TrainingQueue, one file per batch.

    The trainer calls :meth:`next_batch` once per step; the call blocks until
    the loader has pushed exactly one new instance for this batch, samples the
    batch under the queue lock, and releases the loader to start reading the
    next file. Disk I/O therefore overlaps gradient computation of the
    current batch. Failed loads are logged and skipped, retrying with the
    next file in cycle order. A full cycle of files without one successful
    load stops the loader, and :meth:`next_batch` raises the last error.
    """

    def __init__(self, queue: TrainingQueue, files: Iterable,
                 load_fn: Callable[[Any], Any]):
        self.queue = queue
        self.files = list(files)
        if not self.files:
            raise ValueError("file list must be nonempty")
        self.load_fn = load_fn
        self.load_count = 0
        self._push_done = threading.Semaphore(0)
        self._batch_done = threading.Semaphore(0)
        self._stop = threading.Event()
        self._seq = 0
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    def start(self) -> "BatchLoader":
        self._thread = threading.Thread(target=self._run, name="hiloseg-loader", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        files = itertools.cycle(enumerate(self.files))
        failures = 0  # consecutive, since the last successful load
        while not self._stop.is_set():
            idx, path = next(files)
            try:
                payload = self.load_fn(path)  # slow part happens outside the queue lock
                self.load_count += 1
            except Exception as exc:  # noqa: BLE001 - I/O contract: warn and retry
                failures += 1
                if failures >= len(self.files):
                    log.error("loader failed on every file; last error on %r: %s", path, exc)
                    self._error = exc
                    return
                log.warning("loader failed on %r: %s; retrying with next file", path, exc)
                continue
            failures = 0
            instance_id = (self._seq, idx)
            self._seq += 1
            self.queue.push(QueueEntry(instance_id=instance_id, payload=payload))
            self._push_done.release()
            self._batch_done.acquire()

    def next_batch(self, batch_size: int, rng) -> list[QueueEntry]:
        """Block until this batch's file push landed, then sample the batch.

        Raises the loader's last error once it stopped after a full cycle of
        failed loads.
        """
        while not self._push_done.acquire(timeout=0.5):
            if self._error is not None:
                raise self._error
            if self._stop.is_set():
                raise RuntimeError("loader stopped while a batch was pending")
            if self._thread is not None and not self._thread.is_alive():
                raise RuntimeError("loader thread died before the batch was ready")
        batch = self.queue.sample_batch(batch_size, rng)
        self._batch_done.release()
        return batch

    def stop(self) -> None:
        self._stop.set()
        self._batch_done.release()  # unblock a loader waiting on batch completion
        if self._thread is not None:
            self._thread.join(timeout=5.0)
