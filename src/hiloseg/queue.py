"""Bounded in-memory training queue with FIFO, occurrence, and hardness policies.

The queue decouples disk loading from batch formation: a loader reads the
next file while a gradient step runs and pushes it as the next batch forms,
one new instance per batch, so training never waits on the disk once steady
state is reached. Sampling and eviction follow the softmax weightings of the
occurrence/hardness policies; FIFO samples uniformly and evicts the oldest
entry.
"""

from __future__ import annotations

import itertools
import logging
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from .rng import make_rng

log = logging.getLogger(__name__)

POLICIES = ("fifo", "occurrence", "hardness")

# Hardness of a never-trained entry: effectively +inf, so fresh instances are
# sampled promptly and never become the eviction candidate before first training.
# Its softmax weight is 1 against 0 for every trained entry, so while fresh
# entries exist every hardness draw goes to one of them: with one push per
# step, a hardness batch holds only the newest instance, whatever the capacity.
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
    see the updated weights. Under the hardness policy, while any entry is
    fresh (never trained, at ``MAX_HARDNESS``) every draw of the batch goes
    to the fresh entries and none to a trained one.
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
    """Feeds a TrainingQueue one loaded file per batch, reading the next file
    while the current step runs.

    One worker thread loads files in cycle order. The trainer calls
    :meth:`next_batch` once per step; the call waits for the pending load,
    pushes it, hands the worker the next file unless the step is the last
    one, and samples the batch, all in the trainer's thread. Every push and
    eviction therefore falls between two steps, and disk I/O overlaps the
    gradient computation of the batch. Failed loads are logged and skipped,
    retrying with the next file in cycle order. A full cycle of files
    without one successful load makes :meth:`next_batch` raise the last
    error.
    """

    def __init__(self, queue: TrainingQueue, files: Iterable,
                 load_fn: Callable[[Any], Any]):
        self.queue = queue
        self.files = list(files)
        if not self.files:
            raise ValueError("file list must be nonempty")
        self.load_fn = load_fn
        self._cycle = itertools.cycle(enumerate(self.files))
        self._seq = 0
        self._pool: ThreadPoolExecutor | None = None
        self._pending: Future | None = None

    def start(self) -> "BatchLoader":
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hiloseg-loader")
        self._pending = self._pool.submit(self._load)
        return self

    def _load(self) -> tuple[int, Any]:
        """(file index, payload) of the next file in cycle order that loads."""
        for attempt in range(1, len(self.files) + 1):
            idx, path = next(self._cycle)
            try:
                return idx, self.load_fn(path)
            except Exception as exc:  # noqa: BLE001 - I/O contract: warn and retry
                if attempt == len(self.files):
                    log.error("loader failed on every file; last error on %r: %s", path, exc)
                    raise
                log.warning("loader failed on %r: %s; retrying with next file", path, exc)

    def next_batch(self, batch_size: int, rng, prefetch: bool = True) -> list[QueueEntry]:
        """Push this batch's file, then sample the batch.

        With ``prefetch`` false no next file is loaded, so a caller that
        knows its last batch reads no file it never pushes; the loader then
        has no further batch. Raises the last load error after a full cycle
        of failed loads, and ``RuntimeError`` when the loader is not running.
        """
        if self._pending is None:
            raise RuntimeError("loader is not running")
        idx, payload = self._pending.result()
        self.queue.push(QueueEntry(instance_id=(self._seq, idx), payload=payload))
        self._seq += 1
        self._pending = self._pool.submit(self._load) if prefetch else None
        return self.queue.sample_batch(batch_size, rng)

    def stop(self) -> None:
        """Drop the pending load and wait for the worker to finish."""
        self._pending = None
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
