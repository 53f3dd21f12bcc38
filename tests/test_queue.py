"""Training queue policies, eviction, and the one-load-per-batch loader."""

import threading
import time

import numpy as np
import pytest

from hiloseg.queue import MAX_HARDNESS, BatchLoader, QueueEntry, TrainingQueue


def entry(i, occurrences=0, hardness=MAX_HARDNESS):
    return QueueEntry(instance_id=i, payload=f"payload-{i}", occurrences=occurrences,
                      hardness=hardness)


class ReferenceQueue:
    """Plain-list mirror of the queue's eviction rules, for bisimulation."""

    def __init__(self, capacity, policy):
        self.capacity = capacity
        self.policy = policy
        self.items = []  # (instance_id, occurrences, hardness, insertion_index)
        self.next_index = 0

    def push(self, instance_id, occurrences, hardness):
        evicted = None
        if len(self.items) >= self.capacity:
            if self.policy == "fifo":
                pick = min(self.items, key=lambda t: t[3])
            elif self.policy == "occurrence":
                pick = max(self.items, key=lambda t: (t[1], -t[3]))
            else:
                pick = min(self.items, key=lambda t: (t[2], t[3]))
            self.items.remove(pick)
            evicted = pick[0]
        self.items.append((instance_id, occurrences, hardness, self.next_index))
        self.next_index += 1
        return evicted


class TestQueueBasics:
    def test_capacity_and_policy_validation(self):
        with pytest.raises(ValueError):
            TrainingQueue(capacity=0)
        with pytest.raises(ValueError):
            TrainingQueue(policy="lifo")

    def test_duplicate_id_rejected(self):
        q = TrainingQueue(capacity=4)
        q.push(entry("a"))
        with pytest.raises(ValueError):
            q.push(entry("a"))

    def test_len_and_contains(self):
        q = TrainingQueue(capacity=4)
        q.push(entry("a"))
        q.push(entry("b"))
        assert len(q) == 2
        assert set(q._entries) == {"a", "b"}

    def test_capacity_never_exceeded(self):
        q = TrainingQueue(capacity=3, policy="fifo")
        for i in range(10):
            q.push(entry(i))
            assert len(q) <= 3

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            TrainingQueue().sample_batch(1, 0)

    def test_update_hardness_unknown_id(self):
        q = TrainingQueue()
        q.push(entry("a"))
        q.update_hardness("a", 0.5)
        with pytest.raises(KeyError):
            q.update_hardness("b", 0.5)


class TestEvictionOrder:
    def test_fifo_evicts_insertion_order(self):
        q = TrainingQueue(capacity=3, policy="fifo")
        for i in range(3):
            q.push(entry(i))
        assert q.push(entry(3)) == 0
        assert q.push(entry(4)) == 1
        assert set(q._entries) == {2, 3, 4}

    def test_occurrence_evicts_most_seen(self):
        q = TrainingQueue(capacity=3, policy="occurrence")
        q.push(entry("a", occurrences=5))
        q.push(entry("b", occurrences=1))
        q.push(entry("c", occurrences=9))
        assert q.push(entry("d")) == "c"
        assert q.push(entry("e")) == "a"

    def test_occurrence_ties_break_by_age(self):
        q = TrainingQueue(capacity=2, policy="occurrence")
        q.push(entry("old", occurrences=2))
        q.push(entry("new", occurrences=2))
        assert q.push(entry("x")) == "old"

    def test_hardness_evicts_easiest(self):
        q = TrainingQueue(capacity=3, policy="hardness")
        q.push(entry("a", hardness=0.9))
        q.push(entry("b", hardness=0.1))
        q.push(entry("c", hardness=0.5))
        assert q.push(entry("d")) == "b"

    def test_fresh_entries_never_evicted_by_hardness(self):
        """Entries start at MAX_HARDNESS, so anything already trained on
        (finite loss) goes first."""
        q = TrainingQueue(capacity=2, policy="hardness")
        q.push(entry("fresh"))
        q.push(entry("trained", hardness=123.0))
        assert q.push(entry("x")) == "trained"

    def test_hardness_ties_break_by_age(self):
        q = TrainingQueue(capacity=2, policy="hardness")
        q.push(entry("old", hardness=0.5))
        q.push(entry("new", hardness=0.5))
        assert q.push(entry("x")) == "old"

    @pytest.mark.parametrize("policy", ["fifo", "occurrence", "hardness"])
    def test_eviction_bisimulation(self, policy):
        """10^4 random pushes agree with a plain-list reference model."""
        rng = np.random.default_rng(77)
        q = TrainingQueue(capacity=17, policy=policy)
        ref = ReferenceQueue(capacity=17, policy=policy)
        for i in range(10_000):
            occ = int(rng.integers(0, 6))
            hard = float(rng.choice([0.05, 0.3, 0.7, 2.0, MAX_HARDNESS]))
            got = q.push(entry(i, occurrences=occ, hardness=hard))
            want = ref.push(i, occ, hard)
            assert got == want, f"divergence at push {i}: {got} vs {want}"
        assert set(q._entries) == {t[0] for t in ref.items}


class TestSamplingDistribution:
    def test_fifo_uniform_closed_form(self):
        q = TrainingQueue(capacity=4, policy="fifo")
        for i in range(4):
            q.push(entry(i, occurrences=i * 3))  # occurrences must not matter
        counts = self._first_draw_counts(q, 40_000)
        for c in counts.values():
            assert abs(c / 40_000 - 0.25) < 0.01

    def test_occurrence_closed_form_two_entries(self):
        """P(i) = e^{-o_i} / sum e^{-o_j}; o = (0, 1) gives (0.731, 0.269)."""
        q = TrainingQueue(capacity=2, policy="occurrence")
        q.push(entry("a", occurrences=0))
        q.push(entry("b", occurrences=1))
        counts = self._first_draw_counts(q, 50_000)
        want_a = 1.0 / (1.0 + np.exp(-1.0))
        assert abs(counts["a"] / 50_000 - want_a) < 0.01

    def test_hardness_closed_form(self):
        """P(i) = e^{h_i} / sum e^{h_j}; h = (0, ln 3) gives (0.25, 0.75)."""
        q = TrainingQueue(capacity=2, policy="hardness")
        q.push(entry("a", hardness=0.0))
        q.push(entry("b", hardness=float(np.log(3.0))))
        counts = self._first_draw_counts(q, 50_000)
        assert abs(counts["a"] / 50_000 - 0.25) < 0.01
        assert abs(counts["b"] / 50_000 - 0.75) < 0.01

    def test_max_hardness_dominates_finite(self):
        q = TrainingQueue(capacity=2, policy="hardness")
        q.push(entry("fresh"))  # MAX_HARDNESS
        q.push(entry("easy", hardness=1.0))
        batch = q.sample_batch(1, 0)
        assert batch[0].instance_id == "fresh"

    def test_sequential_occurrence_update_within_batch(self):
        """Each draw bumps the drawn entry before the next draw looks."""
        q = TrainingQueue(capacity=2, policy="occurrence")
        q.push(entry("a"))
        q.push(entry("b"))
        drawn = [e.instance_id for e in q.sample_batch(64, 3)]
        # a long run on one entry is astronomically unlikely once its
        # occurrence count (and so its weight) keeps dropping
        longest = max(
            len(list(g)) for _, g in __import__("itertools").groupby(drawn)
        )
        assert longest < 12
        assert sum(e.occurrences for e in q._entries.values()) == 64

    @staticmethod
    def _first_draw_counts(q, n):
        counts = {}
        occ_before = {i: e.occurrences for i, e in q._entries.items()}
        for trial in range(n):
            got = q.sample_batch(1, trial)[0]
            counts[got.instance_id] = counts.get(got.instance_id, 0) + 1
            got.occurrences -= 1  # undo the draw so every trial sees the same state
        for i, o in occ_before.items():
            assert q._entries[i].occurrences == o
        return counts


def loader_threads_alive():
    # the executor names its worker "hiloseg-loader_0"
    return [t for t in threading.enumerate()
            if t.name.startswith("hiloseg-loader") and t.is_alive()]


class TestBatchLoader:
    def test_one_load_per_batch(self):
        q = TrainingQueue(capacity=64, policy="fifo")
        loader = BatchLoader(q, files=[f"f{i}" for i in range(10)], load_fn=lambda p: p.upper())
        loader.start()
        try:
            for step in range(50):
                batch = loader.next_batch(4, step)
                assert len(batch) == 4
                assert len(q) == step + 1
        finally:
            loader.stop()
        assert [e.payload for e in q._entries.values()] == [f"F{i % 10}" for i in range(50)]

    def test_next_file_loads_while_the_step_runs(self):
        started = [threading.Event() for _ in range(2)]

        def load(path):
            started[int(path)].set()
            return path

        loader = BatchLoader(TrainingQueue(capacity=4), files=["0", "1"], load_fn=load).start()
        try:
            loader.next_batch(1, 0)
            # no further next_batch call: the worker starts the second file by itself
            assert started[1].wait(timeout=5.0)
        finally:
            loader.stop()

    def test_last_batch_without_prefetch_loads_no_further_file(self):
        calls = []
        loader = BatchLoader(TrainingQueue(capacity=4), files=["a", "b"],
                             load_fn=lambda p: calls.append(p) or p).start()
        try:
            loader.next_batch(1, 0)
            loader.next_batch(1, 1, prefetch=False)
            with pytest.raises(RuntimeError, match="not running"):
                loader.next_batch(1, 2)
        finally:
            loader.stop()
        assert calls == ["a", "b"]

    def test_payloads_come_from_load_fn(self):
        q = TrainingQueue(capacity=4, policy="fifo")
        loader = BatchLoader(q, files=["x"], load_fn=lambda p: {"path": p}).start()
        try:
            batch = loader.next_batch(1, 0)
            assert batch[0].payload == {"path": "x"}
        finally:
            loader.stop()

    def test_failed_loads_skip_to_next_file(self, caplog):
        def flaky(path):
            if path == "bad":
                raise OSError("corrupt file")
            return path

        q = TrainingQueue(capacity=8, policy="fifo")
        loader = BatchLoader(q, files=["bad", "good"], load_fn=flaky).start()
        try:
            batch = loader.next_batch(1, 0)
            assert batch[0].payload == "good"
        finally:
            loader.stop()
        assert "corrupt file" in caplog.text

    def test_empty_file_list_rejected(self):
        with pytest.raises(ValueError):
            BatchLoader(TrainingQueue(), files=[], load_fn=lambda p: p)

    def test_dead_loader_raises_instead_of_hanging(self):
        """After stop, a batch is refused at once, whether the next load had
        finished or was still running when the loader stopped."""
        for load_s in (0.0, 0.2):

            def load(path):
                time.sleep(load_s)
                return path

            q = TrainingQueue(capacity=4)
            loader = BatchLoader(q, files=["a"], load_fn=load).start()
            loader.next_batch(1, 0)
            loader.stop()
            assert not loader_threads_alive()
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="not running"):
                loader.next_batch(1, 1)
            assert time.monotonic() - start < 1.0
            assert len(q) == 1

    def test_unstarted_loader_raises(self):
        with pytest.raises(RuntimeError, match="not running"):
            BatchLoader(TrainingQueue(), files=["a"], load_fn=lambda p: p).next_batch(1, 0)

    def test_every_load_failing_raises_last_error(self):
        """A full cycle of failed loads ends the loading; the batch gets the
        last error instead of waiting forever, and no file is tried again."""
        calls = []

        def broken(path):
            calls.append(path)
            raise OSError(f"cannot read {path}")

        loader = BatchLoader(TrainingQueue(capacity=4), files=["a", "b", "c"], load_fn=broken)
        loader.start()
        start = time.monotonic()
        try:
            with pytest.raises(OSError, match="cannot read c"):
                loader.next_batch(1, 0)
            with pytest.raises(OSError, match="cannot read c"):
                loader.next_batch(1, 1)
        finally:
            loader.stop()
        assert time.monotonic() - start < 5.0
        assert calls == ["a", "b", "c"]
        assert not loader_threads_alive()

    def test_ids_stay_unique_across_file_cycles(self):
        """Cycling a short file list re-pushes the same files; sequence
        numbers keep instance ids distinct."""
        q = TrainingQueue(capacity=32, policy="fifo")
        loader = BatchLoader(q, files=["a", "b"], load_fn=lambda p: p).start()
        try:
            for step in range(12):
                loader.next_batch(1, step)
        finally:
            loader.stop()
        ids = list(q._entries)
        assert len(ids) == len(set(ids)) == 12
        assert ids == [(k, k % 2) for k in range(12)]
