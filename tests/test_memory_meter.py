"""The byte meter: each array that owns its memory counts once while it
lives, whichever thread or collection releases it."""

import gc
import threading

import numpy as np

from hiloseg.nn.tensor import _MemoryMeter


def test_tracking_twice_counts_once():
    meter = _MemoryMeter()
    arr = np.zeros(1000, dtype=np.float64)
    meter.track(arr)
    meter.track(arr)
    assert meter.current == arr.nbytes


def test_views_count_zero():
    meter = _MemoryMeter()
    base = np.zeros(1000, dtype=np.float64)
    meter.track(base[100:900])
    meter.track(base.reshape(10, 100))
    assert meter.current == 0


def test_bytes_released_when_collected():
    meter = _MemoryMeter()
    arr = meter.track(np.zeros(1000, dtype=np.float64))
    del arr
    assert meter.current == 0 and meter.peak == 8000
    cycle = [meter.track(np.zeros(500, dtype=np.float64))]
    cycle.append(cycle)  # freed only by the cycle collector
    del cycle
    gc.collect()
    assert meter.current == 0


def test_reused_id_counts_the_new_array():
    """A new array may take a collected one's id; it is tracked afresh,
    and the old array's release leaves the new one counted."""
    meter = _MemoryMeter()
    for _ in range(50):
        meter.track(np.zeros(100, dtype=np.float64))  # each dies on the spot
    keep = [meter.track(np.zeros(100, dtype=np.float64)) for _ in range(50)]
    assert meter.current == 50 * 800
    del keep
    assert meter.current == 0


def test_release_from_another_thread_is_counted():
    meter = _MemoryMeter()
    box = [meter.track(np.zeros(1000, dtype=np.float64))]
    worker = threading.Thread(target=box.clear)  # drops the last reference
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert meter.current == 0


def test_reset_peak():
    meter = _MemoryMeter()
    keep = meter.track(np.zeros(64, dtype=np.float32))
    meter.track(np.zeros((512, 512), dtype=np.float32))
    assert meter.peak == keep.nbytes + 512 * 512 * 4
    meter.reset_peak()
    assert meter.peak == meter.current == keep.nbytes
