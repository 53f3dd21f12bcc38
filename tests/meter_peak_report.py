"""Where the byte meter's peak sits, for each run of the memory claim.

Not a tier-1 test (no ``test_`` prefix). It runs each configuration of
``test_memory_claim.py`` and the benchmark's three workloads' models at 32³
(``hilo-train``'s trainer, ``hilo-segment``'s deep-pyramid segmentation of
one window, ``onet-sr``'s trainer) and prints, per run, the meter's peak
above the level at its start, the metered arrays alive when the peak was
set, grouped by shape and dtype, and the call stack that set it. It wraps
``memory_meter.track`` for the run, as the benchmark's tracer does, and
reads the meter's table of live arrays each time the peak rises. It then
builds and runs the same configuration once more, unwrapped, under
tracemalloc, and prints tracemalloc's peak above its start next to the
meter's, so a gain on the meter can be checked against the host bytes
Python allocated. Run it from a tree's root, optionally naming the runs
to report:

    PYTHONPATH=src python3 tests/meter_peak_report.py [run ...]
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import traceback
import tracemalloc
from collections import Counter

from conftest import held_arguments, meter_peak
from test_memory_claim import (
    CFG,
    DEEP,
    ONET_TRAIN,
    TRAIN,
    benchmark_occupancy_training,
    benchmark_training,
    occupancy_encoding,
    occupancy_training,
    training_step,
    window_segmentation,
)

from hiloseg.nn.tensor import memory_meter


def _runs():
    """(name, builder): each builder makes its inputs and returns the run."""
    yield "claim-train-32", lambda: training_step(CFG)
    yield "claim-segment-32", lambda: window_segmentation(CFG)
    yield "claim-onet-encode-32", lambda: occupancy_encoding(32)
    for levels in (1, 2, 3, 4):
        cfg = dataclasses.replace(DEEP, levels=levels, downsampling_factor=4 if levels < 4 else 2)
        yield f"segment-levels-{levels}", lambda cfg=cfg: window_segmentation(cfg)
    for levels in (1, 2, 3, 4):
        cfg = dataclasses.replace(TRAIN, levels=levels)
        yield f"train-levels-{levels}", lambda cfg=cfg: training_step(cfg)
    for blocks in (3, 4, 6):
        cfg = dataclasses.replace(TRAIN, cnn_decoder_blocks=blocks)
        yield f"train-pooled-blocks-{blocks}", lambda cfg=cfg: training_step(cfg)
    for conditioning in ("cbn", "concat"):
        for blocks in (1, 2, 3, 4):
            cfg = dataclasses.replace(ONET_TRAIN, conditioning=conditioning, decoder_blocks=blocks)
            yield (f"onet-train-{conditioning}-blocks-{blocks}",
                   lambda cfg=cfg: occupancy_training(cfg, 2))
    for blocks in (1, 2, 3, 6):
        cfg = dataclasses.replace(ONET_TRAIN, encoder_blocks=blocks, decoder_blocks=2)
        yield f"onet-train-encoder-blocks-{blocks}", lambda cfg=cfg: occupancy_training(cfg, 4)
    yield "bench-hilo-train-32", lambda: benchmark_training(32)
    yield "bench-hilo-segment-32", lambda: window_segmentation(DEEP)
    yield "bench-onet-sr-32", lambda: benchmark_occupancy_training((32, 32, 32))


def _live_arrays() -> Counter:
    """(shape, dtype) -> count of the metered arrays alive now."""
    arrays = (ref() for ref in list(memory_meter._refs.values()))
    return Counter((a.shape, str(a.dtype), a.nbytes) for a in arrays if a is not None)


def peak_report(run) -> tuple[int, int, Counter, list]:
    """Run ``run`` with the meter's ``track`` wrapped; return the peak above
    the start, the level at the start, and the live arrays and the stack of
    the call that set the peak."""
    gc.collect()
    memory_meter.reset_peak()
    base = memory_meter.current
    seen = {"peak": base, "live": Counter(), "stack": []}
    track = memory_meter.track

    def tracked(arr):
        out = track(arr)
        if memory_meter.peak > seen["peak"]:
            seen["peak"] = memory_meter.peak
            seen["live"] = _live_arrays()
            seen["stack"] = traceback.extract_stack()[:-1]
        return out

    memory_meter.track = tracked
    try:
        run()
    finally:
        del memory_meter.track  # back to the class's method
    return memory_meter.peak - base, base, seen["live"], seen["stack"]


def traced_peak(run) -> int:
    """tracemalloc's peak while ``run`` runs, above the traced bytes at its
    start: every array and Python object allocated, metered or not."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if started:
            tracemalloc.stop()


def main(names) -> int:
    for name, build in _runs():
        if names and name not in names:
            continue
        peak, base, live, stack = peak_report(build())
        with held_arguments():
            held = meter_peak(build())
        traced = traced_peak(build())
        total = sum(n * nbytes for (_, _, nbytes), n in live.items())
        print(f"== {name}: meter peak {peak:,} B above {base:,} B at the start"
              f" ({held:,} B with held calls); tracemalloc peak {traced:,} B")
        print(f"   alive at the peak: {sum(live.values())} arrays, {total:,} B")
        for (shape, dtype, nbytes), n in sorted(live.items(), key=lambda kv: -kv[0][2] * kv[1]):
            print(f"   {n:4d} x {str(shape):24s} {dtype:8s} {nbytes:>11,} B each")
        print("   set by:")
        for frame in stack:
            if "/hiloseg/" in frame.filename:
                where = frame.filename.split("/hiloseg/")[-1]
                print(f"     {where}:{frame.lineno} {frame.name}: {frame.line}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
