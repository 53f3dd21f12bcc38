"""Tests of the benchmark itself: span arithmetic, probes, and a tiny run.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
from tracer import Probes, ThreadSpans, Tracer, aggregate, missing_calls, self_times  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


def _spans(*rows):
    return [list(r) for r in rows]


def test_self_time_subtracts_direct_children_only():
    spans = _spans(
        ("step", 0.0, 10.0, -1),
        ("fwd", 1.0, 4.0, 0),
        ("track", 2.0, 3.0, 1),
        ("bwd", 5.0, 9.0, 0),
    )
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_clips_children_to_the_parent():
    spans = _spans(("outer", 0.0, 2.0, -1), ("late", 1.5, 3.0, 0))
    assert self_times(spans) == pytest.approx([1.5, 1.5])


def test_loader_thread_spans_are_not_children_of_the_step():
    tracer = Tracer()
    main = ThreadSpans("MainThread", _spans(("step", 0.0, 10.0, -1), ("fwd", 1.0, 4.0, 0)))
    loader = ThreadSpans("hiloseg-loader", _spans(("load", 3.0, 8.0, -1)))
    tracer.threads += [main, loader]
    stats = aggregate(tracer)
    assert stats["step"].self_s == pytest.approx(7.0)
    assert stats["load"].self_s == pytest.approx(5.0)
    assert stats["load"].calls == 1


def test_unattributed_share_counts_only_time_no_layer_probe_covers():
    tracer = Tracer()
    main = ThreadSpans("MainThread", _spans(
        ("bench.timed", 0.0, 10.0, -1),
        ("models.train_hilo", 1.0, 9.0, 0),
        ("nn.conv3d", 2.0, 5.0, 1),
        ("nn.conv3d.bwd", 6.0, 8.5, 1),
        ("bench.timed", 20.0, 30.0, -1),
        ("inference.segment_volume", 20.0, 29.0, 4),
    ))
    # loader-thread time overlaps the step but covers none of it
    loader = ThreadSpans("hiloseg-loader", _spans(("data_io.load_volume", 0.0, 9.0, -1)))
    tracer.threads += [main, loader]
    # timed self 2 + 1, trainer self 2.5; segment_volume is a layer's own time
    assert harness.unattributed_share(tracer) == pytest.approx(5.5 / 20.0)


def test_tracer_records_nesting_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    (ts,) = tracer.threads
    assert [s[0] for s in ts.spans] == ["outer", "inner"]
    assert ts.spans[1][3] == 0 and ts.spans[0][3] == -1
    assert missing_calls(aggregate(tracer), ("outer", "inner", "never")) == ["never"]


def test_probes_reach_every_binding_and_come_out_again():
    from hiloseg import inference, voxel
    from hiloseg.models import train as train_mod
    from hiloseg.models.hilo import HiLoConfig, HiLoModel, hilo_forward
    from hiloseg.nn import functional as F
    from hiloseg.nn.layers import ResidualBlockConv3d
    from hiloseg.nn.tensor import memory_meter
    from hiloseg.voxel import VoxelVolume

    originals = (F.selu, voxel.build_pyramid, train_mod.build_pyramid,
                 ResidualBlockConv3d.__init__.__defaults__)
    tracer = Tracer()
    probes = Probes(tracer).install()
    try:
        assert train_mod.build_pyramid is voxel.build_pyramid is inference.build_pyramid
        cfg = HiLoConfig(window_size=8, encoder_blocks=1, cnn_decoder_blocks=2, base_channels=2)
        model = HiLoModel(cfg)  # residual blocks capture F.selu as a default argument
        vol = VoxelVolume(np.random.default_rng(0).random((12, 12, 12)))
        hilo_forward(train_mod.build_pyramid(vol, (6, 6, 6), 8, 2, 2), cfg, model)
    finally:
        probes.uninstall()
    stats = aggregate(tracer)
    assert not missing_calls(stats, ("nn.selu", "nn.conv3d", "nn.meter.track",
                                     "voxel.build_pyramid", "voxel.extract_window",
                                     "models.forward_batch"))
    assert (F.selu, voxel.build_pyramid, train_mod.build_pyramid,
            ResidualBlockConv3d.__init__.__defaults__) == originals
    assert "track" not in vars(memory_meter)


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(workload, trace, tmp_path):
    result = harness.run(workload, seed=3, seconds=0.0, trace=trace, spec=TINY, runs_dir=tmp_path)
    record = json.loads((tmp_path / f"{workload}-seed3-trace{int(trace)}.json").read_text())
    assert result["correct"], record["problems"] or record["ops"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(result["metrics"]) == [n for n, _ in names]
    assert record["env"]["seed"] == 3
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("work-")]
