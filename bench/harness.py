"""Runs one workload: repeated set-up, the timed phase, checks, the traced run.

With tracing off, a run reports the end-to-end metrics. With tracing on it
sets up a second, traced copy of the workload and runs a fixed number of
operations twice in a row each, untraced and then traced, so that the
untraced outputs are checked and the tracing overhead compares like with
like; it reports the per-layer metrics. The traced run does the same work
however fast the program is, so its counts and times are per fixed work.
Each run writes a run record (losses, work counts, environment) under
``runs/``.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import json
import math
import os
import platform
import shutil
import statistics
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

from hiloseg import data_io, inference, voxel
from hiloseg.inference import BoundingBox
from hiloseg.models import onet
from hiloseg.models.hilo import HiLoModel
from hiloseg.models.onet import OnetModel
from hiloseg.nn.tensor import memory_meter

from stability import deterministic
from tracer import NN_OPS, Probes, SpanStats, Tracer, aggregate, children_of, missing_calls, self_times
from workloads import SPEC, WORKLOADS, Op, Spec, checkpointed_model

BENCH_DIR = Path(__file__).resolve().parent
RUNS_DIR = BENCH_DIR / "runs"

TIMED_SPAN = "bench.timed"
# Spans whose own time belongs to no layer metric: the benchmark's wrapper
# around one operation and the trainers' loops between their probed calls.
UNATTRIBUTED_SPANS = (TIMED_SPAN, "models.train_hilo", "models.train_superres_onet")

END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_bytes", "B"),
    ("ok_frac", "ratio"),
)


def _per_layer_names():
    out = []
    for op in NN_OPS:
        out += [(f"nn.{op}.calls", "count"), (f"nn.{op}.fwd_s", "s"), (f"nn.{op}.bwd_s", "s")]
    out += [
        ("nn.backward.s", "s"), ("nn.accumulate_grad.calls", "count"),
        ("nn.accumulate_grad.s", "s"), ("nn.meter.track.calls", "count"),
        ("nn.meter.track.s", "s"), ("nn.adam.step.s", "s"),
        ("nn.checkpoint.save_s", "s"), ("nn.checkpoint.load_s", "s"),
        ("nn.checkpoint.bytes", "B"),
        ("voxel.build_pyramid.calls", "count"), ("voxel.build_pyramid.s", "s"),
        ("voxel.build_pyramid.alloc_peak_bytes", "B"),
        ("voxel.extract_window.calls", "count"), ("voxel.extract_window.s", "s"),
        ("voxel.average_pool.s", "s"),
        ("sampling.sample_biased_coords.calls", "count"),
        ("sampling.sample_biased_coords.s", "s"),
        ("queue.next_batch.wait_s", "s"), ("queue.sample_batch.s", "s"),
        ("queue.loads", "count"), ("queue.evictions", "count"), ("queue.used_frac", "ratio"),
        ("data_io.load_volume.calls", "count"), ("data_io.load_volume.s", "s"),
        ("data_io.load_volume.bytes", "B"), ("data_io.write_dataset.s", "s"),
        ("models.forward_batch.s", "s"), ("models.hilo_forward.calls", "count"),
        ("models.hilo_forward.s", "s"), ("models.onet_encode.s", "s"),
        ("models.onet_decode.calls", "count"), ("models.onet_decode.s", "s"),
        ("models.onet_decode.points", "count"),
        ("inference.segment_volume.s", "s"), ("inference.tiles", "count"),
        ("inference.tile_p50_s", "s"), ("inference.tile_p90_s", "s"),
        ("inference.tile_fill_frac", "ratio"),
        ("inference.mise_evaluate.s", "s"), ("inference.mise.self_s", "s"),
        ("inference.mise.decode_calls", "count"), ("inference.mise.points_decoded", "count"),
        ("inference.mise.points_per_voxel", "ratio"), ("inference.mise.agreement", "ratio"),
        ("train.step_p50_s", "s"), ("train.step_max_s", "s"),
        ("phase.train_samples_per_s", "1/s"), ("phase.mise_voxels_per_s", "1/s"),
        ("memclaim.hilo_peak_1x", "B"), ("memclaim.hilo_peak_2x", "B"),
        ("memclaim.onet_encode_peak_1x", "B"), ("memclaim.onet_encode_peak_2x", "B"),
        ("trace.overhead_frac", "ratio"), ("trace.unattributed_frac", "ratio"),
    ]
    return tuple(out)


PER_LAYER = _per_layer_names()


# ---------------------------------------------------------------------------
# environment and measurement helpers


def environment(seed: int) -> dict:
    """What a comparison between two runs must hold equal."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "seed": seed, "numpy": np.__version__, "python": platform.python_version(),
        "blas": blas, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(), "cpu_model": cpu,
    }


def quiesce() -> None:
    """Collect garbage and flush written files before a timed section.

    A set-up writes about 100 MB of scans. Without the flush, the kernel
    writes earlier set-ups' pages back to disk during later timings, on
    the same two cores.
    """
    gc.collect()
    os.sync()


def meter_peak(fn) -> int:
    """Byte-meter peak while ``fn`` runs, above the level at its start."""
    gc.collect()
    memory_meter.reset_peak()
    base = memory_meter.current
    fn()
    return memory_meter.peak - base


def timed_pass(work, seconds: float):
    """Repeat the workload's operation until ``seconds`` pass.

    Returns the operations and the meter peak above its starting level.
    """
    memory_meter.reset_peak()
    base = memory_meter.current
    ops: list[Op] = []
    t0 = perf_counter()
    while not ops or perf_counter() - t0 < seconds:
        ops.append(run_op(work, len(ops)))
    return ops, memory_meter.peak - base


def run_op(work, index: int) -> Op:
    start = perf_counter()
    try:
        op = work.run_op(index)
    except Exception as exc:  # an operation that raises counts as failed
        op = Op(work=0, attempted=work.per_op, record={"error": repr(exc)})
        op.failures = {k: repr(exc) for k in range(work.per_op)}
    op.wall_s = perf_counter() - start
    return op


def paired_pass(work, traced_work, probes: Probes, count: int):
    """Run ``count`` operations, each untraced and then traced.

    Pairing the two keeps slow drifts of machine speed out of the tracing
    overhead. Returns (untraced ops, traced ops).
    """
    ops: list[Op] = []
    traced: list[Op] = []
    for _ in range(count):
        ops.append(run_op(work, len(ops)))
        probes.install()
        try:
            with probes.tracer.span(TIMED_SPAN):
                traced.append(run_op(traced_work, len(traced)))
        finally:
            probes.uninstall()
    return ops, traced


def check_ops(work, ops) -> None:
    for op in ops:
        if op.failures:
            continue
        try:
            work.check(op)
        except Exception as exc:  # a check that raises fails its operation
            op.failures[0] = f"check raised {exc!r}"


# ---------------------------------------------------------------------------
# untimed probes


def memory_claim(spec: Spec, seed: int, workdir: Path) -> dict[str, int]:
    """Meter peaks of one fixed-size region at 1x and 2x scan dims per axis.

    The window-pyramid peak must not depend on scan size; the occupancy
    encoder's peak is reported next to it to show that it does.
    """
    cfg = spec.hilo_segment
    w = cfg.window_size
    hilo_model = checkpointed_model(HiLoModel, cfg, cfg.kind, workdir / "claim-hilo.ckpt")
    onet_model = checkpointed_model(OnetModel, spec.onet, "onet", workdir / "claim-onet.ckpt")
    out = {}
    for tag, scale in (("1x", 1), ("2x", 2)):
        dims = tuple(d * scale for d in spec.dims)
        vol, _ = data_io.generate_synthetic_one(data_io.SynthConfig(dims=dims, seed=seed), 0)
        center = tuple(d // 2 for d in dims)
        region = BoundingBox(tuple(c - w for c in center), tuple(c + w - 1 for c in center))
        out[f"hilo_peak_{tag}"] = meter_peak(
            lambda: inference.segment_volume(vol, hilo_model, cfg, region=region, threads=1))
        out[f"onet_encode_peak_{tag}"] = meter_peak(
            lambda: onet.onet_encode(vol, spec.onet, onet_model))
    return out


def pyramid_alloc_peak(vol, cfg) -> int:
    """Host bytes allocated at peak by one ``build_pyramid`` at the scan center."""
    center = tuple(d // 2 for d in vol.dims)
    tracemalloc.start()
    try:
        voxel.build_pyramid(vol, center, cfg.window_size, cfg.downsampling_factor, cfg.levels)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# per-layer metrics


def _intervals(tracer: Tracer, parents, child: str, to_end: bool):
    """Gaps between consecutive ``child`` spans directly under each parent.

    With ``to_end`` the gaps run between child starts, the last one up to the
    parent's end (tile times); otherwise between child ends (step times).
    """
    out = []
    for ts in tracer.threads:
        for name in parents:
            for parent, kids in children_of(ts, name):
                marks = [k[1] if to_end else k[2] for k in kids if k[0] == child]
                if to_end and marks:
                    marks.append(parent[2])
                out += [b - a for a, b in zip(marks, marks[1:])]
    return out


def layer_metrics(work, tracer: Tracer, untraced: list[Op], traced: list[Op],
                  extra: dict) -> dict[str, float]:
    stats = aggregate(tracer)

    def st(name) -> SpanStats:
        return stats.get(name, SpanStats())

    m: dict[str, float] = {}
    for op in NN_OPS:
        m[f"nn.{op}.calls"] = st(f"nn.{op}").calls
        m[f"nn.{op}.fwd_s"] = st(f"nn.{op}").self_s
        m[f"nn.{op}.bwd_s"] = st(f"nn.{op}.bwd").self_s
    m["nn.backward.s"] = st("nn.backward").self_s
    for name in ("nn.accumulate_grad", "nn.meter.track"):
        m[f"{name}.calls"] = st(name).calls
        m[f"{name}.s"] = st(name).self_s
    m["nn.adam.step.s"] = st("nn.adam.step").self_s
    m["nn.checkpoint.save_s"] = st("nn.checkpoint.save").total_s
    m["nn.checkpoint.load_s"] = st("nn.checkpoint.load").total_s
    m["nn.checkpoint.bytes"] = extra["checkpoint_bytes"]
    for name in ("voxel.build_pyramid", "voxel.extract_window", "sampling.sample_biased_coords",
                 "data_io.load_volume", "models.hilo_forward", "models.onet_decode"):
        m[f"{name}.calls"] = st(name).calls
        m[f"{name}.s"] = st(name).total_s
    m["voxel.build_pyramid.alloc_peak_bytes"] = extra["pyramid_alloc_peak"]
    m["voxel.average_pool.s"] = st("voxel.average_pool").total_s
    m["queue.next_batch.wait_s"] = st("queue.next_batch").self_s
    m["queue.sample_batch.s"] = st("queue.sample_batch").total_s
    recs = [op.record for op in traced]
    loads = sum(r.get("loads", 0) for r in recs)
    m["queue.loads"] = loads
    m["queue.evictions"] = sum(r.get("evictions", 0) for r in recs)
    m["queue.used_frac"] = sum(r.get("used", 0) for r in recs) / loads if loads else 0.0
    m["data_io.load_volume.bytes"] = extra["load_bytes"]
    m["data_io.write_dataset.s"] = st("data_io.write_dataset").total_s
    m["models.forward_batch.s"] = st("models.forward_batch").total_s
    m["models.onet_encode.s"] = st("models.onet_encode").total_s
    m["models.onet_decode.points"] = sum(r.get("points_decoded", 0) for r in recs)

    tiles = sum(r.get("tiles", 0) for r in recs)
    tile_s = _intervals(tracer, ("inference.segment_volume",), "voxel.build_pyramid", to_end=True)
    w = work.spec.hilo_segment.window_size
    m["inference.segment_volume.s"] = st("inference.segment_volume").total_s
    m["inference.tiles"] = tiles
    m["inference.tile_p50_s"] = float(np.percentile(tile_s, 50)) if tile_s else 0.0
    m["inference.tile_p90_s"] = float(np.percentile(tile_s, 90)) if tile_s else 0.0
    m["inference.tile_fill_frac"] = (
        sum(r.get("region_voxels", 0) for r in recs) / (tiles * w**3) if tiles else 0.0
    )
    points = m["models.onet_decode.points"]
    mise_voxels = sum(r.get("mise_voxels", 0) for r in recs)
    agreements = [op.checks["agreement"] for op in untraced if "agreement" in op.checks]
    m["inference.mise_evaluate.s"] = st("inference.mise_evaluate").total_s
    m["inference.mise.self_s"] = st("inference.mise_evaluate").self_s
    m["inference.mise.decode_calls"] = sum(r.get("decode_calls", 0) for r in recs)
    m["inference.mise.points_decoded"] = points
    m["inference.mise.points_per_voxel"] = points / mise_voxels if mise_voxels else 0.0
    m["inference.mise.agreement"] = min(agreements) if agreements else 0.0

    steps = _intervals(tracer, ("models.train_hilo", "models.train_superres_onet"),
                       "nn.adam.step", to_end=False)
    m["train.step_p50_s"] = float(np.percentile(steps, 50)) if steps else 0.0
    m["train.step_max_s"] = max(steps) if steps else 0.0
    # onet-sr's work_per_s mixes training and MISE time; these split it
    recs = [op.record for op in untraced if "mise_s" in op.record]
    m["phase.train_samples_per_s"] = (
        sum(r["samples"] for r in recs) / sum(r["train_s"] for r in recs) if recs else 0.0)
    m["phase.mise_voxels_per_s"] = (
        sum(r["mise_voxels"] for r in recs) / sum(r["mise_s"] for r in recs) if recs else 0.0)
    for key, value in extra["memclaim"].items():
        m[f"memclaim.{key}"] = value
    m["trace.overhead_frac"] = sum(op.wall_s for op in traced) / sum(op.wall_s for op in untraced) - 1.0
    m["trace.unattributed_frac"] = extra["unattributed"]
    return m


def unattributed_share(tracer: Tracer) -> float:
    """Share of the timed spans' duration that no layer's probe covers.

    That is the self time of ``UNATTRIBUTED_SPANS`` on the thread that ran
    the timed spans. A probe that misses its callers leaves the time of
    the calls it missed here.
    """
    for ts in tracer.threads:
        spans = ts.spans
        timed = [s for s in spans if s[0] == TIMED_SPAN]
        if not timed:
            continue
        duration = sum(end - start for _, start, end, _ in timed)
        own = self_times(spans)
        return sum(t for s, t in zip(spans, own) if s[0] in UNATTRIBUTED_SPANS) / duration
    return math.inf


def write_trace(tracer: Tracer, path: Path) -> None:
    """Spans as {"threads": [{"thread", "spans": [[name, start, end, parent]]}]}."""
    doc = {"threads": [{"thread": ts.thread, "spans": ts.spans} for ts in tracer.threads]}
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# one run


def run(workload: str, seed: int, seconds: float, trace: bool, spec: Spec = SPEC,
        runs_dir: Path = RUNS_DIR) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    cls = WORKLOADS[workload]
    runs_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=runs_dir))
    problems: list[str] = []
    try:
        setup_times = []
        for r in range(spec.setup_repeats):
            if r:
                shutil.rmtree(workdir / f"setup{r - 1}")
            work = cls(spec, seed)
            quiesce()
            start = perf_counter()
            work.setup(workdir / f"setup{r}")
            setup_times.append(perf_counter() - start)
        if trace:
            tracer = Tracer()
            probes = Probes(tracer).install()
            try:
                traced_work = cls(spec, seed)
                with tracer.span("bench.setup"):
                    traced_work.setup(workdir / "traced")
            finally:
                probes.uninstall()
            quiesce()
            ops, traced = paired_pass(work, traced_work, probes, spec.traced_ops)
        else:
            quiesce()
            ops, peak = timed_pass(work, seconds)
        check_ops(work, ops)
        attempted = sum(op.attempted for op in ops)
        failed = sum(len(op.failures) for op in ops)
        record = {
            "workload": workload, "trace": int(trace), "seconds": seconds,
            "env": environment(seed), "setup_s": setup_times,
            "ops": [dict(op.record, wall_s=op.wall_s, failures=op.failures, checks=op.checks)
                    for op in ops],
        }
        if trace:
            metrics = _traced(traced_work, probes, ops, traced, problems, workdir, runs_dir)
            record["traced_ops"] = [op.record for op in traced]
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "work_per_s": statistics.median(op.work / op.wall_s for op in ops),
                "peak_bytes": peak,
                "ok_frac": 1.0 - failed / attempted,
            }
        units = dict(PER_LAYER if trace else END_TO_END)
        result = {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
        }
        record.update(problems=problems, result=result)
        path = runs_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(record, indent=1, default=str))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(work, probes: Probes, untraced, traced, problems, workdir, runs_dir):
    """Per-layer metrics of a paired pass, after its consistency checks."""
    tracer = probes.tracer
    missing = missing_calls(aggregate(tracer), work.expected_spans)
    if missing:
        problems.append(f"probes recorded no call of {missing}")
    if [deterministic(op.record) for op in traced] != [deterministic(op.record) for op in untraced]:
        problems.append("traced outputs differ from untraced outputs")
    unattributed = unattributed_share(tracer)
    if unattributed > work.spec.unattributed_max:
        problems.append(f"probes leave {unattributed:.3f} of the traced wall time unattributed,"
                        f" more than {work.spec.unattributed_max}")
    claim = memory_claim(work.spec, work.seed, workdir)
    if claim["hilo_peak_1x"] != claim["hilo_peak_2x"]:
        problems.append(f"window-pyramid meter peak depends on scan size: {claim}")
    extra = {
        "checkpoint_bytes": sum(p.stat().st_size for p in (workdir / "traced").glob("*.ckpt")),
        "pyramid_alloc_peak": (
            pyramid_alloc_peak(work.probe_volume, work.pyramid_cfg) if work.pyramid_cfg else 0
        ),
        "load_bytes": probes.load_bytes,
        "memclaim": claim,
        "unattributed": unattributed,
    }
    write_trace(tracer, runs_dir / f"{work.name}-seed{work.seed}-trace.json.gz")
    return layer_metrics(work, tracer, untraced, traced, extra)
