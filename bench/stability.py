"""Run the benchmark over several seeds and report how steady each metric is.

    python3 bench/stability.py --seeds 1-10 [--workloads hilo-train,onet-sr]
        [--seconds 30] [--out bench/runs/set-a.json] [--baseline bench/runs/set-b.json]

For every workload and end-to-end metric it prints the median over seeds and
the spread: the distance between the first and third quartile as a share of
the median. A spread above a third of the metric's bound is flagged. With
``--baseline`` it also flags medians worse than the baseline's by more than
the bound. The first seed is run once more at the end, and its losses and
work counts must repeat exactly; runs made with different BLAS thread counts
or CPUs are not compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "runs"


def deterministic(op: dict) -> dict:
    """The part of an operation's record that must repeat exactly for one seed."""
    return {k: v for k, v in op.items() if not k.endswith("_s")}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in a fresh process: (printed result, run record)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RUNS_DIR / f"{workload}-seed{seed}-trace0.json").read_text())
    return result, record


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def same_work(a: dict, b: dict) -> str | None:
    """Why two records of one seed disagree on losses or work counts, if they do.

    Runs may differ in how many operations fit in their time, so only the
    operations both made are compared.
    """
    keys = ("blas_threads", "cpu_model", "numpy")
    if any(a["env"][k] != b["env"][k] for k in keys):
        return f"not comparable: environments differ in {keys}"
    for i, (op_a, op_b) in enumerate(zip(a["ops"], b["ops"])):
        if deterministic(op_a) != deterministic(op_b):
            return f"op {i} differs: {op_a} != {op_b}"
    return None


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, default=RUNS_DIR / "stability.json")
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None

    summary, problems = {}, []
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        records = {}
        for seed in seeds:
            result, record = run_once(workload, seed, args.seconds)
            records[seed] = record
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} seed {seed}: failed {result['failed']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: v["value"] for k, v in result["metrics"].items()}, flush=True)
        _, again = run_once(workload, seeds[0], args.seconds)
        why = same_work(records[seeds[0]], again)
        if why:
            problems.append(f"{workload} seed {seeds[0]} repeat: {why}")
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            sp = spread(vals) if len(vals) >= 2 else 0.0
            bound = bounds[name]["bound"]
            flag = ""
            if sp > bound:
                flag = "OVER BOUND"
                problems.append(f"{workload} {name}: spread {sp:.3f} > bound {bound}")
            elif sp > bound / 3:
                flag = "over bound/3"
            if baseline and name in baseline.get(workload, {}):
                base = baseline[workload][name]["median"]
                worse = (base - med) / base if bounds[name]["better"] == "higher" else (med - base) / base
                if worse > bound:
                    flag += f" WORSE THAN BASELINE by {worse:.3f}"
                    problems.append(f"{workload} {name}: median worse than baseline by {worse:.3f}")
            summary[workload][name] = {"median": med, "spread": sp, "values": vals}
            print(f"  {workload:13s} {name:12s} median {med:.6g} spread {sp:.4f} "
                  f"(bound {bound}) {flag}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({**summary, "problems": problems}, indent=1))
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
