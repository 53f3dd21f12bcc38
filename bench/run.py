"""Benchmark entry point for the hiloseg workloads.

    python3 bench/run.py --workload hilo-train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.
See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread: with the trainer's loader thread that keeps the busy
# threads at two. Losses differ at ~1e-7 across BLAS thread counts, so the
# count is recorded with every run and must match before runs are compared.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import hiloseg from it."""
    src = ROOT / "src"
    if not (src / "hiloseg" / "__init__.py").is_file():
        sys.exit(f"error: no hiloseg sources under {src}; run from a source checkout")
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import hiloseg

    if Path(hiloseg.__file__).resolve().parent != (src / "hiloseg").resolve():
        sys.exit(f"error: imported hiloseg from {hiloseg.__file__}, not from {src}")


def main(argv=None) -> int:
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("hilo-train", "hilo-segment", "onet-sr"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
