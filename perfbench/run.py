"""Run one workload of the repo benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus-obf --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric of a separate traced run.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the checkout this file sits in; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

# One BLAS thread per process: the fleet's shards and the load generator
# share two cores, and an idle BLAS pool spins on them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus-obf", "corpus-large", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from perfbench.workloads import run

    # A terminated run still stops the fleet and removes its work files.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for line in result.notes:
        print(line)
    for name, value in result.metrics.items():
        print(f"{name:36s} {value:14.4f} {result.units[name]}")
    print(f"correct {result.correct}  attempted {result.attempted}  failed {result.failed}")
    print(json.dumps(result.to_json()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
