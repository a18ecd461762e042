"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload c6_full --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all

The program is imported from ``src/`` beside this directory, never from an
installed copy.  BLAS and OpenMP are pinned to one thread before NumPy
loads.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 1`` the metrics
are the per-layer ones.  ``--workload all`` runs every workload, each in a
process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("c6_full", "short_wide_full", "bound_fuzz")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> bool:
    """Pin BLAS/OpenMP to one thread and put ``src/`` first on the import path.

    Must run before NumPy is imported.  Returns False when the program
    source is missing.
    """
    if not (ROOT / "src" / "tscl" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'tscl'}", file=sys.stderr)
        return False
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return True


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        status = status or child.returncode
    return status


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not prepare():
        return 2

    import numpy as np

    import workloads

    problems, attempted, metrics = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(
        f"# {args.workload} seed {args.seed}: python {platform.python_version()}, "
        f"numpy {np.__version__}, BLAS threads 1, nproc {os.cpu_count()}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
