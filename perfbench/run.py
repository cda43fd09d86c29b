"""Benchmark of zetamoments, run from the root of a source checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

It runs one workload through `zetamoments.cli.main` in this process, checks
the outputs, and prints an environment header, a report and, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced run.  See README.md in this directory.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, so timings measure the program
# and not the thread scheduler.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_program(root: Path) -> dict:
    """Import zetamoments from `root`/src; refuse a copy from anywhere else."""
    src = (root / "src").resolve()
    if not (src / "zetamoments" / "__init__.py").is_file():
        raise SystemExit(f"error: no zetamoments source under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("zetamoments")
    if Path(pkg.__file__).resolve().parent != src / "zetamoments":
        raise SystemExit(f"error: zetamoments imported from {pkg.__file__}, not {src}")
    zm = {name: importlib.import_module(f"zetamoments.{name}") for name in
          ("arith", "modularforms", "cache", "evaluate", "moments", "cli")}
    zm["package"] = pkg
    return zm


def environment() -> dict:
    """The set-up a result belongs to; results from different set-ups are
    not comparable (gmpy2 alone changes the tau squarings about 20x)."""
    import mpmath
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    zm = load_program(ROOT)
    env = environment()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            work, zm)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"env": env}))
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
