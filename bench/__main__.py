"""``python3 -m bench``: run the benchmark from the repository root.

    python3 -m bench [--workload NAME ...] [--seed N] [--seconds S] [--trace [0|1]]

Each workload prints its metrics by name with units, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Exit status: 0 when
every gate is green, 1 when a gate broke (the workload is named), 2 when
the package under test cannot be found.
"""

import os

# One process, one thread: pin BLAS before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_repro() -> bool:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"bench: repro was imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: per-layer metrics and the time ledger from traced trials",
    )
    args = parser.parse_args(argv)
    if not _import_repro():
        return 2
    from .inputs import make_inputs
    from .run import DEFAULT_SECONDS, measure
    from .workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    seconds = DEFAULT_SECONDS if args.seconds is None else args.seconds
    status = 0
    # A terminated run still removes its plan archives.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        for name in names:
            workload = WORKLOADS[name]()
            inputs = make_inputs(args.seed, workload.n_plans, workdir)
            report = measure(workload, inputs, seconds, bool(args.trace))
            print("\n".join(report.lines))
            if not report.correct:
                print(f"bench: gates broke on workload {name}", file=sys.stderr)
                status = 1
            print(report.result_line(), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
