"""Run one benchmark workload from the repository root.

    python3 perfbench/run.py --workload train-reuse-all --seed 0 \
        --seconds 30 --trace 0

Pins the BLAS thread count (to one, never above the usable CPUs)
before numpy is imported, so one process uses at most that many
threads, and runs the program from the ``src`` directory next to this
one.
"""

import os
import sys
from pathlib import Path


def pin_blas_threads() -> None:
    """One BLAS thread unless the environment asks for 1..usable CPUs.

    The workloads' GEMMs are too small to gain from a second thread
    (measured equal on 2 CPUs), and one thread leaves the other CPUs to
    the event loop and the operating system.
    """
    cpus = len(os.sched_getaffinity(0))
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(variable, ""))
        except ValueError:
            current = 0
        if not 0 < current <= cpus:
            os.environ[variable] = "1"


if __name__ == "__main__":
    pin_blas_threads()
    root = Path(__file__).resolve().parent.parent
    # Replace this script's own directory on the path with the program
    # and the benchmark package.
    sys.path[0:1] = [str(root / "src"), str(root)]
    from perfbench.harness import main
    sys.exit(main())
