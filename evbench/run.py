"""evbench: the evtraj benchmark.

    python3 evbench/run.py --workload fit-arc-128 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; see evbench/README.md.
"""

import os
import sys


def cap_blas_threads() -> None:
    """Cap the BLAS/OpenMP pools at the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(min(max(current, 1), nproc))


if __name__ == "__main__":
    cap_blas_threads()  # must precede the first numpy import
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import harness

    sys.exit(harness.main())
