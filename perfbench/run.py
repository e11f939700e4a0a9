"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 50 --trace 0

BLAS is pinned to one thread in this process's environment before numpy is
imported, so the run is the plain single-threaded baseline. The last line of
standard output is the JSON result.
"""

import os
import sys

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

if __name__ == "__main__":
    os.environ.update(BLAS_PIN)
    from bench import main
    sys.exit(main())
