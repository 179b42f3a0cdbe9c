"""Benchmark entry point.

    python3 conebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the solver is imported from ``src/``
of that checkout, never from an installed copy. BLAS is held to one thread
so the single-client loop measures the solver, not thread scheduling. The
last line of standard output is the JSON result.
"""

import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load():
    if not (SRC / "lincone" / "__init__.py").is_file():
        sys.exit(f"conebench: no lincone sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import lincone

    if Path(lincone.__file__).resolve().parent != SRC / "lincone":
        sys.exit(f"conebench: imported lincone from {lincone.__file__}, not from {SRC}")
    from conebench import harness

    return harness


if __name__ == "__main__":
    harness = _load()
    sys.exit(harness.main(sys.argv[1:], time.perf_counter() - _START, ROOT))
