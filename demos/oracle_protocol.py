"""Solve for a cone interior point without ever seeing the matrix.

First with the in-process matrix adapter, then with a child process
speaking the line protocol: one query per line on stdin, answered by
YES or a violating vector on stdout. The subprocess here is just
python running a ten-line script, but anything that talks the
protocol works. In both runs the returned y was approved by the
oracle itself, so a final query answers None.
"""

import sys

import numpy as np

from lincone import MatrixSeparationOracle, SubprocessOracle, strict_conic_feasibility


# A comfortably wide cone in R^3; its interior contains (1, 1, 1).
COLUMNS = [
    [1.0, 0.2, 0.1],
    [0.1, 1.0, 0.3],
    [0.2, 0.1, 1.0],
    [0.5, 0.5, 0.2],
]

ORACLE_SCRIPT = """\
import sys
cols = {cols!r}
for line in sys.stdin:
    v = [float(t) for t in line.split()]
    worst, pick = 0.0, None
    for c in cols:
        norm = sum(x * x for x in c) ** 0.5
        s = sum(a * b for a, b in zip(c, v)) / norm
        if s <= 0.0 and (pick is None or s < worst):
            worst, pick = s, c
    if pick is None:
        print("YES")
    else:
        print(" ".join(repr(x) for x in pick))
    sys.stdout.flush()
"""


def main():
    mat = np.array(COLUMNS).T

    inproc = MatrixSeparationOracle(mat)
    y, report = strict_conic_feasibility(inproc, m=3)
    print(f"matrix adapter: {report.status} after {inproc.calls} queries, "
          f"{report.fo_iters} steps, {report.rescalings} rescalings")
    print(f"  y = {np.round(y, 6)}")
    print(f"  re-query answers None: {inproc.query(y) is None}")

    child = SubprocessOracle([sys.executable, "-c", ORACLE_SCRIPT.format(cols=COLUMNS)], dim=3)
    try:
        y2, report2 = strict_conic_feasibility(child, m=3)
        print(f"subprocess oracle: {report2.status} after {child.calls} queries, {report2.fo_iters} steps")
        print(f"  y = {np.round(y2, 6)}")
        print(f"  re-query answers None: {child.query(y2) is None}")
    finally:
        child.close()

    # The two solvers see the same cone, so both answers satisfy both oracles.
    print(f"cross check, margins of subprocess answer: {np.round(mat.T @ y2, 4)}")


if __name__ == "__main__":
    main()
