"""Condition measures of small integer matrices.

Three quantities, from empirical to worst-case: the distance rho of
the normalized columns' hull from the origin (signed; negative means
a positive kernel vector exists), the determinant-based floor theta,
and the encoding-length floor 2^(-4L). For integral input they chain:
|rho| >= theta >= 2^(-4L) whenever rho is nonzero, so runtimes bounded
in 1/|rho| are also bounded in the bit size of the input.
"""

import numpy as np

from lincone import condition_report


MATRICES = {
    "image feasible": np.array([[2, 1, 1], [1, 2, 1]]),
    "kernel feasible": np.array([[1, -1, 1, -1], [1, 1, -1, -1]]),
    "near degenerate": np.array([[3, -3, 1], [2, -2, 5]]),
}


def main():
    for label, mat in MATRICES.items():
        rep = condition_report(mat)
        print(f"{label}: {mat.shape[0]} x {mat.shape[1]}")
        print(f"  rho    = {rep.rho:+.6e}")
        print(f"  theta  = {rep.theta:.6e}  (delta = {rep.delta:.4f})")
        print(f"  L      = {rep.encoding_length}, 2^(-4L) = {2.0 ** (-4 * rep.encoding_length):.3e}")
        if rep.rho == 0.0:
            print("  rho is zero, chain not applicable")
        else:
            chain = abs(rep.rho) >= rep.theta >= 2.0 ** (-4 * rep.encoding_length)
            print(f"  chain |rho| >= theta >= 2^(-4L): {chain}")
        print()


if __name__ == "__main__":
    main()
