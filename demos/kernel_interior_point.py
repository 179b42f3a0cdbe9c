"""Find a strictly positive point in the kernel of a random matrix.

Generates an instance with a known condition measure, runs the
full-support kernel solver, and validates the resulting certificate
with the independent checker. The solver never sees how the instance
was built; the demo, which knows the generator's rho, compares the
rescale count with the paper's bound ``rescaling_bound(m, rho)`` itself.
"""

import numpy as np

from lincone import check_kernel_certificate, full_support_kernel, gen_kernel_feasible, rescaling_bound


def main():
    # m <= 3 makes the generator certify rho; larger m leaves known_rho unset.
    inst = gen_kernel_feasible(3, 12, rho_target=0.12, seed=7)
    m, n = inst.mat.shape
    print(f"instance: {m} x {n}, condition measure <= {inst.known_rho:.4f}")

    cert, report = full_support_kernel(inst.mat)
    print(f"status: {report.status}")
    print(f"first-order iterations: {report.fo_iters}, rescalings: {report.rescalings}")
    print(f"smallest component of x: {cert.x.min():.6f}")
    print(f"residual max|Ax|: {cert.residual:.3e}")

    check = check_kernel_certificate(inst.mat, cert)
    print(f"independent checker: valid={check.valid} ({check.message})")

    bound = rescaling_bound(m, inst.known_rho)
    state = "ok" if report.rescalings <= bound else "VIOLATED"
    print(f"rescalings vs rho bound: observed {report.rescalings} <= {bound} [{state}]")

    for bc in report.bound_checks:
        state = "ok" if bc.passed else "VIOLATED"
        print(f"bound {bc.name}: observed {bc.observed} <= {bc.bound} [{state}]")

    # The certificate scales freely: any positive multiple still works.
    scaled = cert.x / cert.x.sum()
    print(f"normalized residual: {np.abs(inst.mat @ scaled).max():.3e}")


if __name__ == "__main__":
    main()
