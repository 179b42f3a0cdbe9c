"""The benchmark's workloads: instance family, sizes, timed call, checks.

``solve`` is the timed operation: the public solver entry point(s), reached
through their module attributes so a traced run sees its wrappers. ``check``
runs after the clock stops and returns ``(verdict, message)`` with verdict
``"ok"``, ``"status"`` (the solver gave up or reported the wrong outcome) or
``"rejected"`` (an output failed its independent check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from lincone import certify, image, kernel, oracle
from lincone.report import SOLVED

from . import families


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    pool: int  # distinct instances per run; instance i uses seed pool * seed + i
    make: Callable[[int], tuple]
    solve: Callable[[tuple], tuple]
    check: Callable[[tuple, tuple], tuple]
    reports: Callable[[tuple], dict]  # solver module -> SolveReport


def _verdict(*reports):
    for cert_report, what in reports:
        if not cert_report.valid:
            return "rejected", f"{what}: {cert_report.message}"
    return "ok", ""


def _full_support(cert, n):
    return np.array_equal(np.asarray(cert.support), np.arange(n))


# image_flat ---------------------------------------------------------------

_FLAT = {"m": 25, "n": 500, "rho": 1e-3}


def _flat_make(seed):
    return families.flat_image(_FLAT["m"], _FLAT["n"], _FLAT["rho"], seed)[:1]


def _image_solve(inst):
    return image.full_support_image(inst[0])


def _image_check(inst, out):
    (mat,), (cert, report) = inst, out
    if report.status != SOLVED:
        return "status", f"status {report.status}, expected solved"
    if not _full_support(cert, mat.shape[1]):
        return "rejected", "image certificate support is not every column"
    return _verdict((certify.check_image_certificate(mat, cert), "image certificate"))


# kernel_narrow ------------------------------------------------------------

_NARROW = {"m": 6, "n": 80, "spread": 0.03, "u": 0.8}


def _narrow_make(seed):
    p = _NARROW
    return (families.narrow_kernel(p["m"], p["n"], p["spread"], p["u"], seed),)


def _kernel_solve(inst):
    return kernel.full_support_kernel(inst[0])


def _kernel_check(inst, out):
    (mat,), (cert, report) = inst, out
    if report.status != SOLVED:
        return "status", f"status {report.status}, expected solved"
    if not _full_support(cert, mat.shape[1]):
        return "rejected", "kernel certificate support is not every column"
    return _verdict((certify.check_kernel_certificate(mat, cert), "kernel certificate"))


# oracle_flat --------------------------------------------------------------

_ORACLE = {"m": 15, "n": 1000, "rho": 1e-3}


def _oracle_make(seed):
    return families.flat_image(_ORACLE["m"], _ORACLE["n"], _ORACLE["rho"], seed)[:1]


def _oracle_solve(inst):
    sep = oracle.MatrixSeparationOracle(inst[0])
    y, report = oracle.strict_conic_feasibility(sep, inst[0].shape[0])
    return y, report, sep


def _oracle_check(inst, out):
    (mat,), (y, report, _) = inst, out
    if report.status != SOLVED:
        return "status", f"status {report.status}, expected solved"
    if oracle.MatrixSeparationOracle(mat).query(y) is not None:
        return "rejected", "a fresh oracle does not approve y"
    cert = image.ImageCertificate(y=y, support=np.arange(mat.shape[1]), min_margin=0.0, residual_zero=0.0)
    return _verdict((certify.check_image_certificate(mat, cert), "image certificate"))


# partition_degenerate -----------------------------------------------------

_DEGENERATE = {"m": 6, "n": 40, "s": 20}


def _degenerate_make(seed):
    p = _DEGENERATE
    return families.planted_partition(p["m"], p["n"], p["s"], seed)


def _partition_solve(inst):
    mat = inst[0]
    return kernel.max_support_kernel(mat), image.max_support_image(mat)


def _partition_check(inst, out):
    mat, s_planted, t_planted = inst
    (kcert, s_found, krep), (icert, t_found, irep) = out
    if krep.status != SOLVED or irep.status != SOLVED:
        return "status", f"statuses {krep.status}/{irep.status}, expected solved/solved"
    verdict = _verdict(
        (certify.check_kernel_certificate(mat, kcert), "kernel certificate"),
        (certify.check_image_certificate(mat, icert), "image certificate"),
        (certify.check_complementary_pair(s_found, t_found, mat.shape[1]), "partition"),
    )
    if verdict[0] == "ok" and not (np.array_equal(s_found, s_planted) and np.array_equal(t_found, t_planted)):
        return "rejected", "supports differ from the planted (S, T)"
    return verdict


# Why each workload exists is in README.md. Pools are sized so that a 35-second
# run makes seven to ten passes on a 2-vCPU x86-64 VM, enough for most of the
# REPEATS timed solves per instance, and 40 instances keep ten beyond the p75
# tail. partition_degenerate is runnable but not listed in
# BENCHMARK.json: max_support_image raises on a few percent of its draws.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "image_flat",
            _FLAT,
            pool=40,
            make=_flat_make,
            solve=_image_solve,
            check=_image_check,
            reports=lambda out: {"image": out[1]},
        ),
        Workload(
            "kernel_narrow",
            _NARROW,
            pool=40,
            make=_narrow_make,
            solve=_kernel_solve,
            check=_kernel_check,
            reports=lambda out: {"kernel": out[1]},
        ),
        Workload(
            "oracle_flat",
            _ORACLE,
            pool=40,
            make=_oracle_make,
            solve=_oracle_solve,
            check=_oracle_check,
            reports=lambda out: {"oracle": out[1]},
        ),
        Workload(
            "partition_degenerate",
            _DEGENERATE,
            pool=40,
            make=_degenerate_make,
            solve=_partition_solve,
            check=_partition_check,
            reports=lambda out: {"kernel": out[0][2], "image": out[1][2]},
        ),
    )
}
