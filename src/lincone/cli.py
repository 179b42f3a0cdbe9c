"""Command line surface: solve, gen, certify, bench.

stdout carries machine output only: JSON lines for solve and certify, CSV
for bench, the instance text for gen. Human-readable summaries go to
stderr. Exit codes: 0 success/valid, 1 usage or input error, 2 solver did
not converge, 3 certificate invalid.

Set CONIC_LOG=trace for per-event solver ledgers on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import os
import sys
import time

import numpy as np

from .certify import check_complementary_pair, check_image_certificate, check_kernel_certificate
from .errors import LinconeError, ParseError
from .firstorder import dv_inner, perceptron_inner
from .image import full_support_image, max_support_image
from .instances import (
    gen_degenerate,
    gen_image_feasible,
    gen_kernel_feasible,
    parse_certificate,
    parse_instance,
    write_certificate,
    write_instance,
)
from .kernel import KernelCertificate, full_support_kernel, max_support_kernel
from .image import ImageCertificate
from .oracle import SubprocessOracle, strict_conic_feasibility
from .report import Limits, default_limits, rescale_epsilon

__all__ = ["run", "main"]

log = logging.getLogger("lincone")

_FO = {"vonneumann": None, "dv": dv_inner, "perceptron": perceptron_inner}


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract here is 1
    def error(self, message):
        raise _Usage(message)


def _build_parser() -> _Parser:
    top = _Parser(prog="lincone", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a conic feasibility instance")
    solve.add_argument("--input", help="instance file; required unless --oracle-cmd with --dim")
    solve.add_argument("--mode", choices=["kernel", "image"], required=True)
    solve.add_argument("--support", choices=["full", "max"], default="full")
    solve.add_argument("--fo", choices=sorted(_FO), default="vonneumann",
                       help="inner loop for image modes; kernel modes ignore it")
    solve.add_argument("--epsilon", type=float, default=None,
                       help="rescaling threshold; values above 1/(11m) are clamped")
    solve.add_argument("--max-rescalings", type=int, default=None)
    solve.add_argument("--max-iters", type=int, default=None)
    solve.add_argument("--oracle-cmd", default=None,
                       help="run the separation-oracle solver against this command")
    solve.add_argument("--dim", type=int, default=None,
                       help="ambient dimension when --oracle-cmd runs without --input")
    solve.add_argument("--cert-out", default=None, help="also write the certificate file here")

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--mode", choices=["kernel", "image", "degenerate"], required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--rho", type=float, default=0.1, help="target condition measure")
    gen.add_argument("--split", type=int, default=None,
                     help="kernel-support size for degenerate instances")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", default=None, help="file path; stdout when omitted")

    cert = sub.add_parser("certify", help="validate a certificate against an instance")
    cert.add_argument("--input", required=True)
    cert.add_argument("--cert", required=True)
    cert.add_argument("--tol", type=float, default=None)

    bench = sub.add_parser("bench", help="run the built-in suite, CSV to stdout")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--timing", action="store_true",
                       help="record wall clock; off by default so output is reproducible")
    return top


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc.strerror}")


def _limits_from_args(args, m: int, n: int) -> Limits | None:
    if args.max_rescalings is None and args.max_iters is None and args.epsilon is None:
        return None
    base = default_limits(m, n)
    eps = args.epsilon
    if eps is not None:
        cap = rescale_epsilon(m)
        if eps > cap:
            print(f"warning: epsilon {eps} exceeds 1/(11m) = {cap:.6g}; clamped", file=sys.stderr)
            eps = cap
        if eps <= 0:
            raise _Usage("epsilon must be positive")
    return Limits(
        max_rescalings=args.max_rescalings if args.max_rescalings is not None else base.max_rescalings,
        max_iterations=args.max_iters if args.max_iters is not None else base.max_iterations,
        epsilon=eps,
    )


def _trace_hook():
    if os.environ.get("CONIC_LOG") != "trace":
        return None

    def hook(kind, **data):
        scalars = {
            k: v for k, v in data.items() if isinstance(v, (int, float, np.floating))
        }
        log.debug("trace %s %s", kind, scalars)

    return hook


def _cert_json(cert) -> dict:
    if isinstance(cert, KernelCertificate):
        return {
            "kind": "kernel",
            "vector": [float(v) for v in cert.x],
            "support": [int(i) for i in cert.support],
            "residual": float(cert.residual),
            "min_support_value": float(cert.min_support_value),
        }
    return {
        "kind": "image",
        "vector": [float(v) for v in cert.y],
        "support": [int(i) for i in cert.support],
        "min_margin": float(cert.min_margin),
        "residual_zero": float(cert.residual_zero),
    }


def _cmd_solve(args) -> int:
    hook = _trace_hook()
    if args.oracle_cmd is not None:
        if args.mode != "image":
            raise _Usage("--oracle-cmd solves the image problem; use --mode image")
        if args.input is not None:
            m = parse_instance(_read_file(args.input)).mat.shape[0]
        elif args.dim is not None:
            m = args.dim
        else:
            raise _Usage("--oracle-cmd needs --input or --dim for the dimension")
        limits = _limits_from_args(args, m, m)
        with SubprocessOracle(args.oracle_cmd, m) as oracle:
            y, report = strict_conic_feasibility(oracle, m, limits)
        cert_obj = {"kind": "image", "vector": [float(v) for v in y], "support": None}
        print(json.dumps(cert_obj))
        print(json.dumps(report.as_dict()))
        print(f"{report.status}: {report.fo_iters} oracle iterations, "
              f"{report.rescalings} rescalings", file=sys.stderr)
        return 0 if report.status == "solved" else 2

    if args.input is None:
        raise _Usage("solve needs --input")
    inst = parse_instance(_read_file(args.input))
    m, n = inst.mat.shape
    limits = _limits_from_args(args, m, n)
    fo = _FO[args.fo]
    if args.mode == "kernel" and args.fo != "vonneumann":
        print("note: kernel modes use their own inner loop; --fo ignored", file=sys.stderr)

    support = None
    if args.mode == "kernel" and args.support == "full":
        cert, report = full_support_kernel(inst.mat, limits, hook=hook)
    elif args.mode == "kernel":
        cert, support, report = max_support_kernel(inst.mat, limits, hook=hook)
    elif args.support == "full":
        cert, report = full_support_image(inst.mat, limits, fo=fo, hook=hook)
    else:
        cert, support, report = max_support_image(inst.mat, limits, fo=fo, hook=hook)

    print(json.dumps(_cert_json(cert)))
    print(json.dumps(report.as_dict()))
    summary = f"{report.status}: fo_iters={report.fo_iters} rescalings={report.rescalings}"
    if support is not None:
        summary += f" support={[int(i) + 1 for i in support]}"
    print(summary, file=sys.stderr)
    if args.cert_out:
        kind = "kernel" if args.mode == "kernel" else "image"
        vec = cert.x if kind == "kernel" else cert.y
        with open(args.cert_out, "w") as fh:
            fh.write(write_certificate(kind, vec, cert.support))
    if report.status in ("solved", "infeasible_detected"):
        return 0
    return 2


def _cmd_gen(args) -> int:
    if args.mode == "kernel":
        inst = gen_kernel_feasible(args.m, args.n, args.rho, args.seed)
    elif args.mode == "image":
        inst = gen_image_feasible(args.m, args.n, args.rho, args.seed)
    else:
        split = args.split if args.split is not None else max(1, args.n // 2)
        inst = gen_degenerate(args.m, args.n, split, args.seed)
    text = write_instance(inst)
    if inst.known_rho is not None:
        text += f"# known_rho {inst.known_rho!r}\n"
    if inst.known_supports is not None:
        s_idx, t_idx = inst.known_supports
        text += f"# kernel_support {' '.join(str(i + 1) for i in s_idx)}\n"
        text += f"# image_support {' '.join(str(i + 1) for i in t_idx)}\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_certify(args) -> int:
    inst = parse_instance(_read_file(args.input))
    kind, vector, support = parse_certificate(_read_file(args.cert))
    if kind == "kernel":
        cert = KernelCertificate(x=vector, support=support, residual=0.0, min_support_value=0.0)
        rep = check_kernel_certificate(inst.mat, cert, args.tol)
    else:
        cert = ImageCertificate(y=vector, support=support, min_margin=0.0, residual_zero=0.0)
        rep = check_image_certificate(inst.mat, cert, args.tol)
    print(json.dumps({
        "valid": rep.valid,
        "residual": rep.residual,
        "margin": rep.margin,
        "message": rep.message,
    }))
    print(("valid" if rep.valid else "INVALID") + f": {rep.message}", file=sys.stderr)
    return 0 if rep.valid else 3


_BENCH_SUITE = (
    ("kernel-full", 2, 6),
    ("kernel-full", 3, 8),
    ("image-full", 2, 6),
    ("image-full", 3, 8),
    ("kernel-max", 2, 5),
    ("image-max", 2, 5),
)


def _bench_row(mode: str, m: int, n: int, seed: int, timing: bool):
    if mode.endswith("-max"):
        inst = gen_degenerate(m, n, max(1, n // 2), seed)
    elif mode == "image-full":
        inst = gen_image_feasible(m, n, 0.1, seed)
    else:
        inst = gen_kernel_feasible(m, n, 0.05, seed)
    start = time.perf_counter()
    if mode == "kernel-full":
        _, report = full_support_kernel(inst.mat, known_rho=inst.known_rho)
    elif mode == "image-full":
        _, report = full_support_image(inst.mat, known_rho=inst.known_rho)
    elif mode == "kernel-max":
        _, _, report = max_support_kernel(inst.mat)
    else:
        _, _, report = max_support_image(inst.mat)
    wall = (time.perf_counter() - start) * 1000.0 if timing else 0.0
    rho = "" if inst.known_rho is None else repr(float(inst.known_rho))
    return (
        f"{mode}-m{m}-n{n}-s{seed}",
        mode,
        str(m),
        str(n),
        rho,
        report.status,
        str(report.fo_iters),
        str(report.rescalings),
        str(report.removals),
        repr(float(report.residual)),
        repr(float(wall)),
    )


def _cmd_bench(args) -> int:
    out = io.StringIO()
    out.write("instance_id,mode,m,n,rho_known,status,fo_iters,rescalings,removals,residual,wall_ms\n")
    for mode, m, n in _BENCH_SUITE:
        for k in range(3):
            row = _bench_row(mode, m, n, args.seed * 100 + k, args.timing)
            out.write(",".join(row) + "\n")
    sys.stdout.write(out.getvalue())
    print(f"{3 * len(_BENCH_SUITE)} instances", file=sys.stderr)
    return 0


def run(argv=None) -> int:
    if os.environ.get("CONIC_LOG") == "trace":
        logging.basicConfig(stream=sys.stderr, level=logging.DEBUG, format="%(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "certify":
            return _cmd_certify(args)
        return _cmd_bench(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, LinconeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())
