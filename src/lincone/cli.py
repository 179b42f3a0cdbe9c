"""Command line surface: solve, gen, certify.

stdout carries machine output only: JSON lines for solve and certify, the
instance text for gen. Human-readable summaries go to stderr. Exit codes:
0 success/valid, 1 usage or input error, 2 solver did not converge, 3
certificate invalid.

The budget flags of solve override only their own budget; an unset one
takes the solver's default.

Set CONIC_LOG=trace for per-event solver ledgers on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict

import numpy as np

from .certify import ImageCertificate, KernelCertificate, check_image_certificate, check_kernel_certificate
from .errors import LinconeError
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
from .kernel import full_support_kernel, max_support_kernel
from .oracle import SubprocessOracle, strict_conic_feasibility
from .report import Limits

__all__ = ["run", "main"]

log = logging.getLogger("lincone")

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
    return top


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc.strerror}")


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
    """The certificate's fields in order, its first one (x or y) as ``vector``."""
    kind = "kernel" if isinstance(cert, KernelCertificate) else "image"
    fields = {key: np.asarray(value).tolist() for key, value in asdict(cert).items()}
    vector = fields.pop(next(iter(fields)))
    return {"kind": kind, "vector": vector, **fields}


def _solve(mode: str, support: str, mat, limits, hook):
    """(cert, support or None, report) from the matrix solver for ``mode`` and ``support``."""
    if support == "max":
        solver = max_support_kernel if mode == "kernel" else max_support_image
        return solver(mat, limits, hook=hook)
    solver = full_support_kernel if mode == "kernel" else full_support_image
    cert, report = solver(mat, limits, hook=hook)
    return cert, None, report


def _cmd_solve(args) -> int:
    hook = _trace_hook()
    limits = Limits(args.max_rescalings, args.max_iters)
    if args.oracle_cmd is not None:
        if args.mode != "image":
            raise _Usage("--oracle-cmd solves the image problem; use --mode image")
        if args.support != "full" or args.cert_out is not None:
            raise _Usage("--oracle-cmd takes neither --support max nor --cert-out")
        if args.input is not None:
            m = parse_instance(_read_file(args.input)).mat.shape[0]
        elif args.dim is not None:
            m = args.dim
        else:
            raise _Usage("--oracle-cmd needs --input or --dim for the dimension")
        with SubprocessOracle(args.oracle_cmd, m) as oracle:
            y, report = strict_conic_feasibility(oracle, m, limits, hook=hook)
        cert_obj = {"kind": "image", "vector": [float(v) for v in y], "support": None}
        print(json.dumps(cert_obj))
        print(json.dumps(report.as_dict()))
        print(f"{report.status}: steps={report.fo_iters} oracle_calls={report.oracle_calls} "
              f"rescalings={report.rescalings}", file=sys.stderr)
        return 0 if report.status == "solved" else 2

    if args.input is None:
        raise _Usage("solve needs --input")
    inst = parse_instance(_read_file(args.input))
    cert, support, report = _solve(args.mode, args.support, inst.mat, limits, hook)

    cert_json = _cert_json(cert)
    print(json.dumps(cert_json))
    print(json.dumps(report.as_dict()))
    summary = f"{report.status}: fo_iters={report.fo_iters} rescalings={report.rescalings}"
    if support is not None:
        summary += f" support={[int(i) + 1 for i in support]}"
    print(summary, file=sys.stderr)
    if args.cert_out:
        # full_support_kernel answers infeasible_detected with an image certificate
        with open(args.cert_out, "w") as fh:
            fh.write(write_certificate(cert_json["kind"], cert_json["vector"], cert_json["support"]))
    return 0 if report.status in ("solved", "infeasible_detected") else 2


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
        rep = check_kernel_certificate(inst.mat, KernelCertificate(vector, support), args.tol)
    else:
        rep = check_image_certificate(inst.mat, ImageCertificate(vector, support), args.tol)
    print(json.dumps(asdict(rep)))
    print(("valid" if rep.valid else "INVALID") + f": {rep.message}", file=sys.stderr)
    return 0 if rep.valid else 3


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
        return _cmd_certify(args)
    except (_Usage, LinconeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
