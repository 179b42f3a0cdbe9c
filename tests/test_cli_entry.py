"""The CLI as a module entry point, and its exit codes on infeasible and forged input."""

import json
import os
import subprocess
import sys
from pathlib import Path

from lincone.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"


def test_module_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "lincone.cli", "gen", "--mode", "kernel", "--m", "2", "--n", "4"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "2 4"


def test_image_solve_on_infeasible_cone_exits_two(tmp_path, capsys):
    # 0 is in the hull of +-e1, +-e2: the run ends at the float-range stop.
    inst = tmp_path / "cross.txt"
    inst.write_text("2 4\n1 -1 0 0\n0 0 1 -1\n")
    code = run(["solve", "--input", str(inst), "--mode", "image"])
    out = capsys.readouterr().out.splitlines()
    assert code == 2
    assert json.loads(out[1])["status"] == "no_converge"


def test_certify_rejects_a_scaled_down_kernel_certificate(tmp_path, capsys):
    # x = 1e-12 (1, 1) has a residual below the absolute tolerance, yet no
    # nonzero x >= 0 has x_1 + x_2 = 0.
    inst = tmp_path / "sum.txt"
    inst.write_text("1 2\n1 1\n")
    cert = tmp_path / "forged.cert"
    cert.write_text("kernel\n1e-12 1e-12\n1 2\n")
    code = run(["certify", "--input", str(inst), "--cert", str(cert)])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["valid"] is False
