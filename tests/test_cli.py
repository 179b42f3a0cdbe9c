import json
import shlex
import sys

import pytest

from helpers import integer_draw, record_completion
from lincone import image as image_module
from lincone import kernel as kernel_module
from lincone import oracle as oracle_module
from lincone.cli import run
from lincone.instances import gen_degenerate, write_instance
from lincone.report import Limits


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolve:
    def test_kernel_full_antipodal(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", "1 2\n1 -1\n")
        code = run(["solve", "--mode", "kernel", "--support", "full", "--input", inst])
        captured = capsys.readouterr()
        assert code == 0
        cert_line, report_line = captured.out.strip().splitlines()
        cert = json.loads(cert_line)
        report = json.loads(report_line)
        assert cert["kind"] == "kernel"
        assert cert["vector"] == pytest.approx([1.0, 1.0])
        assert report["status"] == "solved"

    def test_image_max_degenerate(self, tmp_path, capsys):
        inst = write(tmp_path, "deg.txt", "2 3\n1 -1 1\n0 0 1\n")
        code = run(["solve", "--mode", "image", "--support", "max", "--input", inst])
        captured = capsys.readouterr()
        assert code == 0
        cert = json.loads(captured.out.splitlines()[0])
        assert cert["support"] == [2]

    def test_image_max_on_row_scaled_draw(self, tmp_path, capsys):
        # Rows alternately times 1e12 and 1 change no rank: the unscaled support comes back.
        mat = integer_draw(11)
        mat[::2] *= 1e12
        rows = "\n".join(" ".join(str(int(v)) for v in row) for row in mat)
        inst = write(tmp_path, "scaled.txt", f"{mat.shape[0]} {mat.shape[1]}\n{rows}\n")
        code = run(["solve", "--mode", "image", "--support", "max", "--input", inst])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out.splitlines()[0])["support"] == [0, 1, 2, 3]
        assert "support=[1, 2, 3, 4]" in captured.err

    def test_kernel_max_support_in_summary(self, tmp_path, capsys):
        inst = write(tmp_path, "deg.txt", "2 3\n1 -1 1\n0 0 1\n")
        code = run(["solve", "--mode", "kernel", "--support", "max", "--input", inst])
        captured = capsys.readouterr()
        assert code == 0
        cert = json.loads(captured.out.splitlines()[0])
        assert cert["support"] == [0, 1]

    def test_infeasible_kernel_detected_exits_zero(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", "2 2\n1 0\n0 1\n")
        code = run(["solve", "--mode", "kernel", "--support", "full", "--input", inst])
        captured = capsys.readouterr()
        report = json.loads(captured.out.splitlines()[1])
        assert report["status"] == "infeasible_detected"
        assert code == 0

    def test_infeasible_kernel_writes_the_image_certificate(self, tmp_path, capsys):
        # The kernel solver's infeasible verdict carries the image witness it
        # checked; it is printed and written as an image certificate.
        inst = write(tmp_path, "inst.txt", "2 2\n1 0\n0 1\n")
        cert_path = str(tmp_path / "out.cert")
        code = run(["solve", "--mode", "kernel", "--input", inst, "--cert-out", cert_path])
        cert = json.loads(capsys.readouterr().out.splitlines()[0])
        assert code == 0
        assert cert["kind"] == "image" and cert["support"] == [0, 1]
        assert min(cert["vector"]) > 0.0
        with open(cert_path) as fh:
            assert fh.readline().strip() == "image"
        code = run(["certify", "--input", inst, "--cert", cert_path])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["valid"] is True

    def test_no_converge_exit_two(self, tmp_path, capsys):
        # image full-support on an instance with rho < 0: cannot separate
        inst = write(tmp_path, "inst.txt", "1 2\n1 -1\n")
        code = run([
            "solve", "--mode", "image", "--support", "full", "--input", inst,
            "--max-rescalings", "5", "--max-iters", "5000",
        ])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out.splitlines()[1])
        assert report["status"] == "no_converge"

    def test_cert_out_round_trips_through_certify(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", "1 2\n1 -1\n")
        cert_path = str(tmp_path / "out.cert")
        code = run([
            "solve", "--mode", "kernel", "--input", inst, "--cert-out", cert_path,
        ])
        assert code == 0
        capsys.readouterr()
        code = run(["certify", "--input", inst, "--cert", cert_path])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["valid"] is True

    @pytest.mark.parametrize("mode", ["kernel", "image"])
    def test_max_iters_keeps_max_support_budgets(self, tmp_path, monkeypatch, capsys, mode):
        # The CLI passes only the budget a flag sets; the max-support solver
        # completes the other from its own encoding-length default.
        module = kernel_module if mode == "kernel" else image_module
        seen = record_completion(monkeypatch, module, "default_limits")
        inst = write(tmp_path, "deg.txt", write_instance(gen_degenerate(3, 8, 4, 0)))
        code = run(["solve", "--mode", mode, "--support", "max", "--input", inst, "--max-iters", "500"])
        capsys.readouterr()
        assert code in (0, 2)
        assert seen == [(Limits(None, 500), Limits(max_rescalings=7770, max_iterations=500))]

    @pytest.mark.parametrize("flag, value", [("--max-iters", "-5"), ("--max-rescalings", "-1")])
    def test_negative_budget_exit_one(self, tmp_path, capsys, flag, value):
        # Before any step: a negative budget is a usage error, not a run.
        run(["gen", "--mode", "image", "--m", "3", "--n", "8", "--output", str(tmp_path / "inst.txt")])
        capsys.readouterr()
        code = run(["solve", "--mode", "image", "--input", str(tmp_path / "inst.txt"), flag, value])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "must be at least 0" in captured.err

    def test_missing_file_exit_one(self, capsys):
        code = run(["solve", "--mode", "kernel", "--input", "/nonexistent/x.txt"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err

    def test_malformed_instance_exit_one(self, tmp_path, capsys):
        inst = write(tmp_path, "bad.txt", "2 2\n1 0\n")
        code = run(["solve", "--mode", "kernel", "--input", inst])
        captured = capsys.readouterr()
        assert code == 1

    def test_unknown_flag_exit_one(self, capsys):
        code = run(["solve", "--mode", "kernel", "--wedge", "7"])
        captured = capsys.readouterr()
        assert code == 1


class TestOracleCmd:
    SCRIPT = (
        "import sys\n"
        "for line in sys.stdin:\n"
        "    v = [float(t) for t in line.split()]\n"
        "    bad = [i for i, c in enumerate(v) if c <= 0]\n"
        "    if not bad:\n"
        "        print('YES', flush=True)\n"
        "    else:\n"
        "        out = [0.0] * len(v)\n"
        "        out[bad[0]] = 1.0\n"
        "        print(' '.join(repr(c) for c in out), flush=True)\n"
    )

    def test_subprocess_oracle_solve(self, capsys):
        cmd = f'"{sys.executable}" -c "{self.SCRIPT}"'
        import shlex

        cmd = " ".join(shlex.quote(p) for p in [sys.executable, "-c", self.SCRIPT])
        code = run(["solve", "--mode", "image", "--oracle-cmd", cmd, "--dim", "2"])
        captured = capsys.readouterr()
        assert code == 0
        cert = json.loads(captured.out.splitlines()[0])
        assert all(c > 0 for c in cert["vector"])
        report = json.loads(captured.out.splitlines()[1])
        counts = {key: report[key] for key in ("fo_iters", "oracle_calls", "rescalings")}
        assert captured.err == "solved: steps={fo_iters} oracle_calls={oracle_calls} rescalings={rescalings}\n".format(**counts)

    def test_max_iters_keeps_oracle_rescale_budget(self, monkeypatch, capsys):
        # A flag overrides only its own budget; the oracle solver completes
        # the rest from its defaults, 64m rescalings here.
        seen = record_completion(monkeypatch, oracle_module, "default_oracle_limits")
        cmd = " ".join(shlex.quote(p) for p in [sys.executable, "-c", self.SCRIPT])
        code = run(["solve", "--mode", "image", "--oracle-cmd", cmd, "--dim", "3", "--max-iters", "500"])
        capsys.readouterr()
        assert code == 0
        assert seen == [(Limits(None, 500), Limits(max_rescalings=64 * 3, max_iterations=500))]

    def test_missing_oracle_program_exit_one(self, capsys):
        code = run(["solve", "--mode", "image", "--oracle-cmd", "/nonexistent/prog", "--dim", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_dimension_below_one_exit_one(self, capsys, dim):
        cmd = " ".join(shlex.quote(p) for p in [sys.executable, "-c", self.SCRIPT])
        code = run(["solve", "--mode", "image", "--oracle-cmd", cmd, "--dim", dim])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("flag", [["--support", "max"], ["--cert-out", "oracle.cert"], ["--input", "inst.txt"]])
    def test_flags_the_oracle_path_ignores_exit_one(self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.chdir(tmp_path)
        cmd = " ".join(shlex.quote(p) for p in [sys.executable, "-c", self.SCRIPT])
        code = run(["solve", "--mode", "image", "--oracle-cmd", cmd, "--dim", "2", *flag])
        captured = capsys.readouterr()
        assert code == 1
        assert flag[0] in captured.err
        assert not (tmp_path / "oracle.cert").exists()

    def test_nan_answer_exit_one(self, capsys):
        script = "import sys\nfor line in sys.stdin:\n    print('nan 1 0', flush=True)\n"
        cmd = " ".join(shlex.quote(p) for p in [sys.executable, "-c", script])
        code = run(["solve", "--mode", "image", "--oracle-cmd", cmd, "--dim", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")

    def test_oracle_requires_dimension(self, capsys):
        code = run(["solve", "--mode", "image", "--oracle-cmd", "prog"])
        captured = capsys.readouterr()
        assert code == 1
        assert "dim" in captured.err


class TestGen:
    def test_gen_kernel_stdout_parses(self, capsys):
        code = run(["gen", "--mode", "kernel", "--m", "2", "--n", "5",
                    "--rho", "0.1", "--seed", "4"])
        captured = capsys.readouterr()
        assert code == 0
        from lincone.instances import parse_instance

        inst = parse_instance(captured.out)
        assert inst.mat.shape == (2, 5)
        assert "# known_rho" in captured.out

    def test_gen_degenerate_to_file(self, tmp_path, capsys):
        out = str(tmp_path / "deg.txt")
        code = run(["gen", "--mode", "degenerate", "--m", "2", "--n", "5",
                    "--split", "2", "--seed", "1", "--output", out])
        assert code == 0
        text = open(out).read()
        assert "# kernel_support 1 2" in text

    def test_gen_deterministic(self, capsys):
        run(["gen", "--mode", "image", "--m", "2", "--n", "4", "--seed", "9"])
        first = capsys.readouterr().out
        run(["gen", "--mode", "image", "--m", "2", "--n", "4", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second


class TestCertify:
    def test_invalid_cert_exit_three(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", "1 2\n1 -1\n")
        cert = write(tmp_path, "bad.cert", "kernel\n1.0 0.0\n1\n")
        code = run(["certify", "--input", inst, "--cert", cert])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out)["valid"] is False

    def test_valid_cert_exit_zero(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", "1 2\n1 -1\n")
        cert = write(tmp_path, "good.cert", "kernel\n1.0 1.0\n1 2\n")
        code = run(["certify", "--input", inst, "--cert", cert])
        captured = capsys.readouterr()
        assert code == 0

    def test_image_cert(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", "2 2\n1 0\n0 1\n")
        cert = write(tmp_path, "good.cert", "image\n0.5 0.5\n1 2\n")
        code = run(["certify", "--input", inst, "--cert", cert])
        assert code == 0


class TestSurface:
    def test_help_lists_the_three_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        assert "{solve,gen,certify}" in capsys.readouterr().out

    def test_bench_is_not_a_command(self, capsys):
        assert run(["bench"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""


class TestTraceLog:
    def test_trace_env_emits_events(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CONIC_LOG", "trace")
        import logging

        inst = write(tmp_path, "inst.txt", "2 4\n1 -1 0 0\n0 0 1 -1\n")
        logging.getLogger("lincone").setLevel(logging.DEBUG)
        stream = None
        code = run(["solve", "--mode", "kernel", "--input", inst])
        assert code == 0
