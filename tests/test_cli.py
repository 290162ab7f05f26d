"""Command-line interface: outputs, schemas, exit codes, determinism."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bqdim import cli


# the message of float pow's OverflowError, in the platform's words
ERANGE = str(OverflowError(errno.ERANGE, os.strerror(errno.ERANGE)))


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_weyl_normal_form(capsys):
    code, out, _ = run_cli(["weyl", "normal-form", "--n", "3",
                            "--word", "1,2,3,2,1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "bqdim/1"
    assert data["length"] == 5
    assert data["parts"][0]["eps"] == 0
    assert data["parts"][2] == {"eps": 2, "k": 1}


def test_weyl_dims(capsys):
    code, out, _ = run_cli(["weyl", "dims", "--n", "2", "--m", "2"], capsys)
    data = json.loads(out)
    assert code == 0 and data["quotient_dim"] == 7


def test_weyl_longest(capsys):
    code, out, _ = run_cli(["weyl", "longest", "--n", "2"], capsys)
    data = json.loads(out)
    assert code == 0 and data["length"] == 4
    code, out, _ = run_cli(["weyl", "longest", "--n", "2", "--indices", "2"],
                           capsys)
    data = json.loads(out)
    assert data["length"] == 3


def test_weyl_decompose(capsys):
    code, out, _ = run_cli(["weyl", "decompose", "--n", "2",
                            "--word", "2,1,2", "--indices", "2"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["lengths"] == [1, 2]


def test_malformed_word_is_usage_error(capsys):
    code, _, err = run_cli(["weyl", "normal-form", "--n", "2",
                            "--word", "1,x"], capsys)
    assert code == 2
    assert "malformed" in err


def test_out_of_range_letter_is_usage_error(capsys):
    code, _, err = run_cli(["weyl", "normal-form", "--n", "2",
                            "--word", "3"], capsys)
    assert code == 2


def test_rep_verify(capsys):
    code, out, _ = run_cli(["rep", "verify", "--n", "2", "--word", "1,2,1,2",
                            "--cutoff", "4"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["orthogonality_ok"]
    assert data["orthogonality_deviation"] < 1e-8


def test_rep_verify_word_comparison(capsys):
    code, out, _ = run_cli(["rep", "verify", "--n", "3", "--word", "1,2,1",
                            "--word2", "2,1,2", "--cutoff", "4"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["braid_equal"] is False
    assert data["braid_deviation"] > 0.1


def test_rep_verify_bad_torus(capsys):
    code, _, err = run_cli(["rep", "verify", "--n", "2", "--word", "1",
                            "--t", "2,0;1,0"], capsys)
    assert code == 2
    assert "error: torus entry (2+0j) is not unit modulus" in err


@pytest.mark.parametrize("argv, message", [
    (["rep", "verify", "--q", "1.5"], "q must lie in (0,1), got 1.5"),
    (["gkdim", "module", "--q", "nan"], "q must lie in (0,1), got nan"),
    (["rep", "verify", "--tol", "0"], "tol must be positive and finite, got 0.0"),
    (["rep", "verify", "--tol", "nan"], "tol must be positive and finite, got nan"),
    (["rep", "verify", "--tol", "inf"], "tol must be positive and finite, got inf"),
    (["rep", "verify", "--cutoff", "-1"], "window sizes must be nonnegative"),
    (["gkdim", "module", "--rmax", "-1"], "window sizes must be nonnegative"),
    (["gkdim", "homogeneous", "--probe", "-1"],
     "window sizes must be nonnegative"),
    (["gkdim", "module", "--basis-cap", "0"], "basis cap must be positive"),
    # NaN compares false with every bound, so no check may read a false
    # comparison as a pass
    (["gkdim", "module", "--rmax", "3", "--t=nan,0"],
     "torus entry (nan+0j) is not unit modulus"),
    # the r = 0 row alone pins no growth degree, so it certifies nothing
    (["gkdim", "module", "--rmax", "0"], "a certificate needs r_max >= 1, got 0"),
    (["gkdim", "homogeneous", "--rmax", "0"],
     "a certificate needs r_max >= 1, got 0"),
    # q^b overflows a float at tiny q
    (["rep", "verify", "--q", "1e-200"], ERANGE),
    (["gkdim", "homogeneous", "--rmax", "2", "--q", "1e-200"], ERANGE),
    # the CSV goes out before the JSON, so a failed write leaves stdout empty
    (["gkdim", "module", "--rmax", "1", "--csv", "."],
     "cannot write .: Is a directory"),
])
def test_run_parameters_are_refused(argv, message, capsys):
    instance = ["--m", "1"] if argv[1] == "homogeneous" else ["--word", "1"]
    code, out, err = run_cli(argv[:2] + ["--n", "1"] + instance + argv[2:],
                             capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_closed_stdout_stops_quietly(monkeypatch, tmp_path, capsys):
    """A reader that closes the pipe early (`bqdim ... | head`) ends the
    run with exit 1 and no traceback; stdout then points at the null
    device, so the flush at interpreter exit cannot fail again."""
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
        code = cli.main(["weyl", "dims", "--n", "2", "--m", "2"])
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert code == 1
    assert capsys.readouterr().err == ""


def test_module_mode_takes_no_probe(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gkdim", "module", "--n", "1", "--word", "1", "--rmax", "2",
                  "--probe", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --probe 1" in capsys.readouterr().err


def test_rep_entry_render(capsys):
    code, out, _ = run_cli(["rep", "entry", "--n", "3", "--word", "1,2,3,2,1",
                            "--k", "4", "--l", "4"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["operator"] == \
        "I (x) I (x) (I + -1*(1+q^2)*q^{2N}) (x) I (x) I"


def test_diagram_dot(capsys):
    code, out, _ = run_cli(["diagram", "dot", "--n", "3",
                            "--word", "1,2,3,2,1"], capsys)
    assert code == 0
    assert out.startswith("digraph")
    assert "M5_" in out


def test_diagram_paths(capsys):
    code, out, _ = run_cli(["diagram", "paths", "--n", "3",
                            "--word", "1,2,3,2,1", "--from", "1", "--to", "3"],
                           capsys)
    data = json.loads(out)
    assert code == 0 and data["count"] == 2
    code, _, err = run_cli(["diagram", "paths", "--n", "3", "--word", "1",
                            "--from", "0", "--to", "3"], capsys)
    assert code == 2
    assert err == "error: node out of range 1..7\n"


def test_gkdim_module(capsys, tmp_path):
    csv_path = tmp_path / "series.csv"
    code, out, _ = run_cli(["gkdim", "module", "--n", "2", "--word", "1",
                            "--rmax", "6", "--csv", str(csv_path)], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["ok"] and data["target"] == 1
    text = csv_path.read_text()
    assert text.splitlines()[0] == "r,d,lower,upper"
    assert len(text.splitlines()) == 8


def test_gkdim_module_witnesses_land_at_large_rmax(capsys):
    # the witness amplitude of word 1 falls below the float range at total
    # 48; landing judges the support alone, so the certificate holds
    code, out, _ = run_cli(["gkdim", "module", "--n", "1", "--word", "1",
                            "--rmax", "50"], capsys)
    data = json.loads(out)
    assert code == 0 and data["ok"] and data["witness_ok"]


def test_gkdim_module_with_torus_point(capsys):
    code, out, _ = run_cli(["gkdim", "module", "--n", "2", "--word", "1,2",
                            "--rmax", "4", "--t", "0,1;1,0"], capsys)
    data = json.loads(out)
    assert code == 0 and data["ok"] and data["target"] == 2


def test_gkdim_homogeneous(capsys):
    code, out, _ = run_cli(["gkdim", "homogeneous", "--n", "1", "--m", "1",
                            "--rmax", "3", "--probe", "3"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["target"] == 3 and data["ok"]


def test_gkdim_homogeneous_witness_failure_exit_code(
        capsys, shifted_homogeneous_witness):
    code, out, err = run_cli(["gkdim", "homogeneous", "--n", "1", "--m", "1",
                              "--rmax", "1", "--probe", "1"], capsys)
    assert code == 4
    assert '"witness_ok": false' in out
    assert json.loads(out)["ok"] is False
    assert err == ""


def test_gkdim_budget_exit_code_with_partial_series(capsys):
    code, out, _ = run_cli(["gkdim", "module", "--n", "2", "--word", "1,2",
                            "--rmax", "6", "--basis-cap", "5"], capsys)
    assert code == 3
    data = json.loads(out)
    assert data["error"] == "budget-exceeded"
    assert "budget-exceeded" in data["flags"]
    assert data["partial_series"][0] == [0, 1]


def test_probe_budget_stop_is_a_certificate_failure(capsys, monkeypatch):
    """The structural series fits under the cap, so a probe series that
    passes it fails the rows it did not reach (exit 4), not the budget."""
    from bqdim import growth

    def stopped(gens, q, r_max, probe_cutoff, basis_cap, context):
        raise growth.BudgetExceeded(
            f"basis size exceeded {basis_cap} at step 2",
            growth.GrowthSeries(context, [(0, 1), (1, 10)]))

    monkeypatch.setattr(growth, "_probe_rank_series", stopped)
    code, out, _ = run_cli(["gkdim", "homogeneous", "--n", "1", "--m", "1",
                            "--rmax", "2", "--probe", "1"], capsys)
    data = json.loads(out)
    assert code == 4
    assert "partial_series" not in data and "error" not in data
    assert data["context"]["probe_values"] == [[0, 1], [1, 10]]
    assert [row.get("why") for row in data["rows"]] == [None, None, ["probe"]]


def test_determinism_across_threads(capsys, tmp_path):
    outputs = []
    for threads, name in ((1, "a.csv"), (4, "b.csv")):
        csv_path = tmp_path / name
        code, out, _ = run_cli(["--threads", str(threads), "gkdim", "module",
                                "--n", "2", "--word", "1,2", "--rmax", "5",
                                "--csv", str(csv_path)], capsys)
        assert code == 0
        outputs.append((out, csv_path.read_bytes()))
    assert outputs[0] == outputs[1]


def _child_env():
    # the child imports bqdim from where this process found it, so the
    # tests also run from a checkout without an install
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "bqdim.cli", "weyl", "dims",
                           "--n", "1", "--m", "1"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["group_dim"] == 3


def test_certificates_leave_heavy_modules_unimported():
    """numpy.ma and fractions would add to the peak memory of every run;
    a fresh interpreter shows what the growth certificates import."""
    child = """if True:
        import contextlib, io, sys
        from bqdim import cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["gkdim", "module", "--n", "2", "--word", "1,2",
                               "--rmax", "3"]),
                     cli.main(["gkdim", "homogeneous", "--n", "1", "--m", "1",
                               "--rmax", "2", "--probe", "1"])]
        print(codes, sorted({"numpy.ma", "fractions"} & set(sys.modules)))
    """
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=_child_env())
    assert proc.stdout == "[0, 0] []\n", proc.stderr
