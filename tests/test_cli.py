import json

import numpy as np
import pytest

from lyapdecay.cli import main
from lyapdecay.linalg import matrix_to_json

from conftest import defect1_matrix, geometry_matrix


@pytest.fixture
def matrix_file(tmp_path):
    def write(m, name="m.json"):
        path = tmp_path / name
        path.write_text(json.dumps(matrix_to_json(m)))
        return str(path)

    return write


def test_analyze_geometry(matrix_file, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["analyze", "--matrix", matrix_file(geometry_matrix()), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["mu"] == pytest.approx(0.5, abs=1e-9)
    assert rep["M"] == 2 and rep["I_mu"] == [0]
    assert rep["C_const"] == pytest.approx(24.0, rel=1e-9)


def test_analyze_identity(matrix_file, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["analyze", "--matrix", matrix_file(np.eye(2)), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["mu"] == pytest.approx(1.0)
    assert rep["M"] == 1
    assert rep["C_const"] == pytest.approx(1.0)


def test_analyze_defect1_with_weights(matrix_file, tmp_path):
    eps = 0.5
    out = tmp_path / "report.json"
    rc = main(
        [
            "analyze",
            "--matrix",
            matrix_file(defect1_matrix(eps)),
            "--weights",
            json.dumps([[1.0, eps * eps]]),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["C_const"] == pytest.approx(12.0 * max(2.0, 1.0 + eps * eps), rel=1e-12)


def test_analyze_rejects_unstable(matrix_file, capsys):
    rc = main(["analyze", "--matrix", matrix_file(np.array([[0.0, 1.0], [0.0, 0.0]]))])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_verify_defect1_passes(matrix_file, tmp_path):
    out = tmp_path / "v.csv"
    rc = main(["verify", "--matrix", matrix_file(defect1_matrix(1.0)), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,propagator_sq,bound,ratio"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == pytest.approx(1.0)


def test_verify_undercut_constant_fails(matrix_file, tmp_path, capsys):
    # a constant below the observed peak ratio forces a violation
    rc = main(
        [
            "verify",
            "--matrix",
            matrix_file(defect1_matrix(1.0)),
            "--c-const",
            "0.5",
            "--mu",
            "1.0",
            "--m",
            "2",
            "--out",
            str(tmp_path / "v.csv"),
        ]
    )
    assert rc == 1
    assert "max_ratio" in capsys.readouterr().err


def test_verify_understated_order_fails(matrix_file, tmp_path):
    rc = main(
        [
            "verify",
            "--matrix",
            matrix_file(geometry_matrix()),
            "--c-const",
            "24.0",
            "--mu",
            "0.5",
            "--m",
            "1",
            "--out",
            str(tmp_path / "v.csv"),
        ]
    )
    assert rc == 1


@pytest.mark.parametrize("c_const, rc_want", [(None, 0), (1.0, 1)])
def test_verify_ratio_column_finite_where_both_sides_underflow(matrix_file, tmp_path, c_const, rc_want):
    # at t = 1000 exp(-2 t) t^2 and the envelope are both far below the
    # smallest double, so the ratio must come from the log domain
    out = tmp_path / "v.csv"
    argv = ["verify", "--matrix", matrix_file(defect1_matrix(1.0)), "--t-max", "1000", "--points", "60"]
    if c_const is not None:
        argv += ["--c-const", str(c_const), "--mu", "1.0", "--m", "2"]
    rc = main(argv + ["--out", str(out)])
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.any((rows[:, 1] == 0.0) & (rows[:, 2] == 0.0))
    assert np.all(np.isfinite(rows[:, 3]))
    assert rc == rc_want
    assert (rows[:, 3].max() > 1.0 + 1e-9) == (rc == 1)


def test_verify_rejects_partial_override(matrix_file, capsys):
    rc = main(["verify", "--matrix", matrix_file(np.eye(2)), "--c-const", "1.0"])
    assert rc == 2


def test_family_subcommand(tmp_path):
    out = tmp_path / "f.csv"
    rc = main(
        [
            "family",
            "--family",
            "exponential",
            "--alpha",
            "1.0",
            "--beta",
            "1.0",
            "--mu-min",
            "1.0",
            "--t-max",
            "8",
            "--points",
            "17",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("t,")
    assert len(rows) == 18


def test_model_cd_runs_and_reports(tmp_path):
    out, rep = tmp_path / "cd.csv", tmp_path / "cd.json"
    rc = main(
        [
            "model-cd", "--order", "1", "--K", "8", "--z-grid=-2:2:3",
            "--t-max", "4", "--t-points", "5", "--out", str(out), "--report", str(rep),
        ]
    )
    assert rc == 0
    report = json.loads(rep.read_text())
    assert report["passed"] and report["max_ratio"] <= 1.0
    assert report["constants"]["C_global"] == pytest.approx(36.0)
    assert report["config"]["K"] == 8


def test_model_gt_runs(tmp_path):
    out, rep = tmp_path / "gt.csv", tmp_path / "gt.json"
    rc = main(
        [
            "model-gt", "--K", "6", "--k-max", "8", "--z-grid=-1:1:3",
            "--t-max", "5", "--t-points", "5", "--out", str(out), "--report", str(rep),
        ]
    )
    assert rc == 0
    report = json.loads(rep.read_text())
    assert {"lambda_min", "lambda_max", "C"} <= set(report["uniform"]["defective"])
    assert report["uniform"]["tail_margin"] == pytest.approx(1.1)


def test_model_fp_runs(tmp_path):
    out, rep = tmp_path / "fp.csv", tmp_path / "fp.json"
    rc = main(
        [
            "model-fp", "--K", "10", "--z-grid=0:6.28:3",
            "--t-max", "5", "--t-points", "5", "--out", str(out), "--report", str(rep),
        ]
    )
    assert rc == 0
    report = json.loads(rep.read_text())
    assert {"C_12", "C_3", "C_ge4", "C_global"} <= set(report["constants"])


def test_model_fp_diffusion_variant(tmp_path):
    rc = main(
        [
            "model-fp", "--variant", "diffusion", "--z-grid=0:6:3",
            "--t-max", "5", "--t-points", "5",
            "--out", str(tmp_path / "d.csv"), "--report", str(tmp_path / "d.json"),
        ]
    )
    assert rc == 0


def test_csv_output_is_reproducible(tmp_path, matrix_file):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    mat = matrix_file(geometry_matrix())
    assert main(["verify", "--matrix", mat, "--out", str(a)]) == 0
    assert main(["verify", "--matrix", mat, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_precedence(tmp_path, matrix_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_max": 5.0, "points": 7}))
    out = tmp_path / "v.csv"
    rc = main(
        [
            "verify", "--matrix", matrix_file(np.eye(2)),
            "--config", str(cfg), "--points", "9", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 10  # CLI flag (9 points) wins over the config file
    assert float(rows[-1].split(",")[0]) == pytest.approx(5.0)  # config t_max used


def test_invalid_matrix_file_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["analyze", "--matrix", str(bad)])
    assert rc == 2


def test_bound_column_reproducible_from_report(tmp_path):
    out, rep = tmp_path / "cd.csv", tmp_path / "cd.json"
    rc = main(
        [
            "model-cd", "--order", "1", "--K", "8", "--z-grid=-1:1:3",
            "--t-max", "4", "--t-points", "7", "--out", str(out), "--report", str(rep),
        ]
    )
    assert rc == 0
    report = json.loads(rep.read_text())
    c_glob = report["constants"]["C_global"]
    b0 = report["constants"]["b0"]
    initial_sup = report["initial_sup"]
    ts = np.linspace(0.0, 4.0, 7)
    want = c_glob * (1.0 + ts**2) * np.exp(-2.0 * b0 * ts) * initial_sup
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    got = np.array(sorted({float(r[3]) for r in rows}))
    np.testing.assert_array_equal(np.sort(got), np.sort(np.unique(want)))


def test_analyze_weight_heuristic(matrix_file, tmp_path):
    out = tmp_path / "report.json"
    rc = main(
        [
            "analyze", "--matrix", matrix_file(defect1_matrix(0.5)),
            "--weights", "heuristic", "--out", str(out),
        ]
    )
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["C_const"] == pytest.approx(24.0, rel=1e-9)


def test_model_cd_tabulated_coefficients(tmp_path):
    z = np.linspace(-2.0, 2.0, 81)
    coeffs = {
        "z": z.tolist(),
        "a": z.tolist(),
        "b": (2.0 + np.tanh(z)).tolist(),
        "da": np.ones_like(z).tolist(),
        "db": (1.0 / np.cosh(z) ** 2).tolist(),
        "b0": 1.0,
    }
    cfile = tmp_path / "coeffs.json"
    cfile.write_text(json.dumps(coeffs))
    rc = main(
        [
            "model-cd", "--order", "1", "--coeffs", str(cfile), "--K", "6",
            "--z-grid=-1.5:1.5:3", "--t-max", "3", "--t-points", "4",
            "--out", str(tmp_path / "cd.csv"), "--report", str(tmp_path / "cd.json"),
        ]
    )
    assert rc == 0


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(matrix_to_json(np.eye(2))))
    proc = subprocess.run(
        [sys.executable, "-m", "lyapdecay.cli", "analyze", "--matrix", str(mfile)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["M"] == 1
