import hashlib
import json
import warnings
from pathlib import Path

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
    for text in ("{not json", "[[1, 1], [0, 2]]"):
        bad.write_text(text)
        rc = main(["analyze", "--matrix", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        return exc.code


@pytest.mark.parametrize(
    "argv, config, named",
    [
        (["model-fp"], {"variant": "diffusionX"}, "variant"),
        (["model-cd"], {"order": 2.7}, "order"),
        (["verify"], [1, 2], "JSON object"),
        (["verify"], {"t_max": "5"}, "t_max"),
        (["verify"], {"t_max": 10**400}, "t_max"),
        (["model-cd"], {"z_grid": [0, 1, 3]}, "z_grid"),
        (["model-gt"], {"k_max": True}, "k_max"),
        (["model-cd", "--K", "0"], None, "--K"),
        (["model-fp", "--K", "0"], None, "--K"),
        (["model-gt", "--K", "0"], None, "--K"),
        (["model-cd", "--t-points", "0"], None, "--t-points"),
        (["family", "--z-points", "0"], None, "--z-points"),
        (["verify", "--points", "0"], None, "--points"),
        (["model-cd", "--z-grid=0:1:0"], None, "--z-grid"),
        (["model-cd", "--z-grid=nan:1:3"], None, "--z-grid"),
        (["model-gt", "--k-max", "-1", "--K", "4", "--z-grid=0:1:2", "--t-points", "3"], None, "k_max"),
        (["verify", "--t-max", "-1"], None, "--t-max"),
        (["verify", "--t-max", "0"], None, "--t-max"),
    ],
)
def test_malformed_option_exits_2_naming_it(argv, config, named, matrix_file, tmp_path, capsys):
    if argv[0] == "verify":
        argv = argv + ["--matrix", matrix_file(np.eye(2))]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert _exit_code(argv + ["--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0]
    assert "Traceback" not in err


def test_config_value_gives_the_bytes_of_the_same_flag(tmp_path, monkeypatch):
    # t_max is an int in the file and "4" on the command line: both become 4.0
    settings = {"order": 2, "K": 4, "z_grid": "-1:1:3", "t_max": 4, "t_points": 5}
    flags = ["--order", "2", "--K", "4", "--z-grid=-1:1:3", "--t-max", "4", "--t-points", "5"]
    (tmp_path / "cfg.json").write_text(json.dumps(settings))
    outputs = {}
    for name, argv in (("config", ["--config", str(tmp_path / "cfg.json")]), ("flags", flags)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(["model-cd", *argv, "--out", "cd.csv", "--report", "cd.json"]) == 0
        outputs[name] = [(tmp_path / name / f).read_bytes() for f in ("cd.csv", "cd.json")]
    assert outputs["config"] == outputs["flags"]


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


def test_model_fp_diffusion_ratio_column_finite_where_both_sides_underflow(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(
        [
            "model-fp", "--variant", "diffusion", "--t-max", "400", "--t-points", "5",
            "--z-grid=0:1:2", "--out", str(out), "--report", str(tmp_path / "d.json"),
        ]
    )
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.any((rows[:, 3] == 0.0) & (rows[:, 4] == 0.0))
    assert np.all(np.isfinite(rows[:, 5]))
    assert (rows[:, 5].max() > 1.0 + 1e-9) == (rc == 1)


def test_model_defaults_keep_recorded_digests(tmp_path, monkeypatch):
    # the model-* and family outputs at their defaults; the reports record the
    # output names, so they are passed bare as the benchmark passes them, and
    # LYAPDECAY_THREADS is left unset
    digests = json.loads((Path(__file__).parents[1] / "bench" / "seed_digests.json").read_text())["files"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LYAPDECAY_THREADS", raising=False)
    runs = {
        "model-cd-1": ["model-cd", "--order", "1"],
        "model-cd-2": ["model-cd", "--order", "2"],
        "model-gt": ["model-gt"],
        "model-fp": ["model-fp"],
    }
    for name, argv in runs.items():
        assert main(argv + ["--out", f"{name}.csv", "--report", f"{name}.json"]) == 0
    assert main(["family", "--out", "family.csv"]) == 0
    assert len(digests) == 9
    for fname, digest in digests.items():
        assert hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest() == digest, fname


def test_model_defaults_build_their_initial_state_once(tmp_path, monkeypatch):
    # the cd and gt initial states do not depend on z, so one build serves all 13 z
    from lyapdecay import convection_diffusion as cd
    from lyapdecay import goldstein_taylor as gt

    calls = []
    for module, name in ((cd, "fourier_coefficients"), (gt, "gt_state_from_functions")):
        orig = getattr(module, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for command in ("model-cd", "model-gt"):
        assert main([command, "--out", str(tmp_path / "m.csv"), "--report", str(tmp_path / "m.json")]) == 0
    assert calls == ["fourier_coefficients"] * 2 + ["gt_state_from_functions"]


def test_model_gt_tabulated_sigma(tmp_path):
    z = np.linspace(-3.0, 3.0, 61)
    sigma = 1.0 + 0.5 * np.tanh(z)
    table = {"z": z.tolist(), "sigma": sigma.tolist(), "dsigma": (0.5 / np.cosh(z) ** 2).tolist()}
    tfile = tmp_path / "sigma.json"
    tfile.write_text(json.dumps(table))
    rep = tmp_path / "gt.json"
    rc = main(
        [
            "model-gt", "--sigma", str(tfile), "--K", "4", "--k-max", "4", "--z-grid=-1:1:3",
            "--t-max", "5", "--t-points", "4", "--out", str(tmp_path / "gt.csv"), "--report", str(rep),
        ]
    )
    assert rc == 0
    assert json.loads(rep.read_text())["uniform"]["sigma0"] == float(sigma.min())


def test_model_fp_tabulated_drift(tmp_path):
    z = np.linspace(0.0, 2.0 * np.pi, 61)
    a = 1.0 + 0.3 * np.sin(z)
    table = {"z": z.tolist(), "a": a.tolist(), "da": (0.3 * np.cos(z)).tolist()}
    tfile = tmp_path / "drift.json"
    tfile.write_text(json.dumps(table))
    rep = tmp_path / "fp.json"
    rc = main(
        [
            "model-fp", "--drift", str(tfile), "--K", "8", "--z-grid=0:6:3",
            "--t-max", "5", "--t-points", "4", "--out", str(tmp_path / "fp.csv"), "--report", str(rep),
        ]
    )
    assert rc == 0
    assert json.loads(rep.read_text())["constants"]["a0"] == float(a.min())


def test_family_ratio_finite_where_both_sides_underflow(tmp_path):
    # at t = 400 the grid supremum and the envelope are both 0.0 in double
    out = tmp_path / "f.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["family", "--t-max", "400", "--points", "5", "--z-points", "5", "--out", str(out)])
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[-1, 1] == 0.0 and rows[-1, 2] == 0.0
    assert np.all(np.isfinite(rows[:, 3]))
    assert (rows[:, 3].max() > 1.0 + 1e-9) == (rc == 1)


def test_verify_reports_finite_log_ratio_past_overflow(matrix_file, tmp_path, capsys):
    # eigenvalues 1 +- 1e-4 against the envelope of a double eigenvalue 1: the
    # ratio passes the largest double long before t = 1e7
    m = np.array([[1.0, 1.0], [1e-8, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "--matrix", matrix_file(m), "--t-max", "1e7", "--out", str(tmp_path / "v.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "inf" not in err
    log_ratio = float(err.split("max_log_ratio = ")[1])
    assert 709.0 < log_ratio < np.inf


def _table_run(tmp_path, command, option, table, *extra):
    tfile = tmp_path / "table.json"
    tfile.write_text(json.dumps(table))
    return main(
        [
            command, option, str(tfile), "--K", "4", "--z-grid=0:6:7", "--t-max", "2", "--t-points", "3",
            "--out", str(tmp_path / "m.csv"), "--report", str(tmp_path / "m.json"), *extra,
        ]
    )


@pytest.mark.parametrize(
    "declared, message",
    [
        ({"sigma0": 1.2, "L": 0.01}, "sigma"),
        ({"sigma0": 1.2}, "sigma"),
        ({"sigma1": 1.2}, "sigma"),
        ({"L": 0.01}, "exceeds L"),
    ],
)
def test_model_gt_rejects_table_contradicting_its_bounds(tmp_path, capsys, declared, message):
    # on the z grid 0..6 the column spans sigma in [1.0, 1.5] with |sigma'| up to 0.5
    z = np.linspace(-6.0, 6.0, 41)
    table = {
        "z": z.tolist(),
        "sigma": (1.0 + 0.5 * np.tanh(z)).tolist(),
        "dsigma": (0.5 / np.cosh(z) ** 2).tolist(),
    }
    assert _table_run(tmp_path, "model-gt", "--sigma", {**table, **declared}) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "declared, message",
    [({"a0": 0.95, "sup_da": 0.01}, "sup_da"), ({"a0": 0.95}, "< a0"), ({"sup_da": 0.01}, "sup_da")],
)
def test_model_fp_rejects_table_contradicting_its_bounds(tmp_path, capsys, declared, message):
    # on the z grid 0..6 the column has min a = 0.71 and max |a'| = 0.3
    z = np.linspace(0.0, 6.0, 41)
    table = {"z": z.tolist(), "a": (1.0 + 0.3 * np.sin(z)).tolist(), "da": (0.3 * np.cos(z)).tolist()}
    assert _table_run(tmp_path, "model-fp", "--drift", {**table, **declared}) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "weights, rc_want",
    [
        ("[[2.0], [3.0]]", 0),
        ("[[2.0, 1.0], [3.0]]", 2),
        ("[[2.0], [3.0], [1.0]]", 2),
        ("5", 2),
        ('[{"a": 1}, [1]]', 2),
    ],
)
def test_analyze_weights_one_per_chain_vector(matrix_file, capsys, weights, rc_want):
    # [[1, 1], [0, 2]] has two length-1 blocks
    rc = main(["analyze", "--matrix", matrix_file(np.array([[1.0, 1.0], [0.0, 2.0]])), "--weights", weights])
    assert rc == rc_want
    assert "Traceback" not in capsys.readouterr().err


def test_family_ratio_from_logs_where_envelope_is_subnormal(tmp_path):
    # the last two envelopes (4e-313 and 2e-323) are subnormal; the last ratio
    # of subnormals would read 0.25
    out = tmp_path / "f.csv"
    argv = ["family", "--family", "exponential", "--t-max", "372", "--points", "32", "--z-points", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert 0.0 < rows[-1, 2] < np.finfo(float).tiny
    assert rows[-1, 3] == pytest.approx(0.19299, rel=1e-4)


_Z = np.linspace(-6.0, 6.0, 41)


@pytest.mark.parametrize(
    "command, option, key, columns",
    [
        ("model-cd", "--coeffs", "b0", {"a": _Z, "b": 2.0 + np.tanh(_Z), "da": np.ones_like(_Z), "db": np.cosh(_Z) ** -2}),
        ("model-gt", "--sigma", "sigma0", {"sigma": 1.0 + 0.5 * np.tanh(_Z), "dsigma": 0.5 * np.cosh(_Z) ** -2}),
        ("model-fp", "--drift", "a0", {"a": 1.0 + 0.25 * np.sin(_Z), "da": 0.25 * np.cos(_Z)}),
    ],
)
def test_model_table_null_bound_is_derived_and_string_bound_rejected(tmp_path, capsys, command, option, key, columns):
    table = {"z": _Z.tolist(), **{name: col.tolist() for name, col in columns.items()}}
    extra = ["--k-max", "4"] if command == "model-gt" else []
    assert _table_run(tmp_path, command, option, table, *extra) == 0
    absent = [(tmp_path / name).read_bytes() for name in ("m.csv", "m.json")]
    assert _table_run(tmp_path, command, option, {**table, key: None}, *extra) == 0
    assert [(tmp_path / name).read_bytes() for name in ("m.csv", "m.json")] == absent
    assert _table_run(tmp_path, command, option, {**table, key: "0.5"}, *extra) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
