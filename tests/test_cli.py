import argparse
import builtins
import errno
import hashlib
import io
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from lyapdecay import cli
from lyapdecay.cli import build_parser, main
from conftest import defect1_matrix, geometry_matrix, matrix_to_json


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


@pytest.mark.parametrize(
    "points, t_max",
    [(1, 50.0), (2, 50.0), (2, 1e-4), (3, 50.0), (5, 1e-4), (5, 1e-3), (9, 2e-3), (200, 1e6)],
)
def test_verify_time_grid_rises_to_t_max(matrix_file, tmp_path, points, t_max):
    # every grid rises to t_max and stays inside [0, t_max], for any points and t_max
    out = tmp_path / "v.csv"
    argv = ["--points", str(points), "--t-max", repr(t_max), "--out", str(out)]
    assert main(["verify", "--matrix", matrix_file(defect1_matrix(1.0)), *argv]) == 0
    t = np.array([float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]])
    assert t.size == points and t[-1] == t_max and t[0] >= 0.0
    assert np.all(np.diff(t) > 0)
    if points >= 3 and t_max > 1e-3:
        # the geometric grid that the bench rebuilds, bit for bit
        np.testing.assert_array_equal(t, np.concatenate([[0.0], np.geomspace(1e-3, t_max, points - 1)]))


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


@pytest.mark.parametrize(
    "flag, value",
    [("--c-const", "-1"), ("--c-const", "0"), ("--c-const", "nan"), ("--c-const", "inf"),
     ("--mu", "inf"), ("--mu", "nan"), ("--m", "0"), ("--m", "-3")],
)
def test_verify_rejects_invalid_envelope_override(matrix_file, tmp_path, capsys, flag, value):
    envelope = {"--c-const": "24", "--mu": "1.0", "--m": "2", flag: value}
    out = tmp_path / "v.csv"
    argv = ["verify", "--matrix", matrix_file(defect1_matrix(1.0)), "--out", str(out)]
    rc = main(argv + [arg for item in envelope.items() for arg in item])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err.startswith(f"error: {flag} must be")


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


@pytest.mark.parametrize("command, K", [("model-cd", 1), ("model-fp", 2)])
def test_model_tail_fraction_is_a_share_of_the_deviation_at_small_K(tmp_path, command, K):
    # cd's outermost two modes on each side, at K = 1, are the whole deviation
    # (the conserved k = 0 counts 0, not twice); fp's g_2 counts as its
    # deviation g_2 + alpha/sqrt 2 at K = 2
    rep = tmp_path / "m.json"
    argv = [command, "--K", str(K), "--z-grid=0:3:4", "--t-points", "3", "--out", str(tmp_path / "m.csv"), "--report", str(rep)]
    assert main(argv) == 0
    got = json.loads(rep.read_text())["tail_fraction"]
    if command == "model-cd":
        assert got == pytest.approx(1.0, rel=1e-12)
        return
    from lyapdecay import fokker_planck as fp
    from lyapdecay.oracle import deviation_sq

    field = fp.MODEL.builtins["builtin:sin"]()
    tails, devs = [], []
    for z in np.linspace(0.0, 3.0, 4):
        (f0, f1, f2), (g0, g1, g2) = fp.fp_gaussian_state(field, z=z, K=2)
        tails.append(f2**2 + (g2 + field.alpha(z) / np.sqrt(2.0)) ** 2)
        devs.append(f1**2 + g1**2 + tails[-1])
        assert deviation_sq(fp.MODEL, field, np.array([[f0, f1, f2], [g0, g1, g2]]), z) == pytest.approx(devs[-1], rel=1e-12)
    assert got == pytest.approx(max(tails) / max(devs), rel=1e-12)
    assert 0.0 < got < 1.0


def test_model_fp_diffusion_variant(tmp_path):
    rc = main(
        [
            "model-fp", "--variant", "diffusion", "--z-grid=0:6:3",
            "--t-max", "5", "--t-points", "5",
            "--out", str(tmp_path / "d.csv"), "--report", str(tmp_path / "d.json"),
        ]
    )
    assert rc == 0


@pytest.mark.parametrize(
    "argv, config, named",
    [
        pytest.param(["--drift", "/nonexistent.json"], None, "--drift", id="flag-drift"),
        pytest.param(["--K", "3"], None, "--K", id="flag-K"),
        pytest.param([], {"drift": "builtin:sin"}, "--drift", id="config-drift"),
        pytest.param([], {"K": 3}, "--K", id="config-K"),
    ],
)
def test_model_fp_diffusion_rejects_the_drift_options(tmp_path, capsys, argv, config, named):
    # the variant has its own field and mode pairs, so neither would be used
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "cfg.json")]
    out, rep = tmp_path / "d.csv", tmp_path / "d.json"
    rc = main(["model-fp", "--variant", "diffusion", *argv, "--out", str(out), "--report", str(rep)])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and named in line
    assert not out.exists() and not rep.exists()


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
        (["family", "--t-max", "inf"], None, "--t-max"),
        (["family", "--t-max", "0"], None, "--t-max"),
        (["family", "--z-max", "nan"], None, "--z-max"),
        (["model-cd", "--t-max", "inf"], None, "--t-max"),
        (["model-cd", "--t-max", "-1"], None, "--t-max"),
        (["model-gt", "--t-max", "nan"], None, "--t-max"),
        (["model-fp", "--variant", "diffusion", "--t-max", "0"], None, "--t-max"),
        (["model-fp"], {"t_max": -2.5}, "--t-max"),
        # a non-finite tolerance must not reach jordan_chains: with nan it reads
        # [[1, 1], [0, 1]] as M = 1, C = 1, a false envelope
        (["analyze", "--rel-tol", "nan"], None, "--rel-tol"),
        (["analyze", "--cluster-tol", "inf"], None, "--cluster-tol"),
        (["analyze", "--cluster-tol", "0"], None, "--cluster-tol"),
        (["verify", "--rel-tol=-1e-9"], None, "--rel-tol"),
        (["verify"], {"cluster_tol": float("nan")}, "--cluster-tol"),
        (["family", "--alpha", "inf"], None, "--alpha"),
        (["family", "--beta", "nan"], None, "--beta"),
        (["family"], {"mu_min": float("-inf")}, "--mu-min"),
        # a value after a space that argparse alone would take for a flag
        # ("expected one argument") reaches the option's own check
        (["verify", "--rel-tol", "-1e-9"], None, "--rel-tol must be finite and > 0"),
        (["analyze", "--cluster-tol", "-.5"], None, "--cluster-tol must be finite and > 0"),
        (["verify", "--t-max", "-inf"], None, "--t-max must be finite and > 0"),
        (["verify", "--mu", "-1e-3"], None, "--mu and --m must be given together"),
        (["model-cd", "--z-grid", "-1:1:0"], None, "--z-grid must be lo:hi:n"),
        # --weights is 'heuristic' or a JSON list: each of these ran with the
        # default weights, and a null entry kept that block's defaults
        (["analyze", "--weights", "0"], None, "--weights"),
        (["analyze", "--weights", "false"], None, "--weights"),
        (["analyze", "--weights", "null"], None, "--weights"),
        (["analyze", "--weights", '""'], None, "--weights"),
        (["analyze", "--weights", "{}"], None, "--weights"),
        (["analyze", "--weights", "[null]"], None, "--weights"),
        (["analyze", "--weights", "[[1.0]"], None, "--weights"),
    ],
)
def test_malformed_option_exits_2_naming_it(argv, config, named, matrix_file, tmp_path, capsys):
    if argv[0] in ("analyze", "verify"):
        argv = argv + ["--matrix", matrix_file(np.eye(2))]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert _exit_code(argv + ["--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0]
    assert "Traceback" not in err


_JSON_CORPUS = [
    -0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308, float("nan"), float("inf"), float("-inf"),
    2**63 + 1, -(2**70), 0, True, False, None, [], {}, (), [[]], [{}], ([], ()),
    np.float64(0.1), np.float64(-0.0), np.float64("nan"), np.float64("-inf"),
    'quote " and backslash \\', "controls \x00\x01\x1f\t\n\r\x7f", "non-ASCII é ☃ 𝄞 \u2028",
    {"b": [1, {"z": (2.5, None)}], "a": {"y": [[]], "x": {}}, "": True, "é": "é"},
]


@pytest.mark.parametrize("obj", _JSON_CORPUS, ids=range(len(_JSON_CORPUS)))
def test_report_writer_matches_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [np.int64(1), np.bool_(True), {1, 2}, b"x", [np.int64(1)], {"a": {1}}, {1: 2}])
def test_report_writer_raises_type_error(obj):
    # json converts the int key of {1: 2}; the writer takes str keys only
    with pytest.raises(TypeError):
        cli._json_text(obj)


def test_reports_carry_json_dumps_bytes(matrix_file, tmp_path, monkeypatch):
    reports, json_text = [], cli._json_text

    def spy(obj, indent="\n"):
        if indent == "\n":
            reports.append(obj)
        return json_text(obj, indent)

    monkeypatch.setattr(cli, "_json_text", spy)
    out = tmp_path / "r.json"
    assert main(["analyze", "--matrix", matrix_file(geometry_matrix()), "--weights", "heuristic", "--out", str(out)]) == 0
    tiny = ["--K", "4", "--t-points", "3", "--out", str(tmp_path / "cd.csv"), "--report", str(tmp_path / "cd.json")]
    assert main(["model-cd", "--z-grid=-1:1:3", *tiny]) == 0
    assert len(reports) == 2
    for obj, path in zip(reports, [out, tmp_path / "cd.json"]):
        assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_negative_value_after_a_space_is_the_flags_value(matrix_file, tmp_path):
    # cli._Parser replaces this argparse internal; a rename would undo it silently
    assert "_negative_number_matcher" in vars(argparse.ArgumentParser())
    argv = ["verify", "--matrix", matrix_file(np.eye(2)), "--c-const", "2", "--mu", "-1e-3", "--m", "1"]
    assert main(argv + ["--points", "5", "--out", str(tmp_path / "v.csv")]) == 0
    tiny = ["--K", "4", "--t-points", "2", "--out", str(tmp_path / "cd.csv"), "--report", str(tmp_path / "cd.json")]
    assert main(["model-cd", "--z-grid", "-1:1:2", *tiny]) == 0
    assert json.loads((tmp_path / "cd.json").read_text())["config"]["z_grid"] == "-1:1:2"


def test_rewrite_opens_the_existing_file_without_truncating_it(matrix_file, tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    out.write_text("x" * 100_000)
    flags, os_open = [], os.open

    def spy(path, flag, *args, **kwargs):
        if os.fspath(path) == str(out):
            flags.append(flag)
        return os_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    assert main(["analyze", "--matrix", matrix_file(np.eye(2)), "--out", str(out)]) == 0
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
    assert json.loads(out.read_text())["M"] == 1


def test_rewrite_that_shrinks_a_file_leaves_only_the_new_bytes(matrix_file, tmp_path):
    out = tmp_path / "report.json"
    argv = ["analyze", "--matrix", matrix_file(np.eye(2)), "--out", str(out)]
    assert main(argv) == 0
    fresh = out.read_bytes()
    out.write_bytes(b"old tail " * 10_000)
    assert main(argv) == 0
    assert out.read_bytes() == fresh


def test_an_interrupted_rewrite_leaves_no_bytes_past_the_new_length(matrix_file, tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    argv = ["analyze", "--matrix", matrix_file(np.eye(2)), "--out", str(out)]
    assert main(argv) == 0
    fresh = out.read_bytes()
    out.write_bytes(b"old tail " * 10_000)

    class DiskFull(io.FileIO):
        def write(self, b):
            super().write(bytes(b)[: len(b) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def interrupted_open(file, *args, **kwargs):
        return DiskFull(file, "w") if isinstance(file, int) else builtins.open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", interrupted_open, raising=False)
    assert main(argv) == 2
    left = out.read_bytes()
    assert len(left) == len(fresh) and left[: len(fresh) // 2] == fresh[: len(fresh) // 2]


def test_rewrite_through_a_symlink_updates_the_target_and_keeps_the_link(matrix_file, tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("{}" + " " * 5000)
    link.symlink_to(target)
    assert main(["analyze", "--matrix", matrix_file(np.eye(2)), "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())["M"] == 1


def test_out_and_report_on_one_path_leave_the_report(tmp_path):
    path = str(tmp_path / "both")
    argv = ["model-cd", "--K", "4", "--z-grid=0:1:2", "--t-points", "3", "--out", path, "--report", path]
    assert main(argv) == 0
    assert set(json.loads((tmp_path / "both").read_text())) >= {"config", "constants", "passed"}


def test_output_to_dev_null_exits_0(matrix_file):
    assert main(["analyze", "--matrix", matrix_file(np.eye(2)), "--out", os.devnull]) == 0
    assert main(["verify", "--matrix", matrix_file(np.eye(2)), "--points", "4", "--out", os.devnull]) == 0


def test_output_to_a_directory_exits_2(matrix_file, tmp_path, capsys):
    assert main(["analyze", "--matrix", matrix_file(np.eye(2)), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Is a directory" in err and "Traceback" not in err


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


def test_analyze_overflowing_weights_print_one_error_line(tmp_path):
    # in a process of its own, where numpy warnings would reach stderr
    import subprocess
    import sys

    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(matrix_to_json(np.diag([1.0, 2.0]))))
    proc = subprocess.run(
        [sys.executable, "-m", "lyapdecay.cli", "analyze", "--matrix", str(mfile), "--weights", "[[1e308]]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: --weights: P(0) entries must be finite: the block weights overflow it\n"


@pytest.mark.parametrize("scale", [1e100, 1e150, 1e160, 1e200, 1e300])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_analyze_and_verify_name_an_overflowing_jordan_power(d, scale, matrix_file, tmp_path, capsys, monkeypatch):
    # C = s (I + N), N the ones of the superdiagonal: B^j or its threshold
    # ||B||^j passes the largest double, or the top-down chain's eigenvector
    # squares past it; an overflowed power once sent NaNs to LAPACK's SVD,
    # which hung, and the warnings before it run as errors here
    svd = np.linalg.svd

    def finite_svd(a, *args, **kwargs):
        assert np.all(np.isfinite(a)), "a non-finite matrix reached np.linalg.svd"
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", finite_svd)
    mfile = matrix_file(scale * (np.eye(d) + np.eye(d, k=1)))
    rc = main(["analyze", "--matrix", mfile, "--out", str(tmp_path / "a.json")])
    err = capsys.readouterr().err
    if d == 2 and scale <= 1e150:  # ||B||^2 and the chain's squares stay finite
        assert (rc, err) == (0, "")
        return
    assert rc == 2
    assert re.fullmatch(r"error: eigenvalue \S+: the (power B\^\d and its threshold \|\|B\|\|\^\d|top-down chain of length \d) overflows?\b[^\n]*\n", err), err
    assert main(["verify", "--matrix", mfile, "--out", str(tmp_path / "v.csv")]) == 2
    assert capsys.readouterr().err == err


#: the modules every subcommand uses, and so the only ones ``lyapdecay.cli`` imports
_CORE_MODULES = ["lyapdecay", "lyapdecay.cli", "lyapdecay.jordan", "lyapdecay.linalg", "lyapdecay.lyapunov"]


@pytest.mark.parametrize(
    "command, extra",
    [
        (None, []),
        ("analyze", []),
        ("verify", ["lyapdecay.oracle"]),
        ("model-cd", ["lyapdecay.oracle", "lyapdecay.convection_diffusion"]),
    ],
    ids=["import", "analyze", "verify", "model-cd"],
)
def test_subcommand_loads_only_the_modules_it_runs(command, extra, tmp_path):
    import subprocess
    import sys

    import lyapdecay

    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(matrix_to_json(geometry_matrix())))
    argv = {
        "analyze": ["analyze", "--matrix", str(mfile), "--out", str(tmp_path / "a.json")],
        "verify": ["verify", "--matrix", str(mfile), "--points", "5", "--out", str(tmp_path / "v.csv")],
        "model-cd": [
            "model-cd", "--K", "2", "--z-grid=0:1:2", "--t-points", "3",
            "--out", str(tmp_path / "m.csv"), "--report", str(tmp_path / "m.json"),
        ],
    }.get(command)
    code = "import sys\nfrom lyapdecay.cli import main\n"
    code += f"assert main({argv!r}) == 0\n" if argv else ""
    code += 'print(*sorted(m for m in sys.modules if m.split(".")[0] == "lyapdecay"))'
    # the child imports the package these tests import
    src = str(Path(lyapdecay.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(_CORE_MODULES + extra)


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


def test_model_defaults_keep_recorded_digests(tmp_path, monkeypatch, expm_matrices):
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
    # the sweeps' propagators go through expm in a few large stacked calls
    # (78 with the 16384-entry budget, 377 with one of 256 propagators)
    assert sum(expm_matrices) == 83850
    assert len(expm_matrices) <= 100
    assert main(["family", "--out", "family.csv"]) == 0
    assert len(digests) == 9
    for fname, digest in digests.items():
        assert hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest() == digest, (
            f"{fname}: the pinned bytes carry the bits of the BLAS kernel that numpy's OpenBLAS picks for "
            "this CPU, and they match SkylakeX; a stacked matmul differs between Prescott, Haswell and "
            "SkylakeX, so OPENBLAS_CORETYPE=Haswell fails here without a change in the program"
        )


#: SHA-256 of small runs that the default digests miss: a tabulated field of
#: each model (interpolated columns, bounds derived from them) and the trig
#: builtin at order 2, recorded at a833bb3 before the models shared one record
_PINNED_RUNS = {
    "table-cd-1": (["model-cd", "--coeffs", "cd.json", "--order", "1"], "6d5e802fcbdb944c", "3d9583c9b89673b6"),
    "table-cd-2": (["model-cd", "--coeffs", "cd.json", "--order", "2"], "c990a1f763e597ec", "53681a838284ca32"),
    "table-gt": (["model-gt", "--sigma", "gt.json", "--k-max", "4"], "3b03a76d5ea825b0", "98b53750d324ab87"),
    "table-fp": (["model-fp", "--drift", "fp.json"], "77f90d28b6c3d3d0", "e2729ff24d8b00c6"),
    "trig-cd-2": (["model-cd", "--coeffs", "builtin:trig", "--order", "2"], "17da5be28f8d2b87", "8751b67da84214e4"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_model_tables_and_trig_keep_recorded_digests(name, tmp_path, monkeypatch):
    # the reports record the table and output names, so they are passed bare;
    # the BLAS caveat of test_model_defaults_keep_recorded_digests holds here too
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LYAPDECAY_THREADS", raising=False)
    cd_columns = {**_TABLES["model-cd"][1], "d2a": np.zeros_like(_Z), "d2b": -2.0 * np.tanh(_Z) / np.cosh(_Z) ** 2}
    for fname, columns in (("cd.json", cd_columns), ("gt.json", _TABLES["model-gt"][1]), ("fp.json", _TABLES["model-fp"][1])):
        (tmp_path / fname).write_text(json.dumps({"z": _Z.tolist(), **{key: col.tolist() for key, col in columns.items()}}))
    argv, csv_digest, json_digest = _PINNED_RUNS[name]
    grid = ["--K", "6", "--z-grid=-2:4:7", "--t-max", "5", "--t-points", "11"]
    assert main(argv + grid + ["--out", f"{name}.csv", "--report", f"{name}.json"]) == 0
    for suffix, digest in ((".csv", csv_digest), (".json", json_digest)):
        assert hashlib.sha256((tmp_path / (name + suffix)).read_bytes()).hexdigest()[:16] == digest, suffix


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


def test_model_fp_tabulated_drift_of_2_or_more_is_named(tmp_path, capsys):
    # the unit-precision initial Gaussian has a finite weighted norm only for a < 2
    table = {"z": _Z.tolist(), "a": [2.5] * _Z.size, "da": [0.0] * _Z.size}
    assert _table_run(tmp_path, "model-fp", "--drift", table) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "a(z) < 2" in line and "a(0.0) = 2.5" in line


def test_family_constant_rate_equals_its_envelope(tmp_path):
    # the constant family is mu_min I at every z: ||exp(-C t)||^2 = exp(-2 mu_min t), the envelope
    out = tmp_path / "f.csv"
    argv = ["family", "--family", "constant", "--mu-min", "0.7", "--t-max", "5", "--points", "11", "--z-points", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    t, sup, env, ratio = np.loadtxt(out, delimiter=",", skiprows=1).T
    np.testing.assert_allclose(env, np.exp(-1.4 * t), rtol=1e-15)
    np.testing.assert_allclose(sup, env, rtol=1e-13)
    assert np.all(np.abs(ratio - 1.0) < 1e-13)


@pytest.mark.parametrize(
    "argv, name, z",
    [
        # exp(z) overflows from z = 709.78; on this grid first at 713.33
        (["--family", "exponential", "--z-max", "800"], "mu", 713.3333333333335),
        # alpha beta exp(beta z) passes the largest double before alpha exp(beta z)
        (["--family", "exponential", "--beta", "1.9", "--z-max", "373.4", "--z-points", "2"], "mu'", 373.4),
    ],
)
def test_family_overflowing_rate_prints_one_error_line(argv, name, z, tmp_path, capsys):
    # pytest's filterwarnings = error turns any numpy warning into a failure
    assert main(["family", *argv, "--out", str(tmp_path / "f.csv")]) == 2
    assert capsys.readouterr().err == f"error: {name}(z) must be finite on the z grid, got {name}({z!r}) = inf\n"
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["--alpha", "1e200"], "underflows to 0"),
        (["--t-max", "1e300"], "underflows to 0"),
        (["--family", "exponential", "--beta", "-1.5", "--z-max", "300"], "underflows to 0"),
        # t ||C||_2 is finite at 1e300 but overflows here; each t is finite
        (["--t-max", "1e308"], "||C||_2 t exceeds 2^1023"),
    ],
)
def test_family_past_the_oracle_ladder_prints_one_error_line(argv, cause, tmp_path, capsys):
    # pytest's filterwarnings = error turns any numpy warning into a failure
    assert main(["family", *argv, "--out", str(tmp_path / "f.csv")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: log ||exp(-C t)||_2 at t = ") and line.endswith(cause)
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize(
    "t_max, cause",
    [
        # the diagonal of the power-of-two ladder's levels underflows before
        # the corner does, and then a nilpotent level squares to 0
        ("1e300", r"the norm at squaring \d+ underflows to 0"),
        ("1e308", r"\|\|C\|\|_2 t exceeds 2\^1023"),
    ],
    ids=["underflow", "overflow"],
)
def test_verify_past_the_oracle_ladder_prints_one_error_line(t_max, cause, matrix_file, tmp_path, capsys):
    # pytest's filterwarnings = error turns any numpy warning into a failure
    argv = ["verify", "--matrix", matrix_file(defect1_matrix(1.0)), "--t-max", t_max, "--out", str(tmp_path / "v.csv")]
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"error: log \|\|exp\(-C t\)\|\|_2 at t = \S+, \|\|C\|\|_2 = \S+: " + cause, line)
    assert not (tmp_path / "v.csv").exists()


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


@pytest.mark.parametrize(
    "argv",
    [
        ["model-cd", "--K", "4"],
        ["model-cd", "--order", "2", "--K", "4"],
        ["model-gt", "--K", "4"],
        ["model-fp", "--K", "6"],
    ],
    ids=["cd-order1", "cd-order2", "gt", "fp"],
)
def test_model_long_horizon_passes_without_warning(tmp_path, argv):
    # at t = 800 the deviations and the bound underflow; the relaxation
    # deviation once had a rounding floor of 4.9e-32 in its conserved masses
    rep = tmp_path / "m.json"
    grid = ["--z-grid=0:1:3", "--t-points", "21", "--t-max", "800"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv + grid + ["--out", str(tmp_path / "m.csv"), "--report", str(rep)])
    assert rc == 0
    assert np.isfinite(json.loads(rep.read_text())["max_ratio"])


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


#: one table per model; on the z grid 0..6 the cd columns span b in [2, 3)
#: with |a'| = 1, the gt columns sigma in [1.0, 1.5] with |sigma'| up to 0.5,
#: and the fp columns a in [0.71, 1.27] with |a'| up to 0.3
_TABLES = {
    "model-cd": ("--coeffs", {"a": _Z, "b": 2.0 + np.tanh(_Z), "da": np.ones_like(_Z), "db": np.cosh(_Z) ** -2}),
    "model-gt": ("--sigma", {"sigma": 1.0 + 0.5 * np.tanh(_Z), "dsigma": 0.5 * np.cosh(_Z) ** -2}),
    "model-fp": ("--drift", {"a": 1.0 + 0.3 * np.sin(_Z), "da": 0.3 * np.cos(_Z)}),
}


def _table(command):
    option, columns = _TABLES[command]
    return option, {"z": _Z.tolist(), **{name: col.tolist() for name, col in columns.items()}}


#: the top-level keys of each model report: the config and every entry of
#: its check's result that is not an array
_REPORT_KEYS = {
    "model-cd": {"config", "constants", "initial_sup", "max_ratio", "passed", "tail_fraction"},
    "model-gt": {"config", "uniform", "initial_sup", "max_ratio", "passed"},
    "model-fp": {"config", "constants", "initial_sup", "max_ratio", "passed", "tail_fraction"},
}


@pytest.mark.parametrize("command", sorted(_REPORT_KEYS))
def test_model_report_holds_the_non_array_entries_of_its_check(tmp_path, command):
    option, table = _table(command)
    extra = []
    if command == "model-cd":  # a = z and b = 2 + tanh z, with second derivatives
        table = {**table, "d2a": [0.0] * _Z.size, "d2b": (-2.0 * np.tanh(_Z) / np.cosh(_Z) ** 2).tolist()}
        extra = ["--order", "2"]
    elif command == "model-gt":
        extra = ["--k-max", "4"]
    assert _table_run(tmp_path, command, option, table, *extra) == 0
    report = json.loads((tmp_path / "m.json").read_text())
    assert set(report) == _REPORT_KEYS[command]
    if command == "model-cd":
        assert report["config"]["order"] == 2 and {"case2_const", "case3_const"} <= set(report["constants"])


@pytest.mark.parametrize(
    "command, declared, message",
    [
        pytest.param("model-cd", {"sup_da": 0.01}, "exceeds sup_da", id="cd-sup_da"),
        pytest.param("model-cd", {"b0": 2.5}, "< b0", id="cd-b0"),
        pytest.param("model-gt", {"sigma0": 1.2, "L": 0.01}, "< sigma0", id="gt-sigma0-L"),
        pytest.param("model-gt", {"sigma0": 1.2}, "< sigma0", id="gt-sigma0"),
        pytest.param("model-gt", {"sigma1": 1.2}, "> sigma1", id="gt-sigma1"),
        pytest.param("model-gt", {"L": 0.01}, "exceeds L", id="gt-L"),
        pytest.param("model-fp", {"a0": 0.95, "sup_da": 0.01}, "exceeds sup_da", id="fp-a0-sup_da"),
        pytest.param("model-fp", {"a0": 0.95}, "< a0", id="fp-a0"),
        pytest.param("model-fp", {"sup_da": 0.01}, "exceeds sup_da", id="fp-sup_da"),
    ],
)
def test_model_rejects_table_contradicting_its_bounds(tmp_path, capsys, command, declared, message):
    option, table = _table(command)
    assert _table_run(tmp_path, command, option, {**table, **declared}) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and message in line


@pytest.mark.parametrize("rows", ["reversed", "shuffled", "repeated", "nan"])
def test_model_table_z_must_be_finite_and_strictly_increasing(tmp_path, capsys, rows):
    option, table = _table("model-cd")
    order = {
        "reversed": np.arange(_Z.size)[::-1],
        "shuffled": np.random.default_rng(0).permutation(_Z.size),
        "repeated": np.repeat(np.arange(_Z.size), 2),
        "nan": np.arange(_Z.size),
    }[rows]
    table = {key: [col[i] for i in order] for key, col in table.items()}
    if rows == "nan":
        table["z"][-1] = float("nan")
    assert _table_run(tmp_path, "model-cd", option, table) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "table z " in err


@pytest.mark.parametrize("command", ["model-cd", "model-gt", "model-fp"])
def test_model_table_names_a_missing_or_misshapen_column(tmp_path, capsys, command):
    option, table = _table(command)
    column = next(key for key in table if key != "z")
    broken = {
        "short": {**table, column: table[column][:-1]},
        "long": {**table, column: table[column] + [1.0]},
        "nested": {**table, column: [table[column]]},
        "null": {**table, column: None},
        "text": {**table, column: "x"},
        "missing": {key: col for key, col in table.items() if key != column},
    }
    for case, bad in broken.items():
        assert _table_run(tmp_path, command, option, bad) == 2, case
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: table {column} "), (case, line)
    for bad in ({key: col for key, col in table.items() if key != "z"}, {**table, "z": [table["z"]]}, {**table, "z": []}):
        assert _table_run(tmp_path, command, option, bad) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: table z "), line


@pytest.mark.parametrize("command", ["model-cd", "model-gt", "model-fp"])
@pytest.mark.parametrize(
    "entry",
    [pytest.param("1.0", id="numeric-string"), pytest.param(True, id="true"), pytest.param(10**400, id="huge-int"),
     pytest.param(float("inf"), id="infinity")],
)
def test_model_table_columns_hold_only_finite_json_numbers(tmp_path, capsys, command, entry):
    # a numeric string or a true once read as a float, and the run exited 0
    option, table = _table(command)
    column = next(key for key in table if key != "z")
    for key, want in ((column, f"a list of {_Z.size} numbers, one per z"), ("z", "a list of numbers")):
        bad = {**table, key: [entry, *table[key][1:]]}
        assert _table_run(tmp_path, command, option, bad) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: table {key} must be {want}"


def test_model_gt_rejects_a_table_below_sigma0_before_its_uniform_constant(tmp_path, capsys, monkeypatch):
    # sigma = 1 + 0.5 tanh z drops below the declared sigma0 = 1.2 at the
    # default grid's first z; the parameter-box sweep is never paid for
    from lyapdecay import goldstein_taylor as gt

    def never(*args, **kwargs):
        raise AssertionError("gt_uniform_constant called")

    monkeypatch.setattr(gt, "gt_uniform_constant", never)
    option, table = _table("model-gt")
    (tmp_path / "table.json").write_text(json.dumps({**table, "sigma0": 1.2}))
    argv = ["model-gt", option, str(tmp_path / "table.json"), "--out", str(tmp_path / "m.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: sigma(-3.0) < sigma0\n"
    assert not (tmp_path / "m.csv").exists()


def test_model_cd_order_2_needs_the_second_derivative_columns(tmp_path, capsys):
    # the first-order table has no d2a or d2b: order 1 runs, order 2 names them
    option, table = _table("model-cd")
    assert _table_run(tmp_path, "model-cd", option, table, "--order", "1") == 0
    assert _table_run(tmp_path, "model-cd", option, table, "--order", "2") == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "error: second derivatives of the coefficients are required"


@pytest.mark.parametrize("command", ["model-cd", "model-gt", "model-fp"])
def test_model_table_holds_only_z_and_fields_of_its_class(tmp_path, capsys, command):
    option, table = _table(command)
    assert _table_run(tmp_path, command, option, {**table, "sup_dA": 1.0}) == 2
    assert _table_run(tmp_path, command, option, [table]) == 2
    err = capsys.readouterr().err
    assert "sup_dA" in err and "JSON object" in err and "Traceback" not in err


@pytest.fixture
def parsers_built(monkeypatch):
    """One entry for each ``argparse.ArgumentParser`` constructed from here on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_parser_is_built_once_per_process(matrix_file, capsys, parsers_built):
    mat = matrix_file(geometry_matrix())
    assert main(["analyze", "--matrix", mat]) == 0
    parsers_built.clear()
    for argv in (
        ["analyze", "--matrix", mat, "--weights", "heuristic"],
        ["verify", "--matrix", mat, "--points", "20"],
        ["model-fp", "--K", "8", "--z-grid=0:6:2", "--t-max", "2", "--t-points", "3"],
    ):
        assert main(argv) == 0
    assert parsers_built == []


def _run(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_options_do_not_leak_between_calls(matrix_file, tmp_path, capsys):
    # each second run of a pair omits what the first set, so a value kept by
    # the cached parser would change its bytes
    mat = matrix_file(geometry_matrix())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "diffusion", "z_grid": "0:6:3", "t_max": 5.0, "t_points": 5}))
    runs = [
        ["analyze", "--matrix", mat, "--weights", "heuristic"],
        ["analyze", "--matrix", mat],
        ["verify", "--matrix", mat, "--c-const", "2", "--mu", "0.5", "--m", "2"],
        ["verify", "--matrix", mat],
        ["model-fp", "--config", str(cfg)],
        ["model-fp", "--K", "8", "--z-grid=0:6:2", "--t-max", "2", "--t-points", "3"],
    ]
    in_sequence = [_run(argv, capsys) for argv in runs]
    for argv, got in zip(runs, in_sequence):
        build_parser.cache_clear()
        assert _run(argv, capsys) == got, argv
    assert all(in_sequence[i] != in_sequence[i + 1] for i in (0, 2, 4))


@pytest.mark.parametrize(
    "bad",
    [
        ["analyze"],
        ["analyze", "--matrix", "m.json", "--rel-tol", "tight"],
        ["model-fp", "--variant", "bogus"],
        ["no-such-command"],
    ],
)
def test_parse_error_leaves_the_cached_parser_usable(bad, matrix_file, capsys, parsers_built):
    argv = ["analyze", "--matrix", matrix_file(geometry_matrix())]
    assert main(argv) == 0
    want = capsys.readouterr().out
    parsers_built.clear()
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    assert parsers_built == []
