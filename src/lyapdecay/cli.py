"""Command-line front end.

Subcommands: ``analyze`` (Jordan data, adapted form, envelope constant for a
matrix), ``verify`` (envelope dominance against the exact propagator),
``family`` (uniform-in-parameter envelopes of the 2x2 rate family), and the
three model experiments ``model-cd``, ``model-gt``, ``model-fp``.

Outputs are deterministic for a fixed configuration: CSV values are printed
with 17 significant digits (lossless double round-trip) and all sweeps run
in a fixed order.  The LYAPDECAY_THREADS environment variable is accepted
and recorded for provenance; the computation itself is single-threaded, so
results do not depend on it.  Exit codes: 0 ok, 1 bound violation, 2 invalid
input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import convection_diffusion as cd
from . import family as fam
from . import fokker_planck as fp
from . import goldstein_taylor as gt
from .jordan import DEFAULT_CLUSTER_TOL, DEFAULT_RANK_TOL, JordanAmbiguityError, jordan_chains
from .linalg import load_matrix_json
from .lyapunov import DecayEnvelope, build_form, decay_constant, suggest_case3_weights
from .oracle import DOMINANCE_SLACK, check_dominance

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_INVALID_INPUT = 2


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write_csv(path: str | None, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path: str | None, obj: dict) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError as exc:
        raise ValueError(f"grid spec must be lo:hi:n, got {spec!r}") from exc


def _merge_config(args: argparse.Namespace, parser_defaults: dict) -> dict:
    """CLI flags override config-file values override defaults."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
    resolved = {}
    for key, default in parser_defaults.items():
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            resolved[key] = cli_val
        elif key in cfg:
            resolved[key] = cfg[key]
        else:
            resolved[key] = default
    resolved["threads_env"] = os.environ.get("LYAPDECAY_THREADS")
    return resolved


def _analysis_pipeline(matrix, rel_tol: float, cluster_tol: float, weights=None):
    structure = jordan_chains(matrix, rel_tol=rel_tol, cluster_rel_tol=cluster_tol)
    block_weights = None
    if weights == "heuristic":
        # inverse-squared chain norms keep P(0) conditioned in collapse limits
        block_weights = {
            n: suggest_case3_weights(structure.blocks[n])
            for n in structure.defective_gap_indices
        }
    elif weights:
        if not isinstance(weights, list):
            raise ValueError("--weights must be a JSON list of per-block weight lists")
        block_weights = dict(enumerate(weights))
    form = build_form(structure, block_weights=block_weights)
    env = decay_constant(structure, form)
    return structure, form, env


def cmd_analyze(args) -> int:
    defaults = {"rel_tol": DEFAULT_RANK_TOL, "cluster_tol": DEFAULT_CLUSTER_TOL, "out": None}
    cfg = _merge_config(args, defaults)
    matrix = load_matrix_json(args.matrix)
    weights = args.weights
    if weights and weights != "heuristic":
        weights = json.loads(weights)
    structure, form, env = _analysis_pipeline(
        matrix, cfg["rel_tol"], cfg["cluster_tol"], weights
    )
    report = {
        "config": cfg,
        "mu": structure.mu,
        "M": structure.max_defective_block,
        "I_mu": sorted(structure.defective_gap_indices),
        "structure": structure.to_json(),
        "form": form.to_json(),
        "C_const": env.C_const,
        "envelope": env.to_json(),
    }
    _write_json(cfg["out"], report)
    return EXIT_OK


def cmd_verify(args) -> int:
    defaults = {
        "rel_tol": DEFAULT_RANK_TOL,
        "cluster_tol": DEFAULT_CLUSTER_TOL,
        "t_max": 50.0,
        "points": 200,
        "out": None,
    }
    cfg = _merge_config(args, defaults)
    matrix = load_matrix_json(args.matrix)
    if args.c_const is not None or args.mu is not None or args.m is not None:
        if None in (args.c_const, args.mu, args.m):
            raise ValueError("--c-const, --mu and --m must be given together")
        env = DecayEnvelope(args.c_const, args.mu, args.m)
    else:
        _, _, env = _analysis_pipeline(matrix, cfg["rel_tol"], cfg["cluster_tol"])
    times = np.concatenate([[0.0], np.geomspace(1e-3, cfg["t_max"], int(cfg["points"]) - 1)])
    report = check_dominance(matrix, env, times)
    _write_csv(cfg["out"], ["t", "propagator_sq", "bound", "ratio"], report.to_rows())
    if not report.dominated:
        ratio = f"max_ratio = {report.max_ratio:.6e}, " if np.isfinite(report.max_ratio) else ""
        print(f"dominance violated: {ratio}max_log_ratio = {report.max_log_ratio:.6e}", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def cmd_family(args) -> int:
    defaults = {
        "family": "quadratic",
        "alpha": 1.0,
        "beta": 1.0,
        "mu_min": 1.0,
        "t_max": 20.0,
        "points": 100,
        "z_max": 6.0,
        "z_points": 241,
        "out": None,
    }
    cfg = _merge_config(args, defaults)
    zg = np.linspace(-cfg["z_max"], cfg["z_max"], int(cfg["z_points"]))
    if cfg["family"] == "quadratic":
        family = fam.quadratic_family(cfg["alpha"], cfg["mu_min"], z_grid=zg)
        env_fn = lambda t: fam.uniform_envelope_quadratic(cfg["alpha"], cfg["mu_min"], t)
        # each envelope is prefactor(t) exp(-2 mu_min t), whose log survives underflow
        prefactor = lambda t: 2.0 * fam.sup_f1(cfg["alpha"], t)
    elif cfg["family"] == "exponential":
        family = fam.exponential_family(cfg["alpha"], cfg["beta"], cfg["mu_min"], z_grid=zg)
        env_fn = lambda t: fam.uniform_envelope_exponential(
            cfg["alpha"], cfg["beta"], cfg["mu_min"], t
        )
        prefactor = lambda t: 2.0
    elif cfg["family"] == "constant":
        family = fam.constant_family(cfg["mu_min"], z_grid=zg)
        env_fn = lambda t: np.exp(-2.0 * cfg["mu_min"] * t)
        prefactor = lambda t: 1.0
    else:
        raise ValueError(f"unknown family {cfg['family']!r}")
    ts = np.linspace(0.0, cfg["t_max"], int(cfg["points"]))
    log_sup = fam.grid_sup_envelope(family, ts)
    sup = np.exp(log_sup)
    env = np.array([env_fn(t) for t in ts])
    # where the envelope is subnormal or 0, ratio and verdict come from the logs
    log_ratio = log_sup - np.array([np.log(prefactor(t)) - 2.0 * cfg["mu_min"] * t for t in ts])
    live = env >= np.finfo(float).tiny
    ratio = np.empty_like(sup)
    ratio[live] = sup[live] / env[live]
    ratio[~live] = np.exp(log_ratio[~live])
    ok = np.where(live, sup <= env * (1.0 + DOMINANCE_SLACK), log_ratio <= np.log1p(DOMINANCE_SLACK))
    _write_csv(cfg["out"], ["t", "grid_sup_propagator_sq", "envelope", "ratio"], zip(ts, sup, env, ratio))
    return EXIT_OK if np.all(ok) else EXIT_BOUND_VIOLATION


def _interp(data: dict, key: str):
    """The tabulated column ``data[key]``, linearly interpolated over ``data["z"]``."""
    z = np.asarray(data["z"], dtype=float)
    table = np.asarray(data[key], dtype=float)
    return lambda zz: float(np.interp(zz, z, table))


def _sup_abs(data: dict, key: str) -> float:
    return float(np.max(np.abs(data[key])))


def _bound(data: dict, key: str, derived: float) -> float:
    """The declared bound ``data[key]``, or ``derived`` where it is absent or null."""
    value = derived if data.get(key) is None else data[key]
    if type(value) not in (int, float) or not np.isfinite(value):
        raise ValueError(f"bound {key} must be a finite number, got {value!r}")
    return float(value)


def _field(spec: str, builtins: dict, from_table):
    """A builtin coefficient field by name, else one tabulated in a JSON file."""
    if spec in builtins:
        return builtins[spec]()
    with open(spec) as fh:
        return from_table(json.load(fh))


def _cd_table(data: dict) -> cd.CoefficientField:
    derivatives = ["da", "db"] + [key for key in ("d2a", "d2b") if data.get(key) is not None]
    return cd.CoefficientField(
        **{key: _interp(data, key) for key in ["a", "b", *derivatives]},
        **{"sup_" + key: _sup_abs(data, key) for key in derivatives},
        b0=_bound(data, "b0", float(np.min(data["b"]))),
    )


def _gt_table(data: dict) -> gt.RelaxationField:
    return gt.RelaxationField(
        sigma=_interp(data, "sigma"),
        dsigma=_interp(data, "dsigma"),
        sigma0=_bound(data, "sigma0", float(np.min(data["sigma"]))),
        sigma1=_bound(data, "sigma1", float(np.max(data["sigma"]))),
        L=_bound(data, "L", _sup_abs(data, "dsigma")),
    )


def _fp_table(data: dict) -> fp.DriftField:
    return fp.DriftField(
        a=_interp(data, "a"),
        da=_interp(data, "da"),
        a0=_bound(data, "a0", float(np.min(data["a"]))),
        sup_da=_bound(data, "sup_da", _sup_abs(data, "da")),
    )


def _run_cd(cfg: dict, zg, ts) -> dict:
    field = _field(cfg["coeffs"], {"builtin:tanh": cd.tanh_field, "builtin:trig": cd.trig_field}, _cd_table)
    order = int(cfg["order"])
    state = lambda z: cd.gaussian_bump_state(int(cfg["K"]), order=order, v_amp=0.3, z=z)
    return cd.theorem_bound_check(field, state, zg, ts, order=order)


def _run_gt(cfg: dict, zg, ts) -> dict:
    field = _field(cfg["sigma"], {"builtin:tanh": gt.tanh_relaxation}, _gt_table)
    state = lambda z: gt.gt_bump_state(int(cfg["K"]), z=z)
    return gt.gt_theorem_check(field, state, zg, ts, k_max=int(cfg["k_max"]))


def _run_fp(cfg: dict, zg, ts) -> dict:
    field = _field(cfg["drift"], {"builtin:sin": fp.sin_drift}, _fp_table)
    state = lambda z: fp.fp_gaussian_state(field, z=z, K=int(cfg["K"]))
    return fp.fp_theorem_check(field, state, zg, ts)


class _Model(NamedTuple):
    #: defaults of the model's own options and the grids (``--out`` and
    #: ``--report`` default to stdout for every model)
    defaults: dict
    run: Callable[[dict, np.ndarray, np.ndarray], dict]
    #: entries of the check's result copied into the JSON report
    keys: tuple[str, ...]


_MODELS = {
    "model-cd": _Model(
        {
            "order": 1,
            "coeffs": "builtin:tanh",
            "z_grid": "-3:3:13",
            "K": 32,
            "t_max": 10.0,
            "t_points": 50,
        },
        _run_cd,
        ("constants", "max_ratio", "passed", "initial_sup", "tail_fraction"),
    ),
    "model-gt": _Model(
        {
            "sigma": "builtin:tanh",
            "z_grid": "-3:3:13",
            "K": 32,
            "k_max": 64,
            "t_max": 20.0,
            "t_points": 50,
        },
        _run_gt,
        ("uniform", "max_ratio", "passed", "initial_sup"),
    ),
    "model-fp": _Model(
        {
            "drift": "builtin:sin",
            "variant": "drift",
            "z_grid": "0:6.283185307179586:13",
            "K": 40,
            "t_max": 12.0,
            "t_points": 40,
        },
        _run_fp,
        ("constants", "max_ratio", "passed", "initial_sup", "tail_fraction"),
    ),
}


def _fp_diffusion(cfg: dict, zg, ts) -> int:
    """Diffusion-uncertainty variant: every mode pair k = 3..8 against its own envelope."""
    dfield = fp.DiffusionField(lambda z: 1.0 + 0.25 * np.sin(z), lambda z: 0.25 * np.cos(z), 0.75)
    rows, worst = [], 0.0
    for k in range(3, 9):
        for z in zg:
            rep = check_dominance(*fp.fp_diffusion_variant(k, z, dfield), ts)
            worst = max(worst, rep.max_ratio)
            rows += [(k, z, *row) for row in rep.to_rows()]
    _write_csv(cfg["out"], ["k", "z", "t", "propagator_sq", "bound", "ratio"], rows)
    passed = worst <= 1.0 + DOMINANCE_SLACK
    _write_json(cfg["report"], {"config": cfg, "max_ratio": worst, "passed": passed})
    return EXIT_OK if passed else EXIT_BOUND_VIOLATION


def cmd_model(args) -> int:
    """``model-cd``, ``model-gt`` and ``model-fp``: the global bound on a
    (z, t) grid as a CSV row per point plus a JSON constants report."""
    model = _MODELS[args.command]
    cfg = _merge_config(args, {**model.defaults, "out": None, "report": None})
    zg = _parse_grid(cfg["z_grid"])
    ts = np.linspace(0.0, cfg["t_max"], int(cfg["t_points"]))
    if cfg.get("variant") == "diffusion":
        return _fp_diffusion(cfg, zg, ts)
    rep = model.run(cfg, zg, ts)
    rows = [
        (z, t, rep["norm_sq"][i, j], rep["bound"][j], rep["ratio"][i, j])
        for i, z in enumerate(zg)
        for j, t in enumerate(ts)
    ]
    _write_csv(cfg["out"], ["z", "t", "norm_sq", "bound", "ratio"], rows)
    _write_json(cfg["report"], {"config": cfg, **{key: rep[key] for key in model.keys}})
    return EXIT_OK if rep["passed"] else EXIT_BOUND_VIOLATION


def _model_parser(sub, name: str, help: str) -> argparse.ArgumentParser:
    """Subparser with the options every ``model-*`` command shares."""
    pm = sub.add_parser(name, help=help)
    pm.add_argument("--z-grid", dest="z_grid")
    pm.add_argument("--K", type=int)
    pm.add_argument("--t-max", dest="t_max", type=float)
    pm.add_argument("--t-points", dest="t_points", type=int)
    pm.add_argument("--config")
    pm.add_argument("--out")
    pm.add_argument("--report")
    pm.set_defaults(func=cmd_model)
    return pm


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lyapdecay", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="Jordan structure, adapted form and envelope constant")
    pa.add_argument("--matrix", required=True, help="matrix JSON file")
    pa.add_argument("--weights", help="JSON list of per-block weight lists, or 'heuristic'")
    pa.add_argument("--rel-tol", dest="rel_tol", type=float)
    pa.add_argument("--cluster-tol", dest="cluster_tol", type=float)
    pa.add_argument("--config")
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="check envelope dominance against the propagator")
    pv.add_argument("--matrix", required=True)
    pv.add_argument("--t-max", dest="t_max", type=float)
    pv.add_argument("--points", type=int)
    pv.add_argument("--c-const", dest="c_const", type=float)
    pv.add_argument("--mu", type=float)
    pv.add_argument("--m", type=int)
    pv.add_argument("--rel-tol", dest="rel_tol", type=float)
    pv.add_argument("--cluster-tol", dest="cluster_tol", type=float)
    pv.add_argument("--config")
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("family", help="uniform-in-parameter envelopes of the 2x2 rate family")
    pf.add_argument("--family", choices=["quadratic", "exponential", "constant"])
    pf.add_argument("--alpha", type=float)
    pf.add_argument("--beta", type=float)
    pf.add_argument("--mu-min", dest="mu_min", type=float)
    pf.add_argument("--t-max", dest="t_max", type=float)
    pf.add_argument("--points", type=int)
    pf.add_argument("--z-max", dest="z_max", type=float)
    pf.add_argument("--z-points", dest="z_points", type=int)
    pf.add_argument("--config")
    pf.add_argument("--out")
    pf.set_defaults(func=cmd_family)

    pcd = _model_parser(sub, "model-cd", "convection-diffusion sensitivity bound check")
    pcd.add_argument("--order", type=int, choices=[1, 2])
    pcd.add_argument("--coeffs")

    pgt = _model_parser(sub, "model-gt", "two-velocity relaxation sensitivity bound check")
    pgt.add_argument("--sigma")
    pgt.add_argument("--k-max", dest="k_max", type=int)

    pfp = _model_parser(sub, "model-fp", "Fokker-Planck sensitivity bound check")
    pfp.add_argument("--drift")
    pfp.add_argument("--variant", choices=["drift", "diffusion"])

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError, JordanAmbiguityError) as exc:
        # NotPositiveStableError is a ValueError and lands here as well
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
