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


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_csv(path: str | None, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _write_json(path: str | None, obj: dict) -> None:
    _write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        if np.isfinite(lo) and np.isfinite(hi) and n >= 1:
            return np.linspace(lo, hi, n)
    except ValueError:
        pass
    raise ValueError(f"--z-grid must be lo:hi:n with finite lo, hi and n >= 1, got {spec!r}")


def _count(text) -> int:
    """An integer >= 1 (a number of points or modes)."""
    if not str(text).strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


class _Opt(NamedTuple):
    """A config-able option: its flag converter, default and allowed values."""

    type: Callable
    default: object = None
    choices: tuple | None = None


#: the JSON value types each converter accepts from a config file (``bool``
#: is not ``int`` here: the check compares exact types)
_CONFIG_TYPES = {int: (int,), _count: (int,), float: (int, float), str: (str,)}

_TOLS = {"rel_tol": _Opt(float, DEFAULT_RANK_TOL), "cluster_tol": _Opt(float, DEFAULT_CLUSTER_TOL)}
_OUTPUTS = {"out": _Opt(str), "report": _Opt(str)}

#: every option a command takes from a flag or a ``--config`` file; flag
#: ``--k-max`` is key ``k_max``.  ``--out`` and ``--report`` default to stdout.
_OPTIONS = {
    "analyze": {**_TOLS, "out": _Opt(str)},
    "verify": {**_TOLS, "t_max": _Opt(float, 50.0), "points": _Opt(_count, 200), "out": _Opt(str)},
    "family": {
        "family": _Opt(str, "quadratic", ("quadratic", "exponential", "constant")),
        "alpha": _Opt(float, 1.0),
        "beta": _Opt(float, 1.0),
        "mu_min": _Opt(float, 1.0),
        "t_max": _Opt(float, 20.0),
        "points": _Opt(_count, 100),
        "z_max": _Opt(float, 6.0),
        "z_points": _Opt(_count, 241),
        "out": _Opt(str),
    },
    "model-cd": {
        "order": _Opt(int, 1, (1, 2)),
        "coeffs": _Opt(str, "builtin:tanh"),
        "z_grid": _Opt(str, "-3:3:13"),
        "K": _Opt(_count, 32),
        "t_max": _Opt(float, 10.0),
        "t_points": _Opt(_count, 50),
        **_OUTPUTS,
    },
    "model-gt": {
        "sigma": _Opt(str, "builtin:tanh"),
        "k_max": _Opt(int, 64),
        "z_grid": _Opt(str, "-3:3:13"),
        "K": _Opt(_count, 32),
        "t_max": _Opt(float, 20.0),
        "t_points": _Opt(_count, 50),
        **_OUTPUTS,
    },
    "model-fp": {
        "drift": _Opt(str, "builtin:sin"),
        "variant": _Opt(str, "drift", ("drift", "diffusion")),
        "z_grid": _Opt(str, "0:6.283185307179586:13"),
        "K": _Opt(_count, 40),
        "t_max": _Opt(float, 12.0),
        "t_points": _Opt(_count, 40),
        **_OUTPUTS,
    },
}


def _config_value(key: str, value, opt: _Opt):
    """``value`` from a config file, held to what flag ``key`` accepts."""
    if type(value) not in _CONFIG_TYPES[opt.type]:
        kinds = " or ".join(t.__name__ for t in _CONFIG_TYPES[opt.type])
        raise ValueError(f"config {key}: expected {kinds}, got {value!r}")
    try:
        value = opt.type(value)
    except (argparse.ArgumentTypeError, OverflowError) as exc:
        raise ValueError(f"config {key}: {exc}") from exc
    if opt.choices is not None and value not in opt.choices:
        raise ValueError(f"config {key}: expected one of {list(opt.choices)}, got {value!r}")
    return value


def _merge_config(args: argparse.Namespace) -> dict:
    """CLI flags override config-file values override defaults."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"config must hold a JSON object, got {type(cfg).__name__}")
    resolved = {}
    for key, opt in _OPTIONS[args.command].items():
        value = getattr(args, key)
        if value is None and key in cfg:
            value = _config_value(key, cfg[key], opt)
        resolved[key] = opt.default if value is None else value
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
    cfg = _merge_config(args)
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
    cfg = _merge_config(args)
    if not (np.isfinite(cfg["t_max"]) and cfg["t_max"] > 0):
        raise ValueError(f"--t-max must be finite and > 0, got {cfg['t_max']!r}")
    matrix = load_matrix_json(args.matrix)
    if args.c_const is not None or args.mu is not None or args.m is not None:
        if None in (args.c_const, args.mu, args.m):
            raise ValueError("--c-const, --mu and --m must be given together")
        env = DecayEnvelope(args.c_const, args.mu, args.m)
    else:
        _, _, env = _analysis_pipeline(matrix, cfg["rel_tol"], cfg["cluster_tol"])
    times = np.concatenate([[0.0], np.geomspace(1e-3, cfg["t_max"], cfg["points"] - 1)])
    report = check_dominance(matrix, env, times)
    _write_csv(cfg["out"], ["t", "propagator_sq", "bound", "ratio"], report.to_rows())
    if not report.dominated:
        ratio = f"max_ratio = {report.max_ratio:.6e}, " if np.isfinite(report.max_ratio) else ""
        print(f"dominance violated: {ratio}max_log_ratio = {report.max_log_ratio:.6e}", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def cmd_family(args) -> int:
    cfg = _merge_config(args)
    zg = np.linspace(-cfg["z_max"], cfg["z_max"], cfg["z_points"])
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
    else:
        family = fam.constant_family(cfg["mu_min"], z_grid=zg)
        env_fn = lambda t: np.exp(-2.0 * cfg["mu_min"] * t)
        prefactor = lambda t: 1.0
    ts = np.linspace(0.0, cfg["t_max"], cfg["points"])
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
    state = cd.gaussian_bump_state(cfg["K"], order=cfg["order"], v_amp=0.3)
    return cd.theorem_bound_check(field, lambda z: state, zg, ts, order=cfg["order"])


def _run_gt(cfg: dict, zg, ts) -> dict:
    field = _field(cfg["sigma"], {"builtin:tanh": gt.tanh_relaxation}, _gt_table)
    state = gt.gt_bump_state(cfg["K"])
    return gt.gt_theorem_check(field, lambda z: state, zg, ts, k_max=cfg["k_max"])


def _run_fp(cfg: dict, zg, ts) -> dict:
    field = _field(cfg["drift"], {"builtin:sin": fp.sin_drift}, _fp_table)
    state = lambda z: fp.fp_gaussian_state(field, z=z, K=cfg["K"])
    return fp.fp_theorem_check(field, state, zg, ts)


class _Model(NamedTuple):
    help: str
    run: Callable[[dict, np.ndarray, np.ndarray], dict]
    #: entries of the check's result copied into the JSON report
    keys: tuple[str, ...]


_MODELS = {
    "model-cd": _Model(
        "convection-diffusion sensitivity bound check",
        _run_cd,
        ("constants", "max_ratio", "passed", "initial_sup", "tail_fraction"),
    ),
    "model-gt": _Model(
        "two-velocity relaxation sensitivity bound check",
        _run_gt,
        ("uniform", "max_ratio", "passed", "initial_sup"),
    ),
    "model-fp": _Model(
        "Fokker-Planck sensitivity bound check",
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
    cfg = _merge_config(args)
    zg = _parse_grid(cfg["z_grid"])
    ts = np.linspace(0.0, cfg["t_max"], cfg["t_points"])
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lyapdecay", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    commands = {
        "analyze": ("Jordan structure, adapted form and envelope constant", cmd_analyze),
        "verify": ("check envelope dominance against the propagator", cmd_verify),
        "family": ("uniform-in-parameter envelopes of the 2x2 rate family", cmd_family),
        **{name: (model.help, cmd_model) for name, model in _MODELS.items()},
    }
    parsers = {}
    for name, (summary, func) in commands.items():
        parsers[name] = sp = sub.add_parser(name, help=summary)
        for key, opt in _OPTIONS[name].items():
            sp.add_argument("--" + key.replace("_", "-"), type=opt.type, choices=opt.choices)
        sp.add_argument("--config")
        sp.set_defaults(func=func)
    # options a config file cannot set
    pa, pv = parsers["analyze"], parsers["verify"]
    pa.add_argument("--matrix", required=True, help="matrix JSON file")
    pa.add_argument("--weights", help="JSON list of per-block weight lists, or 'heuristic'")
    pv.add_argument("--matrix", required=True)
    pv.add_argument("--c-const", dest="c_const", type=float)
    pv.add_argument("--mu", type=float)
    pv.add_argument("--m", type=int)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, JordanAmbiguityError) as exc:
        # NotPositiveStableError is a ValueError and lands here as well
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
