"""Command-line front end.

Subcommands: ``analyze`` (Jordan data, adapted form, envelope constant for a
matrix), ``verify`` (envelope dominance against the exact propagator),
``family`` (uniform-in-parameter envelopes of the 2x2 rate family), and the
three model experiments ``model-cd``, ``model-gt``, ``model-fp``.

Outputs are deterministic for a fixed configuration: CSV values are printed
with 17 significant digits (lossless double round-trip) and all sweeps run
in a fixed order; JSON reports carry the bytes of
``json.dumps(report, indent=2, sort_keys=True)`` (see ``_json_text``); an
output file that already exists is rewritten in place (see ``_write``).
The LYAPDECAY_THREADS environment variable is accepted and recorded for
provenance; the computation itself is single-threaded, so results do not
depend on it.  Exit codes: 0 ok, 1 bound violation, 2 invalid input.

Start-up: this module imports only what every subcommand uses (``jordan``,
``linalg``, ``lyapunov``); a module that only some subcommands use is
imported inside them, so ``analyze`` never loads the oracle or the models.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Callable, NamedTuple

import numpy as np

from .jordan import DEFAULT_CLUSTER_TOL, DEFAULT_RANK_TOL, JordanAmbiguityError, jordan_chains
from .linalg import load_matrix_json
from .lyapunov import DecayEnvelope, build_form, decay_constant, suggest_case3_weights

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_INVALID_INPUT = 2


def _write(path: str | None, text: str) -> None:
    """``text`` to stdout (``path`` None or ``-``) or to ``path``.

    An existing file is rewritten in place: it is opened without
    ``O_TRUNC``, cut to the new length if it is longer, and then written
    over.  Truncating on open costs ext4 a block release, and a writeback on
    close.  ``/dev/null``, FIFOs and ttys report size 0 and are never cut.
    Neither this nor truncation is atomic: an interrupted rewrite leaves the
    new length, new bytes up to where it stopped and old bytes after them.
    """
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
        fh.write(data)


def _write_csv(path: str | None, header: list[str], rows) -> None:
    # one value format, 17 significant digits, for every column
    row_format = ",".join(["%.16e"] * len(header))
    lines = [",".join(header)]
    lines += [row_format % tuple(row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


#: json's spelling of the floats whose repr is not JSON
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj, indent: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, ``indent``
    opening each line at the depth of ``obj``.  json encodes with ``indent``
    in pure Python (CPython 3.11's C encoder ignores it).  A bool is tested
    before int, as a bool is an int.  A type json rejects, or a key that is
    not a ``str`` (json would convert it), raises TypeError."""
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        items = [_json_text(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError(f"keys must be str, got {list(obj)!r}")
        items = [_encode_str(key) + ": " + _json_text(obj[key], inner) for key in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(path: str | None, obj: dict) -> None:
    _write(path, _json_text(obj) + "\n")


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
#: float options that must be > 0 as well as finite
_POSITIVE = {"rel_tol", "cluster_tol", "t_max"}
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
    resolved, given = {}, set()
    for key, opt in _OPTIONS[args.command].items():
        value = getattr(args, key)
        if value is None and key in cfg:
            value = _config_value(key, cfg[key], opt)
        if value is not None:
            given.add(key)
        resolved[key] = opt.default if value is None else value
    # the diffusion variant has its own fixed field and mode pairs
    unused = sorted(given & {"drift", "K"}) if resolved.get("variant") == "diffusion" else []
    if unused:
        raise ValueError(f"--variant diffusion does not use {' or '.join('--' + key for key in unused)}")
    # checked before any command builds a grid or a structure from them
    for key, opt in _OPTIONS[args.command].items():
        value, positive = resolved[key], key in _POSITIVE
        if opt.type is float and not (np.isfinite(value) and (value > 0 or not positive)):
            rule = " and > 0" if positive else ""
            raise ValueError(f"--{key.replace('_', '-')} must be finite{rule}, got {value!r}")
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
        block_weights = dict(enumerate(weights))
    form = build_form(structure, block_weights=block_weights)
    try:
        env = decay_constant(structure, form)
    except ValueError as exc:  # P(0) overflows or is not positive definite
        if weights is None:
            raise
        raise ValueError(f"--weights: {exc}") from None
    return structure, form, env


def cmd_analyze(args) -> int:
    cfg = _merge_config(args)
    matrix = load_matrix_json(args.matrix)
    weights = args.weights
    if weights is not None and weights != "heuristic":
        try:
            weights = json.loads(weights)
        except json.JSONDecodeError:
            pass  # still a str: rejected below
        # a null entry would silently keep that block's default weights
        if not isinstance(weights, list) or None in weights:
            raise ValueError(f"--weights must be 'heuristic' or a JSON list of per-block weight lists, got {args.weights!r}")
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
    from .oracle import check_dominance

    cfg = _merge_config(args)
    matrix = load_matrix_json(args.matrix)
    if args.c_const is not None or args.mu is not None or args.m is not None:
        if None in (args.c_const, args.mu, args.m):
            raise ValueError("--c-const, --mu and --m must be given together")
        if not (np.isfinite(args.c_const) and args.c_const > 0):
            raise ValueError(f"--c-const must be finite and > 0, got {args.c_const!r}")
        if not np.isfinite(args.mu):
            raise ValueError(f"--mu must be finite, got {args.mu!r}")
        if args.m < 1:
            raise ValueError(f"--m must be >= 1, got {args.m!r}")
        env = DecayEnvelope(args.c_const, args.mu, args.m)
    else:
        _, _, env = _analysis_pipeline(matrix, cfg["rel_tol"], cfg["cluster_tol"])
    # 0, then geometric steps from 1e-3 to t_max; even steps where that
    # would not rise to t_max
    t_max, points = cfg["t_max"], cfg["points"]
    if points >= 3 and t_max > 1e-3:
        times = np.concatenate([[0.0], np.geomspace(1e-3, t_max, points - 1)])
    else:
        times = np.linspace(0.0, t_max, points) if points > 1 else np.array([t_max])
    report = check_dominance(matrix, env, times)
    _write_csv(cfg["out"], ["t", "propagator_sq", "bound", "ratio"], report.to_rows())
    if not report.dominated:
        ratio = f"max_ratio = {report.max_ratio:.6e}, " if np.isfinite(report.max_ratio) else ""
        print(f"dominance violated: {ratio}max_log_ratio = {report.max_log_ratio:.6e}", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def cmd_family(args) -> int:
    from . import family as fam
    from .oracle import dominance_ratio

    cfg = _merge_config(args)
    zg = np.linspace(-cfg["z_max"], cfg["z_max"], cfg["z_points"])
    if cfg["family"] == "quadratic":
        family = fam.quadratic_family(cfg["alpha"], cfg["mu_min"], z_grid=zg)
    elif cfg["family"] == "exponential":
        family = fam.exponential_family(cfg["alpha"], cfg["beta"], cfg["mu_min"], z_grid=zg)
    else:
        family = fam.constant_family(cfg["mu_min"], z_grid=zg)
    ts = np.linspace(0.0, cfg["t_max"], cfg["points"])
    log_sup = fam.grid_sup_envelope(family, ts)
    sup = np.exp(log_sup)
    # the envelope p(t) exp(-2 mu_min t) and its log, which survives underflow
    pre = np.array([family.prefactor(t) for t in ts])
    env, log_env = pre * np.exp(-2.0 * family.mu_min * ts), np.log(pre) - 2.0 * family.mu_min * ts
    ratio, _, passed = dominance_ratio(sup, log_sup, env, log_env)
    _write_csv(cfg["out"], ["t", "grid_sup_propagator_sq", "envelope", "ratio"], zip(ts, sup, env, ratio))
    return EXIT_OK if passed else EXIT_BOUND_VIOLATION


#: a bound of each kind of a field's ``BOUNDS``, derived from its tabulated column
_DERIVED = {"min": np.min, "max": np.max, "sup": lambda column: np.max(np.abs(column))}


def _column(data: dict, key: str, size: int | None = None) -> np.ndarray:
    """Table entry ``key`` as a flat array of floats, ``size`` long if given."""
    if key not in data:
        raise ValueError(f"table {key} is missing")
    col = data[key]
    # finite JSON numbers of exact types: a JSON true is a bool, not the number 1
    finite = isinstance(col, list) and all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in col)
    if not finite or (size is not None and len(col) != size):
        want = "a list of numbers" if size is None else f"a list of {size} numbers, one per z"
        raise ValueError(f"table {key} must be {want}")
    return np.array(col, dtype=float)


def _field(spec: str, builtins: dict, cls):
    """A builtin coefficient field by name, else one tabulated in a JSON file:
    ``z`` and a column per function of ``cls``, as long as ``z`` and
    interpolated over it (one that defaults to None may be absent or null).
    Each bound of ``cls.BOUNDS`` is declared, or derived from its column by
    its kind, or without the column keeps its default."""
    if spec in builtins:
        return builtins[spec]()
    with open(spec) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a coefficient table must hold a JSON object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {"z", *(f.name for f in fields)})
    if unknown:
        raise ValueError(f"table keys {unknown} are not fields of {cls.__name__}")
    z = _column(data, "z")
    if not (z.size and np.all(np.diff(z) > 0)):
        raise ValueError("table z must be nonempty, finite and strictly increasing")
    bounds = {bound for bound, _, _ in cls.BOUNDS}
    columns = {
        f.name: _column(data, f.name, z.size)
        for f in fields
        if f.name not in bounds and not (f.default is None and data.get(f.name) is None)
    }
    kwargs = {name: lambda zz, col=col: float(np.interp(zz, z, col)) for name, col in columns.items()}
    for bound, column, kind in cls.BOUNDS:
        value = data.get(bound)
        if value is None and column in columns:
            value = float(_DERIVED[kind](columns[column]))
        if value is not None:
            if type(value) not in (int, float) or not np.isfinite(value):
                raise ValueError(f"bound {bound} must be a finite number, got {value!r}")
            kwargs[bound] = float(value)
    return cls(**kwargs)


#: each model command's help, module, field option and check options; its JSON
#: report holds the config and every entry of the check's result that is not an array
_MODELS = {
    "model-cd": ("convection-diffusion sensitivity bound check", "convection_diffusion", "coeffs", ("order",)),
    "model-gt": ("two-velocity relaxation sensitivity bound check", "goldstein_taylor", "sigma", ("k_max",)),
    "model-fp": ("Fokker-Planck sensitivity bound check", "fokker_planck", "drift", ()),
}


def _fp_diffusion(cfg: dict, zg, ts) -> int:
    """Diffusion-uncertainty variant: every mode pair k = 3..8 against its own envelope."""
    from . import fokker_planck as fp
    from .oracle import check_dominance

    dfield = fp.DiffusionField(lambda z: 1.0 + 0.25 * np.sin(z), lambda z: 0.25 * np.cos(z), 0.75)
    rows, worst, passed = [], 0.0, True
    for k in range(3, 9):
        for z in zg:
            rep = check_dominance(*fp.fp_diffusion_variant(k, z, dfield), ts)
            worst, passed = max(worst, rep.max_ratio), passed and rep.dominated
            rows += [(k, z, *row) for row in rep.to_rows()]
    _write_csv(cfg["out"], ["k", "z", "t", "propagator_sq", "bound", "ratio"], rows)
    _write_json(cfg["report"], {"config": cfg, "max_ratio": worst, "passed": passed})
    return EXIT_OK if passed else EXIT_BOUND_VIOLATION


def cmd_model(args) -> int:
    """``model-cd``, ``model-gt`` and ``model-fp``: the global bound on a
    (z, t) grid as a CSV row per point plus a JSON constants report."""
    cfg = _merge_config(args)
    zg = _parse_grid(cfg["z_grid"])
    ts = np.linspace(0.0, cfg["t_max"], cfg["t_points"])
    if cfg.get("variant") == "diffusion":
        return _fp_diffusion(cfg, zg, ts)
    from .oracle import sweep

    _, module, field_key, keys = _MODELS[args.command]
    model = importlib.import_module(f".{module}", __package__).MODEL
    field = _field(cfg[field_key], model.builtins, model.field_class)
    options = {key: cfg[key] for key in keys}
    rep = sweep(model, field, model.initial_state(field, cfg["K"], **options), zg, ts, **options)
    rows = [
        (z, t, rep["norm_sq"][i, j], rep["bound"][j], rep["ratio"][i, j])
        for i, z in enumerate(zg)
        for j, t in enumerate(ts)
    ]
    _write_csv(cfg["out"], ["z", "t", "norm_sq", "bound", "ratio"], rows)
    entries = {key: value for key, value in rep.items() if not isinstance(value, np.ndarray)}
    _write_json(cfg["report"], {"config": cfg, **entries})
    return EXIT_OK if rep["passed"] else EXIT_BOUND_VIOLATION


class _Parser(argparse.ArgumentParser):
    """Reads a token such as ``-1e-9``, ``-inf`` or ``-3:3:13`` after a flag
    as the flag's value, so that the option's own check answers it; plain
    argparse takes only ``-1`` and ``-0.5`` for values.  No flag of the
    program starts with a minus and a digit.  Subparsers share this class.

    ``_negative_number_matcher`` is an argparse internal, read by
    ``_add_action`` and ``_parse_optional`` (checked on CPython 3.11);
    ``test_cli`` fails if a release renames it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|infinity|nan)$", re.IGNORECASE)


@functools.cache  # built once per process; each parse_args makes a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lyapdecay", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    commands = {
        "analyze": ("Jordan structure, adapted form and envelope constant", cmd_analyze),
        "verify": ("check envelope dominance against the propagator", cmd_verify),
        "family": ("uniform-in-parameter envelopes of the 2x2 rate family", cmd_family),
        **{name: (summary, cmd_model) for name, (summary, *_) in _MODELS.items()},
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, JordanAmbiguityError) as exc:
        # NotPositiveStableError is a ValueError and lands here as well
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
