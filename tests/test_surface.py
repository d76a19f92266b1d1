"""The public surface resolves, every public definition has a caller, no
module of the package takes a private name of another, and the three
theorem checks propagate their states through the one shared evolve, once
per z; it returns one C-contiguous stack of coefficient arrays for every
model, the conjugate Fourier modes k and -k share one
propagator, and ``family`` runs the oracle only at the (z, t) points its
bound admits, in a few ``expm`` calls."""

import ast
import copy
import importlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lyapdecay import convection_diffusion as cd
from lyapdecay import fokker_planck as fp
from lyapdecay import goldstein_taylor as gt
from lyapdecay import oracle
from lyapdecay.cli import main

MODULES = [
    "linalg",
    "jordan",
    "lyapunov",
    "oracle",
    "family",
    "convection_diffusion",
    "goldstein_taylor",
    "fokker_planck",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"lyapdecay.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing


ROOT = Path(__file__).resolve().parents[1]

#: public definitions (top-level, or methods and properties of a top-level class)
#: that no module and no acceptance criterion calls, and why they stay
UNCALLED = {
    "verify_matrix_inequality": "parked for ROADMAP item 3; bench/tracing.py counts its calls",
    "p_induced_norm": "parked for ROADMAP item 3 (the integrand of its Gronwall factor)",
    "verify_chain": "parked for ROADMAP item 3, which deletes it unless it calls it",
    "improved_defect1_envelope": "parked for ROADMAP item 3, which deletes it unless it calls it",
    "gt_chains": "the tests' reference chains of the relaxation modes, built on module internals",
}


def _referenced(stmt):
    """Names that a Name, an Attribute or an import alias in ``stmt`` refers to."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _units(stmt):
    """``stmt``, or a class as its methods and properties and the rest of its body."""
    if not isinstance(stmt, ast.ClassDef):
        return [stmt]
    methods = [node for node in stmt.body if isinstance(node, ast.FunctionDef)]
    rest = copy.copy(stmt)
    rest.body = [node for node in stmt.body if node not in methods]
    return [rest, *methods]


def test_public_definitions_have_a_caller():
    # __init__.py is left out: a re-export is not a use
    sources = [p for p in sorted((ROOT / "src" / "lyapdecay").glob("*.py")) if p.stem != "__init__"]
    stmts = [unit for p in sources for stmt in ast.parse(p.read_text()).body for unit in _units(stmt)]
    refs = [_referenced(stmt) for stmt in stmts]
    # statements that refer to each name, and the names test_acceptance.py refers to
    count = Counter(name for r in refs for name in r)
    count.update(_referenced(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())))
    uncalled = {
        stmt.name
        for stmt, r in zip(stmts, refs)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
        and count[stmt.name] == int(stmt.name in r)  # only its own definition refers to it
    }
    missing, stale = sorted(uncalled - set(UNCALLED)), sorted(set(UNCALLED) - uncalled)
    assert not missing, f"public definitions with no caller: {missing}"
    assert not stale, f"called now, so drop them from UNCALLED: {stale}"


def _private_imports(tree) -> set:
    """``_``-prefixed names that a module imports from another package module,
    or reads as attributes of one it imports whole."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:  # from . import module
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    names.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and node.attr.startswith("_"):
                names.add(node.attr)
    return names


def test_modules_take_no_private_names_of_another():
    found = {
        path.stem: names
        for path in sorted((ROOT / "src" / "lyapdecay").glob("*.py"))
        if (names := _private_imports(ast.parse(path.read_text())))
    }
    assert found == {}


def _linalg_bypasses(tree) -> list:
    """Lines that reach LAPACK's eigenvalue or singular value routines past
    ``linalg``: a reference to ``eigvalsh``, a values-only ``svd`` or a
    matrix 2-norm of ``np.linalg``."""
    found = []
    for node in ast.walk(tree):
        if getattr(node, "attr", getattr(node, "name", None)) == "eigvalsh":  # np.linalg.eigvalsh or an import
            found.append((node.lineno, "eigvalsh"))
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        # the option, its position and the value that asks for singular values only
        option = {"svd": ("compute_uv", 2, False), "norm": ("ord", 1, 2)}.get(node.func.attr)
        if option is not None:
            key, position, value = option
            keywords = {kw.arg: kw.value for kw in node.keywords}
            arg = keywords.get(key, node.args[position] if len(node.args) > position else None)
            if isinstance(arg, ast.Constant) and arg.value == value:
                found.append((node.lineno, f"{node.func.attr} {key}={value}"))
    return found


def test_only_linalg_calls_eigvalsh_values_only_svd_or_matrix_2_norm():
    # linalg's spectral_norm and hermitian_extremes answer these for every module
    found = {
        path.stem: hits
        for path in sorted((ROOT / "src" / "lyapdecay").glob("*.py"))
        if path.stem != "linalg" and (hits := _linalg_bypasses(ast.parse(path.read_text())))
    }
    assert found == {}


def test_theorem_checks_call_public_evolve_once_per_z(monkeypatch):
    # every model check runs the one shared evolve, once per z
    calls = []
    orig = oracle.evolve

    def counted(model, field, state, z, t_grid):
        calls.append((model, z, np.asarray(t_grid).size))
        return orig(model, field, state, z, t_grid)

    monkeypatch.setattr(oracle, "evolve", counted)
    zs = np.array([-0.5, 0.5, 1.0])
    ts = np.linspace(0.0, 4.0, 6)

    state = lambda z: cd.gaussian_bump_state(3, order=1, v_amp=0.3)
    cd.theorem_bound_check(cd.tanh_field(), state, zs, ts, order=1)
    field = gt.tanh_relaxation()
    uni = gt.gt_uniform_constant(field, k_max=2, n_sigma=2, n_dsigma=2)
    gt.gt_theorem_check(field, lambda z: gt.gt_bump_state(3), zs, ts, uniform=uni)
    drift = fp.sin_drift()
    fp.fp_theorem_check(drift, lambda z: fp.fp_gaussian_state(drift, z=z, K=6), zs, ts)
    assert calls == [(model, z, ts.size) for model in (cd.MODEL, gt.MODEL, fp.MODEL) for z in zs]


@pytest.mark.parametrize("model", ["cd-order1", "cd-order2", "gt", "fp"])
def test_evolve_returns_contiguous_stack_with_slice_deviations(model):
    z, ts, drift = 0.4, np.linspace(0.0, 4.0, 7), fp.sin_drift()
    state0, record, field = {
        "cd-order1": (cd.gaussian_bump_state(3, v_amp=0.3), cd.MODEL, cd.tanh_field()),
        "cd-order2": (cd.gaussian_bump_state(3, order=2, v_amp=0.3), cd.MODEL, cd.trig_field()),
        "gt": (gt.gt_bump_state(3), gt.MODEL, gt.tanh_relaxation()),
        "fp": (fp.fp_gaussian_state(drift, z, K=6), fp.MODEL, drift),
    }[model]
    states = oracle.evolve(record, field, state0, z, ts)
    assert states.shape == (ts.size, *state0.shape)
    assert states.flags.c_contiguous
    stacked = oracle.deviation_sq(record, field, states, z)
    assert stacked.shape == ts.shape
    assert np.array_equal(stacked, [oracle.deviation_sq(record, field, s, z) for s in states])


@pytest.mark.parametrize(
    "argv, matrices",
    [
        (["model-cd", "--order", "1"], 13 * 32 * 50),
        (["model-cd", "--order", "2"], 13 * 32 * 50),
        (["model-gt"], 13 * 33 * 50),
        (["model-fp"], 13 * 40 * 40),
    ],
    ids=["cd-order1", "cd-order2", "gt", "fp"],
)
def test_model_defaults_compute_one_propagator_per_conjugate_pair(argv, matrices, expm_matrices, tmp_path, monkeypatch):
    # 13 z x 50 t: cd's modes +-1..+-32 make 32 pairs, gt adds its real k = 0;
    # fp's 40 real modes (13 z x 40 t) pair with none
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "o.csv", "--report", "o.json"]) == 0
    assert sum(expm_matrices) == matrices


def test_family_defaults_stack_the_z_grid_into_few_expm_calls(expm_matrices, tmp_path, monkeypatch):
    # of the 241 z x 99 t > 0 points (23,859), the log-norm bound admits 99
    # seeds and 3,469 more at the default grid; they run in chunks of
    # _LOGNORM_CHUNK complex entries, 4 per 2x2 matrix: one call for the
    # seeds, then as few as the rest fill
    from lyapdecay import oracle

    monkeypatch.chdir(tmp_path)
    assert main(["family", "--out", "f.csv"]) == 0
    assert sum(expm_matrices) == 3568
    assert len(expm_matrices) == 1 + -(-(3568 - 99) // (oracle._LOGNORM_CHUNK // 4))
