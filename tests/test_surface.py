"""The public surface resolves, and the three theorem checks propagate their
states through the public evolve of their model, once per z; each evolve
returns one C-contiguous stack of coefficient arrays."""

import importlib
from functools import partial

import numpy as np
import pytest

import lyapdecay
from lyapdecay import convection_diffusion as cd
from lyapdecay import fokker_planck as fp
from lyapdecay import goldstein_taylor as gt

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


def test_package_all_resolves():
    assert [attr for attr in lyapdecay.__all__ if not hasattr(lyapdecay, attr)] == []


def _counting(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(field, state, z, t_grid):
        calls.append((z, np.asarray(t_grid).size))
        return orig(field, state, z, t_grid)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_theorem_checks_call_public_evolve_once_per_z(monkeypatch):
    zs = np.array([-0.5, 0.5, 1.0])
    ts = np.linspace(0.0, 4.0, 6)
    want = [(z, ts.size) for z in zs]

    calls = _counting(monkeypatch, cd, "evolve_spectrum")
    state = lambda z: cd.gaussian_bump_state(3, order=1, v_amp=0.3)
    cd.theorem_bound_check(cd.tanh_field(), state, zs, ts, order=1)
    assert calls == want

    calls = _counting(monkeypatch, gt, "gt_evolve")
    field = gt.tanh_relaxation()
    uni = gt.gt_uniform_constant(field, k_max=2, n_sigma=2, n_dsigma=2)
    gt.gt_theorem_check(field, lambda z: gt.gt_bump_state(3), zs, ts, uniform=uni)
    assert calls == want

    calls = _counting(monkeypatch, fp, "fp_evolve")
    drift = fp.sin_drift()
    fp.fp_theorem_check(drift, lambda z: fp.fp_gaussian_state(drift, z=z, K=6), zs, ts)
    assert calls == want



@pytest.mark.parametrize("model", ["cd-order1", "cd-order2", "gt", "fp"])
def test_evolve_returns_contiguous_stack_with_slice_deviations(model):
    z, ts, drift = 0.4, np.linspace(0.0, 4.0, 7), fp.sin_drift()
    state0, evolve, deviation = {
        "cd-order1": (cd.gaussian_bump_state(3, v_amp=0.3), partial(cd.evolve_spectrum, cd.tanh_field()), cd.deviation_norm_sq),
        "cd-order2": (
            cd.gaussian_bump_state(3, order=2, v_amp=0.3),
            partial(cd.evolve_spectrum, cd.trig_field()),
            cd.deviation_norm_sq,
        ),
        "gt": (gt.gt_bump_state(3), partial(gt.gt_evolve, gt.tanh_relaxation()), gt.gt_deviation_norm_sq),
        "fp": (fp.fp_gaussian_state(drift, z, K=6), partial(fp.fp_evolve, drift), lambda s: fp.fp_deviation_norm_sq(drift, s, z)),
    }[model]
    states = evolve(state0, z, ts)
    assert states.shape == (ts.size, *state0.shape)
    assert states.flags.c_contiguous
    stacked = deviation(states)
    assert stacked.shape == ts.shape
    assert np.array_equal(stacked, [deviation(s) for s in states])
