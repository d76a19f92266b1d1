"""Every per-mode envelope constant is covered by the global mode constant
of its branch, on the grids the ``model-*`` commands use by default."""

import pytest

from lyapdecay import convection_diffusion as cd
from lyapdecay import fokker_planck as fp
from lyapdecay import goldstein_taylor as gt
from lyapdecay.cli import _OPTIONS, _parse_grid

REL_TOL = 1e-12


def _defaults(command):
    options = _OPTIONS[command]
    return _parse_grid(options["z_grid"].default), options["K"].default


def _covered(c_mode, c_global):
    return c_mode <= c_global * (1.0 + REL_TOL)


@pytest.mark.parametrize("make_field", [cd.tanh_field, cd.trig_field], ids=["builtin:tanh", "builtin:trig"])
def test_convection_diffusion_mode_constants(make_field):
    zg, K = _defaults("model-cd")
    field = make_field()
    for order, envelope in ((1, cd.first_order_envelope), (2, cd.second_order_envelope)):
        mode_const = cd.assembled_constants(field, order)["mode_const"]
        worst = max(
            envelope(field, k, z).C_const for k in range(-K, K + 1) if k != 0 for z in zg
        )
        assert _covered(worst, mode_const), (order, worst, mode_const)


def test_relaxation_mode_constants():
    zg, K = _defaults("model-gt")
    field = gt.tanh_relaxation()
    uniform = gt.gt_uniform_constant(field, k_max=_OPTIONS["model-gt"]["k_max"].default)
    for k in range(-K, K + 1):
        for z in zg:
            env = gt.gt_mode_envelope(field, k, z)
            if k == 0:
                c_global = uniform["zero_mode_C"]
            elif env.M == 2:
                c_global = uniform["defective"]["C"]
            else:
                c_global = 2.0 * uniform["nondefective"]["C"]
            assert _covered(env.C_const, c_global), (k, z, env.C_const, c_global)


def test_fokker_planck_mode_constants():
    zg, K = _defaults("model-fp")
    field = fp.sin_drift()
    consts = fp.kuniform_constant(field)
    for z in zg:
        for k in (1, 2):
            assert _covered(fp.fp_envelope_k12(field, k, z).C_const, consts["C_12"]), (k, z)
        assert _covered(fp.fp_envelope_k3(field, z).C_const, consts["C_3"]), z
        for k in range(4, K + 1):
            assert _covered(fp.fp_k4_envelope(field, k, z).C_const, consts["C_ge4"]), (k, z)
