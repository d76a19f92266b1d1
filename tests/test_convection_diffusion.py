import dataclasses

import numpy as np
import pytest

from lyapdecay import convection_diffusion as cd
from lyapdecay import fokker_planck as fp
from lyapdecay import goldstein_taylor as gt
from lyapdecay import linalg
from lyapdecay.jordan import JordanBlock, structure_from_chains
from lyapdecay.linalg import expm, spectral_norm
from lyapdecay.lyapunov import (
    build_form,
    decay_constant,
    lower_bound_lemma_gap,
    p_norm_sq,
    sup_poly_exp,
    w_vector,
)
from lyapdecay.oracle import _check_field_bounds, check_dominance, deviation_sq, duhamel_solve, evolve, nilpotent2_propagator_sq


@pytest.fixture(scope="module")
def field():
    return cd.tanh_field()


@pytest.fixture(scope="module")
def field2():
    return cd.trig_field()


def test_lambda_k_constant_coefficients():
    f = cd.CoefficientField(
        a=lambda z: 0.0, b=lambda z: 1.0, da=lambda z: 0.0, db=lambda z: 0.0,
        b0=1.0, sup_da=0.0, sup_db=0.0,
    )
    lam, dlam, _ = cd.lambda_k(f, 3, 0.5)
    assert lam == pytest.approx(1.0) and dlam == pytest.approx(0.0)
    with pytest.raises(ValueError):
        cd.lambda_k(f, 0, 0.0)


def test_lambda_k_polynomial_coefficients():
    f = cd.CoefficientField(
        a=lambda z: z, b=lambda z: 1.0 + z * z, da=lambda z: 1.0, db=lambda z: 2.0 * z,
        b0=1.0, sup_da=1.0, sup_db=4.0,
    )
    lam, dlam, _ = cd.lambda_k(f, 2, 1.0)
    assert lam == pytest.approx(2.0 + 0.5j)
    assert dlam == pytest.approx(2.0 + 0.5j)


def test_mode_gap_attained_at_first_modes(field):
    z = 0.7
    b = field.b(z)
    rates = {k: (k * k * b) for k in range(1, 6)}
    assert min(rates.values()) == rates[1] == pytest.approx(b)


def test_first_order_system_structure(field):
    k, z = 3, -0.4
    m = cd.first_order_system(field, k, z)
    lam, dlam, _ = cd.lambda_k(field, k, z)
    np.testing.assert_allclose(m, k * k * np.array([[lam, 0], [dlam, lam]]), rtol=1e-14)
    ev = np.linalg.eigvals(m)
    assert np.max(np.abs(ev - k * k * lam)) < 1e-8  # doubly degenerate


def test_first_order_diagonal_case_decays_exactly():
    f = cd.CoefficientField(
        a=lambda z: 1.0, b=lambda z: 2.0, da=lambda z: 0.0, db=lambda z: 0.0,
        b0=2.0, sup_da=0.0, sup_db=0.0,
    )
    k, z = 2, 0.1
    m = cd.first_order_system(f, k, z)
    for t in (0.3, 1.0):
        assert spectral_norm(expm(-m, t)) ** 2 == pytest.approx(np.exp(-2 * k * k * 2.0 * t), rel=1e-11)
    envm = cd.first_order_envelope(f, k, z)
    assert (envm.C_const, envm.mu, envm.M) == (1.0, k * k * 2.0, 1)


def test_second_order_constant_coefficients_decay_exactly():
    # dlambda = d2lambda = 0: the 3x3 system is k^2 lambda I, the exact exponential
    f = cd.CoefficientField(
        a=lambda z: 1.0, b=lambda z: 2.0, da=lambda z: 0.0, db=lambda z: 0.0,
        b0=2.0, sup_da=0.0, sup_db=0.0, d2a=lambda z: 0.0, d2b=lambda z: 0.0,
    )
    for k in (1, -2, 3):
        envm = cd.second_order_envelope(f, k, 0.1)
        assert (envm.C_const, envm.mu, envm.M) == (1.0, k * k * 2.0, 1)
        assert check_dominance(cd.second_order_system(f, k, 0.1), envm, np.linspace(0.0, 5.0, 21)).dominated


def test_first_order_matches_defect1_propagator_after_scaling(field):
    # the 2x2 mode matrix is the defect-one family transposed and rescaled
    k, z = 1, 0.3
    lam, dlam, _ = cd.lambda_k(field, k, z)
    m = cd.first_order_system(field, k, z)
    for t in (0.5, 2.0):
        got = spectral_norm(expm(-m, t)) ** 2
        want = nilpotent2_propagator_sq(k * k * lam.real, k * k * abs(dlam), t)
        assert got == pytest.approx(want, rel=1e-11)


def test_first_order_envelope_constant(field):
    f1 = cd.CoefficientField(
        a=lambda z: z, b=lambda z: 2.0, da=lambda z: 1.0, db=lambda z: 0.0,
        b0=2.0, sup_da=1.0, sup_db=0.0,
    )
    envm = cd.first_order_envelope(f1, 1, 0.0)  # |dlam| = 1
    assert envm.C_const == pytest.approx(24.0, rel=1e-12)


def test_first_order_envelope_dominance_random(field):
    rng = np.random.default_rng(10)
    for _ in range(6):
        k = int(rng.integers(1, 5)) * (1 if rng.uniform() < 0.5 else -1)
        z = float(rng.uniform(-2.5, 2.5))
        envm = cd.first_order_envelope(field, k, z)
        m = cd.first_order_system(field, k, z)
        rep = check_dominance(m, envm, np.linspace(0.0, 20.0 / (k * k), 60))
        assert rep.dominated


def _linear_convection(slope):
    # a = slope z, b = 2: dlambda = i slope / k at every z
    return cd.CoefficientField(
        a=lambda z: slope * z, b=lambda z: 2.0, da=lambda z: slope, db=lambda z: 0.0,
        b0=2.0, sup_da=slope, sup_db=0.0,
    )


def test_first_order_envelope_dominates_below_any_cut():
    # |dlambda| = 1e-11 sat below the old relative cut 1e-10 (1 + |lambda|),
    # whose C = 1, M = 1 envelope the propagator beat by log 102 at t = 1e12
    f = _linear_convection(1e-11)
    envm = cd.first_order_envelope(f, 1, 0.5)
    assert (envm.C_const, envm.M) == (24.0, 2)
    rep = check_dominance(cd.first_order_system(f, 1, 0.5), envm, np.geomspace(1e-3, 1e12, 200))
    assert rep.dominated, rep.max_log_ratio
    # |dlambda|^2 underflows to 0, the defect-one branch stays finite
    tiny = cd.first_order_envelope(_linear_convection(1e-300), 1, 0.5)
    assert (tiny.C_const, tiny.mu, tiny.M) == (24.0, 2.0, 2)
    f2 = dataclasses.replace(_linear_convection(1e-300), d2a=lambda z: 0.0, d2b=lambda z: 0.0)
    assert cd.second_order_envelope(f2, 1, 0.5).M == 3
    f2 = dataclasses.replace(_linear_convection(0.0), d2a=lambda z: 1e-300, d2b=lambda z: 0.0)
    tiny2 = cd.second_order_envelope(f2, 1, 0.5)
    assert (tiny2.C_const, tiny2.M) == (24.0, 2)


def _chain_route_envelope(field, k, z, order):
    """The per-mode envelope through adjoint chains with links of size 1/dlambda
    and the adapted-form machinery; None where that route had no chain."""
    lam, dlam, d2lam = cd.lambda_k(field, k, z)
    if order == 1 and dlam != 0:
        blocks, w_sq = [(lam, [[1.0, 0.0], [0.0, 1.0 / np.conj(dlam)]])], abs(dlam) ** 2
    elif order == 2 and dlam == 0 and d2lam != 0:
        chain = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0 / np.conj(d2lam)]]
        blocks, w_sq = [(lam, chain), (lam, [[0.0, 1.0, 0.0]])], abs(d2lam) ** 2
    else:
        return None
    st = structure_from_chains(blocks)
    return decay_constant(st, build_form(st, block_weights={0: np.array([1.0, w_sq])})).scaled(k * k)


@pytest.mark.parametrize("make_field", [cd.tanh_field, cd.trig_field], ids=["builtin:tanh", "builtin:trig"])
def test_mode_envelopes_match_chain_route_on_default_grid(make_field):
    from lyapdecay.cli import _OPTIONS, _parse_grid

    field = make_field()
    K = _OPTIONS["model-cd"]["K"].default
    routes = 0
    for z in _parse_grid(_OPTIONS["model-cd"]["z_grid"].default):
        for k in [k for k in range(-K, K + 1) if k]:
            for order, envelope in ((1, cd.first_order_envelope), (2, cd.second_order_envelope)):
                want = _chain_route_envelope(field, k, z, order)
                if want is None:
                    continue
                routes += 1
                got = envelope(field, k, z)
                assert (got.M, got.mu, got.a) == (want.M, want.mu, want.a), (order, k, z)
                assert got.C_const == pytest.approx(want.C_const, rel=1e-14, abs=0.0), (order, k, z)
    # one chain per (mode, z): at trig's z = 0, dlambda = 0 and the second
    # order takes the defect-one chain in place of the first order's
    assert routes == 13 * 2 * K


def test_second_order_rank_classification(field2):
    lam0, dlam0, d2lam0 = cd.lambda_k(field2, 1, 0.0)
    assert abs(dlam0) < 1e-12 and abs(d2lam0) > 0.5
    m0 = cd.second_order_system(field2, 1, 0.0) / 1.0
    assert np.linalg.matrix_rank(m0 - np.eye(3) * m0[0, 0], tol=1e-9) == 1
    lam1, dlam1, _ = cd.lambda_k(field2, 1, 0.8)
    m1 = cd.second_order_system(field2, 1, 0.8)
    assert np.linalg.matrix_rank(m1 - np.eye(3) * m1[0, 0], tol=1e-9) == 2
    const = cd.CoefficientField(
        a=lambda z: 1.0, b=lambda z: 1.0, da=lambda z: 0.0, db=lambda z: 0.0,
        b0=1.0, sup_da=0.0, sup_db=0.0, d2a=lambda z: 0.0, d2b=lambda z: 0.0,
    )
    mc = cd.second_order_system(const, 1, 0.0)
    assert np.linalg.matrix_rank(mc - np.eye(3) * mc[0, 0], tol=1e-9) == 0


def test_second_order_expm_vs_duhamel(field2):
    rng = np.random.default_rng(20)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        z = float(rng.uniform(-2, 2))
        m = cd.second_order_system(field2, k, z)
        y0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        t = float(rng.uniform(0, 3.0 / (k * k)))
        np.testing.assert_allclose(duhamel_solve(m, y0, t), expm(-m, t) @ y0, atol=1e-10)


def test_second_order_envelope_constants(field2):
    # fully defective at |dlam| = |d2lam| = 1
    f = cd.CoefficientField(
        a=lambda z: z + z * z / 2, b=lambda z: 2.0, da=lambda z: 1.0 + z, db=lambda z: 0.0,
        b0=2.0, sup_da=2.0, sup_db=0.0, d2a=lambda z: 1.0, d2b=lambda z: 0.0,
        sup_d2a=1.0, sup_d2b=0.0,
    )
    envm = cd.second_order_envelope(f, 1, 0.0)
    assert envm.M == 3
    assert envm.C_const == pytest.approx(1.0 + (12.0 + 585.0 * 2.0) * 1.0)  # 1183
    # defect-one branch at |d2lam| = 1 (quadratic convection, flat diffusion)
    fq = cd.CoefficientField(
        a=lambda z: 0.5 * z * z, b=lambda z: 2.0, da=lambda z: z, db=lambda z: 0.0,
        b0=2.0, sup_da=3.0, sup_db=0.0, d2a=lambda z: 1.0, d2b=lambda z: 0.0,
        sup_d2a=1.0, sup_d2b=0.0,
    )
    envm2 = cd.second_order_envelope(fq, 1, 0.0)
    assert envm2.mu == 2.0
    assert envm2.C_const == pytest.approx(24.0)
    assert envm2.M == 2


def test_second_order_envelope_dominance_incl_collapse(field2):
    for k in (1, 2):
        for z in (1e-6, 1e-4, 0.3, 1.2, 0.0):
            envm = cd.second_order_envelope(field2, k, z)
            m = cd.second_order_system(field2, k, z)
            rep = check_dominance(m, envm, np.linspace(0.0, 20.0 / (k * k), 60))
            assert rep.dominated, (k, z, rep.max_ratio)


def test_second_order_collapse_constant_stays_bounded(field2):
    cap = 1.0 + (12.0 + 585.0 * (1.0 + field2.sup_d2a**2 + field2.sup_d2b**2))
    for z in (1e-4, 1e-6, 1e-8):
        envm = cd.second_order_envelope(field2, 1, z)
        lam, dlam, _ = cd.lambda_k(field2, 1, z)
        assert 0 < abs(dlam) < 1e-3
        assert envm.C_const <= cap


# ------------------------------------------- defect-two lemma instances
# The lemma behind the defect-two constant, written out for a mode with
# dlambda != 0.  The chain links carry 1/dlambda^3, so a relative cut keeps
# them finite.


def _defective_lambdas(field, k, z):
    lam, dlam, d2lam = cd.lambda_k(field, k, z)
    if abs(dlam) <= 1e-10 * (1.0 + abs(lam)):
        raise ValueError("requires dlambda != 0")
    return lam, dlam, d2lam


def _second_order_block(lam, dlam, d2lam):
    """Adjoint chain of the 3x3 mode matrix in the fully defective case."""
    dl = np.conj(dlam)
    d2l = np.conj(d2lam)
    v0 = np.array([1, 0, 0], dtype=complex)
    v1 = np.array([0, 1.0 / dl, 0], dtype=complex)
    v2 = np.array([0, -d2l / (2.0 * dl**3), 1.0 / (2.0 * dl**2)], dtype=complex)
    return JordanBlock(eigenvalue=lam, chain=np.array([v0, v1, v2]))


def tilde_w3_vector(field, k, z, t):
    """Replacement top vector w~3(t) = w3(t) + (d2lam~ / 2 dlam~^2) w2(t).

    Time is the rescaled mode time (pair with solutions at k^2 t).  At t = 0
    the vector is (0, 0, 1/(2 dlam~^2)), which removes the third chain
    vector's dlam^-3 blow-up from the quadratic form.
    """
    lam, dlam, d2lam = _defective_lambdas(field, k, z)
    block = _second_order_block(lam, dlam, d2lam)
    coef = np.conj(d2lam) / (2.0 * np.conj(dlam) ** 2)
    return w_vector(block, 3, t) + coef * w_vector(block, 2, t)


def second_order_tilde_p(field, k, z, t):
    """P~_k(z, t) = P^1(t) + |dlam|^2 P^2(t) + 4 |dlam|^4 w~3(t) (x) w~3(t).

    Equals the identity at t = 0.  Time is the rescaled mode time.
    """
    lam, dlam, d2lam = _defective_lambdas(field, k, z)
    block = _second_order_block(lam, dlam, d2lam)
    w1 = w_vector(block, 1, t)
    w2 = w_vector(block, 2, t)
    w3t = tilde_w3_vector(field, k, z, t)
    p = (
        np.outer(w1, w1.conj())
        + abs(dlam) ** 2 * np.outer(w2, w2.conj())
        + 4.0 * abs(dlam) ** 4 * np.outer(w3t, w3t.conj())
    )
    return 0.5 * (p + p.conj().T)


def lemma_tilde_p3_coefficient(field, k, z):
    """Coefficient 146.25 (1+|d2lam|^2)/min{1, |dlam|^4} of the w~3 semi-norm
    bound with algebraic factor (1 + k^8 t^4)."""
    _, dlam, d2lam = _defective_lambdas(field, k, z)
    return 146.25 * (1.0 + abs(d2lam) ** 2) / min(1.0, abs(dlam) ** 4)


def test_tilde_w3_vector_at_zero(field2):
    k, z = 2, 0.7
    lam, dlam, d2lam = cd.lambda_k(field2, k, z)
    w3 = tilde_w3_vector(field2, k, z, 0.0)
    np.testing.assert_allclose(w3[:2], 0.0, atol=1e-14)
    assert w3[2] == pytest.approx(1.0 / (2.0 * np.conj(dlam) ** 2), rel=1e-12)


def test_tilde_p_decay_identity(field2):
    k, z = 2, 0.7
    m = cd.second_order_system(field2, k, z)
    lam, _, _ = cd.lambda_k(field2, k, z)
    rng = np.random.default_rng(1)
    y0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    ref = p_norm_sq(y0, second_order_tilde_p(field2, k, z, 0.0))
    for t in (0.2, 0.7, 1.5):
        yt = expm(-m, t) @ y0
        val = p_norm_sq(yt, second_order_tilde_p(field2, k, z, k * k * t))
        assert val == pytest.approx(np.exp(-2 * k * k * lam.real * t) * ref, rel=1e-9)


def test_tilde_lemma_instantiation_slack(field2):
    # xi^1 = t^2/2 + (d2lam~/2 dlam~^2) t, xi^2 = t, xi^3 = 1 applied to
    # (w1(0), w2(0), w~3(0)) reproduces w~3(t); the slack stays nonnegative
    k, z = 1, 0.9
    lam, dlam, d2lam = cd.lambda_k(field2, k, z)
    block_chain = np.array(
        [
            [1, 0, 0],
            [0, 1.0 / np.conj(dlam), 0],
            list(tilde_w3_vector(field2, k, z, 0.0)),
        ],
        dtype=complex,
    )
    coef = np.conj(d2lam) / (2.0 * np.conj(dlam) ** 2)
    rng = np.random.default_rng(5)
    for theta in (0.2, 0.5, 0.8):
        for t in (0.0, 0.6, 3.0):
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            # real polynomials in t require a real coefficient; the mixed
            # first polynomial is handled by splitting into the two paths
            if abs(coef.imag) < 1e-12:
                xis = [[0.0, coef.real, 0.5], [0.0, 1.0], [1.0]]
                slack = lower_bound_lemma_gap(block_chain, xis, theta, t, x)
                assert slack >= -1e-10
            w3t = tilde_w3_vector(field2, k, z, t)
            np.testing.assert_allclose(
                w3t,
                (0.5 * t * t + coef * t) * block_chain[0]
                + t * block_chain[1]
                + block_chain[2],
                atol=1e-12,
            )


def test_tilde_p3_seminorm_bound(field2):
    # |y(t)|^2 in the w~3(0) dyad is bounded by the explicit coefficient
    # times (1 + k^8 t^4) e^{-2 k^2 b t}
    rng = np.random.default_rng(9)
    for k in (1, 2):
        for z in (0.4, 1.1):
            m = cd.second_order_system(field2, k, z)
            lam, _, _ = cd.lambda_k(field2, k, z)
            coeff = lemma_tilde_p3_coefficient(field2, k, z)
            w30 = tilde_w3_vector(field2, k, z, 0.0)
            for _ in range(5):
                y0 = rng.normal(size=3) + 1j * rng.normal(size=3)
                for t in (0.0, 0.5, 2.0, 5.0):
                    yt = expm(-m, t) @ y0
                    lhs = abs(np.vdot(w30, yt)) ** 2
                    rhs = (
                        coeff
                        * (1.0 + k**8 * t**4)
                        * np.exp(-2 * k * k * lam.real * t)
                        * float(np.vdot(y0, y0).real)
                    )
                    assert lhs <= rhs * (1 + 1e-9)


def test_evolve_spectrum_identity_and_steady(field):
    state = cd.gaussian_bump_state(8, order=1, v_amp=0.2)
    (same,) = evolve(cd.MODEL, field, state, 0.5, [0.0])
    np.testing.assert_allclose(same, state, atol=1e-14)
    # steady state (1, 0) is fixed
    steady = np.hstack([np.eye(9)[:, [4]], np.zeros((9, 1))]).astype(complex)
    for out in evolve(cd.MODEL, field, steady, 0.2, [0.0, 3.0, 40.0]):
        np.testing.assert_allclose(out, steady, atol=1e-14)


def test_evolve_spectrum_single_mode_matches_duhamel(field):
    K = 4
    coeffs = np.zeros((2 * K + 1, 2), dtype=complex)
    coeffs[K, 0] = 1.0
    coeffs[K + 2, 0] = 0.4 - 0.1j
    coeffs[K + 2, 1] = 0.2j
    z, ts = -0.8, [0.6, 2.5]
    m = cd.first_order_system(field, 2, z)
    for out, t in zip(evolve(cd.MODEL, field, coeffs, z, ts), ts):
        np.testing.assert_allclose(out[K + 2], duhamel_solve(m, coeffs[K + 2], t), atol=1e-12)


def test_state_normalization_enforced(field):
    K = 2
    coeffs = np.zeros((2 * K + 1, 2), dtype=complex)
    with pytest.raises(ValueError, match="not normalized"):
        evolve(cd.MODEL, field, coeffs, 0.0, [0.0])  # u_0 = 0


def synthesize(coeffs_k, x) -> np.ndarray:
    """Evaluate sum_k c_k exp(i k x) for coefficients indexed k = -K..K."""
    c = np.asarray(coeffs_k, dtype=complex)
    K = (c.size - 1) // 2
    x = np.asarray(x, dtype=float)
    ks = np.arange(-K, K + 1)
    return np.exp(1j * np.outer(x, ks)) @ c


def test_parseval_against_physical_space(field):
    state = cd.gaussian_bump_state(32, order=1, v_amp=0.3)
    x = 2.0 * np.pi * np.arange(512) / 512
    u = synthesize(state[:, 0], x)
    physical = float(np.mean(np.abs(u) ** 2))
    spectral = float(np.sum(np.abs(state[:, 0]) ** 2))
    assert physical == pytest.approx(spectral, abs=1e-6)


def test_mass_conservation_is_exact(field):
    state = cd.gaussian_bump_state(8, order=1, v_amp=0.4)
    (out,) = evolve(cd.MODEL, field, state, 1.3, [2.4])
    assert out[8, 0] == 1.0 + 0.0j
    assert out[8, 1] == 0.0 + 0.0j


def test_mode_envelopes_dominate_over_k_and_cases(field2):
    for k in (1, 2, 4, 8):
        for z in (0.0, 1e-6, 0.5, 1.0, 2.2):
            m = cd.second_order_system(field2, k, z)
            envm = cd.second_order_envelope(field2, k, z)
            ts = np.linspace(0.0, 20.0 / (k * k), 40)
            assert check_dominance(m, envm, ts).dominated


def test_k_folding_inequality_first_order(field):
    # (1 + k^4 t^2) e^{-2 k^2 b0 t} <= c (1 + t^2) e^{-2 b0 t}
    b0 = field.b0
    c = sup_poly_exp(2, 2.0 * b0)
    ts = np.linspace(0.0, 30.0, 400)
    for k in (1, 2, 3, 5, 8, 16, 32):
        lhs = (1.0 + k**4 * ts**2) * np.exp(-2 * k * k * b0 * ts)
        rhs = c * (1.0 + ts**2) * np.exp(-2 * b0 * ts)
        assert np.all(lhs <= rhs * (1 + 1e-12))


def test_k_folding_inequality_second_order(field2):
    b0 = field2.b0
    c = sup_poly_exp(4, 2.0 * b0)
    ts = np.linspace(0.0, 30.0, 400)
    for k in (1, 2, 3, 5, 8, 16, 32):
        lhs = (1.0 + k**8 * ts**4) * np.exp(-2 * k * k * b0 * ts)
        rhs = c * (1.0 + ts**4) * np.exp(-2 * b0 * ts)
        assert np.all(lhs <= rhs * (1 + 1e-12))


def test_theorem_bound_first_order_small(field):
    rep = cd.theorem_bound_check(
        field,
        lambda z: cd.gaussian_bump_state(12, order=1, v_amp=0.3),
        np.linspace(-2.0, 2.0, 5),
        np.linspace(0.0, 6.0, 13),
        order=1,
    )
    assert rep["passed"] and rep["max_ratio"] < 1.0
    assert rep["constants"]["C_global"] == pytest.approx(36.0)


def test_theorem_bound_second_order_small(field2):
    rep = cd.theorem_bound_check(
        field2,
        lambda z: cd.gaussian_bump_state(10, order=2, v_amp=0.3),
        np.array([-1.2, 1e-6, 0.9]),
        np.linspace(0.0, 5.0, 11),
        order=2,
    )
    assert rep["passed"]
    assert rep["tail_fraction"] < 1e-8


@pytest.mark.parametrize("order", [1, 2])
def test_theorem_check_holds_second_derivatives_to_their_bounds(field2, order):
    # with sup_d2a = sup_d2b = 0 the order-2 C_global would read 2389 instead of 14089
    understated = dataclasses.replace(field2, sup_d2a=0.0, sup_d2b=0.0)
    state = cd.gaussian_bump_state(4, order=order, v_amp=0.3)
    with pytest.raises(ValueError, match="sup_d2a"):
        cd.theorem_bound_check(understated, lambda z: state, np.linspace(-3.0, 3.0, 13), [0.0, 1.0], order=order)
    # every builtin keeps its own BOUNDS on a dense grid; tanh_field's sup_d2b
    # is attained where tanh z = 1/sqrt(3), so it cannot be lowered
    z_peak = np.arctanh(1.0 / np.sqrt(3.0))
    dense = np.sort(np.concatenate([np.linspace(-10.0, 10.0, 4001), [z_peak]]))
    for builtin in (cd.tanh_field, cd.trig_field, gt.tanh_relaxation, fp.sin_drift):
        _check_field_bounds(builtin(), dense)
    tanh = cd.tanh_field()
    assert abs(tanh.d2b(z_peak)) == pytest.approx(tanh.sup_d2b, rel=1e-12)
    with pytest.raises(ValueError, match="sup_d2b"):
        _check_field_bounds(dataclasses.replace(tanh, sup_d2b=tanh.sup_d2b * (1.0 - 1e-6)), dense)


@pytest.mark.parametrize("order", [1, 2])
def test_theorem_check_equals_per_cell_evolve(field2, order, expm_matrices, monkeypatch):
    # 2K = 6 modes, 3 computed (k and -k are conjugate), x 60 times span more
    # than one stacked chunk of 500 complex entries: 2 modes of (order + 1)^2
    # entries a call at order 1 and 1 at order 2
    monkeypatch.setattr(linalg, "_APPLY_CHUNK", 500)
    zs = np.array([-0.7, 0.0, 1.1])
    ts = np.linspace(0.0, 9.0, 60)
    state = lambda z: cd.gaussian_bump_state(3, order=order, v_amp=0.3)
    rep = cd.theorem_bound_check(field2, state, zs, ts, order=order)
    per = max(1, 500 // (60 * (order + 1) ** 2))
    assert expm_matrices == [60 * min(per, 3 - lo) for lo in range(0, 3, per)] * zs.size
    want = [[deviation_sq(cd.MODEL, field2, evolve(cd.MODEL, field2, state(z), z, [t])[0], z) for t in ts] for z in zs]
    assert np.array_equal(rep["norm_sq"], np.array(want))
