import numpy as np
import pytest

from lyapdecay import convection_diffusion as cd
from lyapdecay.linalg import expm, spectral_norm
from lyapdecay.lyapunov import lower_bound_lemma_gap, p_norm_sq, sup_poly_exp
from lyapdecay.oracle import check_dominance, duhamel_solve, nilpotent2_propagator_sq


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
    assert envm.exact


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
    assert envm.env.C_const == pytest.approx(24.0, rel=1e-12)


def test_first_order_envelope_dominance_random(field):
    rng = np.random.default_rng(10)
    for _ in range(6):
        k = int(rng.integers(1, 5)) * (1 if rng.uniform() < 0.5 else -1)
        z = float(rng.uniform(-2.5, 2.5))
        envm = cd.first_order_envelope(field, k, z)
        m = cd.first_order_system(field, k, z)
        rep = check_dominance(m, envm, np.linspace(0.0, 20.0 / (k * k), 60))
        assert rep.dominated


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
    assert envm.meta["case"] == 3
    assert envm.env.C_const == pytest.approx(1.0 + (12.0 + 585.0 * 2.0) * 1.0)  # 1183
    # defect-one branch at |d2lam| = 1 (quadratic convection, flat diffusion)
    fq = cd.CoefficientField(
        a=lambda z: 0.5 * z * z, b=lambda z: 2.0, da=lambda z: z, db=lambda z: 0.0,
        b0=2.0, sup_da=3.0, sup_db=0.0, d2a=lambda z: 1.0, d2b=lambda z: 0.0,
        sup_d2a=1.0, sup_d2b=0.0,
    )
    envm2 = cd.second_order_envelope(fq, 1, 0.0)
    assert envm2.meta["case"] == 2
    assert envm2.env.C_const == pytest.approx(24.0)
    assert envm2.env.M == 2


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
        assert envm.env.C_const <= cap


def test_tilde_w3_vector_at_zero(field2):
    k, z = 2, 0.7
    lam, dlam, d2lam = cd.lambda_k(field2, k, z)
    w3 = cd.tilde_w3_vector(field2, k, z, 0.0)
    np.testing.assert_allclose(w3[:2], 0.0, atol=1e-14)
    assert w3[2] == pytest.approx(1.0 / (2.0 * np.conj(dlam) ** 2), rel=1e-12)


def test_tilde_p_decay_identity(field2):
    k, z = 2, 0.7
    m = cd.second_order_system(field2, k, z)
    lam, _, _ = cd.lambda_k(field2, k, z)
    rng = np.random.default_rng(1)
    y0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    ref = p_norm_sq(y0, cd.second_order_tilde_p(field2, k, z, 0.0))
    for t in (0.2, 0.7, 1.5):
        yt = expm(-m, t) @ y0
        val = p_norm_sq(yt, cd.second_order_tilde_p(field2, k, z, k * k * t))
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
            list(cd.tilde_w3_vector(field2, k, z, 0.0)),
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
            w3t = cd.tilde_w3_vector(field2, k, z, t)
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
            coeff = cd.lemma_tilde_p3_coefficient(field2, k, z)
            w30 = cd.tilde_w3_vector(field2, k, z, 0.0)
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
    (same,) = cd.evolve_spectrum(field, state, 0.5, [0.0])
    np.testing.assert_allclose(same, state, atol=1e-14)
    # steady state (1, 0) is fixed
    steady = np.hstack([np.eye(9)[:, [4]], np.zeros((9, 1))]).astype(complex)
    for out in cd.evolve_spectrum(field, steady, 0.2, [0.0, 3.0, 40.0]):
        np.testing.assert_allclose(out, steady, atol=1e-14)


def test_evolve_spectrum_single_mode_matches_duhamel(field):
    K = 4
    coeffs = np.zeros((2 * K + 1, 2), dtype=complex)
    coeffs[K, 0] = 1.0
    coeffs[K + 2, 0] = 0.4 - 0.1j
    coeffs[K + 2, 1] = 0.2j
    z, ts = -0.8, [0.6, 2.5]
    m = cd.first_order_system(field, 2, z)
    for out, t in zip(cd.evolve_spectrum(field, coeffs, z, ts), ts):
        np.testing.assert_allclose(out[K + 2], duhamel_solve(m, coeffs[K + 2], t), atol=1e-12)


def test_state_normalization_enforced(field):
    K = 2
    coeffs = np.zeros((2 * K + 1, 2), dtype=complex)
    with pytest.raises(ValueError, match="not normalized"):
        cd.evolve_spectrum(field, coeffs, 0.0, [0.0])  # u_0 = 0


def test_parseval_against_physical_space(field):
    state = cd.gaussian_bump_state(32, order=1, v_amp=0.3)
    x = 2.0 * np.pi * np.arange(512) / 512
    u = cd.synthesize(state[:, 0], x)
    physical = float(np.mean(np.abs(u) ** 2))
    spectral = float(np.sum(np.abs(state[:, 0]) ** 2))
    assert physical == pytest.approx(spectral, abs=1e-6)


def test_mass_conservation_is_exact(field):
    state = cd.gaussian_bump_state(8, order=1, v_amp=0.4)
    (out,) = cd.evolve_spectrum(field, state, 1.3, [2.4])
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
def test_theorem_check_equals_per_cell_evolve(field2, order):
    # 2K = 6 modes x 60 times span more than one stacked chunk
    zs = np.array([-0.7, 0.0, 1.1])
    ts = np.linspace(0.0, 9.0, 60)
    state = lambda z: cd.gaussian_bump_state(3, order=order, v_amp=0.3)
    rep = cd.theorem_bound_check(field2, state, zs, ts, order=order)
    want = [[cd.deviation_norm_sq(cd.evolve_spectrum(field2, state(z), z, [t])[0]) for t in ts] for z in zs]
    assert np.array_equal(rep["norm_sq"], np.array(want))
