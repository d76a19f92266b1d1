import dataclasses

import numpy as np
import pytest

from lyapdecay import fokker_planck as fp
from lyapdecay.jordan import structure_from_chains
from lyapdecay.linalg import expm, hermitian_extremes
from lyapdecay.lyapunov import (
    DecayEnvelope,
    build_form,
    build_p,
    c_m_constant,
    decay_constant,
    sup_poly_exp,
)
from lyapdecay.oracle import check_dominance, deviation_sq, duhamel_solve, evolve, nilpotent2_propagator_sq


@pytest.fixture(scope="module")
def field():
    return fp.sin_drift()


# ----------------------------------------------------------------- basis


def _eval_h(basis, k, x):
    """h_k(x) = sqrt(a) H_k(y) e^{-y^2/2} / sqrt(2 pi k!), y = x sqrt(a)."""
    assert 0 <= k <= basis.K
    y = np.asarray(x, dtype=float) * np.sqrt(basis.a)
    return np.sqrt(basis.a / (2.0 * np.pi)) * basis.hermite_table(y)[k] * np.exp(-0.5 * y * y)


def _gram(basis):
    """Quadrature Gram matrix of h_0..h_K in the weighted inner product."""
    table = basis.hermite_table(np.sqrt(2.0) * basis.nodes)
    return (table * basis.weights) @ table.T / np.sqrt(np.pi)


def test_lowest_basis_function_is_steady_gaussian():
    a = 1.3
    basis = fp.HermiteBasis(6, a)
    x = np.linspace(-4, 4, 9)
    np.testing.assert_allclose(
        _eval_h(basis, 0, x), np.sqrt(a / (2 * np.pi)) * np.exp(-0.5 * a * x * x), rtol=1e-12
    )


def test_multiplication_recursion_identity():
    # x h_k = (sqrt(k+1) h_{k+1} + sqrt(k) h_{k-1}) / sqrt(a)
    a = 0.9
    basis = fp.HermiteBasis(12, a)
    x = np.linspace(-5, 5, 41)
    for k in (1, 4, 9):
        lhs = x * _eval_h(basis, k, x)
        rhs = (
            np.sqrt(k + 1) * _eval_h(basis, k + 1, x) + np.sqrt(k) * _eval_h(basis, k - 1, x)
        ) / np.sqrt(a)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_weighted_derivative_identity():
    # x d/dx h_k = -sqrt(k+1) (sqrt(k+2) h_{k+2} + sqrt(k+1) h_k), with the
    # derivative taken through the lowering recurrence dh_k = -sqrt((k+1) a) h_{k+1}
    a = 1.1
    basis = fp.HermiteBasis(12, a)
    x = np.linspace(-5, 5, 41)
    for k in (0, 3, 8):
        dh = -np.sqrt((k + 1) * a) * _eval_h(basis, k + 1, x)
        rhs = -np.sqrt(k + 1) * (
            np.sqrt(k + 2) * _eval_h(basis, k + 2, x) + np.sqrt(k + 1) * _eval_h(basis, k, x)
        )
        np.testing.assert_allclose(x * dh, rhs, atol=1e-10)


def test_quadrature_orthonormality_to_order_40():
    for a in (0.7, 1.3):
        basis = fp.HermiteBasis(40, a)
        gram = _gram(basis)
        assert np.max(np.abs(gram - np.eye(41))) < 1e-8


def test_hermite_table_and_project_equal_per_degree_recurrence():
    basis = fp.HermiteBasis(40, 1.3)
    ys = np.sqrt(2.0) * basis.nodes
    table = basis.hermite_table(ys)
    assert table.shape == (41, ys.size)

    def density(x):
        return np.exp(-0.5 * (x - 0.4) ** 2) / np.sqrt(2 * np.pi)

    fx = np.array([density(x) for x in basis.nodes * np.sqrt(2.0 / basis.a)])
    coeffs = basis.project(density)
    for k in range(41):
        # H_k(y)/sqrt(k!), the recurrence rerun up to degree k
        h_prev, h = np.ones_like(ys), ys.copy()
        for j in range(1, k):
            h, h_prev = (ys * h - np.sqrt(j) * h_prev) / np.sqrt(j + 1.0), h
        want = h_prev if k == 0 else h
        assert np.array_equal(table[k], want)
        assert coeffs[k] == np.sqrt(2.0 / basis.a) * np.sum(basis.total_weights * fx * want)
    assert np.array_equal(fp.HermiteBasis(0, 1.3).hermite_table(ys), np.ones((1, ys.size)))


# ----------------------------------------------------------------- systems


def test_gamma_value_and_range():
    m3 = fp.fp_mode_system(fp.sin_drift(), 3, 0.0)
    al = fp.sin_drift().alpha(0.0)
    a = fp.sin_drift().a(0.0)
    assert m3[2, 0] / (3 * a) == pytest.approx(np.sqrt(2.0 / 3.0) * al, rel=1e-12)


def test_flat_drift_gives_diagonal_systems():
    f = fp.drift_field(lambda z: 1.0, lambda z: 0.0, 1.0, 0.0)
    for k in (1, 2, 3, 6):
        m = fp.fp_mode_system(f, k, 0.0)
        np.testing.assert_allclose(m, np.diag(np.diag(m)), atol=1e-15)


def test_triple_eigenvalues_and_gap(field):
    for k in (3, 5, 9):
        z = 0.7
        m = fp.fp_mode_system(field, k, z) / (k * field.a(z))
        ev = np.sort(np.linalg.eigvals(m).real)
        np.testing.assert_allclose(ev, [(k - 2) / k, 1.0, 1.0], atol=1e-7)


# ----------------------------------------------------------------- envelopes


def test_envelope_k12_constant_and_exactness(field):
    f1 = fp.drift_field(lambda z: 1.0 + z, lambda z: 1.0, 1.0, 1.0)
    envm = fp.fp_envelope_k12(f1, 1, 0.0)  # alpha = 1
    assert envm.C_const == pytest.approx(24.0)
    f0 = fp.drift_field(lambda z: 1.0, lambda z: 0.0, 1.0, 0.0)
    envm0 = fp.fp_envelope_k12(f0, 2, 0.0)
    assert (envm0.C_const, envm0.mu, envm0.M) == (1.0, 2.0, 1)


def test_envelope_k3_flat_drift_is_the_exact_exponential():
    # alpha == 0: the triple is 3a diag(1/3, 1, 1), decaying at 2a in the squared norm
    f0 = fp.drift_field(lambda z: 1.3, lambda z: 0.0, 1.3, 0.0)
    envm = fp.fp_envelope_k3(f0, 0.0)
    assert (envm.C_const, envm.mu, envm.M) == (1.0, 1.3, 1)
    assert check_dominance(fp.fp_mode_system(f0, 3, 0.0), envm, np.linspace(0.0, 8.0, 33)).dominated


def test_envelope_k12_dominance(field):
    for k in (1, 2):
        for z in (0.2, 1.4, 4.0):
            envm = fp.fp_envelope_k12(field, k, z)
            m = fp.fp_mode_system(field, k, z)
            assert check_dominance(m, envm, np.linspace(0, 20, 50)).dominated


def test_envelope_k12_dominates_below_any_cut():
    # alpha = 1e-15 sat below the old cut 1e-14, whose C = 1, M = 1 envelope
    # the propagator beat by log 0.96 and 2.39 at alpha a t = 1 and 3.  There
    # t ~ 1e15, where the oracle resolves logs of ~2e15 only to ~0.4, so the
    # reference is the closed form with the common e^{-2 k a t} taken out
    for al in (1e-15, 1e-300):
        f = fp.drift_field(lambda z: 1.0, lambda z, al=al: al, 1.0, al)
        for k in (1, 2):
            envm = fp.fp_envelope_k12(f, k, 0.0)
            assert (envm.C_const, envm.mu, envm.M) == (24.0, float(k), 2)
            algebraic = dataclasses.replace(envm, mu=0.0)
            for s in (1.0, 3.0):
                t = s / al
                want = np.log(nilpotent2_propagator_sq(0.0, k * al, t))
                assert algebraic.log_bound(t) > want, (al, k, s)


def _k3_chain_route(al):
    """The k = 3 envelope from the time-dependent form on the off-gap chain,
    weights beta = (alpha^-2, 1): C = 2 kappa(P(0)) c_2 S sum_m beta^m /
    min_{k<=m} beta^k, where S = sup (1 + t^2) e^{-(4/3) t} absorbs the
    algebraic factor into the gap surplus 2/3.  P(0) of that form is the
    case-2 form's with the ladder reversed."""
    st = structure_from_chains(
        [(1.0 / 3.0, [[1.0, 0.0, 0.0]]), (1.0, [[0.0, al, 0.0], [np.sqrt(1.5) * al, 0.0, 1.0]])]
    )
    betas = np.array([al ** (-2.0), 1.0])
    ext = hermitian_extremes(build_p(build_form(st, block_weights={1: betas[::-1]}), 0.0))
    weight_sum = float(np.sum(betas / np.minimum.accumulate(betas)))
    c = 2.0 * ext.lambda_max / ext.lambda_min * c_m_constant(2) * sup_poly_exp(2, 4.0 / 3.0) * weight_sum
    return DecayEnvelope(c, st.mu, 1)


def test_envelopes_match_chain_route_on_default_grid(field):
    from lyapdecay.cli import _OPTIONS, _parse_grid

    for z in _parse_grid(_OPTIONS["model-fp"]["z_grid"].default):
        a, al = field.a(z), field.alpha(z)
        assert al != 0.0  # at z = pi/2 and 3 pi/2, alpha is rounding noise of ~1e-17
        st = structure_from_chains([(1.0, [[1.0, 0.0], [0.0, 1.0 / al]])])
        pair = decay_constant(st, build_form(st, block_weights={0: np.array([1.0, al * al])}))
        routes = [(fp.fp_envelope_k12(field, k, z), pair.scaled(k * a)) for k in (1, 2)]
        routes.append((fp.fp_envelope_k3(field, z), _k3_chain_route(al).scaled(3.0 * a)))
        for got, want in routes:
            assert (got.M, got.mu, got.a) == (want.M, want.mu, want.a), z
            assert got.C_const == pytest.approx(want.C_const, rel=1e-14, abs=0.0), z


def test_tilde_p3_display_matrix():
    np.testing.assert_allclose(
        fp.fp_tilde_p3(1.0).real,
        [[2.5, 0, np.sqrt(1.5)], [0, 1, 0], [np.sqrt(1.5), 0, 1]],
        rtol=1e-12,
    )


def fp_delta(alpha):
    """delta = 1 + (3/4) alpha^2; the nontrivial eigenvalues of the k = 3
    form at t = 0 are delta +- sqrt(delta^2 - 1) (the third is 1)."""
    return 1.0 + 0.75 * alpha * alpha


def test_tilde_p3_eigenvalue_ratio_bound():
    for alpha in np.linspace(0.01, 3.0, 31):
        ext = hermitian_extremes(fp.fp_tilde_p3(alpha))
        delta = fp_delta(alpha)
        assert ext.lambda_max / ext.lambda_min <= 4 * delta * delta - 1 + 1e-9
        np.testing.assert_allclose(
            sorted([delta - np.sqrt(delta**2 - 1), delta + np.sqrt(delta**2 - 1)]),
            [ext.lambda_min, ext.lambda_max],
            rtol=1e-10,
        )


def test_envelope_k3_constant_formula(field):
    for z in (0.4, 2.0):
        envm = fp.fp_envelope_k3(field, z)
        want = _k3_chain_route(field.alpha(z))
        assert envm.C_const == pytest.approx(want.C_const, rel=1e-14)
        assert envm.M == want.M == 1  # no algebraic factor
    # alpha^-2 overflows, the closed form stays finite
    tiny = fp.fp_envelope_k3(fp.drift_field(lambda z: 1.0, lambda z: 1e-300, 1.0, 1e-300), 0.0)
    assert (tiny.C_const, tiny.mu, tiny.M) == (24.0, 1.0, 1)


def test_envelope_k3_uniform_cap_value():
    # with sup|a'| = a0 the uniform cap is (6 + 21/4) * 12 * 2 = 270
    r = 1.0
    cap = (6.0 + 5.25 * r**4) * 12.0 * max(2.0, 1.0 + r * r)
    assert cap == pytest.approx(270.0)
    # a = 1 + sin/2 has a0 = 1/2 and sup|a'| = 1/2, so the cap ratio is 1
    f = fp.drift_field(lambda z: 1.0 + 0.5 * np.sin(z), lambda z: 0.5 * np.cos(z), 0.5, 0.5)
    for z in np.linspace(0, 2 * np.pi, 9):
        envm = fp.fp_envelope_k3(f, z)
        assert envm.C_const <= cap + 1e-9


def test_envelope_k3_dominance_and_collapse(field):
    for z in (0.3, 1.2, np.pi / 2 - 1e-5, 2.8):
        envm = fp.fp_envelope_k3(field, z)
        m = fp.fp_mode_system(field, 3, z)
        assert check_dominance(m, envm, np.linspace(0, 20, 50)).dominated


# ----------------------------------------------------------------- k >= 4


def test_k4_boundary_witnesses_exact():
    assert fp.fp_minor_f(4.0, 1.0, 1.0) == 0.125
    assert fp.fp_minor_g(4.0, 1.0, 1.0) == 0.125


def test_k4_flat_drift_diagonal():
    f = fp.drift_field(lambda z: 1.0, lambda z: 0.0, 1.0, 0.0)
    chk = fp.fp_k4_check(f, 4, 0.0)
    np.testing.assert_allclose(np.diag(chk["A"].real), [0.5, 1.5, 0.75], atol=1e-14)
    assert chk["positive_definite"]


def test_k4_sweep_positive_definite():
    for al in np.linspace(-5.0, 5.0, 21):
        f = fp.drift_field(lambda z: 1.0, lambda z, al=al: al, 1.0, abs(al))
        for k in (4, 5, 8, 16, 33, 64):
            chk = fp.fp_k4_check(f, k, 0.0)
            assert chk["det"] > 0 and chk["positive_definite"], (al, k)


def test_k4_envelope_dominance(field):
    for k in (4, 6, 12):
        for z in (0.5, 2.0):
            envm = fp.fp_k4_envelope(field, k, z)
            m = fp.fp_mode_system(field, k, z)
            assert check_dominance(m, envm, np.linspace(0, 15, 40)).dominated


def test_k4_requires_k_at_least_four(field):
    with pytest.raises(ValueError):
        fp.fp_k4_check(field, 3, 0.0)


# ----------------------------------------------------------------- global


def test_kuniform_constant_degenerate_value():
    f = fp.drift_field(lambda z: 0.8, lambda z: 0.0, 0.8, 0.0)
    assert fp.kuniform_constant(f)["C_global"] == pytest.approx(340.0)


def test_rate_folding_inequality(field):
    # (1 + a^2 t^2) e^{-2 a t} <= (1 + a0^2 t^2) e^{-2 a0 t} for a >= a0
    ts = np.linspace(0.0, 20.0, 200)
    a0 = field.a0
    for a in (a0, 0.9, 1.1, 1.3):
        lhs = (1 + a * a * ts * ts) * np.exp(-2 * a * ts)
        rhs = (1 + a0 * a0 * ts * ts) * np.exp(-2 * a0 * ts)
        assert np.all(lhs <= rhs * (1 + 1e-12))


def test_gap_structure_only_modes_1_and_3_attain_rate(field):
    z = 0.9
    a = field.a(z)
    # squared-norm decay rates per mode pair/triple
    assert fp.fp_envelope_k12(field, 1, z).mu == pytest.approx(a)
    assert fp.fp_envelope_k3(field, z).mu == pytest.approx(a)
    assert fp.fp_envelope_k12(field, 2, z).mu == pytest.approx(2 * a)


def test_g2_relaxes_to_steady_shift(field):
    st0 = fp.fp_gaussian_state(field, z=0.5, K=16)
    (out,) = evolve(fp.MODEL, field, st0, 0.5, [20.0])
    assert abs(out[1, 2] + field.alpha(0.5) / np.sqrt(2.0)) < 1e-12


def test_evolution_matches_duhamel(field):
    rng = np.random.default_rng(30)
    for _ in range(10):
        k = int(rng.integers(3, 9))
        z = float(rng.uniform(0, 2 * np.pi))
        m = fp.fp_mode_system(field, k, z)
        y0 = rng.normal(size=3)
        t = float(rng.uniform(0, 3))
        np.testing.assert_allclose(
            duhamel_solve(m, y0.astype(complex), t), expm(-m, t) @ y0, atol=1e-10
        )


def fp_semidiscrete_residual(field, state, z):
    """Max pointwise residual of the synthesized mode dynamics on 1601 points of [-8, 8].

    The time derivatives come from the mode ODEs; the spatial operator is
    applied to the synthesized series by fourth-order finite differences, so
    the two sides share no recurrence algebra.  Checks both the density
    equation df/dt = (f' + a x f)' and the sensitivity equation
    dg/dt = (g' + a x g)' + a_z (x f' + f); ``state`` holds f and g as rows.
    """
    a, az = field.a(z), field.da(z)
    f, g = np.asarray(state, dtype=float)
    K = f.size - 1
    x = np.linspace(-8.0, 8.0, 1601)
    h = x[1] - x[0]
    # rows h_k(x) = sqrt(a) H_k(y) e^{-y^2/2} / sqrt(2 pi k!), y = x sqrt(a):
    # coefficients @ h_table synthesizes a series
    y = x * np.sqrt(a)
    h_table = np.sqrt(a / (2.0 * np.pi)) * fp.HermiteBasis(K, a).hermite_table(y) * np.exp(-0.5 * y * y)
    f_vals = f @ h_table
    g_vals = g @ h_table

    # mode ODE time derivatives
    dtf_coeff = -a * np.arange(K + 1) * f
    dtg_coeff = np.zeros(K + 1)
    if K >= 1:
        dtg_coeff[1] = -a * g[1] - az * f[1]
    for k in range(2, K + 1):
        dtg_coeff[k] = -k * a * g[k] - az * (k * f[k] + np.sqrt(k * (k - 1.0)) * f[k - 2])
    dtf = dtf_coeff @ h_table
    dtg = dtg_coeff @ h_table

    def d1(u):
        out = np.full_like(u, np.nan)
        out[2:-2] = (u[:-4] - 8 * u[1:-3] + 8 * u[3:-1] - u[4:]) / (12 * h)
        return out

    def d2(u):
        out = np.full_like(u, np.nan)
        out[2:-2] = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]) / (12 * h * h)
        return out

    interior = slice(2, -2)
    lf = d2(f_vals) + a * (f_vals + x * d1(f_vals))
    lg = d2(g_vals) + a * (g_vals + x * d1(g_vals))
    res_f = np.nanmax(np.abs((dtf - lf)[interior]))
    res_g = np.nanmax(np.abs((dtg - lg - az * (x * d1(f_vals) + f_vals))[interior]))
    return float(max(res_f, res_g))


def test_semidiscrete_residual_small(field):
    fs = np.zeros(13)
    gs = np.zeros(13)
    fs[0], fs[1], fs[3], fs[5] = 1.0, 0.4, 0.2, 0.05
    gs[1], gs[2], gs[4] = 0.3, -0.2, 0.1
    assert fp_semidiscrete_residual(field, np.array([fs, gs]), 0.5) < 1e-6


def test_theorem_check_small(field):
    rep = fp.fp_theorem_check(
        field,
        lambda z: fp.fp_gaussian_state(field, z=z, K=16),
        np.linspace(0.0, 2 * np.pi, 7),
        np.linspace(0.0, 8.0, 17),
    )
    assert rep["passed"] and rep["max_ratio"] < 1.0
    assert rep["tail_fraction"] < 1e-6


def test_theorem_check_equals_per_cell_evolve(field):
    # K = 8: the 2x2 pairs k = 1, 2 and six 3x3 triples, 40 times each
    zs = np.array([0.4, 2.5, 5.0])
    ts = np.linspace(0.0, 10.0, 40)
    state = lambda z: fp.fp_gaussian_state(field, z=z, K=8)
    rep = fp.fp_theorem_check(field, state, zs, ts)
    want = [[deviation_sq(fp.MODEL, field, evolve(fp.MODEL, field, state(z), z, [t])[0], z) for t in ts] for z in zs]
    assert np.array_equal(rep["norm_sq"], np.array(want))


def test_state_normalization_enforced(field):
    with pytest.raises(ValueError, match="not normalized"):
        evolve(fp.MODEL, field, np.zeros((2, 5)), 0.5, [0.0])
    gs = np.zeros(5)
    gs[0] = 0.1
    f = np.zeros(5)
    f[0] = 1.0
    with pytest.raises(ValueError, match="not normalized"):
        evolve(fp.MODEL, field, np.array([f, gs]), 0.5, [0.0])


# ----------------------------------------------------------------- diffusion


def test_diffusion_variant_eigenvalues_exact():
    df = fp.DiffusionField(lambda z: 1.0 + 0.25 * np.sin(z), lambda z: 0.25 * np.cos(z), 0.75)
    for k in (2, 3, 7):
        a_mat, _ = fp.fp_diffusion_variant(k, 0.6, df)
        np.testing.assert_allclose(sorted(np.linalg.eigvals(a_mat).real), [k - 2, k], atol=1e-12)


def test_diffusion_variant_steady_sensitivity():
    df = fp.DiffusionField(lambda z: 1.0 + 0.25 * np.sin(z), lambda z: 0.25 * np.cos(z), 0.75)
    z = 0.6
    a_mat, _ = fp.fp_diffusion_variant(2, z, df)
    # v_2 relaxes towards +(d'/d)/sqrt(2) times the conserved u_0
    y = np.array([1.0, 0.0], dtype=complex)
    yt = expm(-a_mat, 30.0) @ y
    want = df.dd(z) / df.d(z) / np.sqrt(2.0)
    assert yt[0] == pytest.approx(1.0, abs=1e-13)
    assert yt[1].real == pytest.approx(want, abs=1e-12)


def test_diffusion_variant_envelopes_bound_their_pairs():
    # u_0 is conserved at k = 2, so no decaying envelope bounds that pair
    df = fp.DiffusionField(lambda z: 1.0 + 0.25 * np.sin(z), lambda z: 0.25 * np.cos(z), 0.75)
    for z in (0.0, 0.6, 1.2):
        envelopes = {k: fp.fp_diffusion_variant(k, z, df) for k in range(2, 9)}
        assert [k for k, (_, envm) in envelopes.items() if envm is None] == [2]
        for a_mat, envm in envelopes.values():
            if envm is not None:
                assert check_dominance(a_mat, envm, np.linspace(0.0, 5.0, 21)).dominated


def test_diffusion_variant_envelope_dominance():
    df = fp.DiffusionField(lambda z: 1.0 + 0.25 * np.sin(z), lambda z: 0.25 * np.cos(z), 0.75)
    for k in (3, 4, 8):
        for z in (0.0, 1.2):
            a_mat, envm = fp.fp_diffusion_variant(k, z, df)
            assert check_dominance(a_mat, envm, np.linspace(0, 10, 30)).dominated
            # the reported global rate e^{-t} is dominated a fortiori
            slow = lambda t, c=envm.C_const: c * np.exp(-t)
            assert check_dominance(a_mat, slow, np.linspace(0.01, 10, 30)).dominated


def _diffusion_chain_route(k, coupling):
    """The pair envelope through the two eigenvector chains of A^H with unit weights."""
    st = structure_from_chains([(k - 2.0, [[1.0, 0.0]]), (float(k), [[np.conj(coupling) / 2.0, 1.0]])])
    return decay_constant(st, build_form(st))


def test_diffusion_variant_equals_chain_route_bit_for_bit():
    # the CLI's field, k = 3..39 on 61 z values in [-7, 7]: both signs of the
    # coupling, and the CLI's pairs k = 3..8
    df = fp.DiffusionField(lambda z: 1.0 + 0.25 * np.sin(z), lambda z: 0.25 * np.cos(z), 0.75)
    for z in np.linspace(-7.0, 7.0, 61):
        for k in range(3, 40):
            a_mat, got = fp.fp_diffusion_variant(k, z, df)
            want = _diffusion_chain_route(k, a_mat[1, 0].real)
            assert (got.mu, got.M, got.a) == (want.mu, want.M, want.a), (k, z)
            assert np.array([got.C_const]).view(np.uint64) == np.array([want.C_const]).view(np.uint64), (k, z)
