import numpy as np
import pytest

from lyapdecay import fokker_planck as fp
from lyapdecay.linalg import expm, hermitian_extremes
from lyapdecay.oracle import check_dominance, duhamel_solve


@pytest.fixture(scope="module")
def field():
    return fp.sin_drift()


# ----------------------------------------------------------------- basis


def test_lowest_basis_function_is_steady_gaussian():
    a = 1.3
    basis = fp.HermiteBasis(6, a)
    x = np.linspace(-4, 4, 9)
    np.testing.assert_allclose(
        basis.eval_h(0, x), np.sqrt(a / (2 * np.pi)) * np.exp(-0.5 * a * x * x), rtol=1e-12
    )


def test_multiplication_recursion_identity():
    # x h_k = (sqrt(k+1) h_{k+1} + sqrt(k) h_{k-1}) / sqrt(a)
    a = 0.9
    basis = fp.HermiteBasis(12, a)
    x = np.linspace(-5, 5, 41)
    for k in (1, 4, 9):
        lhs = x * basis.eval_h(k, x)
        rhs = (
            np.sqrt(k + 1) * basis.eval_h(k + 1, x) + np.sqrt(k) * basis.eval_h(k - 1, x)
        ) / np.sqrt(a)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_weighted_derivative_identity():
    # x d/dx h_k = -sqrt(k+1) (sqrt(k+2) h_{k+2} + sqrt(k+1) h_k), with the
    # derivative taken through the lowering recurrence dh_k = -sqrt((k+1) a) h_{k+1}
    a = 1.1
    basis = fp.HermiteBasis(12, a)
    x = np.linspace(-5, 5, 41)
    for k in (0, 3, 8):
        dh = -np.sqrt((k + 1) * a) * basis.eval_h(k + 1, x)
        rhs = -np.sqrt(k + 1) * (
            np.sqrt(k + 2) * basis.eval_h(k + 2, x) + np.sqrt(k + 1) * basis.eval_h(k, x)
        )
        np.testing.assert_allclose(x * dh, rhs, atol=1e-10)


def test_quadrature_orthonormality_to_order_40():
    for a in (0.7, 1.3):
        basis = fp.HermiteBasis(40, a)
        gram = basis.gram()
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
    assert envm.env.C_const == pytest.approx(24.0)
    f0 = fp.drift_field(lambda z: 1.0, lambda z: 0.0, 1.0, 0.0)
    assert fp.fp_envelope_k12(f0, 2, 0.0).exact


def test_envelope_k12_dominance(field):
    for k in (1, 2):
        for z in (0.2, 1.4, 4.0):
            envm = fp.fp_envelope_k12(field, k, z)
            m = fp.fp_mode_system(field, k, z)
            assert check_dominance(m, envm, np.linspace(0, 20, 50)).dominated


def test_tilde_p3_display_matrix():
    np.testing.assert_allclose(
        fp.fp_tilde_p3(1.0).real,
        [[2.5, 0, np.sqrt(1.5)], [0, 1, 0], [np.sqrt(1.5), 0, 1]],
        rtol=1e-12,
    )


def test_tilde_p3_eigenvalue_ratio_bound():
    for alpha in np.linspace(0.01, 3.0, 31):
        ext = hermitian_extremes(fp.fp_tilde_p3(alpha))
        delta = fp.fp_delta(alpha)
        assert ext.lambda_max / ext.lambda_min <= 4 * delta * delta - 1 + 1e-9
        np.testing.assert_allclose(
            sorted([delta - np.sqrt(delta**2 - 1), delta + np.sqrt(delta**2 - 1)]),
            [ext.lambda_min, ext.lambda_max],
            rtol=1e-10,
        )


def test_envelope_k3_constant_formula(field):
    for z in (0.4, 2.0):
        envm = fp.fp_envelope_k3(field, z)
        al = field.alpha(z)
        ext = hermitian_extremes(fp.fp_tilde_p3(al))
        want = ext.lambda_max / ext.lambda_min * 12.0 * max(2.0, 1.0 + al * al)
        assert envm.env.C_const == pytest.approx(want, rel=1e-10)
        assert envm.env.M == 1  # no algebraic factor


def test_envelope_k3_uniform_cap_value():
    # with sup|a'| = a0 the uniform cap is (6 + 21/4) * 12 * 2 = 270
    r = 1.0
    cap = (6.0 + 5.25 * r**4) * 12.0 * max(2.0, 1.0 + r * r)
    assert cap == pytest.approx(270.0)
    # a = 1 + sin/2 has a0 = 1/2 and sup|a'| = 1/2, so the cap ratio is 1
    f = fp.drift_field(lambda z: 1.0 + 0.5 * np.sin(z), lambda z: 0.5 * np.cos(z), 0.5, 0.5)
    for z in np.linspace(0, 2 * np.pi, 9):
        envm = fp.fp_envelope_k3(f, z)
        c = envm.env.C_const if not envm.exact else 1.0
        assert c <= cap + 1e-9


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
    assert fp.fp_envelope_k12(field, 1, z).env.mu * fp.fp_envelope_k12(field, 1, z).tscale == pytest.approx(a)
    assert fp.fp_envelope_k3(field, z).env.mu * fp.fp_envelope_k3(field, z).tscale == pytest.approx(a)
    assert fp.fp_envelope_k12(field, 2, z).env.mu * fp.fp_envelope_k12(field, 2, z).tscale == pytest.approx(2 * a)
    for k in (4, 7):
        envm = fp.fp_k4_envelope(field, k, z)
        assert envm.meta["sharp_rate"] >= 2 * a - 1e-12


def test_g2_relaxes_to_steady_shift(field):
    st0 = fp.fp_gaussian_state(field, z=0.5, K=16)
    (out,) = fp.fp_evolve(field, st0, 0.5, [20.0])
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


def test_semidiscrete_residual_small(field):
    fs = np.zeros(13)
    gs = np.zeros(13)
    fs[0], fs[1], fs[3], fs[5] = 1.0, 0.4, 0.2, 0.05
    gs[1], gs[2], gs[4] = 0.3, -0.2, 0.1
    assert fp.fp_semidiscrete_residual(field, np.array([fs, gs]), 0.5) < 1e-6


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
    want = [[fp.fp_deviation_norm_sq(field, fp.fp_evolve(field, state(z), z, [t])[0], z) for t in ts] for z in zs]
    assert np.array_equal(rep["norm_sq"], np.array(want))


def test_state_normalization_enforced(field):
    with pytest.raises(ValueError, match="not normalized"):
        fp.fp_evolve(field, np.zeros((2, 5)), 0.5, [0.0])
    gs = np.zeros(5)
    gs[0] = 0.1
    f = np.zeros(5)
    f[0] = 1.0
    with pytest.raises(ValueError, match="not normalized"):
        fp.fp_evolve(field, np.array([f, gs]), 0.5, [0.0])


# ----------------------------------------------------------------- diffusion


def test_diffusion_variant_eigenvalues_exact():
    df = fp.DiffusionField(lambda z: 1.0 + 0.25 * np.sin(z), lambda z: 0.25 * np.cos(z), 0.75)
    for k in (2, 3, 7):
        a_mat, _ = fp.fp_diffusion_variant(k, 0.6, df)
        np.testing.assert_allclose(sorted(np.linalg.eigvals(a_mat).real), [k - 2, k], atol=1e-12)


def test_diffusion_variant_steady_sensitivity():
    df = fp.DiffusionField(lambda z: 1.0 + 0.25 * np.sin(z), lambda z: 0.25 * np.cos(z), 0.75)
    z = 0.6
    a_mat, envm = fp.fp_diffusion_variant(2, z, df)
    # v_2 relaxes towards +(d'/d)/sqrt(2) times the conserved u_0
    y = np.array([1.0, 0.0], dtype=complex)
    yt = expm(-a_mat, 30.0) @ y
    want = df.dd(z) / df.d(z) / np.sqrt(2.0)
    assert yt[0] == pytest.approx(1.0, abs=1e-13)
    assert yt[1].real == pytest.approx(want, abs=1e-12)
    assert envm.meta["v_steady"] == pytest.approx(want)


def test_diffusion_variant_envelope_dominance():
    df = fp.DiffusionField(lambda z: 1.0 + 0.25 * np.sin(z), lambda z: 0.25 * np.cos(z), 0.75)
    for k in (3, 4, 8):
        for z in (0.0, 1.2):
            a_mat, envm = fp.fp_diffusion_variant(k, z, df)
            assert check_dominance(a_mat, envm, np.linspace(0, 10, 30)).dominated
            # the reported global rate e^{-t} is dominated a fortiori
            slow = lambda t, c=envm.env.C_const: c * np.exp(-t)
            assert check_dominance(a_mat, slow, np.linspace(0.01, 10, 30)).dominated
