import warnings

import mpmath
import numpy as np
import pytest

from lyapdecay.jordan import jordan_chains, structure_from_chains
from lyapdecay.linalg import expm, hermitian_extremes
from lyapdecay.lyapunov import (
    CASE1,
    CASE2,
    CASE3,
    DecayEnvelope,
    build_form,
    build_p,
    c_m_constant,
    case2_weights,
    decay_constant,
    defect_one_constant,
    improved_defect1_envelope,
    lower_bound_lemma_gap,
    p_induced_norm,
    p_norm_sq,
    suggest_case3_weights,
    sup_poly_exp,
    verify_matrix_inequality,
    w_vector,
)
from lyapdecay.lyapunov import _p0_extremes
from lyapdecay.oracle import nilpotent2_propagator_sq

from conftest import (
    adjoint_from_chains,
    analytic_gap_structure,
    defect1_matrix,
    geometry_matrix,
    random_structured_matrix,
)


# ---------------------------------------------------------------- weights


def test_case2_weights_length_one():
    np.testing.assert_array_equal(case2_weights(1, 3.7), [1.0])


def test_case2_weights_recursion():
    np.testing.assert_allclose(case2_weights(3, 1.0), [1.0, 2.0, 5.0])
    np.testing.assert_allclose(case2_weights(2, 2.0), [1.0, 0.5])


def test_case2_weights_rejects_bad_tau():
    with pytest.raises(ValueError):
        case2_weights(2, 0.0)


# ---------------------------------------------------------------- w vectors


def test_w_vector_first_is_eigenvector(geo):
    st = jordan_chains(geo)
    b = st.blocks[0]
    for t in (0.0, 1.3, 7.0):
        np.testing.assert_allclose(w_vector(b, 1, t), b.chain[0])


def test_w_vector_at_zero_is_chain_vector(geo):
    b = jordan_chains(geo).blocks[0]
    np.testing.assert_allclose(w_vector(b, 2, 0.0), b.chain[1])


def test_w_vector_linear_combination(geo):
    b = jordan_chains(geo).blocks[0]
    np.testing.assert_allclose(w_vector(b, 2, 3.0), 3.0 * b.chain[0] + b.chain[1])
    with pytest.raises(IndexError):
        w_vector(b, 3, 0.0)


# ---------------------------------------------------------------- build_p


def test_build_p_geometry_closed_form(geo):
    form = build_form(jordan_chains(geo))
    for t in (0.0, 1.0, 3.0, 7.5):
        want = 0.5 * np.array(
            [[t * t + 2 * t + 2, t * t], [t * t, t * t - 2 * t + 2]]
        )
        np.testing.assert_allclose(build_p(form, t), want, atol=1e-12)
    np.testing.assert_allclose(build_p(form, 0.0), np.eye(2), atol=1e-13)


def test_build_p_orthonormal_case1_blocks_give_identity():
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(3, 3)))
    st = structure_from_chains([(1.0 + i, [q[:, i]]) for i in range(3)])
    form = build_form(st)
    for t in (0.0, 2.0, 9.0):
        np.testing.assert_allclose(build_p(form, t), np.eye(3), atol=1e-12)


def test_case3_p0_is_the_case2_form_with_its_ladder_reversed():
    # at t = 0 each w^m is the chain vector v(m-1), so a case-3 block with
    # weights beta^1..beta^l has the terms of the case-2 ladder beta^l..beta^1
    rng = np.random.default_rng(21)
    for length in (2, 3, 4):
        for _ in range(5):
            chain = rng.normal(size=(length, length + 1)) + 1j * rng.normal(size=(length, length + 1))
            other = rng.normal(size=length + 1) + 1j * rng.normal(size=length + 1)
            betas = rng.uniform(0.1, 10.0, size=length)
            p0 = {}
            # the chain at the gap is case 3; above the other block, case 2
            for case, lam, weights in ((CASE3, 0.5, betas), (CASE2, 1.5, betas[::-1])):
                st = structure_from_chains([(2.0 - lam + 0.3j, [other]), (lam, chain)])
                form = build_form(st, block_weights={1: weights})
                assert form.blocks[1].case == case
                p0[case] = build_p(form, 0.0)
            assert np.linalg.norm(p0[CASE3] - p0[CASE2]) <= 1e-15 * np.linalg.norm(p0[CASE2])


# ---------------------------------------------------------------- constants


def test_c_m_values():
    assert c_m_constant(1) == 0.5
    assert c_m_constant(2) == 6.0
    assert c_m_constant(3) == 405.0


def test_decay_constant_diagonal_identity():
    st = jordan_chains(np.diag([1.0, 2.0]).astype(complex))
    env = decay_constant(st, build_form(st))
    assert env.M == 1 and env.C_const == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("eps", [2.0 ** (-30), 0.5, 1.0, 2.0])
def test_decay_constant_defect1_family(eps):
    # the non-defective limit is exercised through an exact power-of-two
    # epsilon, for which the weights cancel exactly in floating point
    st = jordan_chains(defect1_matrix(eps))
    form = build_form(st, block_weights={0: np.array([1.0, eps * eps])})
    env = decay_constant(st, form)
    assert env.C_const == 12.0 * max(2.0, 1.0 + eps * eps) == defect_one_constant(1.0, eps * eps)
    assert env.M == 2 and env.mu == pytest.approx(1.0, abs=1e-9)


def test_decay_constant_monotone_weights_sum_to_m():
    ch, st = analytic_gap_structure()
    form = build_form(st, block_weights={0: np.array([4.0, 1.5]), 1: 2.0})
    env = decay_constant(st, form)
    ext = hermitian_extremes(build_p(form, 0.0))
    want = 2.0 * ext.lambda_max / ext.lambda_min * 6.0 * 2.0  # factor = M = 2
    assert env.C_const == pytest.approx(want, rel=1e-12)


def test_build_form_takes_the_gap_from_the_structure():
    # two defect-one blocks 1e-7 apart, both at the gap under the structure's tolerance
    e = np.eye(4)
    st = structure_from_chains([(1.0, [e[0], e[1]]), (1.0 + 1e-7, [e[2], e[3]])], gap_rel_tol=1e-6)
    form = build_form(st)
    assert [fb.case for fb in form.blocks] == [CASE3, CASE3]
    assert decay_constant(st, form).C_const == pytest.approx(24.0, rel=1e-12)


# ---------------------------------------------------------------- envelope


def test_envelope_eval_values():
    env = DecayEnvelope(24.0, 1.0, 2)
    assert env.bound(0.0) == pytest.approx(24.0)
    assert env.bound(1.0) == pytest.approx(24.0 * 2.0 * np.exp(-2.0))
    m1 = DecayEnvelope(3.0, 0.7, 1)
    assert m1.bound(2.0) == pytest.approx(3.0 * np.exp(-2.8))
    with pytest.raises(ValueError):
        env.bound(-1.0)


def test_envelope_eval_large_time_stable():
    env = DecayEnvelope(10.0, 0.5, 3)
    assert np.isfinite(env.log_bound(1e4))  # no overflow from t^4


def _random_envelopes(seed, n=40):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield DecayEnvelope(
            float(rng.uniform(1.0, 1e3)), float(rng.uniform(0.01, 3.0)), int(rng.integers(1, 5)),
            a=float(10.0 ** rng.uniform(-6.0, 6.0)),
        )


def test_envelope_log_bound_finite_to_huge_times():
    ts = np.concatenate([[0.0], np.geomspace(1e-12, 1e300, 400)])
    for env in _random_envelopes(11):
        vals = env.log_bound(ts)
        assert np.all(np.isfinite(vals)), env
        assert vals[-1] < 0.0


def test_envelope_linear_bound_matches_log_bound_where_normal():
    # past about t = 700 / (2 mu) exp(-2 mu t) is subnormal, though C (1 + a t^q) may lift the product
    ts = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 800), np.geomspace(1e6, 1e300, 200)])
    for env in _random_envelopes(12):
        lin = env.bound(ts)
        normal = lin >= np.finfo(float).tiny
        assert normal.sum() >= 100 and not normal[-1]
        np.testing.assert_allclose(np.log(lin[normal]), env.log_bound(ts)[normal], rtol=1e-13, atol=1e-13)
    env = DecayEnvelope(3.0, 0.25, 2)
    assert env.log_bound(ts).tolist() == DecayEnvelope(3.0, 0.25, 2, a=1.0).log_bound(ts).tolist()


def test_envelope_scaled_is_the_envelope_in_scaled_time():
    rng = np.random.default_rng(13)
    ts = np.concatenate([[0.0], np.geomspace(1e-4, 1e3, 200)])
    for env in _random_envelopes(14):
        s = float(10.0 ** rng.uniform(-2.0, 2.0))
        np.testing.assert_allclose(env.scaled(s).log_bound(ts), env.log_bound(s * ts), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(env.scaled(s).bound(ts), env.bound(s * ts), rtol=1e-12, atol=0.0)
        assert env.scaled(s).to_json().keys() == {"C_const", "mu", "M"}


# ------------------------------------------------- matrix inequality checks


def test_matrix_inequality_trivial():
    i2 = np.eye(2)
    assert verify_matrix_inequality(i2, i2, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_matrix_inequality_case2_blocks_random():
    rng = np.random.default_rng(12)
    for _ in range(10):
        c, _ = random_structured_matrix(rng)
        st = jordan_chains(c)
        form = build_form(st)
        for n, fb in enumerate(form.blocks):
            if fb.case != CASE2:
                continue
            p = np.zeros((st.dim, st.dim), dtype=complex)
            l = fb.block.length
            for j in range(l):
                v = fb.block.chain[l - 1 - j]
                p += fb.weights[j] * np.outer(v, v.conj())
            p = 0.5 * (p + p.conj().T)
            assert verify_matrix_inequality(c, p, st.mu) >= -1e-10 * np.linalg.norm(p)


def test_matrix_inequality_case1_rank_one(geo):
    rng = np.random.default_rng(3)
    c, _ = random_structured_matrix(rng, d=3)
    st = jordan_chains(c)
    for fb in build_form(st).blocks:
        if fb.case != CASE1:
            continue
        v = fb.block.chain[0]
        p = np.outer(v, v.conj())
        # globally positive semidefinite for an exact eigenvector...
        assert verify_matrix_inequality(c, p, st.mu) >= -1e-10
        # ...and in particular on the span of the chain
        q = c.conj().T @ p + p @ c - 2.0 * st.mu * p
        assert np.real(v.conj() @ (q @ v)) >= -1e-10


def test_matrix_inequality_rejects_nonhermitian():
    with pytest.raises(ValueError):
        verify_matrix_inequality(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0)


# ------------------------------------------------------------- gap lemma


def test_lemma_gap_single_term():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(1, 3)) + 1j * rng.normal(size=(1, 3))
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    theta, xi = 0.3, 2.0
    got = lower_bound_lemma_gap(v, [xi], theta, 5.0, x)
    want = theta * xi**2 * abs(np.vdot(v[0], x)) ** 2
    assert got == pytest.approx(want, rel=1e-12)


def test_lemma_gap_reproduces_power_polynomial_bound(geo):
    # with xi^k(t) = t^(m-k)/(m-k)! the lemma bounds the w-vector form by
    # the t = 0 forms; check against a direct evaluation
    b = jordan_chains(geo).blocks[0]
    m = 2
    for theta in (0.25, 0.5, 0.75):
        for t in (0.0, 0.8, 4.0):
            x = np.array([1.3, -0.4], dtype=complex)
            slack = lower_bound_lemma_gap(
                b.chain, [[0.0, 1.0], [1.0]], theta, t, x
            )  # xi^1 = t, xi^2 = 1
            w2 = w_vector(b, 2, t)
            lhs = abs(np.vdot(w2, x)) ** 2
            rhs = (1 - theta) * abs(np.vdot(b.chain[1], x)) ** 2 - (
                (m - 1) ** 2 / theta - 1.0
            ) * t**2 * abs(np.vdot(b.chain[0], x)) ** 2
            assert slack == pytest.approx(lhs - rhs, rel=1e-10, abs=1e-12)
            assert slack >= -1e-12


def test_lemma_gap_randomized_nonnegative():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 5))
        d = int(rng.integers(m, m + 3))
        v = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        theta = float(rng.choice(np.arange(0.1, 0.95, 0.1)))
        t = float(rng.uniform(0.0, 10.0))
        xis = [rng.normal(size=rng.integers(1, 4)) for _ in range(m - 1)]
        xis.append(float(abs(rng.normal()) + 0.1))
        worst = min(worst, lower_bound_lemma_gap(v, xis, theta, t, x))
    assert worst >= -1e-10


def test_lemma_gap_rejects_bad_theta():
    v = np.eye(2)
    with pytest.raises(ValueError):
        lower_bound_lemma_gap(v, [[1.0], 1.0], 1.5, 0.0, np.ones(2))


# --------------------------------------------------- refined defect-1 bound


def test_improved_defect1_bound_matches_family(geo):
    eps = 0.7
    st = jordan_chains(defect1_matrix(eps))
    form = build_form(st, block_weights={0: np.array([1.0, eps * eps])})
    refined = improved_defect1_envelope(form, 0)
    for t in (0.0, 1.0, 5.0):
        want = 2.0 * np.exp(-2.0 * t) * (1.0 + (eps * t) ** 2)
        assert refined.bound(t) == pytest.approx(want, rel=1e-12)


def test_improved_defect1_bound_small_eps_limit():
    eps = 1e-9
    st = jordan_chains(defect1_matrix(eps), cluster_rel_tol=1e-6)
    form = build_form(st, block_weights={0: np.array([1.0, eps * eps])})
    refined = improved_defect1_envelope(form, 0)
    t = np.linspace(0, 30, 31)
    np.testing.assert_allclose(refined.bound(t), 2.0 * np.exp(-2.0 * t), rtol=1e-12)


def test_improved_defect1_dominates_exact_propagator_and_is_tight():
    # exact squared norm / bound peaks at exactly 2/3 (at eps t = 1/sqrt 2)
    eps = 1.0
    st = jordan_chains(defect1_matrix(eps))
    form = build_form(st, block_weights={0: np.array([1.0, eps * eps])})
    refined = improved_defect1_envelope(form, 0)
    t = np.linspace(0.0, 12.0, 600)
    exact = nilpotent2_propagator_sq(1.0, eps, t)
    ratio = exact / refined.bound(t)
    assert np.max(ratio) <= 1.0 + 1e-12
    assert np.max(ratio) == pytest.approx(2.0 / 3.0, abs=1e-4)


def test_improved_defect1_requires_defect_one(geo):
    st = jordan_chains(np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(ValueError):
        improved_defect1_envelope(build_form(st), 0)


# ------------------------------------------------------------ invariants


def _sample_forms(rng, n=8):
    out = []
    for _ in range(n):
        c, _ = random_structured_matrix(rng)
        st = jordan_chains(c)
        out.append((c, st, build_form(st)))
    return out


def test_decay_identity_all_gap_structures():
    rng = np.random.default_rng(31)
    cases = [analytic_gap_structure()]
    for _ in range(4):
        c, _ = random_structured_matrix(rng, all_gap=True)
        cases.append((c, jordan_chains(c)))
    cases.append((geometry_matrix(), jordan_chains(geometry_matrix())))
    for c, st in cases:
        form = build_form(st)
        x0 = rng.normal(size=st.dim) + 1j * rng.normal(size=st.dim)
        ref = p_norm_sq(x0, build_p(form, 0.0))
        for t in np.arange(0.1, 10.0, 1.1):
            xt = expm(-c, t) @ x0
            val = p_norm_sq(xt, build_p(form, t))
            assert val == pytest.approx(np.exp(-2 * st.mu * t) * ref, rel=1e-9)


def test_decay_inequality_mixed_structures():
    rng = np.random.default_rng(37)
    for c, st, form in _sample_forms(rng, 6):
        x0 = rng.normal(size=st.dim) + 1j * rng.normal(size=st.dim)
        ref = p_norm_sq(x0, build_p(form, 0.0))
        for t in np.arange(0.0, 8.0, 0.8):
            xt = expm(-c, t) @ x0
            val = p_norm_sq(xt, build_p(form, t))
            assert val <= np.exp(-2 * st.mu * t) * ref * (1.0 + 1e-9)


def test_determinant_invariance():
    rng = np.random.default_rng(41)
    for c, st, form in _sample_forms(rng, 6):
        d0 = np.linalg.det(build_p(form, 0.0)).real
        for t in np.linspace(0.0, 10.0, 9):
            dt = np.linalg.det(build_p(form, t)).real
            assert dt / d0 == pytest.approx(1.0, rel=1e-9)


def product_form_p(form, t):
    """P(t) as the matrix product V e^{Jt} Sigma(t) B (V e^{Jt})^H.

    Valid for forms whose off-gap blocks all have length 1 (case-2 blocks are
    time-independent in :func:`build_p` but not in this product).
    """
    cols = []
    diag = []
    for fb in form.blocks:
        if fb.case == CASE2:
            raise ValueError("product form is not available for case-2 blocks")
        b = fb.block
        decay = np.exp(-2.0 * b.eigenvalue.real * t)
        phase = np.exp(np.conj(b.eigenvalue) * t)
        for m in range(1, b.length + 1):
            cols.append(phase * w_vector(b, m, t))
            diag.append(fb.weights[m - 1] * decay)
    ve = np.column_stack(cols)
    return ve @ np.diag(diag) @ ve.conj().T


def test_product_form_matches_direct_sum():
    # valid whenever every off-gap block has length one
    rng = np.random.default_rng(43)
    ch, st = analytic_gap_structure()
    form = build_form(st, block_weights={0: np.array([1.0, 2.5]), 1: 0.7})
    for t in (0.0, 1.0, 4.2):
        np.testing.assert_allclose(
            product_form_p(form, t), build_p(form, t), atol=1e-9
        )
    c, _ = random_structured_matrix(rng, all_gap=True)
    st2 = jordan_chains(c)
    form2 = build_form(st2)
    for t in (0.0, 2.7):
        np.testing.assert_allclose(product_form_p(form2, t), build_p(form2, t), atol=1e-9)


def test_positive_definiteness_along_time():
    rng = np.random.default_rng(47)
    for c, st, form in _sample_forms(rng, 5):
        for t in np.linspace(0.0, 10.0, 7):
            assert hermitian_extremes(build_p(form, t)).lambda_min > 0


def test_angle_constancy_all_gap():
    rng = np.random.default_rng(53)
    for _ in range(4):
        c, _ = random_structured_matrix(rng, all_gap=True)
        st = jordan_chains(c)
        form = build_form(st)
        x0 = rng.normal(size=st.dim) + 1j * rng.normal(size=st.dim)
        vals = []
        for t in np.linspace(0.0, 5.0, 6):
            xt = expm(-c, t) @ x0
            p = build_p(form, t)
            num = np.vdot(xt, p @ (c @ xt))
            den = np.sqrt(p_norm_sq(xt, p) * p_norm_sq(c @ xt, p))
            vals.append(num / den)
        assert np.max(np.abs(np.diff(vals))) < 1e-8


def test_never_tangential_case1_structures():
    rng = np.random.default_rng(59)
    for _ in range(4):
        d = int(rng.integers(2, 5))
        chains = []
        base = 0.4 + rng.uniform(0, 0.5)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, _ = np.linalg.qr(g)
        for i in range(d):
            chains.append((base + 0.4 * i + 0.3j * rng.normal(), [q[:, i] + 0.1 * q[:, (i + 1) % d]]))
        st = structure_from_chains(chains)
        c = adjoint_from_chains(st).conj().T
        form = build_form(st)
        p = build_p(form, 0.0)
        floor = st.mu / p_induced_norm(c, p)
        for _ in range(100):
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            num = np.real(np.vdot(x, p @ (c @ x)))
            den = np.sqrt(p_norm_sq(x, p) * p_norm_sq(c @ x, p))
            assert num / den >= floor - 1e-10


def test_theta_optimization_consistency():
    thetas = np.linspace(0.01, 0.99, 981)
    for m in range(1, 7):
        d_next = ((m**2) / thetas - 1.0) / (1.0 - thetas)
        other = 1.0 / (1.0 - thetas)
        best = np.min(np.maximum(d_next, other))
        assert best <= 4.0 * m * m - 1.0 + 1e-9


def test_suggest_case3_weights_matches_family_choice():
    eps = 0.3
    st = jordan_chains(defect1_matrix(eps))
    weights = suggest_case3_weights(st.blocks[0])
    np.testing.assert_allclose(weights, [1.0, eps * eps], rtol=1e-10)


def test_sup_poly_exp_closed_form_q2():
    for c in (0.2, 0.7, 1.0, 2.5):
        got = sup_poly_exp(2, c)
        if c >= 1.0:
            want = 1.0
        else:
            tstar = (1.0 + np.sqrt(1.0 - c * c)) / c
            want = max(1.0, (1.0 + tstar**2) * np.exp(-c * tstar))
        assert got == pytest.approx(want, rel=1e-9)


def _sup_poly_exp_mpmath(q: int, c: float) -> mpmath.mpf:
    """sup (1 + t^q) exp(-c t) at 40 digits: 1 or the value at a real
    positive root of c t^q - q t^(q-1) + c."""
    with mpmath.workdps(40):
        c = mpmath.mpf(c)
        poly = [c, c - 1] if q == 1 else [c, -q] + [0] * (q - 2) + [c]
        roots = mpmath.polyroots(poly, maxsteps=100, extraprec=40)
        ts = [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** -30 and mpmath.re(r) > 0]
        return max([mpmath.mpf(1)] + [(1 + t**q) * mpmath.exp(-c * t) for t in ts])


def test_sup_poly_exp_against_mpmath():
    # 480 cases, 354 of them with an interior maximum above the value 1 at t = 0
    interior = 0
    for q in range(1, 9):
        for c in np.geomspace(1e-3, 20.0, 60):
            want = _sup_poly_exp_mpmath(q, c)
            interior += want > 1
            assert abs(sup_poly_exp(q, c) - want) <= 1e-15 * want
    assert interior == 354
    # the defaults of convection_diffusion's fold constants
    assert sup_poly_exp(2, 2.0) == 1.0 and sup_poly_exp(4, 2.0) == 1.0



def test_p_is_exactly_hermitian_so_p0_extremes_skips_the_check():
    # _p0_extremes calls eigvalsh on build_p(form, 0) without
    # hermitian_extremes's symmetry check and second symmetrisation
    rng = np.random.default_rng(29)
    for _ in range(6):
        d = 6
        chains = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        # a length-2 block at the gap (case 3), length 3 off it (case 2), length 1 (case 1)
        st = structure_from_chains([(0.5, chains[:2]), (1.3 + 0.2j, chains[2:5]), (2.0, chains[5:])])
        weights = {n: rng.uniform(1e-3, 1e3, size=b.length) for n, b in enumerate(st.blocks)}
        form = build_form(st, block_weights=weights)
        assert [fb.case for fb in form.blocks] == [CASE3, CASE2, CASE1]
        for t in (0.0, 0.3, 1.0, 7.5, 1e3):
            p = build_p(form, t)
            assert np.array_equal(p, p.conj().T)  # equal up to the sign of zero imaginary parts
            assert (0.5 * (p + p.conj().T)).tobytes() == p.tobytes()
        ext = hermitian_extremes(build_p(form, 0.0))
        lo, hi = _p0_extremes(form)
        assert (lo.hex(), hi.hex()) == (ext.lambda_min.hex(), ext.lambda_max.hex())


def test_p0_extremes_rejects_an_overflowing_p0():
    st = structure_from_chains([(1.0, [[1.0, 0.0]]), (2.0, [[0.0, 1.0]])])
    # 0.5 (p + p^H) overflows: one error naming P(0), and no numpy warning
    with warnings.catch_warnings(), pytest.raises(ValueError, match="P\\(0\\) entries must be finite"):
        warnings.simplefilter("error")
        _p0_extremes(build_form(st, block_weights={0: [1e308]}))
