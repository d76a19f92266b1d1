"""Acceptance suite: one test per release criterion, each printing a verdict.

Every criterion is pinned at its stated tolerance; run with ``pytest -v
tests/test_acceptance.py`` (add ``-s`` to see the PASS lines as they print).
"""

import numpy as np
import pytest

from lyapdecay import convection_diffusion as cd
from lyapdecay import fokker_planck as fp
from lyapdecay import goldstein_taylor as gt
from lyapdecay.family import (
    exponential_family,
    family_matrix,
    sup_f1,
    uniform_envelope_exponential,
)
from lyapdecay.jordan import jordan_chains, structure_from_chains
from lyapdecay.linalg import expm, spectral_norm
from lyapdecay.lyapunov import (
    build_form,
    build_p,
    c_m_constant,
    decay_constant,
    lower_bound_lemma_gap,
    p_norm_sq,
)
from lyapdecay.oracle import (
    check_dominance,
    duhamel_solve,
    nilpotent2_propagator_sq,
    sharpness_order,
)

from conftest import defect1_matrix, geometry_matrix, random_structured_matrix


def _passed(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_lyapunov_decay_identity():
    c = geometry_matrix()
    form = build_form(jordan_chains(c))
    x0 = np.array([6.0, 6.0], dtype=complex)
    for t in np.arange(0.0, 5.5, 0.5):
        xt = expm(-c, t) @ x0
        val = p_norm_sq(xt, build_p(form, t))
        assert val == pytest.approx(72.0 * np.exp(-t), rel=1e-9)
    _passed(1, "|x(t)|^2 in the adapted norm equals 72 e^{-t} (rel 1e-9)")


def test_criterion_02_euclidean_non_strict_decay():
    c = geometry_matrix()
    x0 = np.array([6.0, 6.0], dtype=complex)
    # closed form from the nilpotent split
    closed = lambda t: np.exp(-t / 2.0) * np.array([6.0 - 6.0 * t, 6.0 + 6.0 * t])
    for t in (0.0, 0.5, 1.0, 2.5):
        np.testing.assert_allclose(expm(-c, t) @ x0, closed(t), atol=1e-11)
    x1 = expm(-c, 1.0) @ x0
    assert abs(x1[0]) <= 1e-10
    # d/dt |x|^2 = -2 x_1^2: finite differences against the closed form
    for t in (0.3, 1.0, 2.0):
        h = 1e-6
        num = (np.sum(np.abs(closed(t + h)) ** 2) - np.sum(np.abs(closed(t - h)) ** 2)) / (2 * h)
        assert num == pytest.approx(-2.0 * closed(t)[0] ** 2, abs=1e-4)
    _passed(2, "Euclidean decay stalls at t = 1 (|x_1(1)| <= 1e-10)")


def test_criterion_03_propagator_closed_form():
    for eps in (0.1, 1.0, 10.0):
        c = defect1_matrix(eps)
        for t in np.linspace(0.0, 20.0, 40):
            got = spectral_norm(expm(-c, t)) ** 2
            want = nilpotent2_propagator_sq(1.0, eps, t)
            assert got == pytest.approx(want, rel=1e-8)
    _passed(3, "defect-one propagator norm matches the closed form (rel 1e-8)")


def test_criterion_04_constant_formulas():
    assert c_m_constant(1) == 0.5
    assert c_m_constant(2) == 6.0
    assert c_m_constant(3) == 405.0
    # the family constant, exact in floating point, via analytic chains;
    # eps = 2^-30 is the non-defective-limit witness whose formula value
    # coincides with the eps = 0 limit exactly in doubles
    for eps in (2.0 ** (-30), 0.5, 1.0, 2.0):
        st = structure_from_chains(
            [(1.0, [np.array([0.0, 1.0], dtype=complex), np.array([1.0 / eps, 0.0], dtype=complex)])]
        )
        form = build_form(st, block_weights={0: np.array([1.0, eps * eps])})
        env = decay_constant(st, form)
        assert env.C_const == 12.0 * max(2.0, 1.0 + eps * eps)
    assert 12.0 * max(2.0, 1.0 + (2.0**-30) ** 2) == 24.0 == 12.0 * max(2.0, 1.0 + 0.0**2)
    _passed(4, "c_1 = 1/2, c_2 = 6, c_3 = 405, family constant exact incl. eps -> 0")


def _paper_fixture_envelopes():
    fixtures = []
    c = geometry_matrix()
    fixtures.append((c, decay_constant(jordan_chains(c), build_form(jordan_chains(c)))))
    for eps in (0.1, 1.0, 10.0):
        ce = defect1_matrix(eps)
        st = jordan_chains(ce)
        form = build_form(st, block_weights={0: np.array([1.0, eps * eps])})
        fixtures.append((ce, decay_constant(st, form)))
    fcd = cd.tanh_field()
    for k in (1, 2):
        fixtures.append((cd.first_order_system(fcd, k, 0.5), cd.first_order_envelope(fcd, k, 0.5)))
    fcd2 = cd.trig_field()
    fixtures.append((cd.second_order_system(fcd2, 1, 0.8), cd.second_order_envelope(fcd2, 1, 0.8)))
    fgt = gt.tanh_relaxation()
    for k in (1, 2):
        fixtures.append((gt.gt_mode_matrix(fgt, k, 0.5), gt.gt_mode_envelope(fgt, k, 0.5)))
    ffp = fp.sin_drift()
    fixtures.append((fp.fp_mode_system(ffp, 1, 0.9), fp.fp_envelope_k12(ffp, 1, 0.9)))
    fixtures.append((fp.fp_mode_system(ffp, 3, 0.9), fp.fp_envelope_k3(ffp, 0.9)))
    fixtures.append((fp.fp_mode_system(ffp, 5, 0.9), fp.fp_k4_envelope(ffp, 5, 0.9)))
    return fixtures


def test_criterion_05_envelope_dominance_suite():
    times = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 199)])
    rng = np.random.default_rng(2026)
    failures = []
    for i in range(50):
        c, _ = random_structured_matrix(rng)
        st = jordan_chains(c)
        env = decay_constant(st, build_form(st))
        rep = check_dominance(c, env, times)
        if not rep.dominated:
            failures.append((i, rep.max_ratio))
    for c, env in _paper_fixture_envelopes():
        rep = check_dominance(c, env, times)
        if not rep.dominated:
            failures.append(("fixture", rep.max_ratio))
    assert failures == []
    _passed(5, "50 random structured matrices plus all fixtures dominated on [0, 50]")


def test_criterion_06_sharpness():
    m_geo = sharpness_order(geometry_matrix(), 0.5)
    assert 0.9 <= m_geo <= 1.1
    al = 1.0
    c3 = 3.0 * np.array(
        [[1.0 / 3.0, 0, 0], [0, 1, 0], [np.sqrt(2.0 / 3.0) * al, al, 1]], dtype=complex
    )
    m_fp = sharpness_order(c3, 1.0)
    assert -0.1 <= m_fp <= 0.1
    _passed(6, f"algebraic orders {m_geo:.3f} (gap defect) and {m_fp:.3f} (defect off gap)")


def test_criterion_07_gap_lemma_property_suite():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 5))
        d = int(rng.integers(m, m + 3))
        v = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        theta = float(rng.choice(np.arange(0.1, 0.95, 0.1)))
        t = float(rng.uniform(0.0, 10.0))
        xis = [rng.normal(size=int(rng.integers(1, 4))) for _ in range(m - 1)]
        xis.append(float(abs(rng.normal()) + 0.05))
        worst = min(worst, lower_bound_lemma_gap(v, xis, theta, t, x))
    assert worst >= -1e-10
    _passed(7, f"200 randomized lower-bound instantiations, min slack {worst:.2e}")


def test_criterion_08_det_invariance_and_angle_constancy():
    rng = np.random.default_rng(8)
    forms = [build_form(jordan_chains(geometry_matrix()))]
    all_gap_cases = [(geometry_matrix(), forms[0])]
    for eps in (0.5, 2.0):
        st = jordan_chains(defect1_matrix(eps))
        forms.append(build_form(st, block_weights={0: np.array([1.0, eps * eps])}))
        all_gap_cases.append((defect1_matrix(eps), forms[-1]))
    for _ in range(6):
        c, _ = random_structured_matrix(rng)
        forms.append(build_form(jordan_chains(c)))
    for _ in range(3):
        c, _ = random_structured_matrix(rng, all_gap=True)
        f = build_form(jordan_chains(c))
        forms.append(f)
        all_gap_cases.append((c, f))
    for form in forms:
        d0 = np.linalg.det(build_p(form, 0.0)).real
        for t in np.linspace(0.0, 10.0, 11):
            assert np.linalg.det(build_p(form, t)).real / d0 == pytest.approx(1.0, rel=1e-9)
    for c, form in all_gap_cases:
        x0 = rng.normal(size=form.dim) + 1j * rng.normal(size=form.dim)
        angles = []
        for t in np.linspace(0.0, 6.0, 7):
            xt = expm(-c, t) @ x0
            p = build_p(form, t)
            num = np.vdot(xt, p @ (c @ xt))
            angles.append(num / np.sqrt(p_norm_sq(xt, p) * p_norm_sq(c @ xt, p)))
        assert np.max(np.abs(np.diff(angles))) < 1e-8
    _passed(8, "det P(t) invariant (rel 1e-9); adapted-norm angle constant (1e-8)")


def test_criterion_09_family_suprema():
    # closed-form supremum vs zoomed grid maximization
    for alpha in (0.1, 0.7, 3.3, 10.0):
        for t in (0.1, 1.0, 4.0, 10.0):
            lo, hi = 0.0, 10.0
            for _ in range(6):
                z = np.linspace(lo, hi, 2001)
                f1 = (1 + 4 * alpha**2 * z**2 * t**2) * np.exp(-2 * alpha * z**2 * t)
                i = int(np.argmax(f1))
                w = (hi - lo) / 200.0
                lo, hi = max(0.0, z[i] - w), z[i] + w
            grid_max = float(np.max(f1))
            assert sup_f1(alpha, t) == pytest.approx(grid_max, abs=1e-6, rel=1e-6)
    # exponential family: purely exponential envelope dominates grid propagators
    alpha, beta, mu0 = 1.0, 1.0, 1.0
    fam = exponential_family(alpha, beta, mu0, z_grid=np.linspace(-6.0, 2.0, 33))
    ts = np.linspace(0.0, 10.0, 21)
    for z in fam.z_grid[::4]:
        prop = np.array(
            [spectral_norm(expm(-family_matrix(fam, z), t)) ** 2 for t in ts]
        )
        env = np.array([uniform_envelope_exponential(alpha, beta, mu0, t) for t in ts])
        assert np.all(prop <= env * (1 + 1e-9))
    _passed(9, "closed-form suprema match grid maximization; exponential family exact")


def test_criterion_10_convection_diffusion_theorems():
    field = cd.tanh_field()
    rep1 = cd.theorem_bound_check(
        field,
        lambda z: cd.gaussian_bump_state(32, order=1, v_amp=0.3),
        np.linspace(-3.0, 3.0, 13),
        np.linspace(0.0, 10.0, 50),
        order=1,
    )
    assert rep1["passed"], rep1["max_ratio"]
    field2 = cd.trig_field()
    z_grid = np.sort(np.append(np.linspace(-3.0, 3.0, 13), 1e-6))
    lam, dlam, d2lam = cd.lambda_k(field2, 1, 1e-6)
    assert abs(dlam) < 1e-5 and abs(d2lam) > 0.5  # defect-collapse witness
    rep2 = cd.theorem_bound_check(
        field2,
        lambda z: cd.gaussian_bump_state(32, order=2, v_amp=0.3),
        z_grid,
        np.linspace(0.0, 10.0, 50),
        order=2,
    )
    assert rep2["passed"], rep2["max_ratio"]
    _passed(
        10,
        f"first/second order global bounds hold (max ratios "
        f"{rep1['max_ratio']:.3g}, {rep2['max_ratio']:.3g})",
    )


def test_criterion_11_relaxation_theorem():
    field = gt.tanh_relaxation()
    uniform = gt.gt_uniform_constant(field, k_max=64, n_sigma=13, n_dsigma=9)
    rep = gt.gt_theorem_check(
        field,
        lambda z: gt.gt_bump_state(32),
        np.linspace(-3.0, 3.0, 13),
        np.linspace(0.0, 20.0, 50),
        uniform=uniform,
    )
    assert rep["passed"], rep["max_ratio"]
    worst_gap = 0.0
    for s in np.linspace(field.sigma0, field.sigma1, 13):
        for sz in np.linspace(-field.L, field.L, 9):
            worst_gap = max(
                worst_gap, spectral_norm(gt.gt_p_from_params(s, sz, 64) - 2.0 * np.eye(4))
            )
    assert worst_gap < 0.15
    _passed(
        11,
        f"relaxation bound holds (ratio {rep['max_ratio']:.3g}); "
        f"||P_64 - 2I|| = {worst_gap:.3f} < 0.15",
    )


def test_criterion_12_fokker_planck_theorem():
    field = fp.sin_drift()
    rep = fp.fp_theorem_check(
        field,
        lambda z: fp.fp_gaussian_state(field, z=z, K=40),
        np.linspace(0.0, 2.0 * np.pi, 13),
        np.linspace(0.0, 12.0, 50),
    )
    assert rep["passed"], rep["max_ratio"]
    degenerate = fp.drift_field(lambda z: 0.8, lambda z: 0.0, 0.8, 0.0)
    assert fp.kuniform_constant(degenerate)["C_global"] == pytest.approx(340.0)
    assert fp.fp_minor_f(4.0, 1.0, 1.0) == 0.125
    assert fp.fp_minor_g(4.0, 1.0, 1.0) == 0.125
    for al in np.linspace(-5.0, 5.0, 21):
        f_al = fp.drift_field(lambda z: 1.0, lambda z, al=al: al, 1.0, abs(al))
        for k in range(4, 65, 4):
            assert fp.fp_k4_check(f_al, k, 0.0)["det"] > 0
    _passed(
        12,
        f"drift-uncertainty bound holds (ratio {rep['max_ratio']:.3g}); "
        "degenerate constant 340; diagonal-norm certificate positive",
    )


def test_criterion_13_duhamel_equals_exponential():
    rng = np.random.default_rng(13)
    fcd = cd.trig_field()
    ffp = fp.sin_drift()
    worst = 0.0
    for i in range(100):
        kind = i % 3
        if kind == 0:
            k = int(rng.integers(1, 5))
            m = cd.first_order_system(fcd, k, float(rng.uniform(-2, 2)))
        elif kind == 1:
            k = int(rng.integers(1, 5))
            m = cd.second_order_system(fcd, k, float(rng.uniform(-2, 2)))
        else:
            k = int(rng.integers(1, 9))
            m = fp.fp_mode_system(ffp, k, float(rng.uniform(0, 2 * np.pi)))
        y0 = rng.normal(size=m.shape[0]) + 1j * rng.normal(size=m.shape[0])
        t = float(rng.uniform(0.0, 4.0 / max(1.0, np.linalg.norm(m, 2) / 3.0)))
        diff = np.max(np.abs(duhamel_solve(m, y0, t) - expm(-m, t) @ y0))
        worst = max(worst, float(diff))
    assert worst < 1e-10
    # per-mode 4/3 bound dominates the exact propagators for |dlam| <= 1
    b, dlam = 1.0, 0.9
    for k in (1, 2, 3):
        m = k * k * np.array([[b, 0.0], [dlam, b]], dtype=complex)
        ts = np.linspace(0.0, 12.0 / (k * k), 80)
        bound = lambda t, k=k: (4.0 / 3.0) * (1.0 + k**4 * t**2) * np.exp(-2 * k * k * b * t)
        assert check_dominance(m, bound, ts).dominated
    _passed(13, f"variation-of-constants matches the exponential (max diff {worst:.2e})")
