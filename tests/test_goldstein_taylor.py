import numpy as np
import pytest

from lyapdecay import goldstein_taylor as gt
from lyapdecay import linalg
from lyapdecay.jordan import structure_from_chains
from lyapdecay.linalg import expm, hermitian_extremes, spectral_norm
from lyapdecay.lyapunov import build_form, build_p, p_norm_sq
from lyapdecay.oracle import check_dominance, deviation_sq, evolve

from conftest import gt_chains, verify_chain


@pytest.fixture(scope="module")
def field():
    return gt.tanh_relaxation()


def _match_multiset(got, want, tol=1e-9):
    pool = list(want)
    for g in got:
        i = int(np.argmin([abs(g - w) for w in pool]))
        if abs(g - pool.pop(i)) > tol:
            return False
    return True


def test_zero_mode_eigenvalues(field):
    z = 0.4
    d0 = gt.gt_mode_matrix(field, 0, z)
    s = field.sigma(z)
    assert _match_multiset(np.linalg.eigvals(d0), [0, 0, s, s])


def test_mode_eigenvalue_formula(field):
    # each formula value is a defective double eigenvalue; individual LAPACK
    # outputs scatter by ~sqrt(eps), their pair means are second-order exact
    for k in (1, 3, -5):
        for z in (-2.0, 1.0):
            d = gt.gt_mode_matrix(field, k, z)
            lp, lm = gt.gt_eigenvalues(field.sigma(z), k)
            ev = list(np.linalg.eigvals(d))
            for lam in (lp, lm):
                pair = sorted(ev, key=lambda g: abs(g - lam))[:2]
                for g in pair:
                    ev.remove(g)
                assert abs(np.mean(pair) - lam) < 1e-9


def test_flat_relaxation_block_diagonal():
    f = gt.RelaxationField(lambda z: 1.0, lambda z: 0.0, 1.0, 1.0, 0.0)
    d = gt.gt_mode_matrix(f, 2, 0.3)
    np.testing.assert_allclose(d[2:, :2], 0.0, atol=1e-15)
    np.testing.assert_allclose(d[:2, 2:], 0.0, atol=1e-15)


def test_sigma_bounds_enforced():
    with pytest.raises(ValueError):
        gt.RelaxationField(lambda z: 2.5, lambda z: 0.0, 2.5, 2.5, 0.0)
    with pytest.raises(ValueError):
        gt.RelaxationField(lambda z: 1.0, lambda z: 0.0, 0.0, 1.0, 0.0)


def test_chain_residuals_random(field):
    rng = np.random.default_rng(6)
    for _ in range(8):
        k = int(rng.integers(1, 10)) * (1 if rng.uniform() < 0.5 else -1)
        z = float(rng.uniform(-2.5, 2.5))
        d = gt.gt_mode_matrix(field, k, z)
        st = structure_from_chains(gt_chains(field, k, z))
        assert verify_chain(d, st) < 1e-9


def test_nondefective_chains_are_four_eigenvectors():
    f = gt.RelaxationField(lambda z: 1.0, lambda z: 0.0, 1.0, 1.0, 0.0)
    chains = gt_chains(f, 1, 0.0)
    assert len(chains) == 4 and all(len(c) == 1 for _, c in chains)
    lp, lm = gt.gt_eigenvalues(1.0, 1)
    assert lp == pytest.approx(0.5 + 1j * np.sqrt(3) / 2)
    assert lm == pytest.approx(0.5 - 1j * np.sqrt(3) / 2)


def test_p_limit_flatness_monotone(field):
    sigma, sz = 1.2, 0.4
    gaps = []
    for k in (4, 8, 16, 32, 64):
        gaps.append(spectral_norm(gt.gt_p_from_params(sigma, sz, k) - 2.0 * np.eye(4)))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.15


def test_p_continuous_at_zero_coupling(field):
    sigma, k = 1.1, 2
    p0 = gt.gt_p_from_params(sigma, 0.0, k)
    p1 = gt.gt_p_from_params(sigma, 1e-9, k)
    np.testing.assert_allclose(p0, p1, atol=1e-8)
    assert hermitian_extremes(p0).lambda_min > 0


def test_p_positive_definite_across_box(field):
    for k in (1, 2, 8, 32, 64):
        for s in np.linspace(field.sigma0, field.sigma1, 5):
            for sz in np.linspace(-field.L, field.L, 5):
                assert hermitian_extremes(gt.gt_p_from_params(s, sz, k)).lambda_min > 0


# unlike the tanh box's, the extremes of this box move when P moves in the last bit
_WIDE_BOX = gt.RelaxationField(lambda z: 1.0, lambda z: 0.3, 0.2, 1.9, 1.7)


@pytest.mark.parametrize("box", ["tanh", "wide"])
def test_p_from_params_broadcast_equals_per_point_calls(field, box):
    f = field if box == "tanh" else _WIDE_BOX
    sigmas = np.linspace(f.sigma0, f.sigma1, 13)
    dsigmas = np.linspace(-f.L, f.L, 9)
    assert gt.gt_p_from_params(1.2, 0.3, 3).shape == (4, 4)
    assert gt.gt_case1_p_from_params(1.2, 3).shape == (4, 4)
    for k in (1, 2, 7, 64):
        stack = gt.gt_p_from_params(sigmas[:, None], dsigmas, k)
        case1 = gt.gt_case1_p_from_params(sigmas, k)
        assert stack.shape == (13, 9, 4, 4) and case1.shape == (13, 4, 4)
        want = np.array([[gt.gt_p_from_params(s, sz, k) for sz in dsigmas] for s in sigmas])
        assert np.array_equal(stack, want)
        assert np.array_equal(case1, np.array([gt.gt_case1_p_from_params(s, k) for s in sigmas]))


@pytest.mark.parametrize("box, k_max", [("tanh", 8), ("wide", 8), ("tanh", 0)])
def test_uniform_constant_equals_per_cell_loop(field, box, k_max):
    # k_max 0 leaves only the padded 2I tail
    f = field if box == "tanh" else _WIDE_BOX
    uni = gt.gt_uniform_constant(f, k_max=k_max)
    sigmas = np.linspace(f.sigma0, f.sigma1, 13)
    dsigmas = np.linspace(-f.L, f.L, 9)
    lo_def, hi_def, lo_c1, hi_c1 = np.inf, -np.inf, np.inf, -np.inf
    for k in range(1, k_max + 1):
        for s in sigmas:
            ext = hermitian_extremes(gt.gt_case1_p_from_params(s, k))
            lo_c1, hi_c1 = min(lo_c1, ext.lambda_min), max(hi_c1, ext.lambda_max)
            for sz in dsigmas:
                ext = hermitian_extremes(gt.gt_p_from_params(s, sz, k))
                lo_def, hi_def = min(lo_def, ext.lambda_min), max(hi_def, ext.lambda_max)
    tail_lo, tail_hi = 2.0 / 1.1, 2.0 * 1.1
    assert uni["defective"]["lambda_min"] == min(lo_def, tail_lo)
    assert uni["defective"]["lambda_max"] == max(hi_def, tail_hi)
    assert uni["nondefective"]["lambda_min"] == min(lo_c1, tail_lo)
    assert uni["nondefective"]["lambda_max"] == max(hi_c1, tail_hi)


def test_uniform_constant_flat_field_reduces_to_condition_number():
    f = gt.RelaxationField(lambda z: 1.0, lambda z: 0.0, 1.0, 1.0, 0.0)
    uni = gt.gt_uniform_constant(f, k_max=16, n_sigma=3, n_dsigma=1)
    nd = uni["nondefective"]
    assert nd["C"] == pytest.approx(nd["lambda_max"] / nd["lambda_min"])
    assert uni["zero_mode_C"] == pytest.approx(24.0)


def test_uniform_constant_monotone_under_refinement(field):
    coarse = gt.gt_uniform_constant(field, k_max=8, n_sigma=3, n_dsigma=3)
    fine = gt.gt_uniform_constant(field, k_max=8, n_sigma=9, n_dsigma=7)
    assert fine["defective"]["lambda_min"] <= coarse["defective"]["lambda_min"] + 1e-12
    assert fine["defective"]["lambda_max"] >= coarse["defective"]["lambda_max"] - 1e-12


def test_zero_mode_envelope_constant():
    f = gt.RelaxationField(
        lambda z: 1.0 + 0.5 * np.tanh(z), lambda z: 0.5 / np.cosh(z) ** 2, 0.5, 1.5, 1.0
    )
    # pick z with |dsigma| = 1: impossible for this field; use a synthetic one
    f1 = gt.RelaxationField(lambda z: 1.0, lambda z: 1.0, 1.0, 1.0, 1.0)
    envm = gt.gt_mode_envelope(f1, 0, 0.0)
    assert envm.C_const == pytest.approx(24.0)
    assert envm.M == 2 and envm.mu == pytest.approx(1.0)


def test_gap_independent_of_k(field):
    z = 0.8
    for k in (1, 2, 7):
        envm = gt.gt_mode_envelope(field, k, z)
        assert envm.mu == pytest.approx(field.sigma(z) / 2.0, rel=1e-12)


def test_mode_envelope_dominance(field):
    for k in (1, 2, 5):
        for z in (-1.0, 0.2, 2.0):
            envm = gt.gt_mode_envelope(field, k, z)
            rep = check_dominance(gt.gt_mode_matrix(field, k, z), envm, np.linspace(0, 30, 60))
            assert rep.dominated


def test_mode_envelope_survives_underflowing_sigma_z(field):
    # dsigma(200) ~ 4e-174: sigma_z^2 / 4 underflows to 0, which the chain
    # route's weights cannot take
    assert 0.0 < field.dsigma(200.0) and field.dsigma(200.0) ** 2 == 0.0
    for k in (1, -3, 30):
        envm = gt.gt_mode_envelope(field, k, 200.0)
        assert envm.M == 2 and envm.mu == field.sigma(200.0) / 2.0
        assert envm.C_const == pytest.approx(gt.gt_mode_envelope(field, k, 20.0).C_const, rel=1e-9)
        rep = check_dominance(gt.gt_mode_matrix(field, k, 200.0), envm, np.linspace(0, 30, 60))
        assert rep.dominated


def test_mode_envelope_matches_chain_route_on_default_grid(field):
    from lyapdecay.cli import _OPTIONS, _parse_grid
    from lyapdecay.lyapunov import decay_constant

    K = _OPTIONS["model-gt"]["K"].default
    for z in _parse_grid(_OPTIONS["model-gt"]["z_grid"].default):
        sz = field.dsigma(z)
        weights = np.array([1.0, sz * sz / 4.0])
        for k in [k for k in range(-K, K + 1) if k]:
            st = structure_from_chains(gt_chains(field, k, z))
            want = decay_constant(st, build_form(st, block_weights={0: weights, 1: weights}))
            got = gt.gt_mode_envelope(field, k, z)
            assert (got.M, got.mu) == (want.M, want.mu), (k, z)
            assert got.C_const == pytest.approx(want.C_const, rel=1e-14, abs=0.0), (k, z)


def test_nondefective_mode_envelope_matches_chain_route():
    # sigma_z == 0: four eigenvector chains with unit weights, C = 2 kappa(P(0))
    from lyapdecay.lyapunov import decay_constant

    for s in (0.5, 1.0, 1.5):
        flat = gt.RelaxationField(lambda z, s=s: s, lambda z: 0.0, s, s, 0.0)
        for k in (1, -2, 5):
            st = structure_from_chains(gt_chains(flat, k, 0.0))
            want = decay_constant(st, build_form(st))
            got = gt.gt_mode_envelope(flat, k, 0.0)
            assert (got.M, got.mu) == (1, want.mu) == (1, s / 2.0), (s, k)
            assert got.C_const == pytest.approx(2.0 * want.C_const, rel=1e-14, abs=0.0), (s, k)
            rep = check_dominance(gt.gt_mode_matrix(flat, k, 0.0), got, np.linspace(0, 30, 60))
            assert rep.dominated, (s, k)


def test_zero_mode_envelope_dominance_on_decaying_block(field):
    for z in (-1.5, 0.6):
        envm = gt.gt_mode_envelope(field, 0, z)
        sub = gt.gt_mode_matrix(field, 0, z)[np.ix_([1, 3], [1, 3])]
        assert check_dominance(sub, envm, np.linspace(0, 30, 60)).dominated


def test_mode_p_norm_decay_inequality(field):
    # |y_k(t)|^2 in the adapted time-dependent norm decays at rate sigma
    rng = np.random.default_rng(15)
    for _ in range(5):
        k = int(rng.integers(1, 6))
        z = float(rng.uniform(-2, 2))
        d = gt.gt_mode_matrix(field, k, z)
        st = structure_from_chains(gt_chains(field, k, z))
        sz = field.dsigma(z)
        form = build_form(
            st,
            block_weights={0: np.array([1.0, sz * sz / 4.0]), 1: np.array([1.0, sz * sz / 4.0])},
        )
        y0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        ref = p_norm_sq(y0, build_p(form, 0.0))
        for t in (0.5, 2.0, 6.0):
            yt = expm(-d, t) @ y0
            val = p_norm_sq(yt, build_p(form, t))
            assert val <= np.exp(-field.sigma(z) * t) * ref * (1 + 1e-9)


def test_conservation_and_steady_state(field):
    s0 = gt.gt_bump_state(10)
    out, big = evolve(gt.MODEL, field, s0, 0.4, [9.0, 60.0])
    assert out[10, 0] == pytest.approx(1.0, abs=1e-14)
    assert abs(out[10, 2]) < 1e-14
    # the steady state in the transformed variables is (1, 0, 0, 0) at k = 0,
    # equivalently densities (1/2, 1/2) and zero sensitivity
    dev = np.array(big, copy=True)
    dev[10, 0] -= 1.0
    assert np.max(np.abs(dev)) < 1e-10


def test_evolve_rejects_an_unnormalized_zero_mode(field):
    # the zero mode carries the masses 1 (entry 0) and 0 (entry 2)
    for entry, value in ((0, 0.5), (2, 0.1)):
        s0 = gt.gt_bump_state(3)
        s0[3, entry] = value
        with pytest.raises(ValueError, match="zero mode is not normalized"):
            evolve(gt.MODEL, field, s0, 0.4, [1.0])


def test_deviation_counts_the_conserved_masses_zero(field):
    # quadrature puts the bump's mass a rounding error off 1; evolve keeps both
    # masses bit for bit, so they are the steady state's own and leave no floor
    s0 = gt.gt_bump_state(4)
    assert s0[4, 0] != 1.0
    (late,) = evolve(gt.MODEL, field, s0, 0.4, [400.0])
    assert late[4, [0, 2]].tolist() == s0[4, [0, 2]].tolist()
    assert deviation_sq(gt.MODEL, field, late, 0.4) < 1e-100


def test_theorem_check_flat_relaxation_trivial():
    f = gt.RelaxationField(lambda z: 1.0, lambda z: 0.0, 1.0, 1.0, 0.0)
    uni = gt.gt_uniform_constant(f, k_max=8, n_sigma=2, n_dsigma=1)
    rep = gt.gt_theorem_check(
        f, lambda z: gt.gt_bump_state(8), np.array([0.0]), np.linspace(0, 10, 11), uniform=uni
    )
    assert rep["passed"]


def test_theorem_check_tanh_field(field):
    uni = gt.gt_uniform_constant(field, k_max=16, n_sigma=5, n_dsigma=5)
    rep = gt.gt_theorem_check(
        field,
        lambda z: gt.gt_bump_state(10),
        np.linspace(-2.0, 2.0, 5),
        np.linspace(0.0, 12.0, 13),
        uniform=uni,
    )
    assert rep["passed"] and rep["max_ratio"] < 1.0


def test_theorem_check_equals_per_cell_evolve(field, expm_matrices, monkeypatch):
    # 2K + 1 = 7 modes, 4 computed (k and -k are conjugate), x 40 times span
    # more than one stacked chunk of 2000 complex entries: 3 modes of 4^2
    # entries, then 1
    monkeypatch.setattr(linalg, "_APPLY_CHUNK", 2000)
    uni = gt.gt_uniform_constant(field, k_max=4, n_sigma=3, n_dsigma=3)
    zs = np.array([-1.0, 0.3])
    ts = np.linspace(0.0, 15.0, 40)
    expm_matrices.clear()
    rep = gt.gt_theorem_check(field, lambda z: gt.gt_bump_state(3), zs, ts, uniform=uni)
    assert expm_matrices == [40 * 3, 40 * 1] * zs.size
    want = [
        [deviation_sq(gt.MODEL, field, evolve(gt.MODEL, field, gt.gt_bump_state(3), z, [t])[0], z) for t in ts]
        for z in zs
    ]
    assert np.array_equal(rep["norm_sq"], np.array(want))
