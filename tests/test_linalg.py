import json

import numpy as np
import pytest
import scipy.linalg as sla

from lyapdecay.linalg import (
    HermitianSpectrum,
    eigenvalues,
    expm,
    expm_apply,
    hermitian_extremes,
    load_matrix_json,
    matrix_to_json,
    nullspace_rank,
    spectral_norm,
)

from conftest import defect1_matrix, geometry_matrix


def test_expm_identity_at_zero_time():
    a = np.array([[2.0, 1.0], [0.5, -1.0]], dtype=complex)
    np.testing.assert_allclose(expm(a, 0.0), np.eye(2), atol=1e-15)


def test_expm_diagonal():
    a = np.diag([-1.0, -2.0]).astype(complex)
    np.testing.assert_allclose(expm(a, 1.0), np.diag([np.exp(-1.0), np.exp(-2.0)]), rtol=1e-13)


@pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
def test_expm_defect1_propagator_norm(eps):
    # ||exp(-C_eps t)||^2 has the closed form e^{-2t}(1 + s^2/2 + sqrt(s^2 + s^4/4))
    c = defect1_matrix(eps)
    for t in np.linspace(0.0, 8.0, 17):
        s2 = (eps * t) ** 2
        want = np.exp(-2.0 * t) * (1.0 + s2 / 2.0 + np.sqrt(s2 + s2 * s2 / 4.0))
        got = spectral_norm(expm(-c, t)) ** 2
        assert got == pytest.approx(want, rel=1e-12)


def test_expm_against_scipy_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = rng.integers(2, 7)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        t = rng.uniform(0.0, 3.0)
        ref = sla.expm(a * t)
        np.testing.assert_allclose(expm(a, t), ref, rtol=1e-12, atol=1e-13 * np.linalg.norm(ref))


def test_expm_semigroup_property():
    rng = np.random.default_rng(11)
    for _ in range(8):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        s, t = rng.uniform(0.0, 4.0, size=2)
        lhs = expm(a, s) @ expm(a, t)
        rhs = expm(a, s + t)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError):
        expm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        expm(np.array([[np.nan, 0], [0, 1.0]]))


def _loop_expm(a, t):
    """Reference: one 2-D call per matrix of the broadcast stack."""
    a, t = np.broadcast_arrays(a, np.asarray(t, dtype=float)[..., None, None])
    out = np.empty(a.shape, dtype=complex)
    for idx in np.ndindex(a.shape[:-2]):
        out[idx] = expm(a[idx], t[idx][0, 0])
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_expm_stack_bitwise_equals_loop(d):
    rng = np.random.default_rng(100 + d)
    a = rng.normal(size=(40, d, d)) + 1j * rng.normal(size=(40, d, d))
    a[::3] = np.tril(a[::3])
    t = rng.uniform(0.0, 6.0, size=40)
    assert np.array_equal(expm(a, t), _loop_expm(a, t))


def test_expm_stack_mixes_squaring_counts():
    # ||A t||_1 / (1/2) = 4 t: t = 0 and t <= 1/8 need no squaring, t = 10 needs 6
    a = np.array([[1.0, 2.0], [0.5, -1.0 + 1j]])
    t = np.array([0.0, 0.05, 0.125, 0.2, 0.4, 0.9, 1.7, 3.3, 10.0, 0.0])
    norm = np.max(np.sum(np.abs(a), axis=0)) * t
    squarings = np.ceil(np.log2(np.maximum(norm, 0.5) / 0.5))
    assert set(squarings[:2]) == {0.0} and squarings.max() >= 5
    assert len(set(squarings)) >= 5
    stack = np.broadcast_to(a, (t.size, 2, 2))
    got = expm(stack, t)
    assert np.array_equal(got, _loop_expm(stack, t))
    assert np.array_equal(got[0], np.eye(2))


def test_expm_broadcasts_t_over_leading_axes():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    t = np.array([[0.0], [0.7], [4.0], [25.0]])
    got = expm(a, t)
    assert got.shape == (4, 3, 2, 2)
    assert np.array_equal(got, _loop_expm(a, t))
    # scalar t on a stack, and a time vector on one matrix
    assert np.array_equal(expm(a, 1.5), _loop_expm(a, 1.5))
    assert np.array_equal(expm(a[0], t[:, 0]), _loop_expm(a[0], t[:, 0]))


def test_expm_stack_rejects_bad_input():
    good = np.ones((3, 2, 2))
    with pytest.raises(ValueError):
        expm(np.ones((3, 2, 3)))
    with pytest.raises(ValueError):
        expm(np.ones(2))
    bad = good.copy()
    bad[1, 0, 1] = np.inf
    with pytest.raises(ValueError):
        expm(bad, np.ones(3))
    bad = good.astype(complex)
    bad[2, 1, 1] = complex(0.0, np.nan)
    with pytest.raises(ValueError):
        expm(bad)
    with pytest.raises(ValueError):
        expm(good, np.array([0.0, np.nan, 1.0]))
    with pytest.raises(ValueError):
        expm(good[0], np.inf)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_expm_apply_bitwise_equals_loop(d):
    # 7 matrices x 50 times span more than one chunk
    rng = np.random.default_rng(200 + d)
    a = rng.normal(size=(7, d, d)) + 1j * rng.normal(size=(7, d, d))
    v = rng.normal(size=(7, d)) + 1j * rng.normal(size=(7, d))
    ts = np.linspace(0.0, 12.0, 50)
    got = expm_apply(a, v, ts)
    want = np.array([[expm(a[i], t) @ v[i] for t in ts] for i in range(7)])
    assert got.shape == (7, 50, d)
    assert np.array_equal(got, want)


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-14)


def test_spectral_norm_shear_closed_form():
    for et in (0.3, 1.0, 4.0):
        a = np.array([[1.0, -et], [0.0, 1.0]])
        want = np.sqrt(1.0 + et**2 / 2.0 + np.sqrt(et**2 + et**4 / 4.0))
        assert spectral_norm(a) == pytest.approx(want, rel=1e-12)


def _power_iteration_norm(a, iters=3000):
    rng = np.random.default_rng(0)
    m = a.conj().T @ a
    v = rng.normal(size=a.shape[1]) + 1j * rng.normal(size=a.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        v = m @ v
        v /= np.linalg.norm(v)
    return np.sqrt(np.real(v.conj() @ (m @ v)))


def test_spectral_norm_vs_power_iteration():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert spectral_norm(a) == pytest.approx(_power_iteration_norm(a), abs=1e-8)


def test_spectral_norm_unitary_invariance():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert spectral_norm(q1 @ a @ q2) == pytest.approx(spectral_norm(a), rel=1e-10)


def test_hermitian_extremes_identity():
    ext = hermitian_extremes(np.eye(3))
    assert (ext.lambda_min, ext.lambda_max) == (pytest.approx(1.0), pytest.approx(1.0))
    assert isinstance(ext, HermitianSpectrum)


def test_hermitian_extremes_embedded_two_by_two():
    # arrowhead form [[1 + 3/2 a^2, 0, r], [0, 1, 0], [r, 0, 1]], r = sqrt(3/2) a:
    # extremes are delta +- sqrt(delta^2 - 1) with delta = 1 + (3/4) a^2
    alpha = 1.0
    r = np.sqrt(1.5) * alpha
    p = np.array([[1 + 1.5 * alpha**2, 0, r], [0, 1, 0], [r, 0, 1]])
    delta = 1.0 + 0.75 * alpha**2
    ext = hermitian_extremes(p)
    assert ext.lambda_min == pytest.approx(delta - np.sqrt(delta**2 - 1), rel=1e-10)
    assert ext.lambda_max == pytest.approx(delta + np.sqrt(delta**2 - 1), rel=1e-10)


def test_hermitian_extremes_geometry_form_at_zero():
    # P(0) of the geometry fixture is the identity
    from lyapdecay.jordan import jordan_chains
    from lyapdecay.lyapunov import build_form, build_p

    st = jordan_chains(geometry_matrix())
    p0 = build_p(build_form(st), 0.0)
    ext = hermitian_extremes(p0)
    assert ext.lambda_min == pytest.approx(1.0, rel=1e-10)
    assert ext.lambda_max == pytest.approx(1.0, rel=1e-10)


def test_hermitian_extremes_rejects_nonhermitian():
    with pytest.raises(ValueError):
        hermitian_extremes(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_hermitian_extremes_rayleigh_bounds():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    p = g @ g.conj().T + 0.1 * np.eye(4)
    ext = hermitian_extremes(p)
    for _ in range(100):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        r = np.real(x.conj() @ (p @ x)) / np.real(x.conj() @ x)
        assert ext.lambda_min - 1e-10 <= r <= ext.lambda_max + 1e-10


def test_eigenvalues_defective_double():
    ev = eigenvalues(geometry_matrix())
    assert np.max(np.abs(ev - 0.5)) < 1e-6


def test_eigenvalues_upper_triangular():
    a = np.array([[1.0, 3.0, -2.0], [0, 2.0, 5.0], [0, 0, -0.5]], dtype=complex)
    np.testing.assert_allclose(np.sort(eigenvalues(a).real), [-0.5, 1.0, 2.0], atol=1e-12)


def _charpoly_coeffs(a):
    # Faddeev-LeVerrier: trace recursion, no eigenvalue code involved
    d = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, d + 1):
        m = a @ m + coeffs[-1] * np.eye(d)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array(coeffs)


def test_eigenvalues_match_charpoly_roots():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    got = np.sort_complex(eigenvalues(a))
    want = np.sort_complex(np.roots(_charpoly_coeffs(a)))
    assert np.max(np.abs(got - want)) < 1e-6


def test_eigenvalues_adjoint_conjugate_multiset():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    ev = eigenvalues(a)
    ev_h = eigenvalues(a.conj().T)
    # match greedily as multisets
    pool = list(ev_h)
    for lam in ev:
        i = int(np.argmin([abs(np.conj(lam) - other) for other in pool]))
        assert abs(np.conj(lam) - pool.pop(i)) < 1e-8


def test_nullspace_rank_zero_matrix():
    rank, basis = nullspace_rank(np.zeros((3, 3)), tol=1e-10)
    assert rank == 0 and basis.shape == (3, 3)
    np.testing.assert_allclose(basis @ basis.conj().T, np.eye(3), atol=1e-12)


def test_nullspace_rank_geometry_shifted():
    c = geometry_matrix()
    b = c.conj().T - 0.5 * np.eye(2)
    rank, basis = nullspace_rank(b, tol=1e-8)
    assert rank == 1 and basis.shape == (1, 2)
    direction = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(abs(basis[0] @ direction.conj()) - 1.0) < 1e-12


def test_nullspace_rank_identity():
    rank, basis = nullspace_rank(np.eye(4), tol=1e-10)
    assert rank == 4 and basis.shape == (0, 4)


def test_matrix_json_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    obj = matrix_to_json(a)
    np.testing.assert_array_equal(load_matrix_json(obj), a)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    np.testing.assert_array_equal(load_matrix_json(str(path)), a)
    with pytest.raises(ValueError):
        load_matrix_json({"dim": 2, "entries": [[1.0, 0.0]]})
