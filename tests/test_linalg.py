import hashlib
import json

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from lyapdecay import linalg
from lyapdecay.linalg import (
    HermitianSpectrum,
    expm,
    expm_apply,
    hermitian_extremes,
    load_matrix_json,
    spectral_norm,
)

from conftest import defect1_matrix, geometry_matrix, jordan_matrix, matrix_to_json


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


def _contract_inputs(d):
    """A normal d x d matrix and one with a Jordan block of length 2 to 4,
    both stable with the same seeded eigenvalues, the block at the smallest
    decay rate, under a seeded similarity of condition at most 1.6 / 0.6."""
    rng = np.random.default_rng(700 + d)
    mu = rng.uniform(0.3, 1.0)
    lam = -(mu + rng.uniform(0.0, 1.5, size=d)) + 1j * rng.uniform(-2.0, 2.0, size=d)
    lam[0] = complex(-mu, lam[0].imag)

    def haar():
        q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    q = haar()
    length = min(d, 2 + d % 3)
    v = haar() @ np.diag(rng.uniform(0.6, 1.6, size=d)) @ haar()
    j = jordan_matrix([(lam[0], length)] + [(x, 1) for x in lam[1 : d - length + 1]])
    return {"normal": q @ np.diag(lam) @ q.conj().T, f"Jordan block {length}": v @ j @ np.linalg.inv(v)}


@pytest.mark.parametrize("d", range(2, 9))
def test_expm_meets_its_accuracy_contract_against_mpmath(d):
    # relative error in spectral norm against exp of the same double matrix
    # at 40 digits (80 digits give the same doubles), at 1-norms 1e-3 to 1e3.
    # A Jordan block's error grows with the norm, so the 1e-12 contract stops
    # at 1e2: at 1e3 the length-4 block (d = 5) reaches 1.2e-7, where
    # scipy.linalg.expm gives 2.0e-7
    for name, a0 in _contract_inputs(d).items():
        for norm in (1e-3, 1e-1, 1e1, 1e2, 1e3):
            a = a0 * (norm / np.abs(a0).sum(axis=0).max())
            with mpmath.workdps(40):
                ref = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=complex)
            err = np.linalg.norm(expm(a) - ref, 2) / np.linalg.norm(ref, 2)
            assert err <= (1e-6 if name != "normal" and norm > 1e2 else 1e-12), (name, norm, err)


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


def _scaled(a, t):
    """The scaled matrices of expm's rule, as bytes, and their squaring counts."""
    at = np.asarray(a, dtype=complex) * np.asarray(t, dtype=float)[..., None, None]
    squarings = np.ceil(np.log2(np.maximum(np.abs(at).sum(axis=-2).max(axis=-1), 0.5) / 0.5)).astype(int)
    x = at / np.ldexp(1.0, squarings)[..., None, None]
    return [m.tobytes() for m in x.reshape((-1,) + x.shape[-2:])], squarings.ravel()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_expm_shared_scaled_matrices_keep_their_bits(d):
    rng = np.random.default_rng(500 + d)
    a = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
    # on a grid from 0, the times j and 2j often give the same scaled matrix
    for n, t_max in ((50, 12.0), (33, 3.0), (200, 50.0)):
        t = np.linspace(0.0, t_max, n)[:, None]
        keys, _ = _scaled(a, t)
        assert len(set(keys)) < len(keys)
        got = expm(a, t)
        assert np.array_equal(got.view(np.uint64), _loop_expm(a, t).view(np.uint64)), (n, t_max)
    # one scaled matrix at squaring counts 0, 1 and 3 (||b||_1 in (1/4, 1/2] by a
    # power of two, |t| = 1, 2, 8); a twin whose scaled matrices differ from it
    # only in the sign of a zero (at t < 0, a zero real part with a positive
    # imaginary part keeps its sign through the complex scaling); and a
    # neighbour one ulp away
    b = a[0].copy()
    b[0, 0] = complex(0.0, abs(b[0, 0]))
    b = b / np.ldexp(1.0, _scaled(b, 1.0)[1][0])
    twin = b.copy()
    twin[0, 0] = complex(-0.0, b[0, 0].imag)
    ulp = b.copy()
    ulp[-1, -1] = complex(b[-1, -1].real, np.nextafter(b[-1, -1].imag, np.inf))
    stack = np.array([b, twin, b, twin, b, b, a[1], ulp])
    t = np.array([-1.0, -1.0, -2.0, -2.0, -8.0, 4.0, 0.5, -1.0])
    keys, squarings = _scaled(stack, t)
    assert list(squarings[:5]) == [0, 0, 1, 1, 3]
    assert keys[0] == keys[2] == keys[4] != keys[1] == keys[3]
    assert np.array_equal(np.frombuffer(keys[0]), np.frombuffer(keys[1]))
    got = expm(stack, t)
    for i in range(len(t)):
        assert np.array_equal(got[i].view(np.uint64), expm(stack[i], t[i]).view(np.uint64)), i


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
    # one matrix and one time of any kind: the bits of a stack of one
    ones = []
    for t1 in (1.5, 37, np.float64(0.3), np.array(12.5), -0.0, 1e-300):
        ones.append(expm(a[0], t1))
        assert np.array_equal(ones[-1].view(np.uint64), expm(a[:1], np.array([t1]))[0].view(np.uint64)), t1
    # as the retired one-matrix branch gave them
    assert hashlib.sha256(np.array(ones).tobytes()).hexdigest()[:16] == "bc375ed77ae8cd98"


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


@pytest.mark.parametrize("d", range(2, 9))
def test_expm_commutes_with_conjugation(d):
    rng = np.random.default_rng(400 + d)
    a = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    a[0] = a[0].real
    t = np.concatenate([[0.0], rng.uniform(0.0, 8.0, size=3)])[:, None]
    assert np.array_equal(expm(a.conj(), t), expm(a, t).conj())


def _default_mode_stack(model):
    """The mode matrices -A_k(z) of a default ``model-cd`` or ``model-gt`` run,
    shape (z, k, d, d), and every 7th time of its default grid."""
    from lyapdecay import convection_diffusion as cd
    from lyapdecay import goldstein_taylor as gt
    from lyapdecay.cli import _OPTIONS, _parse_grid

    command, system, field = {
        "cd-order1": ("model-cd", cd.first_order_system, cd.tanh_field()),
        "cd-order2": ("model-cd", cd.second_order_system, cd.tanh_field()),
        "gt": ("model-gt", gt.gt_mode_matrix, gt.tanh_relaxation()),
    }[model]
    opts = _OPTIONS[command]
    K = opts["K"].default
    # convection-diffusion propagates no k = 0 mode: it is conserved
    ks = [k for k in range(-K, K + 1) if k or model == "gt"]
    a = np.array([[-system(field, k, z) for k in ks] for z in _parse_grid(opts["z_grid"].default)])
    return a, np.linspace(0.0, opts["t_max"].default, opts["t_points"].default)[::7]


@pytest.mark.parametrize("model", ["cd-order1", "cd-order2", "gt"])
def test_expm_commutes_with_conjugation_on_default_mode_stacks(model):
    a, ts = _default_mode_stack(model)
    t = ts[:, None, None]
    assert np.array_equal(expm(a.conj(), t), expm(a, t).conj())


def test_expm_truncation_keeps_the_bits_of_twenty_four_terms(tmp_path, monkeypatch, expm_calls):
    # _EXPM_TERMS = 16 is a measured count: on every expm stack of these
    # default runs, 16 Taylor terms give the bits of 24.  model-cd --order 1
    # is the default run where 15 terms changed bits (7 matrices, SkylakeX
    # kernel).  Unlike the pinned digests, this compares the program with
    # itself, so it tests the truncation alone and pins no BLAS kernel's bits.
    # family runs the oracle only where its bound admits the supremum, so
    # the whole default grid goes through the oracle here instead
    from lyapdecay.cli import _OPTIONS, main
    from lyapdecay.family import family_matrix, quadratic_family
    from lyapdecay.oracle import propagator_lognorm

    monkeypatch.chdir(tmp_path)
    for argv in (["model-cd", "--order", "1", "--report", "cd.json"], ["model-gt", "--report", "gt.json"]):
        assert main(argv + ["--out", "out.csv"]) == 0
    opts = {key: opt.default for key, opt in _OPTIONS["family"].items()}
    assert opts["family"] == "quadratic"
    fam = quadratic_family(opts["alpha"], opts["mu_min"], np.linspace(-opts["z_max"], opts["z_max"], opts["z_points"]))
    mats = np.array([family_matrix(fam, z) for z in fam.z_grid])
    propagator_lognorm(mats[:, None], np.linspace(0.0, opts["t_max"], opts["points"]))
    assert sum(out.size // out.shape[-1] ** 2 for _, _, out in expm_calls) == 20800 + 21450 + 23859
    monkeypatch.setattr(linalg, "_EXPM_TERMS", 24)
    for a, t, out in expm_calls:
        assert np.array_equal(out.view(np.uint64), expm(a, t).view(np.uint64))


def _apply_stacks(d):
    """Stacks for :func:`expm_apply`, each with its number of distinct propagators."""
    rng = np.random.default_rng(200 + d)

    def cplx(n):
        return rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))

    b = cplx(3)
    b[:, 0, 0] = b[:, 0, 0].real
    # conjugates up to the sign of zero, as the relaxation modes -k are: b.conj() has -0 at [0, 0]
    pairs = np.concatenate([b, b.conj() + 0.0])[rng.permutation(6)]
    real = rng.normal(size=(2, d, d)).astype(complex)
    return {
        "independent": (cplx(7), 7),
        "conjugate pairs, shuffled": (pairs, 3),
        "pairs and an unpaired matrix": (np.concatenate([pairs[:3], cplx(1), pairs[3:]]), 4),
        "real matrices, one repeated": (np.concatenate([real, b[:1], real[:1], b[:1].conj()]), 4),
        "two candidates for one mirror": (np.stack([b[0], b[0], b[0].conj(), b[1], b[1].conj(), b[1].conj()]), 4),
    }


@pytest.mark.parametrize("d", [2, 3, 4])
def test_expm_apply_bitwise_equals_loop(d, expm_matrices, monkeypatch):
    # a budget of two modes of 50 times, so every stack spans more than one
    # chunk; signed zeros count, so compare the bits
    monkeypatch.setattr(linalg, "_APPLY_CHUNK", 2 * 50 * d * d)
    rng = np.random.default_rng(300 + d)
    ts = np.linspace(0.0, 12.0, 50)
    for name, (a, computed) in _apply_stacks(d).items():
        v = rng.normal(size=a.shape[:2]) + 1j * rng.normal(size=a.shape[:2])
        expm_matrices.clear()
        got = expm_apply(a, v, ts)
        assert expm_matrices == [ts.size * min(2, computed - lo) for lo in range(0, computed, 2)], name
        want = np.array([[expm(a[i], t) @ v[i] for t in ts] for i in range(len(a))])
        assert got.shape == (len(a), 50, d)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


@pytest.mark.parametrize("nt", [300, 37])
def test_expm_apply_chunks_whole_modes(nt, expm_matrices, monkeypatch):
    # a budget of 1000 complex entries, d^2 per propagator: at nt = 300 one
    # mode is longer than a chunk; at nt = 37 chunks hold 6 (d = 2) or 3
    # (d = 3) of the 10 modes, and 37 d^2 does not divide 1000
    monkeypatch.setattr(linalg, "_APPLY_CHUNK", 1000)
    rng = np.random.default_rng(600 + nt)
    ts = np.linspace(0.0, 9.0, nt)
    for d in (2, 3):
        a, computed = _apply_stacks(d)["pairs and an unpaired matrix"]
        a = np.concatenate([a, rng.normal(size=(6, d, d)) + 1j * rng.normal(size=(6, d, d))])
        computed += 6
        v = rng.normal(size=a.shape[:2]) + 1j * rng.normal(size=a.shape[:2])
        expm_matrices.clear()
        got = expm_apply(a, v, ts)
        per = max(1, 1000 // (nt * d * d))  # whole modes per call
        assert expm_matrices == [nt * min(per, computed - lo) for lo in range(0, computed, per)], d
        assert len(expm_matrices) > 1
        want = np.array([[expm(a[i], t) @ v[i] for t in ts] for i in range(len(a))])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), d


@pytest.mark.parametrize(
    "call, shape",
    [
        (lambda a, v, ts: expm_apply(a, v, ts[:0]), (2, 0, 3)),
        (lambda a, v, ts: expm_apply(a[:0], v[:0], ts), (0, 4, 3)),
        (lambda a, v, ts: expm(a[:0], 1.0), (0, 3, 3)),
    ],
    ids=["no times", "no matrices", "empty expm stack"],
)
def test_empty_stacks_keep_their_shapes(call, shape):
    a, v, ts = np.stack([np.eye(3), -np.eye(3)]).astype(complex), np.ones((2, 3)), np.linspace(0.0, 1.0, 4)
    assert call(a, v, ts).shape == shape


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-14)


def test_spectral_norm_shear_closed_form():
    for et in (0.3, 1.0, 4.0):
        a = np.array([[1.0, -et], [0.0, 1.0]])
        want = np.sqrt(1.0 + et**2 / 2.0 + np.sqrt(et**2 + et**4 / 4.0))
        assert spectral_norm(a) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("shape", [(5,), (2, 3), (0,)])
def test_spectral_norm_of_a_stack_has_the_bits_of_single_calls(shape):
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(*shape, 3, 3)) + 1j * rng.normal(size=(*shape, 3, 3))
    got = spectral_norm(stack)
    want = np.array([np.linalg.norm(a, 2) for a in stack.reshape(-1, 3, 3)]).reshape(shape)
    assert got.shape == shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert isinstance(spectral_norm(np.eye(3)), float)


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


def test_matrix_json_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    obj = matrix_to_json(a)
    np.testing.assert_array_equal(load_matrix_json(obj), a)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    np.testing.assert_array_equal(load_matrix_json(str(path)), a)
    # text that opens with "{", after any whitespace, is the JSON itself
    np.testing.assert_array_equal(load_matrix_json("\n  " + json.dumps(obj)), a)
    with pytest.raises(ValueError):
        load_matrix_json({"dim": 2, "entries": [[1.0, 0.0]]})
    with pytest.raises(ValueError, match="expected 4 entries"):
        load_matrix_json('{"dim": 2, "entries": [[1.0, 0.0]]}')


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"dim": 1.5, "entries": [[1, 0]]}', "dim"),
        ('{"dim": 0, "entries": []}', "dim"),
        ('{"dim": -2, "entries": []}', "dim"),
        ('{"dim": true, "entries": [[1, 0]]}', "dim"),
        ('{"dim": "1", "entries": [[1, 0]]}', "dim"),
        ('{"entries": [[1, 0]]}', "dim"),
        ('{"dim": 1}', "entries"),
        ('{"dim": 1, "entries": {"0": [1, 0]}}', "entries"),
        ('{"dim": 1, "entries": [[1]]}', r"entries\[0\]"),
        ('{"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0, 0]]}', r"entries\[3\]"),
        ('{"dim": 1, "entries": [[1, true]]}', r"entries\[0\]"),
        ('{"dim": 1, "entries": [["1", 0]]}', r"entries\[0\]"),
        ('{"dim": 1, "entries": [1]}', r"entries\[0\]"),
        pytest.param('{"dim": 1, "entries": [[1%s, 0]]}' % ("0" * 400), r"entries\[0\]", id="int-overflow"),
    ],
)
def test_matrix_json_rejects_a_malformed_field_naming_it(text, field):
    # each malformed field is named, never silently truncated (dim 1.5 to 1)
    # or reported by the numpy or Python call it breaks
    with pytest.raises(ValueError, match=f"matrix JSON {field}"):
        load_matrix_json(text)


def test_matrix_json_from_a_path(tmp_path):
    a = np.array([[1.0, 2.0 - 1.0j], [0.5j, 3.0]])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json(a)))
    np.testing.assert_array_equal(load_matrix_json(path), a)
    with pytest.raises(FileNotFoundError):
        load_matrix_json(tmp_path / "missing.json")


def test_matrix_json_from_bytes(tmp_path):
    # bytes are UTF-8 text: the JSON itself, or a file name
    a = np.array([[1.0, 2.0 - 1.0j], [0.5j, 3.0]])
    text = json.dumps(matrix_to_json(a))
    np.testing.assert_array_equal(load_matrix_json(text.encode()), a)
    np.testing.assert_array_equal(load_matrix_json(b"\n " + text.encode()), a)
    path = tmp_path / "m.json"
    path.write_text(text)
    np.testing.assert_array_equal(load_matrix_json(str(path).encode()), a)
    with pytest.raises(ValueError, match="expected 4 entries"):
        load_matrix_json(b'{"dim": 2, "entries": [[1.0, 0.0]]}')
