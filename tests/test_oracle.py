import dataclasses
import math

import mpmath
import numpy as np
import pytest

from lyapdecay import convection_diffusion as cd
from lyapdecay import oracle
from lyapdecay.jordan import jordan_chains
from lyapdecay.linalg import expm, spectral_norm
from lyapdecay.lyapunov import DecayEnvelope, build_form, decay_constant
from lyapdecay.oracle import (
    DOMINANCE_SLACK,
    check_dominance,
    dominance_ratio,
    duhamel_solve,
    nilpotent2_propagator_sq,
    propagator_lognorm,
    sharpness_order,
    sweep,
)

from conftest import defect1_matrix, geometry_matrix


def test_propagator_lognorm_defect1_value():
    c = defect1_matrix(1.0)
    got = np.exp(2.0 * propagator_lognorm(c, 1.0))
    want = np.exp(-2.0) * (1.5 + np.sqrt(5.0) / 2.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_propagator_lognorm_scalar_rate():
    mu = 0.8
    c = mu * np.eye(3)
    ts = np.linspace(0.0, 10.0, 11)
    np.testing.assert_allclose(np.exp(2.0 * propagator_lognorm(c, ts)), np.exp(-2 * mu * ts), rtol=1e-12)


def test_geometry_solution_swings_to_eigendirection():
    # x(t) = e^{-t/2} (6 - 6t, 6 + 6t): at t = 1 the first component vanishes
    c = geometry_matrix()
    x1 = expm(-c, 1.0) @ np.array([6.0, 6.0])
    np.testing.assert_allclose(x1, np.exp(-0.5) * np.array([0.0, 12.0]), atol=1e-12)
    assert np.vdot(x1, x1).real == pytest.approx(np.exp(-1.0) * 144.0, rel=1e-12)


def test_propagator_lognorm_matches_direct():
    c = geometry_matrix()
    for t in (0.0, 2.0, 17.3):
        direct = np.log(spectral_norm(expm(-c, t)))
        assert propagator_lognorm(c, t) == pytest.approx(direct, abs=1e-10)


def test_propagator_lognorm_beyond_underflow():
    c = np.eye(2) * 1.0
    val = propagator_lognorm(c, 2000.0)  # exp(-2000) underflows but the log must not
    assert val == pytest.approx(-2000.0, rel=1e-10)


#: squaring counts from 0 (t = 0, tiny t) to 22-24 (t = 1e6), over four chunks
PARITY_TIMES = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 199)])


def _stable_matrix(rng, d):
    c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return c + (0.1 - np.linalg.eigvals(c).real.min()) * np.eye(d)


def _level_norm(a, spectral):
    """The reference ladder's normaliser: the spectral norm, or 2^e with e the
    frexp exponent of the largest real or imaginary part."""
    if spectral:
        return np.linalg.norm(a, 2)
    return 2.0 ** math.frexp(max(max(abs(x.real), abs(x.imag)) for x in a.ravel()))[1]


def _lognorm_reference(c, t, spectral=False):
    """One time at a time: one-matrix expm and a Python squaring loop."""
    if t == 0:
        return 0.0
    m = max(0, int(np.ceil(np.log2(max(np.linalg.norm(c, 2) * t, 1e-30)))))
    a = expm(-np.asarray(c, dtype=complex), t / 2.0**m)
    log_acc = 0.0
    for _ in range(m):
        nrm = _level_norm(a, spectral)
        a = (a / nrm) @ (a / nrm)
        log_acc = 2.0 * (log_acc + np.log(nrm))
    return log_acc + np.log(np.linalg.norm(a, 2))


def _both_routes(cases, name):
    """Each case on the default route (no keyword), under its own id, and with
    spectral_levels=True, under the id with "-spectral" appended."""
    cases = list(cases)
    return [
        pytest.param(c, spectral, id=name(c) + ("-spectral" if spectral else ""))
        for spectral in (False, True)
        for c in cases
    ]


@pytest.mark.parametrize("d, spectral", _both_routes(range(2, 9), str))
def test_propagator_lognorm_vector_bitwise_equals_scalar_loop(d, spectral):
    c = _stable_matrix(np.random.default_rng(500 + d), d)
    route = {"spectral_levels": True} if spectral else {}
    vec = propagator_lognorm(c, PARITY_TIMES, **route)
    loop = np.array([propagator_lognorm(c, t, **route) for t in PARITY_TIMES])
    assert vec.shape == PARITY_TIMES.shape and vec[0] == 0.0
    assert np.array_equal(vec, loop)
    assert np.array_equal(vec, [_lognorm_reference(c, t, spectral) for t in PARITY_TIMES])
    assert isinstance(propagator_lognorm(c, 2.5, **route), float)


def _same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def _stack_cases():
    # (n, d, d) stacks for d = 2..8 and one (2, 3, d, d) leading shape
    for d in range(2, 9):
        rng = np.random.default_rng(600 + d)
        yield np.array([_stable_matrix(rng, d) for _ in range(3)])
    rng = np.random.default_rng(700)
    yield np.array([[_stable_matrix(rng, 3) for _ in range(3)] for _ in range(2)])


@pytest.mark.parametrize("stack, spectral", _both_routes(_stack_cases(), lambda s: "x".join(map(str, s.shape))))
def test_propagator_lognorm_stack_bitwise_equals_reference(stack, spectral):
    route = {"spectral_levels": True} if spectral else {}
    got = propagator_lognorm(stack[..., None, :, :], PARITY_TIMES, **route)
    assert got.shape == stack.shape[:-2] + PARITY_TIMES.shape
    want = np.array(
        [[_lognorm_reference(c, t, spectral) for t in PARITY_TIMES] for c in stack.reshape(-1, *stack.shape[-2:])]
    )
    assert _same_bits(got.reshape(want.shape), want)
    # a scalar time drops the time axis
    assert _same_bits(propagator_lognorm(stack, PARITY_TIMES[-1], **route), got[..., -1])


@pytest.mark.parametrize("chunk", [1, 3, 148, oracle._LOGNORM_CHUNK])
def test_propagator_lognorm_does_not_depend_on_chunk(chunk, monkeypatch):
    # 148 entries are 37 points at d = 2: chunks straddle the matrices
    rng = np.random.default_rng(800)
    stacks = [np.array([_stable_matrix(rng, d) for _ in range(2)]) for d in (2, 5)]
    want = [propagator_lognorm(s[:, None], PARITY_TIMES) for s in stacks]
    monkeypatch.setattr(oracle, "_LOGNORM_CHUNK", chunk)
    for s, w in zip(stacks, want):
        assert _same_bits(propagator_lognorm(s[:, None], PARITY_TIMES), w)


@pytest.mark.parametrize("d", [2, 5])
def test_propagator_lognorm_on_shuffled_pairs_bitwise_equal_single_calls(d, monkeypatch):
    # a (P, d, d) stack with (P,) times is P explicit pairs: repeated and
    # t = 0 pairs included, in an order that mixes matrices, times and
    # squaring counts; 37 points a chunk straddle the matrices
    monkeypatch.setattr(oracle, "_LOGNORM_CHUNK", 37 * d * d)
    rng = np.random.default_rng(900 + d)
    mats = np.array([_stable_matrix(rng, d) for _ in range(4)])
    index = rng.integers(0, mats.shape[0], size=150)
    times = rng.choice(PARITY_TIMES, size=index.size)
    times[::25] = 0.0
    got = propagator_lognorm(mats[index], times)
    assert _same_bits(got, np.array([propagator_lognorm(mats[k], t) for k, t in zip(index, times)]))


@pytest.mark.parametrize("d", [2, 5])
def test_propagator_lognorm_empty_stack_or_times(d, expm_matrices):
    assert propagator_lognorm(np.zeros((0, 1, d, d)), PARITY_TIMES).shape == (0, PARITY_TIMES.size)
    assert propagator_lognorm(np.zeros((0, d, d)), 1.0).shape == (0,)
    assert propagator_lognorm(np.eye(d)[None].repeat(4, axis=0)[:, None], []).shape == (4, 0)
    assert propagator_lognorm(np.eye(d), np.zeros((0, 3))).shape == (0, 3)
    assert expm_matrices == []


@pytest.mark.parametrize(
    "shape, times",
    [((3,), PARITY_TIMES), ((3,), [0.0, 1.0]), ((2, 3), np.ones((3, 2))), ((0,), [1.0, 2.0])],
    ids=["stack-times", "stack-pair", "grid-grid", "empty-times"],
)
def test_propagator_lognorm_rejects_shapes_that_do_not_broadcast(shape, times, expm_matrices):
    with pytest.raises(ValueError, match="broadcast"):
        propagator_lognorm(np.broadcast_to(defect1_matrix(0.5), (*shape, 2, 2)), times)
    assert expm_matrices == []


@pytest.mark.parametrize("d", [2, 5])
def test_propagator_lognorm_spends_no_expm_work_at_t_zero(d, expm_matrices):
    # of 4 matrices x 6 times, the 9 points at t = 0 are log 1 = 0 and reach
    # no expm call; the 15 others share one
    rng = np.random.default_rng(950 + d)
    mats = np.array([_stable_matrix(rng, d) for _ in range(4)])
    times = np.array([0.0, 1.0, 0.0, 2.5, 1e3, 0.0])
    got = propagator_lognorm(mats[:, None], times)
    assert np.all(got[:, times == 0] == 0.0) and np.all(got[:, times > 0] != 0.0)
    assert expm_matrices == [4 * 3]
    zeros = np.zeros((4, 6))
    assert _same_bits(propagator_lognorm(mats[:, None], zeros), zeros)
    assert propagator_lognorm(mats, 0.0).tolist() == [0.0] * 4
    assert expm_matrices == [4 * 3]


def _jordan_triangular(rng, blocks):
    """Upper triangular: one eigenvalue per Jordan block, the first block's
    at the spectral abscissa, and a random strict upper part, nonzero on the
    superdiagonal, so that each block of equal diagonal is one Jordan block."""
    lam = [0.05 + 0.3j + (0.02 + 0.1j) * k for k, size in enumerate(blocks) for _ in range(size)]
    d = len(lam)
    return np.diag(lam) + np.triu(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 1)


def _mpmath_lognorm(c, t):
    """log ||exp(-C t)||_2 from a 40-digit mpmath.expm, scaled by its largest
    entry before its spectral norm is taken in double."""
    with mpmath.workdps(40):
        e = mpmath.expm(-mpmath.matrix(c.tolist()) * t)
        peak = max(abs(x) for x in e)
        scaled = np.array((e / peak).tolist(), dtype=complex)
        return float(mpmath.log(peak)) + np.log(np.linalg.norm(scaled, 2))


@pytest.mark.parametrize("blocks", [(2,), (3,), (4,), (2, 1), (3, 1), (4, 1), (2, 2, 1), (3, 2)], ids=str)
def test_propagator_lognorm_routes_meet_the_rounding_bound_against_mpmath(blocks):
    # u S (12 + log2 S), S = 1 + 2 t ||C||_2, is the oracle's share of
    # family._lognorm_sq_bound's rounding bound, halved for the unsquared
    # log.  Both routes share the scaled exponentials; the power-of-two
    # normaliser only drops the rounding of each level's division.
    c = _jordan_triangular(np.random.default_rng(3100 + sum(b * 10**k for k, b in enumerate(blocks))), blocks)
    ts = np.array([1e2, 1e4, 1e6])
    scale = 1.0 + 2.0 * spectral_norm(c) * ts
    tol = np.finfo(float).eps / 2 * scale * (12.0 + np.log2(scale))
    want = np.array([_mpmath_lognorm(c, t) for t in ts])
    for spectral in (False, True):
        assert np.all(np.abs(propagator_lognorm(c, ts, spectral_levels=spectral) - want) <= tol)


def test_propagator_lognorm_vector_beyond_underflow():
    times = np.array([2000.0, 0.0, 1.0, 2000.0])
    for c in (geometry_matrix(), np.eye(2)):
        vec = propagator_lognorm(c, times)
        assert np.array_equal(vec, [propagator_lognorm(c, t) for t in times])
    np.testing.assert_allclose(vec, -times, rtol=1e-10)


@pytest.mark.parametrize("t", [np.inf, np.nan, -1.0, [0.0, 1.0, -1e-3], [1.0, np.nan]])
def test_propagator_lognorm_rejects_bad_times(t):
    c = np.array([[1.0, 1.0], [0.0, 1.0]])
    # one matrix, a stack and an empty stack alike
    for stack in (c, np.broadcast_to(c, (3, 2, 2)), np.zeros((0, 2, 2))):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            propagator_lognorm(stack, t)


def test_check_dominance_and_sharpness_order_take_one_matrix():
    stack = np.broadcast_to(np.eye(2), (3, 2, 2))
    with pytest.raises(ValueError, match="square matrix"):
        check_dominance(stack, DecayEnvelope(1.0, 0.5, 1), [0.0, 1.0])
    with pytest.raises(ValueError, match="square matrix"):
        sharpness_order(stack, 1.0)


@pytest.mark.parametrize("t_grid", [[0.0, -1.0], [0.0, np.inf], [np.nan, 1.0]])
def test_sweep_rejects_bad_times(t_grid):
    # b(z) = 2 + tanh z falls below b0 = 1.5 at z = -3: bad times are named
    # first, and with good times the field, before the envelope or any state
    # is built or evolved
    def never(*args):
        raise AssertionError("called")

    field = dataclasses.replace(cd.tanh_field(), b0=1.5)
    model = dataclasses.replace(cd.MODEL, envelope=never)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        sweep(model, field, never, [0.0, -3.0], t_grid)
    with pytest.raises(ValueError, match=r"^b\(-3\.0\) < b0$"):
        sweep(model, field, never, [0.0, -3.0], [0.0, 1.0])


def test_dominance_ratio_continuous_across_tiny_and_zero_where_p_is_zero():
    rng = np.random.default_rng(21)
    tiny = np.finfo(float).tiny
    # bound values stepping across the smallest normal double, the ratio held near r
    log_b = np.log(tiny) + np.linspace(-3.0, 3.0, 601)
    r = rng.uniform(0.1, 2.0, log_b.size)
    log_p = np.log(r) + log_b
    with np.errstate(under="ignore"):
        ratio, max_ratio, passed = dominance_ratio(np.exp(log_p), log_p, np.exp(log_b), log_b)
    np.testing.assert_allclose(ratio, r, rtol=1e-12)
    assert max_ratio == np.max(ratio) and passed == (max_ratio <= 1.0 + DOMINANCE_SLACK)
    # p = 0: ratio 0 on both sides of tiny, also where the bound is 0
    b = np.array([1.0, tiny, tiny / 4.0, 0.0])
    with np.errstate(divide="ignore"):
        log_b0 = np.log(b)
        zero, max0, passed0 = dominance_ratio(np.zeros(4), np.full(4, -np.inf), b, log_b0)
    assert zero.tolist() == [0.0] * 4 and max0 == 0.0 and passed0


def test_check_dominance_rejects_negative_times_with_callable_bound():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        check_dominance(np.eye(2), lambda t: 1.0, [-1.0, 0.0, 1.0])


def test_check_dominance_log_prop_equals_scalar_calls():
    c = _stable_matrix(np.random.default_rng(7), 5)
    rep = check_dominance(c, DecayEnvelope(50.0, 0.05, 2), PARITY_TIMES)
    assert np.array_equal(rep.log_prop, 2 * np.array([propagator_lognorm(c, t) for t in PARITY_TIMES]))


@pytest.mark.parametrize("eps", [0.0, 0.1, 1.0, 10.0])
def test_check_dominance_defect1_family(eps):
    c = defect1_matrix(eps)
    st = jordan_chains(c)
    if eps == 0.0:
        env = decay_constant(st, build_form(st))
        assert env.C_const == pytest.approx(1.0)
    else:
        form = build_form(st, block_weights={0: np.array([1.0, eps * eps])})
        env = decay_constant(st, form)
        assert env.C_const == pytest.approx(12 * max(2, 1 + eps**2))
    rep = check_dominance(c, env, np.linspace(0.0, 50.0, 120))
    assert rep.dominated


def test_check_dominance_exact_exponential_has_unit_ratio():
    c = 0.7 * np.eye(2)
    rep = check_dominance(c, DecayEnvelope(1.0, 0.7, 1), np.linspace(0, 20, 40))
    assert rep.dominated
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-10)


def test_check_dominance_refined_defect1_is_tight():
    # the refined bound 2 e^{-2t}(1 + (eps t)^2) dominates the exact
    # propagator with peak ratio exactly 2/3
    eps = 1.0
    c = defect1_matrix(eps)
    bound = lambda t: 2.0 * np.exp(-2.0 * t) * (1.0 + (eps * t) ** 2)
    rep = check_dominance(c, bound, np.linspace(0.0, 20.0, 400))
    assert rep.dominated
    assert 0.6 <= rep.max_ratio <= 2.0 / 3.0 + 1e-6


def test_check_dominance_flags_violations():
    c = geometry_matrix()
    rep = check_dominance(c, DecayEnvelope(24.0, 0.5, 1), np.linspace(0.0, 50.0, 100))
    assert not rep.dominated and rep.max_ratio > 1.0


def test_nilpotent2_closed_form_matches_expm():
    for eps in (0.3, 2.0):
        c = defect1_matrix(eps)
        ts = np.linspace(0, 10, 21)
        np.testing.assert_allclose(
            nilpotent2_propagator_sq(1.0, eps, ts), np.exp(2.0 * propagator_lognorm(c, ts)), rtol=1e-11
        )


def test_sharpness_order_geometry():
    assert sharpness_order(geometry_matrix(), 0.5) == pytest.approx(1.0, abs=0.1)


def test_sharpness_order_diagonal():
    assert sharpness_order(np.diag([1.0, 2.0]).astype(complex), 1.0) == pytest.approx(0.0, abs=0.1)


def test_sharpness_order_defect_off_gap():
    k, al = 3, 1.0
    c = k * np.array(
        [[(k - 2) / k, 0, 0], [0, 1, 0], [np.sqrt((k - 1) / k) * al, al, 1]], dtype=complex
    )
    assert sharpness_order(c, 1.0) == pytest.approx(0.0, abs=0.1)


def test_duhamel_first_order_mode_closed_form():
    # u' = -k^2 lam u, v' = -k^2 (dlam u + lam v): with u(0)=1, v(0)=0 the
    # sensitivity is v(t) = -k^2 dlam t e^{-k^2 lam t}
    k, lam, dlam = 2, 1.2 + 0.5j, 0.4 - 0.3j
    a = k * k * np.array([[lam, 0], [dlam, lam]])
    for t in (0.3, 1.5):
        y = duhamel_solve(a, np.array([1.0, 0.0]), t)
        assert y[0] == pytest.approx(np.exp(-k * k * lam * t), rel=1e-12)
        assert y[1] == pytest.approx(-k * k * dlam * t * np.exp(-k * k * lam * t), rel=1e-12)


def test_duhamel_decoupled_when_no_coupling():
    a = np.diag([1.0, 3.0]).astype(complex)
    y = duhamel_solve(a, np.array([2.0, -1.0]), 0.7)
    np.testing.assert_allclose(y, [2 * np.exp(-0.7), -np.exp(-2.1)], rtol=1e-13)


def test_duhamel_matches_expm_random_triangular():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(40):
        d = int(rng.integers(2, 5))
        a = np.tril(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        # occasionally collide diagonal entries to hit the resonant branch
        if rng.uniform() < 0.5:
            a[d - 1, d - 1] = a[0, 0]
        y0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        t = rng.uniform(0.0, 3.0)
        got = duhamel_solve(a, y0, t)
        want = expm(-a, t) @ y0
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-10


@pytest.mark.parametrize("d", [3, 4, 5])
def test_duhamel_polynomial_term_meets_a_second_rate(d):
    # diagonal (a, a, b, ...): row 1 holds t e^{-a t} with a zero constant
    # coefficient (y0[1] = 0), which rows 2.. convolve at their own rates;
    # A[d-1, 0] = 0 is a zero coupling.  Reference: 40-digit mpmath.expm.
    rng = np.random.default_rng(350 + d)
    for _ in range(10):
        a = np.tril(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), -1)
        rates = rng.uniform(0.2, 2.0, size=d - 1) + 1j * rng.normal(size=d - 1)
        np.fill_diagonal(a, np.concatenate([rates[:1], rates]))
        a[d - 1, 0] = 0.0
        y0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        y0[1] = 0.0
        t = rng.uniform(0.1, 3.0)
        with mpmath.workdps(40):
            e = mpmath.expm(mpmath.matrix(-t * a))
            want = np.array([complex(mpmath.fsum(e[i, j] * y0[j] for j in range(d))) for i in range(d)])
        got = duhamel_solve(a, y0, t)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_duhamel_rejects_non_triangular():
    with pytest.raises(ValueError):
        duhamel_solve(np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones(2), 1.0)


def test_duhamel_mode_bound_dominates_and_exceeds_one_at_zero():
    # (4/3)(1 + k^4 t^2) e^{-2 k^2 b t} vs the exact propagator, |dlam| <= 1
    b, dlam = 1.0, 0.8
    for k in (1, 2, 3):
        c = k * k * np.array([[b, 0.0], [dlam, b]], dtype=complex)
        ts = np.linspace(0.0, 10.0 / (k * k), 80)
        bound = lambda t: (4.0 / 3.0) * (1.0 + k**4 * t**2) * np.exp(-2 * k * k * b * t)
        rep = check_dominance(c, bound, ts)
        assert rep.dominated
        assert bound(0.0) == pytest.approx(4.0 / 3.0) and bound(0.0) >= 1.0


def test_sharpness_never_exceeds_block_order():
    # on fixtures with an isolated defective gap eigenvalue, the fitted
    # algebraic order must not overshoot M - 1 by more than 0.1
    import sys

    sys.path.insert(0, "tests")
    from conftest import random_structured_matrix
    from lyapdecay.jordan import jordan_chains

    rng = np.random.default_rng(61)
    checked = 0
    while checked < 4:
        c, _ = random_structured_matrix(rng, d=3)
        st = jordan_chains(c)
        if st.max_defective_block == 1:
            continue
        gap_blocks = [st.blocks[n] for n in st.defective_gap_indices]
        others = [b for n, b in enumerate(st.blocks) if n not in st.defective_gap_indices]
        if any(abs(b.eigenvalue.real - st.mu) < 0.2 for b in others):
            continue  # need the gap eigenvalue isolated
        m_hat = sharpness_order(c, st.mu)
        assert m_hat <= st.max_defective_block - 1 + 0.1
        checked += 1
