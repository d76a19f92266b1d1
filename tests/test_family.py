import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapdecay.family import (
    ParamFamily,
    _lognorm_sq_bound,
    constant_family,
    exponential_family,
    family_matrix,
    grid_sup_envelope,
    quadratic_family,
    sup_f1,
    uniform_envelope_exponential,
    uniform_envelope_quadratic,
)
from lyapdecay.linalg import spectral_norm
from lyapdecay.oracle import propagator_lognorm


def test_family_matrix_constant_rate():
    fam = constant_family(1.3)
    np.testing.assert_allclose(family_matrix(fam, 0.7), 1.3 * np.eye(2))


def test_family_matrix_quadratic_entries():
    fam = quadratic_family(alpha=0.5, mu_min=1.0)
    m = family_matrix(fam, 1.0)
    np.testing.assert_allclose(m.real, [[1.5, 1.0], [0.0, 1.5]], atol=1e-12)
    # at the minimizer the matrix is diagonal (non-defective)
    np.testing.assert_allclose(family_matrix(fam, 0.0).real, np.diag([1.0, 1.0]))


def test_sup_f1_junction_and_zero():
    alpha = 0.8
    t_star = 0.5 / alpha
    assert sup_f1(alpha, t_star) == pytest.approx(1.0, rel=1e-12)
    assert sup_f1(alpha, t_star * (1 + 1e-9)) == pytest.approx(1.0, rel=1e-6)
    assert sup_f1(alpha, 0.0) == 1.0


def _grid_max_f1(alpha, t):
    # zoomed grid maximization of (1 + 4 a^2 z^2 t^2) exp(-2 a z^2 t)
    lo, hi = 0.0, 8.0
    best_z = 0.0
    for _ in range(6):
        z = np.linspace(lo, hi, 2001)
        f1 = (1.0 + 4.0 * alpha**2 * z**2 * t**2) * np.exp(-2.0 * alpha * z**2 * t)
        i = int(np.argmax(f1))
        best_z = z[i]
        width = (hi - lo) / 200.0
        lo, hi = max(0.0, best_z - width), best_z + width
    z = np.linspace(lo, hi, 2001)
    f1 = (1.0 + 4.0 * alpha**2 * z**2 * t**2) * np.exp(-2.0 * alpha * z**2 * t)
    return float(np.max(f1))


def test_sup_f1_value_and_grid_maximization():
    assert sup_f1(1.0, 1.0) == pytest.approx(2.0 * np.exp(-0.5), rel=1e-12)
    for alpha in (0.1, 1.0, 4.7, 10.0):
        for t in (0.1, 0.9, 3.0, 10.0):
            assert sup_f1(alpha, t) == pytest.approx(_grid_max_f1(alpha, t), abs=1e-6, rel=1e-6)


def test_uniform_quadratic_dominates_grid_propagators():
    alpha, mu_min = 1.0, 1.0
    fam = quadratic_family(alpha, mu_min, z_grid=np.linspace(-4, 4, 81))
    ts = np.linspace(0.0, 12.0, 25)
    for z in fam.z_grid[::8]:
        prop = np.exp(2.0 * propagator_lognorm(family_matrix(fam, z), ts))
        env = np.array([uniform_envelope_quadratic(alpha, mu_min, t) for t in ts])
        assert np.all(prop <= env * (1 + 1e-9))


def test_uniform_quadratic_small_time_branch():
    alpha, mu_min = 0.5, 2.0
    for t in (0.0, 0.4, 1.0):  # alpha t <= 1/2
        assert uniform_envelope_quadratic(alpha, mu_min, t) == pytest.approx(
            2.0 * np.exp(-2 * mu_min * t), rel=1e-12
        )


def test_uniform_quadratic_algebraic_growth():
    # envelope * e^{2 mu_min t} grows asymptotically like (4 alpha / e) t
    alpha, mu_min = 1.0, 1.0
    for t in (1e3, 1e4):
        # envelope * e^{2 mu_min t} equals 2 sup_f1 identically
        rescaled = 2.0 * sup_f1(alpha, t)
        assert rescaled / t == pytest.approx(4.0 * alpha / np.e, rel=0.05)


def test_uniform_exponential_values_and_dominance():
    alpha, beta, mu0 = 1.0, 1.0, 1.0
    ts = np.linspace(0.0, 8.0, 17)
    assert uniform_envelope_exponential(alpha, beta, mu0, 0.0) == pytest.approx(2.0)
    fam = exponential_family(alpha, beta, mu0, z_grid=np.linspace(-6, 2, 41))
    for z in fam.z_grid[::10]:
        prop = np.exp(2.0 * propagator_lognorm(family_matrix(fam, z), ts))
        env = np.array([uniform_envelope_exponential(alpha, beta, mu0, t) for t in ts])
        assert np.all(prop <= env * (1 + 1e-9))
    with pytest.raises(ValueError):
        uniform_envelope_exponential(1.0, 2.0, 1.0, 0.0)


def test_grid_sup_envelope_constant_family():
    fam = constant_family(0.9)
    ts = np.linspace(0.0, 6.0, 7)
    np.testing.assert_allclose(np.exp(grid_sup_envelope(fam, ts)), np.exp(-1.8 * ts), rtol=1e-10)


def test_grid_sup_envelope_within_closed_form():
    alpha, mu_min = 1.0, 1.0
    fam = quadratic_family(alpha, mu_min, z_grid=np.linspace(-3, 3, 61))
    ts = np.linspace(0.0, 8.0, 9)
    sup = np.exp(grid_sup_envelope(fam, ts))
    closed = np.array([uniform_envelope_quadratic(alpha, mu_min, t) for t in ts])
    assert np.all(sup <= closed * (1 + 1e-9))


def _exhaustive(fam, ts):
    """log ||exp(-C(z) t)||^2 at every (z, t) of the grid, one z at a time on
    the spectral ladder that grid_sup_envelope takes, and the bound at each
    point and the tolerance at each time that the pruning reads."""
    mats = np.array([family_matrix(fam, z) for z in fam.z_grid])
    loop = np.array([2.0 * propagator_lognorm(m, ts, spectral_levels=True) for m in mats]).reshape(-1, ts.size)
    bound, tol = _lognorm_sq_bound(mats, spectral_norm(mats), ts.ravel())
    return loop, bound, tol


def _same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


#: times up to the family command's default horizon, 1e6 and past underflow;
#: and a grid of t = 0 alone
SUP_TIMES = [np.concatenate([np.linspace(0.0, 20.0, 21), [1e6, 2000.0]]), np.zeros(3)]


@pytest.mark.parametrize("z_points", [1, 2, 241])
@pytest.mark.parametrize(
    "make",
    [
        lambda zg: quadratic_family(1.0, 1.0, z_grid=zg),
        lambda zg: exponential_family(1.0, 1.0, 1.0, z_grid=zg),
        lambda zg: constant_family(1.0, z_grid=zg),
    ],
    ids=["quadratic", "exponential", "constant"],
)
def test_grid_sup_envelope_bitwise_equals_per_z_loop(make, z_points):
    # a symmetric grid and one that is neither symmetric nor even
    grids = [np.linspace(-6.0, 6.0, z_points), -1.3 + 5.4 * np.linspace(0.0, 1.0, z_points) ** 2]
    for zg in grids:
        fam = make(zg)
        for ts in SUP_TIMES:
            loop, bound, tol = _exhaustive(fam, ts)
            # every oracle value lies below its bound within the rounding
            # the pruning allows for; no point could be pruned wrongly
            assert np.all(loop <= bound + tol)
            assert _same_bits(grid_sup_envelope(fam, ts), np.max(loop, axis=0))


def test_grid_sup_envelope_past_a_seed_that_is_not_the_maximiser():
    # the seed is the z of the largest bound, z = +-0.5 on the default grid;
    # the quadratic family's maximiser moves towards z = 0 as t grows
    fam = quadratic_family(1.0, 1.0, z_grid=np.linspace(-6.0, 6.0, 241))
    ts = np.linspace(0.0, 20.0, 100)
    loop, bound, _ = _exhaustive(fam, ts)
    seed = loop[np.argmax(bound, axis=0), np.arange(ts.size)]
    assert np.sum(np.max(loop, axis=0) > seed) > 50
    assert _same_bits(grid_sup_envelope(fam, ts), np.max(loop, axis=0))


def test_grid_sup_envelope_takes_each_input_norm_once_per_z(monkeypatch):
    # the oracle takes ||C||_2 of every matrix it is passed: the seeds' stack
    # holds one matrix per t, the rest one per z, not one per kept (z, t) pair
    from lyapdecay import family

    stacks = []

    def counted(c, t, **kwargs):
        stacks.append(np.shape(c)[:-2])
        return propagator_lognorm(c, t, **kwargs)

    monkeypatch.setattr(family, "propagator_lognorm", counted)
    fam = quadratic_family(1.0, 1.0, z_grid=np.linspace(-6.0, 6.0, 241))
    ts = np.linspace(0.0, 20.0, 100)
    grid_sup_envelope(fam, ts)
    assert stacks == [(100,), (241, 1)]


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    kind=st.sampled_from(["quadratic", "exponential"]),
    log_alpha=st.floats(-2.0, 2.0),
    log_mu=st.floats(-2.0, 1.0),
    beta=st.floats(0.05, 1.95) | st.floats(-1.95, -0.05),
    z_lo=st.floats(-8.0, 8.0),
    z_width=st.floats(0.0, 10.0),
    z_points=st.integers(1, 30),
    log_t_max=st.floats(-3.0, 6.0),
    t_points=st.integers(1, 12),
)
def test_grid_sup_envelope_equals_exhaustive_maximum_property(
    kind, log_alpha, log_mu, beta, z_lo, z_width, z_points, log_t_max, t_points
):
    # log-uniform rates and horizons up to t = 1e6; beta is the exponential
    # family's alone
    zg = np.linspace(z_lo, z_lo + z_width, z_points)
    if kind == "quadratic":
        fam = quadratic_family(10.0**log_alpha, 10.0**log_mu, z_grid=zg)
    else:
        fam = exponential_family(10.0**log_alpha, beta, 10.0**log_mu, z_grid=zg)
    ts = np.linspace(0.0, 10.0**log_t_max, t_points)
    loop, bound, tol = _exhaustive(fam, ts)
    assert np.all(loop <= bound + tol)
    assert _same_bits(grid_sup_envelope(fam, ts), np.max(loop, axis=0))


@pytest.mark.parametrize("t_grid", [[0.0, -1.0], [1.0, np.inf], [np.nan, 1.0], [-np.inf]])
def test_grid_sup_envelope_rejects_bad_times_with_the_oracle_error(t_grid):
    # omega = (|z| - 1/2)^2 is 0 at z = +-0.5, where -2 omega t is nan at t = inf;
    # the pruning bound may not warn before the oracle names the times
    fam = quadratic_family(1.0, 0.25, z_grid=np.linspace(-1.0, 1.0, 5))
    with pytest.raises(ValueError, match="^times must be finite and nonnegative$"):
        grid_sup_envelope(fam, t_grid)


def test_grid_sup_envelope_refinement_monotone():
    alpha, mu_min = 0.7, 1.0
    ts = np.linspace(0.0, 5.0, 6)
    coarse = grid_sup_envelope(quadratic_family(alpha, mu_min, z_grid=np.linspace(-3, 3, 11)), ts)
    fine = grid_sup_envelope(quadratic_family(alpha, mu_min, z_grid=np.linspace(-3, 3, 21)), ts)
    assert np.all(np.exp(fine) >= np.exp(coarse) - 1e-14)


def test_family_rejects_inconsistent_derivative():
    with pytest.raises(ValueError):
        ParamFamily(
            mu_of_z=lambda z: 1.0 + z * z,
            dmu_of_z=lambda z: 5.0 * z,  # wrong slope
            mu_min=1.0,
            z_grid=np.linspace(-1, 1, 11),
        )
