"""Uniform-in-parameter envelopes for the 2x2 rate family.

The family C(z) = [[mu(z), mu'(z)], [0, mu(z)]] is defective wherever
mu'(z) != 0, while the global rate is governed by mu_min = inf mu.  Whether
the uniform-in-z propagator bound keeps an algebraic factor depends on how
mu approaches its minimum: a quadratic minimum forces linear-in-t growth of
the modulating supremum, an exponential approach leaves the bound purely
exponential.  Closed-form suprema exist for those two built-in families;
for everything else the supremum is taken over a user grid and is therefore
a certified lower bound of the true supremum only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import as_cmatrix, hermitian_extremes, spectral_norm
from .oracle import propagator_lognorm

__all__ = [
    "ParamFamily",
    "family_matrix",
    "grid_sup_envelope",
    "quadratic_family",
    "exponential_family",
    "constant_family",
    "sup_f1",
    "uniform_envelope_quadratic",
    "uniform_envelope_exponential",
]


@dataclass(frozen=True)
class ParamFamily:
    mu_of_z: Callable[[float], float]
    dmu_of_z: Callable[[float], float]
    mu_min: float
    z_grid: np.ndarray = field(default_factory=lambda: np.linspace(-5.0, 5.0, 201))
    #: p(t) of a closed-form uniform-in-z bound p(t) exp(-2 mu_min t), if one is
    #: known; the built-in families take it as their bound at mu_min = 0
    prefactor: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.mu_min <= 0:
            raise ValueError("mu_min must be positive")
        zg = np.asarray(self.z_grid, dtype=float)
        # a value that overflows is an error of its own, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            mu = np.array([self.mu_of_z(z) for z in zg])
            dmu = np.array([self.dmu_of_z(z) for z in zg])
        for name, vals in (("mu", mu), ("mu'", dmu)):
            bad = np.flatnonzero(~np.isfinite(vals))
            if bad.size:
                z, v = float(zg[bad[0]]), float(vals[bad[0]])
                raise ValueError(f"{name}(z) must be finite on the z grid, got {name}({z!r}) = {v!r}")
        if np.any(mu < self.mu_min * (1.0 - 1e-12)):
            raise ValueError("mu(z) drops below mu_min on the grid")
        # sanity: the supplied derivative must match central differences
        # (interior points only; a sampled family may clamp at the grid edges)
        zin, ana = (zg[1:-1], dmu[1:-1]) if zg.size >= 3 else (zg, dmu)
        h = 1e-5 * (1.0 + np.abs(zin))
        num = np.array([
            (self.mu_of_z(z + hz) - self.mu_of_z(z - hz)) / (2 * hz) for z, hz in zip(zin, h)
        ])
        # halved, so that neither side overflows where |mu'| nears the largest double
        scale = 0.5 + 0.5 * np.abs(ana) + 0.5 * np.abs(num)
        if np.max(np.abs(0.5 * num - 0.5 * ana) / scale) > 1e-4:
            raise ValueError("dmu_of_z is inconsistent with mu_of_z (central differences)")
        object.__setattr__(self, "z_grid", zg)


def quadratic_family(alpha: float, mu_min: float, z_grid=None) -> ParamFamily:
    """mu(z) = mu_min + alpha z^2 with its unique minimum at z = 0."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    kw = {} if z_grid is None else {"z_grid": np.asarray(z_grid, dtype=float)}
    return ParamFamily(
        mu_of_z=lambda z: mu_min + alpha * z * z,
        dmu_of_z=lambda z: 2.0 * alpha * z,
        mu_min=mu_min,
        prefactor=lambda t: uniform_envelope_quadratic(alpha, 0.0, t),
        **kw,
    )


def exponential_family(alpha: float, beta: float, mu0: float, z_grid=None) -> ParamFamily:
    """mu(z) = mu0 + alpha exp(beta z); the infimum mu0 is attained at infinity."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0.0 < abs(beta) < 2.0:
        raise ValueError("beta must satisfy 0 < |beta| < 2")
    kw = {} if z_grid is None else {"z_grid": np.asarray(z_grid, dtype=float)}
    return ParamFamily(
        mu_of_z=lambda z: mu0 + alpha * np.exp(beta * z),
        dmu_of_z=lambda z: alpha * beta * np.exp(beta * z),
        mu_min=mu0,
        prefactor=lambda t: uniform_envelope_exponential(alpha, beta, 0.0, t),
        **kw,
    )


def constant_family(mu0: float, z_grid=None) -> ParamFamily:
    kw = {} if z_grid is None else {"z_grid": np.asarray(z_grid, dtype=float)}
    return ParamFamily(lambda z: mu0, lambda z: 0.0, mu_min=mu0, prefactor=lambda t: 1.0, **kw)


def family_matrix(fam: ParamFamily, z: float) -> np.ndarray:
    return np.array(
        [[fam.mu_of_z(z), fam.dmu_of_z(z)], [0.0, fam.mu_of_z(z)]], dtype=complex
    )


def sup_f1(alpha: float, t: float) -> float:
    """sup over z of (1 + 4 alpha^2 z^2 t^2) exp(-2 alpha z^2 t).

    Piecewise closed form: 1 while alpha t <= 1/2, afterwards
    2 alpha t exp(-(2 alpha t - 1)/(2 alpha t)); continuous at the junction.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    at = alpha * t
    if at <= 0.5:
        return 1.0
    return float(2.0 * at * np.exp(-(2.0 * at - 1.0) / (2.0 * at)))


def uniform_envelope_quadratic(alpha: float, mu_min: float, t: float) -> float:
    """Uniform-in-z propagator bound 2 exp(-2 mu_min t) sup_z f1 for the quadratic family."""
    return 2.0 * np.exp(-2.0 * mu_min * t) * sup_f1(alpha, t)


def uniform_envelope_exponential(alpha: float, beta: float, mu0: float, t: float) -> float:
    """Uniform-in-z bound 2 exp(-2 mu0 t) for the exponential family.

    The modulating factor is maximal at its t = 0 value 1 for every z, so no
    algebraic factor survives; requires 0 < |beta| < 2.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0.0 < abs(beta) < 2.0:
        raise ValueError("beta must satisfy 0 < |beta| < 2")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(2.0 * np.exp(-2.0 * mu0 * t))


def _lognorm_sq_bound(mats, c_norm, ts) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds b of log ||exp(-C_k t_j)||_2^2 for a ``(n, d, d)`` stack
    with spectral norms ``c_norm`` at times ``ts``, shape ``(n, ts.size)``,
    and the rounding ``tol`` of a computed b and oracle value at each time.

    b = -2 omega_k t_j, with omega = lambda_min((C + C^H)/2) the logarithmic
    norm's lower bound: ||exp(-C t)||_2 <= exp(-omega t) for every square C
    (Soderlind, BIT 46 (2006)).  All omegas come from one stacked
    :func:`~lyapdecay.linalg.hermitian_extremes` call.  ``tol`` is
    u S (24 + 2 log2 S), with u the unit roundoff and
    S = 1 + 2 t max_k ||C_k||_2, which bounds |b|, the |log| of the oracle
    and 2^m for its m squarings at every point of the time.  It adds up:

    * eigvalsh is backward stable: the computed omega is off by a few
      u ||C||_2, so b is off by at most 6 u S, the product's rounding
      included;
    * the oracle's scaled exponential, and each level's normalisation and
      product, round the level's matrix by a few u relative, taken as 4 u;
      a rounding at level l moves log ||.|| 2^(m - l) times as much, so all
      levels move the squared norm's log by at most 2 (4 u) 2^(m + 1) <=
      16 u S;
    * each of the m <= log2 S + 1 log additions rounds a partial sum of
      size at most 2^l, weighted 2^(m - l): at most 2 u S (log2 S + 1) on
      the squared norm's log.

    The tests check every oracle value of their grids against b + tol.
    Where t ||C||_2 nears the largest double, b and tol may overflow to inf.
    At a time that is not finite and nonnegative they mean nothing and raise
    no warning: the oracle rejects that time.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        omega = hermitian_extremes(mats).lambda_min
        scale = 1.0 + 2.0 * np.max(c_norm) * ts
        return -2.0 * omega[:, None] * ts, np.finfo(float).eps / 2 * scale * (24.0 + 2.0 * np.log2(scale))


def grid_sup_envelope(fam: ParamFamily, t_grid) -> np.ndarray:
    """Pointwise max over the z grid of log ||exp(-C(z) t)||_2^2.

    Kept as a log, so it stays finite where the norm underflows; its
    ``np.exp`` is a lower bound of the true z-supremum.  Refining the grid
    cannot decrease the result only when the finer grid contains the coarser
    one (nested grids); a non-nested grid may miss the old maximizer.

    The oracle runs only at the points that can reach the maximum.  Each z
    has the upper bound b(z, t) = -2 omega(z) t of :func:`_lognorm_sq_bound`.
    At each t the oracle runs first at the seed, the z of the largest bound,
    and then at every other z whose bound plus ``tol``, the rounding of the
    bound and of the oracle, is not below the seed's value; an overflowed
    ``tol`` keeps every z.  The oracle value of a z left out is at most its
    bound plus ``tol``, below the seed's value, so it cannot be the maximum.
    The first call passes :func:`propagator_lognorm` the seeds' (z, t)
    pairs and validates the times; the second the ``(z, 1, d, d)`` stack
    against the times of the kept points, so ||C(z)||_2 is taken once per z.
    Every value taken is the oracle value of one point, and the result
    equals the maximum over the whole grid bit for bit.  They take the oracle's spectral-norm ladder
    (``spectral_levels=True``), which keeps family.csv's pinned digest.
    """
    ts = np.asarray(t_grid, dtype=float)
    mats = as_cmatrix(np.array([family_matrix(fam, z) for z in fam.z_grid]), stack=True)
    flat = ts.ravel()
    bound, tol = _lognorm_sq_bound(mats, spectral_norm(mats), flat)
    seed = np.argmax(bound, axis=0)
    best = 2.0 * propagator_lognorm(mats[seed], flat, spectral_levels=True)
    keep = ~(bound < best - tol)
    keep[seed, np.arange(flat.size)] = False
    # a point left out runs at t = 0, which costs nothing, and reads log 1 = 0:
    # it is masked so that it never wins
    rest = 2.0 * propagator_lognorm(mats[:, None], np.where(keep, flat, 0.0), spectral_levels=True)
    return np.maximum(best, np.where(keep, rest, -np.inf).max(axis=0)).reshape(ts.shape)
