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
        mu = np.array([self.mu_of_z(z) for z in zg])
        if np.any(mu < self.mu_min * (1.0 - 1e-12)):
            raise ValueError("mu(z) drops below mu_min on the grid")
        # sanity: the supplied derivative must match central differences
        # (interior points only; a sampled family may clamp at the grid edges)
        zin = zg[1:-1] if zg.size >= 3 else zg
        h = 1e-5 * (1.0 + np.abs(zin))
        num = np.array([
            (self.mu_of_z(z + hz) - self.mu_of_z(z - hz)) / (2 * hz) for z, hz in zip(zin, h)
        ])
        ana = np.array([self.dmu_of_z(z) for z in zin])
        scale = 1.0 + np.abs(ana) + np.abs(num)
        if np.max(np.abs(num - ana) / scale) > 1e-4:
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


def grid_sup_envelope(fam: ParamFamily, t_grid) -> np.ndarray:
    """Pointwise max over the z grid of log ||exp(-C(z) t)||_2^2.

    Kept as a log, so it stays finite where the norm underflows; its
    ``np.exp`` is a lower bound of the true z-supremum.  Refining the grid
    cannot decrease the result only when the finer grid contains the coarser
    one (nested grids); a non-nested grid may miss the old maximizer.  The
    matrices of the whole grid go to :func:`propagator_lognorm` as one stack.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    mats = np.array([family_matrix(fam, z) for z in fam.z_grid])
    return np.max(2.0 * propagator_lognorm(mats, t_grid), axis=0, initial=-np.inf)
