"""Two-velocity relaxation model with uncertain relaxation rate.

In Fourier variables the density/sensitivity pair forms block lower
triangular 4x4 systems whose eigenvalues sigma/2 +- i sqrt(k^2 - sigma^2/4)
are independent of the coupling; the coupling derivative d_z sigma makes
both of them defective of order one.  The spectral gap sigma(z)/2 is the
same for every mode, so uniform constants require extremal eigenvalues of
the adapted forms over the whole (sigma, sigma_z) parameter box and over k,
with the large-k limit 2I supplying the tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jordan import structure_from_chains
from .linalg import expm_apply, hermitian_extremes
from .lyapunov import DecayEnvelope, ModeEnvelope, build_form, decay_constant

__all__ = [
    "RelaxationField",
    "GTState",
    "relaxation_field",
    "tanh_relaxation",
    "gt_eigenvalues",
    "gt_mode_matrix",
    "gt_zero_mode_submatrix",
    "gt_chains",
    "gt_p_from_params",
    "gt_case1_p_from_params",
    "gt_uniform_constant",
    "gt_mode_envelope",
    "gt_state_from_functions",
    "gt_bump_state",
    "gt_deviation_norm_sq",
    "gt_theorem_check",
]


@dataclass(frozen=True)
class RelaxationField:
    """Relaxation rate sigma(z) with 0 < sigma0 <= sigma <= sigma1 < 2.

    The upper bound 2 keeps the mode eigenvalues strictly complex for k != 0
    (positive discriminant) and the chain vectors linearly independent; it is
    enforced here rather than discovered later.
    """

    sigma: Callable[[float], float]
    dsigma: Callable[[float], float]
    sigma0: float
    sigma1: float
    L: float  # sup |d_z sigma|

    def __post_init__(self):
        if not 0.0 < self.sigma0 <= self.sigma1 < 2.0:
            raise ValueError("need 0 < sigma0 <= sigma1 < 2")
        if self.L < 0:
            raise ValueError("L must be nonnegative")


def relaxation_field(sigma, dsigma, sigma0, sigma1, L) -> RelaxationField:
    return RelaxationField(sigma=sigma, dsigma=dsigma, sigma0=sigma0, sigma1=sigma1, L=L)


def tanh_relaxation() -> RelaxationField:
    """sigma(z) = 1 + 0.5 tanh z (sigma0 = 0.5, sigma1 = 1.5, L = 0.5)."""
    return RelaxationField(
        sigma=lambda z: 1.0 + 0.5 * np.tanh(z),
        dsigma=lambda z: 0.5 / np.cosh(z) ** 2,
        sigma0=0.5,
        sigma1=1.5,
        L=0.5,
    )


def gt_eigenvalues(sigma: float, k: int) -> tuple[complex, complex]:
    """lambda_+ and lambda_- of the 2x2 transport-relaxation block."""
    disc = k * k - 0.25 * sigma * sigma
    root = np.sqrt(complex(disc))
    return sigma / 2.0 + 1j * root, sigma / 2.0 - 1j * root


def gt_mode_matrix(field: RelaxationField, k: int, z: float) -> np.ndarray:
    s = field.sigma(z)
    sz = field.dsigma(z)
    ik = 1j * k
    return np.array(
        [
            [0, ik, 0, 0],
            [ik, s, 0, 0],
            [0, 0, 0, ik],
            [0, sz, ik, s],
        ],
        dtype=complex,
    )


def gt_zero_mode_submatrix(field: RelaxationField, z: float) -> np.ndarray:
    """The decaying (second/fourth component) block of the k = 0 mode."""
    return np.array([[field.sigma(z), 0.0], [field.dsigma(z), field.sigma(z)]], dtype=complex)


def _v0(lam_opp: complex, k: int) -> np.ndarray:
    return np.array([-1j * lam_opp / k, 1.0, 0.0, 0.0], dtype=complex)


def _v1(lam_opp: complex, k: int, sz: float) -> np.ndarray:
    c = 1.0 - lam_opp**2 / k**2
    return np.array(
        [
            1j * lam_opp**2 / (2.0 * k**3),
            lam_opp / (2.0 * k**2),
            -1j * lam_opp * c / (sz * k),
            c / sz,
        ],
        dtype=complex,
    )


def _v1_scaled(lam_opp: complex, k: int, sz: float) -> np.ndarray:
    """(sigma_z / 2) v1, continuous through sigma_z = 0."""
    c = 1.0 - lam_opp**2 / k**2
    return np.array(
        [
            1j * sz * lam_opp**2 / (4.0 * k**3),
            sz * lam_opp / (4.0 * k**2),
            -1j * lam_opp * c / (2.0 * k),
            c / 2.0,
        ],
        dtype=complex,
    )


def _v2(lam_opp: complex, k: int) -> np.ndarray:
    return np.array([0.0, 0.0, -1j * lam_opp / k, 1.0], dtype=complex)


def gt_chains(field: RelaxationField, k: int, z: float):
    """Adjoint chains of the 4x4 mode matrix as (eigenvalue, chain) pairs.

    For d_z sigma != 0 there are two length-2 blocks (one per eigenvalue
    branch); otherwise four eigenvectors.  Block eigenvalues are those of the
    mode matrix itself, so a chain labelled with lambda_- satisfies the
    adjoint relation with lambda_+.
    """
    if k == 0:
        raise ValueError("the zero mode is handled by its decaying subblock")
    s, sz = field.sigma(z), field.dsigma(z)
    lp, lm = gt_eigenvalues(s, k)
    if sz != 0.0:
        return [
            (np.conj(lp), [_v0(lm, k), _v1(lm, k, sz)]),
            (np.conj(lm), [_v0(lp, k), _v1(lp, k, sz)]),
        ]
    return [
        (np.conj(lp), [_v0(lm, k)]),
        (np.conj(lm), [_v0(lp, k)]),
        (np.conj(lp), [_v2(lm, k)]),
        (np.conj(lm), [_v2(lp, k)]),
    ]


def gt_p_from_params(sigma: float, sigma_z: float, k: int) -> np.ndarray:
    """Defective-branch P(0) as a function of the parameter box point.

    Built from the eigenvectors plus the sigma_z-scaled generalized vectors
    (weights 1 and sigma_z^2/4), which extends continuously to sigma_z = 0
    and converges to 2I as |k| grows.
    """
    lp, lm = gt_eigenvalues(sigma, k)
    p = np.zeros((4, 4), dtype=complex)
    for lam_opp in (lm, lp):
        v0 = _v0(lam_opp, k)
        u = _v1_scaled(lam_opp, k, sigma_z)
        p += np.outer(v0, v0.conj()) + np.outer(u, u.conj())
    return 0.5 * (p + p.conj().T)


def gt_case1_p_from_params(sigma: float, k: int) -> np.ndarray:
    """Non-defective P(0): all four eigenvector dyads with unit weights."""
    lp, lm = gt_eigenvalues(sigma, k)
    p = np.zeros((4, 4), dtype=complex)
    for lam_opp in (lm, lp):
        for v in (_v0(lam_opp, k), _v2(lam_opp, k)):
            p += np.outer(v, v.conj())
    return 0.5 * (p + p.conj().T)


def gt_uniform_constant(
    field: RelaxationField,
    k_max: int = 64,
    n_sigma: int = 13,
    n_dsigma: int = 9,
    tail_margin: float = 1.1,
) -> dict:
    """Extremal eigenvalues of the adapted forms over k and the parameter box.

    The box [sigma0, sigma1] x [-L, L] is sampled on a grid (the true
    extremes are over a continuum, so these are witnesses, not certificates);
    modes with |k| > k_max are covered by the 2I limit padded with
    ``tail_margin``.  Negative k give the same spectra by conjugation
    symmetry of the chain vectors, so only k >= 1 is swept.
    """
    sigmas = np.linspace(field.sigma0, field.sigma1, n_sigma)
    dsigmas = np.linspace(-field.L, field.L, n_dsigma) if field.L > 0 else np.array([0.0])
    lam_min_def, lam_max_def = np.inf, -np.inf
    lam_min_c1, lam_max_c1 = np.inf, -np.inf
    for k in range(1, k_max + 1):
        for s in sigmas:
            ext1 = hermitian_extremes(gt_case1_p_from_params(s, k))
            lam_min_c1 = min(lam_min_c1, ext1.lambda_min)
            lam_max_c1 = max(lam_max_c1, ext1.lambda_max)
            for sz in dsigmas:
                ext = hermitian_extremes(gt_p_from_params(s, sz, k))
                lam_min_def = min(lam_min_def, ext.lambda_min)
                lam_max_def = max(lam_max_def, ext.lambda_max)
    # k -> infinity limit of both constructions is 2I; pad it with the margin
    lam_min_def = min(lam_min_def, 2.0 / tail_margin)
    lam_max_def = max(lam_max_def, 2.0 * tail_margin)
    lam_min_c1 = min(lam_min_c1, 2.0 / tail_margin)
    lam_max_c1 = max(lam_max_c1, 2.0 * tail_margin)
    c_def = 12.0 * (lam_max_def / lam_min_def) * max(2.0, 1.0 + field.L**2 / 4.0)
    c_nondef = lam_max_c1 / lam_min_c1
    c_zero = 12.0 * max(2.0, 1.0 + field.L**2)
    return {
        "k_max": k_max,
        "tail_margin": tail_margin,
        "defective": {"lambda_min": lam_min_def, "lambda_max": lam_max_def, "C": c_def},
        "nondefective": {"lambda_min": lam_min_c1, "lambda_max": lam_max_c1, "C": c_nondef},
        "zero_mode_C": c_zero,
        "C_global": max(c_zero, c_def, 2.0 * c_nondef),
        "sigma0": field.sigma0,
        "grid": {"n_sigma": n_sigma, "n_dsigma": n_dsigma},
    }


def gt_mode_envelope(field: RelaxationField, k: int, z: float) -> ModeEnvelope:
    """Per-mode bound at one parameter value.

    k = 0: C0 (1 + t^2) e^{-2 sigma t} on the decaying two-dimensional
    subblock (the complement is conserved).  k != 0 defective:
    C_k (1 + t^2) e^{-sigma t}; non-defective: 2 C_k e^{-sigma t}.
    """
    s, sz = field.sigma(z), field.dsigma(z)
    if k == 0:
        c0 = 12.0 * max(2.0, 1.0 + sz * sz)
        return ModeEnvelope(DecayEnvelope(c0, s, 2), meta={"subspace": (1, 3)})
    st = structure_from_chains(gt_chains(field, k, z))
    if sz != 0.0:
        form = build_form(
            st, block_weights={0: np.array([1.0, sz * sz / 4.0]), 1: np.array([1.0, sz * sz / 4.0])}
        )
        env = decay_constant(st, form)
        return ModeEnvelope(env, meta={"defective": True})
    form = build_form(st)
    base = decay_constant(st, form)
    return ModeEnvelope(
        DecayEnvelope(2.0 * base.C_const, base.mu, 1), meta={"defective": False}
    )


@dataclass(frozen=True)
class GTState:
    """Mode coefficients of (f_+ + f_-, f_+ - f_-, g_+ + g_-, g_+ - g_-).

    ``coeffs`` has shape (2K+1, 4); row j holds mode k = j - K.  The zero
    mode carries the conserved masses: first component 1, third 0.
    """

    K: int
    coeffs: np.ndarray
    z: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * self.K + 1, 4):
            raise ValueError(f"coeffs must have shape {(2 * self.K + 1, 4)}")
        if abs(c[self.K, 0] - 1.0) > 1e-12 or abs(c[self.K, 2]) > 1e-12:
            raise ValueError("zero mode is not normalized (masses 1 and 0)")
        object.__setattr__(self, "coeffs", c)

    def mode(self, k: int) -> np.ndarray:
        return self.coeffs[k + self.K]


def gt_state_from_functions(f_plus, f_minus, g_plus, g_minus, K: int, z: float = 0.0) -> GTState:
    """Project the four densities onto modes via uniform-grid quadrature."""
    n = max(512, 8 * K)
    x = 2.0 * np.pi * np.arange(n) / n
    ks = np.arange(-K, K + 1)
    ft = np.exp(-1j * np.outer(ks, x)) / n
    fp = ft @ np.asarray([f_plus(xi) for xi in x], dtype=complex)
    fm = ft @ np.asarray([f_minus(xi) for xi in x], dtype=complex)
    gp = ft @ np.asarray([g_plus(xi) for xi in x], dtype=complex)
    gm = ft @ np.asarray([g_minus(xi) for xi in x], dtype=complex)
    coeffs = np.column_stack([fp + fm, fp - fm, gp + gm, gp - gm])
    return GTState(K=K, coeffs=coeffs, z=z)


def gt_bump_state(K: int, z: float = 0.0) -> GTState:
    """Normalized bump data: mass-1 densities, massless sensitivities."""
    return gt_state_from_functions(
        lambda x: 0.5 + 0.3 * np.cos(x) + 0.05 * np.sin(2 * x),
        lambda x: 0.5 - 0.2 * np.sin(x),
        lambda x: 0.1 * np.cos(2 * x),
        lambda x: -0.1 * np.sin(x),
        K=K,
        z=z,
    )


def _gt_evolve_many(field: RelaxationField, state: GTState, z: float, t_grid) -> list[GTState]:
    """The state propagated to every time of ``t_grid``, one stacked
    propagation over all (mode, t) pairs."""
    mats = np.array([-gt_mode_matrix(field, k, z) for k in range(-state.K, state.K + 1)])
    out = expm_apply(mats, state.coeffs, t_grid).swapaxes(0, 1).copy()
    return [GTState(K=state.K, coeffs=c, z=z) for c in out]


def gt_evolve(field: RelaxationField, state: GTState, z: float, t: float) -> GTState:
    return _gt_evolve_many(field, state, z, [t])[0]


def gt_deviation_norm_sq(state: GTState) -> float:
    """sum_k |y_k - y_k_inf|^2 with the steady zero mode (1, 0, 0, 0)."""
    dev = np.array(state.coeffs, copy=True)
    dev[state.K, 0] -= 1.0
    return float(np.sum(np.abs(dev) ** 2))


def gt_theorem_check(
    field: RelaxationField,
    initial_state_fn: Callable[[float], GTState],
    z_grid,
    t_grid,
    k_max: int = 64,
    uniform: dict | None = None,
) -> dict:
    """Verify the global bound C (1 + t^2) e^{-sigma0 t} on a (z, t) grid.

    The uniform constant defaults to :func:`gt_uniform_constant` (pass a
    precomputed report to avoid resweeping).  Ratios use the supremum of the
    initial deviation over the z grid, as the statement does.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    uniform = uniform or gt_uniform_constant(field, k_max=k_max)
    states0 = [initial_state_fn(z) for z in z_grid]
    initial_sup = max(gt_deviation_norm_sq(s) for s in states0)
    norm_sq = np.empty((z_grid.size, t_grid.size))
    for i, (z, s0) in enumerate(zip(z_grid, states0)):
        norm_sq[i] = [gt_deviation_norm_sq(s) for s in _gt_evolve_many(field, s0, z, t_grid)]
    bound = uniform["C_global"] * (1.0 + t_grid**2) * np.exp(-field.sigma0 * t_grid) * initial_sup
    ratio = norm_sq / bound[None, :]
    return {
        "z_grid": z_grid,
        "t_grid": t_grid,
        "norm_sq": norm_sq,
        "bound": bound,
        "ratio": ratio,
        "max_ratio": float(np.max(ratio)),
        "passed": bool(np.max(ratio) <= 1.0 + 1e-9),
        "uniform": uniform,
        "initial_sup": float(initial_sup),
    }
