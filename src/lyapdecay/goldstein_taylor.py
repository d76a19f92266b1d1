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

from .linalg import hermitian_extremes
from .lyapunov import DecayEnvelope, defect_one_constant
from .oracle import ModeModel, sweep

#: factor that pads the 2I limit covering the modes past k_max
_TAIL_MARGIN = 1.1

__all__ = [
    "RelaxationField",
    "tanh_relaxation",
    "gt_eigenvalues",
    "gt_mode_matrix",
    "gt_chains",
    "gt_p_from_params",
    "gt_case1_p_from_params",
    "gt_uniform_constant",
    "gt_mode_envelope",
    "gt_state_from_functions",
    "gt_bump_state",
    "gt_theorem_check",
    "MODEL",
]


@dataclass(frozen=True)
class RelaxationField:
    """Relaxation rate sigma(z) with 0 < sigma0 <= sigma <= sigma1 < 2.

    The upper bound 2 keeps the mode eigenvalues strictly complex for k != 0
    (positive discriminant) and the chain vectors linearly independent; it is
    enforced here rather than discovered later.  ``BOUNDS`` pairs each bound
    with its function and kind.
    """

    BOUNDS = (("sigma0", "sigma", "min"), ("sigma1", "sigma", "max"), ("L", "dsigma", "sup"))

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


def tanh_relaxation() -> RelaxationField:
    """sigma(z) = 1 + 0.5 tanh z (sigma0 = 0.5, sigma1 = 1.5, L = 0.5)."""
    return RelaxationField(
        sigma=lambda z: 1.0 + 0.5 * np.tanh(z),
        # cosh(z)^2 overflows past |z| = 355, where 1 / inf = 0 is right: no warning
        dsigma=np.errstate(over="ignore")(lambda z: 0.5 / np.cosh(z) ** 2),
        sigma0=0.5,
        sigma1=1.5,
        L=0.5,
    )


def gt_eigenvalues(sigma, k: int):
    """lambda_+ and lambda_- of the 2x2 transport-relaxation block, broadcast over sigma."""
    root = np.sqrt(np.asarray(k * k - 0.25 * sigma * sigma, dtype=complex))
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


def _vec(*entries) -> np.ndarray:
    """(..., 4) complex vectors from four entries that broadcast together."""
    return np.stack(np.broadcast_arrays(*entries), axis=-1, dtype=complex)


def _v0(lam_opp, k: int) -> np.ndarray:
    return _vec(-1j * lam_opp / k, 1.0, 0.0, 0.0)


def _cmul(a, b):
    """a * b from separately rounded products, as numpy's scalar multiply forms it (its array
    loops may fuse them, and a stacked P would then differ from one built point by point)."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def _v1_scaled(lam_opp, k: int, sz) -> np.ndarray:
    """(sigma_z / 2) v1, continuous through sigma_z = 0."""
    lam_sq = _cmul(lam_opp, lam_opp)
    c = 1.0 - lam_sq / k**2
    return _vec(
        1j * sz * lam_sq / (4.0 * k**3),
        sz * lam_opp / (4.0 * k**2),
        _cmul(-1j * lam_opp, c) / (2.0 * k),
        c / 2.0,
    )


def _v2(lam_opp, k: int) -> np.ndarray:
    return _vec(0.0, 0.0, -1j * lam_opp / k, 1.0)


def _dyad_sum(branches) -> np.ndarray:
    """Hermitian part of sum v v^H over each branch's (..., 4) vector stacks, branch by branch."""
    p = sum(sum(v[..., :, None] * v[..., None, :].conj() for v in vs) for vs in branches)
    return 0.5 * (p + np.swapaxes(p, -1, -2).conj())


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
            (np.conj(lp), [_v0(lm, k), (2.0 / sz) * _v1_scaled(lm, k, sz)]),
            (np.conj(lm), [_v0(lp, k), (2.0 / sz) * _v1_scaled(lp, k, sz)]),
        ]
    return [
        (np.conj(lp), [_v0(lm, k)]),
        (np.conj(lm), [_v0(lp, k)]),
        (np.conj(lp), [_v2(lm, k)]),
        (np.conj(lm), [_v2(lp, k)]),
    ]


def gt_p_from_params(sigma, sigma_z, k: int) -> np.ndarray:
    """Defective-branch P(0) as a function of the parameter box point.

    Built from the eigenvectors plus the sigma_z-scaled generalized vectors
    (weights 1 and sigma_z^2/4), which extends continuously to sigma_z = 0
    and converges to 2I as |k| grows.  ``sigma`` and ``sigma_z`` broadcast;
    the result has shape (..., 4, 4).
    """
    lp, lm = gt_eigenvalues(sigma, k)
    return _dyad_sum([(_v0(lam, k), _v1_scaled(lam, k, sigma_z)) for lam in (lm, lp)])


def gt_case1_p_from_params(sigma, k: int) -> np.ndarray:
    """Non-defective P(0): all four eigenvector dyads with unit weights, shape (..., 4, 4)."""
    lp, lm = gt_eigenvalues(sigma, k)
    return _dyad_sum([(_v0(lam, k), _v2(lam, k)) for lam in (lm, lp)])


def _box_range(tail, stacks) -> tuple[float, float]:
    """Smallest and largest of ``tail`` and the eigenvalues of Hermitian stacks, one call each."""
    lo, hi = zip(tail, *((e.lambda_min.min(), e.lambda_max.max()) for e in map(hermitian_extremes, stacks)))
    return float(min(lo)), float(max(hi))


def gt_uniform_constant(
    field: RelaxationField,
    k_max: int = 64,
    n_sigma: int = 13,
    n_dsigma: int = 9,
) -> dict:
    """Extremal eigenvalues of the adapted forms over k and the parameter box.

    The box [sigma0, sigma1] x [-L, L] is sampled on a grid (the true
    extremes are over a continuum, so these are witnesses, not certificates);
    modes with |k| > k_max are covered by the 2I limit padded with
    ``_TAIL_MARGIN``.  Negative k give the same spectra by conjugation
    symmetry of the chain vectors, so only k >= 1 is swept.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    sigmas = np.linspace(field.sigma0, field.sigma1, n_sigma)
    dsigmas = np.linspace(-field.L, field.L, n_dsigma) if field.L > 0 else np.array([0.0])
    ks = range(1, k_max + 1)
    # k -> infinity limit of both constructions is 2I; pad it with the margin
    tail = (2.0 / _TAIL_MARGIN, 2.0 * _TAIL_MARGIN)
    lam_min_def, lam_max_def = _box_range(tail, (gt_p_from_params(sigmas[:, None], dsigmas, k) for k in ks))
    lam_min_c1, lam_max_c1 = _box_range(tail, (gt_case1_p_from_params(sigmas, k) for k in ks))
    c_def = defect_one_constant(lam_max_def / lam_min_def, field.L**2 / 4.0)
    c_nondef = lam_max_c1 / lam_min_c1
    c_zero = defect_one_constant(1.0, field.L**2)
    return {
        "k_max": k_max,
        "tail_margin": _TAIL_MARGIN,
        "defective": {"lambda_min": lam_min_def, "lambda_max": lam_max_def, "C": c_def},
        "nondefective": {"lambda_min": lam_min_c1, "lambda_max": lam_max_c1, "C": c_nondef},
        "zero_mode_C": c_zero,
        "C_global": max(c_zero, c_def, 2.0 * c_nondef),
        "sigma0": field.sigma0,
        "grid": {"n_sigma": n_sigma, "n_dsigma": n_dsigma},
    }


def gt_mode_envelope(field: RelaxationField, k: int, z: float) -> DecayEnvelope:
    """Per-mode bound at one parameter value.

    k = 0: C0 (1 + t^2) e^{-2 sigma t} on the decaying two-dimensional
    subblock of entries 1 and 3 (the masses 0 and 2 are conserved).  k != 0 with
    sigma_z != 0 (defective): C_k (1 + t^2) e^{-sigma t} with
    C_k = 12 kappa(P(0)) max(2, 1 + sigma_z^2/4), P(0) from :func:`gt_p_from_params`;
    sigma_z == 0: 2 kappa(P(0)) e^{-sigma t}, P(0) from :func:`gt_case1_p_from_params`.
    """
    s, sz = field.sigma(z), field.dsigma(z)
    if k == 0:
        return DecayEnvelope(defect_one_constant(1.0, sz * sz), s, 2)
    if sz == 0.0:
        ext = hermitian_extremes(gt_case1_p_from_params(s, k))
        return DecayEnvelope(2.0 * (ext.lambda_max / ext.lambda_min), s / 2.0, 1)
    # P(0) stays continuous as sigma_z -> 0; the chains scale with
    # 2/sigma_z, and their weight sigma_z^2/4 underflows before sigma_z
    ext = hermitian_extremes(gt_p_from_params(s, sz, k))
    return DecayEnvelope(defect_one_constant(ext.lambda_max / ext.lambda_min, sz**2 / 4.0), s / 2.0, 2)


def gt_state_from_functions(f_plus, f_minus, g_plus, g_minus, K: int) -> np.ndarray:
    """(2K+1, 4) coefficients of (f_+ + f_-, f_+ - f_-, g_+ + g_-, g_+ - g_-), row j for
    mode k = j - K, by uniform-grid quadrature calling each density once on the nodes."""
    n = max(512, 8 * K)
    x = 2.0 * np.pi * np.arange(n) / n
    ks = np.arange(-K, K + 1)
    ft = np.exp(-1j * np.outer(ks, x)) / n
    densities = (f_plus, f_minus, g_plus, g_minus)
    fp, fm, gp, gm = (ft @ np.broadcast_to(f(x), x.shape).astype(complex) for f in densities)
    return np.column_stack([fp + fm, fp - fm, gp + gm, gp - gm])


def gt_bump_state(K: int) -> np.ndarray:
    """Normalized bump data: mass-1 densities, massless sensitivities."""
    return gt_state_from_functions(
        lambda x: 0.5 + 0.3 * np.cos(x) + 0.05 * np.sin(2 * x),
        lambda x: 0.5 - 0.2 * np.sin(x),
        lambda x: 0.1 * np.cos(2 * x),
        lambda x: -0.1 * np.sin(x),
        K=K,
    )


def gt_theorem_check(
    field: RelaxationField,
    initial_state_fn: Callable[[float], np.ndarray],
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
    return sweep(MODEL, field, initial_state_fn, z_grid, t_grid, k_max=k_max, uniform=uniform)


def _envelope(field: RelaxationField, k_max: int = 64, uniform: dict | None = None):
    # sweep calls this after its field check: a field off its BOUNDS skips the box sweep
    uniform = uniform or gt_uniform_constant(field, k_max=k_max)
    return {"uniform": uniform}, DecayEnvelope(uniform["C_global"], 0.5 * field.sigma0, 2)


#: (2K+1, 4) states, row j for mode k = j - K; the zero mode keeps its masses 1 and 0
MODEL = ModeModel(
    RelaxationField, {"builtin:tanh": tanh_relaxation}, _envelope,
    initial_state=lambda field, K, **options: gt_bump_state(K),
    systems={4: gt_mode_matrix}, conserved=[0, 2],
    message="zero mode is not normalized (masses 1 and 0)",
)
