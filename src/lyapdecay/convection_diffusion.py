"""Per-mode sensitivity systems for periodic convection-diffusion.

A Fourier transform of the transport-diffusion equation with z-dependent
convection a(z) and diffusion b(z) decouples into 2x2 mode systems for
(u_k, d_z u_k) and 3x3 systems for (u_k, d_z u_k, d_zz u_k).  Both are lower
triangular with the k-fold eigenvalue lambda_k = b + i a / k and become
defective exactly where the z-derivatives of lambda_k do not vanish, so the
adapted-norm machinery delivers per-mode envelopes whose constants stay
bounded in the non-defective limits; Parseval's identity lifts them to the
global bound with rate 2 b0 = 2 inf b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lyapunov import DecayEnvelope, defect_one_constant, sup_poly_exp
from .oracle import ModeModel, sweep

__all__ = [
    "CoefficientField",
    "tanh_field",
    "trig_field",
    "lambda_k",
    "first_order_system",
    "first_order_envelope",
    "second_order_system",
    "second_order_envelope",
    "fourier_coefficients",
    "gaussian_bump_state",
    "theorem_bound_check",
    "MODEL",
]

#: fold factor for (1 + x) <= kappa (1 + x^2), x >= 0
_KAPPA_12 = (1.0 + np.sqrt(2.0)) / 2.0


@dataclass(frozen=True)
class CoefficientField:
    """Convection/diffusion coefficients and their z-derivatives.

    ``b0`` is a positive lower bound of b; the ``sup_*`` fields are sup-norm
    bounds of the derivative functions and enter the uniform constants.
    ``BOUNDS`` pairs each bound with its function and kind.
    """

    BOUNDS = (
        ("b0", "b", "min"), ("sup_da", "da", "sup"), ("sup_db", "db", "sup"),
        ("sup_d2a", "d2a", "sup"), ("sup_d2b", "d2b", "sup"),
    )

    a: Callable[[float], float]
    b: Callable[[float], float]
    da: Callable[[float], float]
    db: Callable[[float], float]
    b0: float
    sup_da: float
    sup_db: float
    d2a: Callable[[float], float] | None = None
    d2b: Callable[[float], float] | None = None
    sup_d2a: float = 0.0
    sup_d2b: float = 0.0

    def __post_init__(self):
        if self.b0 <= 0:
            raise ValueError("b0 must be positive")


def tanh_field() -> CoefficientField:
    """a(z) = z, b(z) = 2 + tanh z; first-order test field (b0 = 1)."""
    return CoefficientField(
        a=lambda z: z,
        b=lambda z: 2.0 + np.tanh(z),
        da=lambda z: 1.0,
        db=lambda z: 1.0 / np.cosh(z) ** 2,
        d2a=lambda z: 0.0,
        d2b=lambda z: -2.0 * np.tanh(z) / np.cosh(z) ** 2,
        b0=1.0,
        sup_da=1.0,
        sup_db=1.0,
        sup_d2a=0.0,
        sup_d2b=4.0 / (3.0 * np.sqrt(3.0)),
    )


def trig_field() -> CoefficientField:
    """a(z) = cos z, b(z) = 2 + sin^2 z; both dlambda derivatives vanish at z = 0
    while the second derivatives stay order one (defect-collapse witness)."""
    return CoefficientField(
        a=np.cos,
        b=lambda z: 2.0 + np.sin(z) ** 2,
        da=lambda z: -np.sin(z),
        db=lambda z: np.sin(2.0 * z),
        d2a=lambda z: -np.cos(z),
        d2b=lambda z: 2.0 * np.cos(2.0 * z),
        b0=2.0,
        sup_da=1.0,
        sup_db=1.0,
        sup_d2a=1.0,
        sup_d2b=2.0,
    )


def lambda_k(field: CoefficientField, k: int, z: float):
    """Mode eigenvalue lambda_k = b + i a / k and its first two z-derivatives."""
    if k == 0:
        raise ValueError("the k = 0 mode is conserved and carries no rate")
    lam = field.b(z) + 1j * field.a(z) / k
    dlam = field.db(z) + 1j * field.da(z) / k
    if field.d2a is None or field.d2b is None:
        d2lam = None
    else:
        d2lam = field.d2b(z) + 1j * field.d2a(z) / k
    return lam, dlam, d2lam


def first_order_system(field: CoefficientField, k: int, z: float) -> np.ndarray:
    """Full mode matrix k^2 [[lam, 0], [dlam, lam]] for (u_k, v_k)."""
    lam, dlam, _ = lambda_k(field, k, z)
    return k * k * np.array([[lam, 0.0], [dlam, lam]], dtype=complex)


def first_order_envelope(field: CoefficientField, k: int, z: float) -> DecayEnvelope:
    """Per-mode bound: exact exponential where dlambda == 0, else (defect one,
    weights (1, |dlam|^2), P(0) = I) 12 max{2, 1+|dlam|^2} (1 + k^4 t^2) e^{-2 k^2 b t}."""
    lam, dlam, _ = lambda_k(field, k, z)
    if dlam == 0:
        return DecayEnvelope(1.0, lam.real, 1).scaled(k * k)
    return DecayEnvelope(defect_one_constant(1.0, abs(dlam) ** 2), lam.real, 2).scaled(k * k)


def second_order_system(field: CoefficientField, k: int, z: float) -> np.ndarray:
    lam, dlam, d2lam = lambda_k(field, k, z)
    if d2lam is None:
        raise ValueError("second derivatives of the coefficients are required")
    return k * k * np.array(
        [[lam, 0, 0], [dlam, lam, 0], [d2lam, 2.0 * dlam, lam]], dtype=complex
    )


def _defect_two_constant(dlam_sq: float, d2lam_sq: float) -> float:
    """1 + (12 + 585 (1+|d2lam|^2)) max{1, |dlam|^2}^2, bounded as dlam -> 0."""
    return 1.0 + (12.0 + 585.0 * (1.0 + d2lam_sq)) * max(1.0, dlam_sq) ** 2


def second_order_envelope(field: CoefficientField, k: int, z: float) -> DecayEnvelope:
    """Per-mode bound for the 3x3 sensitivity system, by exact-zero tests.

    dlam != 0 (defect two): [1 + (12 + 585 (1+|d2lam|^2)) max{1, |dlam|^4}]
    (1 + k^8 t^4) e^{-2 k^2 b t}; this constant stays bounded as dlam -> 0
    with d2lam fixed, which the fixed-ladder route does not achieve.
    dlam == 0, d2lam != 0 (defect one, P(0) = I): 12 max{2, 1+|d2lam|^2}
    (1 + k^4 t^2) e^{-2 k^2 b t}.  dlam == d2lam == 0: exact exponential.
    """
    lam, dlam, d2lam = lambda_k(field, k, z)
    if d2lam is None:
        raise ValueError("second derivatives of the coefficients are required")
    if dlam != 0:
        env = DecayEnvelope(_defect_two_constant(abs(dlam) ** 2, abs(d2lam) ** 2), lam.real, 3)
    elif d2lam != 0:
        env = DecayEnvelope(defect_one_constant(1.0, abs(d2lam) ** 2), lam.real, 2)
    else:
        env = DecayEnvelope(1.0, lam.real, 1)
    return env.scaled(k * k)


def fourier_coefficients(samples, K: int) -> np.ndarray:
    """Coefficients c_k = (1/N) sum_j f(x_j) exp(-i k x_j), k = -K..K.

    Plain quadrature on the uniform 2 pi grid (exact below the Nyquist mode
    of the sample grid); no FFT machinery involved.
    """
    f = np.asarray(samples, dtype=complex)
    n = f.size
    if n <= 2 * K:
        raise ValueError("need more than 2K samples")
    x = 2.0 * np.pi * np.arange(n) / n
    ks = np.arange(-K, K + 1)
    return np.exp(-1j * np.outer(ks, x)) @ f / n


def gaussian_bump_state(K: int, order: int = 1, v_amp: float = 0.0) -> np.ndarray:
    """Normalized state u = 1 + 0.5 (periodic Gaussian bump - mean), the bump
    being exp(2 (cos x - 1)).

    Optional ``v_amp`` seeds the first sensitivity with a shifted copy of the
    bump (zero mean, so the mass constraints stay exact).
    """
    n = max(512, 8 * K)
    x = 2.0 * np.pi * np.arange(n) / n
    bump = np.exp(2.0 * (np.cos(x) - 1.0))
    c = fourier_coefficients(bump, K)
    coeffs = np.zeros((2 * K + 1, order + 1), dtype=complex)
    coeffs[:, 0] = 0.5 * c
    coeffs[K, 0] = 1.0
    if v_amp:
        shifted = np.exp(2.0 * (np.cos(x - 1.0) - 1.0))
        cv = fourier_coefficients(shifted, K)
        coeffs[:, 1] = v_amp * cv
        coeffs[K, 1] = 0.0
    return coeffs


def assembled_constants(field: CoefficientField, order: int) -> dict:
    """Uniform mode constant and k-folding factor for the global bound."""
    if order == 1:
        sup_dlam_sq = field.sup_da**2 + field.sup_db**2
        mode_const = defect_one_constant(1.0, sup_dlam_sq)
        fold = sup_poly_exp(2, 2.0 * field.b0)
        return {
            "mode_const": mode_const,
            "fold_const": fold,
            "C_global": mode_const * fold,
            "b0": field.b0,
        }
    s1_sq = field.sup_da**2 + field.sup_db**2
    s2_sq = field.sup_d2a**2 + field.sup_d2b**2
    case2 = defect_one_constant(1.0, s2_sq)
    case3 = _defect_two_constant(s1_sq, s2_sq)
    mode_const = max(1.0, _KAPPA_12 * case2, case3)
    fold = sup_poly_exp(4, 2.0 * field.b0)
    return {
        "mode_const": mode_const,
        "fold_const": fold,
        "C_global": mode_const * fold,
        "case2_const": case2,
        "case3_const": case3,
        "b0": field.b0,
    }


def theorem_bound_check(
    field: CoefficientField,
    initial_state_fn: Callable[[float], np.ndarray],
    z_grid,
    t_grid,
    order: int = 1,
) -> dict:
    """Verify the global sensitivity bound on a (z, t) grid.

    Checks  sup_z ||y(., z, t) - y_inf||^2 <= C (1 + t^(2 order)) e^{-2 b0 t}
    times the supremum of the initial deviation, with C assembled from the
    uniform mode constant and the k-folding factor.  Returns the
    :func:`~lyapdecay.oracle.sweep` report plus the constants.
    """
    return sweep(MODEL, field, initial_state_fn, z_grid, t_grid, order=order)


def _envelope(field: CoefficientField, order: int = 1):
    consts = assembled_constants(field, order)
    return {"constants": consts}, DecayEnvelope(consts["C_global"], field.b0, order + 1)


#: (2K+1, order+1) states, row j for mode k = j - K; zero mode (1, 0[, 0])
MODEL = ModeModel(
    CoefficientField, {"builtin:tanh": tanh_field, "builtin:trig": trig_field}, _envelope,
    initial_state=lambda field, K, order=1: gaussian_bump_state(K, order=order, v_amp=0.3),
    # the outermost two modes on each side, without the conserved k = 0 (at K = 1, k = -1 and 1)
    tail=lambda field, s, z: float(np.sum(np.abs(s[[0, 1, -2, -1] if len(s) > 3 else [0, -1]]) ** 2) / (2.0 * np.pi)),
    systems={2: first_order_system, 3: second_order_system}, conserved=slice(None), weight=2.0 * np.pi,
    message="state is not normalized (u_0 = 1 and zero-mass sensitivities)",
)
