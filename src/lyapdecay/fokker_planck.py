"""Fokker-Planck sensitivity model in a scaled Hermite basis.

With a z-dependent drift a(z), the density modes relax independently at
rates k a(z) while the sensitivity modes couple as pairs (f_1, g_1),
(f_2, g_2 + alpha/sqrt(2)) and triples (f_{k-2}, f_k, g_k), alpha = a'/a.
Only the modes k = 1, 3 sit at the global spectral gap a(z): k = 1 is a
defect-one block handled by the adapted-norm envelope, k = 3 carries its
defect off the gap and is treated with the time-dependent construction on
the off-gap block, and k >= 4 admits a fixed diagonal norm certificate.
The steady state itself depends on z through g_inf = -(a'/(sqrt(2) a)) h_2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import expm_apply, hermitian_extremes
from .lyapunov import DecayEnvelope, defect_one_constant
from .oracle import ModeModel, sweep

__all__ = [
    "DriftField",
    "DiffusionField",
    "HermiteBasis",
    "drift_field",
    "sin_drift",
    "fp_mode_system",
    "fp_envelope_k12",
    "fp_envelope_k3",
    "fp_tilde_p3",
    "fp_k4_check",
    "fp_k4_envelope",
    "fp_minor_f",
    "fp_minor_g",
    "kuniform_constant",
    "fp_theorem_check",
    "fp_gaussian_state",
    "fp_diffusion_variant",
    "MODEL",
]


@dataclass(frozen=True)
class DriftField:
    """Drift a(z) with a0 = inf a > 0; alpha = a'/a drives the defects.
    ``BOUNDS`` pairs each bound with its function and kind."""

    BOUNDS = (("a0", "a", "min"), ("sup_da", "da", "sup"))

    a: Callable[[float], float]
    da: Callable[[float], float]
    a0: float
    sup_da: float

    def __post_init__(self):
        if self.a0 <= 0:
            raise ValueError("a0 must be positive")

    def alpha(self, z: float) -> float:
        return self.da(z) / self.a(z)


def drift_field(a, da, a0, sup_da) -> DriftField:
    return DriftField(a=a, da=da, a0=a0, sup_da=sup_da)


def sin_drift() -> DriftField:
    """a(z) = 1 + 0.3 sin z (a0 = 0.7, sup |a'| = 0.3)."""
    return DriftField(
        a=lambda z: 1.0 + 0.3 * np.sin(z),
        da=lambda z: 0.3 * np.cos(z),
        a0=0.7,
        sup_da=0.3,
    )


def _gamma(k: int) -> float:
    return np.sqrt((k - 1.0) / k)


def fp_mode_system(field: DriftField, k: int, z: float) -> np.ndarray:
    """Full mode matrix: k a [[1,0],[alpha,1]] for k = 1, 2 (acting on
    (f_k, g_k) resp. (f_2, g_2 + alpha/sqrt 2)); for k >= 3 the 3x3 system
    k a [[(k-2)/k,0,0],[0,1,0],[gamma(k) alpha, alpha, 1]] on (f_{k-2}, f_k, g_k)."""
    if k < 1:
        raise ValueError("k = 0 is the conserved mass mode")
    a = field.a(z)
    al = field.alpha(z)
    if k in (1, 2):
        return k * a * np.array([[1.0, 0.0], [al, 1.0]], dtype=complex)
    return (
        k
        * a
        * np.array(
            [
                [(k - 2.0) / k, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [_gamma(k) * al, al, 1.0],
            ],
            dtype=complex,
        )
    )


def fp_envelope_k12(field: DriftField, k: int, z: float) -> DecayEnvelope:
    """12 max{2, 1 + alpha^2} (1 + k^2 a^2 t^2) e^{-2 k a t} wherever alpha != 0
    (weights (1, alpha^2) give P(0) = I); the exact exponential where alpha == 0."""
    if k not in (1, 2):
        raise ValueError("only the gap pair modes k = 1, 2")
    a = field.a(z)
    al = field.alpha(z)
    if al == 0:
        return DecayEnvelope(1.0, 1.0, 1).scaled(k * a)
    return DecayEnvelope(defect_one_constant(1.0, al * al), 1.0, 2).scaled(k * a)


def fp_tilde_p3(alpha: float) -> np.ndarray:
    """Adapted form of the k = 3 triple at t = 0 for alpha != 0."""
    r = np.sqrt(1.5) * alpha
    return np.array(
        [[1.0 + 1.5 * alpha * alpha, 0.0, r], [0.0, 1.0, 0.0], [r, 0.0, 1.0]], dtype=complex
    )


def fp_envelope_k3(field: DriftField, z: float) -> DecayEnvelope:
    """Bound C3(z) e^{-2 a t} for the k = 3 triple; no algebraic factor.

    The defective eigenvalue sits off the gap mu = 1/3 (in the k a-rescaled
    time), so the time-dependent construction on its block with weights
    (alpha^-2, 1) yields, wherever alpha != 0, C3 = 12 kappa max{2, 1 + alpha^2}
    with kappa the condition number of P(0) = :func:`fp_tilde_p3`; its
    algebraic factor is absorbed by the gap surplus 2/3.  The constant stays
    bounded as alpha -> 0; at alpha == 0 the triple is diagonal and C3 = 1.
    """
    a = field.a(z)
    al = field.alpha(z)
    if al == 0:
        return DecayEnvelope(1.0, 1.0 / 3.0, 1).scaled(3.0 * a)
    ext = hermitian_extremes(fp_tilde_p3(al))
    c = defect_one_constant(ext.lambda_max / ext.lambda_min, al * al)
    return DecayEnvelope(c, 1.0 / 3.0, 1).scaled(3.0 * a)


def _p_tilde_k4(alpha: float) -> np.ndarray:
    p33 = 0.5 * min(1.0, alpha ** (-4.0)) if alpha != 0.0 else 0.5
    return np.diag([1.0, 1.0, p33]).astype(complex)


def fp_k4_check(field: DriftField, k: int, z: float) -> dict:
    """Positive definiteness certificate for the k >= 4 diagonal norm.

    A_k = C_k^H P~ + P~ C_k - P~/2 with P~ = diag(1, 1, min{1, alpha^-4}/2)
    and C_k the unscaled triple matrix; returns the leading minors and the
    determinant along with the verdict.
    """
    if k < 4:
        raise ValueError("certificate applies to k >= 4")
    al = field.alpha(z)
    c = fp_mode_system(field, k, z) / (k * field.a(z))
    p = _p_tilde_k4(al)
    a_mat = c.conj().T @ p + p @ c - 0.5 * p
    a_mat = 0.5 * (a_mat + a_mat.conj().T)
    minors = [float(np.linalg.det(a_mat[:j, :j].real)) for j in (1, 2, 3)]
    return {
        "A": a_mat,
        "minors": minors,
        "det": minors[2],
        "positive_definite": bool(all(m > 0 for m in minors)),
    }


def fp_minor_f(k: float, alpha_sq: float, gamma: float) -> float:
    """Determinant factor for |alpha| >= 1; equals 1/8 at (4, 1, 1)."""
    return (1.5 - 4.0 / k) * (2.25 - 0.5 / alpha_sq) - 0.75 * gamma * gamma / alpha_sq


def fp_minor_g(k: float, alpha_sq: float, gamma: float) -> float:
    """Determinant factor for |alpha| <= 1; equals 1/8 at (4, 1, 1)."""
    return (1.5 - 4.0 / k) * (2.25 - 0.5 * alpha_sq) - 0.75 * gamma * gamma * alpha_sq


def fp_k4_envelope(field: DriftField, k: int, z: float) -> DecayEnvelope:
    """Reported bound 2 max{1, alpha^4} e^{-2 a t} for k >= 4.

    The certificate actually gives the faster rate k a / 2 >= 2 a; the
    reported envelope uses the gap-comparable rate, which is all the global
    statement needs.
    """
    if k < 4:
        raise ValueError("k >= 4 required")
    a = field.a(z)
    al = field.alpha(z)
    c = 2.0 * max(1.0, al**4)
    return DecayEnvelope(c, a, 1)


def kuniform_constant(field: DriftField) -> dict:
    """Global constant of the sensitivity bound,
    2 max{1, a0^2} [12 max{2, 1+r^2} (7 + 21/4 r^4) + 2 (1 + r^4)], r = sup|a'|/a0."""
    r = field.sup_da / field.a0
    c12 = defect_one_constant(1.0, r * r)
    c3 = (6.0 + 5.25 * r**4) * c12
    c4 = 2.0 * (1.0 + r**4)
    total = 2.0 * max(1.0, field.a0**2) * (c12 + c3 + c4)
    return {"C_12": c12, "C_3": c3, "C_ge4": c4, "C_global": total, "ratio": r, "a0": field.a0}


def _evolve(field: DriftField, state: np.ndarray, z: float, t_grid) -> np.ndarray:
    """The (2, K+1) state, rows f and g with f_0 = 1 and g_0 = 0, at every time of
    ``t_grid`` as a C-contiguous (T, 2, K+1) array: one stacked exact propagation
    for the 2x2 pairs k = 1, 2 and one for the 3x3 triples."""
    f, g0 = np.asarray(state, dtype=float)
    if abs(f[0] - 1.0) > 1e-12 or abs(g0[0]) > 1e-12:
        raise ValueError("state is not normalized (f_0 = 1, g_0 = 0)")
    t_grid = np.asarray(t_grid, dtype=float)
    a = field.a(z)
    shift = field.alpha(z) / np.sqrt(2.0)
    K = f.size - 1
    out = np.zeros((t_grid.size, 2, K + 1))
    out[:, 0] = f * np.exp(-a * t_grid[:, None] * np.arange(K + 1))
    g = out[:, 1]
    if K >= 1:
        pairs = [(f[1], g0[1])] + ([(f[2], g0[2] + shift)] if K >= 2 else [])
        mats = np.array([-fp_mode_system(field, k, z) for k in range(1, len(pairs) + 1)])
        y = expm_apply(mats, pairs, t_grid)
        g[:, 1] = y[0, :, 1].real
        if K >= 2:
            g[:, 2] = y[1, :, 1].real - shift
    if K >= 3:
        mats = np.array([-fp_mode_system(field, k, z) for k in range(3, K + 1)])
        triples = np.column_stack([f[1 : K - 1], f[3:], g0[3:]])
        g[:, 3:] = expm_apply(mats, triples, t_grid)[:, :, 2].real.T
    return out


def _deviation_sq(field: DriftField, state: np.ndarray, z: float) -> np.ndarray:
    """Squared weighted-L2 distance of (f, g), per state of a stack, to its steady state.

    The g-part measures g + (alpha/sqrt 2) h_2 since the sensitivity steady
    state is -(a'/(sqrt 2 a)) h_2.
    """
    al = field.alpha(z)
    f, g = state[..., 0, :], state[..., 1, :]
    dev_f = np.sum(f[..., 1:] ** 2, axis=-1)
    g2 = g[..., 2] + al / np.sqrt(2.0) if g.shape[-1] > 2 else 0.0
    dev_g = g[..., 1] ** 2 + g2 * g2 + np.sum(g[..., 3:] ** 2, axis=-1)
    return dev_f + dev_g


def fp_theorem_check(
    field: DriftField,
    initial_state_fn: Callable[[float], np.ndarray],
    z_grid,
    t_grid,
) -> dict:
    """Verify sup_z deviations against C (1 + t^2) e^{-2 a0 t} x initial."""
    return sweep(MODEL, field, initial_state_fn, z_grid, t_grid)


def _envelope(field: DriftField):
    consts = kuniform_constant(field)
    return {"constants": consts}, DecayEnvelope(consts["C_global"], field.a0, 2)


class HermiteBasis:
    """Hermite functions rescaled to the steady Gaussian of width 1/sqrt(a).

    Evaluation uses the stable three-term recurrence; projections onto the
    weighted space use Gauss-Hermite quadrature with 2K + 8 nodes after the
    change of variable that absorbs the a-scaling (exact for polynomial
    times steady-Gaussian integrands up to the basis degree).
    """

    def __init__(self, K: int, a: float):
        if K < 0 or a <= 0:
            raise ValueError("need K >= 0 and a > 0")
        self.K = K
        self.a = a
        s, w = np.polynomial.hermite.hermgauss(2 * K + 8)
        self.nodes = s
        self.weights = w
        # total weights w_j e^{s_j^2}, formed in log space to dodge underflow
        self.total_weights = np.exp(np.log(w) + s * s)

    def hermite_table(self, y) -> np.ndarray:
        """H_k(y)/sqrt(k!) for the probabilists' polynomials, k = 0..K, as
        rows of one (K + 1, ...) table from one run of the recurrence."""
        y = np.asarray(y, dtype=float)
        table = np.empty((self.K + 1,) + y.shape)
        table[0] = 1.0
        if self.K >= 1:
            table[1] = y
        for j in range(1, self.K):
            table[j + 1] = (y * table[j] - np.sqrt(j) * table[j - 1]) / np.sqrt(j + 1.0)
        return table

    def project(self, f: Callable[[float], float]) -> np.ndarray:
        """Coefficients <f, h_k> in the (steady-state weighted) inner product.

        Reduces to int f(x) H_k(x sqrt a)/sqrt(k!) dx, evaluated by the
        change of variable x = s sqrt(2/a) on the quadrature nodes.
        """
        x = self.nodes * np.sqrt(2.0 / self.a)
        fx = np.asarray([f(xi) for xi in x], dtype=float)
        scale = np.sqrt(2.0 / self.a)
        table = self.hermite_table(np.sqrt(2.0) * self.nodes)
        return scale * np.sum(self.total_weights * fx * table, axis=1)


def fp_gaussian_state(field: DriftField, z: float, K: int = 40) -> np.ndarray:
    """Shifted-Gaussian density f plus a massless odd sensitivity g, projected as rows.

    The density is the unit-mass, unit-precision Gaussian centered at 0.4;
    its weighted norm is finite only where a(z) < 2.  The sensitivity is
    0.5 (x - 0.4) times that Gaussian.
    """
    a = field.a(z)
    if a >= 2.0:
        raise ValueError(f"the Gaussian initial state needs drift a(z) < 2, got a({z}) = {a}")
    basis = HermiteBasis(K, a)

    def density(x):
        return np.sqrt(1.0 / (2.0 * np.pi)) * np.exp(-0.5 * (x - 0.4) ** 2)

    f = basis.project(density)
    g = basis.project(lambda x: 0.5 * (x - 0.4) * density(x))
    f[0] = 1.0
    g[0] = 0.0
    return np.array([f, g])


@dataclass(frozen=True)
class DiffusionField:
    """Diffusion coefficient d(z) >= d0 > 0 for the diffusion-uncertainty variant."""

    d: Callable[[float], float]
    dd: Callable[[float], float]
    d0: float

    def __post_init__(self):
        if self.d0 <= 0:
            raise ValueError("d0 must be positive")


def fp_diffusion_variant(k: int, z: float, dfield: DiffusionField) -> tuple[np.ndarray, DecayEnvelope | None]:
    """Mode pair matrix and bound for uncertainty in the diffusion term.

    The pair (u_{k-2}, v_k) evolves with the non-defective matrix
    [[k-2, 0], [-(d'/d) sqrt((k-1)k), k]] (the coupling sign makes the
    steady sensitivity +d'/(sqrt 2 d) h_2), eigenvalues k-2 and k, so the
    decay is purely exponential; the reported global bound is C e^{-t}
    (no algebraic factor).  At k = 2 the bound is ``None``: u_0 is conserved,
    so no decaying bound of the pair exists, and only the deviation
    (0, v_2 - v_2_inf) decays, at rate 2.
    """
    if k < 2:
        raise ValueError("pairs start at k = 2")
    coupling = -dfield.dd(z) / dfield.d(z) * np.sqrt((k - 1.0) * k)
    a_mat = np.array([[k - 2.0, 0.0], [coupling, float(k)]], dtype=complex)
    if k == 2:
        return a_mat, None
    # P(0) sums the dyads of the two eigenvectors of A^H, (1, 0) and v
    v = np.array([np.conj(coupling) / 2.0, 1.0], dtype=complex)
    ext = hermitian_extremes(np.diag([1.0, 0.0]) + np.outer(v, v.conj()))
    return a_mat, DecayEnvelope(ext.lambda_max / ext.lambda_min, k - 2.0, 1)


#: real (2, K+1) Hermite states, rows f and g, with their own evolve and deviation
MODEL = ModeModel(
    DriftField, {"builtin:sin": sin_drift}, _envelope,
    initial_state=lambda field, K: lambda z: fp_gaussian_state(field, z=z, K=K),
    # the outermost mode K as _deviation_sq counts it, with g_2 + alpha/sqrt 2 at K = 2
    tail=lambda field, s, z: float(
        s[0, -1] ** 2 + (s[1, -1] + (field.alpha(z) / np.sqrt(2.0) if s.shape[1] == 3 else 0.0)) ** 2
    ),
    own_evolve=_evolve, own_deviation=_deviation_sq,
)
