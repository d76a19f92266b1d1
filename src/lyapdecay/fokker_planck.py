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
from functools import partial
from typing import Callable

import numpy as np

from .jordan import structure_from_chains
from .linalg import expm_apply
from .lyapunov import (
    DecayEnvelope,
    ModeEnvelope,
    build_form,
    decay_constant,
    tilde_constant,
)
from .oracle import _check_field_bounds, sweep

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
    "fp_delta",
    "fp_k4_check",
    "fp_k4_envelope",
    "fp_minor_f",
    "fp_minor_g",
    "kuniform_constant",
    "fp_evolve",
    "fp_deviation_norm_sq",
    "fp_theorem_check",
    "fp_gaussian_state",
    "fp_semidiscrete_residual",
    "fp_diffusion_variant",
]


@dataclass(frozen=True)
class DriftField:
    """Drift a(z) with a0 = inf a > 0; alpha = a'/a drives the defects."""

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


_DEFECT_TOL = 1e-14


def fp_envelope_k12(field: DriftField, k: int, z: float) -> ModeEnvelope:
    """12 max{2, 1 + alpha^2} (1 + k^2 a^2 t^2) e^{-2 k a t}, exact when alpha = 0."""
    if k not in (1, 2):
        raise ValueError("only the gap pair modes k = 1, 2")
    a = field.a(z)
    al = field.alpha(z)
    if abs(al) <= _DEFECT_TOL:
        return ModeEnvelope(DecayEnvelope(1.0, 1.0, 1), tscale=k * a, exact=True)
    v0 = np.array([1.0, 0.0], dtype=complex)
    v1 = np.array([0.0, 1.0 / al], dtype=complex)
    st = structure_from_chains([(1.0, [v0, v1])])
    form = build_form(st, block_weights={0: np.array([1.0, al * al])})
    env = decay_constant(st, form)
    return ModeEnvelope(env, tscale=k * a, meta={"alpha": al})


def fp_tilde_p3(alpha: float) -> np.ndarray:
    """Adapted form of the k = 3 triple at t = 0 for alpha != 0."""
    r = np.sqrt(1.5) * alpha
    return np.array(
        [[1.0 + 1.5 * alpha * alpha, 0.0, r], [0.0, 1.0, 0.0], [r, 0.0, 1.0]], dtype=complex
    )


def fp_delta(alpha: float) -> float:
    """delta = 1 + (3/4) alpha^2; the nontrivial eigenvalues of the k = 3
    form at t = 0 are delta +- sqrt(delta^2 - 1) (the third is 1)."""
    return 1.0 + 0.75 * alpha * alpha


def fp_envelope_k3(field: DriftField, z: float) -> ModeEnvelope:
    """Bound C3(z) e^{-2 a t} for the k = 3 triple; no algebraic factor.

    The defective eigenvalue sits off the gap mu = 1/3 (in the k a-rescaled
    time), so treating its block with the time-dependent construction and
    weights (alpha^-2, 1) yields a constant bounded in the non-defective
    limit alpha -> 0.
    """
    a = field.a(z)
    al = field.alpha(z)
    if abs(al) <= _DEFECT_TOL:
        return ModeEnvelope(DecayEnvelope(1.0, 1.0 / 3.0, 1), tscale=3.0 * a, exact=True)
    blocks = [
        (1.0 / 3.0, [np.array([1.0, 0.0, 0.0], dtype=complex)]),
        (
            1.0,
            [
                np.array([0.0, al, 0.0], dtype=complex),
                np.array([np.sqrt(1.5) * al, 0.0, 1.0], dtype=complex),
            ],
        ),
    ]
    st = structure_from_chains(blocks)
    form = build_form(
        st, block_weights={1: np.array([al ** (-2.0), 1.0])}, tilde_blocks=(1,)
    )
    env = tilde_constant(st, form)
    return ModeEnvelope(env, tscale=3.0 * a, meta={"alpha": al})


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


def fp_k4_envelope(field: DriftField, k: int, z: float) -> ModeEnvelope:
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
    return ModeEnvelope(DecayEnvelope(c, a, 1), meta={"sharp_rate": 0.5 * k * a})


def kuniform_constant(field: DriftField) -> dict:
    """Global constant of the sensitivity bound,
    2 max{1, a0^2} [12 max{2, 1+r^2} (7 + 21/4 r^4) + 2 (1 + r^4)], r = sup|a'|/a0."""
    r = field.sup_da / field.a0
    c12 = 12.0 * max(2.0, 1.0 + r * r)
    c3 = (6.0 + 5.25 * r**4) * c12
    c4 = 2.0 * (1.0 + r**4)
    total = 2.0 * max(1.0, field.a0**2) * (c12 + c3 + c4)
    return {"C_12": c12, "C_3": c3, "C_ge4": c4, "C_global": total, "ratio": r, "a0": field.a0}


def fp_evolve(field: DriftField, state: np.ndarray, z: float, t_grid) -> np.ndarray:
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


def fp_deviation_norm_sq(field: DriftField, state: np.ndarray, z: float) -> np.ndarray:
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
    """Verify sup_z deviations against C (1 + t^2) e^{-2 a0 t} x initial.

    A field that leaves its declared a0 or sup_da on the z grid raises ValueError.
    """
    _check_field_bounds(
        z_grid,
        values=[(field.a, field.a0, np.inf, "a({z}) < a0")],
        slopes=[(field.da, field.sup_da, "|da({z})| exceeds sup_da")],
    )
    consts = kuniform_constant(field)
    rep = sweep(
        initial_state_fn,
        partial(fp_evolve, field),
        partial(fp_deviation_norm_sq, field),
        z_grid,
        t_grid,
        consts["C_global"],
        2.0 * field.a0,
        2,
        tail=lambda s: float(s[0, -1] ** 2 + s[1, -1] ** 2),
    )
    return {**rep, "constants": consts}


class HermiteBasis:
    """Hermite functions rescaled to the steady Gaussian of width 1/sqrt(a).

    Evaluation uses the stable three-term recurrence; projections onto the
    weighted space use Gauss-Hermite quadrature with 2K + 8 nodes after the
    change of variable that absorbs the a-scaling (exact for polynomial
    times steady-Gaussian integrands up to the basis degree).
    """

    def __init__(self, K: int, a: float, n_nodes: int | None = None):
        if K < 0 or a <= 0:
            raise ValueError("need K >= 0 and a > 0")
        self.K = K
        self.a = a
        n = n_nodes or (2 * K + 8)
        s, w = np.polynomial.hermite.hermgauss(n)
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

    def _eval_table(self, x) -> np.ndarray:
        """h_k(x) = sqrt(a) H_k(y) e^{-y^2/2} / sqrt(2 pi k!), y = x sqrt(a),
        as rows k = 0..K."""
        y = np.asarray(x, dtype=float) * np.sqrt(self.a)
        return np.sqrt(self.a / (2.0 * np.pi)) * self.hermite_table(y) * np.exp(-0.5 * y * y)

    def eval_h(self, k: int, x) -> np.ndarray:
        """h_k(x), one row of the evaluation table."""
        if not 0 <= k <= self.K:
            raise IndexError(f"k = {k} outside 0..{self.K}")
        return self._eval_table(x)[k]

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

    def gram(self) -> np.ndarray:
        """Quadrature Gram matrix of h_0..h_K in the weighted inner product."""
        table = self.hermite_table(np.sqrt(2.0) * self.nodes)
        return (table * self.weights) @ table.T / np.sqrt(np.pi)

    def synthesize(self, coeffs, x) -> np.ndarray:
        c = np.asarray(coeffs, dtype=float)
        h = self._eval_table(x)
        return sum(c[k] * h[k] for k in range(c.size))


def fp_gaussian_state(field: DriftField, z: float, K: int = 40, mean: float = 0.4, prec: float = 1.0, g_amp: float = 0.5) -> np.ndarray:
    """Shifted-Gaussian density f plus a massless odd sensitivity g, projected as rows.

    The density is the unit-mass Gaussian with precision ``prec`` centered at
    ``mean`` (``prec`` must exceed a(z)/2 for the weighted norm to be
    finite); the sensitivity is g_amp (x - mean) times that Gaussian.
    """
    a = field.a(z)
    if prec <= 0.5 * a:
        raise ValueError("precision must exceed a/2 for a finite weighted norm")
    basis = HermiteBasis(K, a)

    def density(x):
        return np.sqrt(prec / (2.0 * np.pi)) * np.exp(-0.5 * prec * (x - mean) ** 2)

    f = basis.project(density)
    g = basis.project(lambda x: g_amp * (x - mean) * density(x))
    f[0] = 1.0
    g[0] = 0.0
    return np.array([f, g])


def fp_semidiscrete_residual(
    field: DriftField, state: np.ndarray, z: float, x_lo: float = -8.0, x_hi: float = 8.0, n: int = 1601
) -> float:
    """Max pointwise residual of the synthesized mode dynamics.

    The time derivatives come from the mode ODEs; the spatial operator is
    applied to the synthesized series by fourth-order finite differences, so
    the two sides share no recurrence algebra.  Checks both the density
    equation df/dt = (f' + a x f)' and the sensitivity equation
    dg/dt = (g' + a x g)' + a_z (x f' + f); ``state`` holds f and g as rows.
    """
    a, az = field.a(z), field.da(z)
    f, g = np.asarray(state, dtype=float)
    K = f.size - 1
    basis = HermiteBasis(K, a)
    x = np.linspace(x_lo, x_hi, n)
    h = x[1] - x[0]
    f_vals = basis.synthesize(f, x)
    g_vals = basis.synthesize(g, x)

    # mode ODE time derivatives
    dtf_coeff = -a * np.arange(K + 1) * f
    dtg_coeff = np.zeros(K + 1)
    if K >= 1:
        dtg_coeff[1] = -a * g[1] - az * f[1]
    for k in range(2, K + 1):
        dtg_coeff[k] = -k * a * g[k] - az * (k * f[k] + np.sqrt(k * (k - 1.0)) * f[k - 2])
    dtf = basis.synthesize(dtf_coeff, x)
    dtg = basis.synthesize(dtg_coeff, x)

    def d1(u):
        out = np.full_like(u, np.nan)
        out[2:-2] = (u[:-4] - 8 * u[1:-3] + 8 * u[3:-1] - u[4:]) / (12 * h)
        return out

    def d2(u):
        out = np.full_like(u, np.nan)
        out[2:-2] = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]) / (12 * h * h)
        return out

    interior = slice(2, -2)
    lf = d2(f_vals) + a * (f_vals + x * d1(f_vals))
    lg = d2(g_vals) + a * (g_vals + x * d1(g_vals))
    res_f = np.nanmax(np.abs((dtf - lf)[interior]))
    res_g = np.nanmax(np.abs((dtg - lg - az * (x * d1(f_vals) + f_vals))[interior]))
    return float(max(res_f, res_g))


@dataclass(frozen=True)
class DiffusionField:
    """Diffusion coefficient d(z) >= d0 > 0 for the diffusion-uncertainty variant."""

    d: Callable[[float], float]
    dd: Callable[[float], float]
    d0: float

    def __post_init__(self):
        if self.d0 <= 0:
            raise ValueError("d0 must be positive")


def fp_diffusion_variant(k: int, z: float, dfield: DiffusionField) -> tuple[np.ndarray, ModeEnvelope]:
    """Mode pair matrix and bound for uncertainty in the diffusion term.

    The pair (u_{k-2}, v_k) evolves with the non-defective matrix
    [[k-2, 0], [-(d'/d) sqrt((k-1)k), k]] (the coupling sign makes the
    steady sensitivity +d'/(sqrt 2 d) h_2), eigenvalues k-2 and k, so the
    decay is purely exponential; the reported global bound is C e^{-t}
    (no algebraic factor).
    """
    if k < 2:
        raise ValueError("pairs start at k = 2")
    ratio = dfield.dd(z) / dfield.d(z)
    coupling = -ratio * np.sqrt((k - 1.0) * k)
    a_mat = np.array([[k - 2.0, 0.0], [coupling, float(k)]], dtype=complex)
    if k == 2:
        # u_0 is conserved; the deviation (0, v_2 - v_2_inf) decays at rate 2
        return a_mat, ModeEnvelope(
            DecayEnvelope(1.0, 2.0, 1), meta={"conserved": 0, "v_steady": ratio / np.sqrt(2.0)}
        )
    st = structure_from_chains(
        [
            (k - 2.0, [np.array([1.0, 0.0], dtype=complex)]),
            (float(k), [np.array([np.conj(coupling) / 2.0, 1.0], dtype=complex)]),
        ],
    )
    env = decay_constant(st, build_form(st))
    return a_mat, ModeEnvelope(env)
