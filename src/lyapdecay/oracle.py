"""Independent verification of decay envelopes.

The envelope claims produced elsewhere in the package are checked here
against routes that do not share code with their derivation: the matrix
exponential (with log-domain evaluation for large times), closed-form
propagator norms for defect-one blocks, a least-squares estimate of the
algebraic decay order, and variation-of-constants solutions for triangular
systems assembled symbolically as polynomial-times-exponential terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_cmatrix, expm
from .lyapunov import DecayEnvelope, ModeEnvelope, envelope_log_eval

__all__ = [
    "EnvelopeReport",
    "check_dominance",
    "duhamel_mode_bound",
    "duhamel_solve",
    "nilpotent2_propagator_sq",
    "propagator_curve",
    "propagator_lognorm",
    "sharpness_order",
]

#: a report is "dominated" iff max propagator_sq / bound <= 1 + this slack
DOMINANCE_SLACK = 1e-9


@dataclass(frozen=True)
class EnvelopeReport:
    """Squared propagator norm against an envelope, both kept as logs so
    their ratio stays finite where both sides underflow."""

    times: np.ndarray
    log_prop: np.ndarray
    log_bound: np.ndarray
    max_ratio: float
    dominated: bool

    @property
    def propagator_sq(self) -> np.ndarray:
        return np.exp(self.log_prop)

    @property
    def bound(self) -> np.ndarray:
        return np.exp(self.log_bound)

    def to_rows(self):
        ratio = np.exp(self.log_prop - self.log_bound)
        return zip(self.times, self.propagator_sq, self.bound, ratio)


def propagator_lognorm(c, t: float) -> float:
    """log ||exp(-C t)||_2, stable far past the underflow threshold.

    exp(-C t) is formed as the 2^m-th power of exp(-C t / 2^m) by repeated
    squaring with renormalization, accumulating the log of the scale factors,
    so the result stays meaningful when the norm itself underflows.
    """
    cm = as_cmatrix(c)
    if t == 0:
        return 0.0
    scale = max(np.linalg.norm(cm, 2) * abs(t), 1e-30)
    m = max(0, int(np.ceil(np.log2(scale))))
    a = expm(-cm, t / 2.0**m)
    log_acc = 0.0
    for _ in range(m):
        nrm = np.linalg.norm(a, 2)
        a = (a / nrm) @ (a / nrm)
        log_acc = 2.0 * (log_acc + np.log(nrm))
    return float(log_acc + np.log(np.linalg.norm(a, 2)))


def propagator_curve(c, times) -> np.ndarray:
    """||exp(-C t)||_2^2 per time point."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    return np.exp([2.0 * propagator_lognorm(c, t) for t in times])


def _log_bound_values(bound, times) -> np.ndarray:
    if isinstance(bound, DecayEnvelope):
        return np.asarray(envelope_log_eval(bound, times))
    if isinstance(bound, ModeEnvelope):
        return np.asarray(bound.log_bound(times))
    vals = np.asarray([bound(t) for t in times], dtype=float)
    if np.any(vals <= 0):
        raise ValueError("bound values must be positive")
    return np.log(vals)


def check_dominance(c, bound, times) -> EnvelopeReport:
    """Check that an envelope dominates the squared propagator norm.

    ``bound`` may be a :class:`DecayEnvelope`, a :class:`ModeEnvelope`, or a
    callable t -> bound value.  Ratios are formed in the log domain so the
    check stays meaningful where both sides underflow.
    """
    times = np.asarray(times, dtype=float)
    log_prop = np.array([2.0 * propagator_lognorm(c, t) for t in times])
    log_bound = _log_bound_values(bound, times)
    max_log_ratio = float(np.max(log_prop - log_bound))
    max_ratio = float(np.exp(max_log_ratio))
    return EnvelopeReport(
        times=times,
        log_prop=log_prop,
        log_bound=log_bound,
        max_ratio=max_ratio,
        dominated=bool(max_ratio <= 1.0 + DOMINANCE_SLACK),
    )


def sharpness_order(c, mu: float, window: tuple[float, float] = (20.0, 60.0), points: int = 41) -> float:
    """Estimate the algebraic order m in ||exp(-C t)|| ~ t^m exp(-mu t).

    Least-squares slope of log(||exp(-C t)|| e^{mu t}) against log t over the
    fitting window; for an isolated defective gap eigenvalue of block size M
    the estimate approaches M - 1.
    """
    t0, t1 = window
    if not 0 < t0 < t1:
        raise ValueError("window must satisfy 0 < t0 < t1")
    ts = np.linspace(t0, t1, points)
    ys = np.array([propagator_lognorm(c, t) + mu * t for t in ts])
    xs = np.log(ts)
    slope = np.polynomial.polynomial.polyfit(xs, ys, 1)[1]
    return float(slope)


def nilpotent2_propagator_sq(rate: float, eps: float, t) -> np.ndarray:
    """Closed form ||exp(-C t)||_2^2 for a defect-one 2x2 block.

    For C = rate * I + N with a rank-one nilpotent N of unit norm scaled by
    eps (e.g. [[1, eps], [0, 1]] with rate 1):

        e^{-2 rate t} (1 + s^2/2 + sqrt(s^2 + s^4/4)),   s = |eps| t.
    """
    t = np.asarray(t, dtype=float)
    s = np.abs(eps) * t
    s2 = s * s
    return np.exp(-2.0 * rate * t) * (1.0 + 0.5 * s2 + np.sqrt(s2 + 0.25 * s2 * s2))


def duhamel_mode_bound(k: int) -> float:
    """Constant 4/3 of the per-mode variation-of-constants bound.

    The first-order convection-diffusion mode admits the bound
    (4/3) (1 + k^4 t^2) e^{-2 k^2 b t} on the squared propagator norm when
    the coupling derivative satisfies |dlambda/dz| <= 1; the constant is
    sharp, attained where k^2 |dlambda| t = 1/sqrt(2).
    """
    if k == 0:
        raise ValueError("the zero mode is conserved, not bounded")
    return 4.0 / 3.0


class _PolyExp:
    """Sum of p(t) * exp(-lam * t) terms, keyed by the decay rate lam."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    @classmethod
    def mode(cls, lam: complex, coeffs) -> "_PolyExp":
        return cls({complex(lam): np.asarray(coeffs, dtype=complex)})

    def __call__(self, t: float) -> complex:
        return sum(
            np.polynomial.polynomial.polyval(t, poly) * np.exp(-lam * t)
            for lam, poly in self.terms.items()
        )

    def scaled(self, factor: complex) -> "_PolyExp":
        return _PolyExp({lam: factor * poly for lam, poly in self.terms.items()})

    def plus(self, other: "_PolyExp") -> "_PolyExp":
        out = {lam: poly.copy() for lam, poly in self.terms.items()}
        for lam, poly in other.terms.items():
            key = self._match(out, lam)
            if key is None:
                out[lam] = poly.copy()
            else:
                a, b = out[key], poly
                if a.size < b.size:
                    a = np.pad(a, (0, b.size - a.size))
                else:
                    b = np.pad(b, (0, a.size - b.size))
                out[key] = a + b
        return _PolyExp(out)

    @staticmethod
    def _match(table, lam, tol=1e-12):
        for key in table:
            if abs(key - lam) <= tol * (1.0 + abs(lam)):
                return key
        return None

    def convolved(self, lam: complex) -> "_PolyExp":
        """int_0^t exp(-lam (t - s)) self(s) ds, in closed form."""
        out = _PolyExp()
        for mu, poly in self.terms.items():
            key = self._match({lam: None}, mu)
            if key is not None:
                # same rate: each s^j integrates to t^(j+1)/(j+1)
                new = np.concatenate(([0.0], poly / (np.arange(poly.size) + 1.0)))
                out = out.plus(_PolyExp.mode(lam, new))
            else:
                delta = lam - mu  # exp(-lam t) int_0^t s^j exp(delta s) ds
                for j, cj in enumerate(poly):
                    if cj == 0:
                        continue
                    # int s^j e^{delta s} ds = e^{delta t} P_j(t) - P_j(0) with
                    # P_j coefficients (-1)^(j-i) j!/(i! delta^(j-i+1))
                    pj = np.array(
                        [
                            (-1.0) ** (j - i)
                            * _falling(j, i)
                            / delta ** (j - i + 1)
                            for i in range(j + 1)
                        ],
                        dtype=complex,
                    )
                    out = out.plus(_PolyExp.mode(mu, cj * pj))
                    out = out.plus(_PolyExp.mode(lam, np.array([-cj * pj[0]])))
        return out


def _falling(j: int, i: int) -> float:
    """j! / i! (product of integers i+1..j)."""
    out = 1.0
    for n in range(i + 1, j + 1):
        out *= n
    return out


def duhamel_solve(a, y0, t: float) -> np.ndarray:
    """Solve dy/dt = -A y for lower-triangular A by variation of constants.

    Every component is represented exactly as a sum of polynomial-times-
    exponential terms, built row by row: the diagonal entry fixes the
    relaxation rate and the strictly lower entries feed already-solved
    components through the convolution integral.  Matches exp(-A t) y0 to
    roundoff and shares no code with the matrix exponential.
    """
    am = as_cmatrix(a)
    d = am.shape[0]
    if np.any(np.abs(np.triu(am, 1)) > 1e-13 * max(np.linalg.norm(am), 1.0)):
        raise ValueError("matrix must be lower triangular")
    y0 = np.asarray(y0, dtype=complex)
    sols: list[_PolyExp] = []
    for i in range(d):
        lam = am[i, i]
        expr = _PolyExp.mode(lam, [y0[i]])
        for j in range(i):
            if am[i, j] != 0:
                expr = expr.plus(sols[j].scaled(-am[i, j]).convolved(lam))
        sols.append(expr)
    return np.array([s(t) for s in sols])
