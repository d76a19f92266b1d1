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
from typing import Callable

import numpy as np

from .linalg import as_cmatrix, expm, expm_apply
from .lyapunov import TINY, DecayEnvelope

__all__ = [
    "EnvelopeReport",
    "ModeModel",
    "check_dominance",
    "deviation_sq",
    "dominance_ratio",
    "duhamel_solve",
    "evolve",
    "nilpotent2_propagator_sq",
    "propagator_lognorm",
    "sharpness_order",
    "sweep",
]

#: a report is "dominated" iff its largest dominance_ratio is <= 1 + this slack
DOMINANCE_SLACK = 1e-9
#: complex entries (points x d^2), not points, per stacked squaring ladder in
#: propagator_lognorm, counted as linalg._APPLY_CHUNK counts them but not in
#: whole modes: 4096 keeps each temporary at 64 KB, below glibc's 128 KB mmap
#: threshold, which is 64 points at d = 8 and 256 at d = 4.  A larger budget
#: saves nothing: on the seed-1 bench verify calls (2-core x86 host, 7
#: alternating rounds in process) the oracle took 0.494 s (min) / 0.519 s
#: (median) at 4096 entries, 0.509 / 0.542 s at 8192 and 0.521 / 0.562 s at
#: 16384, while verify's peak RSS rose from 41.10 MB to 41.66 MB (+1.4 %)
#: and 42.46 MB (+3.3 %)
_LOGNORM_CHUNK = 4096


@dataclass(frozen=True)
class EnvelopeReport:
    """Squared propagator norm against an envelope, both kept as logs so
    their ratio stays finite where both sides underflow."""

    times: np.ndarray
    log_prop: np.ndarray
    log_bound: np.ndarray
    ratio: np.ndarray
    max_ratio: float
    #: log of max_ratio, finite where max_ratio overflows to inf
    max_log_ratio: float
    dominated: bool

    @property
    def propagator_sq(self) -> np.ndarray:
        return np.exp(self.log_prop)

    @property
    def bound(self) -> np.ndarray:
        return np.exp(self.log_bound)

    def to_rows(self):
        return zip(self.times, self.propagator_sq, self.bound, self.ratio)


def _times(t) -> np.ndarray:
    ts = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(ts)) or np.any(ts < 0):
        raise ValueError("times must be finite and nonnegative")
    return ts


def propagator_lognorm(c, t, *, spectral_levels=False) -> float | np.ndarray:
    """log ||exp(-C t)||_2, stable far past the underflow threshold.

    exp(-C t) is formed as the 2^m-th power of exp(-C t / 2^m) by repeated
    squaring with renormalization, accumulating the log of the scale factors,
    so the result stays meaningful when the norm itself underflows.  Each
    level is divided by 2^e, e the binary exponent of its largest real or
    imaginary part, which rounds no normal entry (Higham, SIAM J. Matrix
    Anal. Appl. 26 (2005)); one spectral norm ends each point.

    ``spectral_levels=True`` divides each level by its spectral norm (one SVD)
    instead.  Its one caller is :func:`family.grid_sup_envelope`: family.csv
    is pinned by the benchmark's seed digests and by
    ``test_model_defaults_keep_recorded_digests``, and the power-of-two route
    moves 134 of its 400 cells by up to 1.4e-14 relative.

    ``c`` is one matrix or a stack ``(..., d, d)`` and ``t`` a time or an
    array of times.  As in :func:`expm`, the leading axes of ``c`` broadcast
    against ``t``: a ``(P, d, d)`` stack with ``(P,)`` times is P (matrix,
    time) points, and ``c[:, None]`` with ``(T,)`` times their outer product.
    The result has the broadcast shape, a float for one matrix and one time.

    The spectral norms are taken once per matrix of ``c``.  A point at t = 0
    keeps log 1 = 0 and costs nothing.  The others run in chunks of at most
    ``_LOGNORM_CHUNK`` complex entries (points x d^2): the scaled
    exponentials of a chunk come from one stacked :func:`expm` call, and the
    squarings run level by level over the points that still need them.  Each
    point takes its own squaring count and normalisers, so every value equals
    its one-matrix, one-time call bit for bit.
    """
    cm = as_cmatrix(c, stack=True)
    ts = _times(t)
    shape = np.broadcast_shapes(cm.shape[:-2], ts.shape)
    d = cm.shape[-1]
    mats = cm.reshape(-1, d, d)
    c_norm = _norm2(mats)
    index = np.broadcast_to(np.arange(mats.shape[0]).reshape(cm.shape[:-2]), shape).ravel()
    times = np.broadcast_to(ts, shape).ravel()
    out = np.zeros(times.shape)
    live = np.flatnonzero(times)
    step = max(1, _LOGNORM_CHUNK // d**2)
    for lo in range(0, live.size, step):
        point = live[lo : lo + step]
        k = index[point]
        out[point] = _lognorm_ladder(mats[k], c_norm[k], times[point], spectral_levels)
    return float(out[0]) if shape == () else out.reshape(shape)


def _norm2(a) -> np.ndarray:
    """:func:`linalg.spectral_norm` of a stack without the input checks, which
    would cost each of the ladder's per-level norms about 14 us."""
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def _pow2_norm(a) -> np.ndarray:
    """2^e for each matrix of a stack, e the exponent (``np.frexp``) of its
    largest real or imaginary part, so that dividing by it rounds no entry
    that stays a normal double; 0 for a zero matrix."""
    peak = np.abs(a.view(float)).max(axis=(-2, -1))
    return np.ldexp(np.sign(peak), np.frexp(peak)[1])


def _lognorm_ladder(mats, c_norm, t, spectral_levels) -> np.ndarray:
    """log ||exp(-C_k t_k)||_2 for matrices ``mats`` with spectral norms
    ``c_norm`` at positive times ``t``, one per point, squaring counts mixed;
    each level is normalised by :func:`_norm2` if ``spectral_levels``, else
    by :func:`_pow2_norm`.

    A ValueError names the first point where ||C||_2 t passes 2^1023, so
    that 2^m overflows, or where a norm of the ladder is 0: exp(-C t) is
    invertible, so a norm of 0 means a squaring underflowed."""
    with np.errstate(over="ignore"):
        scale = c_norm * t
    if not np.all(scale <= 2.0**1023):
        raise _ladder_error(scale <= 2.0**1023, c_norm, t, "||C||_2 t exceeds 2^1023")
    m = np.maximum(0, np.ceil(np.log2(np.maximum(scale, 1e-30)))).astype(int)
    a = expm(-mats, t / np.ldexp(1.0, m))
    log_acc = np.zeros(t.shape)
    for level in range(int(m.max())):
        idx = np.nonzero(m > level)[0]
        part = a[idx]
        nrm = _norm2(part) if spectral_levels else _pow2_norm(part)
        if not nrm.all():
            raise _ladder_error(nrm, c_norm[idx], t[idx], f"the norm at squaring {level} underflows to 0")
        part = part / nrm[:, None, None]
        a[idx] = part @ part
        log_acc[idx] = 2.0 * (log_acc[idx] + np.log(nrm))
    nrm = _norm2(a)
    if not nrm.all():
        raise _ladder_error(nrm, c_norm, t, "the norm of the last squaring underflows to 0")
    return log_acc + np.log(nrm)


def _ladder_error(ok, c_norm, t, cause) -> ValueError:
    """The error at the first point where ``ok``, flags or norms, is False or 0."""
    k = np.argmin(ok)
    return ValueError(f"log ||exp(-C t)||_2 at t = {float(t[k])!r}, ||C||_2 = {float(c_norm[k])!r}: {cause}")


def dominance_ratio(p, log_p, b, log_b) -> tuple[np.ndarray, float, bool]:
    """Ratios of propagator values ``p`` to bound values ``b``, their maximum
    and the verdict: dominated iff that maximum is <= 1 + DOMINANCE_SLACK.

    Where ``p`` and ``b`` are normal doubles the ratio is p / b; elsewhere it
    is exp(log_p - log_b), which keeps the digits a subnormal side has lost
    and stays finite where both sides underflow.  Where log_p = -inf (p is
    exactly 0) it is 0.  The arrays broadcast.
    """
    live = np.minimum(p, b) >= TINY
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(log_p == -np.inf, 0.0, np.where(live, p / b, np.exp(log_p - log_b)))
    max_ratio = float(np.max(ratio))
    return ratio, max_ratio, bool(max_ratio <= 1.0 + DOMINANCE_SLACK)


def _log_bound_values(bound, times) -> np.ndarray:
    if isinstance(bound, DecayEnvelope):
        return bound.log_bound(times)
    vals = np.asarray([bound(t) for t in times], dtype=float)
    if np.any(vals <= 0):
        raise ValueError("bound values must be positive")
    return np.log(vals)


def check_dominance(c, bound, times) -> EnvelopeReport:
    """Check that an envelope dominates the squared propagator norm.

    ``bound`` may be a :class:`DecayEnvelope` or a callable t -> bound value.
    Both sides are kept as logs, and :func:`dominance_ratio` forms the ratios,
    so the check stays meaningful where both sides underflow.
    """
    times = np.asarray(times, dtype=float)
    log_prop = 2.0 * propagator_lognorm(as_cmatrix(c), times)
    log_bound = _log_bound_values(bound, times)
    with np.errstate(over="ignore"):
        ratio, max_ratio, dominated = dominance_ratio(np.exp(log_prop), log_prop, np.exp(log_bound), log_bound)
    return EnvelopeReport(
        times=times,
        log_prop=log_prop,
        log_bound=log_bound,
        ratio=ratio,
        max_ratio=max_ratio,
        max_log_ratio=float(np.max(log_prop - log_bound)),
        dominated=dominated,
    )


#: each kind of a field's ``BOUNDS`` entry: whether f(z) keeps bound b, and
#: the message of a violation
_BOUND_KINDS = {
    "min": (lambda f, b: f >= b * (1.0 - 1e-12), "{f}({z}) < {b}"),
    "max": (lambda f, b: f <= b * (1.0 + 1e-12), "{f}({z}) > {b}"),
    "sup": (lambda f, b: abs(f) <= b * (1.0 + 1e-9) + 1e-12, "|{f}({z})| exceeds {b}"),
}


def _check_field_bounds(field, z_grid) -> None:
    """Raise ValueError at the first z, and there at the first entry of
    ``field.BOUNDS``, where the field leaves a declared bound: "min" needs
    f(z) >= bound and "max" f(z) <= bound to a relative 1e-12, "sup" needs
    |f(z)| <= bound to a relative 1e-9 plus an absolute 1e-12.  A function
    the field leaves as None is not checked."""
    for z in np.asarray(z_grid, dtype=float):
        for bound, name, kind in field.BOUNDS:
            f = getattr(field, name)
            holds, message = _BOUND_KINDS[kind]
            if f is not None and not holds(f(z), getattr(field, bound)):
                raise ValueError(message.format(f=name, z=z, b=bound))


@dataclass(frozen=True)
class ModeModel:
    """What :func:`sweep`, :func:`evolve` and :func:`deviation_sq` read of a
    PDE model.  ``envelope(field, **options)`` gives the report entries of its
    constants and the global :class:`DecayEnvelope`, ``initial_state(field,
    K, **options)`` the initial state (or a function of z), ``tail(field,
    state, z)`` the part of the deviation in the outermost modes.  A state
    has one row per Fourier mode k = -K..K; ``systems`` maps a row's width to
    the mode matrix (field, k, z).  The zero mode's ``conserved`` entries must
    hold 1, 0, ... (else ``message``) and count 0 in the deviation sum_k
    |y_k - y_inf|^2 / ``weight``; a zero mode conserved whole,
    ``slice(None)``, is not propagated.  Other states come with
    ``own_evolve`` and ``own_deviation``.
    """

    field_class: type
    builtins: dict
    envelope: Callable
    initial_state: Callable
    tail: Callable | None = None
    systems: dict | None = None
    conserved: slice | list = ()
    message: str = ""
    weight: float = 1.0
    own_evolve: Callable | None = None
    own_deviation: Callable | None = None


def evolve(model: ModeModel, field, state, z: float, t_grid) -> np.ndarray:
    """``state`` at every time of ``t_grid``, one C-contiguous (T, ...) stack
    from one :func:`expm_apply` over all (mode, t) pairs, no time stepping."""
    if model.own_evolve is not None:
        return model.own_evolve(field, state, z, t_grid)
    state = np.asarray(state, dtype=complex)
    K = (state.shape[0] - 1) // 2
    held = state[K, model.conserved]
    if abs(held[0] - 1.0) > 1e-12 or np.any(np.abs(held[1:]) > 1e-12):
        raise ValueError(model.message)
    # C order, so a stacked deviation sums in the same order as one slice's
    out = np.repeat(state[None], np.size(t_grid), axis=0)
    rows = [j for j in range(2 * K + 1) if j != K or model.conserved != slice(None)]
    if rows:
        system = model.systems[state.shape[1]]
        mats = np.array([-system(field, j - K, z) for j in rows])
        out[:, rows] = expm_apply(mats, state[rows], t_grid).swapaxes(0, 1)
    return out


def deviation_sq(model: ModeModel, field, states, z: float) -> np.ndarray:
    """Squared (Parseval) distance of one state, or of each of a stack, to the steady
    state; the conserved entries, kept bit for bit by :func:`evolve`, count 0."""
    if model.own_deviation is not None:
        return model.own_deviation(field, states, z)
    dev = np.array(states, dtype=complex)
    dev[..., (dev.shape[-2] - 1) // 2, model.conserved] = 0.0
    return np.sum(np.abs(dev) ** 2, axis=(-2, -1)) / model.weight


def sweep(model: ModeModel, field, initial_state, z_grid, t_grid, **options) -> dict:
    """Check a global bound  envelope(t) sup_z ||y(0, z) - y_inf||^2  on a
    (z, t) grid of ``model`` with coefficient ``field``.

    The times are validated first, then :func:`_check_field_bounds` holds the
    field to its ``BOUNDS`` on the z grid; only then does ``model.envelope``
    build the constants and the :class:`DecayEnvelope` to check.
    ``initial_state`` is the state at t = 0 or a function of z giving it;
    :func:`evolve` runs once per z and :func:`deviation_sq` takes its stack.
    ``tail_fraction`` is the supremum of ``model.tail`` over the initial
    supremum; ``ratio``, ``max_ratio`` and ``passed`` come from
    :func:`dominance_ratio`.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    t_grid = _times(t_grid)
    _check_field_bounds(field, z_grid)
    constants, envelope = model.envelope(field, **options)
    states0 = [initial_state(z) if callable(initial_state) else initial_state for z in z_grid]
    initial_sup = float(max(deviation_sq(model, field, s, z) for s, z in zip(states0, z_grid)))
    norm_sq = np.array([deviation_sq(model, field, evolve(model, field, s0, z, t_grid), z) for s0, z in zip(states0, z_grid)])
    bound = envelope.bound(t_grid) * initial_sup
    with np.errstate(divide="ignore"):
        log_p, log_b = np.log(norm_sq), envelope.log_bound(t_grid) + np.log(initial_sup)
    ratio, max_ratio, passed = dominance_ratio(norm_sq, log_p, bound, log_b)
    rep = {
        "z_grid": z_grid,
        "t_grid": t_grid,
        "norm_sq": norm_sq,
        "bound": bound,
        "ratio": ratio,
        "max_ratio": max_ratio,
        "passed": passed,
        "initial_sup": initial_sup,
        **constants,
    }
    if model.tail is not None:
        tail_sup = max(model.tail(field, s, z) for s, z in zip(states0, z_grid))
        rep["tail_fraction"] = float(tail_sup / initial_sup) if initial_sup > 0 else 0.0
    return rep


def sharpness_order(c, mu: float) -> float:
    """Estimate the algebraic order m in ||exp(-C t)|| ~ t^m exp(-mu t).

    Least-squares slope of log(||exp(-C t)|| e^{mu t}) against log t over 41
    times evenly spaced on [20, 60]; for an isolated defective gap eigenvalue
    of block size M the estimate approaches M - 1.
    """
    ts = np.linspace(20.0, 60.0, 41)
    ys = propagator_lognorm(as_cmatrix(c), ts) + mu * ts
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
