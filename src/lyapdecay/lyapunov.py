"""Adapted Lyapunov norms and sharp decay envelopes.

Given the Jordan structure of C^H, each block contributes a quadratic form:

* length-1 blocks contribute a rank-one time-independent term (case 1);
* longer blocks with eigenvalue off the spectral gap contribute a
  time-independent weighted sum over the chain, with a fixed weight ladder
  in the gap distance tau (case 2);
* longer blocks at the gap contribute a time-dependent sum built from the
  polynomial vector functions w^m(t) (case 3).

The combined P(t) is Hermitian positive definite, |x(t)|^2_{P(t)} decays at
the sharp rate exp(-2 mu t), and sandwiching by the extreme eigenvalues of
P(0) yields the Euclidean envelope C (1 + t^(2(M-1))) exp(-2 mu t) with a
fully explicit constant.  A block's case follows from the structure alone.
The case-2 ladder grows as tau^(2(1-l)), so the constant blows up as an
off-gap defective block nears the gap: any envelope without an algebraic
factor pays about 1/tau^2 there.

The case-2 ladder is applied with its largest weight on the eigenvector and
weight one on the top generalized vector; the opposite pairing violates the
defining matrix inequality (checked in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jordan import JordanBlock, JordanStructure
from .linalg import as_cmatrix, is_hermitian

__all__ = [
    "CASE1",
    "CASE2",
    "CASE3",
    "TINY",
    "DecayEnvelope",
    "FormBlock",
    "LyapunovForm",
    "build_form",
    "build_p",
    "c_m_constant",
    "case2_weights",
    "decay_constant",
    "defect_one_constant",
    "improved_defect1_envelope",
    "lower_bound_lemma_gap",
    "p_induced_norm",
    "p_norm_sq",
    "suggest_case3_weights",
    "sup_poly_exp",
    "verify_matrix_inequality",
    "w_vector",
]

CASE1 = "case1"
CASE2 = "case2"
CASE3 = "case3"
#: smallest normal double: a value below it has lost digits, so its log decides
TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class FormBlock:
    case: str
    block: JordanBlock
    weights: np.ndarray  # case1: [beta]; case2: ladder; case3: beta^1..beta^l


@dataclass(frozen=True)
class LyapunovForm:
    blocks: tuple[FormBlock, ...]
    mu: float
    dim: int

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "dim": self.dim,
            "blocks": [
                {
                    "case": fb.case,
                    "eigenvalue": [fb.block.eigenvalue.real, fb.block.eigenvalue.imag],
                    "length": fb.block.length,
                    "weights": [float(w) for w in fb.weights],
                }
                for fb in self.blocks
            ],
        }


@dataclass(frozen=True)
class DecayEnvelope:
    """Envelope C (1 + a t^q) exp(-2 mu t), q = 2(M-1); the algebraic factor is 1 for M = 1."""

    C_const: float
    mu: float
    M: int
    a: float = 1.0

    @property
    def q(self) -> int:
        return 2 * (self.M - 1)

    def to_json(self) -> dict:
        return {"C_const": self.C_const, "mu": self.mu, "M": self.M}

    def bound(self, t):
        """The envelope at ``t`` in linear arithmetic where exp(-2 mu t) is a
        normal double, else exp(log_bound(t)): there the linear factors would
        lose digits or give inf * 0."""
        t, log_bound = np.asarray(t, dtype=float), self.log_bound(t)
        decay = np.exp(-2.0 * self.mu * t)
        with np.errstate(over="ignore", invalid="ignore"):
            alg = 1.0 + self.a * t**self.q if self.M > 1 else 1.0
            return np.where(decay >= TINY, self.C_const * alg * decay, np.exp(log_bound))[()]

    def log_bound(self, t):
        """log of the envelope, finite for every finite t (no overflow in t^q)."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("t must be nonnegative")
        log_alg = np.zeros_like(t)
        if self.M > 1:
            q, small = self.q, t <= 1.0
            logt = np.log(np.where(small, 1.0, t))  # read only where t > 1
            log_alg = np.where(
                small,
                np.log1p(self.a * np.where(small, t, 0.0) ** q),
                q * logt + np.log(self.a) + np.log1p(np.exp(-q * logt) / self.a),
            )
        return np.log(self.C_const) + log_alg - 2.0 * self.mu * t

    def scaled(self, s: float) -> "DecayEnvelope":
        """The envelope in time s t, as a mode system dy/dt = -s C y takes it from C."""
        return DecayEnvelope(self.C_const, self.mu * s, self.M, self.a * s**self.q)


def case2_weights(l: int, tau: float) -> np.ndarray:
    """Weight ladder b^1..b^l for an off-gap block with gap distance tau.

    b^1 = 1 and b^j = c_j tau^(2(1-j)) with c_1 = 1, c_j = 1 + c_{j-1}^2.
    Index j counts from the top of the chain downwards: b^l belongs to the
    eigenvector (see :func:`build_p`).
    """
    if l < 1:
        raise ValueError("block length must be >= 1")
    if l > 1 and tau <= 0:
        raise ValueError("tau must be positive for blocks of length > 1 (block misclassified)")
    out = np.ones(l)
    c = 1.0
    for j in range(2, l + 1):
        c = 1.0 + c * c
        out[j - 1] = c * tau ** (2 * (1 - j))
    return out


def w_vector(block: JordanBlock, m: int, t: float) -> np.ndarray:
    """w^m(t) = sum_{k=1}^m t^(m-k)/(m-k)! v(k-1), for 1 <= m <= block length."""
    if not 1 <= m <= block.length:
        raise IndexError(f"m = {m} out of range for block of length {block.length}")
    out = np.zeros(block.chain.shape[1], dtype=complex)
    fact = 1.0
    power = 1.0
    for j, k in enumerate(range(m, 0, -1)):
        # coefficient t^(m-k)/(m-k)! for the chain vector v(k-1)
        out += (power / fact) * block.chain[k - 1]
        power *= t
        fact *= j + 1
    return out


def build_form(
    structure: JordanStructure,
    block_weights: dict[int, object] | None = None,
) -> LyapunovForm:
    """Assign case tags and weights to every block of a structure.

    Blocks in ``structure.defective_gap_indices`` are case 3, other blocks of
    length > 1 case 2 and length-1 blocks case 1.  ``block_weights`` maps a
    block index to one positive weight per chain vector, b^1..b^l for case 2
    and beta^1..beta^l otherwise (a scalar will do for a length-1 block);
    omitted blocks take weight 1, the case-2 ladder in tau = 2 (Re lam - mu),
    or all ones.  A wrong length, a weight that is not finite and positive,
    or an index with no block raises ValueError.
    """
    block_weights = dict(block_weights or {})
    fbs = []
    for n, b in enumerate(structure.blocks):
        case = CASE3 if n in structure.defective_gap_indices else CASE2 if b.length > 1 else CASE1
        spec = block_weights.pop(n, None)
        if spec is not None:
            try:
                weights = np.atleast_1d(np.asarray(spec, dtype=float))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"block {n}: weights must be numbers, got {spec!r}") from exc
        elif case == CASE2:
            weights = case2_weights(b.length, 2.0 * (b.eigenvalue.real - structure.mu))
        else:
            weights = np.ones(b.length)
        if weights.shape != (b.length,) or not np.all(np.isfinite(weights) & (weights > 0)):
            raise ValueError(f"block {n}: need one finite weight > 0 per chain vector, got {weights}")
        fbs.append(FormBlock(case=case, block=b, weights=weights))
    if block_weights:
        raise ValueError(f"weights given for blocks {sorted(block_weights)} that do not exist")
    return LyapunovForm(blocks=tuple(fbs), mu=structure.mu, dim=structure.dim)


def _rank_one(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def build_p(form: LyapunovForm, t: float) -> np.ndarray:
    """Evaluate P(t).  Case-1/2 contributions are time-independent."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    p = np.zeros((form.dim, form.dim), dtype=complex)
    for fb in form.blocks:
        b, w = fb.block, fb.weights
        if fb.case == CASE1:
            p += w[0] * _rank_one(b.chain[0])
        elif fb.case == CASE2:
            # ladder runs from the top of the chain down to the eigenvector
            for j in range(b.length):
                p += w[j] * _rank_one(b.chain[b.length - 1 - j])
        else:  # CASE3
            for m in range(1, b.length + 1):
                p += w[m - 1] * _rank_one(w_vector(b, m, t))
    return 0.5 * (p + p.conj().T)


def c_m_constant(m: int) -> float:
    """Envelope constant c_M: 1/2 for M = 1, then the closed product formula."""
    if m < 1:
        raise ValueError("M must be >= 1")
    if m == 1:
        return 0.5
    prod_odd = 1.0
    for j in range(1, m):
        prod_odd *= 4.0 * j * j - 1.0
    prod_fact = 1.0
    for j in range(2, m + 1):
        prod_fact *= sum(1.0 / (math.factorial(j - k) ** 2) for k in range(1, j + 1))
    return 2.0 ** (m - 2) * prod_odd * prod_fact


def decay_constant(structure: JordanStructure, form: LyapunovForm) -> DecayEnvelope:
    """Explicit envelope constant from the extremes of P(0) and the weights.

    M = 1: C = lambda_max / lambda_min.  M >= 2:
    C = 2 lambda_max / lambda_min * c_M * max over gap-defective blocks of
    sum_m beta^m / min_{k<=m} beta^k.
    """
    lambda_min, lambda_max = _p0_extremes(form)
    m_def = structure.max_defective_block
    if m_def == 1:
        return DecayEnvelope(lambda_max / lambda_min, structure.mu, 1)
    factor = max(
        _weight_sum_term(form.blocks[n].weights) for n in structure.defective_gap_indices
    )
    c = 2.0 * lambda_max / lambda_min * c_m_constant(m_def) * factor
    return DecayEnvelope(c, structure.mu, m_def)


def defect_one_constant(kappa: float, w_sq: float) -> float:
    """12 kappa max{2, 1 + w_sq}: :func:`decay_constant` of one defect-one gap
    block with weights (1, w_sq) and cond(P(0)) = kappa, finite where w_sq
    underflows to 0."""
    return 12.0 * kappa * max(2.0, 1.0 + w_sq)


def _p0_extremes(form: LyapunovForm) -> tuple[float, float]:
    """Smallest and largest eigenvalue of P(0); raises unless P(0) is finite
    and positive definite.

    :func:`build_p` returns 0.5 (p + p^H), which is exactly Hermitian in
    floating point, so :func:`~lyapdecay.linalg.hermitian_extremes`'s
    symmetry check and second symmetrisation would change no bit here.
    Weights near the largest double overflow P(0); that is this error, not a
    numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p0 = build_p(form, 0.0)
    if not np.all(np.isfinite(p0)):
        raise ValueError("P(0) entries must be finite: the block weights overflow it")
    w = np.linalg.eigvalsh(p0)
    if w[0] <= 0:
        raise ValueError("P(0) is not positive definite")
    return float(w[0]), float(w[-1])


def _weight_sum_term(betas: np.ndarray) -> float:
    running = np.minimum.accumulate(betas)
    return float(np.sum(betas / running))


def verify_matrix_inequality(c, p, rate: float) -> float:
    """Smallest eigenvalue of C^H P + P C - 2 rate P (P must be Hermitian)."""
    cm = as_cmatrix(c)
    pm = as_cmatrix(p)
    if not is_hermitian(pm, rel_tol=1e-10):
        raise ValueError("P must be Hermitian")
    q = cm.conj().T @ pm + pm @ cm - 2.0 * rate * pm
    return float(np.linalg.eigvalsh(0.5 * (q + q.conj().T))[0])


def lower_bound_lemma_gap(vectors, xis, theta: float, t: float, x) -> float:
    """Slack of the lower bound for a polynomial-combination rank-one norm.

    ``vectors`` holds v^1..v^m as rows; ``xis`` holds the matching polynomial
    coefficient sequences (low order first), the last of which must be a
    positive constant.  With w(t) = sum_k xi^k(t) v^k the returned value is

        |x|^2_{w(t) (x) w(t)}
          - (1-theta) (xi^m)^2 |x|^2_{Q^m}
          + ((m-1)^2/theta - 1) sum_{k<m} xi^k(t)^2 |x|^2_{Q^k},

    which is nonnegative for every x, theta in (0,1), t >= 0.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    v = np.atleast_2d(np.asarray(vectors, dtype=complex))
    m = v.shape[0]
    if len(xis) != m:
        raise ValueError("one polynomial per vector is required")
    vals = np.array([np.polynomial.polynomial.polyval(t, np.atleast_1d(xi)) for xi in xis])
    xi_m = vals[-1]
    if np.ndim(xis[-1]) and len(np.atleast_1d(xis[-1])) > 1:
        raise ValueError("the leading coefficient xi^m must be constant")
    if xi_m <= 0:
        raise ValueError("xi^m must be a positive constant")
    x = np.asarray(x, dtype=complex)
    proj = v @ x.conj()  # <v^k, x> up to conjugation; |.|^2 is what matters
    w_proj = np.sum(vals * proj)
    lhs = abs(w_proj) ** 2
    bound = (1.0 - theta) * xi_m**2 * abs(proj[-1]) ** 2
    if m > 1:
        bound -= ((m - 1) ** 2 / theta - 1.0) * float(
            np.sum(vals[:-1] ** 2 * np.abs(proj[:-1]) ** 2)
        )
    return float(lhs - bound)


def improved_defect1_envelope(form: LyapunovForm, block_index: int) -> DecayEnvelope:
    """Refined bound 2 (1 + (beta^2/beta^1) t^2) exp(-2 mu t) for a defect-one gap block.

    The bound controls |x(t)|^2 in the P_n(0)-norm of that block; it is a
    Euclidean bound whenever P(0) is a multiple of the identity (as for the
    weight choice that normalizes P(0) = I).
    """
    fb = form.blocks[block_index]
    if fb.case != CASE3 or fb.block.length != 2:
        raise ValueError("refined bound requires a defect-one block in the time-dependent case")
    return DecayEnvelope(2.0, fb.block.eigenvalue.real, 2, a=float(fb.weights[1] / fb.weights[0]))


def sup_poly_exp(q: int, c: float) -> float:
    """sup over t >= 0 of (1 + t^q) exp(-c t), for integer q >= 1 and c > 0.

    The supremum is the value at t = 0 or at a stationary point, a positive
    real root of c t^q - q t^(q-1) + c.  The value is taken at the real part
    of every root in t > 0, which needs no test of which roots are real: no
    t >= 0 gives more than the supremum.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    if q < 1:
        raise ValueError("q must be >= 1")
    poly = np.zeros(q + 1)
    poly[0] = c
    poly[1] -= q
    poly[q] += c
    roots = np.roots(poly).real
    t = roots[roots > 0]
    return float(np.max((1.0 + t**q) * np.exp(-c * t), initial=1.0))


def suggest_case3_weights(block: JordanBlock) -> np.ndarray:
    """Heuristic weights beta^m = 1 / ||v(m-1)||^2.

    For chains whose higher links scale like 1/eps^(m-1) this reproduces the
    choice that keeps P(0) well conditioned in defect-collapse limits.  It is
    a heuristic, not a guarantee.
    """
    return np.array([1.0 / float(np.linalg.norm(v) ** 2) for v in block.chain])


def p_norm_sq(x, p) -> float:
    x = np.asarray(x, dtype=complex)
    return float(np.real(x.conj() @ (as_cmatrix(p) @ x)))


def p_induced_norm(c, p) -> float:
    """Matrix norm of C induced by the P-inner product: ||P^1/2 C P^-1/2||_2."""
    pm = as_cmatrix(p)
    w, q = np.linalg.eigh(0.5 * (pm + pm.conj().T))
    if w[0] <= 0:
        raise ValueError("P must be positive definite")
    sq = q @ np.diag(np.sqrt(w)) @ q.conj().T
    inv_sq = q @ np.diag(1.0 / np.sqrt(w)) @ q.conj().T
    return float(np.linalg.norm(sq @ as_cmatrix(c) @ inv_sq, 2))
