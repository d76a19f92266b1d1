"""Dense complex linear algebra for small matrices.

Everything operates on square numpy arrays of complex128.  Dimensions in this
package are tiny (d <= 8 in the models), so the implementations favour
accuracy and determinism over speed: a faster path must give the same bits.
The matrix exponential is hand-rolled scaling-and-squaring with a truncated
Taylor series because it serves as the verification oracle for every decay
envelope in the package; equal scaled matrices of a stack share one Taylor
sum and one squaring ladder.  It commutes with complex conjugation, so
:func:`expm_apply` computes one propagator per pair of conjugate matrices
(the Fourier modes k and -k of a real model) and conjugates it for the
second.  Eigenvalue and singular value work goes to LAPACK through numpy.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

import numpy as np

__all__ = [
    "as_cmatrix",
    "expm",
    "expm_apply",
    "spectral_norm",
    "hermitian_extremes",
    "HermitianSpectrum",
    "load_matrix_json",
]

# Taylor truncation: every scaled matrix X has ||X||_1 <= _EXPM_THETA, so the
# tail after n terms is at most e^theta theta^(n+1) / (n+1)! in 1-norm:
# 3.5e-20 at n = 16, below the unit roundoff 1.1e-16 (relative to
# ||exp(X)||_1 >= e^-theta, 5.8e-20).  16 is a measured count, not a proven
# one: on the 107,709 matrices of every expm call of the four default
# model-* runs and of family, 16 terms give the bits of 24, while 15 change
# 7 matrices and 14 change 4211.
_EXPM_THETA = 0.5
_EXPM_TERMS = 16
#: complex entries (propagators x d^2) per stacked expm call in expm_apply,
#: in whole modes (at least one).  Every expm call pays numpy operations
#: whatever its size: 35, plus 3 per Taylor step and 10 per squaring level,
#: which makes 199 at the 11.6 levels a default model sweep's call averages
#: (np.unique counted as one).  The budget amortises them: 16384 entries
#: keep each complex temporary at 256 KB, and the default model sweeps make
#: 78 calls, where a budget of 256 propagators made 377 and took 12 % more
#: wall time.  On a 2-core x86-64 host, 8192 entries took 7 % more time and
#: 32768 took 5 % more with 1.3 MB (3 %) more peak RSS.
_APPLY_CHUNK = 16384


class HermitianSpectrum(NamedTuple):
    """Extreme eigenvalues of a Hermitian part: floats, or arrays for a stack."""

    lambda_min: float | np.ndarray
    lambda_max: float | np.ndarray


def as_cmatrix(a, stack: bool = False) -> np.ndarray:
    """Validate and return a square complex matrix with finite entries.

    With ``stack=True`` a stack ``(..., d, d)`` of square matrices is accepted
    as well.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():  # a complex entry is finite iff both parts are
        raise ValueError("matrix entries must be finite")
    return m


def expm(a, t=1.0) -> np.ndarray:
    """Matrix exponential ``exp(A t)`` by scaling and squaring.

    The scaled matrix is pushed to 1-norm at most 1/2 and summed with 16
    Taylor terms, whose tail is at most e^(1/2) 2^-17 / 17! = 3.5e-20, below
    the unit roundoff; what is left is rounding, amplified by the squarings.
    Contract: relative error in spectral norm <= 1e-12 for d <= 8, at
    1-norms up to 1e3 for normal matrices and up to about 1e2 with a Jordan
    block of length <= 4 (one seeded length-4 input reached 2.1e-12 at 1e2).
    Past that the error grows: 1.2e-7 to 3.3e-6 at 1e3 with length 4, and
    scipy.linalg.expm does no better.  The tests check both against
    40-digit mpmath.

    ``a`` may be one matrix or a stack ``(..., d, d)``, with ``t`` a number
    or an array broadcast over its leading axes; one matrix and one time take
    the stack path as a stack of one.  Every matrix of a stack takes its own
    1-norm and squaring count, so the result equals a loop of one-matrix
    calls bit for bit: matrices whose scaled matrices ``A t / 2^s`` have the
    same bytes (-0 and +0 differ) share one Taylor sum and one squaring
    ladder, and each takes the ladder's value at its own count.

    ``expm(a.conj(), t)`` equals ``expm(a, t).conj()`` in value: conjugation
    negates imaginary parts, which changes no modulus and, rounding being
    symmetric, negates the rounded result of every operation; only the sign
    of an exact zero may differ.  :func:`expm_apply` relies on this.
    """
    m = as_cmatrix(a, stack=True)
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    at = m * t[..., None, None]
    d = at.shape[-1]
    norm = np.abs(at).sum(axis=-2).max(axis=-1)
    # ceil(log2(norm / theta)) where norm > theta, else 0
    squarings = np.ceil(np.log2(np.maximum(norm, _EXPM_THETA) / _EXPM_THETA)).astype(int)
    if squarings.size == 0:
        return at
    sq = squarings.ravel()
    x = at / np.ldexp(1.0, squarings)[..., None, None]
    # the distinct scaled matrices, each matrix's among them, and their largest counts
    rows = x.reshape(sq.size, -1).view(np.dtype((np.void, 16 * d * d))).ravel()
    leaders, group = np.unique(rows, return_inverse=True)
    x = leaders.view(complex).reshape(-1, d, d)
    most = np.zeros(leaders.size, dtype=int)
    np.maximum.at(most, group, sq)
    result = term = np.eye(d, dtype=complex)
    for k in range(1, _EXPM_TERMS + 1):
        term = term @ x / k
        result = result + term
    # each matrix takes its distinct matrix's ladder at its own count
    out = result[group]
    for level in range(1, int(most.max()) + 1):
        idx = np.nonzero(most >= level)
        part = result[idx]
        result[idx] = part @ part
        here = np.nonzero(sq == level)
        out[here] = result[group[here]]
    return out.reshape(at.shape)


def _conjugate_pairs(a) -> tuple[np.ndarray, np.ndarray]:
    """Which matrices of the stack ``a`` need their own propagator.

    Returns ``(first, mirror)``: the indices whose propagator is computed, in
    order, and for each the index of a later matrix equal to its conjugate,
    or -1.  Matrices compare by their bytes after ``+ 0.0``, which maps -0 to
    +0, so signs of zero do not keep a pair apart.  A real matrix is its own
    conjugate and is never paired; of two candidates for one mirror, the
    earlier one takes it.
    """
    waiting: dict[bytes, list[int]] = {}  # conjugate's key -> slots in first
    first, mirror = [], []
    for i, m in enumerate(a):
        key = (m + 0.0).tobytes()
        if waiting.get(key):
            mirror[waiting[key].pop(0)] = i
            continue
        conj_key = (m.conj() + 0.0).tobytes()
        if conj_key != key:
            waiting.setdefault(conj_key, []).append(len(first))
        first.append(i)
        mirror.append(-1)
    return np.array(first, dtype=int), np.array(mirror, dtype=int)


def expm_apply(a, v, t) -> np.ndarray:
    """``exp(A_i t_j) v_i`` for matrices ``(n, d, d)``, vectors ``(n, d)``, times ``(T,)``.

    Returns shape ``(n, T, d)``.  Where a later matrix is the conjugate of an
    earlier one, as the Fourier modes k and -k of a real system are, one
    propagator ``P = expm(a[i], t[j])`` serves both: ``P`` is applied to
    ``v[i]`` and ``P.conj()`` to the mirror's vector (see
    :func:`_conjugate_pairs`).  The computed propagators go through
    :func:`expm` in chunks of whole modes: as many as ``_APPLY_CHUNK``
    complex entries hold, ``d * d`` per propagator, or one mode with more.
    So the times of a mode share one call, and the propagators are never all
    held.  Each ``y[i, j]`` equals ``expm(a[i], t[j]) @ v[i]`` bit for bit,
    except that a real or imaginary part that is exactly zero could take the
    other sign: a conjugated propagator differs from the mirror's own in
    signs of zero at most (see :func:`expm`).
    """
    a = np.asarray(a, dtype=complex)
    v = np.asarray(v, dtype=complex)
    t = np.asarray(t, dtype=float).ravel()
    nt = t.size
    first, mirror = _conjugate_pairs(a)
    d = a.shape[-1]
    out = np.empty((a.shape[0], nt, d), dtype=complex)
    step = nt * max(1, _APPLY_CHUNK // (nt * d * d)) if nt else 1  # whole modes
    for lo in range(0, first.size * nt, step):
        s, j = np.divmod(np.arange(lo, min(lo + step, first.size * nt)), nt)
        i, m = first[s], mirror[s]
        p = expm(a[i], t[j])
        out[i, j] = (p @ v[i][..., None])[..., 0]
        paired = m >= 0
        m, j = m[paired], j[paired]
        out[m, j] = (p[paired].conj() @ v[m][..., None])[..., 0]
    return out


def spectral_norm(a) -> float | np.ndarray:
    """Largest singular value of one matrix, a float, or of each matrix of a stack
    ``(..., d, d)``: the first of one values-only SVD, the bits of ``np.linalg.norm(a, 2)``."""
    out = np.linalg.svd(as_cmatrix(a, stack=True), compute_uv=False)[..., 0]
    return float(out) if out.ndim == 0 else out


def is_hermitian(a, rel_tol: float = 1e-12) -> bool:
    m = as_cmatrix(a)
    scale = max(np.linalg.norm(m, "fro"), 1e-300)
    return bool(np.linalg.norm(m - m.conj().T, "fro") <= rel_tol * scale + 1e-300)


def hermitian_extremes(p) -> HermitianSpectrum:
    """Smallest and largest eigenvalue of the Hermitian part (p + p^H)/2 of one
    matrix, as floats, or of each matrix of a stack ``(..., d, d)``, as arrays,
    each with the bits of its own call.  For an exactly Hermitian p the part
    is p bit for bit: p + p^H is 2p."""
    m = as_cmatrix(p, stack=True)
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))
    lo, hi = w[..., 0], w[..., -1]
    return HermitianSpectrum(lo, hi) if lo.ndim else HermitianSpectrum(float(lo), float(hi))


def load_matrix_json(obj) -> np.ndarray:
    """Parse the matrix interchange format {"dim": d, "entries": [[re, im], ...]}.

    ``obj`` may be a dict, a JSON string, or a path-like pointing at a file;
    ``bytes`` are decoded as UTF-8 text first.  Text that opens with "{",
    after any whitespace, is the JSON itself.  ``dim`` is an integer >= 1 and
    ``entries`` holds dim^2 pairs [re, im] of real numbers, row-major; any
    other value raises ValueError naming the field.
    """
    if isinstance(obj, bytes):
        obj = obj.decode("utf-8")
    if isinstance(obj, str) and obj.lstrip().startswith("{"):
        obj = json.loads(obj)
    elif isinstance(obj, (str, os.PathLike)):
        with open(obj) as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"matrix JSON must be an object with dim and entries, got {type(obj).__name__}")
    d, entries = obj.get("dim"), obj.get("entries")
    if type(d) is not int or d < 1:
        raise ValueError(f"matrix JSON dim must be an integer >= 1, got {d!r}")
    if not isinstance(entries, list):
        raise ValueError(f"matrix JSON entries must be a list of [re, im] pairs, got {type(entries).__name__}")
    if len(entries) != d * d:
        raise ValueError(f"matrix JSON entries: expected {d * d} entries for dim {d}, got {len(entries)}")
    flat = np.empty(d * d, dtype=complex)
    for n, pair in enumerate(entries):
        try:
            # exact types: a JSON true is a bool, not the number 1
            if not (isinstance(pair, list) and len(pair) == 2 and {type(x) for x in pair} <= {int, float}):
                raise TypeError
            flat[n] = complex(*pair)
        except (TypeError, OverflowError):
            raise ValueError(f"matrix JSON entries[{n}] must be [re, im], two real doubles, got {pair!r}") from None
    return as_cmatrix(flat.reshape(d, d))
