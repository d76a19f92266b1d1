"""Dense complex linear algebra for small matrices.

Everything operates on square numpy arrays of complex128.  Dimensions in this
package are tiny (d <= 8 in the models), so the implementations favour
accuracy and determinism over speed.  The matrix exponential is hand-rolled
scaling-and-squaring with a truncated Taylor series because it serves as the
verification oracle for every decay envelope in the package; eigenvalue and
singular value work is delegated to LAPACK through numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_cmatrix",
    "expm",
    "expm_apply",
    "spectral_norm",
    "hermitian_extremes",
    "eigenvalues",
    "nullspace_rank",
    "HermitianSpectrum",
    "load_matrix_json",
    "matrix_to_json",
]

# Taylor truncation threshold: with ||A|| <= _EXPM_THETA the series below
# reaches relative error ~1e-16, well inside the 1e-12 contract.
_EXPM_THETA = 0.5
_EXPM_TERMS = 24
#: matrices per stacked expm call in expm_apply: bounds the propagators held at once
_APPLY_CHUNK = 256


@dataclass(frozen=True)
class HermitianSpectrum:
    """Extreme eigenvalues of a Hermitian matrix."""

    lambda_min: float
    lambda_max: float

    @property
    def condition(self) -> float:
        return self.lambda_max / self.lambda_min


def as_cmatrix(a, stack: bool = False) -> np.ndarray:
    """Validate and return a square complex matrix with finite entries.

    With ``stack=True`` a stack ``(..., d, d)`` of square matrices is accepted
    as well.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite")
    return m


def expm(a, t=1.0) -> np.ndarray:
    """Matrix exponential ``exp(A t)`` by scaling and squaring.

    The scaled matrix is pushed below norm 1/2 and summed with a truncated
    Taylor series; relative error in spectral norm is ~1e-14 for the matrix
    scales used here (contract: <= 1e-12).

    ``a`` may be a stack ``(..., d, d)`` with ``t`` broadcast over its leading
    axes.  Every matrix of a stack takes exactly the arithmetic of its own
    one-matrix call (its own 1-norm and squaring count), so the result equals
    a loop of one-matrix calls bit for bit.
    """
    m = as_cmatrix(a, stack=True)
    # isinstance first: np.ndim would convert a Python float to an array
    if isinstance(t, float) or np.ndim(t) == 0:
        if not np.isfinite(t):
            raise ValueError("t must be finite")
        at = m * t
    else:
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ValueError("t must be finite")
        at = m * t[..., None, None]
    d = at.shape[-1]
    norm = np.abs(at).sum(axis=-2).max(axis=-1)
    # ceil(log2(norm / theta)) where norm > theta, else 0
    squarings = np.ceil(np.log2(np.maximum(norm, _EXPM_THETA) / _EXPM_THETA))
    if squarings.ndim:
        least, most = int(squarings.min()), int(squarings.max())
        x = at / np.ldexp(1.0, squarings.astype(int))[..., None, None]
    else:
        least = most = int(squarings)
        x = at / 2.0**least
    result = term = np.eye(d, dtype=complex)
    for k in range(1, _EXPM_TERMS + 1):
        term = term @ x / k
        result = result + term
    for _ in range(least):
        result = result @ result
    for level in range(least, most):
        # only stacks get here: the matrices that need more squarings
        idx = np.nonzero(squarings > level)
        part = result[idx]
        result[idx] = part @ part
    return result


def expm_apply(a, v, t) -> np.ndarray:
    """``exp(A_i t_j) v_i`` for matrices ``(n, d, d)``, vectors ``(n, d)``, times ``(T,)``.

    Returns shape ``(n, T, d)``.  The (i, j) pairs go through :func:`expm` in
    chunks of ``_APPLY_CHUNK`` matrices, each chunk applied to its vectors at
    once, so the propagators are never all held.  Each ``y[i, j]`` equals
    ``expm(a[i], t[j]) @ v[i]`` bit for bit.
    """
    a = np.asarray(a, dtype=complex)
    v = np.asarray(v, dtype=complex)
    t = np.asarray(t, dtype=float).ravel()
    n, nt = a.shape[0], t.size
    out = np.empty((n * nt, a.shape[-1]), dtype=complex)
    for lo in range(0, n * nt, _APPLY_CHUNK):
        i, j = np.divmod(np.arange(lo, min(lo + _APPLY_CHUNK, n * nt)), nt)
        out[lo : lo + i.size] = (expm(a[i], t[j]) @ v[i][..., None])[..., 0]
    return out.reshape(n, nt, -1)


def spectral_norm(a) -> float:
    """Largest singular value."""
    m = as_cmatrix(a)
    return float(np.linalg.norm(m, 2))


def is_hermitian(a, rel_tol: float = 1e-12) -> bool:
    m = as_cmatrix(a)
    scale = max(np.linalg.norm(m, "fro"), 1e-300)
    return bool(np.linalg.norm(m - m.conj().T, "fro") <= rel_tol * scale + 1e-300)


def hermitian_extremes(p, rel_tol: float = 1e-12) -> HermitianSpectrum:
    """Smallest and largest eigenvalue of a Hermitian matrix.

    Raises ValueError if the input deviates from Hermitian symmetry by more
    than ``rel_tol`` relative to its Frobenius norm.
    """
    m = as_cmatrix(p)
    if not is_hermitian(m, rel_tol=max(rel_tol, 1e-12)):
        raise ValueError("matrix is not Hermitian within tolerance")
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return HermitianSpectrum(float(w[0]), float(w[-1]))


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues with algebraic multiplicity, sorted by (real, imag).

    LAPACK convergence failures propagate as ``numpy.linalg.LinAlgError``;
    they are never swallowed.
    """
    m = as_cmatrix(a)
    ev = np.linalg.eigvals(m)
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def nullspace_rank(a, tol: float = 1e-8) -> tuple[int, np.ndarray]:
    """Numerical rank and an orthonormal nullspace basis via SVD.

    ``tol`` is relative to the largest singular value.  The basis is returned
    as rows; for a full-rank matrix it has shape (0, d).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = as_cmatrix(a)
    _, s, vh = np.linalg.svd(m)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    return rank, vh[rank:].conj()


def load_matrix_json(obj) -> np.ndarray:
    """Parse the matrix interchange format {"dim": d, "entries": [[re, im], ...]}.

    ``obj`` may be a dict, a JSON string, or a path-like pointing at a file.
    Entries are row-major.
    """
    if isinstance(obj, (str, bytes)):
        text = str(obj)
        if text.lstrip().startswith("{"):
            obj = json.loads(text)
        else:
            with open(text) as fh:
                obj = json.load(fh)
    d = int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != d * d:
        raise ValueError(f"expected {d * d} entries for dim {d}, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return as_cmatrix(flat.reshape(d, d))


def matrix_to_json(a) -> dict:
    m = as_cmatrix(a)
    return {
        "dim": m.shape[0],
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }
