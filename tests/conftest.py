"""Shared fixtures: canonical matrices, a structured random-matrix factory
and reference chains with their residual check."""

import contextlib
import importlib
import pkgutil

import numpy as np
import pytest

from lyapdecay import goldstein_taylor as gt
from lyapdecay.jordan import structure_from_chains
from lyapdecay.linalg import as_cmatrix


def geometry_matrix() -> np.ndarray:
    """2x2 fixture with defective gap eigenvalue 1/2 and known adapted form."""
    return np.array([[1.0, 0.5], [-0.5, 0.0]], dtype=complex)


def defect1_matrix(eps: float) -> np.ndarray:
    """Upper-triangular defect-one family: identity plus eps in the corner."""
    return np.array([[1.0, eps], [0.0, 1.0]], dtype=complex)


def matrix_to_json(a) -> dict:
    """The matrix interchange format that ``linalg.load_matrix_json`` reads."""
    m = as_cmatrix(a)
    return {
        "dim": m.shape[0],
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


@pytest.fixture
def geo():
    return geometry_matrix()


@contextlib.contextmanager
def _expm_spy(record):
    """Pass the arguments and the result ``(a, t, out)`` of every
    ``linalg.expm`` call to ``record``, through each module of the package
    that binds it.

    Every module is imported first: one imported during the test would bind
    the spy through ``from .linalg import expm`` and keep it afterwards.
    """
    import lyapdecay
    from lyapdecay import linalg

    modules = [importlib.import_module(f"lyapdecay.{m.name}") for m in pkgutil.iter_modules(lyapdecay.__path__)]
    orig = linalg.expm

    def spy(a, t=1.0):
        out = orig(a, t)
        record(a, t, out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        for module in modules:
            if getattr(module, "expm", None) is orig:
                mp.setattr(module, "expm", spy)
        yield
    from lyapdecay import oracle

    assert oracle.expm is linalg.expm is orig


@pytest.fixture
def expm_matrices():
    """A list that receives the number of matrices of every ``linalg.expm`` call."""
    counts = []
    with _expm_spy(lambda a, t, out: counts.append(int(np.prod(np.broadcast_shapes(np.shape(a)[:-2], np.shape(t)))))):
        yield counts


@pytest.fixture
def expm_calls():
    """A list that receives copies ``(a, t, out)`` of the arguments and the
    result of every ``linalg.expm`` call."""
    calls = []
    with _expm_spy(lambda a, t, out: calls.append((np.array(a, dtype=complex), np.array(t, dtype=float), out.copy()))):
        yield calls


def jordan_matrix(blocks) -> np.ndarray:
    """The bidiagonal Jordan matrix of C^H for (eigenvalue of C, length) blocks."""
    blocks = list(blocks)
    d = sum(l for _, l in blocks)
    j = np.zeros((d, d), dtype=complex)
    pos = 0
    for lam, l in blocks:
        j[pos : pos + l, pos : pos + l] = np.conj(lam) * np.eye(l)
        for k in range(l - 1):
            j[pos + k, pos + k + 1] = 1.0
        pos += l
    return j


def chain_matrix(st) -> np.ndarray:
    """All chain vectors of a ``JordanStructure`` as columns (d x d), block by block."""
    return np.column_stack([v for b in st.blocks for v in b.chain])


def adjoint_from_chains(st) -> np.ndarray:
    """C^H = V J V^-1, the adjoint of the matrix whose chains ``st`` holds."""
    v = chain_matrix(st)
    return v @ jordan_matrix((b.eigenvalue, b.length) for b in st.blocks) @ np.linalg.inv(v)


def verify_chain(c, structure) -> float:
    """Max residual of the chain relations over all blocks and links."""
    ch = as_cmatrix(c).conj().T
    worst = 0.0
    for b in structure.blocks:
        lam_bar = np.conj(b.eigenvalue)
        prev = np.zeros(structure.dim, dtype=complex)
        for v in b.chain:
            worst = max(worst, float(np.linalg.norm(ch @ v - lam_bar * v - prev)))
            prev = v
    return worst


def gt_chains(field, k: int, z: float):
    """Adjoint chains of the relaxation model's 4x4 mode matrix as (eigenvalue,
    chain) pairs, built from the module's closed-form vectors.

    For d_z sigma != 0 there are two length-2 blocks (one per eigenvalue
    branch); otherwise four eigenvectors.  Block eigenvalues are those of the
    mode matrix itself, so a chain labelled with lambda_- satisfies the
    adjoint relation with lambda_+.
    """
    if k == 0:
        raise ValueError("the zero mode is handled by its decaying subblock")
    s, sz = field.sigma(z), field.dsigma(z)
    lp, lm = gt.gt_eigenvalues(s, k)
    if sz != 0.0:
        return [
            (np.conj(lp), [gt._v0(lm, k), (2.0 / sz) * gt._v1_scaled(lm, k, sz)]),
            (np.conj(lm), [gt._v0(lp, k), (2.0 / sz) * gt._v1_scaled(lp, k, sz)]),
        ]
    return [
        (np.conj(lp), [gt._v0(lm, k)]),
        (np.conj(lm), [gt._v0(lp, k)]),
        (np.conj(lp), [gt._v2(lm, k)]),
        (np.conj(lm), [gt._v2(lp, k)]),
    ]


def _partition(rng, d, max_len=3):
    lengths = []
    rest = d
    while rest:
        l = int(rng.integers(1, min(max_len, rest) + 1))
        lengths.append(l)
        rest -= l
    return lengths


def random_structured_matrix(rng, d=None, all_gap=False):
    """Positive stable matrix with prescribed Jordan data.

    Blocks are planted through a well-conditioned conjugation, eigenvalues
    are kept >= 0.3 apart, and at least one block sits exactly at the gap.
    Occasionally two blocks share an eigenvalue (multi-block cluster).
    Returns (C, blocks) with blocks = [(eigenvalue, length), ...].
    """
    d = int(d if d is not None else rng.integers(2, 6))
    lengths = _partition(rng, d)
    mu = 0.3 + float(rng.uniform(0.0, 0.7))
    eigs = []
    ims = []

    def fresh_im():
        while True:
            im = float(rng.uniform(-2.0, 2.0))
            if all(abs(im - other) >= 0.35 for other in ims):
                ims.append(im)
                return im

    n_gap = 1 + int(rng.uniform() < 0.5 and len(lengths) > 1)
    for i, _ in enumerate(lengths):
        if all_gap or i < n_gap:
            eigs.append(complex(mu, fresh_im()))
        else:
            eigs.append(complex(mu + 0.4 + float(rng.uniform(0.0, 1.2)), fresh_im()))
    if not all_gap and len(lengths) >= 2 and rng.uniform() < 0.3:
        # plant a same-eigenvalue cluster made of two blocks
        eigs[1] = eigs[0]
    j = jordan_matrix(zip(eigs, lengths))

    def haar(n):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(g)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    v = haar(d) @ np.diag(rng.uniform(0.6, 1.6, size=d)) @ haar(d)
    ch = v @ j @ np.linalg.inv(v)
    return ch.conj().T, list(zip(eigs, lengths))


def analytic_gap_structure():
    """Small all-gap structure with a planted chain, for identity tests."""
    v0 = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2)
    v1 = np.array([0.5, -0.5, 0.3], dtype=complex)
    w0 = np.array([0.2, 0.1, 1.0], dtype=complex)
    lam = 0.8 + 0.5j
    lam2 = 0.8 - 0.3j
    st = structure_from_chains([(lam, [v0, v1]), (lam2, [w0])])
    # reconstruct the matrix that has exactly these adjoint chains
    return adjoint_from_chains(st).conj().T, st
