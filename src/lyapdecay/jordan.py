"""Jordan structure of the adjoint matrix and spectral gap data.

For a positive stable matrix C the Lyapunov construction needs chains of
generalized eigenvectors of C^H,

    C^H v(0) = conj(lam) v(0),      C^H v(k) = conj(lam) v(k) + v(k-1),

one chain per Jordan block, together with the spectral gap mu (the smallest
real part of the eigenvalues), the maximal length M of a block whose
eigenvalue attains the gap, and the index set of those blocks.

Numerical Jordan decisions are ill-posed, so two entry points exist:

* :func:`jordan_chains` computes everything from scratch (eigenvalues,
  clustering, rank profiles, chains by minimum-norm least squares) and
  raises :class:`JordanAmbiguityError` instead of guessing when the rank
  profile does not match the clustered multiplicity;
* :func:`structure_from_chains` accepts closed-form chains; it assembles
  the structure that :func:`jordan_chains` returns, and the tests build the
  model modules' known block data through it as a reference.

``np.abs`` of a complex array differs from the scalar ``abs`` (the bits of
Python's ``complex.__abs__``) with which :func:`cluster_eigenvalues` compares
pairs, so clustering stays scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_cmatrix

__all__ = [
    "JordanBlock",
    "JordanStructure",
    "JordanAmbiguityError",
    "NotPositiveStableError",
    "cluster_eigenvalues",
    "jordan_chains",
    "structure_from_chains",
]

#: relative tolerance for rank decisions (fraction of the largest singular value)
DEFAULT_RANK_TOL = 1e-8

#: relative tolerance for merging computed eigenvalues into clusters.  A
#: defective eigenvalue of index l is perturbed by O(eps^(1/l)) in floating
#: point (~3e-5 for l = 3), far above rounding noise, so this is much looser
#: than the rank tolerance.  The cluster mean is second-order accurate, which
#: is what the rank profiles below rely on.
DEFAULT_CLUSTER_TOL = 3e-4

#: log2 of the largest ||B||^j for which a power B^j is formed: half the
#: largest double, so the product's rounding cannot carry it past overflow
_LOG2_LIMIT = 1023.0


class JordanAmbiguityError(RuntimeError):
    """Rank profile inconsistent with a cluster's multiplicity."""


class NotPositiveStableError(ValueError):
    """Spectral gap is not strictly positive."""


@dataclass(frozen=True)
class JordanBlock:
    """One Jordan block: eigenvalue of C plus the adjoint chain.

    ``chain`` has shape (length, d); row k is v(k).  The chain satisfies the
    C^H relation with the conjugate eigenvalue.
    """

    eigenvalue: complex
    chain: np.ndarray

    @property
    def length(self) -> int:
        return self.chain.shape[0]


@dataclass(frozen=True)
class JordanStructure:
    blocks: tuple[JordanBlock, ...]
    mu: float
    max_defective_block: int
    defective_gap_indices: frozenset[int]
    dim: int

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "mu": self.mu,
            "max_defective_block": self.max_defective_block,
            "defective_gap_indices": sorted(self.defective_gap_indices),
            "blocks": [
                {
                    "eigenvalue": [b.eigenvalue.real, b.eigenvalue.imag],
                    "length": b.length,
                    "chain": [[[z.real, z.imag] for z in v] for v in b.chain],
                }
                for b in self.blocks
            ],
        }


def _check_tolerance(name: str, value: float) -> None:
    """A finite positive tolerance: nan compares false with every threshold."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def cluster_eigenvalues(eigs, rel_tol: float) -> list[tuple[complex, int]]:
    """Greedy union of eigenvalues within ``rel_tol * (1 + max|lam|)``.

    Returns (value, multiplicity) pairs, value being the multiplicity-weighted
    mean of the cluster, sorted by (real, imag).  Multiplicities sum to the
    number of inputs.
    """
    _check_tolerance("rel_tol", rel_tol)
    ev = np.asarray(eigs, dtype=complex).ravel()
    n = ev.size
    if n == 0:
        return []
    scale = rel_tol * (1.0 + float(np.max(np.abs(ev))))
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(ev[i] - ev[j]) <= scale:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = [(complex(np.mean(ev[idx])), len(idx)) for idx in groups.values()]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


def _chain_top_down(b: np.ndarray, length: int, avoid: list[np.ndarray], kernel: np.ndarray) -> np.ndarray:
    """Pick a chain top in ker(B^length), given by its orthonormal basis rows
    ``kernel``, independent of ``avoid`` and walk down."""
    d = b.shape[0]
    cand = kernel.T  # columns
    if avoid:
        a = np.column_stack(avoid)
        q, _ = np.linalg.qr(a)
        cand = cand - q @ (q.conj().T @ cand)
    u, s, _ = np.linalg.svd(cand, full_matrices=False)
    if s.size == 0 or s[0] < 1e-10:
        raise JordanAmbiguityError("no admissible chain top found")
    top = u[:, 0]
    chain = np.zeros((length, d), dtype=complex)
    chain[length - 1] = top
    for k in range(length - 1, 0, -1):
        chain[k - 1] = b @ chain[k]
    return chain


def _canonicalize(chain: np.ndarray) -> np.ndarray:
    """Scale so the eigenvector has unit norm and a real positive pivot."""
    v0 = chain[0]
    nrm = np.linalg.norm(v0)
    if nrm == 0:
        raise JordanAmbiguityError("degenerate chain (zero eigenvector)")
    pivot = v0[np.argmax(np.abs(v0))]
    phase = pivot / abs(pivot)
    return chain / (nrm * phase)


def _rank_nullspace_abs(s: np.ndarray, vh: np.ndarray, abs_tol: float) -> tuple[int, np.ndarray]:
    """Rank/nullspace from a full SVD (values ``s``, right factor ``vh``)
    against an absolute singular value threshold.

    Powers of a singular matrix collapse towards zero, so thresholding
    relative to the power's own largest singular value would never report a
    rank drop; the caller supplies the scale (||B||^j).
    """
    rank = int(np.sum(s > abs_tol))
    return rank, vh[rank:].conj()


def _chains_for_cluster(b: np.ndarray, lam: complex, mult: int, rank_tol: float, cluster_radius: float) -> list[np.ndarray]:
    """All chains for one eigenvalue cluster of C, from B = C^H - conj(lam) I."""
    d = b.shape[0]
    # the first power is the product I @ B, not B: the two can differ in the
    # sign of a zero entry, which moves the SVD's last bits, and the recorded
    # outputs hold the product's
    power = np.eye(d, dtype=complex) @ b
    _, s, vh = np.linalg.svd(power)
    raw_norm_b = s[0]  # the spectral norm of B
    # B of a scalar cluster is pure rounding noise; anything below the
    # clustering resolution cannot be distinguished from zero, so the radius
    # provides the scale floor for the rank thresholds
    norm_b = max(raw_norm_b, cluster_radius)
    # Rank profile of powers; number of blocks of length >= j is rank(B^(j-1)) - rank(B^j).
    ranks = [d]
    kernels = [np.zeros((0, d), dtype=complex)]
    for j in range(1, mult + 1):
        if j > 1:
            # ||B^j|| <= ||B||^j bounds every entry and partial sum of the product
            if j * np.log2(norm_b) > _LOG2_LIMIT:
                raise ValueError(f"eigenvalue {lam:.6g}: the power B^{j} and its threshold ||B||^{j} overflow (||B|| = {norm_b:.6g})")
            power = power @ b
            _, s, vh = np.linalg.svd(power)
        r, ns = _rank_nullspace_abs(s, vh, rank_tol * norm_b**j)
        if r >= ranks[-1]:  # no progress: profile cannot reach the multiplicity
            raise JordanAmbiguityError(
                f"rank profile stalls for eigenvalue {lam:.6g}; "
                f"nullity {d - r} < multiplicity {mult}"
            )
        ranks.append(r)
        kernels.append(ns)
        if d - r >= mult:
            break
    if d - ranks[-1] != mult:
        raise JordanAmbiguityError(
            f"nullity {d - ranks[-1]} never reaches multiplicity {mult} "
            f"for eigenvalue {lam:.6g}"
        )
    counts_ge = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
    lengths: list[int] = []
    smax = len(counts_ge)
    for j in range(smax, 0, -1):
        exactly = counts_ge[j - 1] - (counts_ge[j] if j < smax else 0)
        lengths.extend([j] * exactly)
    if sum(lengths) != mult:
        raise JordanAmbiguityError(
            f"block lengths {lengths} inconsistent with multiplicity {mult} "
            f"for eigenvalue {lam:.6g}"
        )

    chains: list[np.ndarray] = []
    used: list[np.ndarray] = []
    for l in lengths:  # descending, so every used chain has length >= l
        # A new top must leave ker(B^(l-1)) and be independent, modulo
        # ker(B^(l-1)), of the height-(l-1) vectors of the longer chains.
        avoid = [row for row in kernels[l - 1]] + [c[l - 1] for c in used]
        raw = _chain_top_down(b, l, avoid, kernels[l])
        # _canonicalize squares the eigenvector's entries for its norm
        if np.abs(raw[0]).max() > np.sqrt(np.finfo(float).max / d):
            raise ValueError(f"eigenvalue {lam:.6g}: the top-down chain of length {l} overflows its eigenvector's norm")
        chains.append(_refine_chain(b, raw_norm_b, raw, rank_tol))
        used.append(chains[-1])
    return chains


def _refine_chain(b: np.ndarray, norm_b: float, raw: np.ndarray, rank_tol: float) -> np.ndarray:
    """Rebuild the chain bottom-up by minimum-norm least squares.

    Starting from the (normalized) eigenvector, each higher link solves
    B x = v(k-1) with the minimum-norm solution.  If any link turns out
    inconsistent (possible when several blocks share the eigenvalue), the
    top-down chain is kept instead; either way the chain relation holds.
    ``norm_b`` is the spectral norm of ``b``, unfloored.
    """
    raw = _canonicalize(raw)
    length, d = raw.shape
    refined = np.zeros_like(raw)
    refined[0] = raw[0]
    scale = max(norm_b, 1e-300)
    for k in range(1, length):
        x, *_ = np.linalg.lstsq(b, refined[k - 1], rcond=None)
        if np.linalg.norm(b @ x - refined[k - 1]) > 10 * rank_tol * scale:
            return raw
        refined[k] = x
    return refined


def jordan_chains(
    c,
    rel_tol: float = DEFAULT_RANK_TOL,
    cluster_rel_tol: float = DEFAULT_CLUSTER_TOL,
) -> JordanStructure:
    """Compute the Jordan structure of C^H numerically.

    The eigenvalues are computed and clustered with ``cluster_rel_tol``,
    which also sets the radius of the cluster refinement and must be
    finite and positive.  ``rel_tol`` governs rank decisions and must be
    finite and positive too.
    """
    _check_tolerance("rel_tol", rel_tol)
    _check_tolerance("cluster_rel_tol", cluster_rel_tol)
    m = as_cmatrix(c)
    clusters = cluster_eigenvalues(np.linalg.eigvals(m), cluster_rel_tol)
    radius = cluster_rel_tol * (1.0 + max(abs(lam) for lam, _ in clusters))
    eye = np.eye(m.shape[0])
    pairs = []
    for lam, mult in clusters:
        b = m.conj().T - np.conj(lam) * eye
        pairs += [(lam, chain) for chain in _chains_for_cluster(b, lam, mult, rel_tol, radius)]
    return structure_from_chains(pairs, gap_rel_tol=rel_tol)


def structure_from_chains(
    blocks_data,
    gap_rel_tol: float = DEFAULT_RANK_TOL,
) -> JordanStructure:
    """Assemble a structure from explicit (eigenvalue, chain) pairs.

    :func:`jordan_chains` ends here.  No model module calls it: their
    per-mode envelopes are closed forms, which the tests check against the
    analytic chains assembled here.  Chains are taken as given (no
    normalization is imposed), and their width is the dimension: every chain
    must have it, and the chain lengths must sum to it.  Gap membership uses
    the tolerance ``gap_rel_tol * (1 + |mu|)``, and ``gap_rel_tol`` must be
    finite and positive.
    """
    _check_tolerance("gap_rel_tol", gap_rel_tol)
    blocks = tuple(
        JordanBlock(eigenvalue=complex(lam), chain=np.atleast_2d(np.asarray(chain, dtype=complex)))
        for lam, chain in blocks_data
    )
    if not blocks:
        raise ValueError("at least one block is required")
    d = blocks[0].chain.shape[1]
    for n, b in enumerate(blocks):
        if b.chain.shape[1] != d:
            raise ValueError(f"block {n} has chains of width {b.chain.shape[1]}, expected dimension {d}")
    total = sum(b.length for b in blocks)
    if total != d:
        raise ValueError(f"chain lengths sum to {total}, expected dimension {d}")
    mu = min(b.eigenvalue.real for b in blocks)
    if mu <= 0:
        raise NotPositiveStableError(f"spectral gap mu = {mu:.6g} is not positive")
    gap_tol = gap_rel_tol * (1.0 + abs(mu))
    i_mu = frozenset(
        n for n, b in enumerate(blocks) if b.length > 1 and b.eigenvalue.real <= mu + gap_tol
    )
    m_def = max((blocks[n].length for n in i_mu), default=1)
    return JordanStructure(
        blocks=blocks,
        mu=float(mu),
        max_defective_block=int(m_def),
        defective_gap_indices=i_mu,
        dim=d,
    )
