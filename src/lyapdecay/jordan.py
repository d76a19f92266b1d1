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
* :func:`structure_from_chains` accepts closed-form chains, which is how the
  model modules supply their analytically known block data.
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
    "spectral_gap_data",
    "structure_from_chains",
    "verify_chain",
]

#: relative tolerance for rank decisions (fraction of the largest singular value)
DEFAULT_RANK_TOL = 1e-8

#: relative tolerance for merging computed eigenvalues into clusters.  A
#: defective eigenvalue of index l is perturbed by O(eps^(1/l)) in floating
#: point (~3e-5 for l = 3), far above rounding noise, so this is much looser
#: than the rank tolerance.  The cluster mean is second-order accurate, which
#: is what the rank profiles below rely on.
DEFAULT_CLUSTER_TOL = 3e-4


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

    @property
    def eigenvector(self) -> np.ndarray:
        return self.chain[0]


@dataclass(frozen=True)
class JordanStructure:
    blocks: tuple[JordanBlock, ...]
    mu: float
    max_defective_block: int
    defective_gap_indices: frozenset[int]
    dim: int

    @property
    def chain_matrix(self) -> np.ndarray:
        """All chain vectors stacked as columns (d x d), block by block."""
        return np.column_stack([v for b in self.blocks for v in b.chain])

    def block_diagonal_jordan(self) -> np.ndarray:
        """The bidiagonal Jordan matrix J of C^H matching ``chain_matrix``."""
        d = self.dim
        j = np.zeros((d, d), dtype=complex)
        pos = 0
        for b in self.blocks:
            l = b.length
            j[pos : pos + l, pos : pos + l] = np.conj(b.eigenvalue) * np.eye(l)
            for k in range(l - 1):
                j[pos + k, pos + k + 1] = 1.0
            pos += l
        return j

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


def cluster_eigenvalues(eigs, rel_tol: float) -> list[tuple[complex, int]]:
    """Greedy union of eigenvalues within ``rel_tol * (1 + max|lam|)``.

    Returns (value, multiplicity) pairs, value being the multiplicity-weighted
    mean of the cluster, sorted by (real, imag).  Multiplicities sum to the
    number of inputs.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
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


def _chain_top_down(b: np.ndarray, length: int, avoid: list[np.ndarray], kernels: list[np.ndarray]) -> np.ndarray:
    """Pick a chain top in ker(B^length) independent of ``avoid`` and walk down."""
    d = b.shape[0]
    k_l = kernels[length]  # orthonormal basis rows of ker(B^length)
    cand = k_l.T  # columns
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


def _rank_nullspace_abs(a: np.ndarray, abs_tol: float) -> tuple[int, np.ndarray]:
    """Rank/nullspace against an absolute singular value threshold.

    Powers of a singular matrix collapse towards zero, so thresholding
    relative to the power's own largest singular value would never report a
    rank drop; the caller supplies the scale (||B||^j).
    """
    _, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > abs_tol))
    return rank, vh[rank:].conj()


def _chains_for_cluster(
    ch: np.ndarray, lam: complex, mult: int, rank_tol: float, cluster_radius: float
) -> list[np.ndarray]:
    """All chains for one eigenvalue cluster of C (C^H passed as ``ch``)."""
    d = ch.shape[0]
    b = ch - np.conj(lam) * np.eye(d)
    # B of a scalar cluster is pure rounding noise; anything below the
    # clustering resolution cannot be distinguished from zero, so the radius
    # provides the scale floor for the rank thresholds
    norm_b = max(np.linalg.norm(b, 2), cluster_radius)
    # Rank profile of powers; number of blocks of length >= j is rank(B^(j-1)) - rank(B^j).
    ranks = [d]
    kernels = [np.zeros((0, d), dtype=complex)]
    power = np.eye(d, dtype=complex)
    for j in range(1, mult + 1):
        power = power @ b
        r, ns = _rank_nullspace_abs(power, rank_tol * norm_b**j)
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
        raw = _chain_top_down(b, l, avoid, kernels)
        chains.append(_refine_chain(b, raw, rank_tol))
        used.append(chains[-1])
    return chains


def _refine_chain(b: np.ndarray, raw: np.ndarray, rank_tol: float) -> np.ndarray:
    """Rebuild the chain bottom-up by minimum-norm least squares.

    Starting from the (normalized) eigenvector, each higher link solves
    B x = v(k-1) with the minimum-norm solution.  If any link turns out
    inconsistent (possible when several blocks share the eigenvalue), the
    top-down chain is kept instead; either way the chain relation holds.
    """
    raw = _canonicalize(raw)
    length, d = raw.shape
    refined = np.zeros_like(raw)
    refined[0] = raw[0]
    scale = max(np.linalg.norm(b, 2), 1e-300)
    for k in range(1, length):
        x, *_ = np.linalg.lstsq(b, refined[k - 1], rcond=None)
        if np.linalg.norm(b @ x - refined[k - 1]) > 10 * rank_tol * scale:
            return raw
        refined[k] = x
    return refined


def jordan_chains(
    c,
    clusters: list[tuple[complex, int]] | None = None,
    rel_tol: float = DEFAULT_RANK_TOL,
    cluster_rel_tol: float | None = None,
) -> JordanStructure:
    """Compute the Jordan structure of C^H numerically.

    ``clusters`` may be supplied from :func:`cluster_eigenvalues`; otherwise
    eigenvalues are computed and clustered with ``cluster_rel_tol`` (default
    :data:`DEFAULT_CLUSTER_TOL`).  ``rel_tol`` governs rank decisions.
    """
    m = as_cmatrix(c)
    d = m.shape[0]
    if cluster_rel_tol is None:
        cluster_rel_tol = DEFAULT_CLUSTER_TOL
    if clusters is None:
        ev = np.linalg.eigvals(m)
        clusters = cluster_eigenvalues(ev, cluster_rel_tol)
    if sum(mult for _, mult in clusters) != d:
        raise ValueError("cluster multiplicities must sum to the dimension")
    radius = cluster_rel_tol * (1.0 + max(abs(lam) for lam, _ in clusters))
    ch = m.conj().T
    blocks: list[JordanBlock] = []
    for lam, mult in clusters:
        for chain in _chains_for_cluster(ch, lam, mult, rel_tol, radius):
            blocks.append(JordanBlock(eigenvalue=complex(lam), chain=chain))
    structure = structure_from_chains(
        [(b.eigenvalue, b.chain) for b in blocks], dim=d, gap_rel_tol=rel_tol
    )
    return structure


def spectral_gap_data(structure: JordanStructure) -> tuple[float, int, frozenset[int]]:
    """(mu, M, I_mu) for a structure; raises if not positive stable."""
    if structure.mu <= 0:
        raise NotPositiveStableError(f"spectral gap mu = {structure.mu:.6g} is not positive")
    return structure.mu, structure.max_defective_block, structure.defective_gap_indices


def structure_from_chains(
    blocks_data,
    dim: int | None = None,
    gap_rel_tol: float = DEFAULT_RANK_TOL,
    require_stable: bool = True,
) -> JordanStructure:
    """Assemble a structure from explicit (eigenvalue, chain) pairs.

    This is the analytic entry point used by the model modules; chains are
    taken as given (no normalization is imposed).  Gap membership uses the
    tolerance ``gap_rel_tol * (1 + |mu|)``.
    """
    blocks = tuple(
        JordanBlock(eigenvalue=complex(lam), chain=np.atleast_2d(np.asarray(chain, dtype=complex)))
        for lam, chain in blocks_data
    )
    if not blocks:
        raise ValueError("at least one block is required")
    d = dim if dim is not None else blocks[0].chain.shape[1]
    total = sum(b.length for b in blocks)
    if total != d:
        raise ValueError(f"chain lengths sum to {total}, expected dimension {d}")
    mu = min(b.eigenvalue.real for b in blocks)
    if require_stable and mu <= 0:
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


def verify_chain(c, structure: JordanStructure) -> float:
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
