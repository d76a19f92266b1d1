"""Seeded inputs for the benchmark.

Every matrix is positive stable with planted eigenvalues, written in the
program's matrix interchange format.  The program only ever sees the JSON
files; the planted data stay with the benchmark, which uses them to check
the program's answers.

Two kinds of matrix are made:

* main set: d = 2..8, Jordan blocks of length 1 to 4, at least one block at the
  spectral gap, sometimes two blocks sharing the gap eigenvalue, conjugated
  by a well-conditioned similarity (singular values in [0.6, 1.6]);
* near-defective slice (every fifth item): 2x2 and 3x3 matrices whose gap
  eigenvalue is split along the real axis by 1e-2 down to 1e-8, coupled like
  a Jordan block.  Clustering merges the close pairs, which is where the
  program's reported rate is known to be unsound.

The block structure (dimension, block lengths, which blocks sit at the gap)
and the splitting ladder do not depend on the seed; eigenvalues and
conjugations do.  The number of failing items still changes a little from
seed to seed, because whether an item at a known defect fails depends on the
drawn values (the per-run counts are in ``spread.json``).
"""

from __future__ import annotations

import numpy as np

#: every NEAR_EVERY-th item (index % NEAR_EVERY == NEAR_EVERY - 1) is near-defective
NEAR_EVERY = 5
#: eigenvalue splittings of the near-defective slice, cycled in order
NEAR_SPLITS = tuple(10.0 ** -e for e in range(2, 9))
#: seed of the block structures, shared by every workload seed
STRUCTURE_SEED = 20190403


def _haar(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugate(rng, jbar):
    """C whose adjoint is V Jbar V^-1, so C has the conjugates of diag(Jbar)."""
    d = jbar.shape[0]
    v = _haar(rng, d) @ np.diag(rng.uniform(0.6, 1.6, size=d)) @ _haar(rng, d)
    return (v @ jbar @ np.linalg.inv(v)).conj().T


def _fresh_imag(rng, taken, lo=-2.0, hi=2.0, sep=0.35):
    while True:
        im = float(rng.uniform(lo, hi))
        if all(abs(im - other) >= sep for other in taken):
            taken.append(im)
            return im


def _partition(rng, d, max_len=4):
    lengths, rest = [], d
    while rest:
        length = int(rng.integers(1, min(max_len, rest) + 1))
        lengths.append(length)
        rest -= length
    return lengths


def main_matrix(rng, shape_rng, d):
    """Planted Jordan data; returns (C, blocks) with blocks = [(eig, length)].

    ``shape_rng`` draws the block structure, ``rng`` the values.
    """
    lengths = _partition(shape_rng, d)
    n_gap = 1 + int(len(lengths) > 1 and shape_rng.uniform() < 0.5)
    shared = len(lengths) >= 2 and shape_rng.uniform() < 0.3
    mu = 0.3 + float(rng.uniform(0.0, 0.7))
    taken: list[float] = []
    eigs = []
    for i in range(len(lengths)):
        re = mu if i < n_gap else mu + 0.4 + float(rng.uniform(0.0, 1.2))
        eigs.append(complex(re, _fresh_imag(rng, taken)))
    if shared:
        eigs[1] = eigs[0]  # two blocks share the gap eigenvalue
    jbar = np.zeros((d, d), dtype=complex)
    pos = 0
    for lam, length in zip(eigs, lengths):
        jbar[pos : pos + length, pos : pos + length] = np.conj(lam) * np.eye(length)
        for k in range(length - 1):
            jbar[pos + k, pos + k + 1] = 1.0
        pos += length
    return _conjugate(rng, jbar), list(zip(eigs, lengths))


def near_defective_matrix(rng, d, split):
    """Gap pair a, a + split coupled by 1, plus (d = 3) one far eigenvalue."""
    a = 0.3 + float(rng.uniform(0.0, 0.7))
    taken: list[float] = []
    im = _fresh_imag(rng, taken, -1.0, 1.0)
    eigs = [complex(a, im), complex(a + split, im)]
    if d == 3:
        eigs.append(complex(a + 0.4 + float(rng.uniform(0.0, 1.2)), _fresh_imag(rng, taken)))
    jbar = np.diag(np.conj(eigs)).astype(complex)
    jbar[0, 1] = 1.0
    return _conjugate(rng, jbar), [(lam, 1) for lam in eigs]


def matrix_json(c) -> dict:
    return {"dim": int(c.shape[0]), "entries": [[float(z.real), float(z.imag)] for z in c.ravel()]}


def matrix_items(seed, n):
    """``n`` items: dicts with the matrix JSON and the planted data."""
    rng = np.random.default_rng(seed)
    shape_rng = np.random.default_rng(STRUCTURE_SEED)
    items = []
    near = 0
    for i in range(n):
        if i % NEAR_EVERY == NEAR_EVERY - 1:
            split = NEAR_SPLITS[near % len(NEAR_SPLITS)]
            d = 2 + (near // len(NEAR_SPLITS)) % 2
            c, blocks = near_defective_matrix(rng, d, split)
            near += 1
            kind = "near"
        else:
            split = None
            c, blocks = main_matrix(rng, shape_rng, int(shape_rng.integers(2, 9)))
            kind = "main"
        items.append(
            {
                "index": i,
                "kind": kind,
                "split": split,
                "matrix": matrix_json(c),
                "min_real": min(lam.real for lam, _ in blocks),
            }
        )
    return items
