import numpy as np
import pytest

from lyapdecay.jordan import (
    JordanAmbiguityError,
    NotPositiveStableError,
    cluster_eigenvalues,
    jordan_chains,
    structure_from_chains,
    verify_chain,
)

from conftest import adjoint_from_chains, chain_matrix, defect1_matrix, geometry_matrix, random_structured_matrix


def test_cluster_forced_merge():
    got = cluster_eigenvalues([0.5, 0.5 + 1e-12], rel_tol=1e-8)
    assert got == [(pytest.approx(0.5 + 5e-13), 2)]


def test_cluster_geometry_eigenvalues():
    ev = np.linalg.eigvals(geometry_matrix())
    got = cluster_eigenvalues(ev, rel_tol=1e-6)
    assert len(got) == 1 and got[0][1] == 2
    assert got[0][0] == pytest.approx(0.5, abs=1e-9)


def test_cluster_singletons():
    got = cluster_eigenvalues([1.0, 2.0, 3.0], rel_tol=1e-8)
    assert [m for _, m in got] == [1, 1, 1]
    assert [v.real for v, _ in got] == [1.0, 2.0, 3.0]


def test_chains_diagonal():
    st = jordan_chains(np.diag([1.0, 2.0]).astype(complex))
    assert [b.length for b in st.blocks] == [1, 1]
    for b in st.blocks:
        # scaled standard basis vectors
        assert np.sum(np.abs(b.chain[0]) > 1e-12) == 1
        assert np.linalg.norm(b.chain[0]) == pytest.approx(1.0)


def test_chains_geometry():
    c = geometry_matrix()
    st = jordan_chains(c)
    assert len(st.blocks) == 1 and st.blocks[0].length == 2
    v0, v1 = st.blocks[0].chain
    along = np.array([1.0, 1.0]) / np.sqrt(2)
    ortho = np.array([1.0, -1.0]) / np.sqrt(2)
    assert abs(abs(v0 @ along) - 1.0) < 1e-10  # eigenvector spans (1,1)
    assert abs(v1 @ ortho.conj()) > 0.5  # generalized vector leaves that span
    assert verify_chain(c, st) < 1e-12


def test_chains_defect1_family():
    eps = 0.25
    st = jordan_chains(defect1_matrix(eps))
    v0, v1 = st.blocks[0].chain
    np.testing.assert_allclose(np.abs(v0), [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(v1), [1.0 / eps, 0.0], atol=1e-10)


def test_gap_data_geometry():
    st = jordan_chains(geometry_matrix())
    mu, m, i_mu = st.mu, st.max_defective_block, st.defective_gap_indices
    assert mu == pytest.approx(0.5, abs=1e-9)
    assert m == 2 and i_mu == frozenset({0})


def test_gap_data_diagonal():
    st = jordan_chains(np.diag([1.0, 2.0]).astype(complex))
    mu, m, i_mu = st.mu, st.max_defective_block, st.defective_gap_indices
    assert (mu, m, i_mu) == (pytest.approx(1.0), 1, frozenset())


def test_gap_data_defect_off_the_gap():
    # triple with eigenvalues {k-2, k, k(defective)} scaled by k a: the
    # defective eigenvalue exceeds the gap, so M stays 1
    k, a, al = 3, 1.0, 0.8
    c = k * a * np.array(
        [[(k - 2) / k, 0, 0], [0, 1, 0], [np.sqrt((k - 1) / k) * al, al, 1]], dtype=complex
    )
    st = jordan_chains(c)
    mu, m, i_mu = st.mu, st.max_defective_block, st.defective_gap_indices
    assert mu == pytest.approx((k - 2) * a, abs=1e-9)
    assert m == 1 and i_mu == frozenset()
    assert sorted(b.length for b in st.blocks) == [1, 2]


def test_gap_data_rejects_unstable():
    with pytest.raises(NotPositiveStableError):
        structure_from_chains([(-0.5, [np.array([1.0, 0.0])]), (1.0, [np.array([0.0, 1.0])])])


def test_verify_chain_exact_and_perturbed():
    c, blocks = random_structured_matrix(np.random.default_rng(0), d=4)
    st = jordan_chains(c)
    assert verify_chain(c, st) < 1e-10
    noisy = [
        (b.eigenvalue, b.chain + 1e-3 * np.ones_like(b.chain)) for b in st.blocks
    ]
    st_noisy = structure_from_chains(noisy)
    assert verify_chain(c, st_noisy) >= 1e-4


def test_verify_chain_model_supplied_chains():
    from lyapdecay.goldstein_taylor import gt_chains, gt_mode_matrix, tanh_relaxation

    field = tanh_relaxation()
    rng = np.random.default_rng(4)
    for _ in range(6):
        k = int(rng.integers(1, 9)) * (1 if rng.uniform() < 0.5 else -1)
        z = float(rng.uniform(-2, 2))
        d = gt_mode_matrix(field, k, z)
        st = structure_from_chains(gt_chains(field, k, z))
        assert verify_chain(d, st) < 1e-10


def test_completeness_and_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(12):
        c, _ = random_structured_matrix(rng)
        st = jordan_chains(c)
        assert np.linalg.svd(chain_matrix(st), compute_uv=False)[-1] > 1e-10
        recon = adjoint_from_chains(st)
        assert np.linalg.norm(recon - c.conj().T) <= 1e-8 * np.linalg.norm(c)


def test_block_lengths_unitary_invariant():
    rng = np.random.default_rng(17)
    c, blocks = random_structured_matrix(rng, d=4)
    lengths = sorted(b.length for b in jordan_chains(c).blocks)
    for _ in range(3):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(g)
        lengths_rot = sorted(b.length for b in jordan_chains(q @ c @ q.conj().T).blocks)
        assert lengths_rot == lengths


def test_same_eigenvalue_two_blocks():
    rng = np.random.default_rng(2)
    # plant eigenvalue 1 with blocks of length 2 and 1, plus a singleton at 2
    j = np.array(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]], dtype=complex
    )
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    v = q @ np.diag([1.0, 0.8, 1.3, 1.1])
    ch = v @ j @ np.linalg.inv(v)
    st = jordan_chains(ch.conj().T)
    got = sorted((b.eigenvalue.real, b.length) for b in st.blocks)
    assert [l for _, l in got] == [1, 1, 2] or sorted(l for _, l in got) == [1, 1, 2]
    assert verify_chain(ch.conj().T, st) < 1e-8


def test_explicit_zero_cluster_tolerance_is_rejected():
    # 0 must not silently become the default tolerance
    with pytest.raises(ValueError, match="rel_tol must be positive"):
        jordan_chains(geometry_matrix(), cluster_rel_tol=0.0)


def test_inconsistent_clusters_raise():
    # eigenvalues 1e-9 apart share a cluster of multiplicity 2, yet
    # diag(1, 1 + 1e-9) - lambda I has full rank: no block structure fits
    with pytest.raises(JordanAmbiguityError, match="multiplicity 2"):
        jordan_chains(np.diag([1.0, 1.0 + 1e-9]).astype(complex))


def test_structure_from_chains_validates_dimension():
    with pytest.raises(ValueError):
        structure_from_chains([(1.0, [np.array([1.0, 0.0])])])


def test_structure_from_chains_rejects_chains_of_another_width():
    # the lengths sum to the first chain's width 2, but block 1 lives in C^3
    blocks = [(1.0, [[1.0, 0.0]]), (2.0, [[0.0, 0.0, 1.0]])]
    with pytest.raises(ValueError, match="block 1 has chains of width 3, expected dimension 2"):
        structure_from_chains(blocks)


def test_structure_serialization_round_trip():
    st = jordan_chains(geometry_matrix())
    blob = st.to_json()
    assert blob["mu"] == pytest.approx(0.5, abs=1e-9)
    assert blob["blocks"][0]["length"] == 2
    chain = np.array([[complex(re, im) for re, im in vec] for vec in blob["blocks"][0]["chain"]])
    np.testing.assert_allclose(chain, st.blocks[0].chain)


def test_stacked_svds_keep_the_bits_of_one_call_per_cluster():
    # jordan_chains builds every cluster's B = C^H - conj(lam) I in one
    # broadcast and takes their norms and first-power SVDs from one stacked
    # call each; a numpy whose stacked calls change bits must fail here
    rng = np.random.default_rng(23)
    for d in range(2, 9):
        for scale in (1e-6, 1.0, 1e4):
            c = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            ch, lams = c.conj().T, np.linalg.eigvals(c)
            eye = np.eye(d)
            bs = ch - np.conj(lams)[:, None, None] * eye
            norms = np.linalg.svd(bs, compute_uv=False)
            firsts = eye.astype(complex) @ bs
            stacked = np.linalg.svd(firsts)
            for i, lam in enumerate(lams):
                b = ch - np.conj(complex(lam)) * np.eye(d)
                first = np.eye(d, dtype=complex) @ b
                assert bs[i].tobytes() == b.tobytes() and firsts[i].tobytes() == first.tobytes()
                assert norms[i].tobytes() == np.linalg.svd(b, compute_uv=False).tobytes()
                for got, want in zip(stacked, np.linalg.svd(first)):
                    assert got[i].tobytes() == want.tobytes()
