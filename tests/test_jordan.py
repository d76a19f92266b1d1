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

from conftest import (
    adjoint_from_chains,
    chain_matrix,
    defect1_matrix,
    geometry_matrix,
    jordan_matrix,
    random_structured_matrix,
)


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


#: one argument of each library entry point that takes a tolerance
_TOLERANCE_CALLS = {
    "jordan_chains-rel_tol": ("rel_tol", lambda tol: jordan_chains(defect1_matrix(1.0), rel_tol=tol)),
    "jordan_chains-cluster_rel_tol": ("cluster_rel_tol", lambda tol: jordan_chains(defect1_matrix(1.0), cluster_rel_tol=tol)),
    "cluster_eigenvalues-rel_tol": ("rel_tol", lambda tol: cluster_eigenvalues([1.0, 1.0], rel_tol=tol)),
    "structure_from_chains-gap_rel_tol": (
        "gap_rel_tol",
        lambda tol: structure_from_chains([(1.0, [[1.0, 0.0], [0.0, 1.0]])], gap_rel_tol=tol),
    ),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-9])
@pytest.mark.parametrize("call", sorted(_TOLERANCE_CALLS))
def test_tolerances_must_be_finite_and_positive(call, bad):
    # nan fails every threshold test, so it would pass J_2 as two length-1
    # blocks or leave every block out of the gap set
    name, run = _TOLERANCE_CALLS[call]
    with pytest.raises(ValueError, match=rf"^{name} must be positive and finite"):
        run(bad)


def test_jordan_chains_takes_one_full_svd_per_cluster_power_and_chain_top(monkeypatch):
    # each cluster's rank profile is one loop: the full SVD of its first power
    # also gives ||B||, so no values-only SVD is taken and nothing is stacked
    rng = np.random.default_rng(31)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    shared = [(0.7 + 0.2j, 2), (0.7 + 0.2j, 1)]  # one cluster of two blocks
    cases = [(geometry_matrix(), [(0.5, 2)]), ((u @ jordan_matrix(shared) @ u.conj().T).conj().T, shared)]
    cases += [random_structured_matrix(rng, d=d) for d in (2, 3, 4, 5, 6, 7)]
    svd, calls = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        calls.append((np.shape(a), args, kwargs))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for c, blocks in cases:
        calls.clear()
        st = jordan_chains(c)
        d = c.shape[0]
        assert sorted(b.length for b in st.blocks) == sorted(l for _, l in blocks)
        lengths: dict[complex, list[int]] = {}
        for lam, l in blocks:
            lengths.setdefault(lam, []).append(l)
        assert all(args == () and kwargs.get("compute_uv", True) for _, args, kwargs in calls)
        powers = [shape for shape, _, kwargs in calls if kwargs == {}]
        tops = [shape for shape, _, kwargs in calls if kwargs == {"full_matrices": False}]
        assert len(powers) + len(tops) == len(calls)
        assert powers == [(d, d)] * sum(max(ls) for ls in lengths.values())
        assert len(tops) == len(blocks) and all(len(shape) == 2 and shape[0] == d for shape in tops)
