import numpy as np
import pytest

from jtvsampling import (
    EigenBasis,
    JointBasis,
    SpectralSupport,
    cycle_graph,
    eig_sym,
    gft,
    igft,
    ijft,
    jft,
    joint_basis_columns,
    joint_columns_from_restricted,
    laplacian,
    restrict_bases,
    unvec,
    vec,
)
from jtvsampling.generate import random_connected_graph


def random_laplacian(n, rng):
    return laplacian(random_connected_graph(n, rng))


class TestEigSym:
    def test_star_spectrum(self, ref):
        basis = eig_sym(ref.l_graph)
        assert np.allclose(basis.values, [0.0, 1.0, 1.0, 4.0], atol=1e-9)
        # each eigenvalue annihilates the characteristic determinant
        for lam in basis.values:
            assert abs(np.linalg.det(ref.l_graph - lam * np.eye(4))) < 1e-9

    def test_cycle_spectrum_closed_form(self):
        basis = eig_sym(laplacian(cycle_graph(4)))
        expected = np.sort([2.0 - 2.0 * np.cos(2.0 * np.pi * k / 4.0) for k in range(4)])
        assert np.allclose(basis.values, expected, atol=1e-9)

    def test_identity_matrix(self):
        basis = eig_sym(np.eye(2))
        assert np.allclose(basis.values, [1.0, 1.0])
        assert np.allclose(basis.vectors.T @ basis.vectors, np.eye(2), atol=1e-12)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            eig_sym(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        # a symmetric matrix holding inf passes np.allclose and gives an
        # all-NaN basis from eigh
        mat = laplacian(cycle_graph(3))
        mat[0, 1] = mat[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eig_sym(mat)

    def test_symmetry_boundary_matches_allclose(self):
        # the guard is np.allclose(a, a.T, atol=1e-10) written out: both must
        # accept and reject the same asymmetries, just inside and outside
        # 1e-10 + 1e-5 * |a.T| and on either side of the diagonal
        verdicts = []
        for entry in (0.0, 1e-3, 1.0, 7.5, 1e4):
            tol = 1e-10 + 1e-5 * entry
            for ratio in (0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0):
                for upper in (True, False):
                    mat = np.diag([2.0, 3.0, 4.0])
                    mat[0, 2] = mat[2, 0] = entry
                    mat[(0, 2) if upper else (2, 0)] += ratio * tol
                    expected = np.allclose(mat, mat.T, atol=1e-10)
                    try:
                        eig_sym(mat)
                        accepted = True
                    except ValueError:
                        accepted = False
                    assert accepted == expected, (entry, ratio, upper)
                    verdicts.append(accepted)
        assert any(verdicts) and not all(verdicts)

    def test_deterministic(self, ref):
        b1 = eig_sym(ref.l_graph)
        b2 = eig_sym(ref.l_graph)
        assert np.array_equal(b1.vectors, b2.vectors)
        assert np.array_equal(b1.values, b2.values)

    def test_sign_convention(self, ref):
        basis = eig_sym(ref.l_graph)
        for k in range(4):
            col = basis.vectors[:, k]
            assert col[int(np.argmax(np.abs(col)))] > 0

    @pytest.mark.parametrize("n", [5, 12, 30])
    def test_reconstruction_and_orthonormality(self, n):
        rng = np.random.default_rng(n)
        lap = random_laplacian(n, rng)
        basis = eig_sym(lap)
        rebuilt = basis.vectors @ np.diag(basis.values) @ basis.vectors.T
        assert np.max(np.abs(lap - rebuilt)) < 1e-8
        assert np.max(np.abs(basis.vectors.T @ basis.vectors - np.eye(n))) < 1e-9
        assert np.all(np.diff(basis.values) >= -1e-12)
        for k in range(n):
            resid = lap @ basis.vectors[:, k] - basis.values[k] * basis.vectors[:, k]
            assert np.max(np.abs(resid)) < 1e-8

    def test_connected_graph_null_vector(self, ref):
        basis = eig_sym(ref.l_graph)
        assert abs(basis.values[0]) < 1e-10
        first = basis.vectors[:, 0]
        assert np.all(first > 0) or np.all(first < 0)


class TestGft:
    def test_eigenvector_maps_to_unit(self, ref):
        basis = eig_sym(ref.l_graph)
        xf = gft(basis, basis.vectors[:, 2])
        expected = np.zeros(4)
        expected[2] = 1.0
        assert np.allclose(xf, expected, atol=1e-10)

    def test_round_trip_and_parseval(self):
        rng = np.random.default_rng(7)
        basis = eig_sym(laplacian(cycle_graph(5)))
        x = rng.normal(size=5)
        xf = gft(basis, x)
        assert np.allclose(igft(basis, xf), x, atol=1e-10)
        assert abs(np.linalg.norm(xf) - np.linalg.norm(x)) < 1e-10

    def test_dimension_mismatch(self):
        basis = eig_sym(np.eye(3))
        with pytest.raises(ValueError, match="length"):
            gft(basis, np.zeros(4))
        with pytest.raises(ValueError, match="length"):
            igft(basis, np.zeros(2))


class TestVec:
    def test_column_major_round_trip(self):
        x = np.arange(12.0).reshape(3, 4)
        v = vec(x)
        assert v[0] == x[0, 0] and v[1] == x[1, 0]  # stacks columns
        assert np.array_equal(unvec(v, 3, 4), x)

    def test_bad_length(self):
        with pytest.raises(ValueError, match="length"):
            unvec(np.zeros(5), 2, 3)


class TestJft:
    def test_zero_signal(self, ref_laplacians):
        lt, lg = ref_laplacians
        bt, bg = eig_sym(lt), eig_sym(lg)
        assert np.array_equal(jft(bt, bg, np.zeros((4, 4))), np.zeros((4, 4)))

    def test_round_trip_and_frobenius(self):
        rng = np.random.default_rng(3)
        bt = eig_sym(laplacian(cycle_graph(5)))
        bg = eig_sym(random_laplacian(4, rng))
        x = rng.normal(size=(4, 5))
        xf = jft(bt, bg, x)
        assert np.max(np.abs(ijft(bt, bg, xf) - x)) < 1e-10
        assert abs(np.linalg.norm(xf) - np.linalg.norm(x)) < 1e-10

    def test_matches_vectorized_transform(self):
        rng = np.random.default_rng(11)
        bt = eig_sym(laplacian(cycle_graph(3)))
        bg = eig_sym(random_laplacian(4, rng))
        x = rng.normal(size=(4, 3))
        xf = jft(bt, bg, x)
        uj = np.kron(bt.vectors, bg.vectors)
        assert np.max(np.abs(vec(xf) - uj.T @ vec(x))) < 1e-10

    def test_dimension_mismatch(self):
        bt = eig_sym(np.eye(3))
        bg = eig_sym(np.eye(4))
        with pytest.raises(ValueError, match="shape"):
            jft(bt, bg, np.zeros((3, 4)))

    def test_inverse_dimension_mismatch(self):
        bt = eig_sym(np.eye(3))
        bg = eig_sym(np.eye(4))
        with pytest.raises(ValueError, match="spectrum shape"):
            ijft(bt, bg, np.zeros((3, 4)))

    def test_reference_block_coefficients(self, ref):
        # the restricted bases recover the occupied coefficient block; the
        # rest of the spectrum carries no additional energy
        block = ref.ug_r.T @ ref.x @ ref.ut_r
        assert np.max(np.abs(block - ref.xf_block)) < 1e-3
        assert abs(np.linalg.norm(ref.x) - np.linalg.norm(block)) < 1e-3


def random_support_instances(rng, count):
    """Random-factor instances: a rectangle, a sparse subset of it touching
    every row and column, and a single pair per draw."""
    for _ in range(count):
        t, n = (int(v) for v in rng.integers(1, 9, size=2))
        k_t, k_g = int(rng.integers(1, t + 1)), int(rng.integers(1, n + 1))
        time_freqs = rng.choice(t, size=k_t, replace=False)
        graph_freqs = rng.choice(n, size=k_g, replace=False)
        grid = [(jt, jg) for jt in time_freqs for jg in graph_freqs]
        sparse = {(jt, graph_freqs[i % k_g]) for i, jt in enumerate(time_freqs)}
        sparse |= {(time_freqs[i % k_t], jg) for i, jg in enumerate(graph_freqs)}
        for pairs in (grid, sparse, grid[:1]):
            support = SpectralSupport(
                t_dim=t, g_dim=n,
                pairs=frozenset((int(jt), int(jg)) for jt, jg in pairs),
            )
            yield support, rng.normal(size=(t, support.k_t)), rng.normal(size=(n, support.k_g))


class TestJointBasisColumns:
    def test_reference_product_rows(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        assert uj.shape == (16, 3)
        rows = uj[[0 * 4 + 0, 0 * 4 + 2, 1 * 4 + 0, 1 * 4 + 2]]
        assert np.max(np.abs(rows - ref.psi_uj)) < 1e-3

    def test_full_support_orthonormal(self):
        rng = np.random.default_rng(5)
        bt = eig_sym(laplacian(cycle_graph(3)))
        bg = eig_sym(random_laplacian(3, rng))
        support = SpectralSupport(
            t_dim=3, g_dim=3,
            pairs=frozenset((jt, jg) for jt in range(3) for jg in range(3)),
        )
        uj = joint_basis_columns(bt, bg, support)
        assert uj.shape == (9, 9)
        assert np.max(np.abs(uj.T @ uj - np.eye(9))) < 1e-9

    def test_single_pair_unit_norm(self):
        bt = eig_sym(laplacian(cycle_graph(3)))
        bg = eig_sym(np.eye(2))
        support = SpectralSupport(t_dim=3, g_dim=2, pairs=frozenset({(0, 0)}))
        uj = joint_basis_columns(bt, bg, support)
        assert np.allclose(uj[:, 0], np.kron(bt.vectors[:, 0], bg.vectors[:, 0]))
        assert abs(np.linalg.norm(uj[:, 0]) - 1.0) < 1e-12

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(9)
        bt = eig_sym(laplacian(cycle_graph(5)))
        bg = eig_sym(random_laplacian(4, rng))
        support = SpectralSupport(
            t_dim=5, g_dim=4, pairs=frozenset({(0, 1), (2, 1), (2, 3), (4, 0)})
        )
        uj = joint_basis_columns(bt, bg, support)
        assert np.max(np.abs(uj.T @ uj - np.eye(4))) < 1e-9

    def test_matches_per_pair_kron(self):
        # one broadcast builds every column; each must equal, bit for bit, the
        # Kronecker product of its restricted time and graph columns
        rng = np.random.default_rng(13)
        for support, ut_r, ug_r in random_support_instances(rng, 40):
            tpos = {f: i for i, f in enumerate(support.time_freqs)}
            gpos = {f: i for i, f in enumerate(support.graph_freqs)}
            expected = np.column_stack([
                np.kron(ut_r[:, tpos[jt]], ug_r[:, gpos[jg]])
                for jt, jg in support.sorted_pairs
            ])
            uj = joint_columns_from_restricted(ut_r, ug_r, support)
            assert uj.shape == (support.t_dim * support.g_dim, support.k)
            assert np.array_equal(uj, expected)

    def test_restricted_bandwidth_mismatch(self, ref):
        with pytest.raises(ValueError, match="bandwidths"):
            joint_columns_from_restricted(ref.ut_r[:, :1], ref.ug_r, ref.support)

    def test_out_of_range_pair(self):
        bt = eig_sym(np.eye(2))
        bg = eig_sym(np.eye(2))
        support = SpectralSupport(t_dim=3, g_dim=2, pairs=frozenset({(2, 1)}))
        with pytest.raises(ValueError, match="out of range"):
            joint_basis_columns(bt, bg, support)

    @pytest.mark.parametrize("cut", ["time", "graph"])
    def test_restricted_row_count_mismatch(self, ref, cut):
        # right bandwidths but a row short of T (or N): the old check took it
        ut_r = ref.ut_r[:-1] if cut == "time" else ref.ut_r
        ug_r = ref.ug_r[:-1] if cut == "graph" else ref.ug_r
        with pytest.raises(ValueError, match="bandwidths"):
            joint_columns_from_restricted(ut_r, ug_r, ref.support)

    def test_bases_larger_than_support(self, ref, ref_laplacians):
        # a 5-cycle basis against the T = 4 support used to give a 20 x 3 matrix
        bt = eig_sym(laplacian(cycle_graph(5)))
        bg = eig_sym(ref_laplacians[1])
        with pytest.raises(ValueError, match="out of range"):
            joint_basis_columns(bt, bg, ref.support)
        with pytest.raises(ValueError, match="dimensions"):
            restrict_bases(bt, bg, ref.support)


class TestJointBasis:
    def test_reference_product_rows(self, ref):
        basis = JointBasis(ref.ut_r, ref.ug_r, ref.support)
        rows = basis.rows([0 * 4 + 0, 0 * 4 + 2, 1 * 4 + 0, 1 * 4 + 2])
        assert np.max(np.abs(rows - ref.psi_uj)) < 1e-3

    def test_rows_match_dense_columns_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for support, ut_r, ug_r in random_support_instances(rng, 40):
            uj = joint_columns_from_restricted(ut_r, ug_r, support)
            idx = [*rng.permutation(len(uj)), *rng.integers(0, len(uj), size=3)]
            rows = JointBasis(ut_r, ug_r, support).rows(idx)
            assert rows.shape == (len(idx), support.k)
            assert np.array_equal(rows, uj[idx])

    def test_synth_matches_dense_product(self):
        rng = np.random.default_rng(19)
        for support, ut_r, ug_r in random_support_instances(rng, 40):
            uj = joint_columns_from_restricted(ut_r, ug_r, support)
            coeffs = rng.normal(size=support.k)
            x = unvec(uj @ coeffs, support.g_dim, support.t_dim)
            x_syn = JointBasis(ut_r, ug_r, support).synth(coeffs)
            assert x_syn.shape == (support.g_dim, support.t_dim)
            assert np.linalg.norm(x_syn - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("cut", ["time rows", "graph rows", "time columns",
                                     "graph columns"])
    def test_wrong_shape_factors_rejected(self, ref, cut):
        ut_r, ug_r = ref.ut_r, ref.ug_r
        if cut.startswith("time"):
            ut_r = ut_r[:-1] if cut.endswith("rows") else ut_r[:, :-1]
        else:
            ug_r = ug_r[:-1] if cut.endswith("rows") else ug_r[:, :-1]
        with pytest.raises(ValueError, match="bandwidths"):
            JointBasis(ut_r, ug_r, ref.support)
