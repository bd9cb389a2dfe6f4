import ast
import tracemalloc
from itertools import combinations
from math import comb
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from jtvsampling import (
    ExhaustiveReport,
    SpectralSupport,
    check_monotonicity,
    critical_sampling_set,
    cycle_graph,
    eig_sym,
    exhaustive_check,
    joint_basis_columns,
    joint_columns_from_restricted,
    laplacian,
    path_graph,
    restrict_bases,
    star_graph,
)
from jtvsampling.generate import random_connected_graph, random_support
from jtvsampling import oracle
from jtvsampling.oracle import elimination_rank


class TestEliminationRank:
    def test_agrees_with_svd_rank(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            r = int(rng.integers(1, 5))
            m = rng.normal(size=(6, r)) @ rng.normal(size=(r, 5))
            assert elimination_rank(m) == np.linalg.matrix_rank(m)

    def test_zero_matrix(self):
        assert elimination_rank(np.zeros((3, 3))) == 0

    def test_empty(self):
        assert elimination_rank(np.zeros((0, 3))) == 0
        assert elimination_rank(np.eye(3)[[]]) == 0

    @staticmethod
    def assert_stack_matches(stack):
        ranks = elimination_rank(stack)
        assert ranks.shape == stack.shape[:-2]
        flat = stack.reshape(-1, *stack.shape[-2:])
        assert ranks.ravel().tolist() == [elimination_rank(m) for m in flat]
        return ranks

    def test_returns_int_for_matrix_and_array_for_stack(self):
        assert type(elimination_rank(np.eye(3))) is int
        ranks = elimination_rank(np.ones((2, 3, 4, 5)))
        assert ranks.shape == (2, 3)
        assert ranks.dtype.kind == "i"
        assert (ranks == 1).all()

    def test_stack_random_rank_deficient(self):
        # every matrix reaches its own rank with its own scale, pivots and
        # running rank, whatever the ranks of its neighbours in the stack
        rng = np.random.default_rng(40)
        for rows, cols in [(5, 5), (6, 4), (3, 7), (20, 5)]:
            mats = []
            for _ in range(60):
                r = int(rng.integers(0, min(rows, cols) + 1))
                m = rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols))
                # zero columns make each matrix skip its own pivot columns
                m[:, rng.random(cols) < 0.3] = 0.0
                mats.append(m * 10.0 ** rng.integers(-6, 7))
            ranks = self.assert_stack_matches(np.array(mats))
            assert ranks.tolist() == [np.linalg.matrix_rank(m) for m in mats]
            assert len(set(ranks.tolist())) > 1

    def test_stack_with_zero_matrix(self):
        rng = np.random.default_rng(41)
        stack = rng.normal(size=(5, 4, 4))
        stack[2] = 0.0
        ranks = self.assert_stack_matches(stack)
        assert ranks.tolist() == [4, 4, 0, 4, 4]

    def test_stack_of_zero_row_matrices(self):
        ranks = elimination_rank(np.zeros((3, 0, 5)))
        assert ranks.tolist() == [0, 0, 0]
        assert elimination_rank(np.zeros((0, 4, 5))).shape == (0,)

    def test_entries_at_the_pivot_tolerance(self):
        # the second pivot sits just above or just below tol * scale, where the
        # scale is each matrix's own max |a|; a scale shared across the stack
        # (1e6 here) would drop the 1.5e-10 pivot of the unit-scale matrices
        tol = 1e-10
        mats = []
        for scale in (1.0, 1e6, 1e-3):
            for ratio in (1.5, 0.5):
                m = np.array([[1.0, 0.3, 0.0], [0.0, ratio * tol, 0.0]]) * scale
                mats.append(m)
        stack = np.array(mats)
        ranks = self.assert_stack_matches(stack)
        assert ranks.tolist() == [2, 1] * 3
        # a pivot below tolerance in one column does not block a later column
        m = np.array([[1.0, 0.0, 0.0], [0.0, 0.5 * tol, 1.0]])
        assert self.assert_stack_matches(np.array([m, stack[1]])).tolist() == [2, 1]

    def test_skipped_column_leaves_rows_alone(self):
        # at scale 1e12 the cut is 100, so the first column's entries of 1 fail
        # the pivot test; eliminating with them anyway would zero the first
        # row and drop the rank to 1. The identity beside it does pivot there.
        m = np.array([[1.0, 1e12, 0.0], [1.0, 0.0, 1e12]])
        assert elimination_rank(m) == 2
        stack = np.array([m, np.eye(2, 3), m[::-1]])
        assert self.assert_stack_matches(stack).tolist() == [2] * 3

    def test_zero_row_padding_keeps_rank(self):
        rng = np.random.default_rng(42)
        mats = []
        for rows in (1, 2, 3, 4, 5, 5):
            r = int(rng.integers(0, min(rows, 4) + 1))
            mats.append(rng.normal(size=(rows, r)) @ rng.normal(size=(r, 4)))
        mats.append(np.array([[1.0, 0.3, 0.0, 0.0], [0.0, 1.5e-10, 0.0, 0.0]]))
        mats.append(np.array([[1.0, 0.3, 0.0, 0.0], [0.0, 0.5e-10, 0.0, 0.0]]))
        padded = np.zeros((len(mats), 9, 4))
        for i, m in enumerate(mats):
            padded[i, : len(m)] = m
        ranks = self.assert_stack_matches(padded)
        assert ranks.tolist() == [elimination_rank(m) for m in mats]

    def test_exact_ties_in_pivot_columns(self):
        # A 4-cycle basis with vectors of exactly +-0.5: Kronecker products
        # of them hold exact +-0.25 ties in the pivot columns. A tie goes to
        # the lowest row index; each matrix must still reach its own rank,
        # stacked or alone.
        c = np.sqrt(0.5)
        v = np.array([[0.5, c, 0.0, 0.5], [0.5, 0.0, c, -0.5],
                      [0.5, -c, 0.0, 0.5], [0.5, 0.0, -c, -0.5]])
        assert np.allclose(laplacian(cycle_graph(4)) @ v, v * [0.0, 2.0, 2.0, 4.0])
        uj = np.kron(v, v)[:, [0, 3, 12, 6]]
        stack = uj[np.array(list(combinations(range(16), 4)))]
        tied = np.abs(stack[:, :, :3])
        assert (tied == 0.25).all()
        ranks = self.assert_stack_matches(stack)
        assert ranks.tolist() == np.linalg.matrix_rank(stack).tolist()
        assert set(ranks.tolist()) == {1, 2, 3, 4}

    def test_input_layouts_and_dtypes(self):
        # strided views, Fortran order, integer entries and read-only arrays
        # all give the ranks of the same values in a C-ordered float stack
        rng = np.random.default_rng(43)
        ints = np.array([rng.integers(-2, 3, size=(6, r)) @ rng.integers(-2, 3, size=(r, 5))
                         for r in rng.integers(0, 6, size=80)])
        expected = elimination_rank(ints.astype(float)).tolist()
        assert len(set(expected)) > 2
        read_only = ints.astype(float)
        read_only.flags.writeable = False
        layouts = [
            ints,
            np.ascontiguousarray(ints.transpose(0, 2, 1)).transpose(0, 2, 1),
            np.asfortranarray(ints.astype(float)),
            read_only,
            np.repeat(ints.astype(float), 2, axis=0)[::2],
        ]
        for mats in layouts:
            assert np.array_equal(mats, ints)
            assert elimination_rank(mats).tolist() == expected
            assert self.assert_stack_matches(mats).tolist() == expected

    def test_argument_unchanged(self):
        rng = np.random.default_rng(44)
        stack = rng.normal(size=(30, 6, 5))
        stack[::3, :, 2] = 0.0
        for mat in (stack, stack[0], stack.tolist()):
            before = np.array(mat, copy=True)
            elimination_rank(mat)
            assert np.array_equal(np.asarray(mat), before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # NaN never passes the pivot test, so without the check a NaN matrix
        # would silently read rank 0
        rng = np.random.default_rng(45)
        stack = rng.normal(size=(7, 5, 5))
        stack[4, 2, 3] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            elimination_rank(stack[4])
        with pytest.raises(ValueError, match="NaN or infinite"):
            elimination_rank(stack)
        assert elimination_rank(np.delete(stack, 4, axis=0)).tolist() == [5] * 6


class TestExhaustiveCheck:
    def test_reference_instance(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        report = exhaustive_check(uj, ref.support)
        assert report.min_qualified_size == 3
        assert report.violations == ()
        assert report.exists_critical_set
        assert report.count_qualified_at_k > 0
        assert not report.violations

    def test_single_pair_support(self):
        rng = np.random.default_rng(3)
        bt = eig_sym(laplacian(cycle_graph(3)))
        bg = eig_sym(laplacian(random_connected_graph(3, rng)))
        support = SpectralSupport(t_dim=3, g_dim=3, pairs=frozenset({(1, 1)}))
        uj = joint_basis_columns(bt, bg, support)
        report = exhaustive_check(uj, support)
        assert report.min_qualified_size == 1
        # every joint vertex with a nonzero basis entry qualifies alone
        nonzero = int(np.sum(np.abs(uj[:, 0]) > 1e-10))
        assert report.count_qualified_at_k == nonzero

    def test_random_instances_structural_bounds(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            bt = eig_sym(laplacian(cycle_graph(4)))
            bg = eig_sym(laplacian(random_connected_graph(4, rng)))
            support = random_support(4, 4, rng)
            uj = joint_basis_columns(bt, bg, support)
            report = exhaustive_check(uj, support)
            assert report.min_qualified_size == support.k
            assert report.exists_critical_set
            k, k_t, k_g = support.k, support.k_t, support.k_g
            # Qualified sets touching fewer than K_T time slots (or K_G
            # vertices) do exist when the support is sparser than its bounding
            # rectangle. What can never happen: fewer than K samples, or fewer
            # time slots / vertices than the projection floors, which are at
            # least ceil(K/K_G) / ceil(K/K_T) -- each time slot contributes at
            # most K_G independent rows and each vertex at most K_T.
            assert report.violations == ()
            assert report.min_proj_t >= support.floor_t >= -(-k // k_g)
            assert report.min_proj_g >= support.floor_g >= -(-k // k_t)

    def test_projection_bound_counterexample(self):
        # Two spectral pairs on distinct time frequencies and distinct graph
        # frequencies: two samples inside a single time slot still give two
        # independent equations for the two coefficients, so a qualified set
        # with |S_T| = 1 < K_T = 2 exists and the enumeration must find it.
        # It breaks no necessary bound: both projection floors are 1.
        rng = np.random.default_rng(3)
        bt = eig_sym(laplacian(cycle_graph(3)))
        bg = eig_sym(laplacian(random_connected_graph(3, rng)))
        support = SpectralSupport(t_dim=3, g_dim=3, pairs=frozenset({(0, 0), (1, 2)}))
        uj = joint_basis_columns(bt, bg, support)
        report = exhaustive_check(uj, support)
        assert report.min_qualified_size == 2
        assert report.min_proj_t == 1
        assert report.violations == ()
        single_slot = [
            s for s in combinations(range(9), 2)
            if len({i // 3 for i in s}) == 1 and elimination_rank(uj[sorted(s)]) == 2
        ]
        assert single_slot

    def test_skewed_support_meets_time_floor(self):
        # One graph frequency carries three time frequencies, so every
        # qualified set touches at least floor_t = 3 time slots, more than
        # the ceil(K/K_G) = 2 that counting rows alone gives. On a 4-path
        # time axis the floor is reached.
        rng = np.random.default_rng(5)
        bt = eig_sym(laplacian(path_graph(4)))
        bg = eig_sym(laplacian(random_connected_graph(4, rng)))
        support = SpectralSupport(
            t_dim=4, g_dim=4, pairs=frozenset({(0, 0), (0, 1), (1, 0), (2, 0)})
        )
        uj = joint_basis_columns(bt, bg, support)
        report = exhaustive_check(uj, support)
        assert report.violations == ()
        assert report.min_proj_t == support.floor_t == 3
        assert report.min_proj_g == support.floor_g == 2

    def test_agrees_with_fast_path(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        plan, _ = critical_sampling_set(ref.ut_r, ref.ug_r, uj, ref.support)
        assert elimination_rank(uj[sorted(plan.linear_indices())]) == ref.support.k
        n_t = len(plan.proj_t)
        n_g = len(plan.proj_g)
        assert (plan.size, n_t, n_g) == (ref.support.k, ref.support.k_t, ref.support.k_g)

    def test_size_guard(self):
        support = SpectralSupport(t_dim=5, g_dim=5, pairs=frozenset({(0, 0)}))
        with pytest.raises(ValueError, match="joint vertices"):
            exhaustive_check(np.zeros((25, 1)), support)

    def test_matches_per_subset_reference(self, monkeypatch):
        # The report rebuilt by a plain loop over every K-subset, one 2-D
        # elimination each, must equal the blocked enumeration field by field,
        # whatever the number of subsets ranked per call.
        rng = np.random.default_rng(90)
        bt = eig_sym(laplacian(cycle_graph(3)))
        for support in [
            random_support(3, 4, rng, k_t=2, k_g=2, k=4),
            random_support(3, 4, rng, k_t=2, k_g=3, k=4),
            SpectralSupport(t_dim=3, g_dim=4, pairs=frozenset({(0, 0), (1, 3)})),
        ]:
            bg = eig_sym(laplacian(random_connected_graph(4, rng)))
            uj = joint_basis_columns(bt, bg, support)
            expected = self.reference_report(uj, support)
            assert expected.count_qualified_at_k > 0
            for block in (5, oracle.BLOCK):
                monkeypatch.setattr(oracle, "BLOCK", block)
                assert exhaustive_check(uj, support) == expected

    def test_reference_counts_violations_in_order(self):
        # the floors are necessary, so flagged sets only show up when the
        # floors are raised past what the basis needs; both sides must then
        # list the same subsets, in the same order, as tuples of int
        rng = np.random.default_rng(91)
        bt = eig_sym(laplacian(cycle_graph(3)))
        bg = eig_sym(laplacian(random_connected_graph(4, rng)))
        support = random_support(3, 4, rng, k_t=2, k_g=2, k=3)
        uj = joint_basis_columns(bt, bg, support)
        fields = ("t_dim", "g_dim", "k", "k_t", "k_g")
        raised = SimpleNamespace(floor_t=3, floor_g=3,
                                 **{f: getattr(support, f) for f in fields})
        expected = self.reference_report(uj, raised)
        report = exhaustive_check(uj, raised)
        assert (len(expected.violations), expected.count_qualified_at_k) == (180, 204)
        assert report == expected
        assert all(type(i) is int for s in report.violations for i in s)

    @staticmethod
    def reference_report(uj, support):
        """The report rebuilt one K-subset at a time."""
        k = support.k
        count_at_k, violations = 0, []
        exists_critical = False
        proj_t, proj_g = [], []
        for subset in combinations(range(uj.shape[0]), k):
            if elimination_rank(uj[list(subset)]) != k:
                continue
            n_t = len({i // support.g_dim for i in subset})
            n_g = len({i % support.g_dim for i in subset})
            if n_t < support.floor_t or n_g < support.floor_g:
                violations.append(subset)
            count_at_k += 1
            proj_t.append(n_t)
            proj_g.append(n_g)
            exists_critical |= (n_t, n_g) == (support.k_t, support.k_g)
        return ExhaustiveReport(
            min_qualified_size=k if count_at_k else None,
            count_qualified_at_k=count_at_k,
            violations=tuple(violations),
            exists_critical_set=exists_critical,
            min_proj_t=min(proj_t, default=None),
            min_proj_g=min(proj_g, default=None),
        )

    def test_never_ranks_subsets_smaller_than_k(self, monkeypatch):
        # a stack of fewer than K rows can never reach rank K, and a larger
        # one decides nothing that its K-row subsets do not, so every stacked
        # call ranks K-row matrices
        rng = np.random.default_rng(92)
        bt = eig_sym(laplacian(cycle_graph(3)))
        bg = eig_sym(laplacian(random_connected_graph(4, rng)))
        support = random_support(3, 4, rng, k_t=2, k_g=3, k=4)
        uj = joint_basis_columns(bt, bg, support)
        shapes = []

        def recording(stack, *args, **kwargs):
            shapes.append(np.shape(stack))
            return elimination_rank(stack, *args, **kwargs)

        monkeypatch.setattr(oracle, "elimination_rank", recording)
        report = exhaustive_check(uj, support)
        assert report.min_qualified_size == support.k
        assert shapes and all(shape[-2] == support.k for shape in shapes)

    @staticmethod
    def oracle_tiny_instances(seed, count):
        """T = 4 cycle x N = 5 Erdos-Renyi instances with K_T = 2, K_G = 3,
        K = 5, drawn in the order the oracle-tiny benchmark workload draws them."""
        rng = np.random.default_rng(seed)
        bt = eig_sym(laplacian(cycle_graph(4)))
        for _ in range(count):
            bg = eig_sym(laplacian(random_connected_graph(5, rng)))
            support = random_support(4, 5, rng, k_t=2, k_g=3, k=5)
            ut_r, ug_r = restrict_bases(bt, bg, support)
            yield support, joint_columns_from_restricted(ut_r, ug_r, support)

    def test_svd_cross_check_at_the_size_limit(self):
        # The oracle must count exactly the 5-sets an SVD finds nonsingular
        # against uj's scale. Measured over the 194 instances of seeds 301 and
        # 304: accepted sets have sigma_min / max|uj| >= 3.2e-8, rejected ones
        # <= 7.6e-16, so the 1e-12 cut sits far from both. Instance 68 of
        # seed 304 holds 5-sets at 3e-16 that an elimination reusing pivots
        # across the subset tree accepted; partial pivoting on each subset
        # must reject them.
        subsets = np.array(list(combinations(range(20), 5)))
        instances = list(self.oracle_tiny_instances(304, 69))
        for j in (0, 1, 2, 3, 68):
            support, uj = instances[j]
            s = np.linalg.svd(uj[subsets], compute_uv=False)
            ratio = s[:, -1] / np.abs(uj).max()
            report = exhaustive_check(uj, support)
            assert report.count_qualified_at_k == np.sum(ratio > 1e-12)
            if j == 68:
                assert np.sum((ratio > 0) & (ratio < 1e-15)) > 0

    def test_memory_at_the_size_limit(self, monkeypatch):
        # T*N = 20, K = 10 is the worst case: with every stacked matrix ranked
        # at its row count, all C(20, 10) = 184,756 K-sets qualify and every
        # report field is computed over all of them. Measured: a traced peak
        # of 8.5 MB with the uint8 table; an intp table alone is 14.8 MB.
        support = SpectralSupport(t_dim=4, g_dim=5, pairs=frozenset(
            (jt, jg) for jt in range(3) for jg in range(4) if (jt, jg) not in {(2, 2), (2, 3)}))
        uj = np.random.default_rng(20).normal(size=(20, 10))
        monkeypatch.setattr(oracle, "elimination_rank",
                            lambda mat, scale=None: np.full(mat.shape[:-2], mat.shape[-2]))
        tracemalloc.start()
        try:
            report = exhaustive_check(uj, support)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.count_qualified_at_k == comb(20, 10) == 184_756
        assert peak < 16e6

    def test_round_off_rows_do_not_qualify(self):
        # rows 0 and 1 are round-off: against their own scale they have rank
        # 2, a qualified and critical 2-set; against uj's scale they are zero,
        # and every 2-set holds at most one real row
        uj = np.array([[1e-17, 0.0], [0.0, 1e-17], [1.0, 0.0]])
        support = SpectralSupport(t_dim=3, g_dim=1, pairs=frozenset({(0, 0), (1, 0)}))
        report = exhaustive_check(uj, support)
        assert (report.count_qualified_at_k, report.min_qualified_size,
                report.exists_critical_set) == (0, None, False)

    @staticmethod
    def structured_instances(seed, count):
        """T, N in 3..4, each factor a cycle, path or star, random supports
        with K <= 6: bases whose exact zeros are computed as round-off."""
        rng = np.random.default_rng(seed)
        makers = (cycle_graph, path_graph, star_graph)
        while count:
            t, n = (int(v) for v in rng.integers(3, 5, size=2))
            make_t, make_g = (makers[i] for i in rng.integers(0, 3, size=2))
            support = random_support(t, n, rng)
            if support.k > 6:
                continue
            count -= 1
            bt, bg = eig_sym(laplacian(make_t(t))), eig_sym(laplacian(make_g(n)))
            yield support, joint_basis_columns(bt, bg, support)

    def test_counts_sets_nonsingular_against_the_basis_scale(self):
        # the count is the K-sets whose sigma_min exceeds 1e-12 max|uj|.
        # Measured on these 60 instances: accepted sets have sigma_min /
        # max|uj| >= 2.3e-2, rejected ones <= 7.2e-16. Ranked against each
        # set's own scale, 11 of them counted sets of round-off rows too.
        for support, uj in self.structured_instances(2024, 60):
            subsets = np.array(list(combinations(range(len(uj)), support.k)))
            sigma_min = np.linalg.svd(uj[subsets], compute_uv=False)[:, -1]
            report = exhaustive_check(uj, support)
            assert report.count_qualified_at_k == np.sum(sigma_min > 1e-12 * np.abs(uj).max())


class TestIndependence:
    FORBIDDEN_CALLS = {"svd", "qr", "matrix_rank", "lstsq", "solve", "det", "eigh"}

    @staticmethod
    def violations(source):
        """Imports from ``sampling`` and calls of factorizing solvers."""
        found = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = {alias.name for alias in node.names}
                if module.split(".")[-1] == "sampling" or "sampling" in names:
                    found.append(f"imports {module or '.'}: {sorted(names)}")
            elif isinstance(node, ast.Import):
                found += [f"imports {a.name}" for a in node.names
                          if a.name.split(".")[-1] == "sampling"]
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in TestIndependence.FORBIDDEN_CALLS:
                    found.append(f"calls {name} on line {node.lineno}")
        return found

    def test_oracle_shares_no_code_with_the_fast_path(self):
        # the oracle audits the fast path only while it shares none of its
        # linear algebra: no import from sampling, no SVD / QR / solve
        assert self.violations(Path(oracle.__file__).read_text()) == []

    @pytest.mark.parametrize("line", [
        "from .sampling import qualify",
        "from . import sampling",
        "from jtvsampling.sampling import qualify",
        "import jtvsampling.sampling",
        "r = np.linalg.matrix_rank(a)",
        "s = np.linalg.svd(a, compute_uv=False)",
        "q, r = qr(a)",
        "x = np.linalg.lstsq(a, b)",
        "x = np.linalg.solve(a, b)",
        "d = np.linalg.det(a)",
        "w, v = np.linalg.eigh(a)",
    ])
    def test_guard_catches_each_breach(self, line):
        assert len(self.violations(line)) == 1


class TestMonotonicity:
    def test_reference_instance(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        assert check_monotonicity(uj, 500, rng=np.random.default_rng(1))

    def test_equal_sets_pass(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        idx = list(range(5))
        assert elimination_rank(uj[idx]) == elimination_rank(uj[idx])

    def test_empty_subset_rank_zero(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        assert elimination_rank(uj[[]]) == 0

    def test_size_guard(self):
        with pytest.raises(ValueError, match="joint vertices"):
            check_monotonicity(np.ones((21, 2)), 1, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trials_below_one_rejected(self, ref, trials):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        with pytest.raises(ValueError, match="at least 1 trial"):
            check_monotonicity(uj, trials, rng=np.random.default_rng(0))

    def test_compares_each_trial_pair(self, monkeypatch):
        # true ranks never drop, so a drop is planted in the rank function:
        # one trial whose small set outranks its big set must fail the check
        def planted(stack, scale):
            ranks = np.zeros(stack.shape[:-2], dtype=int)
            ranks[0, -1] = 1
            return ranks

        uj = np.eye(4)
        assert check_monotonicity(uj, 300, rng=np.random.default_rng(5))
        monkeypatch.setattr(oracle, "elimination_rank", planted)
        assert not check_monotonicity(uj, 300, rng=np.random.default_rng(5))

    def test_round_off_rows_keep_rank_monotone(self):
        # rows 0 and 1 are round-off, as the star centre's rows of a computed
        # cycle x star basis are: against their own scale they have rank 2,
        # and with row 2 added, rank 1. Sets are ranked against uj's scale.
        uj = np.array([[1e-17, 0.0], [0.0, 1e-17], [1.0, 0.0]])
        assert check_monotonicity(uj, 300, rng=np.random.default_rng(0))

    def test_padded_ranks_match_subset_rank(self):
        # a stacked check ranks sorted, zero-padded subsets, or uj with the rows
        # outside each subset zeroed; each must have the rank of the same
        # subset's sorted rows on their own
        rng = np.random.default_rng(6)
        bt = eig_sym(laplacian(cycle_graph(4)))
        bg = eig_sym(laplacian(random_connected_graph(5, rng)))
        support = random_support(4, 5, rng, k_t=2, k_g=3, k=5)
        uj = joint_basis_columns(bt, bg, support)
        nt = uj.shape[0]
        subsets = [rng.choice(nt, size=int(rng.integers(0, nt + 1)), replace=False)
                   for _ in range(300)]
        padded = np.zeros((len(subsets), nt, uj.shape[1]))
        for i, s in enumerate(subsets):
            padded[i, : len(s)] = uj[np.sort(s)]
        masked = np.zeros((len(subsets), nt), dtype=bool)
        for i, s in enumerate(subsets):
            masked[i, s] = True
        want = [elimination_rank(uj[sorted(s)]) for s in subsets]
        assert elimination_rank(padded).tolist() == want
        assert elimination_rank(uj * masked[..., None]).tolist() == want

    def test_small_sets_nest_in_big_sets(self, monkeypatch):
        # every row ranked for a trial's small set must be ranked for its big
        # set too; uj's rows are distinct and nonzero, so they identify
        # themselves
        uj = np.random.default_rng(8).normal(size=(12, 3))
        row_of = {row.tobytes(): i for i, row in enumerate(uj)}
        rank = oracle.elimination_rank
        pairs = []

        def checked(stack, scale):
            small, big = [[{row_of[r.tobytes()] for r in m if r.any()} for m in side]
                          for side in stack]
            pairs.extend(zip(small, big))
            return rank(stack, scale=scale)

        monkeypatch.setattr(oracle, "elimination_rank", checked)
        assert check_monotonicity(uj, 300, rng=np.random.default_rng(9))
        assert len(pairs) == 300
        assert all(s <= b for s, b in pairs)
        assert any(0 < len(s) < len(b) for s, b in pairs)

    def test_both_checks_rank_against_max_abs_uj(self, monkeypatch):
        # exhaustive_check ranks (..., K, K) subsets and check_monotonicity
        # ranks (2, trials, nt, K) stacks, both against max|uj| computed once
        rng = np.random.default_rng(10)
        bt = eig_sym(laplacian(cycle_graph(3)))
        bg = eig_sym(laplacian(random_connected_graph(4, rng)))
        support = random_support(3, 4, rng, k_t=2, k_g=2, k=3)
        uj = 3.0 * joint_basis_columns(bt, bg, support)
        rank = oracle.elimination_rank
        calls = []

        def recording(stack, scale):
            calls.append((np.shape(stack), scale))
            return rank(stack, scale=scale)

        monkeypatch.setattr(oracle, "elimination_rank", recording)
        assert exhaustive_check(uj, support).count_qualified_at_k > 0
        enumerated = len(calls)
        assert check_monotonicity(uj, 100, rng=np.random.default_rng(11))
        assert 0 < enumerated < len(calls)
        assert all(scale == np.abs(uj).max() for _, scale in calls)
        assert all(shape[1:] == (3, 3) for shape, _ in calls[:enumerated])
        assert all(shape[0] == 2 and shape[2:] == (12, 3) for shape, _ in calls[enumerated:])
