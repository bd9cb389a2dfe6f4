import ast
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import families
from jtvsampling import (
    JointBasis,
    SamplingPlan,
    SpectralSupport,
    critical_sampling_set,
    eig_sym,
    joint_basis_columns,
    joint_columns_from_restricted,
    laplacian,
    max_lin_indep_rows,
    path_graph,
    qualify,
    reconstruct,
    restrict_bases,
    sample,
    separate_sampling,
    synth_from_restricted,
    synth_signal,
)
from jtvsampling import bench, oracle, sampling
from jtvsampling.generate import random_coeffs, random_support
from jtvsampling.sampling import (
    IllConditionedError,
    RankDeficiencyError,
    UnqualifiedPlanError,
    _coverage_first_rows,
    reconstruct_coefficients,
)
from jtvsampling.spectral import RANK_TOL


class TestMaxLinIndepRows:
    def test_reference_time_basis(self, ref):
        assert max_lin_indep_rows(ref.ut_r) == [0, 1]

    def test_reference_graph_basis_skips_zero_row(self, ref):
        assert max_lin_indep_rows(ref.ug_r) == [0, 2]

    def test_identity(self):
        assert max_lin_indep_rows(np.eye(5)) == [0, 1, 2, 3, 4]

    def test_dependent_rows_rejected(self):
        m = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [3.0, 4.0]])
        assert max_lin_indep_rows(m) == [0, 2]

    def test_selected_certificate(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = rng.normal(size=(8, 4)) @ rng.normal(size=(4, 5))
            sel = max_lin_indep_rows(m)
            chosen = m[sel]
            gram = chosen @ chosen.T
            assert np.linalg.det(gram) > 1e-12
            # every rejected row lies in the span of the accepted ones
            q, _ = np.linalg.qr(chosen.T)
            for i in range(m.shape[0]):
                if i in sel:
                    continue
                row = m[i]
                resid = row - q @ (q.T @ row)
                assert np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(row), 1.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="column"):
            max_lin_indep_rows(np.zeros((3, 0)))

    @pytest.mark.parametrize("factor, accepted", [(2.0, [0, 1]), (0.5, [0])])
    def test_cut_is_rank_tol_times_max_entry(self, factor, accepted):
        # one row per slot: a lone independent component at `factor` times the
        # cut RANK_TOL * max|entry| = 4 RANK_TOL, for the naive scan and the
        # planner's routine alike; a cut relative to the row's own norm would
        # accept it at either factor
        mat = np.array([[4.0, 0.0], [0.0, factor * RANK_TOL * 4.0]])
        assert max_lin_indep_rows(mat) == accepted
        assert _coverage_first_rows(mat, 1, 4.0) == accepted


class TestCriticalSamplingSet:
    def test_reference_instance(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        plan, report = critical_sampling_set(ref.ut_r, ref.ug_r, uj, ref.support)
        assert plan.sorted_samples == ((0, 0), (1, 0), (1, 2))
        assert plan.proj_t == (0, 1)
        assert plan.proj_g == (0, 2)
        assert report.rank == 3
        assert report.qualified and report.critical

    def test_full_support_takes_everything(self):
        bt, bg = families.basis_pair(3, 3, np.random.default_rng(2))
        support = SpectralSupport(
            t_dim=3, g_dim=3,
            pairs=frozenset((jt, jg) for jt in range(3) for jg in range(3)),
        )
        ut_r, ug_r = restrict_bases(bt, bg, support)
        uj = joint_basis_columns(bt, bg, support)
        plan, report = critical_sampling_set(ut_r, ug_r, uj, support)
        assert plan.size == 9
        assert report.critical

    def test_random_instances_always_critical(self):
        for _, _, support, ut_r, ug_r, uj in families.random_instances(99, 200, 6, 6):
            plan, report = critical_sampling_set(ut_r, ug_r, uj, support)
            assert report.critical
            assert plan.size == support.k
            assert len(plan.proj_t) == support.k_t
            assert len(plan.proj_g) == support.k_g

    def test_deterministic(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        p1, _ = critical_sampling_set(ref.ut_r, ref.ug_r, uj, ref.support)
        p2, _ = critical_sampling_set(ref.ut_r, ref.ug_r, uj, ref.support)
        assert p1 == p2

    def test_coverage_first_covers_slots_a_lowest_index_scan_misses(self):
        # Over the planner's own step-1 product grid, a lowest-index step-3
        # scan can reach full rank on fewer than K_T time slots; the
        # coverage-first pass must still deliver a critical plan there,
        # deterministically. A seeded search (seed 7: an ER(3) graph, then 20
        # supports with K_T = 3, K_G = 2, K = 4 on 5-cycle x ER(3)) finds such
        # grids; 13 of the 20 were misses when this was written. Which grid
        # step 1 picks on a cycle is round-off's choice, so none is named.
        rng = np.random.default_rng(7)
        bt, bg = families.basis_pair(5, 3, rng)
        misses = 0
        for _ in range(20):
            support = random_support(5, 3, rng, k_t=3, k_g=2, k=4)
            ut_r, ug_r = restrict_bases(bt, bg, support)
            uj = joint_basis_columns(bt, bg, support)
            slots, vertices = sampling._factor_rows(ut_r, ug_r)
            product = [(t, v) for t in slots for v in vertices]
            lex = max_lin_indep_rows(uj[[t * 3 + v for t, v in product]])
            assert len(lex) == support.k
            if len({product[i][0] for i in lex}) == support.k_t:
                continue
            misses += 1
            plan, report = critical_sampling_set(ut_r, ug_r, uj, support)
            assert report.critical
            plan2, _ = critical_sampling_set(ut_r, ug_r, uj, support)
            assert plan == plan2
        assert misses > 0

    def test_coverage_first_pick_order(self):
        # 2 x 2 grid, rows in (t, v) order; the lowest-index scan takes [0, 1]
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [3.0, 0.0]])
        # largest residual first; row 0 then covers two new cells but is
        # dependent, so the tie between rows 1 and 2 goes to the lower index
        assert _coverage_first_rows(rows, 2, 3.0) == [3, 1]
        rows = np.array([[10.0, 0.0], [0.0, 5.0], [0.0, 1.0], [1.0, 1.0]])
        # row 3 covers two new cells and beats row 1's larger residual
        assert _coverage_first_rows(rows, 2, 10.0) == [0, 3]
        rows = np.array([[3.0, 0.0, 0.0], [2.5, 0.0, 0.1], [0.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
        # once every slot and vertex is covered, row 2's residual beats row 1's norm
        assert _coverage_first_rows(rows, 2, 3.0) == [0, 3, 2]

    def test_known_greedy_miss_on_path_grid(self):
        # ROADMAP item 6: on a 4-path x 4-path grid with pairs (1,1), (2,2),
        # (3,3), step 3's greedy order reaches rank K on 2 of K_T = 3 time
        # slots, so the plan is qualified and of size K but not critical,
        # although the oracle finds a critical set. The cells are not pinned:
        # a tie rule that only moves the plan (item 2) need not edit this test,
        # a coverage fix that makes the plan critical (item 14) must.
        bt = eig_sym(laplacian(path_graph(4)))
        support = SpectralSupport(t_dim=4, g_dim=4, pairs=frozenset({(1, 1), (2, 2), (3, 3)}))
        basis = JointBasis(*restrict_bases(bt, bt, support), support)
        plan, report = critical_sampling_set(basis.ut_r, basis.ug_r, basis, support)
        assert (support.k, support.k_t, support.k_g) == (3, 3, 3)
        assert (plan.size, report.rank, report.n_proj_t, report.n_proj_g) == (3, 3, 2, 3)
        assert report.qualified and not report.critical
        assert oracle.exhaustive_check(basis.dense(), support).exists_critical_set

    def test_qualifies_once_per_plan(self, monkeypatch):
        calls = []
        original = sampling.qualify
        monkeypatch.setattr(sampling, "qualify", lambda *a: calls.append(1) or original(*a))
        rng = np.random.default_rng(99)
        for done in range(1, 51):
            _, _, support, ut_r, ug_r, uj = families.instance(5, 4, rng)
            assert critical_sampling_set(ut_r, ug_r, uj, support)[1].critical
            assert len(calls) == done

    @pytest.mark.parametrize("n", [48, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_well_conditioned_at_bench_sizes(self, n, seed):
        # a lowest-index step-3 scan gave cond 1.0e9 / 1.1e9 at n = 48
        # (seeds 0, 2) and 5.5e8 at n = 64 (seed 0); a lowest-index step-1
        # scan gave 1/sigma_min 3.0e3 (n = 48) and 1.15e4 (n = 64) for the
        # critical plan and up to 1.2e8 for the separate rectangle's
        # 1/(sigma_min(A) sigma_min(B)), all at seed 0
        basis = bench.prepare_case(n, seed)
        ut_r, ug_r, support = basis.ut_r, basis.ug_r, basis.support
        uj = joint_columns_from_restricted(ut_r, ug_r, support)
        plan, report = critical_sampling_set(ut_r, ug_r, uj, support)
        assert report.critical
        assert np.linalg.cond(uj[plan.linear_indices()]) < 1e5
        assert 1 / smallest_singular_value(uj[plan.linear_indices()]) < 1e3
        sep = separate_sampling(ut_r, ug_r)
        a, b = ut_r[list(sep.proj_t)], ug_r[list(sep.proj_g)]
        assert 1 / (smallest_singular_value(a) * smallest_singular_value(b)) < 1e3
        x = synth_from_restricted(ut_r, ug_r, support,
                                  random_coeffs(support, np.random.default_rng(seed)))
        x_rec = reconstruct(sample(x, plan), plan, uj, support)
        assert np.linalg.norm(x_rec - x) < 1e-8 * np.linalg.norm(x)

    def test_planner_never_calls_naive_scan(self, ref, monkeypatch):
        def naive_scan(*_):
            raise AssertionError("the planner called max_lin_indep_rows")
        monkeypatch.setattr(sampling, "max_lin_indep_rows", naive_scan)
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        plan, report = critical_sampling_set(ref.ut_r, ref.ug_r, uj, ref.support)
        assert report.critical
        assert separate_sampling(ref.ut_r, ref.ug_r).size == 4

    def test_corrupted_input_raises(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        with pytest.raises(RankDeficiencyError, match="step 1"):
            critical_sampling_set(np.zeros_like(ref.ut_r), ref.ug_r, uj, ref.support)
        with pytest.raises(RankDeficiencyError, match="step 1"):
            separate_sampling(ref.ut_r, np.zeros_like(ref.ug_r))

    def test_product_rank_short_raises_step_3(self):
        # the cut is RANK_TOL * max|entry| = 1e-10 in both steps: step 1 accepts
        # both rows of each factor (residual 1e-6), but the four product rows
        # reach rank 4 only through a 1e-12 component, two decades below it
        factor = np.array([[1.0, 0.0], [1.0, 1e-6]])
        full = SpectralSupport(t_dim=2, g_dim=2, pairs={(0, 0), (0, 1), (1, 0), (1, 1)})
        uj = JointBasis(factor, factor, full)
        with pytest.raises(RankDeficiencyError,
                           match=r"^step 3: product rows have rank 3 < 4$"):
            critical_sampling_set(factor, factor, uj, full)

    def test_step_1_ranks_at_the_joint_basis_cut(self):
        # 2 slots x 1 vertex: step 1 ranks the time basis at RANK_TOL times its
        # max |entry|, qualify's cut, not at a fraction of each row's own norm
        support = SpectralSupport(t_dim=2, g_dim=1, pairs={(0, 0), (1, 0)})
        ug_r = np.array([[1.0]])
        # a 5e-10 row is independent at the cut: the full plan, qualified
        ut_r = np.array([[1.0, 0.0], [0.0, 5e-10]])
        plan, report = critical_sampling_set(ut_r, ug_r, JointBasis(ut_r, ug_r, support),
                                             support)
        assert plan.sorted_samples == ((0, 0), (1, 0))
        assert (report.rank, report.qualified, report.critical) == (2, True, True)
        # a residual of 5e-17 is not, however large its row: refused in step 1,
        # not planned and then called unqualified by qualify
        ut_r = np.array([[1.0, 0.0], [1e-8, 5e-17]])
        with pytest.raises(RankDeficiencyError, match=r"^step 1: time basis has rank 1 < 2$"):
            critical_sampling_set(ut_r, ug_r, JointBasis(ut_r, ug_r, support), support)

    def test_shape_mismatch(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        with pytest.raises(ValueError, match="shape"):
            critical_sampling_set(ref.ut_r[:3], ref.ug_r, uj, ref.support)

    @pytest.mark.parametrize("bad", ["narrow", "tall"])
    def test_joint_basis_shape_mismatch(self, ref, bad):
        with pytest.raises(ValueError, match="joint basis"):
            critical_sampling_set(ref.ut_r, ref.ug_r, wrong_shape_joint(ref, bad), ref.support)


class TestQualify:
    def test_reference_plans(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        critical = SamplingPlan(4, 4, frozenset({(0, 0), (1, 0), (1, 2)}))
        rep = qualify(critical, uj, ref.support)
        assert rep.rank == 3 and rep.qualified and rep.critical
        product = SamplingPlan(4, 4, frozenset({(0, 0), (0, 2), (1, 0), (1, 2)}))
        rep = qualify(product, uj, ref.support)
        assert rep.rank == 3 and rep.qualified and not rep.critical

    def test_too_small_plan_unqualified(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        small = SamplingPlan(4, 4, frozenset({(0, 0), (1, 0)}))
        rep = qualify(small, uj, ref.support)
        assert not rep.qualified
        assert rep.rank <= 2


def round_off_instance():
    """5-path x 4-path with pair (1, 0), and the plan {(2, 0)}. The 5-path's
    second eigenvector is exactly zero at its middle vertex, so the plan's one
    basis entry is round-off (about 1.8e-16). Path Laplacians have distinct
    eigenvalues, so the entry is round-off on every LAPACK build."""
    bt, bg = eig_sym(laplacian(path_graph(5))), eig_sym(laplacian(path_graph(4)))
    support = SpectralSupport(5, 4, frozenset({(1, 0)}))
    basis = JointBasis(*restrict_bases(bt, bg, support), support)
    return basis, SamplingPlan(5, 4, frozenset({(2, 0)}))


class TestRankAgainstBasisScale:
    """``qualify`` and the solve rank a sampled block against the joint
    basis's max |entry|, as the oracle does, not against the block's own."""

    @pytest.mark.parametrize("dense", [False, True], ids=["JointBasis", "dense"])
    def test_round_off_row_is_unqualified(self, dense):
        # ranked against its own scale, the 1.8e-16 entry read rank 1: a
        # qualified, critical plan, and a 0.01 sample gave entries near 1.7e13
        basis, plan = round_off_instance()
        uj = basis.dense() if dense else basis
        assert abs(basis.rows(plan.linear_indices())[0, 0]) < 1e-15
        rep = qualify(plan, uj, basis.support)
        assert (rep.rank, rep.qualified, rep.critical) == (0, False, False)
        with pytest.raises(UnqualifiedPlanError, match="rank 0 < bandwidth 1"):
            reconstruct(np.array([0.01]), plan, uj, basis.support)

    def test_agrees_with_oracle_on_every_k_subset(self):
        # qualify's verdict is the oracle's rank-K test against max|uj|, and
        # the solve refuses exactly the unqualified sets; ranked against each
        # block's own scale, 44 of these 5,585 sets disagreed with the oracle
        for basis in families.structured(2024, 40, k_max=3):
            support, uj = basis.support, basis.dense()
            subsets = np.array(list(combinations(range(len(uj)), support.k)))
            ranks = oracle.elimination_rank(uj[subsets], scale=np.abs(uj).max())
            for subset, rank in zip(subsets.tolist(), ranks):
                plan = SamplingPlan(support.t_dim, support.g_dim,
                                    frozenset(divmod(i, support.g_dim) for i in subset))
                qualified = bool(rank == support.k)
                assert qualify(plan, basis, support).qualified == qualified
                if qualified:
                    reconstruct_coefficients(np.ones(support.k), plan, uj, support)
                else:
                    with pytest.raises(UnqualifiedPlanError):
                        reconstruct_coefficients(np.ones(support.k), plan, uj, support)

    @pytest.mark.parametrize("exp", [-500, -300, 300, 500])
    def test_selection_does_not_depend_on_the_basis_size(self, exp):
        # both factors times 2**exp, joint entries near 2**(2 exp), all normal
        # floats: the rank cut is relative, and the passes used to square
        # absolute entries, so every instance lost its rows to underflow
        # (rank refusals) or warned of overflow
        for inst in families.random_instances(99, 100, 6, 6):
            ut_r, ug_r = np.ldexp(inst.ut_r, exp), np.ldexp(inst.ug_r, exp)
            uj = JointBasis(ut_r, ug_r, inst.support).dense()
            assert (critical_sampling_set(ut_r, ug_r, uj, inst.support)
                    == critical_sampling_set(inst.ut_r, inst.ug_r, inst.uj, inst.support))
            assert separate_sampling(ut_r, ug_r) == separate_sampling(inst.ut_r, inst.ug_r)
            assert max_lin_indep_rows(uj) == max_lin_indep_rows(inst.uj)


def test_structured_er_plans_are_qualified_and_repeatable():
    # the first 300 of the family's 6,000 draws, taken by count; whether a
    # plan is critical is item 6's question, so it is not asserted here
    for basis in families.structured_er(300):
        plan, report = critical_sampling_set(basis.ut_r, basis.ug_r, basis, basis.support)
        assert report.qualified and plan.size == basis.support.k
        assert critical_sampling_set(basis.ut_r, basis.ug_r, basis,
                                     basis.support) == (plan, report)


SAMPLED_BLOCK_USES = pytest.mark.parametrize("use", [
    qualify,
    lambda plan, uj, support: reconstruct_coefficients(np.ones(3), plan, uj, support),
    lambda plan, uj, support: reconstruct(np.ones(3), plan, uj, support),
], ids=["qualify", "reconstruct_coefficients", "reconstruct"])


@SAMPLED_BLOCK_USES
@pytest.mark.parametrize("dims", [(4, 5), (5, 4), (3, 4)])
def test_plan_dims_must_match_support(ref, use, dims):
    # the critical plan's points read with the wrong N (or T) index other rows
    # of uj; reconstructing from them used to give a wrong signal, no error
    uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
    plan = SamplingPlan(*dims, frozenset({(0, 0), (1, 0), (1, 2)}))
    with pytest.raises(ValueError, match="dimensions"):
        use(plan, uj, ref.support)


def smallest_singular_value(mat):
    return np.linalg.svd(mat, compute_uv=False)[-1]


def wrong_shape_joint(ref, bad):
    """The reference joint basis missing its last column, or with one extra row."""
    uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
    return uj[:, :-1] if bad == "narrow" else np.vstack([uj, uj[:1]])


@SAMPLED_BLOCK_USES
@pytest.mark.parametrize("bad", ["narrow", "tall"])
def test_joint_basis_must_be_tn_by_k(ref, use, bad):
    # a narrow uj used to give qualify rank 2 and reconstruct an unqualified
    # plan (exit 3 from jtv), and qualify accepted a tall one
    plan = SamplingPlan(4, 4, frozenset({(0, 0), (1, 0), (1, 2)}))
    with pytest.raises(ValueError, match="joint basis"):
        use(plan, wrong_shape_joint(ref, bad), ref.support)


def with_nan(mat):
    """A float copy of ``mat`` with a NaN first entry."""
    mat = np.array(mat, dtype=float)
    mat.flat[0] = np.nan
    return mat


@pytest.mark.parametrize("call", [
    lambda r, plan, uj: qualify(plan, with_nan(uj), r.support),
    lambda r, plan, uj: qualify(plan, JointBasis(with_nan(r.ut_r), r.ug_r, r.support),
                                r.support),
    lambda r, plan, uj: reconstruct(r.sample_values, plan, with_nan(uj), r.support),
    lambda r, plan, uj: critical_sampling_set(r.ut_r, r.ug_r, np.full_like(uj, np.inf),
                                              r.support),
    lambda r, plan, uj: separate_sampling(r.ut_r, with_nan(r.ug_r)),
    lambda r, plan, uj: max_lin_indep_rows(with_nan(uj)),
    lambda r, plan, uj: oracle.exhaustive_check(with_nan(uj), r.support),
    lambda r, plan, uj: oracle.check_monotonicity(np.full_like(uj, -np.inf), 1,
                                                  np.random.default_rng(0)),
], ids=["qualify", "qualify JointBasis", "reconstruct", "critical_sampling_set inf",
        "separate_sampling", "max_lin_indep_rows", "exhaustive_check",
        "check_monotonicity -inf"])
def test_non_finite_basis_is_an_input_error(ref, call):
    # refused where the basis's scale is taken; a NaN scale used to rank every
    # block 0 (qualify's rank 0, reconstruct's UnqualifiedPlanError, step 1's
    # RankDeficiencyError, no rows from the naive scan), and an all-inf uj made
    # LAPACK print an illegal-value message before the plan's rank-0 report
    plan = SamplingPlan(4, 4, frozenset({(0, 0), (1, 0), (1, 2)}))
    uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
    with pytest.raises(ValueError, match="^basis has NaN or infinite entries$"):
        call(ref, plan, uj)


class TestJointBasisInput:
    """Every entry point gives the same result from a :class:`JointBasis` as
    from the dense joint basis it stands for."""

    @staticmethod
    def assert_same_results(ut_r, ug_r, uj, support, rng):
        basis = JointBasis(ut_r, ug_r, support)
        plan, report = critical_sampling_set(ut_r, ug_r, uj, support)
        assert critical_sampling_set(ut_r, ug_r, basis, support) == (plan, report)
        assert qualify(plan, basis, support) == qualify(plan, uj, support) == report
        x = synth_from_restricted(ut_r, ug_r, support, random_coeffs(support, rng))
        values = sample(x, plan)
        assert np.array_equal(reconstruct_coefficients(values, plan, basis, support),
                              reconstruct_coefficients(values, plan, uj, support))
        x_dense = reconstruct(values, plan, uj, support)
        x_fact = reconstruct(values, plan, basis, support)
        assert np.linalg.norm(x_fact - x_dense) <= 1e-12 * np.linalg.norm(x)

    def test_reference_instance(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        self.assert_same_results(ref.ut_r, ref.ug_r, uj, ref.support,
                                 np.random.default_rng(0))

    def test_random_instances(self):
        # the instances of acceptance criterion 5
        rng = np.random.default_rng(1)
        for _ in range(100):
            _, _, support, ut_r, ug_r, uj = families.random_instance(rng, 8, 8)
            self.assert_same_results(ut_r, ug_r, uj, support, rng)

    def test_bench_instance(self):
        basis = bench.prepare_case(48, seed=1)
        ut_r, ug_r, support = basis.ut_r, basis.ug_r, basis.support
        uj = joint_columns_from_restricted(ut_r, ug_r, support)
        self.assert_same_results(ut_r, ug_r, uj, support, np.random.default_rng(2))

    @SAMPLED_BLOCK_USES
    def test_basis_of_another_support_rejected(self, ref, use):
        other = SpectralSupport(4, 4, frozenset({(1, 1), (1, 2), (2, 1)}))
        basis = JointBasis(ref.ut_r, ref.ug_r, other)
        plan = SamplingPlan(4, 4, frozenset({(0, 0), (1, 0), (1, 2)}))
        with pytest.raises(ValueError, match="another support"):
            use(plan, basis, ref.support)

    def test_planner_refuses_basis_of_another_support(self, ref):
        other = SpectralSupport(4, 4, frozenset({(1, 1), (1, 2), (2, 1)}))
        with pytest.raises(ValueError, match="another support"):
            critical_sampling_set(ref.ut_r, ref.ug_r, JointBasis(ref.ut_r, ref.ug_r, other),
                                  ref.support)


class TestPlanFromFactors:
    """A plan is a function of the restricted bases and the support; ``uj``
    only certifies it."""

    @staticmethod
    def assert_row_order_ignored(ut_r, ug_r, uj, support, seed):
        shuffled = uj[np.random.default_rng(seed).permutation(len(uj))]
        plan, _ = critical_sampling_set(ut_r, ug_r, uj, support)
        assert critical_sampling_set(ut_r, ug_r, shuffled, support)[0] == plan

    def test_reference_instance(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        self.assert_row_order_ignored(ref.ut_r, ref.ug_r, uj, ref.support, 0)

    @pytest.mark.parametrize("n", [16, 32, 48])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bench_instances(self, n, seed):
        # step 3 used to read its rows from uj, so every one of these plans moved
        basis = bench.prepare_case(n, seed=seed)
        ut_r, ug_r, support = basis.ut_r, basis.ug_r, basis.support
        uj = joint_columns_from_restricted(ut_r, ug_r, support)
        self.assert_row_order_ignored(ut_r, ug_r, uj, support, seed)

    DENSE_ONLY = {"_DenseJoint", "_check_joint", "_check_restricted", "unvec"}

    @staticmethod
    def dense_names(source):
        """The names of ``DENSE_ONLY`` that ``source`` imports, reads or defines."""
        found = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                found.add(node.name)
        return found & TestPlanFromFactors.DENSE_ONLY

    def test_sampling_holds_no_joint_basis_internals(self):
        # spectral owns both forms of the joint basis and their checks
        assert self.dense_names(Path(sampling.__file__).read_text()) == set()

    @pytest.mark.parametrize("line", [
        "from .spectral import JointBasis, _check_joint",
        "ut_r, ug_r = _check_restricted(ut_r, ug_r, support)",
        "x = spectral.unvec(y, n, t)",
        "class _DenseJoint: pass",
    ])
    def test_guard_catches_each_breach(self, line):
        assert len(self.dense_names(line)) == 1


class TestSeparateSampling:
    def test_reference_uses_four_samples(self, ref):
        plan = separate_sampling(ref.ut_r, ref.ug_r)
        assert plan.sorted_samples == ((0, 0), (0, 2), (1, 0), (1, 2))
        assert plan.size == 4

    def test_single_frequency(self):
        plan = separate_sampling(np.ones((3, 1)) / np.sqrt(3), np.ones((2, 1)) / np.sqrt(2))
        assert plan.size == 1

    def test_picks_largest_residual_slot(self):
        # after slot 0, slot 2's residual 1 beats slot 1's 1e-3; a
        # lowest-index scan takes the nearly dependent slot 1
        plan = separate_sampling([[1.0, 0.0], [0.0, 1e-3], [0.0, 1.0]], [[1.0]])
        assert plan.proj_t == (0, 2)

    @pytest.mark.parametrize("ut_r, error, match", [
        (np.array([1.0, 0.0, 0.0]), ValueError,
         r"expected a matrix with at least one column, got \(3,\)"),
        (np.zeros((3, 0)), ValueError,
         r"expected a matrix with at least one column, got \(3, 0\)"),
        (np.zeros((0, 2)), RankDeficiencyError, "step 1: time basis has rank 0 < 2"),
    ], ids=["1-d", "no-columns", "no-rows"])
    def test_bad_factor_inputs(self, ut_r, error, match):
        with pytest.raises(error, match=match):
            separate_sampling(ut_r, np.ones((2, 1)))

    def test_rectangle_support_matches_critical_size(self):
        bt, bg = families.basis_pair(5, 4, np.random.default_rng(31))
        support = SpectralSupport(
            t_dim=5, g_dim=4,
            pairs=frozenset((jt, jg) for jt in (1, 3) for jg in (0, 2)),
        )
        ut_r, ug_r = restrict_bases(bt, bg, support)
        uj = joint_basis_columns(bt, bg, support)
        plan, report = critical_sampling_set(ut_r, ug_r, uj, support)
        sep = separate_sampling(ut_r, ug_r)
        assert report.critical
        assert plan.size == sep.size == support.k_t * support.k_g


class TestSample:
    def test_reference_values(self, ref):
        plan = SamplingPlan(4, 4, frozenset({(0, 0), (1, 0), (1, 2)}))
        assert np.allclose(sample(ref.x, plan), ref.sample_values)

    def test_zero_signal(self):
        plan = SamplingPlan(3, 3, frozenset({(0, 1), (2, 2)}))
        assert np.array_equal(sample(np.zeros((3, 3)), plan), np.zeros(2))

    def test_full_plan_is_vectorization(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 2))
        plan = SamplingPlan(2, 3, frozenset((t, v) for t in range(2) for v in range(3)))
        assert np.array_equal(sample(x, plan), x.flatten(order="F"))

    def test_shape_mismatch(self, ref):
        plan = SamplingPlan(4, 4, frozenset({(0, 0)}))
        with pytest.raises(ValueError, match="shape"):
            sample(ref.x[:3], plan)


class TestReconstruct:
    def test_reference_recovery(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        plan = SamplingPlan(4, 4, frozenset({(0, 0), (1, 0), (1, 2)}))
        x_rec = reconstruct(ref.sample_values, plan, uj, ref.support)
        assert np.max(np.abs(x_rec - ref.x)) < 1e-3

    def test_overdetermined_path_agrees(self):
        rng = np.random.default_rng(8)
        bt, bg, support, ut_r, ug_r, uj = families.instance(5, 4, rng)
        x = synth_signal(bt, bg, support, random_coeffs(support, rng))
        plan, _ = critical_sampling_set(ut_r, ug_r, uj, support)
        sep = separate_sampling(ut_r, ug_r)
        x1 = reconstruct(sample(x, plan), plan, uj, support)
        x2 = reconstruct(sample(x, sep), sep, uj, support)
        assert np.max(np.abs(x1 - x)) < 1e-9
        assert np.max(np.abs(x1 - x2)) < 1e-9

    def test_full_support_identity_round_trip(self):
        rng = np.random.default_rng(6)
        bt, bg = families.basis_pair(3, 3, rng)
        support = SpectralSupport(
            t_dim=3, g_dim=3,
            pairs=frozenset((jt, jg) for jt in range(3) for jg in range(3)),
        )
        uj = joint_basis_columns(bt, bg, support)
        plan = SamplingPlan(3, 3, frozenset((t, v) for t in range(3) for v in range(3)))
        x = rng.normal(size=(3, 3))
        x_rec = reconstruct(sample(x, plan), plan, uj, support)
        assert np.max(np.abs(x_rec - x)) < 1e-9

    def test_unqualified_plan_rejected(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        plan = SamplingPlan(4, 4, frozenset({(0, 0), (1, 0)}))
        with pytest.raises(UnqualifiedPlanError, match="rank"):
            reconstruct(np.zeros(2), plan, uj, ref.support)

    def test_ill_conditioned_rejected(self):
        # a 1e-14 singular value lies below the cut RANK_TOL * max|entry|, so
        # the rank check refuses this block before its condition is looked at
        support = SpectralSupport(t_dim=2, g_dim=2, pairs=frozenset({(0, 0), (1, 1)}))
        uj = np.array([[1.0, 1.0], [0.0, 1e-14], [0.0, 0.0], [0.0, 0.0]])
        plan = SamplingPlan(2, 2, frozenset({(0, 0), (0, 1)}))
        with pytest.raises(UnqualifiedPlanError, match="rank 1 < bandwidth 2"):
            reconstruct_coefficients(np.array([1.0, 0.0]), plan, uj, support)
        # ones + 3e-10 (I - ee'/K) at K = 400 has singular values 400 and 3e-10,
        # 3x the cut: full rank, condition 1.33e12 (up to round-off) >
        # COND_LIMIT. Every cell of a 20 x 20 grid is sampled
        k = 400
        support = SpectralSupport(t_dim=20, g_dim=20,
                                  pairs=frozenset(divmod(i, 20) for i in range(k)))
        uj = np.ones((k, k)) + 3e-10 * (np.eye(k) - np.ones((k, k)) / k)
        plan = SamplingPlan(20, 20, frozenset(divmod(i, 20) for i in range(k)))
        with pytest.raises(IllConditionedError,
                           match=r"condition estimate 1\.3\d\de\+12 exceeds 1e\+12"):
            reconstruct_coefficients(np.ones(k), plan, uj, support)

    def test_overflowing_values_rejected(self):
        support = SpectralSupport(t_dim=2, g_dim=2, pairs=frozenset({(0, 0), (1, 1)}))
        uj = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0], [0.0, 0.0]]) / np.sqrt(2)
        plan = SamplingPlan(2, 2, frozenset({(0, 0), (0, 1)}))
        with pytest.raises(IllConditionedError, match="overflow"):
            reconstruct_coefficients(np.array([1.7e308, -1.7e308]), plan, uj, support)
        # finite coefficients can still overflow in the synthesis
        uj = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(IllConditionedError, match="overflow"):
            reconstruct(np.array([1e308, 1e308]), plan, uj, support)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        # bad input, not a theory violation: refused before the solve
        support = SpectralSupport(t_dim=2, g_dim=2, pairs=frozenset({(0, 0), (1, 1)}))
        uj = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0], [0.0, 0.0]]) / np.sqrt(2)
        plan = SamplingPlan(2, 2, frozenset({(0, 0), (0, 1)}))
        for solve in (reconstruct_coefficients, reconstruct):
            with pytest.raises(ValueError, match="finite"):
                solve(np.array([bad, 1.0]), plan, uj, support)

    def test_overdetermined_solve_keeps_accuracy(self):
        # cond 1e7 is accepted, so the error may reach cond * eps ~ 2e-9;
        # squaring cond (normal equations) would lose about 14 of 16 digits
        rng = np.random.default_rng(12)
        support = SpectralSupport(t_dim=2, g_dim=3, pairs=frozenset({(0, 0), (1, 1)}))
        plan = SamplingPlan(2, 3, frozenset({(0, 0), (0, 1), (1, 0), (1, 2)}))
        left, _ = np.linalg.qr(rng.normal(size=(4, 2)))
        right, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        uj = rng.normal(size=(6, 2))
        uj[plan.linear_indices()] = left @ np.diag([1.0, 1e-7]) @ right.T
        coeffs = np.array([0.6, -0.8])
        values = uj[plan.linear_indices()] @ coeffs
        got = reconstruct_coefficients(values, plan, uj, support)
        assert np.linalg.norm(got - coeffs) / np.linalg.norm(coeffs) < 1e-8

    def test_value_count_mismatch(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        plan = SamplingPlan(4, 4, frozenset({(0, 0), (1, 0), (1, 2)}))
        with pytest.raises(ValueError, match="sample"):
            reconstruct(np.zeros(2), plan, uj, ref.support)


class TestSamplingPlanValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            SamplingPlan(4, 4, frozenset())

    @pytest.mark.parametrize("point", [(4, 0), (0, 5), (-1, 2)])
    def test_out_of_range_rejected(self, point):
        with pytest.raises(ValueError, match=r"sample \(.*\) out of range for dims \(4, 5\)"):
            SamplingPlan(4, 5, frozenset({point}))

    @pytest.mark.parametrize("samples, repeat", [
        ([[0, 4], [3, 1], [0, 4]], (0, 4)),
        ([(2, 1), (2.0, np.int32(1))], (2, 1)),
    ])
    def test_repeated_sample_rejected(self, samples, repeat):
        # a repeated sample used to be merged into one
        with pytest.raises(ValueError) as exc:
            SamplingPlan(4, 5, samples)
        assert str(exc.value) == f"sample {repeat} is given twice"

    @pytest.mark.parametrize("dims", [(0, 4), (4, 0), (-1, 3)])
    def test_non_positive_dims_rejected(self, dims):
        # used to report the sample (0, 0) out of range
        with pytest.raises(ValueError, match="sampling plan dimensions must be positive"):
            SamplingPlan(*dims, frozenset({(0, 0)}))

    @pytest.mark.parametrize("dims, point", [
        ((4, 4), (0.9, 1.5)),
        ((4, 4), (0, 1.5)),
        ((4, 4.5), (0, 1)),
        ((4, 4), ("0", 1)),
        ((4, 4), (float("inf"), 1)),
        ((4, True), (0, 0)),
        ((4, 4), (True, 1)),
    ])
    def test_non_integral_rejected(self, dims, point):
        # int() would truncate these: (0.9, 1.5) to the sample (0, 1)
        with pytest.raises(ValueError, match="must be an integer"):
            SamplingPlan(*dims, frozenset({point}))

    def test_integral_floats_and_numpy_ints_normalized(self):
        plan = SamplingPlan(np.int64(4), 3.0, frozenset({(1.0, np.int16(2))}))
        assert plan == SamplingPlan(4, 3, frozenset({(1, 2)}))
        assert plan.linear_indices() == [5]
        assert {type(x) for x in (plan.t_dim, plan.g_dim, *plan.sorted_samples[0])} == {int}


class TestSchedule:
    def test_per_vertex_view(self):
        plan = SamplingPlan(4, 4, frozenset({(0, 0), (1, 0), (1, 2)}))
        assert plan.schedule() == {0: (0, 1), 2: (1,)}

    def test_projection_sets(self):
        plan = SamplingPlan(4, 5, frozenset({(0, 1), (1, 1), (2, 3)}))
        assert plan.proj_t == (0, 1, 2)
        assert plan.proj_g == (1, 3)
