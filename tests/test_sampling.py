import numpy as np
import pytest

from jtvsampling import (
    JointBasis,
    SamplingPlan,
    SpectralSupport,
    critical_sampling_set,
    cycle_graph,
    eig_sym,
    joint_basis_columns,
    joint_columns_from_restricted,
    laplacian,
    max_lin_indep_rows,
    qualify,
    reconstruct,
    restrict_bases,
    sample,
    separate_sampling,
    synth_from_restricted,
    synth_signal,
    vec,
)
from jtvsampling import bench, sampling
from jtvsampling.generate import random_coeffs, random_connected_graph, random_support
from jtvsampling.sampling import (
    IllConditionedError,
    RankDeficiencyError,
    UnqualifiedPlanError,
    _coverage_first_rows,
    reconstruct_coefficients,
)


def make_instance(t_dim, g_dim, rng, **support_kwargs):
    bt = eig_sym(laplacian(cycle_graph(t_dim)))
    bg = eig_sym(laplacian(random_connected_graph(g_dim, rng)))
    support = random_support(t_dim, g_dim, rng, **support_kwargs)
    ut_r, ug_r = restrict_bases(bt, bg, support)
    uj = joint_basis_columns(bt, bg, support)
    return bt, bg, support, ut_r, ug_r, uj


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
        rng = np.random.default_rng(2)
        bt = eig_sym(laplacian(cycle_graph(3)))
        bg = eig_sym(laplacian(random_connected_graph(3, rng)))
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
        rng = np.random.default_rng(99)
        for _ in range(200):
            t_dim = int(rng.integers(3, 7))
            g_dim = int(rng.integers(2, 7))
            _, _, support, ut_r, ug_r, uj = make_instance(t_dim, g_dim, rng)
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

    def test_spread_retry_restores_coverage(self):
        # For this support a lexicographic step-3 scan reaches full rank
        # using only two of the three independent time slots; the one
        # coverage-first pass must still deliver a critical plan,
        # deterministically.
        rng = np.random.default_rng(7)
        bt = eig_sym(laplacian(cycle_graph(5)))
        bg = eig_sym(laplacian(random_connected_graph(3, rng)))
        support = SpectralSupport(
            t_dim=5, g_dim=3, pairs=frozenset({(0, 0), (0, 1), (3, 1), (4, 0)})
        )
        ut_r, ug_r = restrict_bases(bt, bg, support)
        uj = joint_basis_columns(bt, bg, support)
        product = [(t, v) for t in max_lin_indep_rows(ut_r)
                   for v in max_lin_indep_rows(ug_r)]
        lex = max_lin_indep_rows(uj[[t * 3 + v for t, v in product]])
        assert len(lex) == support.k
        assert len({product[i][0] for i in lex}) < support.k_t
        plan, report = critical_sampling_set(ut_r, ug_r, uj, support)
        assert report.critical
        plan2, _ = critical_sampling_set(ut_r, ug_r, uj, support)
        assert plan == plan2

    def test_coverage_first_pick_order(self):
        # 2 x 2 grid, rows in (t, v) order; the lowest-index scan takes [0, 1]
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [3.0, 0.0]])
        # largest residual first; row 0 then covers two new cells but is
        # dependent, so the tie between rows 1 and 2 goes to the lower index
        assert _coverage_first_rows(rows, 2) == [3, 1]
        rows = np.array([[10.0, 0.0], [0.0, 5.0], [0.0, 1.0], [1.0, 1.0]])
        # row 3 covers two new cells and beats row 1's larger residual
        assert _coverage_first_rows(rows, 2) == [0, 3]
        rows = np.array([[3.0, 0.0, 0.0], [2.5, 0.0, 0.1], [0.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
        # once every slot and vertex is covered, row 2's residual beats row 1's norm
        assert _coverage_first_rows(rows, 2) == [0, 3, 2]

    def test_qualifies_once_per_plan(self, monkeypatch):
        calls = []
        original = sampling.qualify
        monkeypatch.setattr(sampling, "qualify", lambda *a: calls.append(1) or original(*a))
        rng = np.random.default_rng(99)
        for done in range(1, 51):
            _, _, support, ut_r, ug_r, uj = make_instance(5, 4, rng)
            assert critical_sampling_set(ut_r, ug_r, uj, support)[1].critical
            assert len(calls) == done

    @pytest.mark.parametrize("n", [48, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_well_conditioned_at_bench_sizes(self, n, seed):
        # a lowest-index step-3 scan gave cond 1.0e9 / 1.1e9 at n = 48
        # (seeds 0, 2) and 5.5e8 at n = 64 (seed 0)
        ut_r, ug_r, uj, support = bench.prepare_case(n, seed)
        plan, report = critical_sampling_set(ut_r, ug_r, uj, support)
        assert report.critical
        assert np.linalg.cond(uj[plan.linear_indices()]) < 1e5
        x = synth_from_restricted(ut_r, ug_r, support,
                                  random_coeffs(support, np.random.default_rng(seed)))
        x_rec = reconstruct(sample(x, plan), plan, uj, support)
        assert np.linalg.norm(x_rec - x) < 1e-8 * np.linalg.norm(x)

    def test_corrupted_input_raises(self, ref):
        uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
        with pytest.raises(RankDeficiencyError, match="step 1"):
            critical_sampling_set(np.zeros_like(ref.ut_r), ref.ug_r, uj, ref.support)
        with pytest.raises(RankDeficiencyError, match="step 1"):
            separate_sampling(ref.ut_r, np.zeros_like(ref.ug_r))

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
            t_dim, g_dim = int(rng.integers(3, 9)), int(rng.integers(2, 9))
            _, _, support, ut_r, ug_r, uj = make_instance(t_dim, g_dim, rng)
            self.assert_same_results(ut_r, ug_r, uj, support, rng)

    def test_bench_instance(self):
        ut_r, ug_r, uj, support = bench.prepare_case(48, seed=1)
        self.assert_same_results(ut_r, ug_r, uj, support, np.random.default_rng(2))

    @SAMPLED_BLOCK_USES
    def test_basis_of_another_support_rejected(self, ref, use):
        other = SpectralSupport(4, 4, frozenset({(1, 1), (1, 2), (2, 1)}))
        basis = JointBasis(ref.ut_r, ref.ug_r, other)
        plan = SamplingPlan(4, 4, frozenset({(0, 0), (1, 0), (1, 2)}))
        with pytest.raises(ValueError, match="another support"):
            use(plan, basis, ref.support)


class TestSeparateSampling:
    def test_reference_uses_four_samples(self, ref):
        plan = separate_sampling(ref.ut_r, ref.ug_r)
        assert plan.sorted_samples == ((0, 0), (0, 2), (1, 0), (1, 2))
        assert plan.size == 4

    def test_single_frequency(self):
        plan = separate_sampling(np.ones((3, 1)) / np.sqrt(3), np.ones((2, 1)) / np.sqrt(2))
        assert plan.size == 1

    def test_rectangle_support_matches_critical_size(self):
        rng = np.random.default_rng(31)
        bt = eig_sym(laplacian(cycle_graph(5)))
        bg = eig_sym(laplacian(random_connected_graph(4, rng)))
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
        assert np.array_equal(sample(x, plan), vec(x))

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
        bt, bg, support, ut_r, ug_r, uj = make_instance(5, 4, rng)
        x = synth_signal(bt, bg, support, random_coeffs(support, rng))
        plan, _ = critical_sampling_set(ut_r, ug_r, uj, support)
        sep = separate_sampling(ut_r, ug_r)
        x1 = reconstruct(sample(x, plan), plan, uj, support)
        x2 = reconstruct(sample(x, sep), sep, uj, support)
        assert np.max(np.abs(x1 - x)) < 1e-9
        assert np.max(np.abs(x1 - x2)) < 1e-9

    def test_full_support_identity_round_trip(self):
        rng = np.random.default_rng(6)
        bt = eig_sym(laplacian(cycle_graph(3)))
        bg = eig_sym(laplacian(random_connected_graph(3, rng)))
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
        support = SpectralSupport(t_dim=2, g_dim=2, pairs=frozenset({(0, 0), (1, 1)}))
        uj = np.array([[1.0, 1.0], [0.0, 1e-14], [0.0, 0.0], [0.0, 0.0]])
        plan = SamplingPlan(2, 2, frozenset({(0, 0), (0, 1)}))
        with pytest.raises((IllConditionedError, UnqualifiedPlanError)):
            reconstruct_coefficients(np.array([1.0, 0.0]), plan, uj, support)

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

    @pytest.mark.parametrize("dims, point", [
        ((4, 4), (0.9, 1.5)),
        ((4, 4), (0, 1.5)),
        ((4, 4.5), (0, 1)),
        ((4, 4), ("0", 1)),
        ((4, 4), (float("inf"), 1)),
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
