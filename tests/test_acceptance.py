"""Acceptance suite: end-to-end checks of the published behavior contract.

Each test covers one numbered criterion and prints a single pass/fail line
with the measured quantities before asserting.
"""

import time

import numpy as np

import families
from jtvsampling import (
    SpectralSupport,
    cartesian_laplacian,
    check_monotonicity,
    critical_sampling_set,
    cycle_graph,
    detect_support,
    eig_sym,
    exhaustive_check,
    jft,
    joint_columns_from_restricted,
    laplacian,
    max_lin_indep_rows,
    reconstruct,
    sample,
    separate_sampling,
    synth_from_restricted,
)
from jtvsampling import bench, sampling
from jtvsampling.generate import (
    random_coeffs,
    random_connected_graph,
    random_support,
)


def _verdict(num, label, ok, detail):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {label} -- {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_01_reference_pipeline_replay(ref):
    start = time.perf_counter()
    uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
    sel_t = max_lin_indep_rows(ref.ut_r)
    sel_g = max_lin_indep_rows(ref.ug_r)
    grid = [(t, v) for t in sel_t for v in sel_g]
    grid_rows = uj[[t * 4 + v for t, v in grid]]
    plan, report = critical_sampling_set(ref.ut_r, ref.ug_r, uj, ref.support)
    elapsed = time.perf_counter() - start
    block_err = float(np.max(np.abs(grid_rows - ref.psi_uj)))
    # the planner's own step 1, not only the reference scan, picks S_T and S_G
    step1 = tuple(sampling._factor_rows(ref.ut_r, ref.ug_r))
    ok = (
        sel_t == [0, 1]
        and sel_g == [0, 2]
        and step1 == ([0, 1], [0, 2])
        and grid == [(0, 0), (0, 2), (1, 0), (1, 2)]
        and plan.sorted_samples == ((0, 0), (1, 0), (1, 2))
        and report.critical
        and block_err < 1e-3
        and elapsed < 1.0
    )
    _verdict(
        1, "reference pipeline replay", ok,
        f"S_T={sel_t} S_G={sel_g} step 1={step1} S={plan.sorted_samples} "
        f"grid-matrix err={block_err:.1e} elapsed={elapsed:.3f}s",
    )


def test_02_reference_reconstruction(ref):
    uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
    plan, _ = critical_sampling_set(ref.ut_r, ref.ug_r, uj, ref.support)
    values = sample(ref.x, plan)
    value_err = float(np.max(np.abs(values - ref.sample_values)))
    x_rec = reconstruct(values, plan, uj, ref.support)
    printed_err = float(np.max(np.abs(x_rec - ref.x)))
    x_exact = synth_from_restricted(ref.ut_r, ref.ug_r, ref.support, ref.coeffs)
    exact_rec = reconstruct(sample(x_exact, plan), plan, uj, ref.support)
    exact_err = float(np.max(np.abs(exact_rec - x_exact)))
    ok = value_err < 1e-4 and printed_err < 1e-3 and exact_err < 1e-9
    _verdict(
        2, "reference reconstruction", ok,
        f"sample err={value_err:.1e} printed-signal err={printed_err:.1e} "
        f"exact-synth err={exact_err:.1e}",
    )


def test_03_bandwidth_accounting(ref):
    xf = np.zeros((4, 4))
    xf[1:3, 1:3] = ref.xf_block
    support = detect_support(xf)
    # Full bases in the reference convention: the printed occupied columns plus
    # the analytically unique constant and top-frequency eigenvectors (the only
    # non-degenerate complements).
    u_time = np.column_stack([
        np.full(4, 0.5), ref.ut_r[:, 0], ref.ut_r[:, 1],
        np.array([0.5, -0.5, 0.5, -0.5]),
    ])
    u_graph = np.column_stack([
        np.full(4, 0.5), ref.ug_r[:, 0], ref.ug_r[:, 1],
        np.array([-1.0, 3.0, -1.0, -1.0]) / np.sqrt(12.0),
    ])
    xf_from_x = u_graph.T @ ref.x @ u_time
    jft_err = float(np.max(np.abs(xf_from_x - xf)))
    ok = (
        (support.k, support.k_t, support.k_g) == (3, 2, 2)
        and support.sorted_pairs == ((1, 1), (1, 2), (2, 2))
        and jft_err < 1e-3
    )
    _verdict(
        3, "bandwidth accounting", ok,
        f"K={support.k} K_T={support.k_t} K_G={support.k_g} "
        f"transform err={jft_err:.1e}",
    )


def test_04_exhaustive_bound_audit(ref):
    start = time.perf_counter()
    uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
    reports = [(ref.support, exhaustive_check(uj, ref.support))]
    for _, _, support, _, _, uj in families.random_instances(0, 50, 4, 4):
        reports.append((support, exhaustive_check(uj, support)))
    elapsed = time.perf_counter() - start
    n_violations = sum(len(r.violations) for _, r in reports)
    bad_instances = sum(1 for _, r in reports if r.violations)
    min_size_ok = all(r.min_qualified_size == s.k for s, r in reports)
    ok = n_violations == 0 and min_size_ok and elapsed < 120.0
    _verdict(
        4, "exhaustive small-scale bound audit", ok,
        f"{len(reports)} instances, {bad_instances} with qualified sets below "
        f"the projection bounds ({n_violations} subsets), "
        f"min-size=K {'holds' if min_size_ok else 'fails'}, "
        f"elapsed={elapsed:.1f}s",
    )


def test_05_constructed_plans_always_critical():
    rng = np.random.default_rng(1)
    non_critical = 0
    worst_err = 0.0
    for _ in range(500):
        _, _, support, ut_r, ug_r, uj = families.random_instance(rng, 8, 8)
        plan, report = critical_sampling_set(ut_r, ug_r, uj, support)
        if not (report.rank == support.k and plan.size == support.k
                and len(plan.proj_t) == support.k_t
                and len(plan.proj_g) == support.k_g):
            non_critical += 1
            continue
        coeffs = random_coeffs(support, rng)
        x = synth_from_restricted(ut_r, ug_r, support, coeffs)
        x_rec = reconstruct(sample(x, plan), plan, uj, support)
        err = float(np.linalg.norm(x_rec - x) / np.linalg.norm(x))
        worst_err = max(worst_err, err)
    ok = non_critical == 0 and worst_err < 1e-8
    _verdict(
        5, "constructed plans always critical", ok,
        f"500 instances, {non_critical} non-critical, "
        f"worst round-trip err={worst_err:.1e}",
    )


def test_06_bandwidth_inequality():
    rng = np.random.default_rng(2)
    holds = True
    for _ in range(200):
        t_dim = int(rng.integers(3, 9))
        g_dim = int(rng.integers(2, 9))
        s = random_support(t_dim, g_dim, rng)
        holds = holds and max(s.k_t, s.k_g) <= s.k <= s.k_t * s.k_g
    single_row = SpectralSupport(
        t_dim=5, g_dim=4, pairs=frozenset({(0, 1), (2, 1), (3, 1)})
    )
    lower_tight = single_row.k == max(single_row.k_t, single_row.k_g) == 3
    rect = SpectralSupport(
        t_dim=5, g_dim=4, pairs=frozenset({(1, 0), (1, 2), (2, 0), (2, 2)})
    )
    upper_tight = rect.k == rect.k_t * rect.k_g == 4
    ok = holds and lower_tight and upper_tight
    _verdict(
        6, "bandwidth inequality", ok,
        f"200 random supports within bounds, lower witness K={single_row.k}, "
        f"upper witness K={rect.k}",
    )


def test_07_rank_monotonicity(ref):
    uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
    monotone = check_monotonicity(uj, 1000, rng=np.random.default_rng(3))
    _verdict(7, "rank monotonicity", monotone, "1000 nested pairs, no violation")


def test_08_separate_sampling_comparison(ref):
    uj = joint_columns_from_restricted(ref.ut_r, ref.ug_r, ref.support)
    plan, _ = critical_sampling_set(ref.ut_r, ref.ug_r, uj, ref.support)
    baseline = separate_sampling(ref.ut_r, ref.ug_r)
    ref_ok = plan.size == 3 and baseline.size == 4
    rng = np.random.default_rng(4)
    strict_ok = True
    for _ in range(100):
        k_t = int(rng.integers(2, 4))
        k_g = int(rng.integers(2, 4))
        k = int(rng.integers(max(k_t, k_g), k_t * k_g))  # strict subset
        t_dim = int(rng.integers(k_t + 1, 9))
        g_dim = int(rng.integers(k_g + 1, 9))
        _, _, support, ut_r, ug_r, uj = families.instance(t_dim, g_dim, rng,
                                                          k_t=k_t, k_g=k_g, k=k)
        plan, _ = critical_sampling_set(ut_r, ug_r, uj, support)
        baseline = separate_sampling(ut_r, ug_r)
        strict_ok = strict_ok and plan.size == k < baseline.size
    ok = ref_ok and strict_ok
    _verdict(
        8, "separate-sampling comparison", ok,
        f"reference 3 vs 4 samples, 100 non-rectangular supports all K < K_T*K_G",
    )


def test_09_factored_vs_naive_timing():
    rows = bench.benchmark([32, 48, 64], seed=0, repeats=5)
    ratios = [r.ratio for r in rows]
    ok = ratios[0] < 1.0 and ratios[0] > ratios[1] > ratios[2]
    _verdict(
        9, "factored vs naive timing", ok,
        "ratios " + " ".join(f"n={r.t_dim}:{r.ratio:.3f}" for r in rows),
    )


def test_10_spectral_invariants():
    rng = np.random.default_rng(5)
    worst_resid = worst_ortho = worst_add = worst_parseval = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 31))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2.0
        basis = eig_sym(a)
        resid = np.linalg.norm(
            basis.vectors @ np.diag(basis.values) @ basis.vectors.T - a
        ) / np.linalg.norm(a)
        ortho = float(np.max(np.abs(basis.vectors.T @ basis.vectors - np.eye(n))))
        worst_resid = max(worst_resid, float(resid))
        worst_ortho = max(worst_ortho, ortho)
    for _ in range(5):
        t_dim = int(rng.integers(3, 7))
        g_dim = int(rng.integers(2, 6))
        l_t = laplacian(cycle_graph(t_dim))
        l_g = laplacian(random_connected_graph(g_dim, rng))
        basis_t, basis_g = eig_sym(l_t), eig_sym(l_g)
        joint = eig_sym(cartesian_laplacian(l_t, l_g))
        sums = np.sort(np.add.outer(basis_t.values, basis_g.values).ravel())
        worst_add = max(worst_add, float(np.max(np.abs(joint.values - sums))))
        x = rng.normal(size=(g_dim, t_dim))
        xf = jft(basis_t, basis_g, x)
        worst_parseval = max(
            worst_parseval, abs(float(np.linalg.norm(xf) - np.linalg.norm(x)))
        )
    ok = (worst_resid < 1e-8 and worst_ortho < 1e-9
          and worst_add < 1e-8 and worst_parseval < 1e-10)
    _verdict(
        10, "spectral invariants", ok,
        f"resid={worst_resid:.1e} ortho={worst_ortho:.1e} "
        f"additivity={worst_add:.1e} parseval={worst_parseval:.1e}",
    )
