"""The seeded instance families the suite draws, each defined once.

Every cycle x Erdos-Renyi instance starts from one basis pair: the cycle(T)
eigenbasis, then the eigenbasis of a connected ER(N) graph drawn from the
caller's generator. The generators below fix each family's seed and draw
order, so a test, the digest below and the oracle-tiny benchmark workload draw
the same instances. The random graphs of the Laplacian tests and the
random-factor instances of the joint-basis tests, which no plan is made from,
are drawn here too.

Run as a script, ``PYTHONPATH=src python3 tests/families.py`` plans every
planner family at the seeds and counts the suite uses, all 6,000 draws of the
structured family with ER factors, ``bench.prepare_case`` at n = 16 to 128
(seeds 0-2) and the README walkthrough, and prints one line per
family: the count, the plans that are not critical, the rank refusals, the
worst condition number of a sampled block, and a SHA-256 of every plan's
sorted samples, rank and verdicts in draw order. A last line pins the oracle:
the ``ExhaustiveReport`` and the ``check_monotonicity(uj, 200,
default_rng(j))`` verdict of the j-th draw of ``oracle_tiny(3, 97)`` and then
of ``structured(2024, 60, k_max=6)`` (T x N <= 16 joint vertices, inside the
enumeration limit), with their SHA-256. It runs the BLAS on one thread unless
the environment sets another count. A change that should not move a plan or
an oracle report should not move a digest.
"""

import os
from itertools import combinations

if __name__ == "__main__":  # the BLAS reads these once, when numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

from jtvsampling import (  # noqa: E402
    EigenBasis,
    Graph,
    JointBasis,
    SpectralSupport,
    cycle_graph,
    eig_sym,
    joint_columns_from_restricted,
    laplacian,
    path_graph,
    restrict_bases,
    star_graph,
)
from jtvsampling.generate import random_connected_graph, random_support  # noqa: E402


class Instance(NamedTuple):
    basis_t: EigenBasis
    basis_g: EigenBasis
    support: SpectralSupport
    ut_r: np.ndarray
    ug_r: np.ndarray
    uj: np.ndarray


def basis_pair(t_dim, g_dim, rng):
    """The cycle(T) eigenbasis, then the eigenbasis of a connected ER(N) graph
    drawn from ``rng``."""
    return (eig_sym(laplacian(cycle_graph(t_dim))),
            eig_sym(laplacian(random_connected_graph(g_dim, rng))))


def instance(t_dim, g_dim, rng, **support_kwargs):
    """A cycle x ER :class:`Instance`: the basis pair, then
    ``random_support(T, N, rng, **support_kwargs)``."""
    basis_t, basis_g = basis_pair(t_dim, g_dim, rng)
    support = random_support(t_dim, g_dim, rng, **support_kwargs)
    ut_r, ug_r = restrict_bases(basis_t, basis_g, support)
    return Instance(basis_t, basis_g, support, ut_r, ug_r,
                    joint_columns_from_restricted(ut_r, ug_r, support))


def random_instance(rng, t_max, g_max):
    """T in 3..t_max, then N in 2..g_max, then :func:`instance`."""
    t_dim = int(rng.integers(3, t_max + 1))
    return instance(t_dim, int(rng.integers(2, g_max + 1)), rng)


def random_instances(seed, count, t_max, g_max):
    """``count`` draws of :func:`random_instance` from one seeded generator."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_instance(rng, t_max, g_max)


def oracle_tiny(seed, count):
    """T = 4 cycle x N = 5 ER instances with K_T = 2, K_G = 3, K = 5, the
    instances of the oracle-tiny benchmark workload (97 per seed)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield instance(4, 5, rng, k_t=2, k_g=3, k=5)


def structured(seed, count, k_max=None, dim_max=4, er=False):
    """Joint bases with T, N in 3..``dim_max``, each factor a cycle, path or
    star, or with ``er`` also a connected ER graph, drawn after the support,
    and random supports with K <= ``k_max``: bases whose exact zeros are
    computed as round-off."""
    rng = np.random.default_rng(seed)
    makers = (cycle_graph, path_graph, star_graph)
    if er:
        makers += (lambda n: random_connected_graph(n, rng),)
    while count:
        t, n = (int(v) for v in rng.integers(3, dim_max + 1, size=2))
        make_t, make_g = (makers[i] for i in rng.integers(0, len(makers), size=2))
        support = random_support(t, n, rng)
        if k_max is not None and support.k > k_max:
            continue
        count -= 1
        bt, bg = eig_sym(laplacian(make_t(t))), eig_sym(laplacian(make_g(n)))
        yield JointBasis(*restrict_bases(bt, bg, support), support)


def structured_er(count):
    """The first ``count`` of the 6,000 draws of seed 616 with T, N in 3..12
    and each factor a cycle, path, star or connected ER graph."""
    return structured(616, count, dim_max=12, er=True)


def random_graphs(seed, count, max_n):
    """``count`` graphs: one vertex, ``max_n`` vertices and no edge, the complete
    graph on ``max_n`` vertices with every weight 0.1, then 5.0; then n in
    1..``max_n``, each vertex pair an edge with probability 1/2 and weight
    uniform in [0.1, 5.0], connected or not."""
    rng = np.random.default_rng(seed)
    complete = list(combinations(range(max_n), 2))
    first = [Graph(1, ()), Graph(max_n, ()),
             *(Graph(max_n, [(i, j, w) for i, j in complete]) for w in (0.1, 5.0))]
    yield from first[:count]
    for _ in range(count - len(first)):
        n = int(rng.integers(1, max_n + 1))
        yield Graph(n, [(i, j, rng.uniform(0.1, 5.0))
                        for i, j in combinations(range(n), 2) if rng.random() < 0.5])


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


if __name__ == "__main__":
    import hashlib

    from jtvsampling import bench, check_monotonicity, critical_sampling_set, exhaustive_check
    from jtvsampling.generate import random_coeffs
    from jtvsampling.sampling import RankDeficiencyError

    def with_coeffs(seed, count, t_max, g_max):
        # criterion 5 and TestJointBasisInput draw coefficients after each
        # instance; this is their stream while every plan is critical
        rng = np.random.default_rng(seed)
        for _ in range(count):
            inst = random_instance(rng, t_max, g_max)
            yield inst
            random_coeffs(inst.support, rng)

    def walkthrough():
        bt = eig_sym(laplacian(cycle_graph(4)))
        bg = eig_sym(laplacian(star_graph(4, center=1)))
        support = SpectralSupport(4, 4, frozenset({(1, 1), (1, 2), (2, 2)}))
        yield JointBasis(*restrict_bases(bt, bg, support), support)

    FAMILIES = {
        "structured seed 2024 x40 K<=3": lambda: structured(2024, 40, k_max=3),
        "structured seed 2024 x60 K<=6": lambda: structured(2024, 60, k_max=6),
        "random seed 0 x50 T,N<=4": lambda: random_instances(0, 50, 4, 4),
        "random seed 99 x200 T,N<=6": lambda: random_instances(99, 200, 6, 6),
        "random+coeffs seed 1 x500 T,N<=8": lambda: with_coeffs(1, 500, 8, 8),
        "oracle-tiny seed 3 x97": lambda: oracle_tiny(3, 97),
        "oracle-tiny seed 304 x69": lambda: oracle_tiny(304, 69),
        **{f"bench.prepare_case n={n} seeds 0-2":
           (lambda n=n: (bench.prepare_case(n, seed) for seed in range(3)))
           for n in (16, 32, 48, 64, 96, 128)},
        "README walkthrough": walkthrough,
        "structured+ER seed 616 x6000 T,N<=12": lambda: structured_er(6000),
    }

    for name, draw in FAMILIES.items():
        records, non_critical, refused, worst_cond = [], 0, 0, 0.0
        for item in draw():
            basis = (item if isinstance(item, JointBasis)
                     else JointBasis(item.ut_r, item.ug_r, item.support))
            try:
                plan, report = critical_sampling_set(basis.ut_r, basis.ug_r, basis,
                                                     basis.support)
            except RankDeficiencyError as exc:
                refused += 1
                records.append(("refused", str(exc)))
                continue
            non_critical += not report.critical
            worst_cond = max(worst_cond,
                             float(np.linalg.cond(basis.rows(plan.linear_indices()))))
            records.append((plan.sorted_samples, report.rank, report.qualified,
                            report.critical))
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        print(f"{name}: count={len(records)} non_critical={non_critical} "
              f"rank_refused={refused} worst_cond={worst_cond:.4g} sha256={digest}")

    oracle_draws = [*((inst.uj, inst.support) for inst in oracle_tiny(3, 97)),
                    *((basis.dense(), basis.support) for basis in structured(2024, 60, k_max=6))]
    records = [(exhaustive_check(uj, support),
                check_monotonicity(uj, 200, np.random.default_rng(j)))
               for j, (uj, support) in enumerate(oracle_draws)]
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    print(f"oracle reports, oracle-tiny seed 3 x97 + structured seed 2024 x60 K<=6: "
          f"count={len(records)} "
          f"violations={sum(len(report.violations) for report, _ in records)} "
          f"non_monotone={sum(not monotone for _, monotone in records)} sha256={digest}")
