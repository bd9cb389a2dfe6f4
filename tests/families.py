"""The seeded instance families the suite draws, each defined once.

Every cycle x Erdos-Renyi instance starts from one basis pair: the cycle(T)
eigenbasis, then the eigenbasis of a connected ER(N) graph drawn from the
caller's generator. The generators below fix each family's seed and draw
order, so a test, the digest below and the oracle-tiny benchmark workload draw
the same instances.

Run as a script, ``PYTHONPATH=src python3 tests/families.py`` plans every
family at the seeds and counts the suite uses, ``bench.prepare_case`` at
n = 16 to 128 (seeds 0-2) and the README walkthrough, and prints one line per
family: the count, the plans that are not critical, the rank refusals, the
worst condition number of a sampled block, and a SHA-256 of every plan's
sorted samples, rank and verdicts in draw order. It runs the BLAS on one
thread unless the environment sets another count. A change that should not
move a plan should not move a digest.
"""

import os

if __name__ == "__main__":  # the BLAS reads these once, when numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

from jtvsampling import (  # noqa: E402
    EigenBasis,
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


def structured(seed, count, k_max):
    """Joint bases with T, N in 3..4, each factor a cycle, path or star, and
    random supports with K <= ``k_max``: bases whose exact zeros are computed
    as round-off."""
    rng = np.random.default_rng(seed)
    makers = (cycle_graph, path_graph, star_graph)
    while count:
        t, n = (int(v) for v in rng.integers(3, 5, size=2))
        make_t, make_g = (makers[i] for i in rng.integers(0, 3, size=2))
        support = random_support(t, n, rng)
        if support.k > k_max:
            continue
        count -= 1
        bt, bg = eig_sym(laplacian(make_t(t))), eig_sym(laplacian(make_g(n)))
        yield JointBasis(*restrict_bases(bt, bg, support), support)


if __name__ == "__main__":
    import hashlib

    from jtvsampling import bench, critical_sampling_set
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
