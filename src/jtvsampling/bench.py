"""Timing comparison: factored sampling-set construction vs a naive search
over all N*T rows of the joint basis, and vs the same search stopped at rank K."""

import math
import time
from dataclasses import dataclass

import numpy as np

from .bandlimit import SpectralSupport, restrict_bases
from .generate import random_connected_graph, random_support
from .graphs import cycle_graph, laplacian
from .sampling import critical_sampling_set, max_lin_indep_rows
from .spectral import eig_sym, joint_columns_from_restricted


@dataclass(frozen=True)
class BenchRow:
    t_dim: int
    g_dim: int
    k_t: int
    k_g: int
    k: int
    samples_critical: int
    samples_separate: int
    time_factored: float
    time_naive: float
    time_naive_early: float

    @property
    def ratio(self):
        return self.time_factored / self.time_naive


def _elapsed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def benchmark_case(ut_r: np.ndarray, ug_r: np.ndarray, uj: np.ndarray,
                   support: SpectralSupport, repeats: int = 3) -> BenchRow:
    """Time the factored construction against a full-row naive selection on
    one prepared instance, and against that selection stopped at rank K.
    Basis construction is not timed.

    The early-stop scan is the full scan over the rows up to its K-th pick:
    exactly the work of a scan that ends once it reaches rank K. The calls
    alternate for ``repeats`` rounds and each keeps its best time, so a slow
    spell on the machine hits every side alike.
    """
    picks = max_lin_indep_rows(uj)
    # a scan that never reaches rank K reads every row
    prefix = uj[:picks[support.k - 1] + 1] if len(picks) >= support.k else uj

    def factored():
        critical_sampling_set(ut_r, ug_r, uj, support)

    def naive():
        max_lin_indep_rows(uj)

    def naive_early():
        max_lin_indep_rows(prefix)

    t_fac = t_naive = t_early = math.inf
    for _ in range(repeats):
        t_fac = min(t_fac, _elapsed(factored))
        t_naive = min(t_naive, _elapsed(naive))
        t_early = min(t_early, _elapsed(naive_early))
    plan, _ = critical_sampling_set(ut_r, ug_r, uj, support)
    return BenchRow(
        t_dim=support.t_dim,
        g_dim=support.g_dim,
        k_t=support.k_t,
        k_g=support.k_g,
        k=support.k,
        samples_critical=plan.size,
        samples_separate=support.k_t * support.k_g,
        time_factored=t_fac,
        time_naive=t_naive,
        time_naive_early=t_early,
    )


def prepare_case(n: int, seed: int = 0):
    """Cycle time graph and random connected vertex graph of size n with a
    random support of bandwidths K_T = K_G = ceil(n / 4)."""
    rng = np.random.default_rng(seed)
    k_t = k_g = max(1, math.ceil(n / 4))
    basis_t = eig_sym(laplacian(cycle_graph(n)))
    basis_g = eig_sym(laplacian(random_connected_graph(n, rng)))
    k = (max(k_t, k_g) + k_t * k_g + 1) // 2
    support = random_support(n, n, rng, k_t=k_t, k_g=k_g, k=k)
    ut_r, ug_r = restrict_bases(basis_t, basis_g, support)
    uj = joint_columns_from_restricted(ut_r, ug_r, support)
    return ut_r, ug_r, uj, support


def benchmark(sizes, seed: int = 0, repeats: int = 3):
    """One :class:`BenchRow` per size n, with T = N = n."""
    rows = []
    for n in sizes:
        ut_r, ug_r, uj, support = prepare_case(n, seed=seed)
        rows.append(benchmark_case(ut_r, ug_r, uj, support, repeats=repeats))
    return rows


def write_bench_csv(rows, path):
    with open(path, "w") as fh:
        fh.write(
            "T,N,K_T,K_G,K,samples_critical,samples_separate,"
            "time_factored,time_naive,time_naive_early,ratio\n"
        )
        for r in rows:
            fh.write(
                f"{r.t_dim},{r.g_dim},{r.k_t},{r.k_g},{r.k},"
                f"{r.samples_critical},{r.samples_separate},"
                f"{r.time_factored:.6e},{r.time_naive:.6e},"
                f"{r.time_naive_early:.6e},{r.ratio:.6e}\n"
            )
