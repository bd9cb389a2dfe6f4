"""Seed-deterministic random instances: graphs, spectral supports, signals."""

import numpy as np

from .bandlimit import SpectralSupport
from .graphs import Graph

MAX_ATTEMPTS = 1000


def random_connected_graph(n: int, rng: np.random.Generator, p: float = 0.5) -> Graph:
    """Erdos-Renyi graph with uniform weights in [0.5, 1.5], rejection-sampled
    until connected; ``RuntimeError`` after ``MAX_ATTEMPTS`` draws."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    for _ in range(MAX_ATTEMPTS):
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j, float(rng.uniform(0.5, 1.5))))
        g = Graph(n, tuple(edges))
        if g.is_connected():
            return g
    raise RuntimeError(f"no connected graph found in {MAX_ATTEMPTS} attempts (p={p})")


def random_support(t_dim: int, g_dim: int, rng: np.random.Generator,
                   k_t: int = None, k_g: int = None, k: int = None) -> SpectralSupport:
    """Random SBL support with the requested projection bandwidths.

    Every occupied time frequency and graph frequency is guaranteed at least
    one pair, so the realized K_T and K_G match the request exactly. The
    bandwidths stay strictly below the axis lengths.
    """
    if t_dim < 2 or g_dim < 2:
        raise ValueError(f"dims ({t_dim}, {g_dim}) too small for an SBL support")
    if k_t is None:
        k_t = int(rng.integers(1, t_dim))
    if k_g is None:
        k_g = int(rng.integers(1, g_dim))
    if not (1 <= k_t < t_dim and 1 <= k_g < g_dim):
        raise ValueError(f"bandwidths ({k_t}, {k_g}) out of range")
    lo, hi = max(k_t, k_g), k_t * k_g
    if k is None:
        k = int(rng.integers(lo, hi + 1))
    if not lo <= k <= hi:
        raise ValueError(f"K={k} outside [{lo}, {hi}] for bandwidths ({k_t}, {k_g})")

    tfreqs = sorted(rng.choice(t_dim, size=k_t, replace=False).tolist())
    gfreqs = sorted(rng.choice(g_dim, size=k_g, replace=False).tolist())
    # cyclic cover: hits every row and column, pairs distinct below lcm
    pairs = {(tfreqs[i % k_t], gfreqs[i % k_g]) for i in range(lo)}
    rest = [
        (jt, jg) for jt in tfreqs for jg in gfreqs if (jt, jg) not in pairs
    ]
    extra = k - len(pairs)
    if extra:
        idx = rng.choice(len(rest), size=extra, replace=False)
        pairs.update(rest[i] for i in idx)
    return SpectralSupport(t_dim=t_dim, g_dim=g_dim, pairs=frozenset(pairs))


def rectangle_support(t_dim: int, g_dim: int, time_freqs, graph_freqs) -> SpectralSupport:
    """Support filling the full rectangle of the given frequency lists."""
    pairs = frozenset((jt, jg) for jt in time_freqs for jg in graph_freqs)
    return SpectralSupport(t_dim=t_dim, g_dim=g_dim, pairs=pairs)


def random_coeffs(support: SpectralSupport, rng: np.random.Generator) -> dict:
    """Coefficients drawn from +-[0.5, 1.5]: bounded away from zero so the
    support survives detection round trips."""
    return {
        pair: float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0]))
        for pair in support.sorted_pairs
    }
