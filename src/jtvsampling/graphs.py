"""Undirected weighted graphs, Laplacians, and the time-vertex product Laplacian.

Joint vertices (t, v) map to linear index t * N + v, i.e. the column-major
vectorization of an N x T signal matrix.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np


def _as_index(value, what):
    """``value`` as an int if it is an integer or an integral float; anything
    ``int()`` would truncate or convert, such as 1.5, "1" or True, is a ``ValueError``."""
    if type(value) is not bool:  # bool cannot be subclassed
        try:
            return operator.index(value)
        except TypeError:
            if isinstance(value, float) and value.is_integer():
                return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph without self-loops or duplicate edges.

    ``edges`` is any iterable of (i, j, w) triples, such as parsed JSON lists;
    it is stored as a tuple of (int, int, float) tuples.
    """

    n: int
    edges: tuple

    def __post_init__(self):
        n = _as_index(self.n, "vertex count")
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        norm = []
        seen = set()
        for i, j, w in self.edges:
            i, j, w = _as_index(i, "edge endpoint"), _as_index(j, "edge endpoint"), float(w)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i} not allowed")
            if not math.isfinite(w):
                raise ValueError(f"edge ({i}, {j}) has non-finite weight {w}")
            if w <= 0:
                raise ValueError(f"edge ({i}, {j}) has non-positive weight {w}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm.append((i, j, w))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))

    def adjacency(self):
        w = np.zeros((self.n, self.n))
        for i, j, wt in self.edges:
            w[i, j] = wt
            w[j, i] = wt
        return w

    def is_connected(self):
        adj = [[] for _ in range(self.n)]
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian D - W as a dense symmetric matrix."""
    w = g.adjacency()
    return np.diag(w.sum(axis=1)) - w


def cycle_graph(t: int) -> Graph:
    """Cycle on t vertices with unit weights; models a periodic time axis."""
    if t < 3:
        raise ValueError(
            f"cycle graph needs at least 3 vertices (got {t}): smaller sizes "
            "would create a multi-edge or self-loop"
        )
    return Graph(t, ((k, (k + 1) % t, 1.0) for k in range(t)))


def star_graph(n: int, center: int = 0) -> Graph:
    """Star on n vertices with unit weights around the given center."""
    if n < 2:
        raise ValueError(f"star graph needs at least 2 vertices, got {n}")
    if not 0 <= center < n:
        raise ValueError(f"center {center} out of range for n={n}")
    return Graph(n, ((center, v, 1.0) for v in range(n) if v != center))


def path_graph(n: int) -> Graph:
    """Path on n vertices with unit weights."""
    if n < 1:
        raise ValueError(f"path graph needs at least 1 vertex, got {n}")
    return Graph(n, ((k, k + 1, 1.0) for k in range(n - 1)))


def cartesian_laplacian(l_time: np.ndarray, l_graph: np.ndarray) -> np.ndarray:
    """Kronecker-sum Laplacian of the product of a time graph and a vertex graph.

    Row/column t * N + v corresponds to joint vertex (t, v).
    """
    l_time = np.asarray(l_time, dtype=float)
    l_graph = np.asarray(l_graph, dtype=float)
    t = l_time.shape[0]
    n = l_graph.shape[0]
    if l_time.shape != (t, t) or l_graph.shape != (n, n):
        raise ValueError("Laplacian factors must be square")
    return np.kron(l_time, np.eye(n)) + np.kron(np.eye(t), l_graph)
