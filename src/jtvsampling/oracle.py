"""Brute-force ground truth at tiny scale.

Everything here deliberately avoids the production row-selection code: rank is
computed by plain Gaussian elimination so the oracle and the fast path cannot
share a bug. The elimination is stacked: it ranks a whole block of enumerated
subsets per call, matrix by matrix, with no SVD, QR or call into ``sampling``.
"""

from dataclasses import dataclass, field
from itertools import chain, combinations, islice

import numpy as np

from .bandlimit import SpectralSupport

MAX_JOINT_VERTICES = 20
# Subsets ranked per stacked elimination call: large enough to amortize the
# per-call numpy overhead, small enough to keep the stack and its temporaries
# well under a megabyte.
BLOCK = 128
# Shared pool for itertools.combinations: CPython 3.11 keeps every freed
# 20-tuple on a free list it never reuses, so a pool built per call at the
# size limit would cost memory on every call.
_INDICES = tuple(range(MAX_JOINT_VERTICES))


def elimination_rank(mat: np.ndarray, tol: float = 1e-10):
    """Matrix rank by row echelon reduction with partial pivoting.

    ``mat`` is one matrix ``(rows, cols)`` or a stack ``(..., rows, cols)``,
    as for ``np.linalg.matrix_rank``; a matrix gives an ``int``, a stack an
    int array of its leading shape. Every matrix is reduced on its own: it
    keeps its own scale ``max |a|``, pivot row and running rank, and skips a
    column whose best pivot is at most ``tol * scale``.
    """
    a = np.array(mat, dtype=float)
    lead = a.shape[:-2]
    rows, cols = a.shape[-2:]
    count = int(np.prod(lead))
    a = a.reshape(count, rows, cols)
    rank = np.zeros(count, dtype=np.intp)
    if a.size:
        scale = np.max(np.abs(a), axis=(1, 2))
        which = np.arange(count)
        row_ids = np.arange(rows)
        for col in range(cols):
            if (rank == rows).all():
                break
            # rows above a matrix's rank are spent: they never win the argmax
            mag = np.abs(a[:, :, col])
            mag[row_ids < rank[:, None]] = -1.0
            piv = np.argmax(mag, axis=1)
            ok = mag[which, piv] > tol * scale
            if not ok.any():
                continue
            top = np.minimum(rank, rows - 1)
            piv = np.where(ok, piv, top)
            pivot_row = a[which, piv]
            a[which, piv] = a[which, top]
            a[which, top] = pivot_row
            pivot = np.where(ok, pivot_row[:, col], 1.0)
            factors = a[:, :, col] / pivot[:, None]
            factors[(row_ids <= rank[:, None]) | ~ok[:, None]] = 0.0
            # only the columns right of the pivot are read by a later step
            a[:, :, col + 1:] -= factors[:, :, None] * pivot_row[:, None, col + 1:]
            rank += ok
    if not lead:
        return int(rank[0])
    return rank.reshape(lead)


@dataclass(frozen=True)
class ExhaustiveReport:
    """Outcome of enumerating all small sampling sets against a support."""

    min_qualified_size: int
    count_qualified_at_k: int
    violations: tuple = field(default_factory=tuple)
    exists_critical_set: bool = False
    min_proj_t: int = None
    min_proj_g: int = None

    @property
    def clean(self):
        return not self.violations


def _distinct_per_row(labels: np.ndarray, dim: int) -> np.ndarray:
    """Distinct entries per row of an int matrix whose entries lie below ``dim``."""
    seen = np.zeros((len(labels), dim), dtype=bool)
    seen[np.arange(len(labels))[:, None], labels] = True
    return seen.sum(axis=1)


def exhaustive_check(uj: np.ndarray, support: SpectralSupport,
                     max_size: int = None) -> ExhaustiveReport:
    """Enumerate every sample subset up to ``max_size`` and audit the bounds.

    Records the minimum subset size reaching full rank, counts qualified
    subsets of size K, collects any qualified subset that undercuts the
    necessary bounds |S_T| >= ``support.floor_t`` or
    |S_G| >= ``support.floor_g`` (expected none), and whether a size-K
    qualified subset is critical. Subsets smaller than K are not ranked:
    elimination never ranks a matrix above its row count, so none of them can
    qualify, the bound |S| >= K holds by construction, and ``max_size < K``
    enumerates nothing. ``min_proj_t`` / ``min_proj_g`` are the
    fewest time slots / vertices touched by any qualified K-set; they may lie
    below K_T / K_G when the support is sparser than its K_T x K_G rectangle,
    and above the floors, which are necessary but not always reached.
    Subsets of one size are ranked ``BLOCK`` at a time in lexicographic order,
    so ``violations`` lists them in enumeration order.
    """
    uj = np.asarray(uj, dtype=float)
    nt = support.t_dim * support.g_dim
    k = support.k
    if max_size is None:
        max_size = k
    if nt > MAX_JOINT_VERTICES:
        raise ValueError(
            f"enumeration limited to {MAX_JOINT_VERTICES} joint vertices, got {nt}"
        )
    if max_size > k + 1:
        raise ValueError(
            f"enumeration limited to subsets of size {k + 1}, requested {max_size}"
        )
    if max_size < 1:
        raise ValueError(f"subset size must be at least 1, requested {max_size}")
    if uj.shape != (nt, k):
        raise ValueError(f"joint basis shape {uj.shape} does not match support")

    floor_t, floor_g = support.floor_t, support.floor_g
    min_qualified = None
    count_at_k = 0
    violations = []
    exists_critical = False
    min_proj_t = min_proj_g = None
    for size in range(k, max_size + 1):
        combos = combinations(_INDICES[:nt], size)
        while True:
            flat = np.fromiter(chain.from_iterable(islice(combos, BLOCK)), dtype=np.intp)
            if not flat.size:
                break
            block = flat.reshape(-1, size)
            subsets = block[elimination_rank(uj[block]) == k]
            if not len(subsets):
                continue
            n_t = _distinct_per_row(subsets // support.g_dim, support.t_dim)
            n_g = _distinct_per_row(subsets % support.g_dim, support.g_dim)
            if min_qualified is None:
                min_qualified = size
            bad = (n_t < floor_t) | (n_g < floor_g)
            violations.extend(tuple(s) for s in subsets[bad].tolist())
            if size == k:
                count_at_k += len(subsets)
                block_t, block_g = int(n_t.min()), int(n_g.min())
                min_proj_t = block_t if min_proj_t is None else min(min_proj_t, block_t)
                min_proj_g = block_g if min_proj_g is None else min(min_proj_g, block_g)
                if np.any((n_t == support.k_t) & (n_g == support.k_g)):
                    exists_critical = True
    return ExhaustiveReport(
        min_qualified_size=min_qualified,
        count_qualified_at_k=count_at_k,
        violations=tuple(violations),
        exists_critical_set=exists_critical,
        min_proj_t=min_proj_t,
        min_proj_g=min_proj_g,
    )


def subset_rank(uj: np.ndarray, subset) -> int:
    """Rank of the joint basis restricted to the given linear indices."""
    subset = sorted(subset)
    if not subset:
        return 0
    return elimination_rank(np.asarray(uj, dtype=float)[subset])


def check_monotonicity(uj: np.ndarray, trials: int, rng=None) -> bool:
    """Rank never drops when a sample set grows: random nested pairs S1 in S2.

    Each subset is sorted and zero-padded to ``nt`` rows, and the pairs of
    ``BLOCK // 4`` trials are ranked in one stacked call. Zero rows never pass
    the pivot test nor beat a real row as pivot, and leave the scale alone, so
    padding does not change a rank.
    """
    uj = np.asarray(uj, dtype=float)
    nt = uj.shape[0]
    if nt > MAX_JOINT_VERTICES:
        raise ValueError(
            f"enumeration limited to {MAX_JOINT_VERTICES} joint vertices, got {nt}"
        )
    if trials < 1:
        raise ValueError(f"monotonicity needs at least 1 trial, got {trials}")
    if rng is None:
        rng = np.random.default_rng(0)
    # index nt selects the zero row appended below
    padded = np.vstack([uj, np.zeros((1, uj.shape[1]))])
    # padded subsets are taller than enumerated ones, so a call takes fewer
    per_call = BLOCK // 4
    for first in range(0, trials, per_call):
        count = min(per_call, trials - first)
        idx = np.full((2, count, nt), nt, dtype=np.intp)
        for j in range(count):
            big_size = int(rng.integers(0, nt + 1))
            big = rng.choice(nt, size=big_size, replace=False) if big_size else np.array([], dtype=int)
            small_size = int(rng.integers(0, big_size + 1))
            small = rng.choice(big, size=small_size, replace=False) if small_size else np.array([], dtype=int)
            idx[0, j, :small_size] = np.sort(small)
            idx[1, j, :big_size] = np.sort(big)
        small_rank, big_rank = elimination_rank(padded[idx])
        if np.any(small_rank > big_rank):
            return False
    return True
