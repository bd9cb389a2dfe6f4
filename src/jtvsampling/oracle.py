"""Brute-force ground truth at tiny scale.

Everything here deliberately avoids the production row-selection code: rank is
computed by plain Gaussian elimination so the oracle and the fast path cannot
share a bug. The elimination is stacked: one call ranks ``BLOCK`` enumerated
subsets, held with the stack axis innermost so that each column step runs over
all of them at once, with no SVD, QR or call into ``sampling``.
"""

from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from math import prod

import numpy as np

from .bandlimit import SpectralSupport
from .spectral import _check_joint

MAX_JOINT_VERTICES = 20
ELIM_TOL = 1e-10
# Subsets ranked per stacked elimination call: large enough to amortize the
# per-call numpy overhead, small enough to keep the stack and its temporaries
# well under a megabyte.
BLOCK = 512
# Shared pool for itertools.combinations: CPython 3.11 keeps every freed
# 20-tuple on a free list it never reuses, so a pool built per call at the
# size limit would cost memory on every call.
_INDICES = tuple(range(MAX_JOINT_VERTICES))


def elimination_rank(mat: np.ndarray):
    """Matrix rank by row echelon reduction with partial pivoting.

    ``mat`` is one matrix ``(rows, cols)`` or a stack ``(..., rows, cols)``,
    as for ``np.linalg.matrix_rank``; a matrix gives an ``int``, a stack an
    int array of its leading shape. Every matrix is reduced on its own: it
    keeps its own scale ``max |a|``, pivot rows and running rank, and skips a
    column whose best pivot is at most ``ELIM_TOL * scale``. The stack is copied
    once with the stack axis innermost, so each column step is a few numpy
    calls over every matrix at once. A pivot row is not swapped into place:
    it eliminates itself to zeros, so an exact tie in pivot magnitude goes to
    the lowest row index. Raises ``ValueError`` on a NaN or infinite entry;
    ``mat`` is left unchanged.
    """
    mat = np.asarray(mat)
    lead = mat.shape[:-2]
    rows, cols = mat.shape[-2:]
    count = prod(lead)
    # a[col] is one contiguous (rows, count) slab
    a = np.empty((cols, rows) + lead)
    a[...] = np.moveaxis(mat, (-1, -2), (0, 1))
    a = a.reshape(cols, rows, count)
    rank = np.zeros(count, dtype=np.intp)
    if a.size:
        # max |a| from two reductions, with no temporary the size of the stack
        scale = np.maximum(a.max(axis=(0, 1)), -a.min(axis=(0, 1)))
        if not np.isfinite(scale).all():
            raise ValueError("cannot rank a matrix with NaN or infinite entries")
        cut = ELIM_TOL * scale
        flat = a.reshape(cols, rows * count)
        which = np.arange(count)
        for col in range(cols):
            if (rank == rows).all():
                break
            mag = np.abs(a[col])
            # flat index of each matrix's pivot within a (rows, count) slab
            at = mag.argmax(axis=0) * count + which
            ok = mag.take(at) > cut
            if not ok.any():
                continue
            pivot_row = flat[col:].take(at, axis=1)
            # the pivot row's own factor is exactly 1, so it eliminates itself
            # to exact zeros right of the pivot: that marks it spent, and a
            # zero row never passes the pivot test
            factors = a[col] / np.where(ok, pivot_row[0], 1.0)
            factors *= ok
            # only the columns right of the pivot are read by a later step;
            # one column at a time keeps the temporary to one slab
            for right in range(col + 1, cols):
                a[right] -= factors * pivot_row[right - col]
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
    uj = _check_joint(uj, support)

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
    return elimination_rank(np.asarray(uj, dtype=float)[sorted(subset)])


def check_monotonicity(uj: np.ndarray, trials: int, rng=None) -> bool:
    """Rank never drops when a sample set grows: random nested pairs S1 in S2.

    A trial draws a size for S2, one for S1 no larger, and a random order of
    the ``nt`` rows; each set is a prefix of that order, so S1 is in S2. A set
    is ranked as ``uj`` with the rows outside it zeroed, which keeps its rows
    in order: zero rows never pass the pivot test nor beat a real row as
    pivot. Each matrix also gets a last row and column holding ``max |uj|``
    alone, which adds exactly 1 to its rank and makes ``uj``'s scale its own,
    so every set is ranked against ``uj``'s scale. Against its own scale a set
    of round-off rows can reach full rank and lose it when a real row joins.
    The pairs of ``BLOCK // 8`` trials are ranked in one stacked call.
    """
    uj = np.asarray(uj, dtype=float)
    nt, k = uj.shape
    if nt > MAX_JOINT_VERTICES:
        raise ValueError(
            f"enumeration limited to {MAX_JOINT_VERTICES} joint vertices, got {nt}"
        )
    if trials < 1:
        raise ValueError(f"monotonicity needs at least 1 trial, got {trials}")
    if rng is None:
        rng = np.random.default_rng(0)
    # a trial ranks two nt-row matrices, about 8 times the rows of one
    # enumerated subset at the size limit, so a call takes fewer trials
    per_call = BLOCK // 8
    stack = np.zeros((2, per_call, nt + 1, k + 1))
    stack[..., nt, k] = np.abs(uj).max(initial=0.0)
    for first in range(0, trials, per_call):
        count = min(per_call, trials - first)
        big = rng.integers(0, nt + 1, size=count)
        small = rng.integers(0, big + 1)
        # place[j, r] is row r's place in trial j's random order
        place = rng.permuted(np.broadcast_to(np.arange(nt), (count, nt)), axis=1)
        member = place < np.stack([small, big])[:, :, None]
        stack[:, :count, :nt, :k] = uj * member[..., None]
        small_rank, big_rank = elimination_rank(stack[:, :count])
        if np.any(small_rank > big_rank):
            return False
    return True
