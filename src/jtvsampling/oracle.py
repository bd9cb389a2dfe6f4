"""Brute-force ground truth at tiny scale.

Everything here deliberately avoids the production row-selection code: rank is
computed by plain Gaussian elimination so the oracle and the fast path cannot
share a bug. The elimination is stacked: one call ranks ``BLOCK`` enumerated
subsets, held with the stack axis innermost so that each column step runs over
all of them at once, with no SVD, QR or call into ``sampling``.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import comb, prod

import numpy as np

from .bandlimit import SpectralSupport
from .spectral import RANK_TOL, _check_joint, _max_abs

MAX_JOINT_VERTICES = 20
# Subsets ranked per stacked elimination call: large enough to amortize the
# per-call numpy overhead, small enough to keep the stack and its temporaries
# well under a megabyte.
BLOCK = 512
# Shared pool for itertools.combinations: with a pool built per call, such as
# range(nt), CPython 3.11's max RSS grows by about 0.5 MB over the first ~2,000
# calls before it levels off, enough to raise the oracle-tiny benchmark's peak
# RSS by 1.3 %.
_INDICES = tuple(range(MAX_JOINT_VERTICES))


def elimination_rank(mat: np.ndarray, scale: float = None):
    """Matrix rank by row echelon reduction with partial pivoting.

    ``mat`` is one matrix ``(rows, cols)`` or a stack ``(..., rows, cols)``,
    as for ``np.linalg.matrix_rank``; a matrix gives an ``int``, a stack an
    int array of its leading shape. A column is skipped when its best pivot is
    at most ``RANK_TOL * scale``. ``scale`` defaults to each matrix's own
    ``max |a|``, the rule of ``matrix_rank(tol=None)``; the oracle passes the
    joint basis's ``max |uj|``, so that rows of round-off rank as zero in every
    set they are drawn into. Every matrix is reduced on its own: it keeps its
    own pivot rows and running rank. The stack is copied once with the stack
    axis innermost, so each column step is a few numpy calls over every matrix
    at once. A pivot row is not swapped into place: it eliminates itself to
    zeros, so an exact tie in pivot magnitude goes to the lowest row index.
    Raises ``ValueError`` on a NaN or infinite entry; ``mat`` is left
    unchanged.
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
        top = np.maximum(a.max(axis=(0, 1)), -a.min(axis=(0, 1)))
        if not np.isfinite(top).all():
            raise ValueError("cannot rank a matrix with NaN or infinite entries")
        cut = RANK_TOL * (top if scale is None else scale)
        flat = a.reshape(cols, rows * count)
        which = np.arange(count)
        for col in range(cols):
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
    """Outcome of enumerating all K-sample sets against a support."""

    min_qualified_size: int
    count_qualified_at_k: int
    violations: tuple = field(default_factory=tuple)
    exists_critical_set: bool = False
    min_proj_t: int = None
    min_proj_g: int = None


def _distinct_per_column(labels: np.ndarray) -> np.ndarray:
    """Distinct entries in each column of an int matrix of at most
    ``MAX_JOINT_VERTICES`` rows, counted in uint8: an entry counts when it
    differs from every entry above it. Every temporary is one row long."""
    counts = np.zeros(labels.shape[1], dtype=np.uint8)
    for j, row in enumerate(labels):
        new = np.ones(labels.shape[1], dtype=bool)
        for above in labels[:j]:
            new &= row != above
        counts += new
    return counts


@lru_cache(maxsize=1)
def _enumeration(t_dim: int, g_dim: int, k: int):
    """Every k-subset of the T*N joint vertices in lexicographic order, one per
    column of a ``(k, C(T*N, k))`` uint8 table, which holds every index below
    ``MAX_JOINT_VERTICES``, with the number of time slots and of vertices each
    subset touches, in uint8. All three are read-only and cached for one
    ``(T, N, k)`` at a time, which every call at one instance size asks for.
    A block of the table's columns indexes its subsets' rows in the order
    ``elimination_rank`` lays them out."""
    nt = t_dim * g_dim
    table = np.fromiter(chain.from_iterable(combinations(_INDICES[:nt], k)),
                        dtype=np.uint8, count=comb(nt, k) * k).reshape(-1, k).T.copy()
    cached = (table, _distinct_per_column(table // g_dim),
              _distinct_per_column(table % g_dim))
    for array in cached:
        array.flags.writeable = False
    return cached


def _check_enumerable(nt: int):
    """``ValueError`` if ``nt`` joint vertices exceed the enumeration limit."""
    if nt > MAX_JOINT_VERTICES:
        raise ValueError(f"enumeration limited to {MAX_JOINT_VERTICES} joint vertices, got {nt}")


def exhaustive_check(uj: np.ndarray, support: SpectralSupport) -> ExhaustiveReport:
    """Enumerate every sample subset of size K and audit the bounds.

    Counts the qualified K-sets, those of rank K against ``max |uj|`` (see
    ``elimination_rank``), collects any that undercuts the necessary
    bounds |S_T| >= ``support.floor_t`` or |S_G| >= ``support.floor_g``
    (expected none), and records whether one is critical. Size K decides every
    verdict. Elimination never ranks a matrix above its row count, so no
    smaller subset qualifies and |S| >= K holds by construction. A larger
    qualified subset holds a qualified K-set of its own pivot rows, which
    touches no more time slots or vertices, so it adds no violation, minimum or
    critical set. ``min_qualified_size`` is K, or ``None`` when no K-set
    qualifies. ``min_proj_t`` / ``min_proj_g`` are the fewest time slots /
    vertices touched by any qualified K-set; they may lie below K_T / K_G when
    the support is sparser than its K_T x K_G rectangle, and above the floors,
    which are necessary but not always reached.
    All K-subsets are held in one cached uint8 table in lexicographic order,
    beside the time slots and vertices each one touches, and are ranked
    ``BLOCK`` subsets per stacked call, so ``violations`` lists them in
    enumeration order. A block is gathered from ``uj.T`` straight into the
    (columns, rows, subsets) layout that ``elimination_rank`` works in, so its
    copy there is a plain one. At the enumeration limit (20 joint vertices,
    K = 10) the cache is C(20, 10) x 12 bytes, 2.2 MB; the traced peak of the
    call that builds it is 4.4 MB, and of a call that finds it cached at most
    2.2 MB, reached when every K-set qualifies.
    """
    nt = support.t_dim * support.g_dim
    k = support.k
    _check_enumerable(nt)
    uj = _check_joint(uj, support)
    scale = _max_abs(uj)

    table, slots, vertices = _enumeration(support.t_dim, support.g_dim, k)
    # taking a (k, count) block of row indices from uj's transpose gives a
    # contiguous (K, k, count) array: the block's subset matrices with the
    # stack axis innermost, as elimination_rank lays them out; its transpose
    # is their (count, k, K) stack
    ujt = np.ascontiguousarray(uj.T)
    qualified = np.concatenate([
        elimination_rank(ujt.take(table[:, first:first + BLOCK], axis=1).transpose(2, 1, 0),
                         scale=scale) == k
        for first in range(0, table.shape[1], BLOCK)
    ])
    n_t, n_g = slots[qualified], vertices[qualified]
    bad = (n_t < support.floor_t) | (n_g < support.floor_g)
    found = len(n_t) > 0
    return ExhaustiveReport(
        min_qualified_size=k if found else None,
        count_qualified_at_k=len(n_t),
        violations=tuple(map(tuple, table[:, np.flatnonzero(qualified)[bad]].T.tolist())),
        exists_critical_set=bool(np.any((n_t == support.k_t) & (n_g == support.k_g))),
        min_proj_t=int(n_t.min()) if found else None,
        min_proj_g=int(n_g.min()) if found else None,
    )


def check_monotonicity(uj: np.ndarray, trials: int, rng) -> bool:
    """Rank never drops when a sample set grows: random nested pairs S1 in S2.

    A trial draws a size for S2, one for S1 no larger, and a random order of
    the ``nt`` rows; each set is a prefix of that order, so S1 is in S2. A set
    is ranked as ``uj`` with the rows outside it zeroed, which keeps its rows
    in order: zero rows never pass the pivot test nor beat a real row as
    pivot. Sets are ranked against ``max |uj|``, as in ``exhaustive_check``.
    The pairs of ``BLOCK // 8`` trials are ranked in one stacked call.
    """
    uj = np.asarray(uj, dtype=float)
    nt, _ = uj.shape
    _check_enumerable(nt)
    if trials < 1:
        raise ValueError(f"monotonicity needs at least 1 trial, got {trials}")
    # a trial ranks two nt-row matrices, about 8 times the rows of one
    # enumerated subset at the size limit, so a call takes fewer trials
    per_call = BLOCK // 8
    scale = _max_abs(uj)
    for first in range(0, trials, per_call):
        count = min(per_call, trials - first)
        big = rng.integers(0, nt + 1, size=count)
        small = rng.integers(0, big + 1)
        # place[j, r] is row r's place in trial j's random order
        place = rng.permuted(np.broadcast_to(np.arange(nt), (count, nt)), axis=1)
        member = place < np.stack([small, big])[:, :, None]
        small_rank, big_rank = elimination_rank(uj * member[..., None], scale=scale)
        if np.any(small_rank > big_rank):
            return False
    return True
