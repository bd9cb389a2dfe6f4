"""Critical sampling set construction, qualification checks, and reconstruction.

The core routine factors the row search: independent rows of the small time and
graph bases first, then K of the K_T*K_G candidate product rows of the joint
basis, instead of eliminating over all N*T rows. Both steps use one greedy
max-volume pass; over the product grid it prefers rows on time slots and
vertices it has not yet covered, so one pass yields a critical plan. A row counts
as independent by qualify's rule: a residual above ``RANK_TOL`` x its basis's max |entry|.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bandlimit import SpectralSupport, _check_index_pairs
from .spectral import RANK_TOL, JointBasis, _joint, _max_abs

COND_LIMIT = 1e12


class RankDeficiencyError(RuntimeError):
    """Raised when a basis matrix has fewer independent rows than expected."""


class UnqualifiedPlanError(RuntimeError):
    """Raised when a sampling plan cannot support perfect reconstruction."""


class IllConditionedError(RuntimeError):
    """Raised when the sampled system is too ill-conditioned to solve."""


@dataclass(frozen=True)
class SamplingPlan:
    """Set of (time, vertex) sample points on a T x N product graph. The
    sorted views are computed on first read and kept (``cached_property``)."""

    t_dim: int
    g_dim: int
    samples: frozenset

    def __post_init__(self):
        _check_index_pairs(self, "samples", "sampling plan", "sample", "sample")

    @cached_property
    def sorted_samples(self):
        return tuple(sorted(self.samples))

    @cached_property
    def proj_t(self):
        """Time slots touched by at least one sample."""
        return tuple(sorted({t for t, _ in self.samples}))

    @cached_property
    def proj_g(self):
        """Vertices touched by at least one sample."""
        return tuple(sorted({v for _, v in self.samples}))

    @property
    def size(self):
        return len(self.samples)

    def linear_indices(self):
        """Row indices into the joint basis, in canonical sample order."""
        return [t * self.g_dim + v for t, v in self.sorted_samples]

    def schedule(self):
        """Per-vertex view: vertex -> sorted tuple of sampled time slots."""
        sched = {}
        for t, v in sorted(self.samples, key=lambda s: (s[1], s[0])):
            sched.setdefault(v, []).append(t)
        return {v: tuple(ts) for v, ts in sched.items()}


@dataclass(frozen=True)
class QualificationReport:
    """Rank certificate of a plan against a spectral support."""

    rank: int
    n_samples: int
    n_proj_t: int
    n_proj_g: int
    k: int
    k_t: int
    k_g: int

    @property
    def qualified(self):
        return self.rank == self.k

    @property
    def critical(self):
        return (
            self.qualified
            and self.n_samples == self.k
            and self.n_proj_t == self.k_t
            and self.n_proj_g == self.k_g
        )


def _residual(row: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``row`` minus its projection onto the orthonormal rows of ``q``."""
    resid = row - q.T @ (q @ row)
    return resid - q.T @ (q @ resid)  # reorthogonalize for stability


def _as_matrix(mat) -> np.ndarray:
    """``mat`` as a float array; ``ValueError`` unless it is a matrix with at
    least one column."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[1] < 1:
        raise ValueError(f"expected a matrix with at least one column, got {mat.shape}")
    return mat


def _unit_scaled(rows: np.ndarray, scale: float):
    """``rows`` and the cut ``RANK_TOL * scale``, both times the power of two
    that brings ``scale``, the max |entry| of the rows' basis, into [0.5, 1).
    Exact for normal floats, so no pick moves, while no square of an entry
    under- or overflows: the selection does not depend on the basis's size."""
    exp = -np.frexp(scale)[1]
    return np.ldexp(rows, exp), RANK_TOL * np.ldexp(scale, exp)


def max_lin_indep_rows(mat: np.ndarray) -> list:
    """Naive reference scan: a maximal independent row set, lowest index first.

    A row is accepted iff its residual after projection onto the span of the
    rows already accepted exceeds ``RANK_TOL`` times ``mat``'s max |entry|, the
    planner's and :func:`qualify`'s cut; zero rows are always rejected. The scan
    covers every row, so the result is maximal and deterministic.
    """
    mat = _as_matrix(mat)
    mat, cut = _unit_scaled(mat, _max_abs(mat))
    norms = np.linalg.norm(mat, axis=1)
    basis = np.empty((mat.shape[1], mat.shape[1]))
    selected = []
    for i, row in enumerate(mat):
        if norms[i] <= cut:  # its residual can only be smaller: no projection needed
            continue
        resid = _residual(row, basis[:len(selected)])
        rnorm = np.linalg.norm(resid)
        if rnorm > cut:
            basis[len(selected)] = resid / rnorm
            selected.append(i)
    return selected


def _coverage_first_rows(rows: np.ndarray, n_g: int, scale: float) -> list:
    """Greedy max-volume pick of independent grid rows, coverage first (steps 1, 3).

    ``rows[i]`` is grid cell ``(i // n_g, i % n_g)``. Rows covering two new
    grid slots / vertices come first, then one, then none; within that, the
    largest residual wins, the lowest index on exact ties (round-off orders rows
    that tie in exact arithmetic, as on cycle, path and star bases). A row is accepted
    iff its residual exceeds ``RANK_TOL * scale``, ``scale`` being the max |entry| of the
    rows' basis; residuals only shrink, so a rejected row lies in the span for good.
    With ``n_g = 1`` (one factor) all live rows tie on coverage at every pick.
    """
    n_rows, n_cols = rows.shape
    rows, cut = _unit_scaled(rows, scale)
    resid2 = np.einsum("ij,ij->i", rows, rows)
    live = np.sqrt(resid2) > cut  # a row at or below the cut is never accepted
    new_t, new_g = np.ones(n_rows // n_g, dtype=int), np.ones(n_g, dtype=int)
    basis = np.empty((n_cols, n_cols))
    picked = []
    while len(picked) < n_cols and live.any():
        gain = np.add.outer(new_t, new_g).ravel()  # new slots + new vertices
        pool = live & (gain == np.max(gain, where=live, initial=0))
        i = int(np.argmax(np.where(pool, resid2, -np.inf)))
        live[i] = False
        resid = _residual(rows[i], basis[:len(picked)])
        rnorm = np.linalg.norm(resid)
        if rnorm <= cut:
            continue
        q = basis[len(picked)] = resid / rnorm
        picked.append(i)
        t, v = divmod(i, n_g)
        new_t[t] = new_g[v] = 0
        resid2 -= (rows @ q) ** 2  # left-looking downdate: one matvec per pick
    return picked


def _factor_rows(ut_r: np.ndarray, ug_r: np.ndarray):
    """Step 1: independent time slots and vertices, ascending, one per column of
    each restricted basis; :class:`RankDeficiencyError` if either falls short."""
    picks = []
    for name, mat in (("time", ut_r), ("graph", ug_r)):
        mat = _as_matrix(mat)
        sel = sorted(_coverage_first_rows(mat, 1, _max_abs(mat)))
        if len(sel) != mat.shape[1]:
            raise RankDeficiencyError(
                f"step 1: {name} basis has rank {len(sel)} < {mat.shape[1]}")
        picks.append(sel)
    return picks


def critical_sampling_set(ut_r: np.ndarray, ug_r: np.ndarray, uj,
                          support: SpectralSupport):
    """Construct a critical sampling plan from the restricted bases.

    Step 1 picks independent time slots and vertices from the small factors,
    step 2 takes the factors' joint basis on their product (lexicographic (t, v)
    order), step 3 picks K independent rows there and maps them back to sample
    tuples. Returns the plan with its qualification report against ``uj``, a
    :class:`JointBasis` or the dense (T*N, K) joint basis.

    Steps 1 and 3 are one max-volume pass (:func:`_coverage_first_rows`): each
    pick takes the row with the largest residual. In step 3 it prefers product
    rows on time slots and vertices no pick touches yet. Coverage is greedy,
    not guaranteed: a plan that misses a slot or vertex is still qualified and
    of minimal size K, but not critical, and the report says so.
    """
    basis = JointBasis(ut_r, ug_r, support)
    sel_t, sel_g = _factor_rows(basis.ut_r, basis.ug_r)
    product = [(t, v) for t in sel_t for v in sel_g]
    rows = basis.rows([t * support.g_dim + v for t, v in product])
    picked = _coverage_first_rows(rows, len(sel_g), basis.scale)
    if len(picked) != support.k:
        raise RankDeficiencyError(f"step 3: product rows have rank {len(picked)} < {support.k}")
    plan = SamplingPlan(t_dim=support.t_dim, g_dim=support.g_dim,
                        samples=(product[i] for i in picked))
    return plan, qualify(plan, uj, support)


def _sampled_block(plan: SamplingPlan, uj, support: SpectralSupport):
    """Rows of ``uj`` at the plan's samples and ``uj``'s max |entry|; ValueError
    if plan and support dims differ or ``uj`` is not a joint basis of ``support``."""
    if plan.t_dim != support.t_dim or plan.g_dim != support.g_dim:
        raise ValueError("plan and support dimensions disagree")
    basis = _joint(uj, support)
    return basis.rows(plan.linear_indices()), basis.scale


def _rank(s: np.ndarray, scale: float) -> int:
    """Singular values ``s`` of a sampled block above ``RANK_TOL`` times the joint
    basis's max |entry|: the oracle's rule, so rows of round-off count as zero."""
    return int(np.count_nonzero(s > RANK_TOL * scale))


def qualify(plan: SamplingPlan, uj, support: SpectralSupport) -> QualificationReport:
    """Rank of the joint basis restricted to the plan's samples, against the
    joint basis's max |entry| (:func:`_rank`), with the qualified / critical
    verdicts."""
    sub, scale = _sampled_block(plan, uj, support)
    rank = _rank(np.linalg.svd(sub, compute_uv=False), scale)
    return QualificationReport(
        rank=rank,
        n_samples=plan.size,
        n_proj_t=len(plan.proj_t),
        n_proj_g=len(plan.proj_g),
        k=support.k,
        k_t=support.k_t,
        k_g=support.k_g,
    )


def separate_sampling(ut_r: np.ndarray, ug_r: np.ndarray) -> SamplingPlan:
    """Baseline plan: independent time slots times independent vertices.

    Always uses K_T * K_G samples, which is minimal only when the support fills
    its bounding rectangle.
    """
    sel_t, sel_g = _factor_rows(ut_r, ug_r)
    return SamplingPlan(t_dim=len(ut_r), g_dim=len(ug_r),
                        samples=((t, v) for t in sel_t for v in sel_g))


def sample(x_mat: np.ndarray, plan: SamplingPlan) -> np.ndarray:
    """Signal values at the plan's samples, canonical (t, v) order."""
    x_mat = np.asarray(x_mat, dtype=float)
    if x_mat.shape != (plan.g_dim, plan.t_dim):
        raise ValueError(
            f"signal shape {x_mat.shape} does not match plan dims "
            f"({plan.g_dim}, {plan.t_dim})"
        )
    return np.array([x_mat[v, t] for t, v in plan.sorted_samples])


def reconstruct_coefficients(values: np.ndarray, plan: SamplingPlan,
                             uj, support: SpectralSupport) -> np.ndarray:
    """Spectral coefficients recovered from sampled values.

    One LAPACK least-squares call (xGELSD) gives the sampled block's singular
    values, which are ranked by :func:`qualify`'s rule, and the solution,
    exact for critical-sized plans; huge samples whose solution is
    representable reconstruct. Refuses plans whose dims are not the support's,
    non-finite sample values, unqualified plans (rows of round-off at the joint
    basis's scale included), near-singular systems and samples whose
    coefficients overflow the solve.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (plan.size,):
        raise ValueError(
            f"got {values.shape[0] if values.ndim == 1 else values.shape} sample "
            f"values for a plan of size {plan.size}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("sample values must be finite")
    block, scale = _sampled_block(plan, uj, support)
    coeffs, _, _, s = np.linalg.lstsq(block, values, rcond=None)
    rank = _rank(s, scale)
    if rank < support.k:
        raise UnqualifiedPlanError(
            f"plan is not qualified: rank {rank} < bandwidth {support.k}"
        )
    cond = s[0] / s[-1]
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedError(
            f"sampled system condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}"
        )
    if not np.all(np.isfinite(coeffs)):
        raise IllConditionedError("sample values overflow the solve")
    return coeffs


def reconstruct(values: np.ndarray, plan: SamplingPlan, uj,
                support: SpectralSupport) -> np.ndarray:
    """Full N x T signal recovered from sampled values; ``uj`` is a
    :class:`JointBasis` or the dense (T*N, K) joint basis."""
    coeffs = reconstruct_coefficients(values, plan, uj, support)
    with np.errstate(over="ignore", invalid="ignore"):
        x = _joint(uj, support).synth(coeffs)
    if not np.all(np.isfinite(x)):
        raise IllConditionedError("reconstructed signal overflows")
    return x
