"""Symmetric eigendecomposition, the joint time-vertex Fourier transform and
the joint basis of a spectral support.

Eigenbases come from LAPACK's symmetric solver (``numpy.linalg.eigh``) under a
fixed sign convention, so one install always returns the same basis.
"""

from dataclasses import dataclass

import numpy as np

# Singular values, pivots and planner residuals at most RANK_TOL times their
# basis's max |entry| count as zero: one rule for planner, solve and oracle.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class EigenBasis:
    """Orthonormal eigenvectors (columns of ``vectors``) with ascending eigenvalues."""

    vectors: np.ndarray
    values: np.ndarray

    @property
    def dim(self):
        return self.vectors.shape[0]


def eig_sym(mat: np.ndarray) -> EigenBasis:
    """Eigendecomposition of a symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    Eigenvalues ascend, and each eigenvector is scaled so its largest-magnitude
    entry (lowest index on ties) is positive. Within a repeated eigenvalue the
    basis is whatever the LAPACK build returns.
    """
    a = np.array(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    # np.allclose(a, a.T, atol=1e-10) written out: the same test without its
    # per-call overhead, which dominates on the small matrices set-ups decompose
    if not (np.abs(a - a.T) <= 1e-10 + 1e-5 * np.abs(a.T)).all():
        raise ValueError("matrix is not symmetric")
    lam, v = np.linalg.eigh((a + a.T) / 2.0)
    v *= np.sign(v[np.argmax(np.abs(v), axis=0), np.arange(n)])
    return EigenBasis(vectors=v, values=lam)


def jft(basis_t: EigenBasis, basis_g: EigenBasis, x_mat: np.ndarray) -> np.ndarray:
    """Joint transform of an N x T signal: rows of the result index graph
    frequencies, columns index time frequencies."""
    x_mat = np.asarray(x_mat, dtype=float)
    if x_mat.shape != (basis_g.dim, basis_t.dim):
        raise ValueError(
            f"signal shape {x_mat.shape} does not match bases "
            f"({basis_g.dim}, {basis_t.dim})"
        )
    return basis_g.vectors.T @ x_mat @ basis_t.vectors


def restrict_bases(basis_t: EigenBasis, basis_g: EigenBasis, support):
    """Columns of the two bases at the occupied frequencies, ascending order."""
    if (basis_t.dim, basis_g.dim) != (support.t_dim, support.g_dim):
        raise ValueError(f"support of dims ({support.t_dim}, {support.g_dim}) is out of "
                         f"range for bases of dimensions ({basis_t.dim}, {basis_g.dim})")
    ut_r = basis_t.vectors[:, support.time_freqs]
    ug_r = basis_g.vectors[:, support.graph_freqs]
    return ut_r, ug_r


def _max_abs(mat: np.ndarray) -> float:
    """Max |entry| of ``mat`` (0 when empty) from two scans, with no temporary
    the size of ``mat``; ``ValueError`` on a NaN or infinite entry, which max
    and min carry through to the result."""
    top = float(max(mat.max(initial=0.0), -mat.min(initial=0.0)))
    if not np.isfinite(top):
        raise ValueError("basis has NaN or infinite entries")
    return top


def _check_joint(uj, support):
    """Float ``uj``; ``ValueError`` unless it is (T*N, K)."""
    uj = np.asarray(uj, dtype=float)
    want = (support.t_dim * support.g_dim, support.k)
    if uj.shape != want:
        raise ValueError(f"joint basis of shape {uj.shape} does not match "
                         f"the support's (T*N, K) = {want}")
    return uj


class JointBasis:
    """The (T*N, K) joint basis of a support, held as its Kronecker factors.

    Row ``t * N + v`` is ``ut_r[t, ti] * ug_r[v, gi]``, where column k belongs
    to the support's k-th pair (j_t, j_g) in canonical order and ``ti[k]`` /
    ``gi[k]`` are the positions of j_t / j_g among the support's time / graph
    frequencies. The N*T x K matrix is formed only by :meth:`dense`; its max
    |entry|, :attr:`scale`, is what a sampled block's rank is measured
    against. Raises ``ValueError`` unless ``ut_r`` is (T, K_T) and ``ug_r``
    is (N, K_G).
    """

    def __init__(self, ut_r: np.ndarray, ug_r: np.ndarray, support):
        ut_r = np.asarray(ut_r, dtype=float)
        ug_r = np.asarray(ug_r, dtype=float)
        want_t, want_g = (support.t_dim, support.k_t), (support.g_dim, support.k_g)
        if ut_r.shape != want_t or ug_r.shape != want_g:
            raise ValueError(f"restricted bases of shapes {ut_r.shape}, {ug_r.shape} do not "
                             f"match the support's dims and bandwidths {want_t}, {want_g}")
        self.ut_r, self.ug_r, self.support = ut_r, ug_r, support
        tpos = {f: i for i, f in enumerate(support.time_freqs)}
        gpos = {f: i for i, f in enumerate(support.graph_freqs)}
        pairs = support.sorted_pairs
        self._ti = np.array([tpos[jt] for jt, _ in pairs], dtype=np.intp)
        self._gi = np.array([gpos[jg] for _, jg in pairs], dtype=np.intp)

    def dense(self) -> np.ndarray:
        """The (T*N, K) matrix itself, in one broadcast: column k is the
        Kronecker product of the factors' columns ``ti[k]`` and ``gi[k]``."""
        # entry (t, v, k) is ut_r[t, ti[k]] * ug_r[v, gi[k]], so row t * N + v of
        # the reshape is np.kron(ut_r[:, ti[k]], ug_r[:, gi[k]])[t * N + v]
        return (self.ut_r[:, None, self._ti] * self.ug_r[None, :, self._gi]).reshape(
            -1, self.support.k)

    @property
    def scale(self) -> float:
        """``np.abs(self.dense()).max()`` from the factors' column maxima, bit
        for bit: |a * b| rounds as |a| * |b|, and rounding is monotone.
        ``ValueError`` if a factor holds a NaN or infinite entry."""
        top_t, top_g = np.abs(self.ut_r).max(axis=0), np.abs(self.ug_r).max(axis=0)
        return _max_abs(top_t[self._ti] * top_g[self._gi])

    def rows(self, idx) -> np.ndarray:
        """Rows at linear indices ``t * N + v``, in the order given; the same
        single product per entry as the dense columns, so bit-identical."""
        t, v = np.divmod(np.asarray(idx, dtype=np.intp)[:, None], self.support.g_dim)
        return self.ut_r[t, self._ti] * self.ug_r[v, self._gi]

    def synth(self, coeffs: np.ndarray) -> np.ndarray:
        """N x T signal ``ug_r @ C @ ut_r.T``, where C is the K_G x K_T grid
        holding the K coefficients at their pairs: the dense ``uj @ coeffs``
        unvectorized."""
        grid = np.zeros((self.support.k_g, self.support.k_t))
        grid[self._gi, self._ti] = coeffs
        return self.ug_r @ grid @ self.ut_r.T


class _DenseJoint:
    """:class:`JointBasis`'s ``scale`` / ``rows`` / ``synth`` over a dense
    (T*N, K) ``uj``; kept only while callers still pass the dense matrix."""

    def __init__(self, uj: np.ndarray, support):
        self.uj, self.support = uj, support

    @property
    def scale(self) -> float:
        return _max_abs(self.uj)

    def rows(self, idx) -> np.ndarray:
        return self.uj[idx]

    def synth(self, coeffs: np.ndarray) -> np.ndarray:
        return (self.uj @ coeffs).reshape((self.support.g_dim, self.support.t_dim),
                                          order="F")


def _joint(uj, support):
    """``uj`` as a joint basis of ``support``: a :class:`JointBasis` built for
    it as is, anything else checked by ``_check_joint`` and wrapped densely.
    ``ValueError`` on a JointBasis of another support or a dense ``uj`` that
    is not (T*N, K)."""
    if isinstance(uj, JointBasis):
        if uj.support != support:
            raise ValueError("joint basis was built for another support")
        return uj
    return _DenseJoint(_check_joint(uj, support), support)


def joint_columns_from_restricted(ut_r: np.ndarray, ug_r: np.ndarray, support) -> np.ndarray:
    """``JointBasis(ut_r, ug_r, support).dense()``: the (T*N, K) joint basis
    columns built from the restricted time / graph bases."""
    return JointBasis(ut_r, ug_r, support).dense()


def joint_basis_columns(basis_t: EigenBasis, basis_g: EigenBasis, support) -> np.ndarray:
    """Joint basis columns selected by a spectral support from full bases."""
    return joint_columns_from_restricted(*restrict_bases(basis_t, basis_g, support), support)
