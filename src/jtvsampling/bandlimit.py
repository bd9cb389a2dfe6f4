"""Spectral supports, bandwidth bookkeeping, and bandlimited signal synthesis."""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .graphs import _as_index
from .spectral import EigenBasis, JointBasis, restrict_bases


def _check_index_pairs(obj, attr, item, empty):
    """Store the dims and index pairs ``attr`` of frozen ``obj`` as ints, the
    pairs as a frozenset. ``ValueError`` on a non-integral dim or index, on no
    pairs (message ``empty``) and on an ``item`` outside [0, T) x [0, N)."""
    t_dim, g_dim = (_as_index(d, "dimension") for d in (obj.t_dim, obj.g_dim))
    what = f"{item} index"
    pairs = frozenset((_as_index(a, what), _as_index(b, what))
                      for a, b in getattr(obj, attr))
    if not pairs:
        raise ValueError(empty)
    for a, b in pairs:
        if not (0 <= a < t_dim and 0 <= b < g_dim):
            raise ValueError(f"{item} ({a}, {b}) out of range for dims ({t_dim}, {g_dim})")
    for name, value in (("t_dim", t_dim), ("g_dim", g_dim), (attr, pairs)):
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class SpectralSupport:
    """Set of occupied joint frequency pairs (j_t, j_g) on a T x N product graph.

    ``k`` counts occupied pairs, ``k_t`` occupied time frequencies and ``k_g``
    occupied graph frequencies.
    """

    t_dim: int
    g_dim: int
    pairs: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.t_dim < 1 or self.g_dim < 1:
            raise ValueError("support dimensions must be positive")
        _check_index_pairs(self, "pairs", "pair",
                           "support must contain at least one frequency pair")

    @property
    def sorted_pairs(self):
        return tuple(sorted(self.pairs))

    @property
    def time_freqs(self):
        return tuple(sorted({jt for jt, _ in self.pairs}))

    @property
    def graph_freqs(self):
        return tuple(sorted({jg for _, jg in self.pairs}))

    @property
    def k(self):
        return len(self.pairs)

    @property
    def k_t(self):
        return len(self.time_freqs)

    @property
    def k_g(self):
        return len(self.graph_freqs)

    @property
    def floor_t(self):
        """Fewest time slots any qualified sample set can touch: the largest
        number of time frequencies paired with one graph frequency g.

        If |S_T| < |T_g|, some nonzero combination f of the time-basis columns
        in T_g vanishes on S_T, and the bandlimited signal u_g fᵀ is zero on
        every sample, so the samples cannot reach rank K. Equals K_T for
        rectangular supports and is never below ⌈K/K_G⌉; it need not be
        reached.
        """
        return max(Counter(jg for _, jg in self.pairs).values())

    @property
    def floor_g(self):
        """Fewest vertices any qualified sample set can touch: the largest
        number of graph frequencies paired with one time frequency t.

        The argument of ``floor_t`` with time and graph swapped. Equals K_G
        for rectangular supports and is never below ⌈K/K_T⌉; it need not be
        reached.
        """
        return max(Counter(jt for jt, _ in self.pairs).values())

    def is_sbl(self):
        """True when the support fits strictly inside both frequency axes."""
        return self.k_t < self.t_dim and self.k_g < self.g_dim

    def is_rectangle(self):
        return self.k == self.k_t * self.k_g


def detect_support(xf_mat: np.ndarray, eps: float = 1e-8) -> SpectralSupport:
    """Occupied pairs of a joint spectrum, thresholded relative to its peak.

    ``xf_mat`` rows index graph frequencies and columns time frequencies.
    """
    if not np.isfinite(eps):
        raise ValueError(f"threshold eps must be finite, got {eps}")
    if eps <= 0:
        raise ValueError(f"threshold must be positive, got {eps}")
    xf_mat = np.asarray(xf_mat, dtype=float)
    peak = np.max(np.abs(xf_mat)) if xf_mat.size else 0.0
    if peak == 0.0:
        raise ValueError("zero signal has no bandwidth")
    n, t = xf_mat.shape
    rows, cols = np.nonzero(np.abs(xf_mat) > eps * peak)
    return SpectralSupport(t_dim=t, g_dim=n, pairs=zip(cols, rows))


def _check_keys(support: SpectralSupport, coeffs: dict):
    """``ValueError`` unless ``coeffs`` is keyed exactly by the support pairs."""
    if set(coeffs) != support.pairs:
        raise ValueError("coefficients must be keyed exactly by the support pairs")


def synth_from_restricted(ut_r: np.ndarray, ug_r: np.ndarray,
                          support: SpectralSupport, coeffs: dict) -> np.ndarray:
    """N x T signal with the given spectrum, built from restricted bases, which
    must be (T, K_T) and (N, K_G): :meth:`JointBasis.synth` of the coefficients
    in the support's canonical pair order. A zero coefficient is refused."""
    basis = JointBasis(ut_r, ug_r, support)
    _check_keys(support, coeffs)
    for (jt, jg), val in coeffs.items():
        if float(val) == 0.0:
            raise ValueError(f"zero coefficient at pair ({jt}, {jg}) would silently "
                             "shrink the bandwidth")
    return basis.synth(np.array([float(coeffs[p]) for p in support.sorted_pairs]))


def synth_signal(basis_t: EigenBasis, basis_g: EigenBasis,
                 support: SpectralSupport, coeffs: dict) -> np.ndarray:
    """N x T signal whose joint spectrum is exactly the given coefficients."""
    ut_r, ug_r = restrict_bases(basis_t, basis_g, support)
    return synth_from_restricted(ut_r, ug_r, support, coeffs)


def full_spectrum(support: SpectralSupport, coeffs: dict) -> np.ndarray:
    """Dense N x T joint spectrum matrix with the coefficients in place."""
    _check_keys(support, coeffs)
    xf = np.zeros((support.g_dim, support.t_dim))
    for (jt, jg), val in coeffs.items():
        xf[jg, jt] = float(val)
    return xf
