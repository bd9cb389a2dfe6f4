"""Spectral supports, bandwidth bookkeeping, and bandlimited signal synthesis."""

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import _as_index, _as_real
from .spectral import EigenBasis, JointBasis, restrict_bases


def _check_index_pairs(obj, attr, kind, item, noun):
    """Store the dims and index pairs ``attr`` of frozen ``obj`` as ints, the
    pairs as a frozenset: the one place a ``kind`` ("support", ...) is made
    canonical, from any iterables such as parsed JSON lists. ``ValueError`` on
    a non-integral dim or index, on a dim below 1, on no pairs (no ``noun``),
    and on an ``item`` outside [0, T) x [0, N) or given twice, the first such
    ``item`` in listed order."""
    t_dim, g_dim = (_as_index(d, "dimension") for d in (obj.t_dim, obj.g_dim))
    if min(t_dim, g_dim) < 1:
        raise ValueError(f"{kind} dimensions must be positive")
    what = f"{item} index"
    pairs = set()
    for a, b in getattr(obj, attr):
        a, b = _as_index(a, what), _as_index(b, what)
        if not (0 <= a < t_dim and 0 <= b < g_dim):
            raise ValueError(f"{item} ({a}, {b}) out of range for dims ({t_dim}, {g_dim})")
        if (a, b) in pairs:
            raise ValueError(f"{item} ({a}, {b}) is given twice")
        pairs.add((a, b))
    if not pairs:
        raise ValueError(f"{kind} must contain at least one {noun}")
    for name, value in (("t_dim", t_dim), ("g_dim", g_dim), (attr, frozenset(pairs))):
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class SpectralSupport:
    """Set of occupied joint frequency pairs (j_t, j_g) on a T x N product graph.

    ``k`` counts occupied pairs, ``k_t`` occupied time frequencies and ``k_g``
    occupied graph frequencies. The sorted views are computed on first read
    and kept (``cached_property``), beside the fields.
    """

    t_dim: int
    g_dim: int
    pairs: frozenset

    def __post_init__(self):
        _check_index_pairs(self, "pairs", "support", "pair", "frequency pair")

    @cached_property
    def sorted_pairs(self):
        return tuple(sorted(self.pairs))

    @cached_property
    def time_freqs(self):
        return tuple(sorted({jt for jt, _ in self.pairs}))

    @cached_property
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


def detect_support(xf_mat: np.ndarray, eps: float = 1e-8) -> SpectralSupport:
    """Occupied pairs of a joint spectrum, thresholded relative to its peak.

    ``xf_mat`` rows index graph frequencies and columns time frequencies.
    ``ValueError`` on a NaN or infinite entry and on a zero spectrum.
    """
    if not np.isfinite(eps):
        raise ValueError(f"threshold eps must be finite, got {eps}")
    if eps <= 0:
        raise ValueError(f"threshold must be positive, got {eps}")
    xf_mat = np.asarray(xf_mat, dtype=float)
    # a NaN peak or cut, or an infinite one, would keep no pair
    if not np.isfinite(xf_mat).all():
        raise ValueError("spectrum has NaN or infinite entries")
    peak = np.max(np.abs(xf_mat)) if xf_mat.size else 0.0
    if peak == 0.0:
        raise ValueError("zero signal has no bandwidth")
    n, t = xf_mat.shape
    rows, cols = np.nonzero(np.abs(xf_mat) > eps * peak)
    return SpectralSupport(t_dim=t, g_dim=n, pairs=zip(cols, rows))


def synth_from_restricted(ut_r: np.ndarray, ug_r: np.ndarray,
                          support: SpectralSupport, coeffs: dict) -> np.ndarray:
    """N x T signal with the given spectrum, built from restricted bases, which
    must be (T, K_T) and (N, K_G): :meth:`JointBasis.synth` of the coefficients
    in the support's canonical pair order. A coefficient must be a number by
    the rule of a graph weight (a bool or a string is refused), finite and
    not zero; the first one that is not, in the dict's order, is refused, and
    so is a signal with an entry past the float range."""
    basis = JointBasis(ut_r, ug_r, support)
    if set(coeffs) != support.pairs:
        raise ValueError("coefficients must be keyed exactly by the support pairs")
    values = {}
    for (jt, jg), val in coeffs.items():
        val = _as_real(val, f"coefficient at pair ({jt}, {jg})")
        if not math.isfinite(val):
            raise ValueError(f"non-finite coefficient {val} at pair ({jt}, {jg})")
        if val == 0.0:
            raise ValueError(f"zero coefficient at pair ({jt}, {jg}) would silently "
                             "shrink the bandwidth")
        values[jt, jg] = val
    with np.errstate(over="ignore", invalid="ignore"):
        x_mat = basis.synth(np.array([values[p] for p in support.sorted_pairs]))
    if not np.isfinite(x_mat).all():
        raise ValueError("synthesized signal overflows the float range")
    return x_mat


def synth_signal(basis_t: EigenBasis, basis_g: EigenBasis,
                 support: SpectralSupport, coeffs: dict) -> np.ndarray:
    """N x T signal whose joint spectrum is exactly the given coefficients."""
    ut_r, ug_r = restrict_bases(basis_t, basis_g, support)
    return synth_from_restricted(ut_r, ug_r, support, coeffs)
