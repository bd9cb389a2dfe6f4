"""Naive reference for plan construction: a greedy scan over all N*T rows of
the joint basis that stops as soon as it reaches rank K.

It uses the library's acceptance rule (residual above ``eps`` times the row's
norm, rows negligible at matrix scale skipped) but none of its code, and it
does no work a real implementation would skip: once K rows are independent
no further row can be accepted, so the scan ends there.
"""

from dataclasses import dataclass

import numpy as np

EPS = 1e-9  # sampling.ROW_SELECT_EPS


@dataclass(frozen=True)
class NaiveResult:
    rows: tuple
    rows_scanned: int


def naive_select(uj, eps=EPS):
    """K independent rows of ``uj``, lowest index first; raises if the scan
    ends below rank K."""
    n_rows, k = uj.shape
    norms = np.linalg.norm(uj, axis=1)
    floor = eps * float(np.max(norms))
    basis = np.empty((k, k))
    picked = []
    scanned = 0
    for i in range(n_rows):
        scanned += 1
        if norms[i] <= floor:
            continue
        resid = uj[i]
        if picked:
            q = basis[:len(picked)]
            resid = resid - q.T @ (q @ resid)
            resid = resid - q.T @ (q @ resid)
        rnorm = np.linalg.norm(resid)
        if rnorm > eps * norms[i]:
            basis[len(picked)] = resid / rnorm
            picked.append(i)
            if len(picked) == k:
                return NaiveResult(tuple(picked), scanned)
    raise RuntimeError(f"naive scan reached rank {len(picked)} < K={k} over {n_rows} rows")
