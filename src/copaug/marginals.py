"""Empirical per-feature marginal distributions.

The marginals of d features are one (d, n) table whose row j is feature
j's sorted training sample z_(1) <= ... <= z_(n).  Feature j's quantile
function is piecewise linear through the points (k/(n+1), z_(k)) and
clamped to the sample range; rank-based pseudo-observations map a data
matrix onto the open unit hypercube.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata


def pseudo_observations(values: np.ndarray) -> np.ndarray:
    """Columnwise rank/(n+1) pseudo-observations, average rank on ties.

    Accepts a 1-d or 2-d array and returns an array of the same shape
    with entries strictly inside (0, 1).
    """
    vals = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("matrix contains non-finite values")
    n = vals.shape[0]
    if n < 2:
        raise ValueError("pseudo-observations need at least 2 rows")
    return rankdata(vals, method="average", axis=0) / (n + 1.0)


def quantile(table: np.ndarray, U) -> np.ndarray:
    """Map column j of the (rows, d) matrix U through row j of the (d, n) table.

    Linear between (k/(n+1), z_(k)), clamped to [z_(1), z_(n)]; every
    column shares the one probability grid.
    """
    U = np.asarray(U, dtype=float)
    d, n = table.shape
    if U.ndim != 2 or U.shape[1] != d:
        raise ValueError(f"quantile argument must have {d} columns, got shape {U.shape}")
    if not np.all((U > 0.0) & (U < 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    probs = np.arange(1, n + 1) / (n + 1.0)
    Z = np.empty_like(U)
    for j in range(d):
        Z[:, j] = np.interp(U[:, j], probs, table[j])
    return Z
