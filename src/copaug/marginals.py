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

# Columns per block of quantile's kernel: 16 rows of a 10,000-sample table
# (1.3 MB) stay in cache while their values are gathered.
_BLOCK = 16


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


def quantile(table: np.ndarray, U, columns) -> np.ndarray:
    """Map column columns[j] of the matrix U through row j of the (d, n) table.

    Linear between (k/(n+1), z_(k)), clamped to [z_(1), z_(n)]: bit for
    bit np.interp(U[:, columns[j]], grid, table[j]) for every j, -0.0 and
    its NaN fallback included.  Every column shares the one grid, so a
    value's bracket is index arithmetic instead of a binary search, and
    the work runs in blocks of _BLOCK columns whose table rows stay in
    cache.  Each block gathers its own columns of U, so several rows may
    read one column without a (rows, d) copy.
    """
    U = np.asarray(U, dtype=float)
    d, n = table.shape
    columns = np.asarray(columns)
    if U.ndim != 2 or columns.shape != (d,) or not np.all((columns >= 0) & (columns < U.shape[1])):
        raise ValueError(f"quantile needs {d} column indices into a 2-d argument, got shape {U.shape}")
    if not np.all((U > 0.0) & (U < 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    if n < 2:
        raise ValueError(f"quantile table needs at least 2 samples per row, got {n}")
    table = np.ascontiguousarray(table, dtype=float)
    probs = np.arange(1, n + 1) / (n + 1.0)
    Z = np.empty((U.shape[0], d))
    with np.errstate(over="ignore", invalid="ignore"):  # np.interp does not warn
        for start in range(0, d, _BLOCK):
            c = slice(start, start + _BLOCK)
            Z[:, c] = _interp_block(table[c], U[:, columns[c]], probs)
    return Z


def _interp_block(fp: np.ndarray, u: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """np.interp(u[:, i], probs, fp[i]) for each column i of u.

    j = floor(u (n+1)) - 1 is np.interp's bracket, probs[j] <= u <
    probs[j+1], up to one step near a grid point, and the exact
    comparisons against probs settle those.  As np.interp does for many
    values, each row's segment slopes are computed once.
    """
    b, n = fp.shape
    u = np.ascontiguousarray(u)  # one strided read of U instead of one per use
    j = (u * (n + 1.0)).astype(np.intp) - 1
    np.clip(j, 0, n - 2, out=j)
    xl, xh = probs[j], probs[j + 1]
    off = (u < xl) | (u >= xh)
    if off.any():
        jo, uo = j[off], u[off]
        jo -= uo < probs[jo]
        jo += uo >= probs[jo + 1]
        np.clip(jo, 0, n - 2, out=jo)
        j[off], xl[off], xh[off] = jo, probs[jo], probs[jo + 1]
    slopes = np.empty((b, n))  # the last column is never read
    np.divide(fp[:, 1:] - fp[:, :-1], probs[1:] - probs[:-1], out=slopes[:, :-1])
    j += np.arange(0, b * n, n)
    lo, slope = fp.ravel()[j], slopes.ravel()[j]
    z = slope * (u - xl) + lo
    nan = np.isnan(z)
    if nan.any():  # np.interp's second try, from the right end of the bracket
        lo_n, hi_n = lo[nan], fp.ravel()[j[nan] + 1]
        z_n = slope[nan] * (u[nan] - xh[nan]) + hi_n
        z[nan] = np.where(np.isnan(z_n) & (lo_n == hi_n), lo_n, z_n)
    np.copyto(z, lo, where=u <= xl)  # a grid point, or below the first
    np.copyto(z, fp[:, -1], where=u >= probs[-1])  # the last grid point, or above it
    return z
