"""Statistical evaluation: projection summaries, band depth, error metrics.

Random-projection reports compare a real and a synthetic data matrix by
projecting both onto shared random directions and recording summary
statistics of the projections; matching scatter along the diagonal means
both marginals and dependence are captured.  Band depth orders a family
of curves by centrality; error metrics reduce prediction differences to
mean bias and mean absolute error plus per-level quantiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .dataset import write_table

PROJECTION_STATISTICS = ("mean", "variance", "std", "q10", "q50", "q90")


@dataclass(frozen=True)
class ProjectionReport:
    """Per statistic: (iterations,) arrays of real and synthetic values."""

    stats: dict


@dataclass(frozen=True)
class ErrorMetrics:
    mb: float
    mae: float
    level_quantiles: np.ndarray  # (n_levels, 3): q10, q50, q90 of the error


def _summaries(p: np.ndarray) -> list:
    """The PROJECTION_STATISTICS of the projection `p`, in order."""
    return [p.mean(), p.var(ddof=1), p.std(ddof=1), *np.quantile(p, (0.10, 0.50, 0.90))]


def random_projection_report(real, synth, iters: int = 100, seed: int = 0) -> ProjectionReport:
    """Project both matrices onto shared standard-normal directions.

    Per iteration one weight vector is drawn and applied to both
    matrices; the report records each summary statistic of the two
    projection vectors as an (s_real, s_synth) pair.
    """
    real = np.asarray(real, dtype=float)
    synth = np.asarray(synth, dtype=float)
    if real.shape[1] != synth.shape[1]:
        raise ValueError(f"column counts differ: {real.shape[1]} vs {synth.shape[1]}")
    if iters < 1:
        raise ValueError("iteration count must be >= 1")
    W = rng.normals(seed, (iters, real.shape[1]))  # row i: iteration i's direction
    s = np.array([[_summaries(x @ w) for x in (real, synth)] for w in W])  # (iters, 2, statistics)
    return ProjectionReport({name: (s[:, 0, k], s[:, 1, k]) for k, name in enumerate(PROJECTION_STATISTICS)})


def band_depth(curves) -> np.ndarray:
    """Two-curve band depth with closed inequalities.

    BD(f) is the fraction of curve pairs {i, j} whose pointwise envelope
    contains f everywhere; a curve is inside every band it bounds.
    """
    a = np.asarray(curves, dtype=float)
    if a.ndim != 2:
        raise ValueError("curves must form a 2-dimensional array")
    n = a.shape[0]
    if n < 3:
        raise ValueError("band depth needs at least 3 curves")
    n_pairs = n * (n - 1) // 2
    depths = np.empty(n)
    for k in range(n):
        below = (a < a[k]).astype(np.float64)   # strictly below f_k somewhere
        above = (a > a[k]).astype(np.float64)
        # Pair (i, j) fails iff both run strictly below (or above) f_k at some t.
        bad = ((below @ below.T) > 0.0) | ((above @ above.T) > 0.0)
        n_bad = (np.count_nonzero(bad) - np.count_nonzero(np.diag(bad))) // 2
        depths[k] = (n_pairs - n_bad) / n_pairs
    return depths


def error_metrics(y_true, y_pred) -> ErrorMetrics:
    """Mean bias and mean absolute error of d = y_true - y_pred.

    Both aggregate over every matrix entry; per-level quantiles of d
    support profile plots.
    """
    yt = np.asarray(y_true, dtype=float)
    yp = np.asarray(y_pred, dtype=float)
    if yt.shape != yp.shape:
        raise ValueError(f"shape mismatch {yt.shape} vs {yp.shape}")
    d = yt - yp
    lq = np.column_stack([np.quantile(d, p, axis=0) for p in (0.1, 0.5, 0.9)])
    return ErrorMetrics(mb=float(d.mean()), mae=float(np.abs(d).mean()), level_quantiles=lq)


# ---------------------------------------------------------------------------
# Delimited-text report serialization (plot-ready).
# ---------------------------------------------------------------------------

def write_projection_report(path, report: ProjectionReport) -> None:
    write_table(path, ("statistic", "iteration", "s_real", "s_synth"),
                ((name, it, a, b) for name in PROJECTION_STATISTICS
                 for it, (a, b) in enumerate(zip(*report.stats[name]))))


def write_depth_report(path, curves) -> None:
    """Per level: envelope of the ceil(n/4) deepest curves around the deepest.

    Curves rank by descending band depth, ties by curve index.
    """
    a = np.asarray(curves, dtype=float)
    order = np.lexsort((np.arange(len(a)), -band_depth(a)))
    central = a[order[:-(-len(a) // 4)]]
    write_table(path, ("level", "q_low", "q_mid", "q_high"),
                zip(range(a.shape[1]), central.min(axis=0), a[order[0]], central.max(axis=0)))


def write_level_quantiles(path, metrics: ErrorMetrics) -> None:
    write_table(path, ("level", "q_low", "q_mid", "q_high"),
                ((lev, *row) for lev, row in enumerate(metrics.level_quantiles)))
