"""Parametric bivariate copulas: densities, h-functions, fitting.

Families: Independence, Gaussian, Student-t, Clayton, Gumbel, Frank and
Joe, with 90/180/270 degree rotations for the asymmetric Archimedean
families.  Fitting inverts the empirical (tie-adjusted) Kendall tau for
each family's parameter, the method of moments of Genest & Favre (2007),
and selects the family (and rotation) by AIC.

Conventions
-----------
* h_func(c, u, v, direction=1) is the conditional CDF of the first
  argument given the second, direction=2 the reverse.
* h_inv(c, w, z, direction) inverts the conditioned argument; z is the
  value of the conditioning variable.  Gumbel and Joe have no closed-form
  inverse: theirs is a Newton iteration inside a bracket, to 1e-14
  relative, or as close as the rounding of h allows where h is flat.
* Rotations follow one reflection rule: 90 and 180 reflect the first
  argument (x -> 1-x), 180 and 270 the second; 90/270 capture negative
  dependence for Clayton, Gumbel and Joe.  h_func and h_inv reflect their
  result too where the rule reflects the conditioned argument.
* Arguments must lie strictly inside (0, 1); evaluations clamp them into
  [1e-10, 1 - 1e-10].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri, gammaln, stdtr, stdtrit
from scipy.stats._stats import _kendall_dis

from . import rng

EPS = 1e-10

STUDENT_NU_GRID = (2.0, 3.0, 4.0, 6.0, 10.0, 20.0, 30.0)


class Family(Enum):
    INDEPENDENCE = "independence"
    GAUSSIAN = "gaussian"
    STUDENT_T = "student"
    CLAYTON = "clayton"
    GUMBEL = "gumbel"
    FRANK = "frank"
    JOE = "joe"


# Clamps on the inverted tau keep parameters inside numerically safe ranges.
_TAU_CAP = {
    Family.GAUSSIAN: 0.99,
    Family.STUDENT_T: 0.99,
    Family.CLAYTON: 0.93,
    Family.GUMBEL: 0.93,
    Family.JOE: 0.93,
    Family.FRANK: 0.91,
}
_FRANK_THETA_CAP = 45.0


#: Families whose rotations are meaningful (tail-asymmetric ones).
ROTATABLE = frozenset({Family.CLAYTON, Family.GUMBEL, Family.JOE})

DEFAULT_CATALOGUE = frozenset(Family) - {Family.INDEPENDENCE}

#: Rotation of the argument-swapped copula (see swap_arguments).
_SWAPPED_ROTATION = {0: 0, 90: 270, 180: 180, 270: 90}


@dataclass(frozen=True)
class PairCopula:
    """A fitted (or constructed) bivariate copula."""

    family: Family
    rotation: int = 0
    theta: float = 0.0
    nu: float | None = None
    loglik: float = 0.0

    def __post_init__(self):
        if type(self.rotation) is not int or self.rotation not in (0, 90, 180, 270):
            raise ValueError(f"rotation must be one of 0/90/180/270, got {self.rotation!r}")
        if self.rotation != 0 and self.family not in ROTATABLE:
            raise ValueError(f"{self.family.value} copula only supports rotation 0")
        f, t = self.family, self.theta
        if not math.isfinite(t) or (self.nu is not None and not math.isfinite(self.nu)):
            raise ValueError(f"theta and nu must be finite, got theta={t}, nu={self.nu}")
        if f in (Family.GAUSSIAN, Family.STUDENT_T) and not -1 < t < 1:
            raise ValueError(f"correlation parameter must lie in (-1, 1), got {t}")
        if f is Family.CLAYTON and t <= 0:
            raise ValueError(f"Clayton theta must be > 0, got {t}")
        if f in (Family.GUMBEL, Family.JOE) and t < 1:
            raise ValueError(f"{f.value} theta must be >= 1, got {t}")
        if f is Family.FRANK and t == 0:
            raise ValueError("Frank theta must be nonzero")
        if f is Family.STUDENT_T:
            if self.nu is None or self.nu < 2:
                raise ValueError("Student-t copula needs nu >= 2")
        elif self.nu is not None:
            raise ValueError(f"{f.value} copula takes no nu, got {self.nu}")

    @property
    def n_params(self) -> int:
        if self.family is Family.INDEPENDENCE:
            return 0
        return 2 if self.family is Family.STUDENT_T else 1

    @property
    def tau(self) -> float:
        """Population Kendall tau implied by the parameters (rotation applied)."""
        base = param_to_tau(self.family, self.theta)
        return -base if self.rotation in (90, 270) else base


INDEPENDENCE = PairCopula(Family.INDEPENDENCE)


def _clip(x) -> np.ndarray:
    return np.clip(np.asarray(x, dtype=float), EPS, 1.0 - EPS)


class PseudoObs:
    """One pseudo-observation vector x and its per-vector transforms.

    Each is computed on first use and kept: the argsort, dense ranks and tie
    count that all taus of x share, the (0, 1) and clip checks, and the
    Student-t scores stdtrit(nu, x).  Every function here that takes
    pseudo-observation arrays takes one too.
    """

    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)
        self._scores = {}

    @cached_property
    def ranks(self) -> tuple:  # argsort, run starts in sorted order, dense ranks, tied pairs
        order = np.argsort(self.x)
        starts = _run_starts(self.x[order])
        rank = np.empty(self.x.size, dtype=np.intp)
        rank[order] = np.cumsum(starts) - 1
        return order, starts, rank, _tied_pairs(starts)

    @cached_property
    def clipped(self) -> bool:  # whether _clip leaves x as it is
        return bool(np.all((self.x >= EPS) & (self.x <= 1.0 - EPS)))

    @cached_property
    def inside(self) -> bool:  # whether x lies strictly inside (0, 1), NaN excluded
        return self.clipped or bool(np.all((self.x > 0.0) & (self.x < 1.0)))

    def scores(self, df: float) -> np.ndarray:
        if df not in self._scores:
            self._scores[df] = stdtrit(df, self.x)
        return self._scores[df]


def _wrap(x) -> PseudoObs:
    return x if isinstance(x, PseudoObs) else PseudoObs(x)


def _check_unit(*args: PseudoObs) -> None:
    if not all(x.inside for x in args):
        raise ValueError("copula arguments must be finite and strictly inside (0, 1)")


def _unit_args(c: PairCopula, *args) -> list:
    """pair_pdf/h_func/h_inv arguments, checked and clipped.  A vector that
    _clip leaves as it is goes on uncopied: a Student-t copula takes its
    PseudoObs, so its scores are reused, the other families its array."""
    args = [_wrap(x) for x in args]
    _check_unit(*args)
    return [(x if c.family is Family.STUDENT_T else x.x) if x.clipped else _clip(x.x) for x in args]


# ---------------------------------------------------------------------------
# Unrotated building blocks.  h1(u, v) = P(U <= u | V = v).
# ---------------------------------------------------------------------------

def _frank_denom(t: float, u, v):
    """expm1(-t) + expm1(-t u) expm1(-t v), grouped so the two summands
    share a sign (no catastrophic cancellation at extreme theta)."""
    return np.exp(-t * u) * np.expm1(-t * v) + np.exp(-t * v) * np.expm1(-t * (1.0 - v))


def _loglik(family: Family, rotation: int, u, v, nu: float | None):
    """theta -> per-observation log-density of the rotated family at (u, v).

    Everything that does not depend on theta is computed once, here, and
    the returned function adds the terms that do.  Rotations
    90 and 270 are evaluated in the equal form swap_arguments(c) at (v, u):
    the Gumbel log-density is exchangeable but not to the last bit, and its
    recorded fits sum in that order.
    """
    if rotation in (90, 270):
        rotation, u, v = _SWAPPED_ROTATION[rotation], v, u
    u, v = _reflect(rotation, u, v)
    if family is Family.INDEPENDENCE:
        zeros = np.zeros(np.broadcast(u, v).shape)
        return lambda theta: zeros
    if family is Family.GAUSSIAN:
        x, y = ndtri(u), ndtri(v)
        xx_yy, xy = x * x + y * y, x * y

        def gaussian(r):
            s2 = 1.0 - r * r
            return -0.5 * math.log(s2) - (r * r * xx_yy - 2.0 * r * xy) / (2.0 * s2)
        return gaussian
    if family is Family.STUDENT_T:
        df = float(nu)
        x, y = _wrap(u).scores(df), _wrap(v).scores(df)
        const = float(gammaln((df + 2.0) / 2.0) + gammaln(df / 2.0) - 2.0 * gammaln((df + 1.0) / 2.0))
        log_marg = -((df + 1.0) / 2.0) * (np.log1p(x * x / df) + np.log1p(y * y / df))
        xx_yy, xy = x * x + y * y, x * y

        def student(r):
            s2 = 1.0 - r * r
            q = (xx_yy - 2.0 * r * xy) / (df * s2)
            return const - 0.5 * math.log(s2) - ((df + 2.0) / 2.0) * np.log1p(q) - log_marg
        return student
    if family is Family.CLAYTON:
        log_u, log_v = np.log(u), np.log(v)
        log_uv = log_u + log_v

        def clayton(t):
            a, b = -t * log_u, -t * log_v
            m = np.maximum(a, b)
            log_s = m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))
            return math.log1p(t) - (1.0 + t) * log_uv - (2.0 + 1.0 / t) * log_s
        return clayton
    if family is Family.GUMBEL:
        x, y = -np.log(u), -np.log(v)
        log_xy = np.log(x) + np.log(y)

        def gumbel(t):
            s = x ** t + y ** t
            s_rt = s ** (1.0 / t)
            return -s_rt + (t - 1.0) * log_xy + (1.0 / t - 2.0) * np.log(s) + np.log(s_rt + t - 1.0) + x + y
        return gumbel
    if family is Family.FRANK:
        u_plus_v = u + v

        def frank(t):
            d = _frank_denom(t, u, v)
            return math.log(t * (-np.expm1(-t))) - t * u_plus_v - 2.0 * np.log(np.abs(d))
        return frank
    if family is Family.JOE:
        ub, vb = 1.0 - u, 1.0 - v
        log_ubvb = np.log(ub) + np.log(vb)

        def joe(t):
            ut, vt = ub ** t, vb ** t
            a = np.maximum(ut + vt - ut * vt, 1e-300)
            return (1.0 / t - 2.0) * np.log(a) + (t - 1.0) * log_ubvb + np.log(t - 1.0 + a)
        return joe
    raise ValueError(f"unknown family {family}")


def _h1_base(family: Family, u, v, theta: float, nu: float | None):
    if family is Family.INDEPENDENCE:
        return np.broadcast_to(np.asarray(u, dtype=float), np.broadcast(u, v).shape).copy()
    if family is Family.GAUSSIAN:
        r = theta
        return ndtr((ndtri(u) - r * ndtri(v)) / math.sqrt(1.0 - r * r))
    if family is Family.STUDENT_T:
        r, df = theta, float(nu)
        x, y = _wrap(u).scores(df), _wrap(v).scores(df)
        scale = np.sqrt((df + y * y) * (1.0 - r * r) / (df + 1.0))
        return stdtr(df + 1.0, (x - r * y) / scale)
    if family is Family.CLAYTON:
        t = theta
        with np.errstate(over="ignore"):
            base = (v / u) ** t + 1.0 - v ** t
            return base ** (-(1.0 + t) / t)
    if family is Family.FRANK:
        t = theta
        return np.exp(-t * v) * np.expm1(-t * u) / _frank_denom(t, u, v)
    if family in (Family.GUMBEL, Family.JOE):
        return _h1_given(family, v, theta)(u)
    raise ValueError(f"unknown family {family}")


def _h1_given(family: Family, v, t: float):
    """u -> h1(u, v) of Gumbel or Joe, the terms that depend on v alone computed once.

    The function takes `at`, the positions of v that u's values belong to,
    and with slope=True returns (h1, dh1/du): the density, built from the
    terms h1 already holds.
    """
    if family is Family.GUMBEL:
        y = -np.log(v)
        yt, log_y = y ** t, (t - 1.0) * np.log(y)

        def gumbel(u, at=..., slope=False):
            x = -np.log(u)
            xt = x ** t
            s = xt + yt[at]
            s_rt = s ** (1.0 / t)
            h = np.exp(-s_rt + log_y[at] + (1.0 / t - 1.0) * np.log(s) + y[at])
            return (h, h * (xt / x) * (s_rt + t - 1.0) / (s * u)) if slope else h
        return gumbel
    vb = 1.0 - v
    vt, vb_t1 = vb ** t, vb ** (t - 1.0)

    def joe(u, at=..., slope=False):
        ub = 1.0 - u
        ut = ub ** t
        a = np.maximum(ut + vt[at] - ut * vt[at], 1e-300)
        h = a ** (1.0 / t - 1.0) * vb_t1[at] * (1.0 - ut)
        return (h, h * (ut / ub) * (t - 1.0 + a) / (a * (1.0 - ut))) if slope else h
    return joe


def _newton_conditioned(h1, w) -> np.ndarray:
    """Solve h1(u, at) = w for u in [EPS, 1 - EPS], h1 increasing in u (see _h1_given).

    Newton's method from u = w, safeguarded by a bracket on the root that
    every evaluation narrows, (0, 1) at first: an iterate outside it, or on
    one of its ends, is replaced by its midpoint.  Iterates are clamped into
    [EPS, 1 - EPS], so a root beyond a bound ends on that bound.  An element
    stops once its step or its bracket is below 1e-14 relative or 1e-16 (the
    spacing of doubles below 1: a smaller step leaves 1 - u, all that Joe's
    h1 reads, as it is), after at most 64 iterations.  A tighter test would
    chase the rounding noise of h1, which moves some roots by several ulps
    forever.
    """
    out = np.empty(w.size)
    at = np.arange(w.size)  # the positions still iterating
    u, lo, hi = w.copy(), np.zeros(w.size), np.ones(w.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(64):
            h, slope = h1(u, at, slope=True)
            np.copyto(lo, u, where=h < w)
            np.copyto(hi, u, where=h > w)
            new = np.clip(u - (h - w) / slope, EPS, 1.0 - EPS)
            small = np.abs(new - u) <= np.maximum(1e-14 * new, 1e-16)
            stray = ~((new > lo) & (new < hi) | small)  # NaN included
            new[stray] = np.clip(0.5 * (lo[stray] + hi[stray]), EPS, 1.0 - EPS)
            done = small | (hi - lo <= np.maximum(1e-14 * new, 1e-16))
            out[at[done]] = new[done]
            keep = ~done
            at, u, lo, hi, w = at[keep], new[keep], lo[keep], hi[keep], w[keep]
            if not at.size:
                return out
    out[at] = u
    return out


def _h1_inv_base(family: Family, w, v, theta: float, nu: float | None):
    """Solve h1(u, v) = w for u."""
    if family is Family.INDEPENDENCE:
        return np.broadcast_to(np.asarray(w, dtype=float), np.broadcast(w, v).shape).copy()
    if family is Family.GAUSSIAN:
        r = theta
        return ndtr(ndtri(w) * math.sqrt(1.0 - r * r) + r * ndtri(v))
    if family is Family.STUDENT_T:
        r, df = theta, float(nu)
        y = _wrap(v).scores(df)
        scale = np.sqrt((df + y * y) * (1.0 - r * r) / (df + 1.0))
        return stdtr(df, _wrap(w).scores(df + 1.0) * scale + r * y)
    if family is Family.CLAYTON:
        t = theta
        with np.errstate(over="ignore"):
            return v * (w ** (-t / (1.0 + t)) - 1.0 + v ** t) ** (-1.0 / t)
    if family is Family.FRANK:
        t = theta
        # u = v - log(num/den)/t with num and den free of cancellation.
        num = 1.0 + w * np.expm1(-t * (1.0 - v))
        den = w + (1.0 - w) * np.exp(-t * v)
        return v - np.log(num / den) / t
    # Gumbel and Joe have no closed-form inverse: Newton's method, bracketed.
    w, v = np.broadcast_arrays(w, v)
    return _newton_conditioned(_h1_given(family, v.ravel(), theta), w.ravel()).reshape(w.shape)


# ---------------------------------------------------------------------------
# Rotation dispatch.
# ---------------------------------------------------------------------------

def _reflect(rotation: int, x, z) -> tuple:
    """The reflection rule: 90 and 180 reflect x, 180 and 270 reflect z."""
    return (1.0 - x if rotation in (90, 180) else x), (1.0 - z if rotation in (180, 270) else z)


def pair_pdf(c: PairCopula, u, v) -> np.ndarray:
    """Copula density at (u, v), rotation applied."""
    return np.exp(_loglik(c.family, c.rotation, *_unit_args(c, u, v), c.nu)(c.theta))


def _direction_one(c: PairCopula, direction: int, base, x, z):
    """base (_h1_base or _h1_inv_base) of c along `direction`, rotation applied.

    Every catalogue family is exchangeable, so direction 2 of c is direction
    1 of the copula of the swapped pair (V, U): c with rotations 90 and 270
    exchanged.  The reflection rule maps the conditioned argument x and the
    conditioning argument z to the unrotated family's; where it reflects x,
    the result is reflected back.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    rot = c.rotation if direction == 1 else _SWAPPED_ROTATION[c.rotation]
    out = base(c.family, *_reflect(rot, x, z), c.theta, c.nu)
    return _clip(1.0 - out if rot in (90, 180) else out)


def h_func(c: PairCopula, u, v, direction: int = 1) -> np.ndarray:
    """Conditional CDF h (see the module docstring)."""
    u, v = _unit_args(c, u, v)
    if direction == 2:
        u, v = v, u
    return _direction_one(c, direction, _h1_base, u, v)


def h_inv(c: PairCopula, w, z, direction: int = 1) -> np.ndarray:
    """Invert the conditioned argument of h given conditioning value z."""
    return _direction_one(c, direction, _h1_inv_base, *_unit_args(c, w, z))


def swap_arguments(c: PairCopula) -> PairCopula:
    """The copula of (V, U) when c is the copula of (U, V)."""
    return replace(c, rotation=_SWAPPED_ROTATION[c.rotation])


# ---------------------------------------------------------------------------
# Kendall tau and parameter conversions.
# ---------------------------------------------------------------------------

def _tied_pairs(run_starts) -> int:
    """Pairs within runs of equal values; run_starts marks each run's start."""
    runs = np.diff(np.flatnonzero(run_starts), append=run_starts.size)
    return int((runs * (runs - 1)).sum()) // 2


def _run_starts(x) -> np.ndarray:
    return np.concatenate(([True], x[1:] != x[:-1]))


def kendall_tau(u, v) -> float:
    """Tie-adjusted Kendall tau-b from scipy's compiled discordant-pair count.

    The argsorts, dense ranks and tie counts come from PseudoObs.ranks; the
    O(n log n) count (Knight's merge count as a Fenwick tree), the tie counts
    and the tau-b formula are those of scipy.stats.kendalltau, so the two
    agree to the last bit.
    """
    u, v = _wrap(u), _wrap(v)
    if u.x.shape != v.x.shape or u.x.ndim != 1:
        raise ValueError("kendall_tau expects two equal-length vectors")
    n = u.x.shape[0]
    if n < 2:
        raise ValueError("kendall_tau needs at least 2 observations")
    if not (np.isfinite(u.x).all() and np.isfinite(v.x).all()):
        raise ValueError("kendall_tau needs finite observations")
    order, u_starts, u_rank, u_ties = u.ranks
    _, _, v_rank, v_ties = v.ranks
    total = n * (n - 1) // 2
    if u_ties == total or v_ties == total:
        return 0.0  # a constant vector
    joint_ties = 0  # pairs tied in both: none unless both vectors have ties
    if u_ties and v_ties:
        order = np.lexsort((v_rank, u.x))  # equal (u, v) pairs side by side
        joint_ties = _tied_pairs(u_starts | _run_starts(v_rank[order]))
    # _kendall_dis needs its first argument sorted and its second argument's
    # ranks to start at 1 (its Fenwick update never ends on a rank of 0); it
    # skips the pairs tied in either vector.
    discordant = _kendall_dis(u_rank[order], v_rank[order] + 1)
    if u_ties == v_ties == 0 and discordant in (0, total):
        # Perfectly monotone tie-free data has tau exactly +-1; the sqrt-based
        # formula below loses an ulp there.
        return 1.0 if discordant == 0 else -1.0
    concordant_minus_discordant = total - u_ties - v_ties + joint_ties - 2 * discordant
    tau = concordant_minus_discordant / math.sqrt(total - u_ties) / math.sqrt(total - v_ties)
    return min(1.0, max(-1.0, tau))


def tau_independence_threshold(n: int) -> float:
    """Critical |tau| of the asymptotic 5% independence test."""
    return 1.96 * math.sqrt(2.0 * (2.0 * n + 5.0) / (9.0 * n * (n - 1.0)))


def _frank_tau(theta: float) -> float:
    if theta == 0.0:
        return 0.0
    t = abs(theta)
    debye, _ = quad(lambda x: x / math.expm1(x), 0.0, t, limit=200)
    tau = 1.0 - 4.0 / t * (1.0 - debye / t)
    return math.copysign(tau, theta)


_JOE_SERIES_K = np.arange(1.0, 5001.0)


def _joe_tau(theta: float) -> float:
    if theta == 1.0:
        return 0.0
    k = _JOE_SERIES_K
    terms = 1.0 / (k * (theta * k + 2.0) * (theta * (k - 1.0) + 2.0))
    return float(1.0 - 4.0 * terms.sum())


_FRANK_CAP_TAU = _frank_tau(_FRANK_THETA_CAP)


def param_to_tau(f: Family, theta: float) -> float:
    """Population Kendall tau of the unrotated family at parameter theta."""
    if f is Family.INDEPENDENCE:
        return 0.0
    if f in (Family.GAUSSIAN, Family.STUDENT_T):
        return 2.0 / math.pi * math.asin(theta)
    if f is Family.CLAYTON:
        return theta / (theta + 2.0)
    if f is Family.GUMBEL:
        return 1.0 - 1.0 / theta
    if f is Family.FRANK:
        return _frank_tau(theta)
    if f is Family.JOE:
        return _joe_tau(theta)
    raise ValueError(f"unknown family {f}")


def tau_to_param(f: Family, tau: float) -> float:
    """Invert param_to_tau; raises when tau is incompatible with the family."""
    if abs(tau) >= 1.0:
        raise ValueError("|tau| must be < 1")
    if f is Family.INDEPENDENCE:
        return 0.0
    if f in (Family.GAUSSIAN, Family.STUDENT_T):
        return math.sin(math.pi * tau / 2.0)
    if f is Family.CLAYTON:
        if tau <= 0.0:
            raise ValueError("Clayton requires tau > 0 (use a rotation for negative dependence)")
        return 2.0 * tau / (1.0 - tau)
    if f is Family.GUMBEL:
        if tau < 0.0:
            raise ValueError("Gumbel requires tau >= 0 (use a rotation for negative dependence)")
        return 1.0 / (1.0 - tau)
    if f is Family.FRANK:
        if tau == 0.0:
            raise ValueError("Frank tau must be nonzero")
        target = abs(tau)
        if target >= _FRANK_CAP_TAU:
            theta = _FRANK_THETA_CAP
        else:
            theta = brentq(lambda t: _frank_tau(t) - target, 1e-9, _FRANK_THETA_CAP, xtol=1e-12)
        return math.copysign(theta, tau)
    if f is Family.JOE:
        if tau < 0.0:
            raise ValueError("Joe requires tau >= 0 (use a rotation for negative dependence)")
        if tau == 0.0:
            return 1.0
        return brentq(lambda t: _joe_tau(t) - tau, 1.0 + 1e-9, 120.0, xtol=1e-10)
    raise ValueError(f"unknown family {f}")


# ---------------------------------------------------------------------------
# Fitting.
# ---------------------------------------------------------------------------

def _fit_family(f: Family, tau_hat: float, u, v) -> list[PairCopula]:
    """Kendall tau inversion: one fit per rotation f allows.

    Each fit takes theta = tau_to_param of the clamped tau_hat and is
    scored by its log-likelihood; Student-t keeps the best nu of
    STUDENT_NU_GRID at that rho.  Fits come in the order 0/180 or 90/270.
    """
    cap = _TAU_CAP[f]
    # Asymmetric families are fitted on |tau| regardless of rotation.
    lo, tau = (1e-4, abs(tau_hat)) if f in ROTATABLE else (-cap, tau_hat)
    theta = tau_to_param(f, min(max(tau, lo), cap))
    rotations = ((0, 180) if tau_hat > 0 else (90, 270)) if f in ROTATABLE else (0,)
    fits = []
    x, y = (u, v) if f is Family.STUDENT_T else (u.x, v.x)
    for rotation in rotations:
        best = None
        for nu in STUDENT_NU_GRID if f is Family.STUDENT_T else (None,):
            ll = float(_loglik(f, rotation, x, y, nu)(theta).sum())
            ll = ll if math.isfinite(ll) else -1e300
            if best is None or ll > best.loglik:
                best = PairCopula(f, rotation, theta, nu, ll)
        fits.append(best)
    return fits


def aic(c: PairCopula) -> float:
    return 2.0 * c.n_params - 2.0 * c.loglik


def fit_pair(u, v, catalogue=DEFAULT_CATALOGUE, *, tau: float | None = None) -> PairCopula:
    """Fit the AIC-best pair copula from the catalogue to pseudo-observations.

    An independence test on the empirical tau short-circuits to the
    independence copula; otherwise each family is fitted at the rotation(s)
    admissible for the sign of tau and the lowest-AIC candidate wins.  A
    caller that already holds kendall_tau(u, v) passes it as `tau`.
    """
    u, v = (x if isinstance(x, PseudoObs) else PseudoObs(np.ravel(x)) for x in (u, v))
    if u.x.shape != v.x.shape:
        raise ValueError("u and v must have equal length")
    n = u.x.shape[0]
    if n < 10:
        raise ValueError("need at least 10 paired observations")
    _check_unit(u, v)
    if np.ptp(u.x) == 0.0 or np.ptp(v.x) == 0.0:
        raise ValueError("degenerate (constant) pseudo-observation column")
    tau_hat = kendall_tau(u, v) if tau is None else tau
    if abs(tau_hat) < tau_independence_threshold(n):
        return INDEPENDENCE
    candidates = []
    for f in catalogue:
        candidates += [INDEPENDENCE] if f is Family.INDEPENDENCE else _fit_family(f, tau_hat, u, v)
    if not candidates:
        raise ValueError("catalogue is empty")
    return min(candidates, key=aic)


def sample_pair(c: PairCopula, n: int, seed: int) -> np.ndarray:
    """Draw n pairs by conditional inversion: (v, h_inv(w | v)).

    Returns an (n, 2) array; deterministic for a given seed.
    """
    draws = rng.uniforms(seed, (n, 2))
    first = draws[:, 0]
    second = h_inv(c, draws[:, 1], first, direction=2)
    return np.column_stack([first, second])
