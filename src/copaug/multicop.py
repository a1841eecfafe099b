"""Multivariate dependence models on pseudo-observations.

Two model kinds share one surface: the full Gaussian copula (correlation
matrix of normal scores, Cholesky sampling) and the truncated regular vine
of the sequential greedy algorithm: per tree up to the truncation level, a
maximum spanning tree on |Kendall tau| weights restricted by the proximity
condition, each edge fitted by AIC family selection, conditional
pseudo-data pushed through the fitted h-functions to the next tree.  The
vine is an R-vine matrix; simulation inverts the Rosenblatt transform
along its columns.

A SynthModel ties marginals and copula together: fit_synth_model fits
both on a training set's input matrix, one copula column per distinct
ranking, and sample_synth_model simulates and maps the columns back
through the marginal quantiles into the input matrix of new profiles.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

from . import rng
from .bicop import (
    DEFAULT_CATALOGUE,
    EPS,
    INDEPENDENCE,
    Family,
    PairCopula,
    PseudoObs,
    fit_pair,
    h_func,
    h_inv,
    kendall_tau,
    swap_arguments,
)
from .dataset import (LevelGrid, ProfileSet, SchemaError, check_artifact, json_numbers, read_json,
                      strictly_increasing, write_lines)
from .marginals import pseudo_observations, quantile

MODEL_FORMAT_VERSION = 3
KINDS = ("gaussian", "vine")  # SynthModel.kind of a GaussianCopulaModel, of a VineModel

# Full vines are allowed but quadratic; above this width default to truncating.
TRUNCATION_FREE_LIMIT = 60
DEFAULT_TRUNCATION = 5


@dataclass(frozen=True)
class GaussianCopulaModel:
    """Correlation matrix R with Cholesky factor L, L @ L.T = R."""

    R: np.ndarray
    L: np.ndarray

    @property
    def d(self) -> int:
        return self.R.shape[0]


@dataclass(frozen=True)
class VineEdge:
    """One pair copula of the vine; its first argument is F(cond[0] | given)."""

    cond: tuple
    given: frozenset
    copula: PairCopula
    tau_hat: float


@dataclass(frozen=True)
class VineModel:
    """Fitted regular vine, truncated: an R-vine matrix plus pair copulas.

    `matrix` is the d x d R-vine structure matrix in the standard layout
    (Joe 2014, ch. 6; vinecopulib) over variables 0..d-1.  Column j's own
    variable sits on the antidiagonal, matrix[d-1-j][j]; for t < d-1-j,
    matrix[t][j] is its partner in tree t+1, given matrix[0..t-1][j].
    Cells below the antidiagonal hold -1.

    copulas[t][j] = (copula, tau_hat) is that edge's fitted copula, whose
    first argument is column j's own variable, and its empirical Kendall
    tau, for the trees t+1 <= truncation.  Every deeper edge is the
    independence copula: a truncated vine's density depends on trees
    1..truncation only (Brechmann, Czado & Aas 2012).
    """

    matrix: tuple   # d rows of d ints
    copulas: tuple  # one row per fitted tree; row t holds d-1-t (PairCopula, tau_hat)

    def __post_init__(self):
        M, d, k = self.matrix, len(self.matrix), len(self.copulas)
        if d < 2 or {len(row) for row in M} != {d} or set(map(type, itertools.chain(*M))) != {int}:
            raise ValueError(f"vine.matrix: expected a square integer matrix of size >= 2, got {d} rows")
        cols = tuple(zip(*M))
        own = [col[d - 1 - j] for j, col in enumerate(cols)]
        if sorted(own) != list(range(d)):
            raise ValueError(f"vine.matrix: the antidiagonal must hold each of 0..{d - 1} once")
        for j, col in enumerate(cols):
            if sorted(col[:d - 1 - j]) != sorted(own[j + 1:]) or col[d - j:] != (-1,) * j:
                raise ValueError(f"vine.matrix: column {j} must hold the variables of the columns "
                                 "right of it above the antidiagonal and -1 below it")
        _edge_sources(M, d - 1)  # the proximity condition
        if not 1 <= k <= d - 1 or [len(row) for row in self.copulas] != list(range(d - 1, d - 1 - k, -1)):
            raise ValueError(f"vine.copulas: expected up to {d - 1} trees of {d - 1}, {d - 2}, ... edges")

    @property
    def d(self) -> int:
        return len(self.matrix)

    @property
    def truncation(self) -> int:
        return len(self.copulas)

    @cached_property
    def trees(self) -> tuple:
        """Tree t+1 at index t: VineEdges by conditioned pair, each pair ascending."""
        M, d = self.matrix, self.d
        trees = []
        for t in range(d - 1):
            edges = []
            for j in range(d - 1 - t):
                a, b = M[d - 1 - j][j], M[t][j]
                cop, tau = self.copulas[t][j] if t < self.truncation else (INDEPENDENCE, 0.0)
                if a > b:
                    a, b, cop = b, a, swap_arguments(cop)
                edges.append(VineEdge((a, b), frozenset(M[s][j] for s in range(t)), cop, tau))
            trees.append(tuple(sorted(edges, key=lambda e: e.cond)))
        return tuple(trees)


@dataclass(frozen=True)
class CopulaSpec:
    """Which dependence model to fit and with what options."""

    kind: str = KINDS[0]  # one of KINDS
    catalogue: frozenset = DEFAULT_CATALOGUE
    truncation: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be {' or '.join(map(repr, KINDS))}, got {self.kind!r}")
        if self.kind == "vine" and not self.catalogue:
            raise ValueError("vine fitting needs a nonempty catalogue")


@dataclass(frozen=True)
class SynthModel:
    """Serializable generative model: per-column marginals plus a copula.

    Constant training columns carry no dependence information and break
    rank correlations, so the copula covers only the `active` columns,
    the non-constant rows of the marginal table; constant columns are
    reproduced by their quantile map, whatever u it gets.  Active columns
    with one ranking are comonotone (upper Frechet bound M) and share a
    copula column: active[i] reads copula column ranking[i], numbered 0,
    1, ... in order of first use, at least 2 of them.  `copula` is the
    GaussianCopulaModel or VineModel over them; its type is the `kind`.
    """

    marginals: np.ndarray  # (d, n): row j is column j's sorted training sample
    active: tuple  # column indices covered by the copula
    ranking: tuple  # per active column, its copula column
    copula: GaussianCopulaModel | VineModel

    @property
    def d(self) -> int:
        return self.marginals.shape[0]

    @property
    def kind(self) -> str:
        return KINDS[isinstance(self.copula, VineModel)]

    @property
    def vine(self) -> VineModel | None:  # perfbench's vine-30 check reads it
        return self.copula if isinstance(self.copula, VineModel) else None


@dataclass
class SynthesisDiagnostics:
    """Bookkeeping of invariant enforcement during synthesis."""

    pressure_resorted: int = 0


def _check_umatrix(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ValueError("pseudo-observation matrix must be 2-dimensional")
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ValueError("pseudo-observations must be finite and strictly inside (0, 1)")
    return u


# ---------------------------------------------------------------------------
# Gaussian copula.
# ---------------------------------------------------------------------------

def fit_gaussian(u) -> GaussianCopulaModel:
    """Correlation of normal scores, eigenvalue-clipped and renormalized."""
    u = _check_umatrix(u)
    n, d = u.shape
    if n < 10:
        raise ValueError("need at least 10 rows to fit a Gaussian copula")
    z = ndtri(u)
    if np.any(np.std(z, axis=0) == 0.0):
        raise ValueError("constant column: correlation undefined")
    if d == 1:
        R = np.array([[1.0]])
    else:
        R = np.corrcoef(z, rowvar=False)
    # Clip tiny/negative eigenvalues so the factorization always succeeds.
    w, V = np.linalg.eigh(R)
    w = np.maximum(w, 1e-6)
    R = (V * w) @ V.T
    scale = np.sqrt(np.diag(R))
    R = R / np.outer(scale, scale)
    R = 0.5 * (R + R.T)
    np.fill_diagonal(R, 1.0)
    L = np.linalg.cholesky(R)
    return GaussianCopulaModel(R, L)


def simulate_gaussian(m: GaussianCopulaModel, n: int, seed: int) -> np.ndarray:
    """n rows of Phi(L z) with z standard normal via inverse CDF."""
    u = rng.normals(seed, (n, m.d)) @ m.L.T
    return np.clip(ndtr(u, out=u), EPS, 1.0 - EPS, out=u)


# ---------------------------------------------------------------------------
# Vine fitting.
# ---------------------------------------------------------------------------

class _Node:
    """Working node during fitting: one edge of the tree being built."""

    __slots__ = ("pieces", "cond", "constraint", "copula", "tau")

    def __init__(self, pieces, cond, constraint):
        self.pieces = pieces          # ids of the two lower-level nodes joined
        self.cond = cond              # conditioned pair (a, b); a comes from pieces[0]
        self.constraint = constraint  # all variables this node involves
        self.copula, self.tau = INDEPENDENCE, 0.0


def _kruskal_max(n_nodes: int, edges: list) -> list:
    """Maximum spanning forest; edges are (weight, tiebreak, i, j, payload)."""
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for w, tb, i, j, payload in sorted(edges, key=lambda e: (-e[0], e[1])):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            chosen.append(payload)
    return chosen


def _proximity_pairs(nodes: list) -> list:
    """Node pairs (x, y), x < y, that share a node of the previous tree."""
    sharing = {}
    for x, node in enumerate(nodes):
        for piece in node.pieces:
            sharing.setdefault(piece, []).append(x)
    return [pair for xs in sharing.values() for pair in itertools.combinations(xs, 2)]


def resolve_truncation(truncation: int | None, d: int) -> int:
    if truncation is not None:
        if truncation < 1:
            raise ValueError("truncation level must be >= 1")
        return min(truncation, d - 1)
    return d - 1 if d <= TRUNCATION_FREE_LIMIT else DEFAULT_TRUNCATION


def fit_vine(u, spec: CopulaSpec = CopulaSpec(kind="vine")) -> VineModel:
    """Fit a truncated regular vine level by level.

    Tree 1 is the maximum spanning tree of |tau| over all variable pairs;
    deeper trees up to the truncation level connect previous-level edges
    that share a node, weighted by |tau| of the conditional pseudo-data.
    Ties break toward the lowest conditioned index pair.  Trees past the
    truncation level do not change the density, so they only complete the
    structure: a spanning tree of the proximity graph picked by node index,
    with independence copulas.  Each node vector has one PseudoObs for the
    whole fit: a fitted edge wraps its h-functions for the next tree, and an
    independence edge hands its two wrappers on, as simulate_vine does.
    """
    u = _check_umatrix(u)
    d = u.shape[1]
    if d < 2:
        raise ValueError("vine fitting needs at least 2 features")
    trunc = resolve_truncation(spec.truncation, d)
    nodes = [_Node((), (i,), frozenset((i,))) for i in range(d)]
    hdata = [{i: PseudoObs(u[:, i])} for i in range(d)]  # per node: var -> F(var | constraint - {var})
    levels = []
    for level in range(1, d):
        fitted = level <= trunc
        pairs = itertools.combinations(range(d), 2) if level == 1 else _proximity_pairs(nodes)
        candidates = []
        for x, y in pairs:
            e, f = nodes[x], nodes[y]
            (a,) = e.constraint - f.constraint
            (b,) = f.constraint - e.constraint
            tau = kendall_tau(hdata[x][a], hdata[y][b]) if fitted else 0.0
            tiebreak = (min(a, b), max(a, b), x, y) if fitted else (x, y)
            candidates.append((abs(tau), tiebreak, x, y, (x, y, a, b, tau)))
        chosen = _kruskal_max(len(nodes), candidates)
        chosen.sort(key=lambda c: (min(c[2], c[3]), max(c[2], c[3])))
        new_nodes, new_hdata = [], []
        for x, y, a, b, tau in chosen:
            node = _Node((x, y), (a, b), nodes[x].constraint | nodes[y].constraint)
            if fitted:
                za, zb = hdata[x][a], hdata[y][b]
                try:
                    cop = fit_pair(za, zb, spec.catalogue, tau=tau)
                except ValueError as exc:
                    raise ValueError(f"tree {level} edge ({a},{b}): {exc}") from None
                node.copula, node.tau = cop, tau
                if level < trunc:
                    if cop.family is not Family.INDEPENDENCE:
                        za, zb = (PseudoObs(h_func(cop, za, zb, direction=1)),
                                  PseudoObs(h_func(cop, za, zb, direction=2)))
                    new_hdata.append({a: za, b: zb})
            new_nodes.append(node)
        levels.append(new_nodes)
        nodes, hdata = new_nodes, new_hdata
    return _encode(levels, trunc)


def _encode(levels: list, trunc: int) -> VineModel:
    """The R-vine matrix of a fitted tree sequence (Dissmann et al. 2013).

    Column j takes a conditioned variable x of the one edge left in tree
    d-1-j; down the trees, the partners of x in the chain of edges holding
    x as a conditioned variable fill the column.  Removing that chain
    leaves a regular vine on the other variables.
    """
    d = len(levels) + 1
    M = [[-1] * d for _ in range(d)]
    copulas = [[None] * (d - 1 - t) for t in range(trunc)]
    used = [set() for _ in levels]
    for j in range(d - 1):
        top = d - 2 - j
        (idx,) = set(range(len(levels[top]))) - used[top]
        x = max(levels[top][idx].cond)
        for t in range(top, -1, -1):
            node = levels[t][idx]
            used[t].add(idx)
            first = x == node.cond[0]
            M[t][j] = node.cond[1] if first else node.cond[0]
            if t < trunc:
                copulas[t][j] = (node.copula if first else swap_arguments(node.copula), node.tau)
            idx = node.pieces[0 if first else 1]
        M[d - 1 - j][j] = x
    M[0][d - 1] = M[0][d - 2]
    return VineModel(tuple(map(tuple, M)), tuple(map(tuple, copulas)))


def family_counts(m: VineModel) -> dict:
    """Edges per family name, sorted, over all d(d-1)/2 edges: those past the
    truncation level are independence edges, counted without building them."""
    counts = Counter(cop.family.value for row in m.copulas for cop, _ in row)
    counts[Family.INDEPENDENCE.value] += m.d * (m.d - 1) // 2 - sum(map(len, m.copulas))
    return {name: n for name, n in sorted(counts.items()) if n}


def _edge_sources(M, k: int) -> list:
    """Where the edge of tree t+1 in column j, t < k, finds F(M[t][j] | M[0..t-1][j]).

    sources[t][j] = (c, own): column c's own variable given M[0..t-1][c] if
    own, else the partner of column c's tree-t edge given the rest of that
    edge.  No such c breaks the proximity condition: ValueError.  A set of
    variables is an integer bitmask, so each tree costs O(d).
    """
    d = len(M)
    own = [M[d - 1 - c][c] for c in range(d)]
    given = [0] * d  # given[c]: bitmask of M[0..t-1][c]
    sources = []
    for t in range(k):
        edge_at = {g | 1 << v: c for c, (g, v) in enumerate(zip(given[:d - t], own))}
        partner, previous = M[t], M[t - 1]
        row = []
        for j in range(d - 1 - t):
            v = partner[j]
            given[j] |= 1 << v
            c = edge_at.get(given[j])
            if c is None or v not in (own[c], previous[c]):
                raise ValueError(f"vine.matrix: column {j}, tree {t + 1} breaks the proximity condition")
            row.append((c, v == own[c]))
        sources.append(row)
    return sources


def simulate_vine(m: VineModel, n: int, seed: int) -> np.ndarray:
    """Simulate n rows from the vine; deterministic given the seed.

    The inverse Rosenblatt transform on the R-vine matrix (Dissmann et al.
    2013), columns right to left, each through trees truncation..1: O(n d k)
    work, and no h-function call for an independence copula.  Variable v
    inverts column v of the uniform stream.  A conditioning vector is kept
    only until its last reader has read it, in one PseudoObs that all its
    readers share, so a Student-t edge's scores of it are computed once.
    """
    M, d, k = m.matrix, m.d, m.truncation
    W = rng.uniforms(seed, (n, d))
    sources = _edge_sources(M, k)
    # (c, True, t) is F(column c's variable | M[0..t-1][c]) and (c, False, t)
    # F(M[t-1][c] | column c's variable, M[0..t-2][c]); `live` holds each
    # until its last reader has read it.
    readers = Counter((c, own, t) for t, row in enumerate(sources) for c, own in row)
    live = {}
    out = np.empty((n, d))
    for j in range(d - 1, -1, -1):
        depth = min(k, d - 1 - j)
        values = [None] * depth + [PseudoObs(W[:, M[d - 1 - j][j]])]
        for t in range(depth - 1, -1, -1):
            key = (*sources[t][j], t)
            readers[key] -= 1
            z = live[key] if readers[key] else live.pop(key)
            cop = m.copulas[t][j][0]
            if cop.family is Family.INDEPENDENCE:
                values[t] = values[t + 1]
                if readers[j, False, t + 1]:
                    live[j, False, t + 1] = z
                continue
            values[t] = PseudoObs(h_inv(cop, values[t + 1], z, direction=1))
            if readers[j, False, t + 1]:
                live[j, False, t + 1] = PseudoObs(h_func(cop, values[t], z, direction=2))
        live.update(((j, True, t), x) for t, x in enumerate(values) if readers[j, True, t])
        out[:, M[d - 1 - j][j]] = values[0].x
    return out


# ---------------------------------------------------------------------------
# Synthesis: marginals + copula -> new profiles.
# ---------------------------------------------------------------------------

def _active_columns(table: np.ndarray) -> tuple:
    """The columns a copula covers: the non-constant rows of the sorted marginal table."""
    return tuple(np.flatnonzero(table[:, -1] > table[:, 0]).tolist())


def _first_use(keys) -> tuple:
    """Number the distinct keys 0, 1, ... in the order they first appear."""
    first = {}
    return tuple(first.setdefault(key, len(first)) for key in keys)


def fit_synth_model(train: ProfileSet, spec: CopulaSpec) -> SynthModel:
    """Fit marginals and the chosen copula on the training set's input matrix.

    Active columns with equal pseudo-observations share one ranking, and
    the copula is fitted on the first column of each ranking.  The default
    truncation counts the active columns, comonotone copies included.
    """
    if len(train) < 2:
        raise ValueError(f"an empirical marginal needs at least 2 values, got {len(train)}")
    margs = np.sort(train.inputs.T, axis=1)
    active = _active_columns(margs)
    U = pseudo_observations(train.inputs[:, active])
    ranking = _first_use(col.tobytes() for col in U.T)
    U = U[:, np.unique(ranking, return_index=True)[1]]
    if U.shape[1] < 2:
        raise ValueError("a copula needs at least 2 distinct rankings of non-constant columns, "
                         f"got {U.shape[1]}")
    if spec.kind == "gaussian":
        return SynthModel(margs, active, ranking, fit_gaussian(U))
    spec = replace(spec, truncation=resolve_truncation(spec.truncation, len(active)))
    return SynthModel(margs, active, ranking, fit_vine(U, spec))


def sample_synth_model(model: SynthModel, n: int, seed: int):
    """Simulate n profiles; returns (ProfileSet, SynthesisDiagnostics).

    Each active column maps its ranking's simulated uniform column through
    its marginal quantile into the set's input matrix, so the columns of
    one ranking come out comonotone; a constant column reads copula column
    0.  Non-monotone pressure columns of individual profiles (interpolation
    ties, or rankings the copula joins loosely) are re-sorted ascending in
    place (marginals are preserved exactly) and counted.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    grid = LevelGrid(model.d // 3)
    U = (simulate_vine if model.kind == "vine" else simulate_gaussian)(model.copula, n, seed)
    column = np.zeros(model.d, dtype=np.intp)
    column[list(model.active)] = model.ranking
    inputs = quantile(model.marginals, U, column)
    p = inputs[:, grid.n_full:2 * grid.n_full]
    resort = np.any(np.diff(p, axis=1) <= 0, axis=1)
    p[resort] = strictly_increasing(np.sort(p[resort], axis=1))
    diag = SynthesisDiagnostics(pressure_resorted=int(np.count_nonzero(resort)))
    return ProfileSet(grid, inputs), diag


# ---------------------------------------------------------------------------
# Model artifact (JSON, versioned).
# ---------------------------------------------------------------------------

def _copula_to_dict(c: PairCopula) -> dict:
    return {
        "family": c.family.value,
        "rotation": c.rotation,
        "theta": c.theta,
        "nu": c.nu,
        "loglik": c.loglik,
    }


_EDGE_FIELDS = ("family", "rotation", "theta", "nu", "loglik", "tau_hat")


def _edge_from_dict(e, where: str) -> tuple:
    """(copula, tau_hat) of one vine.copulas entry; SchemaError naming `where`."""
    missing = [key for key in _EDGE_FIELDS if not isinstance(e, dict) or key not in e]
    if missing:
        raise SchemaError(f"{where}: missing {', '.join(missing)}")
    numbers = [e["theta"], e["loglik"], e["tau_hat"]] + ([] if e["nu"] is None else [e["nu"]])
    if not all(type(x) in (int, float) and np.isfinite(x) for x in numbers):
        raise SchemaError(f"{where}: theta, loglik and tau_hat must be finite numbers, nu one or null")
    if abs(e["tau_hat"]) > 1:
        raise SchemaError(f"{where}: tau_hat must lie in [-1, 1], got {e['tau_hat']}")
    try:
        return PairCopula(Family(e["family"]), e["rotation"], e["theta"], e["nu"], e["loglik"]), e["tau_hat"]
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def model_to_dict(model: SynthModel) -> dict:
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "columns": LevelGrid(model.d // 3).input_labels(),
        "marginals": model.marginals.tolist(),
        "active": list(model.active),
        "ranking": list(model.ranking),
    }
    if model.kind == "gaussian":
        doc["correlation"] = model.copula.R.ravel().tolist()  # row-major
    else:
        doc["vine"] = {"matrix": [list(row) for row in model.copula.matrix],
                       "copulas": [[{"tau_hat": tau, **_copula_to_dict(c)} for c, tau in row]
                                   for row in model.copula.copulas]}
    return doc


def _marginal_table(rows, columns: list) -> np.ndarray:
    """The (d, n) table of sorted samples, n >= 2, finite and within the
    profile invariants (T and p positive, tau_c nonnegative); else SchemaError."""
    d = len(columns)
    table = json_numbers(rows, "marginals")
    if table.ndim != 2 or table.shape[0] != d or table.shape[1] < 2:
        raise SchemaError(f"marginals: expected shape ({d}, n) with n >= 2, got {table.shape}")
    if np.any(np.diff(table, axis=1) < 0):
        raise SchemaError("marginals: every row must be sorted ascending")
    k = d // 3
    bad = np.flatnonzero(np.concatenate([table[:2 * k, 0] <= 0, table[2 * k:, 0] < 0]))
    if bad.size:
        raise SchemaError(f"marginals: row {bad[0]} ({columns[bad[0]]}): T and p must be positive, "
                          "tauc nonnegative")
    return table


def model_from_dict(doc: dict) -> SynthModel:
    """Decode a model artifact; a malformed one raises SchemaError naming the field."""
    check_artifact(doc, MODEL_FORMAT_VERSION, "kind", "columns", "marginals", "active", "ranking",
                   note=f": this build reads version {MODEL_FORMAT_VERSION}; refit the model")
    kind = doc["kind"]
    if kind not in KINDS:
        raise SchemaError(f"kind: expected {' or '.join(map(repr, KINDS))}, got {kind!r}")
    columns = doc["columns"]
    k = len(columns) // 3 if isinstance(columns, list) else 0
    if k < 1 or columns != LevelGrid(k).input_labels():
        raise SchemaError("columns: expected T_1..T_k, p_1..p_k, tauc_1..tauc_k for some k >= 1")
    margs = _marginal_table(doc["marginals"], columns)
    active = _active_columns(margs)
    if len(active) < 2 or doc["active"] != list(active):
        raise SchemaError("active: expected distinct column indices equal to the marginal table's "
                          f"{len(active)} non-constant rows, at least 2 of them")
    ranking = doc["ranking"]
    if not (isinstance(ranking, list) and len(ranking) == len(active)
            and all(type(r) is int for r in ranking) and tuple(ranking) == _first_use(ranking)
            and max(ranking) >= 1):
        raise SchemaError(f"ranking: expected one integer per active column ({len(active)}), numbering "
                          "the copula columns 0, 1, ... in order of first use, at least 2 of them")
    ranking, dc = tuple(ranking), max(ranking) + 1
    check_artifact(doc, MODEL_FORMAT_VERSION, "correlation" if kind == "gaussian" else "vine")
    if kind == "gaussian":
        R = json_numbers(doc["correlation"], "correlation")
        if R.size != dc * dc:
            raise SchemaError(f"correlation: {R.size} entries do not fit {dc} copula columns")
        R = R.reshape(dc, dc)
        if not (np.array_equal(R, R.T) and np.all(np.diag(R) == 1.0)):
            raise SchemaError("correlation: expected an exactly symmetric matrix with unit diagonal")
        try:
            copula = GaussianCopulaModel(R, np.linalg.cholesky(R))
        except np.linalg.LinAlgError:
            raise SchemaError("correlation: matrix is not positive-definite") from None
    else:
        vine = doc["vine"]
        if not (isinstance(vine, dict) and "matrix" in vine and "copulas" in vine):
            raise SchemaError("vine: expected an object with matrix and copulas")
        matrix, rows = vine["matrix"], vine["copulas"]
        if not (isinstance(matrix, list) and len(matrix) == dc and all(isinstance(row, list) for row in matrix)):
            raise SchemaError(f"vine.matrix: expected a list of {dc} rows for {dc} copula columns")
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise SchemaError("vine.copulas: expected a list of rows")
        copulas = tuple(tuple(_edge_from_dict(e, f"vine.copulas[{t}][{j}]") for j, e in enumerate(row))
                        for t, row in enumerate(rows))
        try:
            copula = VineModel(tuple(map(tuple, matrix)), copulas)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    return SynthModel(margs, active, ranking, copula)


def save_model(path, model: SynthModel) -> None:
    write_lines(path, [json.dumps(model_to_dict(model))])


def load_model(path) -> SynthModel:
    return model_from_dict(read_json(path))
