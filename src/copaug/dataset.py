"""Atmospheric profile data model: ingestion, splitting, input matrices.

A profile is a vertical column of dry-bulb temperature T [K], pressure p
[Pa] and cloud layer optical depth tau_c [-] on a fixed grid of full
levels, index 1 at the top of the atmosphere and index n_full at the
surface.  A ProfileSet stores many profiles as the one (n_profiles,
3 n_full) input matrix that the statistical models and the emulator read,
with per-quantity column views; a surrogate generator provides desk-scale
stand-in data with realistic cross-level dependence.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import rng

# Surrogate generator contract constants (kept in one place on purpose:
# tests depend on the statistical contract, not the exact values).
SURROGATE_T_TOP = 210.0         # K, baseline temperature aloft
SURROGATE_T_SURFACE = 288.0     # K, baseline temperature at the surface
SURROGATE_T_OFFSET = 8.0        # K, std of the per-profile offset
SURROGATE_T_NOISE = 3.0         # K, std of level-correlated perturbations
SURROGATE_AR1 = 0.9             # lag-1 correlation of the perturbations
SURROGATE_P0_MEAN = 101325.0    # Pa
SURROGATE_P0_SPREAD = 2000.0    # Pa, half-width of the surface pressure draw
SURROGATE_CLOUD_FRACTION = 0.4  # fraction of profiles containing cloud
SURROGATE_CLOUD_SIGMA_LO = 0.45  # cloud blocks live between these sigmas
SURROGATE_CLOUD_SIGMA_HI = 0.97
SURROGATE_CLOUD_LOGMEAN = 0.0   # lognormal magnitude of block optical depth
SURROGATE_CLOUD_LOGSTD = 1.0
SURROGATE_SIGMA_EXPONENT = 1.6  # shape of the fixed sigma grid


class SchemaError(ValueError):
    """Profile file does not match the expected wide-format schema."""


def json_numbers(value, name: str, shape: tuple | None = None) -> np.ndarray:
    """The float array of a rectangular nest of finite JSON numbers.

    Strings, booleans, null, ragged nests, non-finite numbers and, when
    `shape` is given, any other shape raise SchemaError naming `name`.
    """
    nest = np.array(value, dtype=object)  # a ragged nest keeps lists as its items
    if not set(map(type, nest.flat)) <= {int, float}:
        raise SchemaError(f"{name}: expected a list of numbers or of equal-length lists of numbers")
    try:
        arr = nest.astype(float)
    except OverflowError:
        raise SchemaError(f"{name}: values must be finite") from None
    if shape is not None and arr.shape != shape:
        raise SchemaError(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{name}: values must be finite")
    return arr


def read_json(path):
    """The JSON document in the file at `path`; text that does not parse raises SchemaError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}") from None


def check_artifact(doc, version: int, *keys, note: str = "") -> None:
    """Raise SchemaError unless `doc` is an object of format `version` holding every field in `keys`."""
    for key in ("version", *keys):
        if not isinstance(doc, dict) or key not in doc:
            raise SchemaError(f"model artifact is missing the {key} field")
        if key == "version" and (type(doc["version"]) is not int or doc["version"] != version):
            raise SchemaError(f"unsupported model format version {doc['version']!r}{note}")


def strictly_increasing(a: np.ndarray) -> np.ndarray:
    """Raise each entry of `a`, in place, to at least one ulp above its predecessor
    along the last axis and return `a`; when every row already increases, nothing is written."""
    if np.all(np.diff(a) > 0):
        return a
    for i in range(1, a.shape[-1]):
        a[..., i] = np.maximum(a[..., i], np.nextafter(a[..., i - 1], np.inf))
    return a


@dataclass(frozen=True)
class LevelGrid:
    """Vertical grid: n_full full levels, n_full + 1 half levels."""

    n_full: int

    def __post_init__(self):
        if self.n_full < 1:
            raise ValueError(f"n_full must be >= 1, got {self.n_full}")

    @property
    def n_half(self) -> int:
        return self.n_full + 1

    def input_labels(self) -> list[str]:
        return [f"{q}_{i}" for q in ("T", "p", "tauc") for i in range(1, self.n_full + 1)]

    def output_labels(self) -> list[str]:
        return [f"L_{i}" for i in range(self.n_half)]


def _first_invalid_row(T, p, tau_c):
    """(row, reason) for the first row of the (n, n_full) arrays that breaks
    a profile invariant, with the first check it fails; None if none does."""
    finite = np.isfinite(T) & np.isfinite(p) & np.isfinite(tau_c)
    checks = (
        (~np.all(finite, axis=1), "profile contains non-finite values"),
        (np.any(T <= 0, axis=1), "temperature must be positive everywhere"),
        (np.any(p <= 0, axis=1), "pressure must be positive everywhere"),
        (np.any(np.diff(p, axis=1) <= 0, axis=1), "pressure must increase strictly toward the surface"),
        (np.any(tau_c < 0, axis=1), "cloud optical depth must be nonnegative"),
    )
    bad = np.stack([mask for mask, _ in checks])
    rows = np.flatnonzero(np.any(bad, axis=0))
    return (int(rows[0]), checks[np.argmax(bad[:, rows[0]])][1]) if rows.size else None


@dataclass(frozen=True)
class Profile:
    """One atmospheric column on a LevelGrid; a row view of a ProfileSet.

    T and p run from the top of the atmosphere (index 0) down to the
    surface; p must be positive and increase strictly toward the surface.
    """

    T: np.ndarray
    p: np.ndarray
    tau_c: np.ndarray

    def __post_init__(self):
        for name in ("T", "p", "tau_c"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.T.ndim != 1 or self.p.shape != self.T.shape or self.tau_c.shape != self.T.shape:
            raise ValueError("T, p and tau_c must have equal length")
        bad = _first_invalid_row(self.T[None], self.p[None], self.tau_c[None])
        if bad is not None:
            raise ValueError(bad[1])


@dataclass(frozen=True)
class ProfileSet:
    """Ordered profiles sharing one grid, stored as one input matrix.

    inputs is the C-contiguous (n_profiles, 3 n_full) matrix with columns
    T_1..T_n, p_1..p_n, tauc_1..tauc_n, row k being profile k; T, p and
    tau_c are its (n_profiles, n_full) column-slice views.  fluxes, when
    present, is an (n_profiles, n_half) array of downwelling longwave flux
    per half level.
    """

    grid: LevelGrid
    inputs: np.ndarray
    fluxes: np.ndarray | None = None
    T: np.ndarray = field(init=False, repr=False)
    p: np.ndarray = field(init=False, repr=False)
    tau_c: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.grid.n_full
        object.__setattr__(self, "inputs", np.ascontiguousarray(self.inputs, dtype=float))
        if self.inputs.ndim != 2 or self.inputs.shape[1] != 3 * n:
            raise ValueError(f"inputs must have shape (n, {3 * n}), got {self.inputs.shape}")
        for k, name in enumerate(("T", "p", "tau_c")):
            object.__setattr__(self, name, self.inputs[:, k * n:(k + 1) * n])
        bad = _first_invalid_row(self.T, self.p, self.tau_c)
        if bad is not None:
            raise ValueError(f"row {bad[0]}: {bad[1]}")
        self._set_fluxes(self.fluxes)

    def _set_fluxes(self, fluxes) -> "ProfileSet":
        if fluxes is not None:
            fluxes = np.asarray(fluxes, dtype=float)
            if fluxes.shape != (len(self), self.grid.n_half):
                raise ValueError(f"fluxes must have shape {(len(self), self.grid.n_half)}, "
                                 f"got {fluxes.shape}")
        object.__setattr__(self, "fluxes", fluxes)
        return self

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def profiles(self) -> tuple:
        """One Profile row view per row."""
        return tuple(map(Profile, self.T, self.p, self.tau_c))

    def subset(self, indices) -> "ProfileSet":
        indices = np.asarray(indices, dtype=int)
        fluxes = self.fluxes[indices] if self.fluxes is not None else None
        return ProfileSet(self.grid, self.inputs[indices], fluxes)

    def with_fluxes(self, fluxes: np.ndarray) -> "ProfileSet":
        """This set with new fluxes; its inputs were validated when it was built."""
        return copy.copy(self)._set_fluxes(fluxes)


@dataclass(frozen=True)
class DataMatrix:
    """Samples-by-features matrix with per-column quantity/level labels; it
    holds arrays that ProfileSet or the emulator's forward pass checked."""

    values: np.ndarray
    columns: tuple


@dataclass(frozen=True)
class SplitSpec:
    """Shuffle-and-split fractions plus the shuffle seed."""

    train: float = 0.4
    val: float = 0.2
    test: float = 0.4
    seed: int = 0

    def __post_init__(self):
        for name in ("train", "val", "test"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} fraction must be positive")
        if self.train + self.val + self.test > 1.0 + 1e-9:
            raise ValueError("split fractions must sum to at most 1")


def load_profiles(path, grid: LevelGrid) -> ProfileSet:
    """Read a wide-format delimited profile file.

    The header must be T_1..T_n, p_1..p_n, tauc_1..tauc_n, optionally
    followed by L_0..L_n flux columns.  Schema or invariant violations
    raise SchemaError naming the offending row; rows are counted from 0
    over the non-blank lines after the header.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            lines = [line for line in fh if not line.isspace()]
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if not header:
        raise SchemaError(f"{path}: empty file")
    names = header.split(",")
    expected = grid.input_labels()
    with_flux = expected + grid.output_labels()
    if names not in (expected, with_flux):
        raise SchemaError(
            f"{path}: header mismatch, expected {len(expected)} or {len(with_flux)} "
            f"columns for n_full={grid.n_full}, got {len(names)}"
        )
    try:
        vals = (np.loadtxt(lines, delimiter=",", comments=None, ndmin=2) if lines
                else np.empty((0, len(names))))
        if vals.shape[1] != len(names):
            raise ValueError(f"expected {len(names)} values per row, got {vals.shape[1]}")
    except ValueError as exc:
        # Name the first bad row; numpy's message numbers rows inconsistently.
        for row_idx, line in enumerate(lines):
            parts = line.split(",")
            try:
                if len(parts) != len(names):
                    raise ValueError(f"expected {len(names)} values, got {len(parts)}")
                [float(x) for x in parts]
            except ValueError as bad:
                raise SchemaError(f"{path}: row {row_idx}: {bad}") from None
        raise SchemaError(f"{path}: {exc}") from None
    n = grid.n_full
    try:
        return ProfileSet(grid, vals[:, :3 * n], vals[:, 3 * n:] if names == with_flux else None)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def write_lines(path, lines) -> None:
    """Write each line of the iterable `lines`, plus a newline, to `path`.

    The lines go to a temporary file beside `path`, which is then moved
    onto it, so an interrupted write never leaves a partial file under
    the final name; an existing file stays untouched until the move.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_table(path, header, rows) -> None:
    """Write a comma-separated table: the `header` names, then one line per row.

    A float cell, numpy's float64 included, is written as repr(float(x)),
    which reads back as the same double; any other cell as str(x).  A cell
    holding a comma, a double quote or a line break raises ValueError.
    """
    def cell(x) -> str:
        text = repr(float(x)) if isinstance(x, float) else str(x)
        if any(c in text for c in ',"\n\r'):
            raise ValueError(f"table cell {text!r} holds a comma, a double quote or a line break")
        return text

    write_lines(path, itertools.chain([",".join(header)], (",".join(map(cell, row)) for row in rows)))


def save_profiles(path, data: ProfileSet) -> None:
    """Write a ProfileSet in the wide text format (exact float round trip).

    Rows are formatted as they are written, never as one whole-file string.
    """
    labels, table = data.grid.input_labels(), data.inputs
    if data.fluxes is not None:
        labels = labels + data.grid.output_labels()
        table = np.hstack([table, data.fluxes])
    rows = (",".join(map(repr, row.tolist())) for row in table)
    write_lines(path, itertools.chain([",".join(labels)], rows))


def split_shuffle(data: ProfileSet, spec: SplitSpec):
    """Shuffle deterministically and split into train/val/test sets.

    Train and validation sizes are round(fraction * N); the remainder,
    which must hold at least one profile, goes to test.
    """
    n = len(data)
    if n == 0:
        raise ValueError("cannot split an empty ProfileSet")
    order = rng.permutation(n, spec.seed)
    n_train = int(math.floor(spec.train * n + 0.5))
    n_val = int(math.floor(spec.val * n + 0.5))
    if n_train + n_val >= n:
        raise ValueError("split fractions leave no room for the test set")
    train = data.subset(order[:n_train])
    val = data.subset(order[n_train:n_train + n_val])
    test = data.subset(order[n_train + n_val:])
    return train, val, test


def flatten(data: ProfileSet, which: str = "inputs") -> DataMatrix:
    """A ProfileSet's samples-by-features matrix, labelled; its values are
    the set's own array, not a copy.

    Input columns are quantity-major: T_1..T_n, p_1..p_n, tauc_1..tauc_n
    (data.inputs).  Output columns are the half-level fluxes L_0..L_n
    (data.fluxes).
    """
    if which == "inputs":
        return DataMatrix(data.inputs, tuple(data.grid.input_labels()))
    if which == "outputs":
        if data.fluxes is None:
            raise ValueError("ProfileSet has no fluxes to flatten")
        return DataMatrix(data.fluxes, tuple(data.grid.output_labels()))
    raise ValueError(f"which must be 'inputs' or 'outputs', got {which!r}")


def surrogate_sigma_grid(n_full: int) -> np.ndarray:
    """Fixed full-level sigma grid used by the surrogate generator."""
    return ((np.arange(n_full) + 1.0) / n_full) ** SURROGATE_SIGMA_EXPONENT


def generate_surrogate(n: int, grid: LevelGrid, seed: int) -> ProfileSet:
    """Generate a deterministic surrogate ProfileSet for desk-scale runs.

    Temperature is a smooth baseline in sigma plus a per-profile offset
    and AR(1) level-correlated noise; pressure is sigma times a randomly
    drawn surface pressure; a fraction of profiles carries 1-3 contiguous
    cloud blocks with lognormal optical depth in the mid-to-low levels.
    """
    if n < 1:
        raise ValueError("profile count must be >= 1")
    nl = grid.n_full
    sigma = surrogate_sigma_grid(nl)
    t_base = SURROGATE_T_TOP + (SURROGATE_T_SURFACE - SURROGATE_T_TOP) * sigma
    lo = int(np.searchsorted(sigma, SURROGATE_CLOUD_SIGMA_LO))
    hi = max(int(np.searchsorted(sigma, SURROGATE_CLOUD_SIGMA_HI)), lo + 1)
    u = rng.uniforms(seed, (n, nl + 13))  # row k: profile k's draws
    phi = SURROGATE_AR1
    eps = ndtri(u[:, 1:nl + 1])
    noise = np.empty((n, nl))
    noise[:, 0] = eps[:, 0]
    for i in range(1, nl):
        noise[:, i] = phi * noise[:, i - 1] + math.sqrt(1 - phi * phi) * eps[:, i]
    inputs = np.zeros((n, 3 * nl))
    T, p, tau_c = np.hsplit(inputs, 3)
    T[:] = t_base + SURROGATE_T_OFFSET * ndtri(u[:, :1]) + SURROGATE_T_NOISE * noise
    p[:] = sigma * (SURROGATE_P0_MEAN + SURROGATE_P0_SPREAD * (2 * u[:, nl + 1:nl + 2] - 1))
    cloudy = u[:, nl + 2] < SURROGATE_CLOUD_FRACTION
    n_blocks = 1 + (u[:, nl + 3] * 3).astype(int)
    levels = np.arange(nl)
    for b in range(3):
        rows = cloudy & (n_blocks > b)
        start = lo + (u[rows, nl + 4 + 3 * b] * max(hi - lo, 1)).astype(int)
        stop = start + 1 + (u[rows, nl + 5 + 3 * b] * 4).astype(int)
        z = SURROGATE_CLOUD_LOGMEAN + SURROGATE_CLOUD_LOGSTD * ndtri(u[rows, nl + 6 + 3 * b])
        mag = np.array([math.exp(x) for x in z])  # np.exp is not shown to round as math.exp does
        tau_c[rows] += mag[:, None] * ((levels >= start[:, None]) & (levels < stop[:, None]))
    return ProfileSet(grid, inputs)
