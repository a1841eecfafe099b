"""Toy downwelling longwave radiation model.

Grey-atmosphere flux recursion on half levels: each layer absorbs a
fraction eps = 1 - exp(-D tau) of the incoming flux and re-emits its own
Planck flux, marching from a zero flux at the top of the atmosphere down
to the surface.  Layer optical depth combines the cloud optical depth
with a fixed total-column gas optical depth distributed by sigma mass
fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dataset import Profile, ProfileSet, strictly_increasing

STEFAN_BOLTZMANN = 5.670374419e-8  # W m^-2 K^-4


@dataclass(frozen=True)
class RadiationConstants:
    """Physical constants of the toy model; D and tau_g are overridable."""

    sigma_sb: ClassVar[float] = STEFAN_BOLTZMANN
    diffusivity: float = 1.66         # effective slant path factor, 1/cos(53 deg)
    gas_optical_depth: float = 1.7    # total-column gas optical depth

    def __post_init__(self):
        if self.diffusivity <= 0 or self.gas_optical_depth < 0:
            raise ValueError("radiation constants must be positive (tau_g >= 0)")


@dataclass(frozen=True)
class SigmaLayers:
    """Per-layer fraction of total column mass along the last axis; sums to 1."""

    delta_sigma: np.ndarray

    def __post_init__(self):
        ds = np.asarray(self.delta_sigma, dtype=float)
        object.__setattr__(self, "delta_sigma", ds)
        rows = np.flatnonzero(np.any(np.atleast_2d(ds) <= 0, axis=-1))
        if rows.size:
            raise ValueError(f"delta_sigma must be positive elementwise (row {rows[0]})")
        if np.any(np.abs(ds.sum(axis=-1) - 1.0) > 1e-9):
            raise ValueError("delta_sigma must sum to 1")


def half_level_pressures(p_full) -> np.ndarray:
    """Half-level pressures along the last axis: midpoints inside, 0 at the
    top, mirror at the surface."""
    p_full = np.asarray(p_full, dtype=float)
    if np.any(np.diff(p_full) <= 0):
        raise ValueError("full-level pressures must be strictly increasing")
    n = p_full.shape[-1]
    p_half = np.empty(p_full.shape[:-1] + (n + 1,))
    p_half[..., 0] = 0.0
    p_half[..., 1:n] = 0.5 * (p_full[..., :-1] + p_full[..., 1:])
    p_half[..., n] = p_full[..., -1] + (p_full[..., -1] - p_half[..., n - 1])
    # Full levels one ulp apart can collapse a midpoint onto its neighbour.
    return strictly_increasing(p_half)


def sigma_layers(p_half) -> SigmaLayers:
    """Layer mass fractions delta_sigma from half-level pressures (last axis)."""
    p_half = np.asarray(p_half, dtype=float)
    if np.any(p_half[..., 0] != 0.0):
        raise ValueError("top half-level pressure must be 0")
    if np.any(np.diff(p_half) <= 0):
        raise ValueError("half-level pressures must be strictly increasing")
    p0 = p_half[..., -1:]
    if np.any(p0 <= 0):
        raise ValueError("surface pressure must be positive")
    return SigmaLayers(np.diff(p_half / p0))


def layer_optical_depth(tau_c, delta_sigma, consts: RadiationConstants = RadiationConstants()) -> np.ndarray:
    """Per-layer optical depth tau = tau_c + tau_g * delta_sigma."""
    tau_c = np.asarray(tau_c, dtype=float)
    delta_sigma = np.asarray(delta_sigma, dtype=float)
    if np.any(tau_c < 0) or np.any(delta_sigma < 0):
        raise ValueError("optical depth inputs must be nonnegative")
    return tau_c + consts.gas_optical_depth * delta_sigma


def _downwelling(T, p, tau_c, consts: RadiationConstants) -> np.ndarray:
    """Downwelling flux of an (n, n_full) block of profiles, (n, n_full + 1).

    L[:, i] = L[:, i-1] * (1 - eps_i) + B_i * eps_i for layers i = 1..n_full,
    from L[:, 0] = 0, with B and eps constant within each layer; one step
    per layer over all rows at once.
    """
    eps = layer_optical_depth(tau_c, sigma_layers(half_level_pressures(p)).delta_sigma, consts)
    eps *= -consts.diffusivity
    np.negative(np.expm1(eps, out=eps), out=eps)  # eps = 1 - exp(-D tau)
    B = T ** 4
    B *= STEFAN_BOLTZMANN
    L = np.zeros((T.shape[0], T.shape[1] + 1))
    for i in range(T.shape[1]):
        L[:, i + 1] = L[:, i] * (1.0 - eps[:, i]) + B[:, i] * eps[:, i]
    return L


def downwelling_longwave(profile: Profile, consts: RadiationConstants = RadiationConstants()) -> np.ndarray:
    """Downwelling flux on half levels, L[0] = 0 at the top of the atmosphere."""
    return _downwelling(profile.T[None], profile.p[None], profile.tau_c[None], consts)[0]


def radiate_set(s: ProfileSet, consts: RadiationConstants = RadiationConstants()) -> ProfileSet:
    """Attach downwelling flux profiles to every profile in the set; the result holds `s.inputs` itself."""
    return s.with_fluxes(_downwelling(s.T, s.p, s.tau_c, consts))
