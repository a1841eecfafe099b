"""Deterministic random streams shared by every stochastic operation.

All randomness in the package flows through a counter-based 64-bit Philox
generator.  Uniform draws come straight from the bit stream and normal
deviates are produced by inverse-CDF transform of uniforms, so the number
of draws consumed by an operation is a fixed function of its arguments.
Seeds for nested experiment stages are derived by hashing the master seed
together with stage labels, which keeps per-case streams independent.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import ndtri

# Uniforms are kept strictly inside (0, 1) before any inverse-CDF mapping.
_UNIT_LO = 1e-12
_UNIT_HI = 1.0 - 1e-12


def stream(seed: int) -> np.random.Generator:
    """Return a fresh Philox-backed generator for the given seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))


def uniforms(seed: int, shape) -> np.ndarray:
    """Uniform draws on the open interval (0, 1), filling `shape` in C order from the seed's stream."""
    u = stream(seed).random(shape)
    return np.clip(u, _UNIT_LO, _UNIT_HI, out=u)


def normals(seed: int, shape) -> np.ndarray:
    """Standard normal draws via inverse CDF (fixed draw count, no rejection)."""
    u = uniforms(seed, shape)
    return ndtri(u, out=u)


def permutation(n: int, seed_or_gen) -> np.ndarray:
    """Fisher-Yates shuffle of range(n) driven by uniform draws.

    Step i = n-1, ..., 1 swaps position i with floor(u * (i + 1)), u the
    (n-1-i)-th uniform.  The swap targets are computed in one vector
    operation; the swaps run on a Python list, which is faster than
    indexing numpy scalars.
    """
    gen = seed_or_gen if isinstance(seed_or_gen, np.random.Generator) else stream(seed_or_gen)
    u = gen.random(max(n - 1, 0))
    targets = (u * np.arange(n, 1, -1)).astype(np.int64).tolist()
    idx = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), targets):
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx, dtype=np.int_)


def derive_seed(master_seed: int, *labels: object) -> int:
    """Hash (master seed, labels...) into an independent 64-bit child seed."""
    tag = "|".join([str(int(master_seed))] + [str(lab) for lab in labels])
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
