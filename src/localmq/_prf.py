"""Keyed pseudorandom functions.

Two constructions:

* ``keyed_u64`` / ``coin_pm`` / ``bernoulli``: a splitmix64-style integer
  avalanche keyed by an integer seed. Stateless and numpy-vectorizable,
  used for persistent label noise and for the fair coins of the embedded
  function. Persistence is free: the value at a point never changes
  within a key.
* ``crypto_bit``: a keyed blake2b truncated to one bit, used where the
  construction is meant to stand in for a proper pseudorandom function
  family (the separation targets).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_U = np.uint64
_C1 = _U(0x9E3779B97F4A7C15)
_C2 = _U(0xBF58476D1CE4E5B9)
_C3 = _U(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z + _C1) & _U(0xFFFFFFFFFFFFFFFF)
    z = ((z ^ (z >> _U(30))) * _C2) & _U(0xFFFFFFFFFFFFFFFF)
    z = ((z ^ (z >> _U(27))) * _C3) & _U(0xFFFFFFFFFFFFFFFF)
    return z ^ (z >> _U(31))


def keyed_u64(key: int, masks) -> np.ndarray:
    """64-bit PRF values for integer point masks under an integer key."""
    with np.errstate(over="ignore"):
        m = np.asarray(masks).astype(np.uint64)
        k = _mix(np.asarray(key & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64))
        return _mix(m ^ k)


def coin_pm(key: int, masks) -> np.ndarray:
    """Persistent fair +-1 coin per point."""
    return (1 - 2 * (keyed_u64(key, masks) & _U(1)).astype(np.int64)).astype(
        np.float64
    )


def bernoulli(key: int, masks, p: float) -> np.ndarray:
    """Persistent Bernoulli(p) indicator per point."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    thresh = min(int(p * 2.0**64), 2**64 - 1)
    return keyed_u64(key, masks) < _U(thresh)


@lru_cache(maxsize=256)
def _keyed_blake2b(key: bytes):
    """A blake2b state that has absorbed the key block; copies of it hash
    points without keying again."""
    return hashlib.blake2b(key=key[:64], digest_size=8)


def crypto_bit(key: bytes, mask: int) -> int:
    """One output bit of a keyed cryptographic hash."""
    h = _keyed_blake2b(key).copy()
    h.update(mask.to_bytes(8, "little"))
    return h.digest()[0] & 1
