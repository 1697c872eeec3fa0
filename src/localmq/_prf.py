"""Keyed pseudorandom functions.

Two constructions:

* ``keyed_u64`` / ``coin_pm`` / ``bernoulli``: a splitmix64-style integer
  avalanche keyed by an integer seed. Stateless and numpy-vectorizable,
  used for persistent label noise and for the fair coins of the embedded
  function. Persistence is free: the value at a point never changes
  within a key.
* ``keystream_table``: the first bytes of SHAKE-256 over a fixed domain
  label and a byte key, one bit per point of a small domain, packed eight
  to a byte. It stands in for a proper pseudorandom function family (the
  separation targets): one hash per key makes the whole truth table, and
  a point's bit is one array read. The table of a 2**k-point domain
  holds 2**k / 8 bytes (at least one).
"""

from __future__ import annotations

import hashlib

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


_KEYSTREAM_LABEL = b"localmq.prf.keystream\x00"


def keystream_table(key: bytes, points: int) -> np.ndarray:
    """The PRF bits of points 0..points-1 under `key`, packed little-endian
    (bit m is bit m % 8 of byte m // 8): the first ceil(points / 8) bytes of
    SHAKE-256 over the domain label and the key. Read-only."""
    digest = hashlib.shake_256(_KEYSTREAM_LABEL + key).digest(-(-points // 8))
    return np.frombuffer(digest, dtype=np.uint8)
