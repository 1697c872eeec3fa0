"""Bitmask helpers.

Subsets of [n] and points of the n-cube are both encoded as integer
bitmasks (bit i = variable i, 0-based). Enumeration order is ascending
numeric mask everywhere a family of sets is walked, which fixes
iteration order for deterministic runs.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import EnumerationLimitError

MAX_BITS = 48  # masks stay well inside int64
ENUM_MAX_BITS = 20  # largest n whose 2**n points are enumerated into tables


class DistinctMasks:
    """Exact count of the distinct points of the n-cube added so far: a
    2**n bitmap when n <= ENUM_MAX_BITS, a set of masks above that."""

    def __init__(self, n: int):
        self._seen = np.zeros(1 << n, dtype=bool) if n <= ENUM_MAX_BITS else set()

    def add(self, masks: np.ndarray) -> None:
        if isinstance(self._seen, set):
            self._seen.update(masks.ravel().tolist())
        else:
            self._seen[masks] = True

    def add_one(self, mask: int) -> None:
        if isinstance(self._seen, set):
            self._seen.add(mask)
        else:
            self._seen[mask] = True

    def __len__(self) -> int:
        if isinstance(self._seen, set):
            return len(self._seen)
        return int(np.count_nonzero(self._seen))


def grow_array(column: np.ndarray, size: int) -> np.ndarray:
    """`column`, or a copy with room for `size` entries and at least twice
    the capacity."""
    if size <= column.size:
        return column
    grown = np.zeros(max(size, 2 * column.size), dtype=column.dtype)
    grown[: column.size] = column
    return grown


def popcount(masks):
    """Number of set bits; works on python ints and numpy arrays."""
    if isinstance(masks, (int, np.integer)):
        return int(masks).bit_count()
    return np.bitwise_count(np.asarray(masks, dtype=np.int64)).astype(np.int64)


def parity_sign(masks):
    """(-1)**popcount as an int array (+1 for even parity)."""
    return 1 - 2 * (popcount(masks) & 1)


def bits_of(mask: int) -> list[int]:
    """Sorted list of set bit positions."""
    out = []
    i = 0
    m = mask
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return out


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        if m >> i & 1:
            raise ValueError(f"repeated index {i}")
        m |= 1 << i
    return m


def submasks(mask: int) -> Iterator[int]:
    """All subsets of `mask`, ascending numeric order."""
    subs = [0]
    for i in bits_of(mask):
        subs += [s | (1 << i) for s in subs]
    return iter(sorted(subs))


def all_masks(n: int) -> np.ndarray:
    """Every point of the n-cube in ascending mask order; the one way the
    package enumerates a cube, so n <= ENUM_MAX_BITS bounds them all."""
    if n > ENUM_MAX_BITS:
        raise EnumerationLimitError(f"exact enumeration needs n <= {ENUM_MAX_BITS}, got {n}")
    return np.arange(1 << n, dtype=np.int64)


def mask_to_bitstring(mask: int, n: int) -> str:
    """Variable 0 first (leftmost)."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))

