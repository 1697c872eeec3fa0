"""Bitmask helpers.

Subsets of [n] and points of the n-cube are both encoded as integer
bitmasks (bit i = variable i, 0-based). Enumeration order is ascending
numeric mask everywhere a family of sets is walked, which fixes
iteration order for deterministic runs.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

from .errors import ContractViolation, EnumerationLimitError

# Every size limit, stated once; `check_limit` refuses a value above one.
MAX_BITS = 48  # width of any point mask: targets, distributions, code length m
ENUM_MAX_BITS = 20  # any table of 2**n entries (2**(m - n) for a syndrome table)
PRF_MAX_BITS = 24  # secret_n of a PRF keystream table (2**24 / 8 bytes = 2 MB)
TRANSFORM_MAX_BITS = 14  # VerifierOracle.direct_transform: 2**n sums of 2**n terms
QP_MAX_FEATURES = 10  # VerifierOracle.exact_l1_least_squares: 3**k sign patterns

# Domain tags: stored bit b encodes {0,1} or {-1,+1}; b=1 is the high value (1 or +1).
ZERO_ONE = "zero_one"
PLUS_MINUS = "plus_minus"


def check_limit(what: str, name: str, value: int, limit: int) -> None:
    """Refuse `value` above `limit`: the package's one size-limit check."""
    if value > limit:
        raise EnumerationLimitError(f"{what} needs {name} <= {limit}, got {value}")


def check_masks(masks, n: int, message: str):
    """`masks` as an int or an int64 array when every entry lies in [0, 2**n);
    otherwise, a value beyond int64 included, ContractViolation(message)."""
    if isinstance(masks, (int, np.integer)):
        if masks < 0 or int(masks) >> n:
            raise ContractViolation(message)
        return int(masks)
    try:
        masks = np.asarray(masks, dtype=np.int64)
    except OverflowError:
        raise ContractViolation(message) from None
    if masks.size and (masks.min() < 0 or masks.max() >> n):
        raise ContractViolation(message)
    return masks


def check_width(n: int, name: str = "n") -> None:
    """A cube dimension must be positive and fit in a point mask."""
    if n < 1:
        raise ContractViolation(f"{name}={n} is not a positive dimension")
    check_limit("point mask", name, n, MAX_BITS)


def check_cube(n: int, domain: str) -> None:
    """A cube of n bits under a known domain tag."""
    if domain not in (ZERO_ONE, PLUS_MINUS):
        raise ContractViolation(f"unknown domain tag {domain!r}")
    check_width(n)


class DistinctMasks:
    """Exact count of the distinct points of the n-cube added so far: a
    2**n bitmap when n <= ENUM_MAX_BITS, a set of masks above that.

    A batch into a bitmap with every point marked writes nothing. Whether
    it is full is read again after each 2**n points added, which costs
    one bitmap read per point added."""

    def __init__(self, n: int):
        self._seen = np.zeros(1 << n, dtype=bool) if n <= ENUM_MAX_BITS else set()
        self._full = False
        self._unread = 0  # points added since the bitmap was last read for fullness

    def add(self, masks: np.ndarray) -> None:
        if isinstance(self._seen, set):
            self._seen.update(masks.ravel().tolist())
        elif not self._full:
            self._seen[masks] = True
            self._unread += masks.size
            if self._unread >= self._seen.size:
                self._full, self._unread = bool(self._seen.all()), 0

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
    check_limit("exact enumeration", "n", n, ENUM_MAX_BITS)
    return np.arange(1 << n, dtype=np.int64)


@functools.cache
def _assignment_bits(k: int) -> np.ndarray:
    """Row a holds bit j of a in column j, for the 2**k assignments of k
    bits; read-only, built on first use."""
    bits = (np.arange(1 << k, dtype=np.int64)[:, None] >> np.arange(k)) & 1
    bits.flags.writeable = False
    return bits


def flip_patterns(subset: int) -> np.ndarray:
    """The 2**|S| assignments a of the bits of `subset`, in ascending a:
    pattern a puts bit j of a on the j-th lowest bit of S."""
    weights = np.array([1 << pos for pos in bits_of(subset)], dtype=np.int64)
    return _assignment_bits(weights.size) @ weights


def mask_to_bitstring(mask: int, n: int) -> str:
    """Variable 0 first (leftmost)."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))

