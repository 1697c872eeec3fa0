"""Distributions over the n-cube: uniform, bounded product, and explicit
table, with exact expectations (`exact_mean`) and local-smoothness
verification.

The uniform distribution is the product with every p_i = 1/2: it keeps
its per-bit parameters like any product, and only its sampler (one
`rng.integers` call) and its name are its own.

A distribution is locally alpha-smooth when flipping any single bit
changes the probability mass by a factor of at most alpha. The tightest
such alpha is computed in closed form for products and by a full
neighbor scan for tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._bits import (
    ENUM_MAX_BITS, PLUS_MINUS, ZERO_ONE, all_masks, bits_of, check_cube, check_limit, check_masks,
)
from .errors import ContractViolation, ZeroMassError

UNIFORM = "uniform"
PRODUCT = "product"
TABLE = "table"
_KINDS = (UNIFORM, PRODUCT, TABLE)

_MIN_TABLE_PROB = 1e-300  # below this, smoothness ratios silently underflow
_EDGE_PROB = 0.3  # chance that random_smooth_table couples a pair of bits
_BLOCK = 1 << 16  # uniforms per block of a product draw (512 KB), unless one row is longer


@dataclass(frozen=True, eq=False)
class Distribution:
    """Uniform, product, or explicit-table distribution.

    Product parameters, uniform's 1/2 among them, are stored as per-bit
    probabilities of bit 1, regardless of domain tag; `means` converts
    back to the domain's natural parameterization (p_i over {0,1}, mu_i
    over +-1). A table
    keeps its masses once, as `probs`: a private read-only float64 copy
    of what it was given. Distributions compare by identity.
    """

    kind: str
    n: int
    domain: str = PLUS_MINUS
    p_high: tuple[float, ...] | None = None   # uniform, product: Pr[bit_i = 1]
    probs: np.ndarray | None = None           # table: mass per mask

    def __post_init__(self):
        check_cube(self.n, self.domain)
        if self.kind not in _KINDS:
            raise ContractViolation(f"unknown distribution kind {self.kind!r}")
        if self.kind != TABLE:
            if self.p_high is None or len(self.p_high) != self.n:
                raise ContractViolation("product distribution needs n bit parameters")
            if any(not 0.0 < p < 1.0 for p in self.p_high):
                raise ContractViolation("product bit probabilities must lie in (0,1)")
            object.__setattr__(self, "p_high", tuple(float(p) for p in self.p_high))
        else:
            check_limit("table distribution", "n", self.n, ENUM_MAX_BITS)
            if self.probs is None or len(self.probs) != (1 << self.n):
                raise ContractViolation("table distribution needs 2**n probabilities")
            pr = np.array(self.probs, dtype=np.float64)  # a private copy
            if not np.all(np.isfinite(pr)):
                raise ContractViolation("table probabilities must be finite")
            if np.any(pr < 0):
                raise ContractViolation("negative probability in table")
            if np.any((pr > 0) & (pr < _MIN_TABLE_PROB)):
                raise ContractViolation(
                    f"table probabilities below {_MIN_TABLE_PROB} are rejected"
                )
            total = math.fsum(pr.tolist())
            if abs(total - 1.0) > 1e-12:
                raise ContractViolation(f"table probabilities sum to {total}, not 1")
            pr.flags.writeable = False
            object.__setattr__(self, "probs", pr)

    # ---------------------------------------------------------------- factories

    @classmethod
    def uniform(cls, n: int, domain: str = PLUS_MINUS) -> "Distribution":
        return cls(UNIFORM, n, domain, p_high=(0.5,) * n)

    @classmethod
    def product(cls, means, domain: str = PLUS_MINUS) -> "Distribution":
        """means are p_i in (0,1) over {0,1} or mu_i in (-1,1) over +-1."""
        means = [float(m) for m in means]
        if domain == ZERO_ONE:
            p_high = means
        else:
            if any(not -1.0 < m < 1.0 for m in means):
                raise ContractViolation("product means must lie in (-1, 1)")
            p_high = [(1.0 + m) / 2.0 for m in means]
        return cls(PRODUCT, len(means), domain, p_high=tuple(p_high))

    @classmethod
    def table(cls, probs, domain: str = PLUS_MINUS) -> "Distribution":
        size = len(probs)
        if size < 1 or size & (size - 1):
            raise ContractViolation("table length must be a power of two")
        return cls(TABLE, size.bit_length() - 1, domain, probs=probs)

    # ---------------------------------------------------------------- accessors

    @property
    def means(self) -> tuple[float, ...]:
        if self.kind == TABLE:
            raise ContractViolation("means only defined for uniform/product")
        if self.domain == ZERO_ONE:
            return self.p_high
        return tuple(2.0 * p - 1.0 for p in self.p_high)

    def point_prob(self, bits: int) -> float:
        bits = check_masks(bits, self.n, f"point outside the {self.n}-bit cube")
        if self.kind == TABLE:
            return float(self.probs[bits])
        acc = 1.0
        for i, p in enumerate(self.p_high):
            acc *= p if bits >> i & 1 else 1.0 - p
        return acc

    def probs_array(self) -> np.ndarray:
        """Exact mass at every point, indexed by mask. Needs n <= ENUM_MAX_BITS.
        A table returns its own read-only `probs`."""
        if self.kind == TABLE:
            return self.probs
        masks = all_masks(self.n)
        out = np.ones(masks.shape, dtype=np.float64)
        for i, p in enumerate(self.p_high):
            out *= np.where(masks >> i & 1, p, 1.0 - p)
        return out

    # ---------------------------------------------------------------- sampling

    @cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray]:
        """A table's CDF and its guide table (Chen & Asau 1974): guide[b]
        counts the CDF entries <= b / 2**n, so a draw u in bucket b, the
        interval [b, b + 1) / 2**n, lands between guide[b] and guide[b + 1].
        The edges b / 2**n are exact in floating point."""
        cdf = np.cumsum(self.probs)
        edges = np.arange(cdf.size + 1, dtype=np.float64) / cdf.size
        return cdf, np.searchsorted(cdf, edges, side="right").astype(np.int32)

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Masks drawn iid from the distribution, as int64.

        Uniform: one `rng.integers` call. Product: bit i of draw j is
        `rng.random() < p_i`, where the uniforms come bit by bit, `size` at a
        time; they are drawn as rows of one `rng.random((bits, size))` block
        (the same numbers, as the generator fills row by row), with at most
        2**16 uniforms (512 KB) to a block, or one row when a row is longer.
        Table: searchsorted(cdf, u, "right") for `size` uniforms u, which is
        2**n when u >= cdf[-1]; the guide table bounds each search to u's
        bucket, and a binary search over the widest bucket drawn finishes
        every draw's search in the same number of steps."""
        if self.kind == UNIFORM:
            return rng.integers(0, 1 << self.n, size=size, dtype=np.int64)
        if self.kind == PRODUCT:
            return self._product_sample(rng, size)
        cdf, guide = self._guide
        u = rng.random(size)
        bucket = (u * cdf.size).astype(np.intp)
        found, hi = guide[bucket], guide[bucket + 1]
        # found <= result <= hi; raise `found` by halving steps, never past hi
        for step in reversed(range(int((hi - found).max(initial=0)).bit_length())):
            probe = np.minimum(found + (1 << step), hi)
            found = np.where(cdf[probe - 1] <= u, probe, found)
        return found.astype(np.int64)

    def _product_sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = np.zeros(size, dtype=np.int64)
        p_high = np.asarray(self.p_high)[:, None]
        shifts = np.arange(self.n, dtype=np.int64)[:, None]
        rows = max(1, _BLOCK // max(size, 1))
        for lo in range(0, self.n, rows):
            block = rng.random((min(rows, self.n - lo), size))
            at = slice(lo, lo + rows)
            # each row's bits, shifted into place, overwrite the block
            bits = np.left_shift(block < p_high[at], shifts[at], out=block.view(np.int64))
            out |= np.bitwise_or.reduce(bits, axis=0)
        return out

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind, "n": self.n, "domain": self.domain}
        if self.kind == PRODUCT:
            obj["means"] = list(self.means)
        if self.kind == TABLE:
            obj["probs"] = self.probs.tolist()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Distribution":
        kind = obj["kind"]
        domain = obj.get("domain", PLUS_MINUS)
        if kind == UNIFORM:
            return cls.uniform(int(obj["n"]), domain)
        if kind == PRODUCT:
            return cls.product(obj["means"], domain)
        if kind == TABLE:
            return cls.table(obj["probs"], domain)
        raise ContractViolation(f"unknown distribution kind {kind!r}")


def verify_smoothness(dist: Distribution) -> float:
    """Tightest alpha* = max over Hamming-neighbor pairs of D(x)/D(x').

    Returns inf when a zero-mass point neighbors positive mass, which on
    the connected cube means whenever any point has zero mass. Products
    are computed in closed form; uniform gives exactly 1.
    """
    if dist.kind != TABLE:
        worst = 1.0
        for p in dist.p_high:
            worst = max(worst, p / (1.0 - p), (1.0 - p) / p)
        return worst
    pr = dist.probs_array()
    if not pr.all():
        # the cube is connected, so a zero-mass point borders positive mass
        return math.inf
    # each point's lightest neighbour; reversing the pairs of one axis of
    # the cube viewed as (high bits, bit i, low bits) maps x to x ^ (1 << i).
    # Division rounds monotonically, so D(x) over it is the largest ratio
    # at x, bit for bit.
    lightest = np.full(pr.size, math.inf)
    for i in range(dist.n):
        np.minimum(lightest, pr.reshape(-1, 2, 1 << i)[:, ::-1, :].reshape(-1), out=lightest)
    return max(1.0, float(np.max(pr / lightest)))


def exact_mean(dist: Distribution, values: np.ndarray) -> float:
    """E_D[values]: the fsum of D(x) * values[x] over every point x of the
    cube, `values` indexed by mask; a boolean array gives the probability
    of its event. Needs n <= ENUM_MAX_BITS."""
    values = np.asarray(values)
    if values.shape != (1 << dist.n,):
        raise ContractViolation(
            f"value array has shape {values.shape}, need ({1 << dist.n},) for n={dist.n}"
        )
    terms = dist.probs_array() * values
    # a zero term leaves the fsum as it is but costs as much as any other
    return math.fsum(terms[terms != 0].tolist())


def conditional_marginal(dist: Distribution, subset: int, assignment: int) -> Distribution:
    """The marginal over the complement of `subset` of the conditional
    distribution given x_S = assignment."""
    check_masks(subset, dist.n, f"subset outside the {dist.n}-bit cube")
    if assignment & ~subset:
        raise ContractViolation("assignment sets bits outside the subset")
    rest = [i for i in range(dist.n) if not subset >> i & 1]
    if not rest:
        raise ContractViolation("conditioning on every variable leaves nothing")
    if dist.kind != TABLE:
        return _product_on(dist, rest)
    masks = all_masks(dist.n)
    match = (masks & subset) == assignment
    mass = exact_mean(dist, match)
    if mass <= 0.0:
        raise ZeroMassError("conditioning event has zero probability")
    out = _sum_by_bits(masks[match], rest, dist.probs_array()[match]) / mass
    # renormalize exactly enough for the table constructor
    out = out / math.fsum(out.tolist())
    return Distribution.table(out, dist.domain)


def marginal(dist: Distribution, keep_subset: int) -> Distribution:
    """Marginal over the variables in keep_subset."""
    keep = bits_of(check_masks(keep_subset, dist.n, f"subset outside the {dist.n}-bit cube"))
    if not keep:
        raise ContractViolation("empty marginal")
    if dist.kind != TABLE:
        return _product_on(dist, keep)
    out = _sum_by_bits(all_masks(dist.n), keep, dist.probs_array())
    out = out / math.fsum(out.tolist())
    return Distribution.table(out, dist.domain)


def _product_on(dist: Distribution, positions: list[int]) -> Distribution:
    """A product's marginal on the variables at `positions`, of its kind:
    its coordinates are independent, so conditioning on the others
    changes nothing."""
    return Distribution(
        dist.kind, len(positions), dist.domain, p_high=tuple(dist.p_high[i] for i in positions)
    )


def _sum_by_bits(masks: np.ndarray, positions: list[int], mass: np.ndarray) -> np.ndarray:
    """Total mass per pattern of the bits at `positions` (bit j of the
    result index is bit positions[j] of the mask), summed in mask order."""
    compressed = np.zeros(masks.shape, dtype=np.int64)
    for j, pos in enumerate(positions):
        compressed |= ((masks >> pos) & 1) << j
    return np.bincount(compressed, weights=mass, minlength=1 << len(positions))


def random_smooth_table(
    n: int,
    alpha: float,
    rng: np.random.Generator,
    domain: str = ZERO_ONE,
) -> Distribution:
    """Random locally alpha-smooth table distribution.

    log D(x) is a random quadratic form over the bits, with the weights
    scaled so that every single-bit flip moves the log-mass by at most
    log(alpha). Produces genuinely non-product smooth distributions.
    """
    if not 1.0 <= alpha < math.inf:
        raise ContractViolation(f"alpha={alpha} must be finite and >= 1")
    masks = all_masks(n)
    w = rng.normal(size=n)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < _EDGE_PROB:
                edges.append((i, j, rng.normal()))
    # |w_k| + sum_j |w_kj| bounds the flip-k log ratio over {0,1} bits
    load = np.abs(w).copy()
    for i, j, wij in edges:
        load[i] += abs(wij)
        load[j] += abs(wij)
    max_load = float(np.max(load)) if n else 1.0
    log_alpha = math.log(alpha) * (1.0 - 1e-9)  # undershoot float rounding
    scale = 0.0 if max_load == 0.0 else log_alpha / max_load
    bit = [(masks >> i) & 1 for i in range(n)]
    logp = np.zeros(masks.shape, dtype=np.float64)
    for i in range(n):
        logp += scale * w[i] * bit[i]
    for i, j, wij in edges:
        logp += scale * wij * (bit[i] * bit[j])
    logp -= np.max(logp)
    probs = np.exp(logp)
    probs /= math.fsum(probs.tolist())
    probs /= math.fsum(probs.tolist())
    return Distribution.table(probs, domain)
