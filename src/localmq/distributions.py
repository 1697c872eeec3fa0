"""Distributions over the n-cube: uniform, bounded product, and explicit
table, with exact probability computations and local-smoothness
verification.

A distribution is locally alpha-smooth when flipping any single bit
changes the probability mass by a factor of at most alpha. The tightest
such alpha is computed in closed form for uniform and product variants
and by a full neighbor scan for tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._bits import ENUM_MAX_BITS, all_masks, bits_of
from .errors import ContractViolation, EnumerationLimitError, ZeroMassError
from .targets import PLUS_MINUS, ZERO_ONE, _check_domain

UNIFORM = "uniform"
PRODUCT = "product"
TABLE = "table"

_MIN_TABLE_PROB = 1e-300  # below this, smoothness ratios silently underflow


@dataclass(frozen=True)
class Distribution:
    """Uniform, product, or explicit-table distribution.

    Product parameters are stored as per-bit probabilities of bit 1,
    regardless of domain tag; `means` converts back to the domain's
    natural parameterization (p_i over {0,1}, mu_i over +-1). A table
    keeps its masses once as a read-only float64 array (`probs_array`),
    and `probs` is the same masses as a tuple of floats.
    """

    kind: str
    n: int
    domain: str = PLUS_MINUS
    p_high: tuple[float, ...] | None = None   # product: Pr[bit_i = 1]
    probs: tuple[float, ...] | None = None    # table: mass per mask

    def __post_init__(self):
        _check_domain(self.domain)
        if self.kind not in (UNIFORM, PRODUCT, TABLE):
            raise ContractViolation(f"unknown distribution kind {self.kind!r}")
        if self.n < 1:
            raise ContractViolation("dimension must be positive")
        if self.kind == PRODUCT:
            if self.p_high is None or len(self.p_high) != self.n:
                raise ContractViolation("product distribution needs n bit parameters")
            if any(not 0.0 < p < 1.0 for p in self.p_high):
                raise ContractViolation("product bit probabilities must lie in (0,1)")
            object.__setattr__(self, "p_high", tuple(float(p) for p in self.p_high))
        if self.kind == TABLE:
            if self.n > ENUM_MAX_BITS:
                raise EnumerationLimitError(
                    f"table distribution needs n <= {ENUM_MAX_BITS}, got {self.n}"
                )
            if self.probs is None or len(self.probs) != (1 << self.n):
                raise ContractViolation("table distribution needs 2**n probabilities")
            pr = np.array(self.probs, dtype=np.float64)  # a private copy
            if np.any(pr < 0):
                raise ContractViolation("negative probability in table")
            if np.any((pr > 0) & (pr < _MIN_TABLE_PROB)):
                raise ContractViolation(
                    f"table probabilities below {_MIN_TABLE_PROB} are rejected"
                )
            masses = pr.tolist()
            total = math.fsum(masses)
            if abs(total - 1.0) > 1e-12:
                raise ContractViolation(f"table probabilities sum to {total}, not 1")
            pr.flags.writeable = False
            object.__setattr__(self, "_masses", pr)
            object.__setattr__(self, "probs", tuple(masses))

    # ---------------------------------------------------------------- factories

    @classmethod
    def uniform(cls, n: int, domain: str = PLUS_MINUS) -> "Distribution":
        return cls(UNIFORM, n, domain)

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
        if self.kind == UNIFORM:
            half = 0.5 if self.domain == ZERO_ONE else 0.0
            return tuple(half for _ in range(self.n))
        if self.kind != PRODUCT:
            raise ContractViolation("means only defined for uniform/product")
        if self.domain == ZERO_ONE:
            return self.p_high
        return tuple(2.0 * p - 1.0 for p in self.p_high)

    def point_prob(self, bits: int) -> float:
        if self.kind == UNIFORM:
            return 0.5**self.n
        if self.kind == PRODUCT:
            acc = 1.0
            for i, p in enumerate(self.p_high):
                acc *= p if bits >> i & 1 else 1.0 - p
            return acc
        return self.probs[bits]

    def probs_array(self) -> np.ndarray:
        """Exact mass at every point, indexed by mask. Needs n <= ENUM_MAX_BITS.
        A table returns its own read-only array."""
        if self.kind == TABLE:
            return self._masses
        masks = all_masks(self.n)
        if self.kind == UNIFORM:
            return np.full(masks.shape, 0.5**self.n)
        out = np.ones(masks.shape, dtype=np.float64)
        for i, p in enumerate(self.p_high):
            out *= np.where(masks >> i & 1, p, 1.0 - p)
        return out

    # ---------------------------------------------------------------- sampling

    @cached_property
    def _cdf(self) -> np.ndarray:
        return np.cumsum(self._masses)

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Masks drawn iid from the distribution."""
        if self.kind == UNIFORM:
            return rng.integers(0, 1 << self.n, size=size, dtype=np.int64)
        if self.kind == PRODUCT:
            out = np.zeros(size, dtype=np.int64)
            for i, p in enumerate(self.p_high):
                out |= (rng.random(size) < p).astype(np.int64) << i
            return out
        return np.searchsorted(self._cdf, rng.random(size), side="right").astype(
            np.int64
        )

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind, "n": self.n, "domain": self.domain}
        if self.kind == PRODUCT:
            obj["means"] = list(self.means)
        if self.kind == TABLE:
            obj["probs"] = list(self.probs)
        return obj

    @classmethod
    def from_json(cls, obj: dict | str) -> "Distribution":
        if isinstance(obj, str):
            obj = json.loads(obj)
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
    the connected cube means whenever any point has zero mass. Uniform
    distributions give exactly 1; products are computed in closed form.
    """
    if dist.kind == UNIFORM:
        return 1.0
    if dist.kind == PRODUCT:
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


def exact_event_prob_masked(dist: Distribution, hold: np.ndarray) -> float:
    """Sum of D(x) over the points x where `hold`, a boolean array indexed
    by mask, is true; fsum-compensated. Needs n <= ENUM_MAX_BITS."""
    hold = np.asarray(hold, dtype=bool)
    if hold.shape != (1 << dist.n,):
        raise ContractViolation(
            f"event array has shape {hold.shape}, need ({1 << dist.n},) for n={dist.n}"
        )
    return math.fsum(dist.probs_array()[hold].tolist())


def conditional_marginal(dist: Distribution, subset: int, assignment: int) -> Distribution:
    """The marginal over the complement of `subset` of the conditional
    distribution given x_S = assignment."""
    if assignment & ~subset:
        raise ContractViolation("assignment sets bits outside the subset")
    rest = [i for i in range(dist.n) if not subset >> i & 1]
    if not rest:
        raise ContractViolation("conditioning on every variable leaves nothing")
    if dist.kind == UNIFORM:
        return Distribution.uniform(len(rest), dist.domain)
    if dist.kind == PRODUCT:
        return Distribution(
            PRODUCT,
            len(rest),
            dist.domain,
            p_high=tuple(dist.p_high[i] for i in rest),
        )
    masks = all_masks(dist.n)
    pr = dist.probs_array()
    match = (masks & subset) == assignment
    mass = math.fsum(pr[match].tolist())
    if mass <= 0.0:
        raise ZeroMassError("conditioning event has zero probability")
    out = _sum_by_bits(masks[match], rest, pr[match]) / mass
    # renormalize exactly enough for the table constructor
    out = out / math.fsum(out.tolist())
    return Distribution.table(out, dist.domain)


def marginal(dist: Distribution, keep_subset: int) -> Distribution:
    """Marginal over the variables in keep_subset."""
    keep = bits_of(keep_subset)
    if not keep:
        raise ContractViolation("empty marginal")
    if dist.kind == UNIFORM:
        return Distribution.uniform(len(keep), dist.domain)
    if dist.kind == PRODUCT:
        return Distribution(
            PRODUCT, len(keep), dist.domain,
            p_high=tuple(dist.p_high[i] for i in keep),
        )
    out = _sum_by_bits(all_masks(dist.n), keep, dist.probs_array())
    out = out / math.fsum(out.tolist())
    return Distribution.table(out, dist.domain)


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
    edge_prob: float = 0.3,
) -> Distribution:
    """Random locally alpha-smooth table distribution.

    log D(x) is a random quadratic form over the bits, with the weights
    scaled so that every single-bit flip moves the log-mass by at most
    log(alpha). Produces genuinely non-product smooth distributions.
    """
    if alpha < 1.0:
        raise ContractViolation("alpha must be >= 1")
    masks = all_masks(n)
    w = rng.normal(size=n)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
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
