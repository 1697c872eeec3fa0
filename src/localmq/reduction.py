"""Correlation-preserving embedding of a function into a higher
dimensional cube via a distance-(2k+1) linear code, plus a simulator, a
local-MQ gateway (an OracleSession), that realizes examples and k-local
queries on the embedded function from random examples of the base
function alone.

The embedded function f_e equals f on codewords (message bits first,
parity appended) and is 0 everywhere else, where 0 is realized as a
persistent fair coin keyed by the point. Since codewords are 2k+1 apart,
no k-local query can connect two distinct codeword balls, which is what
makes the embedding simulable without membership queries.

Distances to the code come from syndrome decoding (MacWilliams & Sloane,
1977): each code keeps one table, indexed by syndrome, of coset leaders
(a lightest word of each coset), so the distance from a word to the code
and its nearest codeword cost one table read however many codewords
there are. The breadth-first walk that fills the table also gives the
code's minimum distance, so a code is built and checked without listing
its 2^n codewords; the table's 2^(m-n) entries and m <= MAX_BITS are the limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from ._bits import (
    ENUM_MAX_BITS, PLUS_MINUS, all_masks, check_limit, check_masks, check_width, popcount,
)
from ._prf import coin_pm
from .distributions import Distribution
from .errors import CodeConstructionError, ContractViolation, SimulationError
from .oracles import AUDIT_COUNTS, OracleSession

# Shortened systematic BCH generators (length, message bits, distance,
# generator polynomial with bit i = coefficient of x^i).
_BCH_TABLE = [
    (15, 7, 5, 0o721),
    (15, 5, 7, 0o2467),
    (31, 21, 5, 0o3551),
    (31, 16, 7, 0o107657),
    (63, 51, 5, 0o12471),
    (63, 45, 7, 0o1701317),
]


def _poly_mod(value: int, g: int) -> int:
    gd = g.bit_length() - 1
    while value.bit_length() - 1 >= gd and value:
        value ^= g << (value.bit_length() - 1 - gd)
    return value


def ball_size(m: int, k: int) -> int:
    """Points within Hamming distance k of a fixed m-bit point."""
    return sum(math.comb(m, i) for i in range(k + 1))


@dataclass(frozen=True)
class LinearCode:
    """Systematic binary linear code: message bits occupy positions
    0..n-1 of each codeword, parity the rest. Decoding reads a table of
    coset leaders indexed by the syndrome, the m - n parity bits of
    z ^ encode(message bits of z), which is 0 exactly on codewords; the
    table has 2^(m-n) entries, so m - n <= ENUM_MAX_BITS; m <= MAX_BITS.
    The walk that fills the table also gives the minimum distance, so no
    codeword is ever enumerated."""

    n: int
    m: int
    k: int
    rows: tuple[int, ...]  # generator row per message bit

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise ContractViolation("one generator row per message bit required")
        check_width(self.m, "m")
        check_limit("syndrome table", "m - n", self.m - self.n, ENUM_MAX_BITS)

    @property
    def distance(self) -> int:
        return self._coset_leaders[2]

    @cached_property
    def _coset_leaders(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(leader, weight) per syndrome, a lightest word with that
        syndrome and its weight (the distance from any such word to the
        code), and the code's minimum distance. Breadth-first from
        syndrome 0 over the unit vectors' syndromes, so each syndrome is
        first reached by a lightest word; one unit at a time, so memory
        stays within a few frontiers.

        A step s -> s' along a unit that reaches a syndrome already seen
        closes a cycle: leader(s) ^ unit ^ leader(s') is a codeword. The
        lightest nonzero one is a lightest nonzero codeword c. Adding the
        units of c one at a time walks syndromes 0 = s_0, ..., s_d = 0,
        and leader(s_j) weighs at most min(j, d - j), so each step's
        leader(s_(j-1)) ^ unit ^ leader(s_j) weighs at most d = weight(c).
        These words XOR to c, so one is nonzero; it is never a step that
        first reached s_j (there the word is 0), so the walk sees it. Its
        step starts from a leader of weight at most d/2, so cycles are
        read only from frontiers that light."""
        units = np.left_shift(1, np.arange(self.m, dtype=np.int64))
        leaders = np.full(1 << (self.m - self.n), -1, dtype=np.int64)
        leaders[0] = 0
        frontier = np.zeros(1, dtype=np.int64)
        distance = self.m  # kept only by a code without a nonzero codeword
        level = 0  # the weight of every leader in the frontier
        while frontier.size:
            grown = []
            for unit, syndrome in zip(units.tolist(), self._syndromes(units).tolist()):
                # x -> x ^ syndrome is one to one, so `reached` has no repeats
                reached = frontier ^ syndrome
                new = leaders[reached] < 0
                if 2 * level <= distance:
                    cycles = popcount(leaders[frontier[~new]] ^ unit ^ leaders[reached[~new]])
                    cycles = cycles[cycles > 0]
                    if cycles.size:
                        distance = min(distance, int(cycles.min()))
                leaders[reached[new]] = leaders[frontier[new]] ^ unit
                grown.append(reached[new])
            frontier = np.concatenate(grown)
            level += 1
        return leaders, popcount(leaders), distance

    def encode(self, message: int) -> int:
        message = check_masks(message, self.n, f"message outside [0, 2**{self.n})")
        out = 0
        for i, row in enumerate(self.rows):
            if message >> i & 1:
                out ^= row
        return out

    def encode_batch(self, messages: np.ndarray) -> np.ndarray:
        messages = np.asarray(messages, dtype=np.int64)
        out = np.zeros(messages.shape, dtype=np.int64)
        for i, row in enumerate(self.rows):
            out ^= row * ((messages >> i) & 1)
        return out

    def _syndromes(self, words) -> np.ndarray:
        """Parity bits of z ^ encode(message bits of z), shifted down to
        bit 0; 0 exactly on codewords, linear in z, refused off [0, 2**m)."""
        words = check_masks(np.asarray(words), self.m, f"word outside [0, 2**{self.m})")
        return (words ^ self.encode_batch(words & ((1 << self.n) - 1))) >> self.n

    def decode(self, word: int) -> int | None:
        """Message of the unique codeword within distance k, else None."""
        syndrome = int(self._syndromes(word))
        leaders, weights, _ = self._coset_leaders
        if weights[syndrome] > self.k:
            return None
        return (int(word) ^ int(leaders[syndrome])) & ((1 << self.n) - 1)

    def min_distance_batch(self, words: np.ndarray) -> np.ndarray:
        """Hamming distance from each word to the nearest codeword."""
        return self._coset_leaders[1][self._syndromes(words)]

    def pad(self, extra: int) -> "LinearCode":
        """Append `extra` constant-zero coordinates; distance unchanged."""
        return LinearCode(self.n, self.m + extra, self.k, self.rows)


def _hamming_rows(n: int) -> tuple[int, list[int]]:
    p = 1
    while (1 << p) < n + p + 1:
        p += 1
    data_cols = [v for v in range(1, 1 << p) if v & (v - 1)]  # weight >= 2
    rows = [(1 << i) | (data_cols[i] << n) for i in range(n)]
    return n + p, rows


def _bch_rows(n: int, k: int) -> tuple[int, list[int]]:
    for length, msg_bits, dist, g in _BCH_TABLE:
        if msg_bits >= n and dist >= 2 * k + 1:
            deg = g.bit_length() - 1
            rows = [
                (1 << i) | (_poly_mod((1 << i) << deg, g) << n) for i in range(n)
            ]
            return n + deg, rows
    raise CodeConstructionError(f"no BCH generator of distance {2 * k + 1} for n={n}")


def build_code(n: int, k: int) -> LinearCode:
    """Binary linear code with distance >= 2k+1 and length m <= n +
    k*ceil(log2 n) + 8: the identity code (k=0), shortened Hamming (k=1) or
    shortened BCH (k=2,3); every k fits for n <= 30. A code longer than
    MAX_BITS raises EnumerationLimitError. CodeConstructionError means no
    BCH generator covers n, or the code misses 2k+1 (the distance is read
    from the syndrome walk)."""
    if n < 1 or k < 0:
        raise ContractViolation("need n >= 1, k >= 0")
    if k > 3:
        raise ContractViolation("desk scale supports k <= 3")
    if k == 0:
        m, rows = n, [1 << i for i in range(n)]
    elif k == 1:
        m, rows = _hamming_rows(n)
    else:
        m, rows = _bch_rows(n, k)
    code = LinearCode(n, m, k, tuple(rows))
    if code.distance < 2 * k + 1:
        raise CodeConstructionError(
            f"code for n={n} has distance {code.distance} < {2 * k + 1}"
        )
    return code


@dataclass(frozen=True)
class EmbeddedFunction:
    """f_e over m bits: f on codewords, a persistent fair coin elsewhere."""

    base: object  # +-1 valued target over n bits
    code: LinearCode
    coin_seed: int = 0

    def __post_init__(self):
        if self.base.n != self.code.n:
            raise ContractViolation("target dimension != code message length")
        if getattr(self.base, "domain", PLUS_MINUS) != PLUS_MINUS:
            raise ContractViolation("embedding is defined for +-1 targets")

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def m(self) -> int:
        return self.code.m

    @property
    def beta(self) -> float:
        """Mass of Z, the union of radius-k balls around codewords."""
        return 2.0 ** (self.n - self.m) * ball_size(self.m, self.code.k)

    def value_batch(self, words: np.ndarray) -> np.ndarray:
        """Exact f_e values in {-1, 0, +1}. The code is systematic, so z is
        a codeword exactly when it encodes its own message bits."""
        words = np.asarray(words, dtype=np.int64)
        msgs = words & ((1 << self.n) - 1)
        on_code = self.code.encode_batch(msgs) == words
        out = np.zeros(words.shape, dtype=np.float64)
        out[on_code] = self.base.value_batch(msgs[on_code])
        return out

    def label_batch(self, words: np.ndarray) -> np.ndarray:
        words = np.asarray(words, dtype=np.int64)
        values = self.value_batch(words)
        return np.where(values != 0.0, values, coin_pm(self.coin_seed, words))


def embed(base, k: int, coin_seed: int = 0) -> EmbeddedFunction:
    """Build the code, pad until the rejection guard beta <= 2/3 holds
    (appending constant-zero coordinates), and wrap the target."""
    embedded = EmbeddedFunction(base, build_code(base.n, k), coin_seed)
    while k >= 1 and embedded.beta > 2.0 / 3.0:
        embedded = EmbeddedFunction(base, embedded.code.pad(1), coin_seed)
    return embedded


@dataclass(frozen=True)
class _Coin:
    """The persistent fair coin that labels f_e off its codewords."""

    n: int
    seed: int
    domain = PLUS_MINUS

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        return coin_pm(self.seed, masks)


class ReductionSimulator(OracleSession):
    """Simulates EX(f_e, U_m) and k-local MQ(f_e) from EX(f, U_n) alone,
    as a session over the m-bit cube with r = k whose target is f_e's coin.

    Example simulation follows the three-step recipe: with probability
    beta place a fresh base example at a uniform point of the radius-k
    ball around its codeword (coin label unless exactly on the
    codeword); otherwise rejection-sample the complement of Z through
    decode failures. A draw from the ball reveals its codeword's base
    label. The simulator keeps the revealed labels of the live examples
    by codeword, writes them into the label table once it exists, and
    forgets them on `release_anchors`; it labels a point by its revealed
    base label at a codeword and by the coin everywhere else, never from
    a base membership oracle. Codewords are 2k+1 apart, so a k-local
    query reaches a codeword only from an example in that codeword's
    ball, whose draw revealed it: every answer is f_e's.
    """

    def __init__(self, embedded: EmbeddedFunction, base_session: OracleSession, seed: int = 0):
        if base_session.n != embedded.n or base_session.domain != PLUS_MINUS:
            raise ContractViolation("base session does not match the embedding")
        m, k = embedded.m, embedded.code.k
        coin, dist = _Coin(m, embedded.coin_seed), Distribution.uniform(m, PLUS_MINUS)
        super().__init__(coin, dist, r=k, seed=seed, audit_mode=AUDIT_COUNTS)
        self._rng = np.random.default_rng([self.seed, 0xE4B])
        self.embedded = embedded
        self.base_session = base_session
        self.try_histogram: dict[int, int] = {}
        # the radius-k ball around 0, ascending
        ball = [sum(1 << j for j in c) for d in range(k + 1) for c in combinations(range(m), d)]
        self._ball = np.sort(np.asarray(ball, dtype=np.int64))
        self.release_anchors()

    def release_anchors(self) -> None:
        super().release_anchors()
        # the live examples' codewords, ascending, and their base labels
        self._revealed = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)

    def _evaluate(self, masks: np.ndarray) -> np.ndarray:
        """The revealed base label at a live example's codeword, the coin
        everywhere else."""
        labels = super()._evaluate(masks)
        words, base_labels = self._revealed
        if words.size:
            at = np.minimum(np.searchsorted(words, masks), words.size - 1)
            hit = words[at] == masks
            labels[hit] = base_labels[at[hit]]
        return labels

    def draw_batch(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if count < 1:
            raise ContractViolation("draw count must be positive")
        emb = self.embedded
        beta = emb.beta
        heads = self._rng.random(count) < beta
        n_heads = int(heads.sum())
        masks = np.zeros(count, dtype=np.int64)
        if n_heads:
            _, base_masks, base_labels = self.base_session.draw_batch(n_heads)
            words = emb.code.encode_batch(base_masks)
            known, first = np.unique(np.concatenate([self._revealed[0], words]), return_index=True)
            self._revealed = known, np.concatenate([self._revealed[1], base_labels])[first]
            if self._table is not None:
                self._table[words] = base_labels
            pats = self._ball[self._rng.integers(0, self._ball.size, size=n_heads)]
            masks[heads] = words ^ pats
        need = count - n_heads
        if need:
            got, have, rounds = [], 0, 0
            expected_tries = 1.0 / max(1.0 - beta, 1e-9)
            max_rounds = math.ceil(64 * expected_tries)
            while have < need:
                rounds += 1
                if rounds > max_rounds:
                    raise SimulationError(f"rejection sampling exceeded {max_rounds} rounds")
                batch = self._rng.integers(0, 1 << emb.m, size=need, dtype=np.int64)
                kept = batch[emb.code.min_distance_batch(batch) > emb.code.k][: need - have]
                if kept.size:
                    self.try_histogram[rounds] = self.try_histogram.get(rounds, 0) + kept.size
                got.append(kept)
                have += kept.size
            masks[~heads] = np.concatenate(got)
        labels = self._labels_for(masks)
        return self._keep(masks, labels), masks, labels


def correlation_check(g, embedded: EmbeddedFunction) -> tuple[float, float]:
    """Exact check of the correlation identity for f = embedded.base.

    Returns (E_{U_m}[f_e(z) g'(z)], 2^{n-m} E_{U_n}[f(x) g(x)]) where
    g'(z) applies g to the message bits of z. Both sides are enumerated,
    the left over all 2^m words, so m <= ENUM_MAX_BITS; fsum is correctly
    rounded, so the zero terms off the code leave it unchanged.
    """
    n, m = embedded.n, embedded.m
    check_limit("correlation check", "m", m, ENUM_MAX_BITS)
    z = all_masks(m)
    x = z[: 1 << n]
    gx = g.value_batch(x)
    lhs = math.fsum((embedded.value_batch(z) * gx[z & (x.size - 1)]).tolist()) / (1 << m)
    fx = embedded.base.value_batch(x)
    rhs = 2.0 ** (n - m) * math.fsum((fx * gx).tolist()) / (1 << n)
    return lhs, rhs


def reduction_report(embedded: EmbeddedFunction, sim: ReductionSimulator) -> dict:
    code = embedded.code
    return {
        "n": embedded.n,
        "m": embedded.m,
        "k": code.k,
        "distance": code.distance,
        "beta": embedded.beta,
        "ball_size": ball_size(embedded.m, code.k),
        "tries_histogram": dict(sorted(sim.try_histogram.items())),
        "base_ex_count": sim.base_session.ex_count,
        "base_mq_count": sim.base_session.mq_count,
        "simulated_ex_count": sim.ex_count,
        "simulated_mq_count": sim.mq_count,
    }
