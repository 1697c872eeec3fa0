"""Separation demonstrations built on a pseudorandom function family.

Two target families over {0,1}-style bits (encoded as the usual masks,
labels in +-1):

* The (n+1)-bit family hides a secret bit of s in the XOR of the two
  labels that differ only in the first coordinate: flipping one bit of a
  natural example reveals s_i for the partition block A_i containing the
  suffix. One-local queries therefore recover the whole secret, while
  examples alone look like coin flips.
* The n-bit primed family plants the secret at the weight-one points
  e^1..e^n, which sit at distance Omega(n) from typical samples: full
  membership queries read the secret directly, any o(n)-local budget
  cannot reach it.

The PRF is a keyed SHAKE-256 keystream read one bit per point (see
`localmq._prf.keystream_table`): each target hashes its key once, on
first use, into a packed table of 2**secret_n bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._bits import PLUS_MINUS, PRF_MAX_BITS, check_limit, check_masks, check_width
from ._prf import keystream_table
from .errors import ContractViolation

VARIANT_G = "g"
VARIANT_GPRIME = "gprime"


_REVERSED_BYTE = np.asarray([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.int64)


def _suffix_rank(mask, n: int):
    """Lexicographic rank of an n-bit string with variable 0 leftmost: its
    n bits in reverse order. A mask array gives an array of ranks."""
    rank = 0
    for k in range(0, n, 8):
        rank = rank << 8 | _REVERSED_BYTE[mask >> k & 255]
    return rank >> (-n % 8)


def partition_block(mask, n: int):
    """1-based block index: ranks split into n equal integer ranges; a
    mask array gives an array of blocks."""
    return (_suffix_rank(mask, n) * n >> n) + 1


@dataclass(frozen=True)
class PrfTarget:
    """Keyed-PRF-based target; variant 'g' lives on n+1 bits, 'gprime' on n."""

    secret_n: int
    secret: int
    variant: str = VARIANT_G
    key_seed: int = 0
    domain = PLUS_MINUS

    def __post_init__(self):
        if self.variant not in (VARIANT_G, VARIANT_GPRIME):
            raise ContractViolation(f"unknown variant {self.variant!r}")
        check_width(self.secret_n, "secret_n")
        check_limit("PRF keystream table", "secret_n", self.secret_n, PRF_MAX_BITS)
        check_masks(self.secret, self.secret_n, "secret out of range")

    @property
    def n(self) -> int:
        return self.secret_n + 1 if self.variant == VARIANT_G else self.secret_n

    @cached_property
    def _key(self) -> bytes:
        payload = (self.key_seed & (2**64 - 1)).to_bytes(8, "little")
        return payload + self.secret.to_bytes(4, "little")

    @cached_property
    def _table(self) -> np.ndarray:
        """The PRF bits of the 2**secret_n points of its domain, packed
        eight to a byte (2**secret_n / 8 bytes); built on first use."""
        return keystream_table(self._key, 1 << self.secret_n)

    def _prf(self, masks: np.ndarray) -> np.ndarray:
        """The PRF bit of each mask in [0, 2**secret_n)."""
        return (self._table[masks >> 3] >> (masks & 7)) & 1

    def _bits(self, masks) -> np.ndarray:
        """The target's {0,1} bit at each point mask."""
        masks = np.asarray(masks, dtype=np.int64).ravel()
        if self.variant == VARIANT_GPRIME:
            out = np.empty(masks.size, dtype=np.int64)
            planted = (masks != 0) & (masks & (masks - 1) == 0)  # e^1..e^n
            # e^i carries s_i; e^i - 1 has i - 1 ones
            index = np.bitwise_count(masks[planted] - 1).astype(np.int64)
            out[planted] = self.secret >> index & 1
            out[~planted] = self._prf(masks[~planted])
            return out
        suffix = masks >> 1
        shift = partition_block(suffix, self.secret_n) - 1
        return self._prf(suffix) ^ (masks & 1 & (self.secret >> shift))

    def value_at(self, bits: int) -> float:
        return float(self.value_batch(np.asarray([bits]))[0])

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        masks = check_masks(np.asarray(masks), self.n, f"point mask outside [0, 2**{self.n})")
        return (2.0 * self._bits(masks) - 1.0).reshape(masks.shape)


def learn_g_onelocal(session, budget: int) -> dict:
    """Recover the secret of a 'g' target with one 1-local query per
    natural example.

    Each example (x1 x_suffix, label) is paired with the query flipping
    the first bit; the XOR of the two {0,1} labels is s_i for the block
    of the suffix. Examples are drawn in blocks of at most n - 1 (never
    more than `budget` in all), each block's flips asked in one batch,
    until every block of the secret is seen; if some block is never hit
    the run reports a coverage failure (retryable, coupon-collector
    probability).
    """
    ns = session.n - 1
    seen: dict[int, int] = {}
    drawn = 0
    while drawn < budget and len(seen) < ns:
        count = min(ns, budget - drawn)
        idx, masks, labels = session.draw_batch(count)
        drawn += count
        others = session.local_query_matrix((masks ^ 1)[:, None], idx)[:, 0]
        blocks = partition_block(masks >> 1, ns)
        seen.update(zip(blocks.tolist(), (labels != others).astype(np.int64).tolist()))
    if len(seen) < ns:
        missing = [i for i in range(1, ns + 1) if i not in seen]
        return {"recovered": None, "covered": False, "missing_blocks": missing,
                "examples_used": session.ex_count}
    secret = 0
    for block, bit in seen.items():
        secret |= bit << (block - 1)
    return {
        "recovered": secret,
        "covered": True,
        "examples_used": session.ex_count,
        "queries_used": session.mq_count,
    }


def _rule_mistakes(masks: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """Mistakes of const+1, const-1, x0, !x0, x1, ...: x_i is right where bit i
    is set under a +1 label or clear under a -1 one; const+1 reads bit 0 of
    mask << 1 | 1, which is always set."""
    bits = ((masks[:, None] << 1 | 1) >> np.arange(n + 1)) & 1
    ups, downs = (labels == 1) @ bits, (labels == -1) @ bits  # set bits under each label
    right = np.stack([ups + downs[0] - downs, downs + ups[0] - ups], axis=1)
    return masks.size - right.ravel()


def pac_baseline(session, train: int, test: int, r_probe: int = 0, rng_seed: int = 0) -> dict:
    """Best-of-simple-hypotheses baseline trained on examples alone.

    Candidates: the two constants and every literal x_i / not-x_i. If
    r_probe > 0 the training set is augmented with random r_probe-flip
    local queries (which, against a pseudorandom target, help nothing).
    Reports the held-out error of the training winner.
    """
    if not 0 <= r_probe <= session.n:
        raise ContractViolation(f"r_probe={r_probe} outside [0, n={session.n}]")
    if rng_seed < 0:
        raise ContractViolation(f"rng_seed {rng_seed} must be >= 0")
    rng = np.random.default_rng([rng_seed, 0xBA5E])
    _, masks, labels = session.draw_batch(train)
    if r_probe > 0:
        idxs, amasks, _ = session.draw_batch(train)
        # r_probe distinct coordinates per example: the first columns of a
        # random permutation of 0..n-1 in each row
        flips = np.argsort(rng.random((train, session.n)), axis=1)[:, :r_probe]
        probes = amasks ^ np.bitwise_or.reduce(1 << flips, axis=1)
        answers = session.local_query_matrix(probes[:, None], idxs)[:, 0]
        masks = np.concatenate([masks, probes])
        labels = np.concatenate([labels, answers])

    # the first candidate of least training error wins
    mistakes = _rule_mistakes(masks, labels, session.n)
    best = int(np.argmin(mistakes))
    _, te_masks, te_labels = session.draw_batch(test)
    names = ["const+1", "const-1"] + [f"{neg}x{i}" for i in range(session.n) for neg in ("", "!")]
    return {
        "winner": names[best],
        "train_error": float(mistakes[best] / masks.size),
        "holdout_error": float(_rule_mistakes(te_masks, te_labels, session.n)[best] / test),
        "train_size": masks.size,
        "test_size": test,
    }


def prf_quality(target: PrfTarget, samples: int = 100_000) -> dict:
    """Monobit and lag-one serial-correlation gate for the PRF bit, read
    over the PRF's own domain: the n-bit suffixes for 'g' and every point
    for 'gprime' (the target bits of 'g' come in pairs that carry the
    secret, and a secret-0 pair is two copies of one PRF bit)."""
    if samples < 1:
        raise ContractViolation(f"samples={samples} must be >= 1")
    limit = min(samples, 1 << target.secret_n)
    bits = target._prf(np.arange(limit)).astype(np.float64)
    mean = float(bits.mean())
    x = bits - mean
    denom = float(np.sum(x * x))
    serial = float(np.sum(x[:-1] * x[1:]) / denom) if denom > 0 else 0.0
    sigma = 0.5 / math.sqrt(limit)
    return {
        "samples": int(limit),
        "bit_mean": mean,
        "monobit_pass": abs(mean - 0.5) < 4 * sigma,
        "serial_correlation": serial,
        "serial_pass": abs(serial) < 4.5 / math.sqrt(limit),
    }
