"""The EX/MQ gateway.

An OracleSession is the only path from a learner to target labels. It
hands out natural examples drawn from the distribution, answers
membership queries that stay within Hamming distance r of a previously
drawn example, applies optional persistent label noise, and keeps an
audit trail (full per-call records, or counters only for large runs).

The caller names the anchor example for every query, which makes the
locality check O(n) per query; every algorithm here derives its queries
from one specific natural example, so the anchor is always known.

Distinct-query counting is exact: a 2**n boolean bitmap when
n <= ENUM_MAX_BITS (20), a set of masks above that. Labels come from the
target (times the noise) point by point until the session has labelled
2**n points in all, examples and queries together; on a cube that small
it then labels the whole cube once into a table and reads every later
label from it. The table holds the same values the point-by-point path
returns, so labels and random streams do not depend on when it is built,
and a session that labels fewer than 2**n points never builds it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import IO

import numpy as np

from ._bits import ENUM_MAX_BITS, mask_to_bitstring, popcount
from .errors import ContractViolation, LocalityError
from .targets import Point, TargetFunction
from .distributions import Distribution

AUDIT_FULL = "full"
AUDIT_COUNTS = "counts"


@dataclass
class AuditSummary:
    ex_count: int
    mq_count: int
    max_locality_used: int
    distinct_mq_points: int | None
    violations: int

    def to_json(self) -> dict:
        return asdict(self)


class OracleSession:
    """Stateful gateway enforcing the r-locality contract.

    Natural examples are stored in growing arrays and named by their
    draw index, which every query passes as its anchor. Labels are
    deterministic functions of the query point within one session
    (persistent noise), so repeated queries agree.
    """

    def __init__(
        self,
        target: TargetFunction,
        dist: Distribution,
        r: int,
        seed: int = 0,
        noise=None,
        audit_mode: str = AUDIT_FULL,
        track_distinct: bool = True,
    ):
        if r < 0:
            raise ContractViolation("locality r must be nonnegative")
        if dist.n != target.n or dist.domain != target.domain:
            raise ContractViolation("distribution does not match target dimension/domain")
        if audit_mode not in (AUDIT_FULL, AUDIT_COUNTS):
            raise ContractViolation(f"unknown audit mode {audit_mode!r}")
        self._target = target
        self.dist = dist
        self.r = int(r)
        self.n = target.n
        self.domain = target.domain
        self.noise = noise
        self.seed = int(seed)
        self._rng = np.random.default_rng([int(seed) & 0x7FFFFFFF, 0x0AC1E])
        self.audit_mode = audit_mode
        self.records: list[dict] = []
        self._masks = np.zeros(256, dtype=np.int64)
        self._labels = np.zeros(256, dtype=np.float64)
        self.ex_count = 0
        self.mq_count = 0
        self.max_locality_used = 0
        self.violations = 0
        self._enumerable = self.n <= ENUM_MAX_BITS
        self._distinct: np.ndarray | set[int] | None = None
        if track_distinct:
            self._distinct = np.zeros(1 << self.n, dtype=bool) if self._enumerable else set()
        self._labelled = 0
        self._table: np.ndarray | None = None
        self._seq = 0

    # ------------------------------------------------------------- labels

    def _labels_for(self, masks: np.ndarray) -> np.ndarray:
        if self._table is None:
            self._labelled += masks.size
            if not (self._enumerable and self._labelled >= 1 << self.n):
                return self._evaluate(masks)
            self._table = self._evaluate(np.arange(1 << self.n, dtype=np.int64))
        return self._table[masks]

    def _evaluate(self, masks: np.ndarray) -> np.ndarray:
        clean = self._target.value_batch(masks)
        if self.noise is not None:
            clean = clean * self.noise.zeta_batch(masks)
        return clean

    def _mark_distinct(self, masks: np.ndarray) -> None:
        if isinstance(self._distinct, np.ndarray):
            self._distinct[masks] = True
        elif self._distinct is not None:
            self._distinct.update(masks.tolist())

    # ------------------------------------------------------------- examples

    def _reserve(self, count: int) -> None:
        need = self.ex_count + count
        if need > self._masks.size:
            cap = max(need, 2 * self._masks.size)
            grown_m = np.zeros(cap, dtype=np.int64)
            grown_m[: self.ex_count] = self._masks[: self.ex_count]
            grown_l = np.zeros(cap, dtype=np.float64)
            grown_l[: self.ex_count] = self._labels[: self.ex_count]
            self._masks, self._labels = grown_m, grown_l

    def draw_batch(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw `count` natural examples; returns (indices, masks, labels)."""
        if count < 1:
            raise ContractViolation("draw count must be positive")
        masks = self.dist.sample_batch(self._rng, count)
        labels = self._labels_for(masks)
        self._reserve(count)
        lo = self.ex_count
        self._masks[lo : lo + count] = masks
        self._labels[lo : lo + count] = labels
        self.ex_count += count
        if self.audit_mode == AUDIT_FULL:
            for m, y in zip(masks.tolist(), labels.tolist()):
                self._record("ex", m, None, 0, y)
        else:
            self._seq += count
        return np.arange(lo, lo + count), masks, labels

    def draw_example(self) -> tuple[Point, float]:
        idx, masks, labels = self.draw_batch(1)
        return Point(self.n, int(masks[0]), self.domain), float(labels[0])

    def anchor_masks(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.ex_count):
            raise ContractViolation("anchor index out of range")
        return self._masks[indices]

    # ------------------------------------------------------------- queries

    def local_query(self, query: Point, anchor: int) -> float:
        """Answer one r-local membership query anchored at a drawn example."""
        if query.n != self.n or query.domain != self.domain:
            raise ContractViolation("query point does not match session dimension/domain")
        if not 0 <= anchor < self.ex_count:
            raise ContractViolation(f"anchor index {anchor} out of range")
        dist = int(popcount(query.bits ^ int(self._masks[anchor])))
        if dist > self.r:
            self.violations += 1
            if self.audit_mode == AUDIT_FULL:
                self._record("mq_violation", query.bits, anchor, dist, float("nan"))
            raise LocalityError(dist, self.r, anchor)
        bits = np.asarray([query.bits], dtype=np.int64)
        label = float(self._labels_for(bits)[0])
        self.mq_count += 1
        self.max_locality_used = max(self.max_locality_used, dist)
        self._mark_distinct(bits)
        if self.audit_mode == AUDIT_FULL:
            self._record("mq", query.bits, anchor, dist, label)
        else:
            self._seq += 1
        return label

    def local_query_matrix(
        self, queries: np.ndarray, anchors: np.ndarray
    ) -> np.ndarray:
        """Vectorized queries: row i of `queries` is anchored at the drawn
        example anchors[i]. Same contract as local_query, checked for the
        whole batch before any label is released."""
        queries = np.asarray(queries, dtype=np.int64)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.size and (queries.min() < 0 or queries.max() >> self.n):
            raise ContractViolation("query point outside the session's cube")
        anchors = np.asarray(anchors, dtype=np.int64)
        anchor_bits = self.anchor_masks(anchors)
        dists = popcount(queries ^ anchor_bits[:, None])
        worst = int(dists.max()) if dists.size else 0
        if worst > self.r:
            self.violations += 1
            bad = np.argwhere(dists > self.r)[0]
            if self.audit_mode == AUDIT_FULL:
                self._record(
                    "mq_violation",
                    int(queries[bad[0], bad[1]]),
                    int(anchors[bad[0]]),
                    worst,
                    float("nan"),
                )
            raise LocalityError(worst, self.r, int(anchors[bad[0]]))
        labels = self._labels_for(queries.ravel()).reshape(queries.shape)
        self.mq_count += queries.size
        self.max_locality_used = max(self.max_locality_used, worst)
        self._mark_distinct(queries.ravel())
        if self.audit_mode == AUDIT_FULL:
            flat_q = queries.ravel().tolist()
            flat_d = dists.ravel().tolist()
            flat_l = labels.ravel().tolist()
            reps = np.repeat(anchors, queries.shape[1]).tolist()
            for q, a, d, y in zip(flat_q, reps, flat_d, flat_l):
                self._record("mq", q, a, d, y)
        else:
            self._seq += queries.size
        return labels

    # ------------------------------------------------------------- audit

    def _record(self, op: str, bits: int, anchor: int | None, dist: int, resp: float):
        rec = {
            "op": op,
            "point": mask_to_bitstring(int(bits), self.n),
            "anchor": anchor,
            "dist": int(dist),
            "resp": resp,
            "seq": self._seq,
        }
        if self.noise is not None:
            rec["noisy"] = True
        self.records.append(rec)
        self._seq += 1

    def audit_report(self) -> AuditSummary:
        if isinstance(self._distinct, np.ndarray):
            distinct = int(np.count_nonzero(self._distinct))
        else:
            distinct = len(self._distinct) if self._distinct is not None else None
        return AuditSummary(
            ex_count=self.ex_count,
            mq_count=self.mq_count,
            max_locality_used=self.max_locality_used,
            distinct_mq_points=distinct,
            violations=self.violations,
        )

    def write_audit_jsonl(self, fh: IO[str]) -> int:
        """Dump the per-call audit records; returns the record count."""
        if self.audit_mode != AUDIT_FULL:
            raise ContractViolation("session was not recording full audit")
        for rec in self.records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return len(self.records)
