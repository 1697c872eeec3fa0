"""The EX/MQ gateway.

An OracleSession is the only path from a learner to target labels. It
hands out natural examples drawn from the distribution, answers
membership queries that stay within Hamming distance r of a previously
drawn example, applies optional persistent label noise, and keeps an
audit trail (full per-call records, or counters only for large runs).

A full audit is five growing columns (op code, mask, anchor, distance,
response), 26 bytes per record for a scalar query and a batch alike (at
most twice that with the spare room), which `localmq.audit` writes as
JSONL in blocks sliced from them.

The caller names the anchor example for every query; every algorithm
here derives its queries from one specific natural example, so the
anchor is always known. An arbitrary query costs one popcount of its XOR
with the anchor. The restriction flips every learner asks (the 2**|S|
points that agree with an anchor off S) go through `restriction_query`,
whose largest distance is |S| by construction, so its check is one
comparison per batch and a counts-only session computes no distance.
Every batch, flips included, is released by `local_query_matrix`, so
one block of code keeps the counters and the audit records.

Queries are point masks. A gateway that simulates its target (the
reduction's simulator) overrides only `draw_batch`, which stores its
draws through `_keep`, and the two hooks that label checked queries:
`_answer` for a batch and `_answer_one` for the scalar `local_query`,
which builds no array once the label table exists.

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

import io
import json
from typing import IO, NamedTuple

import numpy as np

from ._bits import ENUM_MAX_BITS, DistinctMasks, all_masks, bits_of, grow_array, popcount
from .audit import AUDIT_OPS  # noqa: F401 (importable from here as well)
from .audit import COLUMN_DTYPES, EX, MQ, VIOLATION, AuditSummary, write_jsonl
from .errors import ContractViolation, LocalityError
from .targets import TargetFunction
from .distributions import Distribution

AUDIT_FULL = "full"
AUDIT_COUNTS = "counts"


class _Flips(NamedTuple):
    """A restriction batch: around each anchor, the points that agree
    with it off `subset` and take `patterns` on it."""

    subset: int
    patterns: np.ndarray


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
        self._columns = [np.zeros(0, dtype=dtype) for dtype in COLUMN_DTYPES]
        self._records = 0
        self._masks = np.zeros(256, dtype=np.int64)
        self.ex_count = 0
        self.mq_count = 0
        self.max_locality_used = 0
        self.violations = 0
        self._enumerable = self.n <= ENUM_MAX_BITS
        self._distinct = DistinctMasks(self.n) if track_distinct else None
        self._labelled = 0
        self._table: np.ndarray | None = None

    # ------------------------------------------------------------- labels

    def _labels_for(self, masks: np.ndarray) -> np.ndarray:
        if self._table is None:
            self._labelled += masks.size
            if not (self._enumerable and self._labelled >= 1 << self.n):
                return self._evaluate(masks)
            self._table = self._evaluate(all_masks(self.n))
        return self._table[masks]

    def _evaluate(self, masks: np.ndarray) -> np.ndarray:
        clean = self._target.value_batch(masks)
        if self.noise is not None:
            clean = clean * self.noise.zeta_batch(masks)
        return clean

    def _answer(self, queries: np.ndarray, anchors: np.ndarray) -> np.ndarray:
        """Labels of checked queries; row i of `queries` is anchored at the
        drawn example anchors[i]. Subclasses that simulate the target
        answer here."""
        return self._labels_for(queries.ravel()).reshape(queries.shape)

    def _answer_one(self, query: int, anchor: int) -> float:
        """Label of one checked query anchored at the drawn example
        `anchor`; the same value `_answer` gives it."""
        if self._table is not None:
            return float(self._table[query])
        queries = np.array([[query]], dtype=np.int64)
        return float(self._answer(queries, np.array([anchor], dtype=np.int64))[0, 0])

    # ------------------------------------------------------------- examples

    def _keep(self, masks: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Store drawn examples as anchors and log them; returns their
        draw indices."""
        lo = self.ex_count
        self.ex_count += masks.size
        self._masks = grow_array(self._masks, self.ex_count)
        self._masks[lo : self.ex_count] = masks
        self._log(EX, masks, -1, 0, labels)
        return np.arange(lo, self.ex_count)

    def draw_batch(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw `count` natural examples; returns (indices, masks, labels)."""
        if count < 1:
            raise ContractViolation("draw count must be positive")
        masks = self.dist.sample_batch(self._rng, count)
        labels = self._labels_for(masks)
        return self._keep(masks, labels), masks, labels

    def anchor_masks(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.ex_count):
            raise ContractViolation("anchor index out of range")
        return self._masks[indices]

    # ------------------------------------------------------------- queries

    def local_query(self, query: int, anchor: int) -> float:
        """Answer one r-local membership query, a point mask, anchored at
        a drawn example."""
        query = int(query)
        if query < 0 or query >> self.n:
            raise ContractViolation("query point outside the session's cube")
        if not 0 <= anchor < self.ex_count:
            raise ContractViolation(f"anchor index {anchor} out of range")
        dist = (query ^ int(self._masks[anchor])).bit_count()
        if dist > self.r:
            self.violations += 1
            self._log(VIOLATION, query, anchor, dist, np.nan)
            raise LocalityError(dist, self.r, anchor)
        label = self._answer_one(query, anchor)
        self.mq_count += 1
        self.max_locality_used = max(self.max_locality_used, dist)
        if self._distinct is not None:
            self._distinct.add_one(query)
        self._log(MQ, query, anchor, dist, label)
        return label

    def local_query_matrix(
        self, queries: np.ndarray, anchors: np.ndarray
    ) -> np.ndarray:
        """Vectorized queries: row i of `queries` is anchored at the drawn
        example anchors[i]. Same contract as local_query, checked for the
        whole batch before any label is released; a far batch is reported
        by its first far entry in row-major order.

        The one path that releases a batch: `restriction_query` passes its
        flips here as a `_Flips`, whose check needs no distance."""
        if isinstance(queries, _Flips):
            queries, anchors, worst, dists = self._flip_batch(queries, anchors)
        else:
            queries, anchors, worst, dists = self._matrix_batch(queries, anchors)
        if worst > self.r:
            far = dists()
            i, j = np.argwhere(far > self.r)[0]
            dist, anchor = int(far[i, j]), int(anchors[i])
            self.violations += 1
            self._log(VIOLATION, queries[i, j], anchor, dist, np.nan)
            raise LocalityError(dist, self.r, anchor)
        labels = self._answer(queries, anchors)
        self.mq_count += queries.size
        self.max_locality_used = max(self.max_locality_used, worst)
        if self._distinct is not None:
            self._distinct.add(queries)
        if self.audit_mode == AUDIT_FULL:
            anchors = np.repeat(anchors, queries.shape[1])
            self._log(MQ, queries.ravel(), anchors, dists().ravel(), labels.ravel())
        return labels

    def _matrix_batch(self, queries, anchors):
        """(queries, anchors, largest distance, distances) of an explicit
        query matrix: one popcount per entry."""
        queries = np.asarray(queries, dtype=np.int64)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.size and (queries.min() < 0 or queries.max() >> self.n):
            raise ContractViolation("query point outside the session's cube")
        anchors = np.asarray(anchors, dtype=np.int64)
        dists = popcount(queries ^ self.anchor_masks(anchors)[:, None])
        worst = int(dists.max()) if dists.size else 0
        return queries, anchors, worst, lambda: dists

    def _flip_batch(self, flips: _Flips, anchors):
        """The same for the flips of a subset S around each anchor. Every
        flip is within |S| of its anchor and the one that inverts the
        anchor on S is exactly |S| away, so the largest distance is |S|
        and the distances are computed only when asked for."""
        anchors = np.asarray(anchors, dtype=np.int64)
        anchor_bits = self.anchor_masks(anchors)
        queries = (anchor_bits & ~flips.subset)[:, None] | flips.patterns
        worst = flips.subset.bit_count() if anchors.size else 0
        inside = anchor_bits & flips.subset
        return queries, anchors, worst, lambda: np.bitwise_count(inside[:, None] ^ flips.patterns)

    def restriction_query(
        self, anchors: np.ndarray, subset: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ask the 2**|S| flips of the bits of `subset` around each drawn
        example anchors[i] in one batch. Returns (labels, patterns): entry
        (i, a) labels (anchor & ~S) | patterns[a], where patterns[a] puts
        bit j of a on the j-th lowest bit of S.

        Answers, counts, refuses and logs as `local_query_matrix` does on
        that matrix, through it, but checks the batch by |S| <= r alone."""
        subset = int(subset)
        if subset < 0 or subset >> self.n:
            raise ContractViolation("query point outside the session's cube")
        positions = bits_of(subset)
        assign = np.arange(1 << len(positions), dtype=np.int64)
        patterns = np.zeros(assign.size, dtype=np.int64)
        for j, pos in enumerate(positions):
            patterns |= ((assign >> j) & 1) << pos
        return self.local_query_matrix(_Flips(subset, patterns), anchors), patterns

    # ------------------------------------------------------------- audit

    def _log(self, op: int, masks, anchors, dists, resps) -> None:
        """Append one call's records to a full audit: one record if `masks`
        is a scalar, else one per entry of the flat array `masks`; each
        other value is a flat array alike or a scalar shared by them."""
        if self.audit_mode != AUDIT_FULL:
            return
        batch = isinstance(masks, np.ndarray)
        lo = self._records
        self._records += masks.size if batch else 1
        if self._records > self._columns[0].size:
            self._columns = [grow_array(col, self._records) for col in self._columns]
        at = slice(lo, self._records) if batch else lo  # an index sets one record fastest
        for col, values in zip(self._columns, (op, masks, anchors, dists, resps)):
            col[at] = values

    def audit_report(self) -> AuditSummary:
        return AuditSummary(
            ex_count=self.ex_count,
            mq_count=self.mq_count,
            max_locality_used=self.max_locality_used,
            distinct_mq_points=None if self._distinct is None else len(self._distinct),
            violations=self.violations,
        )

    def write_audit_jsonl(self, fh: IO[str]) -> int:
        """Write the full audit as JSONL in the layout of `localmq.audit`;
        returns the record count."""
        if self.audit_mode != AUDIT_FULL:
            raise ContractViolation("session was not recording full audit")
        columns = [col[: self._records] for col in self._columns]
        return write_jsonl(fh, columns, self.n, self.noise is not None)

    @property
    def records(self) -> list[dict]:
        """The full audit parsed back from write_audit_jsonl (empty when
        only counters are kept)."""
        if self.audit_mode != AUDIT_FULL:
            return []
        buf = io.StringIO()
        self.write_audit_jsonl(buf)
        return [json.loads(line) for line in buf.getvalue().splitlines()]
