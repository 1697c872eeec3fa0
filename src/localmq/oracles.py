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
Every batch, flips included, and every refused scalar query, as a 1x1
batch, go through `local_query_matrix`, so one block of code keeps the
counters and the audit records and states the refusals.

Anchors that agree off S ask the same row of flips. When a restriction
batch holds at least as many queries as the cube has points
(m * 2**|S| >= 2**n, n <= ENUM_MAX_BITS), the session builds, labels and
distinct-marks each distinct row once and copies the labels out to every
anchor. The counters, the audit records and the labels returned are
those of the whole m x 2**|S| batch.

The anchor store keeps the masks of the live examples, those drawn
since the last `release_anchors` call, so a caller that releases each
batch once it is done with it holds one batch however long the run is.
Draw indices stay global, so counters, audit records, labels and random
streams do not depend on releases; a query that names a released example
is refused with ContractViolation before any label is released.

Queries are point masks, and a label is a function of the point alone:
the anchor a query names decides whether it may be asked, never what it
is answered. A gateway that simulates its target (the reduction's
simulator) overrides `draw_batch`, which stores its draws through
`_keep`, and `_evaluate`, which labels the points the table does not
hold. The scalar `local_query` reads the table once it exists and builds
no array then.

Distinct-query counting is exact: a 2**n boolean bitmap when
n <= ENUM_MAX_BITS (20), a set of masks above that. Labels come from the
target (times the noise) point by point until the session has answered
2**n points in all (`_labelled`: examples and answered queries together,
a repeated row counted each time it is answered); on a cube that small
it then labels the whole cube once into a table and reads every later
label from it. The table holds the same values the point-by-point path
returns, so labels and random streams do not depend on when it is built,
and a session that labels fewer than 2**n points never builds it.
"""

from __future__ import annotations

import io
import json
from typing import IO, Callable, NamedTuple

import numpy as np

from ._bits import (
    ENUM_MAX_BITS, DistinctMasks, all_masks, check_masks, flip_patterns, grow_array, popcount,
)
from .audit import COLUMN_DTYPES, EX, MQ, VIOLATION, AuditSummary, write_jsonl
from .errors import ContractViolation, LocalityError
from .targets import TargetFunction
from .distributions import Distribution

AUDIT_FULL = "full"
AUDIT_COUNTS = "counts"
_OUTSIDE = "query point outside the session's cube"


class _Flips(NamedTuple):
    """A restriction batch: around each anchor, the points that agree
    with it off `subset` and take `patterns` on it."""

    subset: int
    patterns: np.ndarray


class _Batch(NamedTuple):
    """A batch ready to check and answer. Row i of the batch is asked
    around anchors[i] and is queries[i], or queries[rows[i]] when rows is
    not None; then `queries` holds each distinct row once."""

    queries: np.ndarray
    rows: np.ndarray | None
    anchors: np.ndarray
    worst: int
    dists: Callable[[], np.ndarray]

    def expand(self, values: np.ndarray) -> np.ndarray:
        """Per-row `values` (one row per distinct row) as one row per anchor."""
        return values if self.rows is None else np.take(values, self.rows, axis=0)


def _distinct(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct entries of `values`, points of the n-cube, ascending;
    the position of each entry's value among them), read off a 2**n
    bitmap."""
    seen = np.zeros(1 << n, dtype=bool)
    seen[values] = True
    distinct = np.flatnonzero(seen)
    slot = np.empty(1 << n, dtype=np.int32)
    slot[distinct] = np.arange(distinct.size)
    return distinct, slot[values]


class OracleSession:
    """Stateful gateway enforcing the r-locality contract.

    Natural examples are stored in a growing mask array and named by
    their draw index, which every query passes as its anchor; the array
    holds the examples from the first live draw index on. Labels are
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
        if seed < 0:
            raise ContractViolation(f"seed {seed} must be >= 0")
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
        self._rng = np.random.default_rng([self.seed, 0x0AC1E])
        self.audit_mode = audit_mode
        self._columns = [np.zeros(0, dtype=dtype) for dtype in COLUMN_DTYPES]
        self._records = 0
        # entry i of the store is the mask of the example drawn at _first_live + i
        self._examples = np.zeros(256, dtype=np.int64)
        self._first_live = 0
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

    # ------------------------------------------------------------- examples

    def _keep(self, masks: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Store drawn examples as anchors and log them; returns their draw
        indices."""
        lo = self.ex_count
        self.ex_count += masks.size
        live = self.ex_count - self._first_live
        self._examples = grow_array(self._examples, live)
        self._examples[live - masks.size : live] = masks
        self._log(EX, masks, -1, 0, labels)
        return np.arange(lo, self.ex_count)

    def release_anchors(self) -> None:
        """Release every example drawn so far as an anchor. A later query
        that names one is refused with ContractViolation, and the store
        reuses its room for later draws."""
        self._first_live = self.ex_count

    def draw_batch(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw `count` natural examples; returns (indices, masks, labels)."""
        if count < 1:
            raise ContractViolation("draw count must be positive")
        masks = self.dist.sample_batch(self._rng, count)
        labels = self._labels_for(masks)
        return self._keep(masks, labels), masks, labels

    def anchor_masks(self, indices: np.ndarray) -> np.ndarray:
        """Masks of the live examples `indices`; refuses any other index."""
        lo, hi = self._first_live, self.ex_count
        try:
            indices = np.asarray(indices, dtype=np.int64)
        except OverflowError:  # an index beyond int64, refused as Python ints below
            indices = np.asarray(indices, dtype=object)
        if indices.size and (indices.min() < lo or indices.max() >= hi):
            anchor = next(int(a) for a in indices.flat if not lo <= a < hi)
            raise ContractViolation(
                f"anchor index {anchor} is not a live example (live: [{lo}, {hi}))"
            )
        return self._examples[indices - lo]

    # ------------------------------------------------------------- queries

    def local_query(self, query: int, anchor: int) -> float:
        """Answer one r-local membership query, a point mask, anchored at
        a drawn example. A query it does not answer goes to
        `local_query_matrix` as a 1x1 batch, which refuses it."""
        query, lo = int(query), self._first_live
        if (
            query < 0 or query >> self.n or not lo <= anchor < self.ex_count
            or (dist := (query ^ int(self._examples[anchor - lo])).bit_count()) > self.r
        ):
            return float(self.local_query_matrix([[query]], [anchor])[0, 0])
        if self._table is not None:
            label = float(self._table[query])
        else:
            label = float(self._labels_for(np.array([query], dtype=np.int64))[0])
        self.mq_count += 1
        self.max_locality_used = max(self.max_locality_used, dist)
        if self._distinct is not None:
            self._distinct.add_one(query)
        if self.audit_mode == AUDIT_FULL:
            self._log(MQ, np.array([query], dtype=np.int64), anchor, dist, label)
        return label

    def local_query_matrix(
        self, queries: np.ndarray, anchors: np.ndarray
    ) -> np.ndarray:
        """Vectorized queries: row i of `queries` is anchored at the drawn
        example anchors[i]. The contract is checked for the whole batch
        before any label is released; a far batch is reported by its
        first far entry in row-major order.

        The one path that releases a batch: `restriction_query` passes its
        flips here as a `_Flips`, whose check needs no distance."""
        if isinstance(queries, _Flips):
            batch = self._flip_batch(queries, anchors)
        else:
            batch = self._matrix_batch(queries, anchors)
        if batch.worst > self.r:
            far = batch.dists()
            i, j = np.argwhere(far > self.r)[0]
            dist, anchor = int(far[i, j]), int(batch.anchors[i])
            self.violations += 1
            self._log(VIOLATION, batch.expand(batch.queries)[i, j : j + 1], anchor, dist, np.nan)
            raise LocalityError(dist, self.r, anchor)
        if batch.rows is not None and self._table is None:
            # `_labelled` counts answered queries, the repeated rows too
            self._labelled += (batch.rows.size - batch.queries.shape[0]) * batch.queries.shape[1]
        labels = batch.expand(self._labels_for(batch.queries.ravel()).reshape(batch.queries.shape))
        self.mq_count += labels.size
        self.max_locality_used = max(self.max_locality_used, batch.worst)
        if self._distinct is not None:
            self._distinct.add(batch.queries)
        if self.audit_mode == AUDIT_FULL:
            anchors = np.repeat(batch.anchors, labels.shape[1])
            queries = batch.expand(batch.queries)
            self._log(MQ, queries.ravel(), anchors, batch.dists().ravel(), labels.ravel())
        return labels

    def _matrix_batch(self, queries, anchors) -> _Batch:
        """An explicit query matrix: one popcount per entry."""
        queries = check_masks(np.asarray(queries), self.n, _OUTSIDE)
        if queries.ndim == 1:
            queries = queries[None, :]
        dists = popcount(queries ^ self.anchor_masks(anchors)[:, None])
        anchors = np.asarray(anchors, dtype=np.int64)
        worst = int(dists.max()) if dists.size else 0
        return _Batch(queries, None, anchors, worst, lambda: dists)

    def _flip_batch(self, flips: _Flips, anchors) -> _Batch:
        """The flips of a subset S around each anchor. Every flip is within
        |S| of its anchor and the one that inverts the anchor on S is
        exactly |S| away, so the largest distance is |S| and the distances
        are computed only when asked for.

        Anchors that agree off S ask the same row. When the batch holds at
        least as many queries as the cube has points (m * 2**|S| >= 2**n,
        n <= ENUM_MAX_BITS), each distinct row is built once; a 2**n bitmap
        finds them in time no larger than the batch."""
        anchor_bits = self.anchor_masks(anchors)
        anchors = np.asarray(anchors, dtype=np.int64)
        bases, rows = anchor_bits & ~flips.subset, None
        if self._enumerable and anchors.size * flips.patterns.size >= 1 << self.n:
            bases, rows = _distinct(bases, self.n)
        queries = bases[:, None] | flips.patterns
        worst = flips.subset.bit_count() if anchors.size else 0
        inside = anchor_bits & flips.subset
        return _Batch(
            queries, rows, anchors, worst,
            lambda: np.bitwise_count(inside[:, None] ^ flips.patterns),
        )

    def restriction_query(
        self, anchors: np.ndarray, subset: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ask the 2**|S| flips of the bits of `subset` around each drawn
        example anchors[i] in one batch. Returns (labels, patterns): entry
        (i, a) labels (anchor & ~S) | patterns[a], where patterns[a] puts
        bit j of a on the j-th lowest bit of S.

        Answers, counts, refuses and logs as `local_query_matrix` does on
        that matrix, through it, but checks the batch by |S| <= r alone."""
        subset = check_masks(subset, self.n, _OUTSIDE)
        patterns = flip_patterns(subset)
        return self.local_query_matrix(_Flips(subset, patterns), anchors), patterns

    # ------------------------------------------------------------- audit

    def _log(self, op: int, masks: np.ndarray, anchors, dists, resps) -> None:
        """Append one record per entry of the flat mask array `masks` to a
        full audit; each other value is a flat array alike or a scalar
        shared by them."""
        if self.audit_mode != AUDIT_FULL:
            return
        lo = self._records
        self._records += masks.size
        if self._records > self._columns[0].size:
            self._columns = [grow_array(col, self._records) for col in self._columns]
        for col, values in zip(self._columns, (op, masks, anchors, dists, resps)):
            col[lo : self._records] = values

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
