"""The JSONL audit log: its record layout, its writer and its checker.

A full-audit `OracleSession` keeps its records in five columns and
writes them here, one JSON record per line, with the keys sorted:

    {"anchor": 3, "dist": 1, "op": "mq", "point": "0110", "resp": -1.0, "seq": 12}

`point` is variable 0 first, `anchor` the draw index of a query's anchor
example (null for an example), `resp` null for a refused query, `seq` the
record's position in the log; a noisy session adds `"noisy": true` to
every line. `_KEYS` and `_NOISY_FLAG` state that layout once: the
writer's segments, the fast reader's segments and offsets, and the JSON
reader's keys come from them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from ._bits import MAX_BITS, DistinctMasks, grow_array
from .errors import AuditLogError

# record ops, indexed by the op code stored in the columns
AUDIT_OPS = ("ex", "mq", "mq_violation")
EX, MQ, VIOLATION = range(len(AUDIT_OPS))
# dtypes of the record columns: op, mask, anchor (-1 for none), dist, resp (NaN if refused)
COLUMN_DTYPES = (np.uint8, np.int64, np.int64, np.uint8, np.float64)
# records formatted per block written, and lines read per chunk checked:
# the writer's and the checker's working memory is a few of these blocks,
# however long the log is
_CHUNK = 1 << 14

# The record layout: every key, in the order the JSON reader checks them,
# and whether its value is quoted. A line holds `"key": value` for each
# key, sorted, separated by ", " inside braces.
_KEYS = {"op": True, "point": True, "anchor": False, "dist": False, "resp": False, "seq": False}
_NOISY_FLAG = ("noisy", b"true")


def _line_layout(noisy: bool):
    """The keys of a line in written order, the constant text before each
    key's value, and the text after the last value."""
    keys = sorted([*_KEYS, *[_NOISY_FLAG[0]] * noisy])
    quotes = [b'"' * _KEYS.get(key, False) for key in keys]
    leads = [b"{"] + [quote + b", " for quote in quotes[:-1]]
    before = [
        lead + b'"%s": ' % key.encode() + quote for lead, key, quote in zip(leads, keys, quotes)
    ]
    return keys, before, quotes[-1] + b"}\n"


_LINES = {noisy: _line_layout(noisy) for noisy in (False, True)}
_LINES_BY_COMMAS = {len(line[0]) - 1: line for line in _LINES.values()}


@dataclass
class AuditSummary:
    ex_count: int
    mq_count: int
    max_locality_used: int
    distinct_mq_points: int | None
    violations: int

    def to_json(self) -> dict:
        return asdict(self)


# ------------------------------------------------------------------- writer

_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _decimal_digits(values: np.ndarray) -> np.ndarray:
    """ASCII decimal digits of int64 `values`, `null` for a negative one,
    one row per value, left-justified and NUL-padded to the longest."""
    null = values < 0
    ndigits = np.where(null, 4, np.maximum(np.searchsorted(_POW10, values, side="right"), 1))
    out = np.zeros((values.size, int(ndigits.max(initial=1))), dtype=np.uint8)
    for j in range(out.shape[1]):
        exp = ndigits - 1 - j  # power of ten of the digit in column j
        digit = values // _POW10[np.maximum(exp, 0)] % 10 + ord("0")
        out[:, j] = np.where(exp >= 0, digit, 0)
    if null.any():
        out[null, :4] = np.frombuffer(b"null", np.uint8)
    return out


def _text_rows(texts: list[bytes]) -> np.ndarray:
    """Byte strings as NUL-padded uint8 rows."""
    return np.asarray(texts, dtype="S").view(np.uint8).reshape(len(texts), -1)


def _format_block(block: list[np.ndarray], seq: int, n: int, noisy: bool) -> bytes:
    """JSONL bytes of one block of records over the n-cube, the first
    numbered `seq`. Each record is one row of a NUL-padded byte matrix; no
    JSONL byte is NUL, so dropping the NULs packs the rows into lines."""
    ops, masks, anchors, dists, resps = block
    # each distinct float (by bit pattern, so -0.0 keeps its sign) is
    # formatted once, by json itself; NaN, a refused query's resp, is null
    patterns, inverse = np.unique(resps.view(np.int64), return_inverse=True)
    resp_texts = [json.dumps(v if v == v else None).encode() for v in patterns.view(float).tolist()]
    values = {
        "op": _text_rows([op.encode() for op in AUDIT_OPS])[ops],
        # variable 0 first: column i of the digit matrix is bit i
        "point": ((masks[:, None] >> np.arange(n)) & 1).astype(np.uint8) + ord("0"),
        "anchor": _decimal_digits(anchors),
        "dist": _decimal_digits(dists.astype(np.int64)),
        "resp": _text_rows(resp_texts)[inverse.ravel()],
        "seq": _decimal_digits(np.arange(seq, seq + masks.size, dtype=np.int64)),
        _NOISY_FLAG[0]: _text_rows([_NOISY_FLAG[1]]),
    }
    # a constant segment is one row, broadcast to every record
    keys, before, after = _LINES[noisy]
    pieces = [p for key, text in zip(keys, before) for p in (_text_rows([text]), values[key])]
    pieces.append(_text_rows([after]))
    rows = np.concatenate([np.broadcast_to(p, (masks.size, p.shape[1])) for p in pieces], axis=1)
    return rows[rows != 0].tobytes()


def write_jsonl(fh, columns, n: int, noisy: bool) -> int:
    """Write the records held in `columns`, one array per COLUMN_DTYPES
    entry, over the n-cube as JSONL text to `fh`, in blocks of _CHUNK
    records; returns the record count."""
    count = columns[0].size
    for start in range(0, count, _CHUNK):
        block = [col[start : start + _CHUNK] for col in columns]
        fh.write(_format_block(block, start, n, noisy).decode("ascii"))
    return count


# ------------------------------------------------------------------ readers


def _refuse_constant(token: str):
    """`parse_constant` hook: NaN and Infinity are not JSON (RFC 8259)."""
    raise ValueError(f"{token} is not a JSON number")


def _is_int64(value) -> bool:
    return type(value) is int and -(1 << 63) <= value < 1 << 63


def _record_problem(rec, width: int | None) -> str | None:
    """Why one parsed audit record is malformed, or None; `width` is the
    log's point width, None while reading its first record."""
    if not isinstance(rec, dict):
        return "record is not a JSON object"
    for key in _KEYS:
        if key not in rec:
            return f"missing key {key!r}"
    op, point = rec["op"], rec["point"]
    if type(op) is not str or op not in AUDIT_OPS:
        return f"unknown op {op!r}"
    if type(point) is not str or point.strip("01"):
        return f"point {point!r} is not a 0/1 string"
    if width is None and not 1 <= len(point) <= MAX_BITS:
        return f"point width {len(point)} outside [1, {MAX_BITS}]"
    if width is not None and len(point) != width:
        return f"point {point!r} does not have the log's width {width}"
    if not (rec["anchor"] is None or _is_int64(rec["anchor"])):
        return f"anchor {rec['anchor']!r} is not an integer or null"
    if not _is_int64(rec["dist"]):
        return f"dist {rec['dist']!r} is not an integer"
    if not (type(rec["resp"]) in (int, float) or rec["resp"] is None and op == "mq_violation"):
        return f"resp {rec['resp']!r} is not a number"
    if not _is_int64(rec["seq"]):
        return f"seq {rec['seq']!r} is not an integer"
    return None


def _json_columns(lines: list[bytes], width: int | None, lineno: int):
    """Op codes, point masks, anchors (-1 for null) and dists of a chunk of
    audit lines, the log's point width and their seqs, read one strict JSON
    record (no NaN or Infinity) per line under the rules of
    `_record_problem`. Raises AuditLogError naming the first bad line;
    `lineno` is the chunk's first line."""
    rows = []
    for offset, line in enumerate(lines):
        try:
            rec = json.loads(line, parse_constant=_refuse_constant)
        except ValueError as exc:
            raise AuditLogError(lineno + offset, f"bad JSON: {exc}") from None
        problem = _record_problem(rec, width)
        if problem:
            raise AuditLogError(lineno + offset, problem)
        width = len(rec["point"])
        mask = int(rec["point"][::-1], 2)  # digit k is bit k
        anchor = -1 if rec["anchor"] is None else rec["anchor"]
        rows.append((AUDIT_OPS.index(rec["op"]), mask, anchor, rec["dist"], rec["seq"]))
    codes, masks, anchors, dists, seqs = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    return codes.astype(np.uint8), masks, anchors, dists, width, seqs


_MAX_DIGITS = 18  # any decimal of at most 18 digits fits int64
_MAX_RESP_WORDS = 4  # longest resp text the fast path reads, in 8-byte words
_BYTE = np.uint64(0xFF)
_LOW_BITS = np.uint64(0x0101010101010101)  # bit 0 of every byte
_GATHER_BITS = np.uint64(0x0102040810204080)  # moves bit 0 of byte k to bit 56 + k
_LOW_BYTES = [np.uint64((1 << 8 * count) - 1) for count in range(9)]  # the low `count` bytes


def _matches(words: np.ndarray, offsets: np.ndarray, text: bytes) -> np.ndarray:
    """Whether `text` occurs at each offset in `offsets`."""
    hit = np.ones(offsets.shape, dtype=bool)
    for k in range(0, len(text), 8):
        piece = text[k : k + 8]
        hit &= (words[offsets + k] & _LOW_BYTES[len(piece)]) == int.from_bytes(piece, "little")
    return hit


def _canonical_integers(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Nonnegative integers written at [starts, starts + lengths) as plain
    decimals of at most _MAX_DIGITS digits with no sign and no leading
    zero, or None if any field is not."""
    values = np.zeros(starts.size, dtype=np.int64)
    if lengths.min(initial=1) < 1 or lengths.max(initial=0) > _MAX_DIGITS:
        return None
    for j in range(int(lengths.max(initial=0))):
        if j % 8 == 0:  # the field's next eight bytes
            word = words[np.minimum(starts + j, words.size - 1)]
        digit = ((word >> np.uint64(8 * (j % 8))) & _BYTE).astype(np.int64) - ord("0")
        live = j < lengths
        if (live & ((digit < 0) | (digit > 9))).any():
            return None
        if j == 0 and ((digit == 0) & (lengths > 1)).any():
            return None
        values = np.where(live, values * 10 + digit, values)
    return values


def _canonical_columns(lines: list[bytes], width: int | None):
    """Fast path of `_json_columns` for a chunk whose every line is exactly
    as `write_jsonl` writes it: plain decimal integers, a JSON number (null
    if refused) as resp, and _NOISY_FLAG in every line or in none. Returns
    the same columns, or None for any other chunk, which takes the JSON path.

    The chunk is read as one byte array; `words[i]` holds its bytes i to
    i + 7 as a little-endian uint64, so one gather reads eight bytes of
    every line."""
    raw = b"".join(lines + [bytes(8)])
    buf = np.frombuffer(raw, dtype=np.uint8, count=len(raw) - 8)
    words = np.ndarray((buf.size + 1,), dtype="<u8", buffer=raw, strides=(1,))
    count = len(lines)
    ends = np.flatnonzero(buf == ord("\n"))  # each line's newline
    if ends.size != count or buf[-1] != ord("\n") or not buf.all():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(buf == ord(","))
    per_line = commas.size // count
    if per_line not in _LINES_BY_COMMAS or commas.size != per_line * count:
        return None
    keys, before, after = _LINES_BY_COMMAS[per_line]
    # column i holds the comma after value i if every line has per_line
    # (else some value below comes out empty); value i ends where the
    # segment before value i + 1 starts, at its closing quote if quoted
    commas = commas.reshape(count, per_line).T
    stops = [comma - text.index(b",") for comma, text in zip(commas, before[1:])]
    stops.append(ends + 1 - len(after))
    offsets = [starts] + stops[:-1]  # where the segment before each value begins
    start = {key: offset + len(text) for key, offset, text in zip(keys, offsets, before)}
    length = {key: stop - start[key] for key, stop in zip(keys, stops)}
    if min(int(lengths.min()) for lengths in length.values()) < 1:
        return None
    # every value is nonempty, so each constant segment lies inside its line
    segments = list(zip(offsets, before)) + [(stops[-1], after)]
    if not all(_matches(words, offset, text).all() for offset, text in segments):
        return None
    flag, value = _NOISY_FLAG
    if flag in length:  # a fixed value, checked like a segment
        if not (_matches(words, start[flag], value) & (length[flag] == len(value))).all():
            return None

    # op: the code of the op text the field holds whole, if any
    codes = np.full(count, len(AUDIT_OPS), dtype=np.uint8)
    for code, op in enumerate(AUDIT_OPS):
        codes[(length["op"] == len(op)) & _matches(words, start["op"], op.encode())] = code
    if (codes == len(AUDIT_OPS)).any():
        return None

    if width is None:
        width = int(length["point"][0])
    if not 1 <= width <= MAX_BITS or (length["point"] != width).any():
        return None
    masks = np.zeros(count, dtype=np.int64)
    for k in range(0, width, 8):  # eight digits, variable k first, per gather
        low = _LOW_BYTES[min(8, width - k)]
        word = words[start["point"] + k] & low
        if ((word | _LOW_BITS) & low != np.uint64(0x3131313131313131) & low).any():
            return None  # a byte other than '0' or '1'
        masks |= (((word & _LOW_BITS) * _GATHER_BITS) >> np.uint64(56)).astype(np.int64) << k

    null = (length["anchor"] == 4) & _matches(words, start["anchor"], b"null")
    values = [
        _canonical_integers(words, start["anchor"][~null], length["anchor"][~null]),
        _canonical_integers(words, start["dist"], length["dist"]),
        _canonical_integers(words, start["seq"], length["seq"]),
    ]
    if any(v is None for v in values):
        return None
    anchors = np.full(count, -1, dtype=np.int64)
    anchors[~null], dists, seqs = values

    # resp: null in an mq_violation line, else each distinct text parses alone as a JSON number
    nwords = -(-int(length["resp"].max()) // 8)
    if nwords > _MAX_RESP_WORDS:
        return None
    resp = np.stack(
        [words[np.minimum(start["resp"] + 8 * k, words.size - 1)] for k in range(nwords)], axis=1
    ).view(np.uint8)
    resp[np.arange(8 * nwords) >= length["resp"][:, None]] = 0
    texts = resp.view(f"S{8 * nwords}").ravel()
    null = texts == b"null"
    if (null & (codes != VIOLATION)).any():
        return None
    for text in np.unique(texts[~null]).tolist():
        try:
            value = json.loads(text, parse_constant=_refuse_constant)
        except ValueError:
            return None
        if type(value) not in (int, float):
            return None
    return codes, masks, anchors, dists, width, seqs


# ------------------------------------------------------------------ checker


def check_log(fh) -> dict:
    """Summarise a JSONL audit log, read in chunks from the binary file
    `fh`, and recompute the distance of every query, answered or refused,
    from the example its anchor names; a query whose anchor is null,
    negative or not yet drawn, or whose logged distance is wrong, is a
    distance mismatch. Line k must have seq k - 1; the first line that
    does not raises AuditLogError. Keeps one int64 mask per example."""
    ex_masks = np.zeros(1024, dtype=np.int64)
    ex_count = mq = max_dist = violations = mismatches = 0
    distinct = None  # made once the log's width is known
    width = None
    lineno = 1
    for lines in iter(lambda: list(islice(fh, _CHUNK)), []):
        columns = _canonical_columns(lines, width)
        if columns is None:
            columns = _json_columns(lines, width, lineno)
        codes, masks, anchors, dists, width, seqs = columns
        wrong = np.flatnonzero(seqs != np.arange(lineno - 1, lineno - 1 + len(lines)))
        if wrong.size:
            k = int(wrong[0])
            raise AuditLogError(lineno + k, f"seq {seqs[k]} out of order, expected {lineno - 1 + k}")
        lineno += len(lines)
        is_ex = codes == EX
        drawn = ex_count + np.cumsum(is_ex) - is_ex  # examples before each record
        new = masks[is_ex]
        ex_masks = grow_array(ex_masks, ex_count + new.size)
        ex_masks[ex_count : ex_count + new.size] = new
        ex_count += new.size
        is_query = ~is_ex
        queries, anchor, dist = masks[is_query], anchors[is_query], dists[is_query]
        named = (anchor >= 0) & (anchor < drawn[is_query])
        true_dist = np.bitwise_count(queries[named] ^ ex_masks[anchor[named]])
        mismatches += int(np.count_nonzero(~named) + np.count_nonzero(true_dist != dist[named]))
        answered = codes[is_query] == MQ
        violations += int(np.count_nonzero(~answered))
        if answered.any():
            mq += int(np.count_nonzero(answered))
            max_dist = max(max_dist, int(dist[answered].max()))
            if distinct is None:
                distinct = DistinctMasks(width)
            distinct.add(queries[answered])
    distinct_count = 0 if distinct is None else len(distinct)
    summary = AuditSummary(ex_count, mq, max_dist, distinct_count, violations)
    return {**summary.to_json(), "distance_mismatches": mismatches}
