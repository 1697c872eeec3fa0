"""Command line interface.

Subcommands: gen-target, gen-dist, learn, verify, reduce,
demo-separation, audit. Every run is a pure function of its arguments:
given the same --seed the emitted JSON is byte-identical (timing is only
included under --timing). Usage errors exit 2, contract violations 3,
budget overruns 4, failing verification suites and corrupt or
inconsistent audit logs 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

import numpy as np

from . import generators
from .distributions import Distribution, random_smooth_table, verify_smoothness
from ._bits import MAX_BITS, DistinctMasks
from .errors import AuditLogError, BudgetExceededError, ContractViolation
from .learners import (
    LearnerConfig,
    learn_dnf,
    learn_logdepth_tree,
    learn_sparse_poly,
    learn_tree_product,
    learn_tree_uniform,
)
from .noise import NoiseWrapper
from .oracles import AUDIT_COUNTS, AUDIT_FULL, AUDIT_OPS, OracleSession
from .reduction import ReductionSimulator, correlation_check, embed, reduction_report
from .separation import (
    VARIANT_G,
    VARIANT_GPRIME,
    PrfTarget,
    learn_g_onelocal,
    pac_baseline,
    prf_quality,
)
from .targets import (
    PLUS_MINUS,
    ZERO_ONE,
    target_from_json,
    target_to_json,
)
from .verify import SUITES, run_lemma_suite

EXIT_CONTRACT = 3
EXIT_BUDGET = 4

_ALGOS = {
    "sparse-poly": learn_sparse_poly,
    "logdepth-tree": learn_logdepth_tree,
    "tree-uniform": learn_tree_uniform,
    "tree-product": learn_tree_product,
    "dnf": learn_dnf,
}


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------- gen-target


def _cmd_gen_target(args) -> int:
    rng = np.random.default_rng([args.seed, 0x7A12])
    if args.kind == "sparse-poly":
        target = generators.random_sparse_poly(
            args.n,
            args.t,
            rng,
            max_degree=args.max_degree,
            domain=args.domain or ZERO_ONE,
            B=args.B,
        )
    elif args.kind == "decision-tree":
        target = generators.random_tree(
            args.n, args.leaves, rng, max_depth=args.depth,
            domain=args.domain or PLUS_MINUS,
        )
    elif args.kind == "dnf":
        target = generators.random_dnf(
            args.n, args.s, rng, width=args.width, domain=args.domain or PLUS_MINUS
        )
    else:
        raise ContractViolation(f"unknown target kind {args.kind}")
    _emit(target_to_json(target), args.out)
    return 0


def _cmd_gen_dist(args) -> int:
    rng = np.random.default_rng([args.seed, 0xD157])
    domain = args.domain or PLUS_MINUS
    if args.kind == "uniform":
        dist = Distribution.uniform(args.n, domain)
    elif args.kind == "product":
        means = generators.random_product_means(args.n, rng, args.mu_lo, args.mu_hi)
        dist = Distribution.product(means, domain)
    elif args.kind == "table":
        dist = random_smooth_table(args.n, args.alpha, rng, domain=domain)
    else:
        raise ContractViolation(f"unknown distribution kind {args.kind}")
    obj = dist.to_json()
    obj["alpha_star"] = verify_smoothness(dist)
    _emit(obj, args.out)
    return 0


# ---------------------------------------------------------------------- learn


def _default_instance(args, rng):
    """Generate a (target, dist) pair for the chosen algorithm when no
    files are given, so demo runs are self-contained."""
    n = args.n
    if args.algo == "sparse-poly":
        target = generators.random_sparse_poly(
            n, args.t or 4, rng, max_degree=args.max_degree, domain=ZERO_ONE
        )
        dist = random_smooth_table(n, args.alpha or 1.5, rng, domain=ZERO_ONE)
    elif args.algo == "logdepth-tree":
        target = generators.random_tree(n, args.t or 8, rng, max_depth=args.depth or 3)
        dist = Distribution.uniform(n, PLUS_MINUS)
    elif args.algo == "tree-uniform":
        target = generators.random_tree(n, args.t or 4, rng, max_depth=args.depth)
        dist = Distribution.uniform(n, PLUS_MINUS)
    elif args.algo == "tree-product":
        target = generators.random_tree(n, args.t or 8, rng, max_depth=args.depth)
        means = generators.random_product_means(n, rng, args.mu_lo, args.mu_hi)
        dist = Distribution.product(means, PLUS_MINUS)
    else:  # dnf
        target = generators.random_dnf(n, args.s or 4, rng, width=args.width)
        dist = Distribution.uniform(n, PLUS_MINUS)
    return target, dist


def _cmd_learn(args) -> int:
    rng = np.random.default_rng([args.seed, 0x1EA2])
    if args.target:
        target = target_from_json(_load_json(args.target))
        dist = (
            Distribution.from_json(_load_json(args.dist))
            if args.dist
            else Distribution.uniform(target.n, target.domain)
        )
    else:
        target, dist = _default_instance(args, rng)
    config = LearnerConfig(
        epsilon=args.eps,
        delta=args.delta,
        t=args.t,
        B=args.B,
        s=args.s,
        depth=args.depth,
        alpha=args.alpha,
        d=args.d,
        theta=args.theta,
        d_prime=args.d_prime,
        m=args.test_samples,
        est_samples=args.est_samples,
        reg_samples=args.reg_samples,
        holdout_samples=args.holdout_samples,
        cap=args.cap,
        seed=args.seed,
    )
    r = args.r if args.r is not None else target.n
    noise = NoiseWrapper(args.eta, seed=args.seed) if args.eta else None
    session = OracleSession(
        target,
        dist,
        r=r,
        seed=args.seed,
        noise=noise,
        audit_mode=AUDIT_FULL if args.audit_out else AUDIT_COUNTS,
        track_distinct=bool(args.audit_out),
    )
    try:
        outcome = _ALGOS[args.algo](session, config)
    finally:
        # a failed run keeps its log, including the record that ended it
        if args.audit_out:
            with open(args.audit_out, "w") as fh:
                session.write_audit_jsonl(fh)
    run_config = {
        "algo": args.algo,
        "epsilon": args.eps,
        "delta": args.delta,
        "seed": args.seed,
        "r": r,
        "eta": args.eta,
        "test_samples": args.test_samples,
        "target_path": args.target,
        "dist_path": args.dist,
    }
    report = {
        "config": run_config,
        "target": target_to_json(target),
        "distribution": dist.to_json(),
        "outcome": outcome.to_json(),
    }
    if args.timing:
        report["wall_time_s"] = outcome.wall_time
    _emit(report, args.out)
    return 0


# --------------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    report = run_lemma_suite(
        args.suite, n=args.n, alpha=args.alpha, trials=args.trials, seed=args.seed
    )
    _emit(report, args.out)
    if "suites" in report:
        return 0 if all(r["passed"] for r in report["suites"]) else 1
    return 0 if report["passed"] else 1


# --------------------------------------------------------------------- reduce


def _cmd_reduce(args) -> int:
    rng = np.random.default_rng([args.seed, 0x2ED0])
    base = generators.random_tree(args.n, 8, rng, max_depth=min(4, args.n))
    embedded = embed(base, args.k, coin_seed=args.seed)
    base_session = OracleSession(
        base,
        Distribution.uniform(args.n, PLUS_MINUS),
        r=0,
        seed=args.seed,
        audit_mode=AUDIT_COUNTS,
    )
    sim = ReductionSimulator(embedded, base_session, seed=args.seed)
    sim.draw_batch(args.draws)
    residuals = []
    for trial in range(5):
        g = generators.random_tree(
            args.n, 8, np.random.default_rng([args.seed, trial, 0x6]), max_depth=min(4, args.n)
        )
        lhs, rhs = correlation_check(g, embedded)
        residuals.append(abs(lhs - rhs))
    report = reduction_report(embedded, sim)
    report["correlation_residuals"] = residuals
    report["max_correlation_residual"] = max(residuals)
    _emit(report, args.out)
    return 0


# ----------------------------------------------------------- demo-separation


def _cmd_demo_separation(args) -> int:
    recoveries = 0
    baseline_errors = []
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, trial, 0x5E9])
        secret = int(rng.integers(0, 1 << args.n))
        if args.variant == VARIANT_G:
            target = PrfTarget(args.n, secret, VARIANT_G, key_seed=args.seed + trial)
            session = OracleSession(
                target,
                Distribution.uniform(target.n, PLUS_MINUS),
                r=1,
                seed=args.seed + trial,
                audit_mode=AUDIT_COUNTS,
            )
            result = learn_g_onelocal(session, budget=args.examples)
            if result["recovered"] == secret:
                recoveries += 1
        else:
            target = PrfTarget(args.n, secret, VARIANT_GPRIME, key_seed=args.seed + trial)
        base_session = OracleSession(
            target,
            Distribution.uniform(target.n, PLUS_MINUS),
            r=args.baseline_r,
            seed=args.seed + trial + 7,
            audit_mode=AUDIT_COUNTS,
        )
        baseline = pac_baseline(
            base_session, train=args.examples, test=args.examples,
            r_probe=args.baseline_r, rng_seed=args.seed + trial,
        )
        baseline_errors.append(baseline["holdout_error"])
    gate_target = PrfTarget(
        args.n, 0, args.variant, key_seed=args.seed
    )
    report = {
        "variant": args.variant,
        "n": args.n,
        "trials": args.trials,
        "examples": args.examples,
        "recovery_rate": recoveries / args.trials if args.variant == VARIANT_G else None,
        "baseline_mean_error": float(np.mean(baseline_errors)),
        "baseline_errors": baseline_errors,
        "prf_gate": prf_quality(gate_target, samples=args.prf_samples),
    }
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------- audit


_AUDIT_KEYS = ("op", "point", "anchor", "dist", "resp", "seq")
_OP_CODES = {op: code for code, op in enumerate(AUDIT_OPS)}
_AUDIT_CHUNK = 1 << 16  # lines read and checked at a time


def _is_int64(value) -> bool:
    return type(value) is int and -(1 << 63) <= value < 1 << 63


def _record_problem(rec, width: int | None) -> str | None:
    """Why one parsed audit record is malformed, or None; `width` is the
    log's point width, None while reading its first record."""
    if not isinstance(rec, dict):
        return "record is not a JSON object"
    for key in _AUDIT_KEYS:
        if key not in rec:
            return f"missing key {key!r}"
    op, point = rec["op"], rec["point"]
    if type(op) is not str or op not in _OP_CODES:
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
    return None


def _json_columns(lines: list[bytes], width: int | None, lineno: int):
    """Op codes, point masks, anchors (-1 for null) and dists of a chunk of
    audit lines, and the log's point width, read one JSON record per line
    under the rules of `_record_problem`. Raises AuditLogError naming the
    first bad line; `lineno` is the chunk's first line."""
    codes, masks, anchors, dists = [], [], [], []
    for offset, line in enumerate(lines):
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise AuditLogError(lineno + offset, f"bad JSON: {exc}") from None
        problem = _record_problem(rec, width)
        if problem:
            raise AuditLogError(lineno + offset, problem)
        width = len(rec["point"])
        codes.append(_OP_CODES[rec["op"]])
        masks.append(int(rec["point"][::-1], 2))  # digit k is bit k
        anchors.append(-1 if rec["anchor"] is None else rec["anchor"])
        dists.append(rec["dist"])
    columns = [np.array(codes, np.uint8)] + [np.array(c, np.int64) for c in (masks, anchors, dists)]
    return *columns, width


_MAX_DIGITS = 18  # any decimal of at most 18 digits fits int64
_MAX_RESP_WORDS = 4  # longest resp text the fast path reads, in 8-byte words
_BYTE = np.uint64(0xFF)
_LOW_BITS = np.uint64(0x0101010101010101)  # bit 0 of every byte
_GATHER_BITS = np.uint64(0x0102040810204080)  # moves bit 0 of byte k to bit 56 + k


def _low_bytes(count: int) -> np.uint64:
    return np.uint64((1 << 8 * count) - 1)


def _at(words: np.ndarray, offsets: np.ndarray, text: bytes) -> bool:
    """Whether `text` occurs at every offset in `offsets`."""
    for k in range(0, len(text), 8):
        piece = text[k : k + 8]
        if ((words[offsets + k] & _low_bytes(len(piece))) != int.from_bytes(piece, "little")).any():
            return False
    return True


def _canonical_integers(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Nonnegative integers written at [starts, starts + lengths) as plain
    decimals of at most _MAX_DIGITS digits with no sign and no leading
    zero, or None if any field is not."""
    values = np.zeros(starts.size, dtype=np.int64)
    if not starts.size:
        return values
    if lengths.min() < 1 or lengths.max() > _MAX_DIGITS:
        return None
    for j in range(int(lengths.max())):
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
    """Fast path of `_json_columns` for a chunk in which every line is
    exactly as `OracleSession.write_audit_jsonl` writes it: keys sorted,
    one space after each separator, plain decimal integers, a JSON number
    as resp, and `"noisy": true` in every line or in none. Returns the
    same columns as `_json_columns`, or None for any other chunk, which
    then takes the JSON path.

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
    if per_line not in (5, 6) or commas.size != per_line * count:
        return None
    # the commas after anchor, dist, [noisy,] op, point and resp, if
    # every line has per_line; else some value below comes out empty
    commas = commas.reshape(count, per_line)
    if per_line == 6:
        after_anchor, after_dist, after_noisy, after_op, after_point, after_resp = commas.T
        flag = b', "noisy": true'
        if (after_noisy != after_dist + len(flag)).any() or not _at(words, after_dist, flag):
            return None
    else:
        after_anchor, after_dist, after_op, after_point, after_resp = commas.T
        after_noisy = after_dist
    layout = {  # key: (offset of the segment before its value, segment, end of value)
        "anchor": (starts, b'{"anchor": ', after_anchor),
        "dist": (after_anchor, b', "dist": ', after_dist),
        "op": (after_noisy, b', "op": "', after_op - 1),
        "point": (after_op - 1, b'", "point": "', after_point - 1),
        "resp": (after_point - 1, b'", "resp": ', after_resp),
        "seq": (after_resp, b', "seq": ', ends - 1),
    }
    start = {key: offset + len(text) for key, (offset, text, _) in layout.items()}
    length = {key: stop - start[key] for key, (_, _, stop) in layout.items()}
    if min(int(lengths.min()) for lengths in length.values()) < 1:
        return None
    # every value is nonempty, so each constant segment lies inside its line
    segments = [(offset, text) for offset, text, _ in layout.values()] + [(ends - 1, b"}")]
    if not all(_at(words, offset, text) for offset, text in segments):
        return None

    # op: told apart by length and first byte, then confirmed
    first = words[start["op"]] & _BYTE
    codes = np.where(
        length["op"] == len("mq_violation"),
        _OP_CODES["mq_violation"],
        np.where(first == ord("e"), _OP_CODES["ex"], _OP_CODES["mq"]),
    ).astype(np.uint8)
    for op, code in _OP_CODES.items():
        rows = codes == code
        if (length["op"][rows] != len(op)).any() or not _at(words, start["op"][rows], op.encode()):
            return None

    if width is None:
        width = int(length["point"][0])
    if not 1 <= width <= MAX_BITS or (length["point"] != width).any():
        return None
    masks = np.zeros(count, dtype=np.int64)
    for k in range(0, width, 8):  # eight digits, variable k first, per gather
        low = _low_bytes(min(8, width - k))
        word = words[start["point"] + k] & low
        if ((word | _LOW_BITS) & low != np.uint64(0x3131313131313131) & low).any():
            return None  # a byte other than '0' or '1'
        masks |= (((word & _LOW_BITS) * _GATHER_BITS) >> np.uint64(56)).astype(np.int64) << k

    null = (words[start["anchor"]] & _BYTE) == ord("n")
    if (length["anchor"][null] != 4).any() or not _at(words, start["anchor"][null], b"null"):
        return None
    values = [
        _canonical_integers(words, start["anchor"][~null], length["anchor"][~null]),
        _canonical_integers(words, start["dist"], length["dist"]),
        _canonical_integers(words, start["seq"], length["seq"]),
    ]
    if any(v is None for v in values):
        return None
    anchors = np.full(count, -1, dtype=np.int64)
    anchors[~null], dists, _ = values

    # resp: each distinct text must parse, alone, as a JSON number
    nwords = -(-int(length["resp"].max()) // 8)
    if nwords > _MAX_RESP_WORDS:
        return None
    resp = np.stack(
        [words[np.minimum(start["resp"] + 8 * k, words.size - 1)] for k in range(nwords)], axis=1
    ).view(np.uint8)
    resp[np.arange(8 * nwords) >= length["resp"][:, None]] = 0
    for text in np.unique(resp.view(f"S{8 * nwords}")).tolist():
        try:
            value = json.loads(text)
        except ValueError:
            return None
        if type(value) not in (int, float):
            return None
    return codes, masks, anchors, dists, width


def _check_audit_log(fh) -> dict:
    """Summarise a JSONL audit log and recompute the distance of every
    query, answered or refused, from the example its anchor names. A
    query whose anchor is null, negative or not yet drawn, or whose
    logged distance is wrong, counts as a distance mismatch. Reads the
    log in chunks and keeps one int64 mask per example."""
    ex_masks = np.zeros(1024, dtype=np.int64)
    ex_count = mq = max_dist = violations = mismatches = 0
    distinct = None  # made once the log's width is known
    width = None
    lineno = 1
    for lines in iter(lambda: list(islice(fh, _AUDIT_CHUNK)), []):
        columns = _canonical_columns(lines, width)
        if columns is None:
            columns = _json_columns(lines, width, lineno)
        codes, masks, anchors, dists, width = columns
        lineno += len(lines)
        is_ex = codes == _OP_CODES["ex"]
        drawn = ex_count + np.cumsum(is_ex) - is_ex  # examples before each record
        new = masks[is_ex]
        if ex_count + new.size > ex_masks.size:
            grown = np.zeros(max(2 * ex_masks.size, ex_count + new.size), dtype=np.int64)
            grown[:ex_count] = ex_masks[:ex_count]
            ex_masks = grown
        ex_masks[ex_count : ex_count + new.size] = new
        ex_count += new.size
        is_query = ~is_ex
        queries, anchor, dist = masks[is_query], anchors[is_query], dists[is_query]
        named = (anchor >= 0) & (anchor < drawn[is_query])
        true_dist = np.bitwise_count(queries[named] ^ ex_masks[anchor[named]])
        mismatches += int(np.count_nonzero(~named) + np.count_nonzero(true_dist != dist[named]))
        answered = codes[is_query] == _OP_CODES["mq"]
        violations += int(np.count_nonzero(~answered))
        if answered.any():
            mq += int(np.count_nonzero(answered))
            max_dist = max(max_dist, int(dist[answered].max()))
            if distinct is None:
                distinct = DistinctMasks(width)
            distinct.add(queries[answered])
    return {
        "ex_count": ex_count,
        "mq_count": mq,
        "max_locality_used": max_dist,
        "distinct_mq_points": 0 if distinct is None else len(distinct),
        "violations": violations,
        "distance_mismatches": mismatches,
    }


def _cmd_audit(args) -> int:
    with open(args.infile, "rb") as fh:
        summary = _check_audit_log(fh)
    _emit(summary, args.out)
    return 0 if summary["distance_mismatches"] == 0 else 1


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="localmq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="write JSON here instead of stdout")

    g = sub.add_parser("gen-target", help="emit a random target as JSON")
    g.add_argument("--kind", required=True, choices=["sparse-poly", "decision-tree", "dnf"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--t", type=int, default=4)
    g.add_argument("--B", type=float, default=None)
    g.add_argument("--max-degree", type=int, default=4)
    g.add_argument("--leaves", type=int, default=8)
    g.add_argument("--depth", type=int, default=None)
    g.add_argument("--s", type=int, default=4)
    g.add_argument("--width", type=int, default=3)
    g.add_argument("--domain", default=None, choices=[ZERO_ONE, PLUS_MINUS])
    common(g)
    g.set_defaults(fn=_cmd_gen_target)

    d = sub.add_parser("gen-dist", help="emit a distribution as JSON")
    d.add_argument("--kind", required=True, choices=["uniform", "product", "table"])
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--alpha", type=float, default=1.5)
    d.add_argument("--mu-lo", type=float, default=-0.4)
    d.add_argument("--mu-hi", type=float, default=0.4)
    d.add_argument("--domain", default=None, choices=[ZERO_ONE, PLUS_MINUS])
    common(d)
    d.set_defaults(fn=_cmd_gen_dist)

    l = sub.add_parser("learn", help="run a learner; generates an instance if no --target")
    l.add_argument("--algo", required=True, choices=sorted(_ALGOS))
    l.add_argument("--target", default=None, help="target JSON path")
    l.add_argument("--dist", default=None, help="distribution JSON path")
    l.add_argument("--n", type=int, default=14)
    l.add_argument("--eps", type=float, default=0.1)
    l.add_argument("--delta", type=float, default=0.05)
    l.add_argument("--t", type=int, default=None)
    l.add_argument("--B", type=float, default=None)
    l.add_argument("--s", type=int, default=None)
    l.add_argument("--depth", type=int, default=None)
    l.add_argument("--alpha", type=float, default=None)
    l.add_argument("--d", type=int, default=None)
    l.add_argument("--theta", type=float, default=None)
    l.add_argument("--d-prime", type=int, default=None)
    l.add_argument("--test-samples", type=int, default=2000,
                   help="samples per admission test (desk-scale default)")
    l.add_argument("--est-samples", type=int, default=None)
    l.add_argument("--reg-samples", type=int, default=None)
    l.add_argument("--holdout-samples", type=int, default=None)
    l.add_argument("--cap", type=int, default=None)
    l.add_argument("--max-degree", type=int, default=4)
    l.add_argument("--width", type=int, default=3)
    l.add_argument("--mu-lo", type=float, default=-0.4)
    l.add_argument("--mu-hi", type=float, default=0.4)
    l.add_argument("--eta", type=float, default=0.0, help="persistent noise rate")
    l.add_argument("--r", type=int, default=None, help="locality budget override")
    l.add_argument("--audit-out", default=None, help="write JSONL audit log here")
    l.add_argument("--timing", action="store_true")
    common(l)
    l.set_defaults(fn=_cmd_learn)

    v = sub.add_parser("verify", help="run a lemma-invariant suite")
    v.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--alpha", type=float, default=None)
    v.add_argument("--trials", type=int, default=None)
    common(v)
    v.set_defaults(fn=_cmd_verify)

    r = sub.add_parser(
        "reduce",
        help="exercise the embedding simulator",
        description="Embed a random tree over n bits with a distance-(2k+1) code of "
        "length m, simulate examples of the embedded function, and check the "
        "correlation identity exactly. The check enumerates all 2^m words, so "
        "codes with m > 20 exit 3 (any n <= 30 builds a code).",
    )
    r.add_argument("--n", type=int, default=6, help="message bits")
    r.add_argument("--k", type=int, default=1, help="query radius, 0 to 3")
    r.add_argument("--draws", type=int, default=10000)
    common(r)
    r.set_defaults(fn=_cmd_reduce)

    s = sub.add_parser("demo-separation", help="secret recovery vs examples-only baseline")
    s.add_argument("--variant", default=VARIANT_G, choices=[VARIANT_G, VARIANT_GPRIME])
    s.add_argument("--n", type=int, default=8)
    s.add_argument("--examples", type=int, default=200)
    s.add_argument("--trials", type=int, default=10)
    s.add_argument("--baseline-r", type=int, default=0)
    s.add_argument("--prf-samples", type=int, default=100000)
    common(s)
    s.set_defaults(fn=_cmd_demo_separation)

    a = sub.add_parser("audit", help="summarize and validate a JSONL audit log")
    a.add_argument("--infile", required=True)
    common(a)
    a.set_defaults(fn=_cmd_audit)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except ContractViolation as exc:
        sys.stderr.write(f"contract violation: {exc}\n")
        return EXIT_CONTRACT
    except AuditLogError as exc:
        sys.stderr.write(f"corrupt audit log: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
