"""Command line interface.

Subcommands: gen-target, gen-dist, learn, verify, reduce,
demo-separation, audit. Every run is a pure function of its arguments:
given the same --seed the emitted JSON is byte-identical (timing is only
included under --timing). Usage errors exit 2, contract violations (a
negative --seed among them, codes that cannot be built, and files that
cannot be opened, read or created) 3, budget overruns 4, failing
verification suites and corrupt or inconsistent audit logs 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import audit, generators
from .distributions import Distribution, random_smooth_table, verify_smoothness
from .errors import AuditLogError, BudgetExceededError, CodeConstructionError, ContractViolation
from .learners import (
    LearnerConfig,
    learn_dnf,
    learn_logdepth_tree,
    learn_sparse_poly,
    learn_tree_product,
    learn_tree_uniform,
)
from .noise import NoiseWrapper
from .oracles import AUDIT_COUNTS, AUDIT_FULL, OracleSession
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


def _open(path: str, mode: str):
    """`open`, refusing a file that cannot be opened (exit 3)."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ContractViolation(f"cannot open {path}: {exc.strerror or exc}") from None


def _check_out(path: str) -> None:
    """Refuse, before any work, an output that cannot be created (exit 3); the probe
    truncates nothing, removes only a file it made, and leaves a device or pipe alone."""
    existed = os.path.lexists(path)
    if not existed or os.path.isfile(path) or os.path.isdir(path):
        _open(path, "a").close()
        if not existed:
            os.remove(path)


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        with _open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str, read):
    """`read` of the JSON object in the file at `path`, refusing a file
    that is not JSON or whose object `read` cannot take (exit 3)."""
    with _open(path, "r") as fh:
        try:
            return read(json.load(fh))
        except ContractViolation:
            raise
        except (AttributeError, KeyError, OverflowError, RecursionError, TypeError,
                ValueError) as exc:
            raise ContractViolation(f"cannot read {path}: {type(exc).__name__}: {exc}") from None


def _counts_session(target, r: int, seed: int) -> OracleSession:
    """A counts-only session over the uniform distribution on the target's cube."""
    return OracleSession(
        target, Distribution.uniform(target.n, PLUS_MINUS), r=r, seed=seed, audit_mode=AUDIT_COUNTS
    )


# ------------------------------------------------------------------ instances


# per algorithm, `learn`'s generated instance: target kind, its size (--t,
# or --s for a DNF) and depth bound when those flags are not given, the
# distribution kind, the domain of both, and the class parameters that the
# learner requires, read off the instance when their flags are not given
_INSTANCES = {
    "sparse-poly": ("sparse-poly", 4, None, "table", ZERO_ONE, ("t", "B", "alpha")),
    "logdepth-tree": ("decision-tree", 8, 3, "uniform", PLUS_MINUS, ("depth", "alpha")),
    "tree-uniform": ("decision-tree", 4, None, "uniform", PLUS_MINUS, ("t",)),
    "tree-product": ("decision-tree", 8, None, "product", PLUS_MINUS, ("t",)),
    "dnf": ("dnf", 4, None, "uniform", PLUS_MINUS, ("s",)),
}


def _make_target(kind, n, size, rng, depth=None, max_degree=None, width=None, domain=None, B=None):
    """A random target of `kind` with `size` monomials, leaves or terms;
    each kind reads its own shape arguments, and `domain` defaults to
    {0,1} for a polynomial and +-1 otherwise."""
    if kind == "sparse-poly":
        return generators.random_sparse_poly(
            n, size, rng, max_degree=max_degree, domain=domain or ZERO_ONE, B=B
        )
    if kind == "decision-tree":
        return generators.random_tree(n, size, rng, max_depth=depth, domain=domain or PLUS_MINUS)
    return generators.random_dnf(n, size, rng, width=width, domain=domain or PLUS_MINUS)


def _make_dist(kind, n, rng, domain, alpha, mu_lo, mu_hi):
    if kind == "uniform":
        return Distribution.uniform(n, domain)
    if kind == "product":
        return Distribution.product(generators.random_product_means(n, rng, mu_lo, mu_hi), domain)
    return random_smooth_table(n, alpha, rng, domain=domain)


def _cmd_gen_target(args) -> int:
    rng = np.random.default_rng([args.seed, 0x7A12])
    size = {"sparse-poly": args.t, "decision-tree": args.leaves, "dnf": args.s}[args.kind]
    target = _make_target(
        args.kind, args.n, size, rng, args.depth, args.max_degree, args.width, args.domain, args.B
    )
    _emit(target_to_json(target), args.out)
    return 0


def _cmd_gen_dist(args) -> int:
    rng = np.random.default_rng([args.seed, 0xD157])
    dist = _make_dist(
        args.kind, args.n, rng, args.domain or PLUS_MINUS, args.alpha, args.mu_lo, args.mu_hi
    )
    obj = dist.to_json()
    obj["alpha_star"] = verify_smoothness(dist)
    _emit(obj, args.out)
    return 0


# ---------------------------------------------------------------------- learn


def _cmd_learn(args) -> int:
    rng = np.random.default_rng([args.seed, 0x1EA2])
    config = {f.name: getattr(args, f.name) for f in fields(LearnerConfig)}
    if args.target:
        target = _load_json(args.target, target_from_json)
        dist = (
            _load_json(args.dist, Distribution.from_json)
            if args.dist
            else Distribution.uniform(target.n, target.domain)
        )
    else:  # generated from the seed, so demo runs are self-contained
        kind, size, depth, dist_kind, domain, required = _INSTANCES[args.algo]
        size = (args.s if kind == "dnf" else args.t) or size
        target = _make_target(
            kind, args.n, size, rng, args.depth or depth, args.max_degree, args.width, domain
        )
        dist = _make_dist(dist_kind, args.n, rng, domain, args.alpha or 1.5, args.mu_lo, args.mu_hi)
        read = dict(t=lambda: size, s=lambda: size, depth=lambda: depth,
                    B=lambda: target.coeff_bound, alpha=lambda: verify_smoothness(dist))
        config.update({name: read[name]() for name in required if config[name] is None})
    config = LearnerConfig(**config)
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
    log = _open(args.audit_out, "w") if args.audit_out else None
    try:
        outcome = _ALGOS[args.algo](session, config)
    finally:
        # a failed run keeps its log, including the record that ended it
        if log:
            with log:
                session.write_audit_jsonl(log)
    run_config = {
        "algo": args.algo,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "seed": args.seed,
        "r": r,
        "eta": args.eta,
        "test_samples": args.m,
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
    return 0 if all(r["passed"] for r in report.get("suites", [report])) else 1


# --------------------------------------------------------------------- reduce


def _cmd_reduce(args) -> int:
    rng = np.random.default_rng([args.seed, 0x2ED0])
    tree = lambda rng: _make_target("decision-tree", args.n, 8, rng, depth=min(4, args.n))
    base = tree(rng)
    embedded = embed(base, args.k, coin_seed=args.seed)
    # pure and on their own streams, so a code too long for them is refused before any draw
    residuals = []
    for trial in range(5):
        g = tree(np.random.default_rng([args.seed, trial, 0x6]))
        lhs, rhs = correlation_check(g, embedded)
        residuals.append(abs(lhs - rhs))
    sim = ReductionSimulator(embedded, _counts_session(base, 0, args.seed), seed=args.seed)
    sim.draw_batch(args.draws)
    report = reduction_report(embedded, sim)
    report["correlation_residuals"] = residuals
    report["max_correlation_residual"] = max(residuals)
    _emit(report, args.out)
    return 0


# ----------------------------------------------------------- demo-separation


def _cmd_demo_separation(args) -> int:
    if args.trials < 1:
        raise ContractViolation(f"--trials {args.trials} must be >= 1")
    gate_target = PrfTarget(args.n, 0, args.variant, key_seed=args.seed)
    prf_gate = prf_quality(gate_target, samples=args.prf_samples)
    recoveries = 0
    baseline_errors = []
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, trial, 0x5E9])
        secret = int(rng.integers(0, 1 << args.n))
        target = PrfTarget(args.n, secret, args.variant, key_seed=args.seed + trial)
        if args.variant == VARIANT_G:
            result = learn_g_onelocal(_counts_session(target, 1, args.seed + trial), args.examples)
            if result["recovered"] == secret:
                recoveries += 1
        baseline = pac_baseline(
            _counts_session(target, args.baseline_r, args.seed + trial + 7),
            train=args.examples, test=args.examples,
            r_probe=args.baseline_r, rng_seed=args.seed + trial,
        )
        baseline_errors.append(baseline["holdout_error"])
    report = {
        "variant": args.variant,
        "n": args.n,
        "trials": args.trials,
        "examples": args.examples,
        "recovery_rate": recoveries / args.trials if args.variant == VARIANT_G else None,
        "baseline_mean_error": float(np.mean(baseline_errors)),
        "baseline_errors": baseline_errors,
        "prf_gate": prf_gate,
    }
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------- audit


def _cmd_audit(args) -> int:
    with _open(args.infile, "rb") as fh:
        summary = audit.check_log(fh)
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
    l.add_argument("--eps", dest="epsilon", metavar="EPS", type=float, default=0.1)
    l.add_argument("--delta", type=float, default=0.05)
    l.add_argument("--t", type=int, default=None)
    l.add_argument("--B", type=float, default=None)
    l.add_argument("--s", type=int, default=None)
    l.add_argument("--depth", type=int, default=None)
    l.add_argument("--alpha", type=float, default=None)
    l.add_argument("--d", type=int, default=None)
    l.add_argument("--theta", type=float, default=None)
    l.add_argument("--d-prime", type=int, default=None)
    l.add_argument("--test-samples", dest="m", metavar="TEST_SAMPLES", type=int, default=2000,
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
        "codes with m > 20 exit 3; every k up to 3 builds a code for n <= 30.",
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
        if args.seed < 0:  # numpy seed sequences take no negative entry; refused alike everywhere
            raise ContractViolation(f"--seed {args.seed} must be >= 0")
        if args.out:  # every command writes its report after its work
            _check_out(args.out)
        return args.fn(args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except (ContractViolation, CodeConstructionError) as exc:
        sys.stderr.write(f"contract violation: {exc}\n")
        return EXIT_CONTRACT
    except AuditLogError as exc:
        sys.stderr.write(f"corrupt audit log: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
