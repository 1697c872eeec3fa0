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

import numpy as np

from . import audit, generators
from .distributions import Distribution, random_smooth_table, verify_smoothness
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


def _cmd_audit(args) -> int:
    with open(args.infile, "rb") as fh:
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
