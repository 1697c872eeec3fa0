"""The benchmark's workloads: fixed instances, trials and their checks.

Each workload builds its instances once (set-up), then runs rounds. A
round runs every trial of the workload once, one after the other, each
with its own seed from the schedule in `trial_seed`. A trial is timed
from session construction to the learner's outcome, or over one CLI
command, or over one batch of simulated queries. Its correctness check
runs afterwards, outside the timed region.

Instances are fixed per workload (the acceptance-test instance of each
shape); the benchmark seed moves the sampling streams. Per-instance cost
varies several-fold (a c06-shaped DNF takes 7 s on one instance and 46 s
on the next), which a run of a few rounds cannot average out. Sample
sizes (m, est_samples, CLI sample and trial counts) are smaller than the
acceptance tests use, so that a round takes a few seconds and a run holds
several rounds; every trial still meets its acceptance error bound.

The program is reached only through `localmq.*` and `localmq.cli.main`,
looked up at call time so that a traced pass sees the wrapped names.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import localmq as lq
from localmq import cli, distributions, generators
from localmq.oracles import AUDIT_COUNTS


def trial_seed(seed: int, round_index: int, slot: int) -> int:
    """Seed of one trial, derived from the benchmark seed."""
    state = np.random.SeedSequence([seed, round_index, slot]).generate_state(1)
    return int(state[0] >> 1)


@dataclass
class Trial:
    name: str
    seconds: float = 0.0
    ex: int = 0                    # examples drawn, real plus simulated
    mq: int = 0                    # membership queries answered, real plus simulated
    distinct: int | None = None    # distinct query points, where tracked
    error: float | None = None     # exact error of the learned hypothesis
    counts: dict = field(default_factory=dict)   # must repeat exactly per seed
    failures: list = field(default_factory=list)  # [check id, detail]

    def fail(self, check: str, detail: str) -> None:
        self.failures.append([f"{self.name}.{check}", detail])


def _no_span(_name):
    return contextlib.nullcontext()


def timed(trial: Trial, span, body):
    """Run `body()` as the trial's timed region and return its result. An
    exception fails the trial instead of the run, and gives None."""
    with span("bench.trial"):
        start = time.perf_counter()
        try:
            return body()
        except Exception as exc:
            trial.fail("raised", f"{type(exc).__name__}: {exc}")
            return None
        finally:
            trial.seconds = time.perf_counter() - start


# ------------------------------------------------------------ learner trials


@dataclass(frozen=True)
class LearnerShape:
    """One acceptance-shaped learner trial on a fixed instance."""

    name: str
    learner: str          # attribute of `localmq`
    target: object
    dist: object
    r: int
    config: dict
    bound: float          # acceptance bound on the exact error
    loss: str = "zero_one"  # or "squared"
    noise: object = None


def run_learner(shape: LearnerShape, seed: int, span=_no_span) -> Trial:
    trial = Trial(shape.name)

    def body():
        session = lq.OracleSession(
            shape.target, shape.dist, r=shape.r, seed=seed,
            noise=shape.noise, audit_mode=AUDIT_COUNTS,
        )
        out = getattr(lq, shape.learner)(session, lq.LearnerConfig(seed=seed, **shape.config))
        return out, session.audit_report()

    done = timed(trial, span, body)
    if done is None:
        return trial
    out, rep = done
    trial.ex, trial.mq, trial.distinct = rep.ex_count, rep.mq_count, rep.distinct_mq_points
    trial.counts = {
        "ex": rep.ex_count,
        "mq": rep.mq_count,
        "distinct": rep.distinct_mq_points,
        "tests": len(out.test_log),
        "admitted": len(out.grown_sets),
    }
    with span("verify.exact_check"):
        verifier = lq.VerifierOracle()
        if shape.loss == "squared":
            err = verifier.exact_sq_loss(shape.target, out.hypothesis, shape.dist)
        else:
            err = verifier.exact_01_error(shape.target, out.hypothesis, shape.dist)
    trial.error = err
    if not err <= shape.bound:
        trial.fail("exact_error", f"{err:.4f} > {shape.bound}")
    if rep.violations:
        trial.fail("violations", str(rep.violations))
    reach = out.params["d"] + out.params.get("d_prime", 0)
    if rep.max_locality_used > reach:
        trial.fail("locality", f"{rep.max_locality_used} > {reach}")
    return trial


def _uniform(n):
    return lq.Distribution.uniform(n, lq.PLUS_MINUS)


class Learners:
    """The five learners on their acceptance-test instances, then the audit
    round trip. A round runs the uniform-L2 trials (c06, c04), the
    non-uniform and noisy ones (c02, c05, c07), and `learn --audit-out`
    followed by `audit --infile`."""

    # every OracleSession a round opens reports its counts in a trial
    every_session_reported = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        s_terms, eps = 4, 0.1
        dnf = generators.random_dnf(14, s_terms, np.random.default_rng([6, 1]), width=3)
        tree = generators.random_tree(16, 16, np.random.default_rng([4, 1]), max_depth=4)
        rng = np.random.default_rng([2, 1])
        poly = generators.random_sparse_poly(16, 6, rng, max_degree=4, coeff_choices=(-2.0, -1.0, 1.0, 2.0), B=2.0)
        table = distributions.random_smooth_table(16, 1.5, rng, domain=lq.ZERO_ONE)
        table.sample_batch(np.random.default_rng(0), 1)  # builds the table's CDF
        rng = np.random.default_rng([5, 1])
        ptree = generators.random_tree(14, 16, rng, max_depth=5)
        product = lq.Distribution.product(generators.random_product_means(14, rng), lq.PLUS_MINUS)
        ntree = generators.random_tree(12, 8, np.random.default_rng([7, 3, 1]), max_depth=3)
        self.audit = AuditRoundTrip(workdir)
        self.shapes = (
            LearnerShape(
                "c06-dnf", "learn_dnf", dnf, _uniform(14),
                r=math.ceil(math.log2(s_terms / eps)),
                config=dict(epsilon=eps, delta=0.05, s=s_terms, m=1000, est_samples=30_000),
                bound=0.1,
            ),
            LearnerShape(
                "c04-tree-uniform", "learn_tree_uniform", tree, _uniform(16), r=16,
                config=dict(epsilon=0.08, delta=0.05, t=4, m=700, est_samples=30_000),
                bound=0.05,
            ),
            LearnerShape(
                "c02-sparse-poly", "learn_sparse_poly", poly, table, r=16,
                config=dict(epsilon=0.05, delta=0.05, t=6, B=2.0, alpha=1.5, m=700),
                bound=0.05, loss="squared",
            ),
            LearnerShape(
                "c05-tree-product", "learn_tree_product", ptree, product, r=14,
                config=dict(epsilon=0.08, delta=0.05, t=16, m=300, est_samples=30_000),
                bound=0.08,
            ),
            LearnerShape(
                "c07-noisy-logdepth", "learn_logdepth_tree", ntree, _uniform(12), r=12,
                config=dict(epsilon=0.1, delta=0.05, depth=3, alpha=1.0, t=8, m=6_000, cap=512),
                bound=0.1, noise=lq.NoiseWrapper(0.1, seed=1 + 731),
            ),
        )

    def run_round(self, index: int, span=_no_span) -> list[Trial]:
        trials = [
            run_learner(shape, trial_seed(self.seed, index, slot), span)
            for slot, shape in enumerate(self.shapes)
        ]
        return trials + self.audit.run(trial_seed(self.seed, index, len(self.shapes)), span)


# ---------------------------------------------------------------- CLI trials


def run_cli(name: str, argv: list[str], out: Path, span=_no_span) -> tuple[Trial, dict | None]:
    """One in-process CLI command writing its JSON report to `out`."""
    trial = Trial(name)
    rc = timed(trial, span, lambda: cli.main([*argv, "--out", str(out)]))
    if rc is None:
        return trial, None
    if rc != 0:
        trial.fail("exit_code", str(rc))
    if not out.exists():
        return trial, None
    report = json.loads(out.read_text())
    out.unlink()
    return trial, report


class AuditRoundTrip:
    """learn --audit-out, then audit --infile on the written log."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.target_path = workdir / "target.json"
        # the instance `localmq learn --algo tree-uniform --seed 3` generates
        tree = generators.random_tree(12, 8, np.random.default_rng([3, 0x1EA2]), max_depth=3)
        self.target_path.write_text(json.dumps(lq.target_to_json(tree)))

    def run(self, seed: int, span=_no_span) -> list[Trial]:
        log = self.workdir / "audit.jsonl"
        argv = [
            "learn", "--algo", "tree-uniform", "--target", str(self.target_path),
            "--n", "12", "--t", "8", "--depth", "3", "--eps", "0.1",
            "--test-samples", "100", "--est-samples", "3000",
            "--audit-out", str(log), "--seed", str(seed),
        ]
        learn, report = run_cli("learn-audit-out", argv, self.workdir / "learn.json", span)
        trials = [learn]
        if report is None:
            return trials
        counts = report["outcome"]["audit"]
        records = counts["ex_count"] + counts["mq_count"] + counts["violations"]
        learn.ex, learn.mq, learn.distinct = counts["ex_count"], counts["mq_count"], counts["distinct_mq_points"]
        learn.counts = {**counts, "records": records}
        audit, summary = run_cli("audit", ["audit", "--infile", str(log)], self.workdir / "audit.json", span)
        trials.append(audit)
        log.unlink()
        if summary is not None:
            audit.counts = {"records": summary["ex_count"] + summary["mq_count"] + summary["violations"]}
            with span("verify.exact_check"):
                if summary["distance_mismatches"] != 0:
                    audit.fail("distance_mismatches", str(summary["distance_mismatches"]))
                for key, want in counts.items():
                    if summary.get(key) != want:
                        audit.fail(f"summary.{key}", f"{summary.get(key)} != {want}")
        return trials


class ExactReduction:
    """Lemma suites, the reduction, both separation demos, and batches of
    simulated k-local queries through the scalar `local_query`."""

    # the CLI's separation demos open sessions whose counts no report shows
    every_session_reported = False

    batches = 2
    batch_examples = 2500

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.base = generators.random_tree(6, 8, np.random.default_rng([8, 1]), max_depth=4)
        self.embedded = lq.embed(self.base, 1, coin_seed=81)
        m, k = self.embedded.m, self.embedded.code.k
        self.ball = [
            sum(1 << j for j in flips)
            for radius in range(k + 1)
            for flips in itertools.combinations(range(m), radius)
        ]

    def _query_batch(self, seed: int, span) -> Trial:
        trial = Trial("simulated-queries")

        def body():
            base_session = lq.OracleSession(
                self.base, _uniform(6), r=0, seed=seed, audit_mode=AUDIT_COUNTS
            )
            sim = lq.ReductionSimulator(self.embedded, base_session, seed=seed)
            indices, masks, _ = sim.draw_batch(self.batch_examples)
            words, answers = [], []
            for anchor, word in zip(indices.tolist(), masks.tolist()):
                for flip in self.ball:
                    words.append(word ^ flip)
                    answers.append(sim.local_query(word ^ flip, anchor))
            return sim, base_session, words, answers

        done = timed(trial, span, body)
        if done is None:
            return trial
        sim, base_session, words, answers = done
        trial.ex = sim.ex_count + base_session.ex_count
        trial.mq = sim.mq_count + base_session.mq_count
        trial.counts = {
            "simulated_ex": sim.ex_count,
            "simulated_mq": sim.mq_count,
            "base_ex": base_session.ex_count,
            "base_mq": base_session.mq_count,
        }
        with span("verify.exact_check"):
            want = self.embedded.label_batch(np.asarray(words, dtype=np.int64))
            wrong = int(np.count_nonzero(want != np.asarray(answers)))
        if wrong:
            trial.fail("answers", f"{wrong} of {len(answers)} differ from label_batch")
        if base_session.mq_count:
            trial.fail("base_mq_count", str(base_session.mq_count))
        return trial

    def run_round(self, index: int, span=_no_span) -> list[Trial]:
        seeds = [str(trial_seed(self.seed, index, slot)) for slot in range(4)]
        out = self.workdir / "report.json"
        trials = []

        verify, report = run_cli(
            "verify-all", ["verify", "--suite", "all", "--trials", "40", "--seed", seeds[0]], out, span
        )
        trials.append(verify)
        if report is not None:
            verify.counts = {"violations": sum(s["violations"] for s in report["suites"])}
            for suite in report["suites"]:
                if not suite["passed"]:
                    verify.fail(f"suite.{suite['suite']}", f"{suite['violations']} violations")

        reduce_, report = run_cli(
            "reduce", ["reduce", "--n", "6", "--k", "1", "--draws", "200000", "--seed", seeds[1]], out, span
        )
        trials.append(reduce_)
        if report is not None:
            reduce_.ex = report["simulated_ex_count"] + report["base_ex_count"]
            reduce_.mq = report["simulated_mq_count"] + report["base_mq_count"]
            reduce_.counts = {
                key: report[key]
                for key in ("simulated_ex_count", "base_ex_count", "simulated_mq_count", "base_mq_count")
            }
            if not report["max_correlation_residual"] <= 1e-12:
                reduce_.fail("correlation_residual", str(report["max_correlation_residual"]))
            if report["base_mq_count"] != 0:
                reduce_.fail("base_mq_count", str(report["base_mq_count"]))

        demos = (
            ("demo-separation-g", ["--variant", "g", "--n", "12", "--examples", "2000", "--trials", "50"]),
            ("demo-separation-gprime", ["--variant", "gprime", "--n", "12", "--baseline-r", "2",
                                        "--examples", "5000", "--trials", "4"]),
        )
        for (name, flags), seed in zip(demos, seeds[2:]):
            demo, report = run_cli(name, ["demo-separation", *flags, "--seed", seed], out, span)
            trials.append(demo)
            if report is None:
                continue
            demo.counts = {
                "recovery_rate": report["recovery_rate"],
                "baseline_mean_error": report["baseline_mean_error"],
            }
            if report["variant"] == "g" and not report["recovery_rate"] >= 49 / 50:
                demo.fail("recovery_rate", f"{report['recovery_rate']} < 49/50")
            gate = report["prf_gate"]
            for key in ("monobit_pass", "serial_pass"):
                if not gate[key]:
                    demo.fail(f"prf_gate.{key}", f"serial correlation {gate['serial_correlation']:.3f}")

        for b in range(self.batches):
            trials.append(self._query_batch(trial_seed(self.seed, index, 4 + b), span))
        return trials


WORKLOADS = {
    "learners": Learners,
    "exact-reduction": ExactReduction,
}
