"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one pass/fail line (run with -s to see them inline). Randomized
criteria run a fixed, published seed schedule so failures replay exactly.
"""

import json
import math
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from localmq import (
    Distribution,
    LearnerConfig,
    LocalityError,
    NoiseWrapper,
    OracleSession,
    PLUS_MINUS,
    PrfTarget,
    SparsePolynomial,
    ZERO_ONE,
    default_params_sparse,
    exact_transform,
    learn_dnf,
    learn_g_onelocal,
    learn_logdepth_tree,
    learn_sparse_poly,
    learn_tree_product,
    learn_tree_uniform,
    noisy_l2_estimate,
    noisy_nonzero_test,
    pac_baseline,
    rcn_collision_prob,
)
from localmq.cli import main as cli_main
from localmq.distributions import random_smooth_table
from localmq.fourier import UNIFORM_PM, ProductBasis, char_values, nonzero_test
from localmq.generators import (
    random_dnf,
    random_product_means,
    random_sparse_poly,
    random_subset,
    random_tree,
)
from localmq.oracles import AUDIT_COUNTS
from localmq.reduction import ReductionSimulator, ball_size, correlation_check, embed
from localmq.separation import VARIANT_G, VARIANT_GPRIME
from localmq.verify import (
    SUITES,
    VerifierOracle,
    agnostic_excess,
    pull_back,
    run_lemma_suite,
)
from localmq._bits import all_masks, popcount

VER = VerifierOracle()


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def counts_session(target, dist, r, seed, noise=None):
    return OracleSession(
        target, dist, r=r, seed=seed, noise=noise, audit_mode=AUDIT_COUNTS
    )


# --------------------------------------------------------------- criterion 1


def test_c01_locality_contract():
    """Zero violations across one run of every learner; the locality cap
    matches the configured degree; a deliberate (d+1)-flip query raises."""
    issues = []
    # sparse polynomial learner
    rng = np.random.default_rng([1, 1])
    f = random_sparse_poly(12, 4, rng, max_degree=3)
    dist = random_smooth_table(12, 1.5, rng, domain=ZERO_ONE)
    s = counts_session(f, dist, r=12, seed=1)
    out = learn_sparse_poly(
        s, LearnerConfig(epsilon=0.1, delta=0.05, t=4, B=2.0, alpha=1.5, m=2000, seed=1)
    )
    rep = s.audit_report()
    if rep.violations or rep.max_locality_used > out.params["d"] + out.params["d_prime"]:
        issues.append("sparse-poly")
    # log-depth tree learner
    tree = random_tree(12, 8, np.random.default_rng([1, 2]), max_depth=3)
    s = counts_session(tree, Distribution.uniform(12, PLUS_MINUS), r=12, seed=2)
    out = learn_logdepth_tree(
        s, LearnerConfig(epsilon=0.1, delta=0.05, depth=3, alpha=1.0, t=8, m=3000, seed=2)
    )
    rep = s.audit_report()
    if rep.violations or rep.max_locality_used > out.params["d"]:
        issues.append("logdepth")
    # uniform tree learner
    tree = random_tree(12, 8, np.random.default_rng([1, 3]), max_depth=3)
    s = counts_session(tree, Distribution.uniform(12, PLUS_MINUS), r=12, seed=3)
    out = learn_tree_uniform(
        s, LearnerConfig(epsilon=0.1, delta=0.05, t=8, m=800, est_samples=20_000, seed=3)
    )
    rep = s.audit_report()
    if rep.violations or rep.max_locality_used > out.params["d"]:
        issues.append("tree-uniform")
    # product tree learner
    rng = np.random.default_rng([1, 4])
    tree = random_tree(12, 8, rng, max_depth=3)
    means = random_product_means(12, rng)
    s = counts_session(tree, Distribution.product(means, PLUS_MINUS), r=12, seed=4)
    out = learn_tree_product(
        s, LearnerConfig(epsilon=0.1, delta=0.05, t=8, m=800, est_samples=20_000, seed=4)
    )
    rep = s.audit_report()
    if rep.violations or rep.max_locality_used > out.params["d"]:
        issues.append("tree-product")
    # DNF learner
    f = random_dnf(12, 3, np.random.default_rng([1, 5]), width=3)
    s = counts_session(f, Distribution.uniform(12, PLUS_MINUS), r=12, seed=5)
    out = learn_dnf(
        s, LearnerConfig(epsilon=0.1, delta=0.05, s=3, m=2000, est_samples=30_000, seed=5)
    )
    rep = s.audit_report()
    if rep.violations or rep.max_locality_used > out.params["d"]:
        issues.append("dnf")
    # deliberate violation fires with the offending distance
    tree = random_tree(10, 4, np.random.default_rng([1, 6]), max_depth=2)
    d_budget = 3
    s = counts_session(tree, Distribution.uniform(10, PLUS_MINUS), r=d_budget, seed=6)
    _, masks, _ = s.draw_batch(1)
    flip = (1 << (d_budget + 1)) - 1  # d+1 bits
    raised = False
    try:
        s.local_query(int(masks[0]) ^ flip, 0)
    except LocalityError as exc:
        raised = exc.distance == d_budget + 1
    if not raised or s.audit_report().violations != 1:
        issues.append("deliberate-violation")
    _report(1, "locality contract", not issues, f"issues={issues or 'none'}")


# --------------------------------------------------------------- criterion 2


def test_c02_sparse_polynomial_recovery():
    """n=16, t=6, degree <= 4, B=2, alpha <= 1.5 smooth tables, default
    parameter formulas: squared loss <= 0.05 and support recovery in >=
    18/20 trials, grown-set budget respected in 20/20, <= 60 s/trial."""
    t, B, eps, alpha = 6, 2.0, 0.05, 1.5
    d, theta, d_prime = default_params_sparse(t, B, eps, alpha)
    cap = t * 2 ** (d + d_prime)
    good = 0
    cap_ok = 0
    slowest = 0.0
    for seed in range(1, 21):
        tic = time.perf_counter()
        rng = np.random.default_rng([2, seed])
        f = random_sparse_poly(
            16, t, rng, max_degree=4, coeff_choices=(-2.0, -1.0, 1.0, 2.0), B=B
        )
        dist = random_smooth_table(16, alpha, rng, domain=ZERO_ONE)
        session = counts_session(f, dist, r=16, seed=seed)
        config = LearnerConfig(
            epsilon=eps, delta=0.05, t=t, B=B, alpha=alpha, m=4000, seed=seed
        )
        out = learn_sparse_poly(session, config)
        assert (out.params["d"], out.params["theta"], out.params["d_prime"]) == (
            d, theta, d_prime,
        )
        loss = VER.exact_sq_loss(f, out.hypothesis, dist)
        support_ok = set(f.truncate(d).terms) <= set(out.hypothesis.coeffs)
        if loss <= 0.05 and support_ok:
            good += 1
        if len(out.grown_sets) <= cap:
            cap_ok += 1
        assert session.audit_report().violations == 0
        slowest = max(slowest, time.perf_counter() - tic)
    _report(
        2,
        "sparse polynomial recovery",
        good >= 18 and cap_ok == 20 and slowest <= 60.0,
        f"good={good}/20 cap_ok={cap_ok}/20 slowest={slowest:.1f}s",
    )


# --------------------------------------------------------------- criterion 3


def test_c03_lemma_suites():
    """Every lemma suite: zero violations over 200 randomized instances,
    margins reported, total under 10 minutes."""
    tic = time.perf_counter()
    failures = []
    margins = {}
    for name in SUITES:
        rep = run_lemma_suite(name, trials=200, seed=0)
        margins[name] = rep["worst_margin"]
        if not rep["passed"]:
            failures.append(name)
    elapsed = time.perf_counter() - tic
    detail = f"{len(SUITES)} suites, worst margins " + ", ".join(
        f"{k}={v:.2e}" for k, v in margins.items()
    )
    _report(3, "lemma suites", not failures and elapsed <= 600, f"{detail}; {elapsed:.0f}s")


# --------------------------------------------------------------- criterion 4


def test_c04_tree_uniform():
    """Random t<=16, depth<=4 trees at n=16, eps=0.08: the pinned
    parameter point echoes d=9, theta=0.01; exact error <= 0.05 in >=
    9/10 trials; heavy-coefficient completeness and heavy-ancestor
    soundness checked against the exact transform in every trial."""
    hits = 0
    closure_ok = True
    dist = Distribution.uniform(16, PLUS_MINUS)
    for seed in range(1, 11):
        rng = np.random.default_rng([4, seed])
        tree = random_tree(16, 16, rng, max_depth=4)
        session = counts_session(tree, dist, r=16, seed=seed)
        config = LearnerConfig(
            epsilon=0.08, delta=0.05, t=4, m=3000, est_samples=200_000, seed=seed
        )
        out = learn_tree_uniform(session, config)
        assert out.params["d"] == 9 and out.params["theta"] == pytest.approx(0.01)
        err = VER.exact_01_error(tree, out.hypothesis, dist)
        if err <= 0.05:
            hits += 1
        spec = exact_transform(tree, UNIFORM_PM)
        theta, d = out.params["theta"], out.params["d"]
        admitted = set(out.grown_sets)
        heavy_in = all(
            s in admitted
            for s, c in spec.coeffs.items()
            if abs(c) >= theta and popcount(s) <= d
        )
        ancestors_ok = all(
            max((abs(c) for t_, c in spec.coeffs.items() if t_ & s == s), default=0.0)
            >= theta**2 / tree.leaf_count
            for s in admitted
        )
        closure_ok = closure_ok and heavy_in and ancestors_ok
        assert session.audit_report().violations == 0
    _report(
        4,
        "uniform decision trees",
        hits >= 9 and closure_ok,
        f"error-ok={hits}/10 closures={'ok' if closure_ok else 'BROKEN'}",
    )


# --------------------------------------------------------------- criterion 5


def test_c05_tree_product():
    """mu_i in [-0.4, 0.4], n=14, t<=16: exact error <= 0.08 in >= 9/10
    trials; basis orthonormality exact to 1e-9."""
    hits = 0
    for seed in range(1, 11):
        rng = np.random.default_rng([5, seed])
        tree = random_tree(14, 16, rng, max_depth=5)
        means = random_product_means(14, rng)
        dist = Distribution.product(means, PLUS_MINUS)
        session = counts_session(tree, dist, r=14, seed=seed)
        config = LearnerConfig(
            epsilon=0.08, delta=0.05, t=16, m=800, est_samples=150_000, seed=seed
        )
        out = learn_tree_product(session, config)
        err = VER.exact_01_error(tree, out.hypothesis, dist)
        if err <= 0.08:
            hits += 1
        assert session.audit_report().violations == 0
    # orthonormality of the basis used, by exact enumeration
    rng = np.random.default_rng([5, 99])
    means = random_product_means(14, rng)
    basis = ProductBasis(tuple(means))
    dist = Distribution.product(means, PLUS_MINUS)
    masks = all_masks(14)
    weights = dist.probs_array()
    worst = 0.0
    for _ in range(20):
        s1 = random_subset(14, 4, rng)
        s2 = random_subset(14, 4, rng)
        inner = math.fsum(
            (
                weights
                * char_values(basis, s1, masks)
                * char_values(basis, s2, masks)
            ).tolist()
        )
        worst = max(worst, abs(inner - (1.0 if s1 == s2 else 0.0)))
    _report(
        5,
        "product decision trees",
        hits >= 9 and worst <= 1e-9,
        f"error-ok={hits}/10 orthonormality-gap={worst:.1e}",
    )


# --------------------------------------------------------------- criterion 6


def test_c06_dnf():
    """s=4, n=14, eps=0.1: exact error <= 0.1 in >= 8/10 trials; grown
    set under the quasi-polynomial cap; every query <= ceil(log2(s/eps))
    local."""
    s_terms, eps = 4, 0.1
    d = math.ceil(math.log2(s_terms / eps))
    hits = 0
    cap_ok = True
    local_ok = True
    dist = Distribution.uniform(14, PLUS_MINUS)
    grown_sizes = []
    for seed in range(1, 11):
        rng = np.random.default_rng([6, seed])
        f = random_dnf(14, s_terms, rng, width=3)
        session = counts_session(f, dist, r=d, seed=seed)
        config = LearnerConfig(
            epsilon=eps, delta=0.05, s=s_terms, m=6000, est_samples=200_000, seed=seed
        )
        out = learn_dnf(session, config)
        err = VER.exact_01_error(f, out.hypothesis, dist)
        if err <= 0.1:
            hits += 1
        grown_sizes.append(len(out.grown_sets))
        cap_ok = cap_ok and len(out.grown_sets) <= out.params["cap"]
        rep = session.audit_report()
        local_ok = local_ok and rep.max_locality_used <= d and rep.violations == 0
    _report(
        6,
        "DNF learning",
        hits >= 8 and cap_ok and local_ok,
        f"error-ok={hits}/10 max|S|={max(grown_sizes)} d={d}",
    )


# --------------------------------------------------------------- criterion 7


def test_c07_noise():
    """Persistent eta=0.1: corrected L2 within 0.02 on 30 random sets;
    corrected non-zero decisions match noiseless decisions on every
    theta/4-margin set; noisy log-depth learning reaches error <= 0.1;
    exact collision probabilities match a 10^7-sample Monte Carlo within
    3 sigma across the (k, eta) grid."""
    eta = 0.1
    # corrected L2 accuracy, 30 random sets on a fixed tree at n=12
    rng = np.random.default_rng([7, 1])
    tree = random_tree(12, 12, rng, max_depth=4)
    spec = exact_transform(tree, UNIFORM_PM)
    session = counts_session(
        tree, Distribution.uniform(12, PLUS_MINUS), r=12, seed=71,
        noise=NoiseWrapper(eta, seed=711),
    )
    worst_l2 = 0.0
    for _ in range(30):
        subset = random_subset(12, 4, rng, min_size=1)
        corrected, _ = noisy_l2_estimate(session, subset, m=30_000)
        worst_l2 = max(worst_l2, abs(corrected - VER.exact_cond_l2(spec, subset)))
    l2_ok = worst_l2 <= 0.02

    # decision agreement on margin sets (depth-2 operating point keeps the
    # distinguisher margin far above the fixed-realization fluctuation)
    rng = np.random.default_rng([7, 2])
    tree2 = random_tree(16, 4, rng, max_depth=2)
    spec2 = exact_transform(tree2, UNIFORM_PM)
    dist16 = Distribution.uniform(16, PLUS_MINUS)
    theta = 1.0 / 8.0
    s_noisy = counts_session(tree2, dist16, r=16, seed=72, noise=NoiseWrapper(eta, seed=721))
    s_clean = counts_session(tree2, dist16, r=16, seed=72)
    candidates = set(spec2.coeffs) | {
        random_subset(16, 2, rng, min_size=1) for _ in range(12)
    }
    decisions_ok = True
    checked = 0
    for subset in sorted(candidates):
        if subset == 0 or popcount(subset) > 2:
            continue
        exact = VER.exact_nonzero_prob(spec2.restrict(subset), dist16, tol=1e-12)
        if abs(exact - theta) < theta / 4:
            continue
        checked += 1
        noisy = noisy_nonzero_test(s_noisy, subset, theta, m=40_000, zero_tol=1e-10)
        clean = nonzero_test(s_clean, subset, theta, zero_tol=1e-10, m=3000)
        decisions_ok = decisions_ok and (
            noisy.passed == clean.passed == (exact >= theta)
        )

    # noisy log-depth learning at n=12 (spurious admissions from the fixed
    # noise realization are harmless, so the cap is widened explicitly)
    learn_ok = True
    for seed in range(1, 4):
        rng = np.random.default_rng([7, 3, seed])
        tree3 = random_tree(12, 8, rng, max_depth=3)
        session3 = counts_session(
            tree3, Distribution.uniform(12, PLUS_MINUS), r=12, seed=seed,
            noise=NoiseWrapper(eta, seed=seed + 731),
        )
        config = LearnerConfig(
            epsilon=0.1, delta=0.05, depth=3, alpha=1.0, t=8, m=60_000,
            cap=512, seed=seed,
        )
        out = learn_logdepth_tree(session3, config)
        err = VER.exact_01_error(
            tree3, out.hypothesis, Distribution.uniform(12, PLUS_MINUS)
        )
        learn_ok = learn_ok and err <= 0.1

    # exact collision probabilities vs 10^7-sample Monte Carlo
    rng = np.random.default_rng(1)
    n_mc = 10_000_000
    worst_z = 0.0
    for k in (1, 4, 16, 64, 256, 1024):
        for eta_mc in (0.05, 0.1, 0.2, 0.3):
            for i in (0, 1):
                if i > k:
                    continue
                z1 = rng.binomial(k + i, eta_mc, size=n_mc)
                z2 = rng.binomial(k - i, eta_mc, size=n_mc) if k - i > 0 else 0
                hat = float(np.mean((z1 - z2) == i))
                p = rcn_collision_prob(k, i, eta_mc)
                sigma = math.sqrt(max(p * (1 - p), 1e-12) / n_mc)
                worst_z = max(worst_z, abs(hat - p) / sigma)
    mc_ok = worst_z < 3.0
    _report(
        7,
        "persistent noise",
        l2_ok and decisions_ok and learn_ok and mc_ok,
        f"worstL2={worst_l2:.4f} decisions={checked}-checked "
        f"learn={'ok' if learn_ok else 'BAD'} worst-z={worst_z:.2f}",
    )


# --------------------------------------------------------------- criterion 8


def test_c08_reduction():
    """Correlation identity exact to 1e-12 on 5 random pairs (n=6, k=1);
    simulated-example distribution within TV 0.01 of exact; base session
    never queried; the tree learner, run with d = k through the
    simulator, meets the agnostic-excess inequality on both cubes."""
    # correlation identity
    worst_resid = 0.0
    for seed in range(5):
        rng = np.random.default_rng([8, seed])
        f = random_tree(6, 6, rng)
        g = random_tree(6, 6, rng)
        emb = embed(f, 1)
        lhs, rhs = correlation_check(g, emb)
        worst_resid = max(worst_resid, abs(lhs - rhs))
    corr_ok = worst_resid <= 1e-12

    # TV distance of the simulated example distribution (m <= 8)
    rng = np.random.default_rng([8, 50])
    base = random_tree(4, 4, rng)
    emb = embed(base, 1, coin_seed=85)
    assert emb.m <= 8
    bs = counts_session(base, Distribution.uniform(4, PLUS_MINUS), r=0, seed=85)
    sim = ReductionSimulator(emb, bs, seed=85)
    n_draws = 1_000_000
    _, masks, labels = sim.draw_batch(n_draws)
    counts = Counter(zip(masks.tolist(), labels.tolist()))
    tv = 0.0
    for z, want in enumerate(emb.label_batch(np.arange(1 << emb.m)).tolist()):
        tv += abs(counts.get((z, want), 0) / n_draws - 1.0 / (1 << emb.m))
        tv += counts.get((z, -want), 0) / n_draws
    tv /= 2.0
    tv_ok = tv <= 0.01
    mq_ok = bs.mq_count == 0

    # agnostic excess for the tree learner run through the simulator with
    # d = k: its k-local restriction tests reach sets of size <= k only,
    # so the target is a degree-1 parity
    k, epsilon = 1, 0.5
    target = SparsePolynomial(10, {0b100: 1.0}, PLUS_MINUS)
    emb10 = embed(target, k, coin_seed=86)
    bs10 = counts_session(target, Distribution.uniform(10, PLUS_MINUS), r=0, seed=86)
    sim10 = ReductionSimulator(emb10, bs10, seed=86)
    signal = 2.0 ** (target.n - emb10.m)
    config = LearnerConfig(epsilon=epsilon, t=1, d=k, theta=0.5 * signal, m=2000, seed=86)
    outcome = learn_tree_uniform(sim10, config)
    rep10 = sim10.audit_report()
    # base side: the hypothesis pulled back to the message bits
    achieved, best = agnostic_excess(target, pull_back(outcome, target.n), max_size=k)
    # embedded side: f_e as realized, coin included, over all 2^m words
    realized = SimpleNamespace(n=emb10.m, value_batch=emb10.label_batch)
    achieved_e, best_e = agnostic_excess(realized, outcome, max_size=k)
    eps_prime = epsilon * signal
    excess_ok = (
        achieved >= best - epsilon
        and achieved_e >= best_e - eps_prime
        and rep10.mq_count > 0
        and rep10.max_locality_used <= k
        and bs10.mq_count == 0
    )
    _report(
        8,
        "agnostic reduction",
        corr_ok and tv_ok and mq_ok and excess_ok,
        f"resid={worst_resid:.1e} TV={tv:.4f} simulated-mq={rep10.mq_count} "
        f"base-mq={bs10.mq_count} achieved={achieved:.3f} best={best:.3f} "
        f"eps'={eps_prime:.4f} achieved_e={achieved_e:.4f} best_e={best_e:.4f}",
    )


# --------------------------------------------------------------- criterion 9


def test_c09_separation():
    """One-local secret recovery in >= 49/50 trials (n=8, 200 examples);
    examples-only and 2-local baselines score chance on the hidden-secret
    targets."""
    recoveries = 0
    one_local = True
    for trial in range(50):
        rng = np.random.default_rng([9, trial])
        secret = int(rng.integers(0, 1 << 8))
        target = PrfTarget(8, secret, VARIANT_G, key_seed=trial)
        session = counts_session(
            target, Distribution.uniform(9, PLUS_MINUS), r=1, seed=trial
        )
        result = learn_g_onelocal(session, budget=200)
        if result["recovered"] == secret:
            recoveries += 1
        rep = session.audit_report()
        one_local = one_local and rep.max_locality_used <= 1 and rep.violations == 0
    # baselines score ~1/2 against both variants
    target_g = PrfTarget(12, 0b101101001011, VARIANT_G, key_seed=91)
    s_g = counts_session(target_g, Distribution.uniform(13, PLUS_MINUS), r=0, seed=91)
    base_g = pac_baseline(s_g, train=5000, test=5000)
    target_gp = PrfTarget(12, 0b110010101100, VARIANT_GPRIME, key_seed=92)
    s_gp = counts_session(target_gp, Distribution.uniform(12, PLUS_MINUS), r=2, seed=92)
    base_gp = pac_baseline(s_gp, train=5000, test=5000, r_probe=2, rng_seed=92)
    baseline_ok = (
        abs(base_g["holdout_error"] - 0.5) <= 0.05
        and abs(base_gp["holdout_error"] - 0.5) <= 0.05
    )
    _report(
        9,
        "separations",
        recoveries >= 49 and one_local and baseline_ok,
        f"recovered={recoveries}/50 baselines=({base_g['holdout_error']:.3f}, "
        f"{base_gp['holdout_error']:.3f})",
    )


# -------------------------------------------------------------- criterion 10


def test_c10_reproducibility(capsys, tmp_path):
    """Identical seeds give byte-identical artifacts: CLI target/dist
    generation, a full learner run, and a verification suite report."""
    outs = []
    for _ in range(2):
        cli_main(["gen-target", "--kind", "dnf", "--s", "4", "--n", "14", "--seed", "1"])
        outs.append(capsys.readouterr().out)
    gen_same = outs[0] == outs[1]

    outs = []
    for _ in range(2):
        cli_main(
            ["learn", "--algo", "sparse-poly", "--n", "12", "--t", "4", "--B", "2",
             "--alpha", "1.5", "--eps", "0.1", "--seed", "11", "--test-samples", "1500"]
        )
        outs.append(capsys.readouterr().out)
    learn_same = outs[0] == outs[1]

    outs = []
    for _ in range(2):
        cli_main(["verify", "--suite", "nonzero-lower-bound", "--trials", "25", "--seed", "3"])
        outs.append(capsys.readouterr().out)
    verify_same = outs[0] == outs[1]

    # in-process repeat of a learner run serializes identically
    jsons = []
    for _ in range(2):
        tree = random_tree(10, 8, np.random.default_rng([10, 1]), max_depth=3)
        session = counts_session(tree, Distribution.uniform(10, PLUS_MINUS), r=10, seed=10)
        out = learn_tree_uniform(
            session,
            LearnerConfig(epsilon=0.1, delta=0.05, t=8, m=500, est_samples=5000, seed=10),
        )
        jsons.append(json.dumps(out.to_json(), sort_keys=True))
    inproc_same = jsons[0] == jsons[1]
    with capsys.disabled():
        _report(
            10,
            "reproducibility",
            gen_same and learn_same and verify_same and inproc_same,
            f"gen={gen_same} learn={learn_same} verify={verify_same} inproc={inproc_same}",
        )
