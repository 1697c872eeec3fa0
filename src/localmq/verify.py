"""Independent brute-force verification oracles and the lemma suites.

Everything here recomputes quantities from first principles (direct
per-subset transforms, symbolic restrictions, weighted enumeration,
exact small-scale quadratic programs) and deliberately shares no code
path with the learners' sampled estimators, so a corrupted estimator
cannot hide from these checks.

A lemma suite is the body of one trial, which yields a margin for each
check it makes; one driver runs the trials on a fixed seed schedule and
reports the worst margin together with the first violating instances.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

import numpy as np

from ._bits import all_masks, bits_of, popcount, submasks
from .distributions import (
    Distribution,
    conditional_marginal,
    exact_event_prob_masked,
    marginal,
    random_smooth_table,
    verify_smoothness,
)
from .errors import ContractViolation, EnumerationLimitError
from .fourier import (
    MONOMIAL_01,
    UNIFORM_PM,
    FourierSpectrum,
    ProductBasis,
    char_values,
    exact_transform,
)
from .generators import (
    random_product_means,
    random_sparse_poly,
    random_subset,
    random_tree,
)
from .noise import rcn_collision_prob
from .targets import PLUS_MINUS, ZERO_ONE, tree_to_polynomial


class VerifierOracle:
    """Brute-force engines: direct transforms, symbolic restrictions,
    exact losses, and a small exact L1-constrained least squares."""

    # ------------------------------------------------------------ transforms

    def direct_transform(self, target, basis) -> FourierSpectrum:
        """Per-subset inner products straight from the definition."""
        n = target.n
        if n > 14:
            raise EnumerationLimitError("direct transform kept to n <= 14")
        masks = all_masks(n)
        values = np.asarray(target.value_batch(masks), dtype=np.float64)
        coeffs = {}
        if basis is MONOMIAL_01:
            lookup = {int(m): float(v) for m, v in zip(masks, values)}
            for s in range(1 << n):
                acc = [
                    (-1.0) ** int(popcount(s ^ t)) * lookup[t] for t in submasks(s)
                ]
                c = math.fsum(acc)
                if c != 0.0:
                    coeffs[int(s)] = c
            return FourierSpectrum(n, basis, coeffs)
        if basis is UNIFORM_PM:
            weights = np.full(masks.shape, 1.0 / (1 << n))
        elif isinstance(basis, ProductBasis):
            weights = np.ones(masks.shape)
            for i, mu in enumerate(basis.means):
                p = (1.0 + mu) / 2.0
                weights *= np.where((masks >> i) & 1, p, 1.0 - p)
        else:
            raise ContractViolation(f"unknown basis {basis!r}")
        for s in range(1 << n):
            chi = char_values(basis, int(s), masks, n)
            c = math.fsum((weights * chi * values).tolist())
            if abs(c) > 1e-13:
                coeffs[int(s)] = c
        return FourierSpectrum(n, basis, coeffs)

    # ----------------------------------------------------------- exact losses

    def exact_sq_loss(self, f, h, dist: Distribution) -> float:
        masks = all_masks(dist.n)
        pr = dist.probs_array()
        diff = np.asarray(f.value_batch(masks)) - np.asarray(h.value_batch(masks))
        return math.fsum((pr * diff * diff).tolist())

    def exact_01_error(self, f, h, dist: Distribution) -> float:
        """Pr[sign(h) != f] with sign(0) counted as +1."""
        masks = all_masks(dist.n)
        pr = dist.probs_array()
        hv = np.sign(np.asarray(h.value_batch(masks)))
        hv[hv == 0] = 1.0
        fv = np.sign(np.asarray(f.value_batch(masks)))
        return math.fsum(pr[hv != fv].tolist())

    def exact_nonzero_prob(self, func, dist: Distribution, tol: float = 0.0) -> float:
        """Pr_D[|func| > tol] by weighted enumeration; func may be a
        restriction, in which case the inert coordinates integrate out."""
        masks = all_masks(dist.n)
        vals = np.abs(np.asarray(func.value_batch(masks)))
        return exact_event_prob_masked(dist, vals > tol)

    def exact_cond_l2(self, spectrum: FourierSpectrum, subset: int) -> float:
        """Sum of squared coefficients over supersets of the subset."""
        return math.fsum(
            c * c for m, c in spectrum.coeffs.items() if m & subset == subset
        )

    # -------------------------------------------------- exact L1-ball lsq QP

    def exact_l1_least_squares(
        self, features: np.ndarray, labels: np.ndarray, bound: float
    ) -> tuple[np.ndarray, float]:
        """Exact minimizer of mean squared loss over the L1 ball, by
        enumerating supports and boundary sign patterns (<= 10 features)."""
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        m, k = X.shape
        if k > 10:
            raise EnumerationLimitError("exact QP enumeration kept to <= 10 features")
        G = X.T @ X / m
        c = X.T @ y / m
        offset = float(y @ y / m)

        def objective(w):
            return float(w @ G @ w - 2.0 * c @ w + offset)

        best_w = np.zeros(k)
        best_val = objective(best_w)

        for size in range(1, k + 1):
            for support in combinations(range(k), size):
                idx = list(support)
                Gs = G[np.ix_(idx, idx)]
                cs = c[idx]
                # interior candidate on this support
                try:
                    ws = np.linalg.solve(Gs, cs)
                except np.linalg.LinAlgError:
                    ws = None
                if ws is not None and np.abs(ws).sum() <= bound + 1e-12:
                    w = np.zeros(k)
                    w[idx] = ws
                    val = objective(w)
                    if val < best_val - 1e-15:
                        best_val, best_w = val, w
                # boundary candidates, one per sign pattern
                for signs_bits in range(1 << size):
                    s = np.array(
                        [1.0 if signs_bits >> j & 1 else -1.0 for j in range(size)]
                    )
                    kkt = np.zeros((size + 1, size + 1))
                    kkt[:size, :size] = 2.0 * Gs
                    kkt[:size, size] = s
                    kkt[size, :size] = s
                    rhs = np.concatenate([2.0 * cs, [bound]])
                    try:
                        sol = np.linalg.solve(kkt, rhs)
                    except np.linalg.LinAlgError:
                        continue
                    ws = sol[:size]
                    if np.any(np.sign(ws) * s < -1e-9):
                        continue
                    w = np.zeros(k)
                    w[idx] = ws
                    if np.abs(w).sum() > bound + 1e-9:
                        continue
                    val = objective(w)
                    if val < best_val - 1e-15:
                        best_val, best_w = val, w
        return best_w, best_val


# --------------------------------------------------------------- suite driver

# the (k, eta) grid of the two rcn suites, one trial per point
_RCN_GRID = tuple(
    (k, eta) for k in (1, 2, 4, 8, 16, 64, 256, 1024) for eta in (0.05, 0.1, 0.2, 0.3, 0.45)
)
_EXACT_BOUND = "exact bound, 1e-12 float cushion"
_EXACT_BOUNDS = "exact bounds, 1e-12 float cushion"
_MAX_COUNTEREXAMPLES = 5


@dataclass(frozen=True)
class _Suite:
    """One lemma suite. `checks` is the body of one trial: it takes the
    trial's case and the size parameters, and yields (margin, context)
    for every check it makes, a negative margin being a violation.
    `sizes` names the size parameters with their defaults. `trials` is
    the default trial count; None runs one trial per point of
    `_RCN_GRID`, whatever count is asked for."""

    name: str
    checks: Callable[..., Iterator[tuple[float, dict]]]
    sizes: dict
    trials: int | None
    tolerance: float | str

    def __call__(self, *, n=None, alpha=None, trials=None, seed=0) -> dict:
        """Run the suite and report it. Trial t of 1..trials draws from
        default_rng([seed, t]); each violation is kept with its trial."""
        if trials is not None and trials < 1:
            raise ContractViolation(f"a suite needs at least one trial, got {trials}")
        given = {"n": n, "alpha": alpha}
        sizes = {k: v if given[k] is None else given[k] for k, v in self.sizes.items()}
        if self.trials is None:
            count, cases = len(_RCN_GRID), _RCN_GRID
        else:
            count = self.trials if trials is None else trials
            cases = (np.random.default_rng([seed, t]) for t in range(1, count + 1))
        margins, violations = [], []
        for trial, case in enumerate(cases, start=1):
            for margin, context in self.checks(case, **sizes):
                margins.append(margin)
                if margin < 0:
                    violations.append({"trial": trial, **context})
        report = {
            "suite": self.name,
            "trials": count,
            "violations": len(violations),
            "worst_margin": min(margins, default=None),
            "passed": not violations,
            "tolerance": self.tolerance,
        }
        if violations:
            report["counterexamples"] = violations[:_MAX_COUNTEREXAMPLES]
        return report


# ---------------------------------------------------------------- suite checks


def _fact_smooth(rng, n, alpha):
    """Single-bit and subset probability bounds, marginal and conditional
    smoothness closure, and smoothness of convex combinations."""
    dist = random_smooth_table(n, alpha, rng)
    a_star = verify_smoothness(dist)
    yield alpha - a_star + 1e-12, {"alpha_star": a_star}
    masks = all_masks(n)
    lo, hi = 1.0 / (1.0 + a_star), a_star / (1.0 + a_star)
    for i in range(n):
        p1 = exact_event_prob_masked(dist, ((masks >> i) & 1) == 1)
        for p in (p1, 1.0 - p1):
            yield p - lo + 1e-12, {"bit": i, "p": p}
            yield hi - p + 1e-12, {"bit": i, "p": p}
    subset = random_subset(n, min(3, n - 1), rng, min_size=1)  # cond needs a free variable
    assignment = int(rng.integers(0, 1 << n)) & subset
    k = int(popcount(subset))
    p_sub = exact_event_prob_masked(dist, (masks & subset) == assignment)
    yield p_sub - lo**k + 1e-12, {"set_prob": p_sub}
    yield hi**k - p_sub + 1e-12, {"set_prob": p_sub}
    keep = random_subset(n, n - 1, rng, min_size=1)
    yield a_star - verify_smoothness(marginal(dist, keep)) + 1e-12, {"marginal_of": bits_of(keep)}
    cond = conditional_marginal(dist, subset, assignment)
    yield a_star - verify_smoothness(cond) + 1e-12, {"conditioned_on": bits_of(subset)}
    other = random_smooth_table(n, alpha, rng)
    lam = float(rng.uniform(0.2, 0.8))
    mix = Distribution.table(
        lam * dist.probs_array() + (1 - lam) * other.probs_array(), dist.domain
    )
    a_mix = verify_smoothness(mix)
    yield max(a_star, verify_smoothness(other)) - a_mix + 1e-12, {"mix_alpha": a_mix}


def _parseval(rng, n):
    """Parseval identity in the uniform and product bases, exact to 1e-9."""
    tree = random_tree(n, int(rng.integers(2, 17)), rng, max_depth=6)
    gap_u = abs(exact_transform(tree, UNIFORM_PM).l2() - 1.0)
    yield 1e-9 - gap_u, {"basis": "uniform", "gap": gap_u}
    means = random_product_means(n, rng)
    spec_p = exact_transform(tree, ProductBasis(tuple(means)))
    dist = Distribution.product(means, PLUS_MINUS)
    e2 = math.fsum(
        (dist.probs_array() * np.asarray(tree.value_batch(all_masks(n))) ** 2).tolist()
    )
    gap_p = abs(spec_p.l2() - e2)
    yield 1e-9 - gap_p, {"basis": "product", "gap": gap_p}


def _km_norms(rng, n):
    """Per-coefficient bound t/2^|S| and total L1 bound t for t-leaf trees."""
    tree = random_tree(n, int(rng.integers(2, 17)), rng, max_depth=8)
    t = tree.leaf_count
    spec = exact_transform(tree, UNIFORM_PM)
    for s, c in spec.coeffs.items():
        bound = t / 2.0 ** int(popcount(s))
        yield bound - abs(c) + 1e-12, {"set": bits_of(s), "coeff": c, "bound": bound}
    yield t - spec.l1() + 1e-9, {"l1": spec.l1(), "t": t}


def _spectral_tail(rng, n):
    """Spectral tail above log(t^2/tau) carries at most tau of the mass."""
    tree = random_tree(n, int(rng.integers(2, 17)), rng, max_depth=8)
    t = tree.leaf_count
    spec = exact_transform(tree, UNIFORM_PM)
    for tau in (0.5, 0.1, 0.05):
        cut = math.log2(t * t / tau)
        tail = math.fsum(c * c for s, c in spec.coeffs.items() if popcount(s) >= cut)
        yield tau - tail + 1e-12, {"tau": tau, "tail": tail}


def _nonzero_constant_term(rng, n, alpha):
    """Sparse {0,1} polynomials with a non-zero constant term are non-zero
    with probability at least (1+alpha)^(-log2 t)."""
    t = int(rng.integers(2, 9))
    poly = random_sparse_poly(n, t, rng, max_degree=6, domain=ZERO_ONE, include_constant=True)
    dist = random_smooth_table(n, alpha, rng, domain=ZERO_ONE)
    a_star = verify_smoothness(dist)
    p = VerifierOracle().exact_nonzero_prob(poly, dist, tol=1e-12)
    bound = (1.0 / (1.0 + a_star)) ** math.log2(max(poly.sparsity, 2))
    yield p - bound + 1e-12, {"p": p, "bound": bound, "t": poly.sparsity}


def _nonzero_lower_bound(rng, n, alpha):
    """If f_S keeps a monomial of degree <= d-|S|, its non-zero probability
    is at least (1+alpha)^-(d-|S|+log2 t)."""
    t = int(rng.integers(2, 9))
    poly = random_sparse_poly(n, t, rng, max_degree=5, domain=ZERO_ONE)
    dist = random_smooth_table(n, alpha, rng, domain=ZERO_ONE)
    a_star = verify_smoothness(dist)
    support = list(poly.terms)
    base = support[int(rng.integers(0, len(support)))]
    sub_choices = list(submasks(base))
    subset = sub_choices[int(rng.integers(0, len(sub_choices)))]
    restriction = poly.restrict(subset)
    if not restriction.terms:
        return
    min_deg = min(int(popcount(m)) for m in restriction.terms)
    d = min_deg + int(popcount(subset))  # tightest d the premise allows
    p = VerifierOracle().exact_nonzero_prob(restriction, dist, tol=1e-12)
    expo = d - int(popcount(subset)) + math.log2(max(poly.sparsity, 2))
    bound = (1.0 / (1.0 + a_star)) ** expo
    yield p - bound + 1e-12, {"set": bits_of(subset), "p": p, "bound": bound}


def _nonzero_upper_bound(rng, n, alpha):
    """If every term of f_S has degree >= d', the non-zero probability is
    at most t (alpha/(1+alpha))^d'."""
    t = int(rng.integers(2, 9))
    d_floor = int(rng.integers(2, 6))
    poly = random_sparse_poly(
        n, t, rng, max_degree=min(n, d_floor + 3), min_degree=d_floor, domain=ZERO_ONE
    )
    dist = random_smooth_table(n, alpha, rng, domain=ZERO_ONE)
    a_star = verify_smoothness(dist)
    d_prime = min(int(popcount(m)) for m in poly.terms)
    p = VerifierOracle().exact_nonzero_prob(poly, dist, tol=1e-12)
    bound = poly.sparsity * (a_star / (1.0 + a_star)) ** d_prime
    yield bound - p + 1e-12, {"p": p, "bound": bound, "d_prime": d_prime}


def _restriction_growth(rng, n, alpha):
    """Dropping one variable from a grown set shrinks the non-zero
    probability of the restriction by a factor of at most (1+alpha):
    Pr[f_S != 0] >= Pr[f_{S+i} != 0] / (1+alpha). Climbing from a
    maximal coefficient down to any subset chains this into the
    (1+alpha)^-d admission guarantee."""
    tree = random_tree(n, int(rng.integers(2, 9)), rng, max_depth=4)
    spec = exact_transform(tree, UNIFORM_PM)
    dist = random_smooth_table(n, alpha, rng, domain=PLUS_MINUS)
    a_star = verify_smoothness(dist)
    support = sorted(spec.coeffs)
    base = support[int(rng.integers(0, len(support)))]
    subs = list(submasks(base))
    subset = subs[int(rng.integers(0, len(subs)))]
    i = int(rng.integers(0, n))
    if subset >> i & 1:
        return
    ver = VerifierOracle()
    p_s = ver.exact_nonzero_prob(spec.restrict(subset), dist, tol=1e-12)
    p_si = ver.exact_nonzero_prob(spec.restrict(subset | (1 << i)), dist, tol=1e-12)
    yield (
        p_s - p_si / (1.0 + a_star) + 1e-12,
        {"set": bits_of(subset), "i": i, "p_s": p_s, "p_si": p_si},
    )


_TRUNCATION_C = 0.3  # each bit takes either value with probability >= c


def _tree_truncation(rng, n):
    """Truncation bounds for trees under bounded product distributions:
    truncation error, coefficient count/degree of the truncation, and the
    off-support spectral tail."""
    c = _TRUNCATION_C
    tree = random_tree(n, int(rng.integers(2, 17)), rng, max_depth=10)
    t = tree.leaf_count
    means = random_product_means(n, rng, -(1 - 2 * c), 1 - 2 * c)
    dist = Distribution.product(means, PLUS_MINUS)
    basis = ProductBasis(tuple(means))
    rate = math.log(1.0 / (1.0 - c))
    tau = 0.05
    # depth-d truncation misses with probability at most tau
    d5 = max(1, math.ceil(math.log(t / tau) / rate))
    cut = tree.truncate(d5, cap_label=-1)
    masks = all_masks(n)
    diff = np.asarray(tree.value_batch(masks)) != np.asarray(cut.value_batch(masks))
    p_diff = exact_event_prob_masked(dist, diff)
    yield tau - p_diff + 1e-12, {"check": "d5", "p_diff": p_diff, "d": d5}
    # truncated tree has few, low-degree coefficients
    spec_cut = exact_transform(cut, basis)
    yield t * 2**cut.depth - spec_cut.l0() + 0.5, {"check": "d6-count", "l0": spec_cut.l0()}
    max_deg = max((int(popcount(s)) for s in spec_cut.coeffs), default=0)
    yield cut.depth - max_deg + 0.5, {"check": "d6-degree", "deg": max_deg}
    # off-support tail of the full spectrum
    d7 = max(1, math.ceil(math.log(4 * t / tau) / rate))
    support7 = set(exact_transform(tree.truncate(d7, cap_label=-1), basis).coeffs)
    tail = math.fsum(
        cc * cc for s, cc in exact_transform(tree, basis).coeffs.items() if s not in support7
    )
    yield tau - tail + 1e-12, {"check": "d7", "tail": tail}


def _truncation_poly(rng, n, alpha):
    """Pr[f != f^d] <= t (alpha/(1+alpha))^d for {0,1} polynomials."""
    t = int(rng.integers(2, 9))
    poly = random_sparse_poly(n, t, rng, max_degree=8, domain=ZERO_ONE)
    dist = random_smooth_table(n, alpha, rng, domain=ZERO_ONE)
    a_star = verify_smoothness(dist)
    d = int(rng.integers(1, 6))
    cut = poly.truncate(d)
    masks = all_masks(n)
    diff = np.abs(
        np.asarray(poly.value_batch(masks)) - np.asarray(cut.value_batch(masks))
    ) > 1e-12
    p_diff = exact_event_prob_masked(dist, diff)
    bound = poly.sparsity * (a_star / (1.0 + a_star)) ** d
    yield bound - p_diff + 1e-12, {"d": d, "p_diff": p_diff, "bound": bound}


def _rcn_monotone(case):
    """Collision probabilities strictly decrease in the offset for every
    eta < 1/2 on a k-grid up to 2**10."""
    k, eta = case
    prev = rcn_collision_prob(k, 0, eta)
    for i in range(1, min(k, 6) + 1):
        cur = rcn_collision_prob(k, i, eta)
        yield prev - cur, {"k": k, "eta": eta, "i": i, "p_prev": prev, "p_cur": cur}
        prev = cur


def walk_gap_floor(k: int) -> float:
    """Exact lazy-walk gap at the most-mixing rate: the difference
    Pr[walk at 0] - Pr[walk at 2] after k-1 steps of a +-2 walk that
    moves with probability 1/2; lower bounds the same gap at any noise
    rate below 1/2 once scaled by (2 eta - 1)^2. Scales like k^(-3/2).
    """
    if k == 1:
        return 1.0
    steps = 2 * (k - 1)
    # C(2k-2, k-1) - C(2k-2, k) = C(2k-2, k-1) / k; exact big-int ratio
    return float(Fraction(math.comb(steps, k - 1), k * 4 ** (k - 1)))


def _rcn_gap(case):
    """p0 - p1 >= (2 eta - 1)^2 * walk_gap_floor(k)."""
    k, eta = case
    gap = rcn_collision_prob(k, 0, eta) - rcn_collision_prob(k, 1, eta)
    floor = (2.0 * eta - 1.0) ** 2 * walk_gap_floor(k)
    yield gap - floor + 1e-14, {"k": k, "eta": eta, "gap": gap, "floor": floor}


def _tree_expansion(rng, n):
    """Path expansion of trees agrees pointwise with tree evaluation and
    with the direct transform, in all three bases."""
    tree = random_tree(n, int(rng.integers(2, 9)), rng, max_depth=5)
    masks = all_masks(n)
    tv = np.asarray(tree.value_batch(masks))
    for basis in (UNIFORM_PM, ProductBasis(tuple(random_product_means(n, rng)))):
        spec = tree_to_polynomial(tree, basis)
        gap = float(np.max(np.abs(np.asarray(spec.value_batch(masks)) - tv)))
        yield 1e-9 - gap, {"basis": getattr(basis, "tag", "?"), "gap": gap}
        yield tree.leaf_count * 2**tree.depth - spec.l0() + 0.5, {"check": "count"}


def pull_back(outcome, n: int):
    """A learner's outcome over the m-bit cube of an embedding, pulled
    back to the n message bits: only the coefficients on sets inside the
    message bits are kept, and the outcome's sign rule is unchanged."""
    spec = outcome.hypothesis
    kept = {s: c for s, c in spec.coeffs.items() if s >> n == 0}
    return replace(outcome, hypothesis=FourierSpectrum(n, spec.basis, kept))


def agnostic_excess(target, outcome, max_size: int):
    """Exact correlations for the agnostic guarantee over signed parities
    of degree <= max_size: returns (achieved, best), where achieved is
    E_U[target * h] for the outcome's +-1 prediction h and best is the
    largest |target^(S)| with |S| <= max_size. `target` needs only `n`
    and a +-1 `value_batch` over its whole cube."""
    x = all_masks(target.n)
    achieved = float(np.mean(target.value_batch(x) * outcome.predict_batch(x)))
    spec = exact_transform(target, UNIFORM_PM, zero_tol=0.0)
    best = max(
        (abs(c) for s, c in spec.coeffs.items() if popcount(s) <= max_size), default=0.0
    )
    return achieved, best


SUITES = {
    suite.name: suite
    for suite in (
        _Suite("fact-smooth", _fact_smooth, {"n": 10, "alpha": 1.5}, 200, _EXACT_BOUNDS),
        _Suite("parseval", _parseval, {"n": 12}, 200, 1e-9),
        _Suite("km-norms", _km_norms, {"n": 12}, 200, _EXACT_BOUNDS),
        _Suite("spectral-tail", _spectral_tail, {"n": 12}, 200, _EXACT_BOUND),
        _Suite(
            "nonzero-constant-term", _nonzero_constant_term, {"n": 12, "alpha": 1.5}, 200,
            _EXACT_BOUND,
        ),
        _Suite(
            "nonzero-lower-bound", _nonzero_lower_bound, {"n": 12, "alpha": 1.5}, 200,
            _EXACT_BOUND,
        ),
        _Suite(
            "nonzero-upper-bound", _nonzero_upper_bound, {"n": 12, "alpha": 1.5}, 200,
            _EXACT_BOUND,
        ),
        _Suite(
            "restriction-growth", _restriction_growth, {"n": 10, "alpha": 1.5}, 200,
            _EXACT_BOUND,
        ),
        _Suite(
            "tree-truncation", _tree_truncation, {"n": 12}, 200,
            "exact bounds at tau=0.05, 1e-12 float cushion",
        ),
        _Suite("truncation-poly", _truncation_poly, {"n": 12, "alpha": 1.5}, 200, _EXACT_BOUND),
        _Suite("rcn-monotone", _rcn_monotone, {}, None, "strict monotonicity, exact arithmetic"),
        _Suite("rcn-gap", _rcn_gap, {}, None, "exact bound, 1e-14 float cushion"),
        _Suite("tree-expansion", _tree_expansion, {"n": 10}, 100, 1e-9),
    )
}


def run_lemma_suite(suite: str, **params) -> dict:
    """Report of one suite, or {"suites": [...]} of all of them for
    "all"; `params` are the suite keywords n, alpha, trials and seed, and
    n, alpha or trials given as None take the suite's default."""
    if suite == "all":
        return {"suites": [run_lemma_suite(name, **params) for name in SUITES]}
    if suite not in SUITES:
        raise ContractViolation(f"unknown suite {suite!r}; have {sorted(SUITES)}")
    return SUITES[suite](**params)
