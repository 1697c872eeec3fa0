"""The learning algorithms.

All five learners run one shared path: grow, fit, holdout. Growth starts
from the empty set and extends candidate subsets one variable at a time,
admitting those whose restriction passes the learner's test (non-zero
test under smooth distributions, L2 test under uniform/product), up to
degree d and a budget cap on the grown family; exceeding the cap signals
that the smoothness assumption was violated. The fit (L1-constrained
regression, or one shared coefficient-estimation batch) is scored on a
fresh holdout. Each `learn_*` supplies its domain checks, parameter
formulas and admission test.

Candidates are walked in ascending (|S|, bitmask) order and each subset
is tested at most once, so runs are deterministic given the seed. Every
admission test consumes fresh natural examples, keeping the Hoeffding
independence assumptions honest; the audit log shows the example budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._bits import popcount
from .errors import BudgetExceededError, ContractViolation
from .distributions import PRODUCT, UNIFORM
from .fourier import (
    MONOMIAL_01,
    UNIFORM_PM,
    FourierSpectrum,
    ProductBasis,
    char_values,
    default_test_samples,
    l2_test,
    nonzero_test,
)
from .noise import noisy_nonzero_test
from .oracles import AuditSummary, OracleSession
from .targets import PLUS_MINUS, ZERO_ONE

MAX_DEFAULT_SAMPLES = 10**7
_REGRESSION_TOL = 1e-8
_REGRESSION_MAX_ITER = 10**5


@dataclass
class LearnerConfig:
    """Accuracy targets, class parameters, and overrides.

    Parameter fields left as None are filled from the per-algorithm
    default formulas; the values actually used are echoed in the
    outcome. `m` is the per-test sample size; the Hoeffding default can
    be astronomically large for small thresholds, in which case it must
    be set explicitly (a guard refuses defaults above 10**7).
    """

    epsilon: float = 0.1
    delta: float = 0.05
    t: int | None = None           # sparsity / leaf budget
    B: float | None = None         # coefficient bound
    s: int | None = None           # DNF size
    depth: int | None = None       # depth bound (log-depth learner)
    alpha: float | None = None     # smoothness bound
    d: int | None = None
    theta: float | None = None
    d_prime: int | None = None
    m: int | None = None
    est_samples: int | None = None
    reg_samples: int | None = None
    holdout_samples: int | None = None
    cap: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ContractViolation(f"epsilon={self.epsilon} outside (0,1)")
        if not 0.0 < self.delta < 1.0:
            raise ContractViolation(f"delta={self.delta} outside (0,1)")
        if self.alpha is not None and self.alpha < 1.0:
            raise ContractViolation(f"alpha={self.alpha} must be >= 1")


@dataclass
class LearnOutcome:
    """Hypothesis plus everything needed to audit the run."""

    hypothesis: FourierSpectrum
    sign_threshold: bool
    grown_sets: list[int]
    params: dict
    error_estimates: dict
    audit: AuditSummary
    metadata: dict = field(default_factory=dict)
    test_log: list = field(default_factory=list)
    wall_time: float = 0.0

    def __post_init__(self):
        grown = set(self.grown_sets)
        if any(s not in grown for s in self.hypothesis.coeffs):
            raise ContractViolation("hypothesis support escapes the grown set")
        d = self.params.get("d")
        if d is not None and any(int(popcount(s)) > d for s in self.grown_sets):
            raise ContractViolation("grown set contains a subset larger than d")

    def predict_batch(self, masks: np.ndarray) -> np.ndarray:
        vals = self.hypothesis.value_batch(masks)
        if not self.sign_threshold:
            return vals
        signs = np.sign(vals)
        signs[signs == 0] = 1.0
        return signs

    def to_json(self) -> dict:
        from ._bits import bits_of

        return {
            "hypothesis": self.hypothesis.to_json(),
            "sign_threshold": self.sign_threshold,
            "grown_sets": [bits_of(s) for s in self.grown_sets],
            "params": self.params,
            "error_estimates": self.error_estimates,
            "audit": self.audit.to_json(),
            "metadata": self.metadata,
        }


def default_params_sparse(
    t: int, B: float, epsilon: float, alpha: float
) -> tuple[int, float, int]:
    """Degree cutoff d, admission threshold theta, and dead-zone degree
    d' for the sparse-polynomial learner."""
    if t < 1 or B <= 0 or not 0 < epsilon < 1 or alpha < 1:
        raise ContractViolation("need t >= 1, B > 0, epsilon in (0,1), alpha >= 1")
    base = math.log2((1.0 + alpha) / alpha)
    poly = 4.0 * t**3 * B * B
    d = math.ceil(math.log2(poly / epsilon) / base)
    theta = poly ** (-2.0 * math.log2(1.0 + alpha) / base)
    d_prime = math.ceil(math.log2(2.0 * t / theta) / base)
    return d, theta, d_prime


# ------------------------------------------------------------------ internals


def _resolve_m(config: LearnerConfig, theta_gap: float) -> int:
    if config.m is not None:
        return int(config.m)
    m = default_test_samples(theta_gap, config.delta / 2.0)
    if m > MAX_DEFAULT_SAMPLES:
        raise ContractViolation(
            f"default Hoeffding sample size {m} exceeds {MAX_DEFAULT_SAMPLES}; "
            "set config.m explicitly for desk-scale runs"
        )
    return m


def _grow(n: int, d: int, cap: int, admit):
    """Level-by-level growth from the empty set. `admit(S)` returns a
    TestResult; sets reachable from several parents are tested once."""
    admitted = [0]
    frontier = [0]
    tested: set[int] = set()
    log = []
    for _level in range(1, min(d, n) + 1):
        candidates = sorted(
            {S | (1 << j) for S in frontier for j in range(n) if not S >> j & 1}
            - tested
        )
        fresh = []
        for cand in candidates:
            tested.add(cand)
            res = admit(cand)
            log.append((cand, bool(res.passed), float(res.estimate)))
            if res.passed:
                fresh.append(cand)
                admitted.append(cand)
                if len(admitted) > cap:
                    raise BudgetExceededError(len(admitted), cap)
        frontier = fresh
        if not frontier:
            break
    return admitted, log


def _power_lipschitz(gram: np.ndarray) -> float:
    """Largest eigenvalue of a PSD Gram matrix by deterministic power
    iteration; twice this bounds the squared-loss gradient Lipschitz
    constant."""
    k = gram.shape[0]
    v = np.ones(k) / math.sqrt(k)
    lam = 1.0
    for _ in range(200):
        w = gram @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 1e-12
        v = w / norm
        lam = norm
    return max(lam, 1e-12)


def project_l1(v: np.ndarray, bound: float) -> np.ndarray:
    """Exact Euclidean projection onto the L1 ball of the given radius."""
    if bound <= 0:
        raise ContractViolation("L1 bound must be positive")
    a = np.abs(v)
    if a.sum() <= bound:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, u.size + 1)
    rho = np.nonzero(u * idx > (css - bound))[0][-1]
    shift = (css[rho] - bound) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - shift, 0.0)


def constrained_regression(
    features: np.ndarray,
    labels: np.ndarray,
    l1_bound: float,
) -> np.ndarray:
    """Minimize mean squared loss over the L1 ball by FISTA (Beck &
    Teboulle 2009) with function-value restart (O'Donoghue & Candes 2015).
    Deterministic: starts at zero; each step is a projected gradient step
    of size 1/L, with exact projection, from the momentum point. A step
    with momentum that fails to lower the loss is dropped and the momentum
    restarts from the last iterate; a plain step that fails to lower the
    loss ends the run, so the loop cannot cycle. Otherwise it stops when
    the relative loss improvement drops below _REGRESSION_TOL or after
    _REGRESSION_MAX_ITER steps."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    m, k = features.shape
    gram = features.T @ features / m
    corr = features.T @ labels / m
    offset = float(labels @ labels / m)
    lip = 2.0 * _power_lipschitz(gram)
    w = y = np.zeros(k)
    loss, t, beta = offset, 1.0, 0.0  # beta: the momentum weight in y
    for _ in range(_REGRESSION_MAX_ITER):
        grad = 2.0 * (gram @ y - corr)
        w_next = project_l1(y - grad / lip, l1_bound)
        loss_next = float(w_next @ gram @ w_next - 2.0 * corr @ w_next + offset)
        improvement = loss - loss_next
        if improvement <= 0.0:
            if beta == 0.0:
                break
            y, t, beta = w, 1.0, 0.0
            continue
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = (t - 1.0) / t_next
        y = w_next + beta * (w_next - w)
        w, loss, t = w_next, loss_next, t_next
        if improvement < _REGRESSION_TOL * max(1.0, abs(loss)):
            break
    return w


def _estimate_coeffs(session, sets: list[int], m2: int, basis) -> FourierSpectrum:
    """Coefficient estimates from one shared batch of natural examples."""
    _, masks, labels = session.draw_batch(m2)
    out = {}
    for s in sets:
        chi = char_values(basis, s, masks, session.n)
        out[s] = float(np.mean(labels * chi))
    return FourierSpectrum(session.n, basis, out)


def _default_samples(config: LearnerConfig) -> int:
    """Hoeffding-style default size of the regression and holdout batches."""
    return 10 * math.ceil(math.log(2.0 / config.delta) / config.epsilon**2)


def _holdout_errors(session, outcome_hyp, sign_threshold, config) -> dict:
    n_hold = config.holdout_samples
    if n_hold is None:
        n_hold = _default_samples(config)
    _, masks, labels = session.draw_batch(n_hold)
    vals = outcome_hyp.value_batch(masks)
    errors = {
        "holdout_samples": int(n_hold),
        "squared_loss": float(np.mean((labels - vals) ** 2)),
    }
    if sign_threshold:
        preds = np.sign(vals)
        preds[preds == 0] = 1.0
        errors["zero_one"] = float(np.mean(preds != np.sign(labels)))
    return errors


def _regress_hypothesis(
    session, sets: list[int], basis, l1_bound: float, reg_samples: int, zero_tol: float
) -> FourierSpectrum:
    _, masks, labels = session.draw_batch(reg_samples)
    features = np.column_stack(
        [char_values(basis, s, masks, session.n) for s in sets]
    )
    w = constrained_regression(features, labels, l1_bound)
    coeffs = {s: float(c) for s, c in zip(sets, w) if abs(c) > zero_tol}
    return FourierSpectrum(session.n, basis, coeffs)


def _learn(
    session,
    config: LearnerConfig,
    params: dict,
    basis,
    admit,
    l1_bound: float | None = None,
    fit_zero_tol: float = 1e-8,
    metadata: dict | None = None,
) -> LearnOutcome:
    """The shared learner path: grow the family from the empty set with
    `admit`, fit over it, and score the fit on a fresh holdout.

    `params` carries the per-algorithm values (at least d, theta, m and
    cap). With `l1_bound` the fit is the L1-constrained regression,
    dropping coefficients at most `fit_zero_tol`; without it every
    grown coefficient is estimated from one shared batch. Outputs are
    sign-thresholded exactly when the session's domain is +-1.
    """
    start = time.perf_counter()
    admitted, log = _grow(session.n, params["d"], params["cap"], admit)
    if l1_bound is None:
        samples = _coeff_samples(config, params["theta"], len(admitted))
        hypothesis = _estimate_coeffs(session, admitted, samples, basis)
        params["est_samples"] = samples
    else:
        samples = config.reg_samples
        if samples is None:
            samples = _default_samples(config)
        hypothesis = _regress_hypothesis(
            session, admitted, basis, l1_bound, samples, fit_zero_tol
        )
        params["reg_samples"] = samples
    params.update(epsilon=config.epsilon, delta=config.delta, seed=config.seed)
    sign_threshold = session.domain == PLUS_MINUS
    errors = _holdout_errors(session, hypothesis, sign_threshold, config)
    return LearnOutcome(
        hypothesis=hypothesis,
        sign_threshold=sign_threshold,
        grown_sets=admitted,
        params=params,
        error_estimates=errors,
        audit=session.audit_report(),
        metadata=metadata or {},
        test_log=log,
        wall_time=time.perf_counter() - start,
    )


# ------------------------------------------------------------------- learners


def learn_sparse_poly(session: OracleSession, config: LearnerConfig) -> LearnOutcome:
    """Sparse multilinear polynomials over {0,1}^n under a locally smooth
    distribution.

    Grows the monomial family by the non-zero test at threshold theta,
    then runs L1-constrained least squares (sum |h[S]| <= t*B) over the
    admitted monomials.
    """
    if session.domain != ZERO_ONE:
        raise ContractViolation("sparse polynomial learner works over {0,1}")
    if config.t is None or config.B is None or config.alpha is None:
        raise ContractViolation("config needs t, B, and alpha")
    t, B, alpha = config.t, config.B, config.alpha
    d0, theta0, dp0 = default_params_sparse(t, B, config.epsilon, alpha)
    d = config.d if config.d is not None else d0
    theta = config.theta if config.theta is not None else theta0
    d_prime = config.d_prime if config.d_prime is not None else dp0
    cap = config.cap if config.cap is not None else t * (1 << min(d + d_prime, 62))
    m = _resolve_m(config, theta)
    zero_tol = 1e-10 * max(1.0, t * B)
    params = {
        "algorithm": "sparse-poly",
        "t": t,
        "B": B,
        "alpha": alpha,
        "d": d,
        "theta": theta,
        "d_prime": d_prime,
        "m": m,
        "cap": cap,
    }
    return _learn(
        session,
        config,
        params,
        MONOMIAL_01,
        lambda S: nonzero_test(session, S, theta, zero_tol, m),
        l1_bound=t * B,
        fit_zero_tol=1e-8 * max(1.0, t * B),
    )


def learn_logdepth_tree(
    session: OracleSession, config: LearnerConfig, eta_assumed: float | None = None
) -> LearnOutcome:
    """Shallow decision trees over +-1 under locally smooth distributions.

    Non-zero test at theta = (1+alpha)^(-d-1) over uniform-flip
    restrictions, then constrained regression with sum |h(S)| <= t and a
    sign-thresholded output. Under persistent label noise the test is
    replaced by its exactly-corrected variant.
    """
    if session.domain != PLUS_MINUS:
        raise ContractViolation("log-depth tree learner works over +-1")
    if config.depth is None or config.alpha is None:
        raise ContractViolation("config needs depth and alpha")
    d = config.d if config.d is not None else config.depth
    alpha = config.alpha
    t = config.t if config.t is not None else 1 << min(d, 30)
    theta = config.theta if config.theta is not None else (1.0 + alpha) ** (-d - 1)
    cap = config.cap if config.cap is not None else t * (1 << min(d, 62))
    m = _resolve_m(config, theta)
    zero_tol = 1e-10 * max(1.0, float(t))
    params = {
        "algorithm": "logdepth-tree",
        "t": t,
        "alpha": alpha,
        "d": d,
        "theta": theta,
        "m": m,
        "cap": cap,
    }
    meta = {}
    if session.noise is not None or eta_assumed is not None:
        admit = lambda S: noisy_nonzero_test(
            session, S, theta, m, zero_tol, eta=eta_assumed
        )
        meta["noise_corrected"] = True
        meta["eta_assumed"] = (
            eta_assumed if eta_assumed is not None else session.noise.eta
        )
    else:
        admit = lambda S: nonzero_test(session, S, theta, zero_tol, m)
    return _learn(
        session, config, params, UNIFORM_PM, admit, l1_bound=float(t), metadata=meta
    )


def learn_tree_uniform(session: OracleSession, config: LearnerConfig) -> LearnOutcome:
    """t-leaf decision trees under the uniform distribution.

    BFS growth admitting S when the L2 test reports E[f_S^2] > theta^2
    with d = ceil(log2(2 t^2 / eps)) and theta = eps/(2t); coefficients
    of the admitted sets are then estimated and the sign of the
    approximation is returned.
    """
    _require_uniform(session)
    if config.t is None:
        raise ContractViolation("config needs the leaf budget t")
    t = config.t
    d = config.d if config.d is not None else math.ceil(
        math.log2(2.0 * t * t / config.epsilon)
    )
    theta = config.theta if config.theta is not None else config.epsilon / (2.0 * t)
    cap = config.cap if config.cap is not None else math.ceil(t**4 / theta**6)
    m = _resolve_m(config, theta * theta)
    params = {
        "algorithm": "tree-uniform",
        "t": t,
        "d": d,
        "theta": theta,
        "m": m,
        "cap": cap,
    }
    return _learn(
        session, config, params, UNIFORM_PM, lambda S: l2_test(session, S, theta, m)
    )


def learn_tree_product(session: OracleSession, config: LearnerConfig) -> LearnOutcome:
    """t-leaf decision trees under a bounded product distribution, in the
    orthonormal basis of that distribution.

    With every |mu_i| <= 1-2c the parameters are
    d = log2(8t/eps) / log2(1/(1-c)) and theta = sqrt(eps / (2t * 2^d)),
    mirroring the uniform learner in the chi^mu basis.
    """
    if session.domain != PLUS_MINUS or session.dist.kind != PRODUCT:
        raise ContractViolation("product tree learner needs a +-1 product distribution")
    if config.t is None:
        raise ContractViolation("config needs the leaf budget t")
    t = config.t
    means = session.dist.means
    c = (1.0 - max(abs(mu) for mu in means)) / 2.0
    if c <= 0.0:
        raise ContractViolation("product means must be bounded away from +-1")
    rate = math.log2(1.0 / (1.0 - c))
    d_real = math.log2(8.0 * t / config.epsilon) / rate
    d = config.d if config.d is not None else math.ceil(d_real)
    theta = (
        config.theta
        if config.theta is not None
        else math.sqrt(config.epsilon / (2.0 * t * 2.0**d_real))
    )
    if config.cap is not None:
        cap = config.cap
    else:
        d2 = math.log2(8.0 * t / theta**2) / rate
        w_min = (theta**2 / 2.0) / (t * 2.0**d2)
        cap = math.ceil(2.0**d2 / w_min) if d2 < 40 else 10**18
    m = _resolve_m(config, theta * theta)
    basis = ProductBasis(means)
    params = {
        "algorithm": "tree-product",
        "t": t,
        "c": c,
        "d": d,
        "theta": theta,
        "m": m,
        "cap": cap,
    }
    return _learn(
        session, config, params, basis, lambda S: l2_test(session, S, theta, m, basis)
    )


def learn_dnf(session: OracleSession, config: LearnerConfig) -> LearnOutcome:
    """Polynomial-size DNF under the uniform distribution.

    Heavy low-degree coefficient recovery with d = ceil(log2(s/eps)) and
    theta = eps/(4s). The cited external hypothesis builder is replaced
    by the sign of the estimated approximation; the substitution is
    flagged in the outcome metadata.
    """
    _require_uniform(session)
    if config.s is None:
        raise ContractViolation("config needs the DNF size s")
    s = config.s
    ratio = s / config.epsilon
    d = config.d if config.d is not None else math.ceil(math.log2(ratio))
    theta = config.theta if config.theta is not None else config.epsilon / (4.0 * s)
    if config.cap is not None:
        cap = config.cap
    else:
        expo = math.ceil(math.log2(max(2.0, math.log2(max(2.0, ratio))))) + 3
        cap = math.ceil(ratio**expo)
    m = _resolve_m(config, theta * theta)
    params = {"algorithm": "dnf", "s": s, "d": d, "theta": theta, "m": m, "cap": cap}
    return _learn(
        session,
        config,
        params,
        UNIFORM_PM,
        lambda S: l2_test(session, S, theta, m),
        metadata={"hypothesis_rule": "sign-of-approximation substitute"},
    )


def _require_uniform(session) -> None:
    if session.domain != PLUS_MINUS or session.dist.kind != UNIFORM:
        raise ContractViolation("learner needs the uniform +-1 distribution")


def _coeff_samples(config: LearnerConfig, theta: float, family: int) -> int:
    """Shared-batch size estimating every admitted coefficient to
    additive theta/4 via Hoeffding over [-1, 1] values."""
    if config.est_samples is not None:
        return int(config.est_samples)
    k = max(family, 2)
    m2 = math.ceil(
        2.0 * math.log(4.0 * k / config.delta) / (theta / 4.0) ** 2
    )
    if m2 > MAX_DEFAULT_SAMPLES:
        raise ContractViolation(
            f"default coefficient sample size {m2} exceeds {MAX_DEFAULT_SAMPLES}; "
            "set config.est_samples explicitly"
        )
    return m2
