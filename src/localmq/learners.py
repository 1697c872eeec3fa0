"""The learning algorithms.

All five learners run one shared path: resolve, check, grow, fit,
holdout. Each `learn_*` states its parameter formulas, its admission
test and its contract, once each. One resolver (`_Resolver`) fills every
parameter and sample size: the `LearnerConfig` field when set, else the
learner's formula, recorded into the outcome's `params` as it is
resolved; it is the one place a defaulted size above
MAX_DEFAULT_SAMPLES is refused, and the sizes that depend on epsilon and
delta alone are resolved before any example is drawn. Growth starts
from the empty set and extends candidate subsets one variable at a time,
admitting those whose restriction passes the learner's test (non-zero
test under smooth distributions, L2 test under uniform/product), up to
degree d and a budget cap on the grown family; exceeding the cap signals
that the smoothness assumption was violated. The fit (L1-constrained
regression, or one shared coefficient-estimation batch) is scored on a
fresh holdout.

Candidates are walked in ascending (|S|, bitmask) order and each subset
is tested at most once, so runs are deterministic given the seed. Every
admission test consumes fresh natural examples, keeping the Hoeffding
independence assumptions honest; the audit log shows the example budget.
Once a test is decided the driver releases its examples as anchors
(`OracleSession.release_anchors`), and it releases the fit's batch
before it draws the holdout, so a run's anchor store holds one test's
examples, the fit's or the holdout's, however many tests it runs; a
query that names a released anchor is refused with ContractViolation
(CLI exit 3). The public tests (`l2_test`, `nonzero_test`) release
nothing.

A contract is the learner's basis, its distribution kinds, and whether
it corrects for label noise (only `learn_logdepth_tree` does; noise
spreads Fourier weight over every set, so a plain test admits them all).
`_learn` refuses a session off it before any draw.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._bits import PLUS_MINUS, popcount
from .errors import BudgetExceededError, ContractViolation
from .distributions import _KINDS, PRODUCT, UNIFORM
from .fourier import (
    MONOMIAL_01,
    UNIFORM_PM,
    FourierSpectrum,
    ProductBasis,
    _check_basis,
    char_values,
    default_test_samples,
    l2_test,
    nonzero_test,
)
from .noise import noisy_nonzero_test
from .oracles import AuditSummary, OracleSession

MAX_DEFAULT_SAMPLES = 10**7
_SIZES = ("m", "est_samples", "reg_samples", "holdout_samples")
_REGRESSION_TOL = 1e-8
_REGRESSION_MAX_ITER = 10**5


@dataclass
class LearnerConfig:
    """Accuracy targets, class parameters, and overrides.

    Parameter fields left as None are filled from the per-algorithm
    default formulas; the values actually used are echoed in the
    outcome. `m` is the per-test sample size; the Hoeffding default can
    be astronomically large for small thresholds, in which case it must
    be set explicitly (a guard refuses any defaulted sample size above
    10**7). A value no learner can use is refused here, before any
    example is drawn: a count or sample size below 1, theta or B at or
    below 0, d or d_prime below 0, alpha below 1, and a theta, B or alpha
    that is not finite.
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
        for names, rule, holds in (
            (("t", "s", "depth", "cap", *_SIZES), ">= 1", lambda v: v >= 1),
            (("theta", "B"), "finite and > 0", lambda v: 0 < v < math.inf),
            (("d", "d_prime"), ">= 0", lambda v: v >= 0),
            (("alpha",), "finite and >= 1", lambda v: 1.0 <= v < math.inf),
        ):
            for name in names:
                value = getattr(self, name)
                if value is not None and not holds(value):
                    raise ContractViolation(f"{name}={value} must be {rule}")


@dataclass
class LearnOutcome:
    """Hypothesis plus everything needed to audit the run."""

    hypothesis: FourierSpectrum
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

    @property
    def sign_threshold(self) -> bool:
        """Outputs are signs exactly when the hypothesis is over +-1."""
        return self.hypothesis.basis.domain == PLUS_MINUS

    def predict_batch(self, masks: np.ndarray) -> np.ndarray:
        vals = self.hypothesis.value_batch(masks)
        return _signs(vals) if self.sign_threshold else vals

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


def _signs(vals: np.ndarray) -> np.ndarray:
    """The thresholded +-1 output, with sign(0) = +1."""
    return np.sign(vals) + (vals == 0)


class _Resolver:
    """A learner's parameters, resolved one at a time in the order the
    learner asks for them. Each is the `LearnerConfig` field when set,
    else the learner's formula, which is called only then; a field asked
    for with no formula is required. The value is recorded into `params`
    unless `record` is false. A defaulted sample size above
    MAX_DEFAULT_SAMPLES is refused here, and nowhere else."""

    def __init__(self, config: LearnerConfig, algorithm: str, **given):
        self.config = config
        self.params = {"algorithm": algorithm, **given}

    def __call__(self, name: str, formula=None, record: bool = True):
        value = getattr(self.config, name)
        if value is None:
            if formula is None:
                raise ContractViolation(f"config needs {name}")
            value = formula()
            if name in _SIZES and value > MAX_DEFAULT_SAMPLES:
                raise ContractViolation(
                    f"default {name} {value} exceeds {MAX_DEFAULT_SAMPLES}; "
                    f"set config.{name} explicitly for desk-scale runs"
                )
        if name in _SIZES:
            value = int(value)
        if record:
            self.params[name] = value
        return value


def _grow(session, d: int, cap: int, admit):
    """Level-by-level growth from the empty set. `admit(S)` returns a
    TestResult; sets reachable from several parents are tested once. Once
    a test is decided, every example drawn so far is released as an
    anchor, so the session's anchor store holds one test's examples."""
    n = session.n
    admitted = [0]
    frontier = [0]
    log = []
    for _level in range(1, min(d, n) + 1):
        candidates = {S | (1 << j) for S in frontier for j in range(n) if not S >> j & 1}
        fresh = []
        for cand in sorted(candidates):
            res = admit(cand)
            session.release_anchors()
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
    _REGRESSION_MAX_ITER steps. L = 2 * lambda_max(G), the exact Lipschitz
    constant of the loss gradient, where G is the features' Gram matrix
    over m."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    m, k = features.shape
    gram = features.T @ features / m
    corr = features.T @ labels / m
    offset = float(labels @ labels / m)
    lip = 2.0 * max(float(np.linalg.eigvalsh(gram)[-1]), 1e-12)
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
        chi = char_values(basis, s, masks)
        out[s] = float(np.mean(labels * chi))
    return FourierSpectrum(session.n, basis, out)


def _holdout_errors(session, hypothesis, n_hold: int) -> dict:
    _, masks, labels = session.draw_batch(n_hold)
    vals = hypothesis.value_batch(masks)
    errors = {
        "holdout_samples": n_hold,
        "squared_loss": float(np.mean((labels - vals) ** 2)),
    }
    if hypothesis.basis.domain == PLUS_MINUS:
        errors["zero_one"] = float(np.mean(_signs(vals) != np.sign(labels)))
    return errors


def _regress_hypothesis(
    session, sets: list[int], basis, l1_bound: float, reg_samples: int, zero_tol: float
) -> FourierSpectrum:
    _, masks, labels = session.draw_batch(reg_samples)
    features = np.column_stack([char_values(basis, s, masks) for s in sets])
    w = constrained_regression(features, labels, l1_bound)
    coeffs = {s: float(c) for s, c in zip(sets, w) if abs(c) > zero_tol}
    return FourierSpectrum(session.n, basis, coeffs)


def _learn(
    session,
    p: _Resolver,
    basis,
    admit,
    *, kinds: tuple, corrects_noise: bool,
    l1_bound: float | None = None,
    fit_zero_tol: float = 1e-8,
    metadata: dict | None = None,
) -> LearnOutcome:
    """The shared learner path: refuse, before any draw, a session that
    `basis` does not fit, whose distribution kind is not in `kinds`, or
    whose noise rate is above 0 unless `corrects_noise`; then grow the
    family from the empty set with `admit`, fit over it, and score the
    fit on a fresh holdout.

    `p` has resolved at least d, theta, m and cap. With `l1_bound` the
    fit is the L1-constrained regression, dropping coefficients at most
    `fit_zero_tol`; without it every grown coefficient is estimated from
    one shared batch. The holdout and regression sizes depend on epsilon
    and delta alone and are resolved before growth; the estimation size
    depends on the grown family. Outputs are sign-thresholded exactly
    when the basis, and so the session, is over +-1.
    """
    start = time.perf_counter()
    config, params = p.config, p.params
    _check_basis(basis, session.n, session.domain)
    algorithm, kind = params["algorithm"], session.dist.kind
    if kind not in kinds:
        raise ContractViolation(f"{algorithm} needs a {' or '.join(kinds)} distribution, got {kind}")
    if not corrects_noise and session.noise is not None and session.noise.eta > 0:
        raise ContractViolation(
            f"noiseless labels needed, got eta={session.noise.eta}: {algorithm} has "
            "no noise correction, and noise spreads Fourier weight over every set"
        )
    batch = lambda: 10 * math.ceil(math.log(2.0 / config.delta) / config.epsilon**2)
    n_hold = p("holdout_samples", batch, record=False)
    if l1_bound is not None:
        reg_samples = p("reg_samples", batch)
    admitted, log = _grow(session, params["d"], params["cap"], admit)
    if l1_bound is None:
        # Hoeffding over [-1, 1] values: every coefficient to additive theta/4
        k = max(len(admitted), 2)
        samples = p("est_samples", lambda: math.ceil(
            2.0 * math.log(4.0 * k / config.delta) / (params["theta"] / 4.0) ** 2
        ))
        hypothesis = _estimate_coeffs(session, admitted, samples, basis)
    else:
        hypothesis = _regress_hypothesis(
            session, admitted, basis, l1_bound, reg_samples, fit_zero_tol
        )
    session.release_anchors()  # no query names the fit's examples
    params.update(epsilon=config.epsilon, delta=config.delta, seed=config.seed)
    errors = _holdout_errors(session, hypothesis, n_hold)
    return LearnOutcome(
        hypothesis=hypothesis,
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
    p = _Resolver(config, "sparse-poly")
    t, B, alpha = p("t"), p("B"), p("alpha")
    d0, theta0, dp0 = default_params_sparse(t, B, config.epsilon, alpha)
    d = p("d", lambda: d0)
    theta = p("theta", lambda: theta0)
    d_prime = p("d_prime", lambda: dp0)
    p("cap", lambda: t * (1 << min(d + d_prime, 62)))
    m = p("m", lambda: default_test_samples(theta, config.delta / 2.0))
    zero_tol = 1e-10 * max(1.0, t * B)
    return _learn(
        session,
        p,
        MONOMIAL_01,
        lambda S: nonzero_test(session, S, theta, zero_tol, m, MONOMIAL_01),
        kinds=_KINDS, corrects_noise=False,
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
    p = _Resolver(config, "logdepth-tree")
    depth, alpha = p("depth", record=False), p("alpha")
    d = p("d", lambda: depth)
    t = p("t", lambda: 1 << min(d, 30))
    theta = p("theta", lambda: (1.0 + alpha) ** (-d - 1))
    p("cap", lambda: t * (1 << min(d, 62)))
    m = p("m", lambda: default_test_samples(theta, config.delta / 2.0))
    zero_tol = 1e-10 * max(1.0, float(t))
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
        admit = lambda S: nonzero_test(session, S, theta, zero_tol, m, UNIFORM_PM)
    return _learn(session, p, UNIFORM_PM, admit, kinds=_KINDS, corrects_noise=True,
                  l1_bound=float(t), metadata=meta)


def learn_tree_uniform(session: OracleSession, config: LearnerConfig) -> LearnOutcome:
    """t-leaf decision trees under the uniform distribution.

    BFS growth admitting S when the L2 test reports E[f_S^2] > theta^2
    with d = ceil(log2(2 t^2 / eps)) and theta = eps/(2t); coefficients
    of the admitted sets are then estimated and the sign of the
    approximation is returned.
    """
    p = _Resolver(config, "tree-uniform")
    t = p("t")
    p("d", lambda: math.ceil(math.log2(2.0 * t * t / config.epsilon)))
    theta = p("theta", lambda: config.epsilon / (2.0 * t))
    p("cap", lambda: math.ceil(t**4 / theta**6))
    m = p("m", lambda: default_test_samples(theta * theta, config.delta / 2.0))
    admit = lambda S: l2_test(session, S, theta, m, UNIFORM_PM)
    return _learn(session, p, UNIFORM_PM, admit, kinds=(UNIFORM,), corrects_noise=False)


def learn_tree_product(session: OracleSession, config: LearnerConfig) -> LearnOutcome:
    """t-leaf decision trees under a bounded product distribution, in the
    orthonormal basis of that distribution.

    With every |mu_i| <= 1-2c the parameters are
    d = log2(8t/eps) / log2(1/(1-c)) and theta = sqrt(eps / (2t * 2^d)),
    mirroring the uniform learner in the chi^mu basis.
    """
    means = session.dist.means
    c = (1.0 - max(abs(mu) for mu in means)) / 2.0
    if c <= 0.0:
        raise ContractViolation("product means must be bounded away from +-1")
    p = _Resolver(config, "tree-product", c=c)
    t = p("t")
    rate = math.log2(1.0 / (1.0 - c))
    d_real = math.log2(8.0 * t / config.epsilon) / rate
    p("d", lambda: math.ceil(d_real))

    def default_theta():
        try:
            theta = math.sqrt(config.epsilon / (2.0 * t * 2.0**d_real))
        except OverflowError:
            theta = 0.0
        if theta > 0.0:
            return theta
        raise ContractViolation(f"default theta underflows at d = {d_real:.4g}; set --theta")

    theta = p("theta", default_theta)

    def cap():
        d2 = math.log2(8.0 * t / theta**2) / rate
        if d2 >= 40:
            return 10**18
        w_min = (theta**2 / 2.0) / (t * 2.0**d2)
        return math.ceil(2.0**d2 / w_min)

    p("cap", cap)
    m = p("m", lambda: default_test_samples(theta * theta, config.delta / 2.0))
    basis = ProductBasis(means)
    admit = lambda S: l2_test(session, S, theta, m, basis)
    return _learn(session, p, basis, admit, kinds=(PRODUCT,), corrects_noise=False)


def learn_dnf(session: OracleSession, config: LearnerConfig) -> LearnOutcome:
    """Polynomial-size DNF under the uniform distribution.

    Heavy low-degree coefficient recovery with d = ceil(log2(s/eps)) and
    theta = eps/(4s). The cited external hypothesis builder is replaced
    by the sign of the estimated approximation; the substitution is
    flagged in the outcome metadata.
    """
    p = _Resolver(config, "dnf")
    s = p("s")
    ratio = s / config.epsilon
    p("d", lambda: math.ceil(math.log2(ratio)))
    theta = p("theta", lambda: config.epsilon / (4.0 * s))
    expo = lambda: math.ceil(math.log2(max(2.0, math.log2(max(2.0, ratio))))) + 3
    p("cap", lambda: math.ceil(ratio ** expo()))
    m = p("m", lambda: default_test_samples(theta * theta, config.delta / 2.0))
    return _learn(
        session,
        p,
        UNIFORM_PM,
        lambda S: l2_test(session, S, theta, m, UNIFORM_PM),
        kinds=(UNIFORM,), corrects_noise=False,
        metadata={"hypothesis_rule": "sign-of-approximation substitute"},
    )

