"""Persistent random classification noise and its exact corrections.

The noise function zeta maps each point to +-1, flipping with
probability eta; it is realized as a keyed PRF of the point so that the
flip pattern is fixed once per seed and repeat queries are consistent,
with no memo table.

The corrected decision rules need the exact collision probabilities
p_i = Pr[a noisy signed sum of 2**|S| labels returns to zero given the
clean sum was 2i]; these are computed by exact convolution rather than
bounded by an unspecified constant.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._bits import PLUS_MINUS, popcount
from ._prf import bernoulli
from .errors import BudgetExceededError, ContractViolation
from .fourier import TestResult, _admission, _nonzeros, estimate_restriction


@dataclass(frozen=True)
class NoiseWrapper:
    """Label-flipping wrapper: observed label is f(x) * zeta(x)."""

    eta: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eta < 0.5:
            raise ContractViolation(f"eta={self.eta} outside [0, 1/2)")

    def zeta_batch(self, masks) -> np.ndarray:
        flip = bernoulli(self.seed ^ 0x5EED0FAB, masks, self.eta)
        return np.where(flip, -1.0, 1.0)


def _binom_pmf(size: int, eta: float) -> np.ndarray:
    """The masses of Bin(size, eta) on 0..size.

    The ratio of neighbouring masses is (size - j) / (j + 1) * eta / (1 - eta);
    the ratios are multiplied outward from the mode, where every partial
    product stays in (0, 1], and the weights are scaled to sum to 1.
    """
    odds = eta / (1.0 - eta)
    j = np.arange(size)
    up = (size - j) / (j + 1) * odds  # mass[j + 1] / mass[j]
    mode = min(int((size + 1) * eta), size)
    weights = np.ones(size + 1)
    weights[mode + 1 :] = np.cumprod(up[mode:])
    weights[:mode] = np.cumprod(1.0 / up[:mode][::-1])[::-1]
    return weights / math.fsum(weights.tolist())


def rcn_collision_prob(k: int, i: int, eta: float) -> float:
    """Pr[Z1 - Z2 = i] for Z1 ~ Bin(k+i, eta), Z2 ~ Bin(k-i, eta).

    Starting from (k+i) labels at +1 and (k-i) at -1 and flipping each
    independently with probability eta, this is the probability the
    signed sum lands on zero. Exact convolution of the two pmfs,
    compensated summation.
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    if not 0 <= i <= k:
        raise ContractViolation(f"offset i={i} outside [0, {k}]")
    if not 0.0 <= eta < 1.0:
        raise ContractViolation(f"eta={eta} outside [0, 1)")
    return _collision_prob(int(k), int(i), float(eta))


@functools.lru_cache(maxsize=4096)
def _collision_prob(k: int, i: int, eta: float) -> float:
    """`rcn_collision_prob` on checked arguments, computed once per
    (k, i, eta): every noisy test at one |S| asks the same two values."""
    pmf1 = _binom_pmf(k + i, eta)[i : k + 1]  # Z1 = j + i for j = 0..k-i
    return float(math.fsum((pmf1 * _binom_pmf(k - i, eta)).tolist()))


def noisy_nonzero_test(
    session,
    subset: int,
    theta: float,
    m: int,
    zero_tol: float,
    eta: float | None = None,
) -> TestResult:
    """Non-zero test run against a noisy oracle.

    With q = Pr[f^eta_S != 0], clean-frequent sets (Pr[f_S != 0] >= theta)
    push q to at least (1 - p0) + (p0 - p1) * theta while sets with clean
    probability <= theta*(p0-p1)/2 stay below the midpoint threshold
    (1 - p0) + (p0 - p1) * theta / 2. Assumes no query point repeats, so
    the persistent noise behaves as fresh noise.
    """
    eta = _resolve_eta(session, eta)
    k = int(popcount(subset))
    if k == 0:
        # f_S = f itself is +-1 valued, never zero
        return TestResult(True, 1.0, 0)
    half = 1 << (k - 1)
    p0, p1 = rcn_collision_prob(half, 0, eta), rcn_collision_prob(half, 1, eta)
    threshold = (1.0 - p0) + (p0 - p1) * theta / 2.0
    return _admission(session, subset, m, None, _nonzeros(zero_tol), threshold, operator.ge)


def noisy_l2_estimate(
    session, subset: int, m: int, eta: float | None = None
) -> tuple[float, float]:
    """Noise-corrected estimate of E[f_S^2]; returns (corrected, raw).

    The noisy restriction averages 2^|S| independently flipped labels, so
    E[(f^eta_S)^2] = (1-2 eta)^2 f_S^2 + 2^{-|S|} * 4 eta (1-eta)
    (each flip contributes label variance 1-(1-2 eta)^2 = 4 eta (1-eta));
    the raw second moment is debiased and rescaled accordingly.
    """
    eta = _resolve_eta(session, eta)
    k = int(popcount(subset))
    raw = float(np.mean(np.square(estimate_restriction(session, subset, m))))
    bias = 2.0 ** (-k) * 4.0 * eta * (1.0 - eta)
    corrected = (raw - bias) / (1.0 - 2.0 * eta) ** 2
    return corrected, raw


def _resolve_eta(session, eta: float | None) -> float:
    """The assumed noise rate of a noisy test: `eta`, or the session's
    own rate for None. Refused, before any draw, off a +-1 session or
    outside [0, 1/2), where the corrections mean nothing."""
    if session.domain != PLUS_MINUS:
        raise ContractViolation("noisy tests need a +-1 session")
    if eta is None:
        eta = 0.0 if session.noise is None else session.noise.eta
    if not 0.0 <= eta < 0.5:
        raise ContractViolation(f"eta={eta} outside [0, 1/2)")
    return float(eta)


def eta_grid(epsilon: float) -> list[float]:
    """Guess grid for an unknown noise rate: resolution eps/8 on [0, 1/2)."""
    step = epsilon / 8.0
    return [i * step for i in range(math.ceil(0.5 / step)) if i * step < 0.5]


def eta_grid_search(
    make_session,
    learner,
    config,
    validation_samples: int = 2000,
):
    """Scan the eta guess grid in order: run `learner` at each guess,
    score each outcome on one reserved validation sample, and return the
    best outcome.

    make_session(stream) must build a fresh session over the same noisy
    target (same noise seed, so the persistent flips agree across runs).
    Returns (best_outcome, report) where the report carries the grid and
    the per-guess validation errors.
    """
    grid = eta_grid(config.epsilon)
    val_session = make_session("validation")
    _, val_masks, val_labels = val_session.draw_batch(validation_samples)
    results = []
    best = None
    for gi, guess in enumerate(grid):
        session = make_session(f"guess-{gi}")
        try:
            outcome = learner(session, config, eta_assumed=guess)
        except (BudgetExceededError, ContractViolation) as exc:
            # a badly wrong noise guess miscalibrates the tests and can
            # blow the growth budget; score it as a failed guess
            results.append(
                {"eta_guess": guess, "validation_error": None, "failed": str(exc)}
            )
            continue
        preds = outcome.predict_batch(val_masks)
        err = float(np.mean(preds != np.sign(val_labels)))
        results.append({"eta_guess": guess, "validation_error": err})
        if best is None or err < best[0]:
            best = (err, guess, outcome)
    if best is None:
        raise ContractViolation("every noise-rate guess failed to learn")
    report = {
        "grid": grid,
        "results": results,
        "picked_eta": best[1],
        "picked_validation_error": best[0],
    }
    return best[2], report
