"""Fourier machinery: exact transforms in the uniform and product bases,
restriction values computed through local queries, and the L2 / non-zero
admission tests used by every learner.

For a subset S, the restriction f_S collects the coefficients of all
supersets of S on the remaining variables:

    f_S(x_rest) = sum_{T >= S} c_T * basis_{T \\ S}(x_rest)

and is computable from one natural example with exactly 2**|S| queries
that flip only the bits in S, hence |S|-local.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._bits import all_masks, bits_of, mask_of, parity_sign, popcount
from .errors import ContractViolation
from .targets import PLUS_MINUS, ZERO_ONE

DEFAULT_ZERO_TOL = 1e-10


# --------------------------------------------------------------------- bases


class _UniformBasis:
    tag = "uniform_pm"

    def __repr__(self):
        return "UNIFORM_PM"


class _MonomialBasis:
    tag = "monomial_01"

    def __repr__(self):
        return "MONOMIAL_01"


UNIFORM_PM = _UniformBasis()
MONOMIAL_01 = _MonomialBasis()


@dataclass(frozen=True)
class ProductBasis:
    """Orthonormal basis for a +-1 product distribution with E[x_i]=mu_i."""

    means: tuple[float, ...]
    tag = "product_mu"

    def __post_init__(self):
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        if any(not -1.0 < m < 1.0 for m in self.means):
            raise ContractViolation("product basis means must lie in (-1, 1)")

    def sigmas(self) -> np.ndarray:
        m = np.asarray(self.means)
        return np.sqrt(1.0 - m * m)


def basis_to_json(basis) -> dict:
    if isinstance(basis, ProductBasis):
        return {"tag": basis.tag, "means": list(basis.means)}
    return {"tag": basis.tag}


def basis_from_json(obj: dict):
    tag = obj["tag"]
    if tag == "uniform_pm":
        return UNIFORM_PM
    if tag == "monomial_01":
        return MONOMIAL_01
    if tag == "product_mu":
        return ProductBasis(tuple(obj["means"]))
    raise ContractViolation(f"unknown basis tag {tag!r}")


def char_values(basis, subset: int, masks: np.ndarray, n: int) -> np.ndarray:
    """Basis character of `subset` evaluated at the given point masks."""
    masks = np.asarray(masks, dtype=np.int64)
    if basis is MONOMIAL_01:
        return ((masks & subset) == subset).astype(np.float64)
    if basis is UNIFORM_PM:
        full = (1 << n) - 1
        return parity_sign(subset & ~masks & full).astype(np.float64)
    out = np.ones(masks.shape, dtype=np.float64)
    sig = basis.sigmas()
    for i in bits_of(subset):
        x = 2.0 * ((masks >> i) & 1) - 1.0
        out *= (x - basis.means[i]) / sig[i]
    return out


# --------------------------------------------------------------------- spectra


@dataclass(frozen=True)
class FourierSpectrum:
    """Sparse map subset -> coefficient in a declared basis."""

    n: int
    basis: object
    coeffs: dict[int, float]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", {int(m): float(c) for m, c in self.coeffs.items() if c != 0.0}
        )

    def l0(self) -> int:
        return len(self.coeffs)

    def l1(self) -> float:
        return math.fsum(abs(c) for c in self.coeffs.values())

    def l2(self) -> float:
        """Sum of squared coefficients (Parseval mass, not a norm root)."""
        return math.fsum(c * c for c in self.coeffs.values())

    def linf(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def coeff(self, subset: int) -> float:
        return self.coeffs.get(subset, 0.0)

    def degree(self) -> int:
        return max((int(popcount(m)) for m in self.coeffs), default=0)

    def restrict(self, subset: int) -> "FourierSpectrum":
        terms = {
            m & ~subset: c for m, c in self.coeffs.items() if m & subset == subset
        }
        return FourierSpectrum(self.n, self.basis, terms)

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.int64)
        out = np.zeros(masks.shape, dtype=np.float64)
        for m, c in self.coeffs.items():
            out += c * char_values(self.basis, m, masks, self.n)
        return out

    def value_at(self, bits: int) -> float:
        return float(self.value_batch(np.asarray([bits]))[0])

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "basis": basis_to_json(self.basis),
            "coeffs": [
                {"set": bits_of(m), "c": c} for m, c in sorted(self.coeffs.items())
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FourierSpectrum":
        coeffs = {mask_of(e["set"]): float(e["c"]) for e in obj["coeffs"]}
        return cls(int(obj["n"]), basis_from_json(obj["basis"]), coeffs)


# ---------------------------------------------------------------- transforms


def _fwht(values: np.ndarray) -> np.ndarray:
    """In-place style fast Walsh-Hadamard transform, length 2**n."""
    v = values.astype(np.float64).copy()
    size = v.size
    h = 1
    while h < size:
        v = v.reshape(-1, 2, h)
        a = v[:, 0, :].copy()
        b = v[:, 1, :].copy()
        v[:, 0, :] = a + b
        v[:, 1, :] = a - b
        v = v.reshape(size)
        h *= 2
    return v


def exact_transform(target, basis, zero_tol: float = DEFAULT_ZERO_TOL) -> FourierSpectrum:
    """Exact coefficient map of a target in the requested basis.

    Uniform basis runs a fast Walsh-Hadamard pass over the full truth
    table; the product basis applies one weighted butterfly per
    coordinate; the {0,1} monomial basis is a Moebius transform.
    Coefficients with |c| <= zero_tol are dropped.
    """
    n = target.n
    values = np.asarray(target.value_batch(all_masks(n)), dtype=np.float64)
    if basis is UNIFORM_PM:
        out = _fwht(values)
        # table is indexed with bit=1 as +1, so fix the per-subset sign
        out = out * parity_sign(all_masks(n)) / (1 << n)
    elif basis is MONOMIAL_01:
        out = values.copy()
        for i in range(n):
            out = out.reshape(-1, 2, 1 << i)
            out[:, 1, :] -= out[:, 0, :]
            out = out.reshape(values.size)
    elif isinstance(basis, ProductBasis):
        if len(basis.means) != n:
            raise ContractViolation("basis means length != target dimension")
        out = values.copy()
        sig = basis.sigmas()
        for i in range(n):
            p = (1.0 + basis.means[i]) / 2.0
            q = 1.0 - p
            lo = (-1.0 - basis.means[i]) / sig[i]
            hi = (1.0 - basis.means[i]) / sig[i]
            out = out.reshape(-1, 2, 1 << i)
            f0 = out[:, 0, :].copy()
            f1 = out[:, 1, :].copy()
            out[:, 0, :] = q * f0 + p * f1
            out[:, 1, :] = q * lo * f0 + p * hi * f1
            out = out.reshape(values.size)
    else:
        raise ContractViolation(f"unknown basis {basis!r}")
    kept = np.flatnonzero(np.abs(out) > zero_tol)
    return FourierSpectrum(n, basis, dict(zip(kept.tolist(), out[kept].tolist())))


# --------------------------------------------------------------- restrictions


def _flip_signs(subset: int, patterns: np.ndarray) -> np.ndarray:
    """prod(2a_i - 1) of each flip pattern a: the parity of its zeros
    inside the subset."""
    return parity_sign(subset & ~patterns).astype(np.float64)


def restriction_values_01(session, subset: int, anchors: np.ndarray) -> np.ndarray:
    """f_S at the rest-coordinates of each anchor example, {0,1} domain.

    Uses exactly 2**|S| local queries per anchor:
        f_S(x_rest) = sum over assignments a of prod(2a_i - 1) * f(a, x_rest).
    """
    if session.domain != ZERO_ONE:
        raise ContractViolation("restriction_values_01 needs a {0,1} session")
    labels, patterns = session.restriction_query(anchors, subset)
    return labels @ _flip_signs(subset, patterns)


def _check_pm_basis(session, basis) -> None:
    """Refuse a session or basis that restriction_values_pm cannot weigh."""
    if session.domain != PLUS_MINUS:
        raise ContractViolation("restriction_values_pm needs a +-1 session")
    if basis is not UNIFORM_PM and not (
        isinstance(basis, ProductBasis) and len(basis.means) == session.n
    ):
        raise ContractViolation(f"unsupported basis {basis!r} for restrictions on {session.n} bits")


def restriction_values_pm(
    session, subset: int, anchors: np.ndarray, basis=UNIFORM_PM
) -> np.ndarray:
    """f_S at the rest-coordinates of each anchor example, +-1 domain.

    Uniform basis averages chi_S(x) f(x) over the 2**|S| flips; the
    product basis weighs the same points by mu_S and uses chi^mu_S.
    """
    _check_pm_basis(session, basis)
    labels, patterns = session.restriction_query(anchors, subset)
    if basis is UNIFORM_PM:
        return (labels @ _flip_signs(subset, patterns)) / patterns.size
    weights = np.ones(patterns.shape, dtype=np.float64)
    for i in bits_of(subset):
        p = (1.0 + basis.means[i]) / 2.0
        weights *= np.where((patterns >> i) & 1, p, 1.0 - p)
    return labels @ (weights * char_values(basis, subset, patterns, session.n))


# ---------------------------------------------------------------------- tests


class TestResult(NamedTuple):
    passed: bool
    estimate: float
    samples: int


def estimate_restriction(session, subset: int, m: int, basis=UNIFORM_PM) -> np.ndarray:
    """Draw m fresh natural examples and return f_S at each of them, as
    float64 values; each costs exactly 2**|S| local queries. A basis the
    +-1 restriction cannot weigh is refused before any example is drawn."""
    if session.domain == ZERO_ONE:
        anchors, _, _ = session.draw_batch(m)
        return restriction_values_01(session, subset, anchors)
    _check_pm_basis(session, basis)
    anchors, _, _ = session.draw_batch(m)
    return restriction_values_pm(session, subset, anchors, basis)


def default_test_samples(theta_gap: float, delta_test: float) -> int:
    """Two-sided Hoeffding sample size resolving theta_gap/2 deviations of
    an average of values spanning a range of 1."""
    if theta_gap <= 0 or not 0 < delta_test < 1:
        raise ContractViolation("need theta_gap > 0 and delta_test in (0,1)")
    half_gap = theta_gap / 2.0
    return int(math.ceil(math.log(2.0 / delta_test) / (2.0 * half_gap**2)))


def l2_test(session, subset: int, theta: float, m: int, basis=UNIFORM_PM) -> TestResult:
    """Estimate E[f_S(x)^2] from m fresh natural examples and compare
    against theta**2. Each example costs 2**|S| local queries."""
    values = estimate_restriction(session, subset, m, basis)
    est = float(np.mean(values * values))
    return TestResult(est > theta * theta, est, m)


def nonzero_test(
    session, subset: int, theta: float, zero_tol: float, m: int, basis=UNIFORM_PM
) -> TestResult:
    """Estimate Pr[|f_S| > zero_tol] over the rest-marginal from m fresh
    natural examples (the subset coordinates are simply ignored) and
    compare against theta."""
    values = estimate_restriction(session, subset, m, basis)
    est = float(np.mean(np.abs(values) > zero_tol))
    return TestResult(est >= theta, est, m)
