"""Fourier machinery: exact transforms in the uniform, product and {0,1}
monomial bases, restriction values computed through local queries, and
the L2 / non-zero admission tests used by every learner.

A basis is given variable by variable: the character of variable i takes
lo_i at bit 0 and hi_i at bit 1, and the rows of a 2x2 inverse read the
constant and the character coefficient of a function of x_i off its two
values (f(bit 0), f(bit 1)). The transform, the characters, the
restriction weights and the tree expansion all read these numbers.

For a subset S, the restriction f_S collects the coefficients of all
supersets of S on the remaining variables:

    f_S(x_rest) = sum_{T >= S} c_T * basis_{T \\ S}(x_rest)

and is computable from one natural example with exactly 2**|S| queries
that flip only the bits in S, hence |S|-local.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._bits import (
    PLUS_MINUS, ZERO_ONE, all_masks, bits_of, check_masks, flip_patterns, mask_of, popcount,
)
from .errors import ContractViolation

DEFAULT_ZERO_TOL = 1e-10


# --------------------------------------------------------------------- bases


def _pm_variable(mu: float) -> tuple[float, float, tuple]:
    """(lo, hi, inverse) of the +-1 character (x - mu) / sqrt(1 - mu**2)
    of a variable with mean mu: inverse = ((q, p), (q lo, p hi)) with
    p = (1 + mu) / 2 the mass of bit 1 and q = 1 - p. The one place the
    numbers of a +-1 basis are worked out."""
    sigma = math.sqrt(1.0 - mu * mu)
    p = (1.0 + mu) / 2.0
    q = 1.0 - p
    lo, hi = (-1.0 - mu) / sigma, (1.0 - mu) / sigma
    return lo, hi, ((q, p), (q * lo, p * hi))


def _by_ones(one: float, zero: float, k: int, ones: np.ndarray) -> np.ndarray:
    """one**j * zero**(k - j) at each count j in `ones`: a product of k
    per-variable factors that depend on the bit alone."""
    table = np.array([one**j * zero ** (k - j) for j in range(k + 1)])
    return table[ones]


class _Basis:
    """A Fourier basis on the cube. `_inverse(i)` is the 2x2 inverse of
    variable i; `_chars` evaluates the character of a set, `_flip_key`
    and `_flip_weights` give the weights of its restriction. A basis fits
    a session of its `domain` and, unless `width` is None, only that n."""

    domain = PLUS_MINUS
    width = None


class _SameBasis(_Basis):
    """A basis that is the same on every variable: the character of S at
    x is hi**j * lo**(|S| - j) with j = |S & x|."""

    def __init__(self, name: str, tag: str, domain: str, lo: float, hi: float, inverse):
        self.name, self.tag, self.domain = name, tag, domain
        self.lo, self.hi, self.inverse = lo, hi, inverse

    def __repr__(self):
        return self.name

    def _inverse(self, i: int):
        return self.inverse

    def _chars(self, subset: int, masks: np.ndarray) -> np.ndarray:
        if self.lo == 0.0:  # the indicator of S inside x
            return ((masks & subset) == subset).astype(np.float64)
        return _by_ones(self.hi, self.lo, popcount(subset), np.bitwise_count(masks & subset))

    def _flip_key(self, subset: int) -> int:
        return (1 << popcount(subset)) - 1  # the weights depend on |S| alone

    def _flip_weights(self, subset: int, patterns: np.ndarray) -> np.ndarray:
        zero, one = self.inverse[1]
        return _by_ones(one, zero, popcount(subset), np.bitwise_count(patterns))


UNIFORM_PM = _SameBasis("UNIFORM_PM", "uniform_pm", PLUS_MINUS, *_pm_variable(0.0))
MONOMIAL_01 = _SameBasis("MONOMIAL_01", "monomial_01", ZERO_ONE, 0.0, 1.0, ((1.0, 0.0), (-1.0, 1.0)))
_NATURAL = {ZERO_ONE: MONOMIAL_01, PLUS_MINUS: UNIFORM_PM}


@dataclass(frozen=True)
class ProductBasis(_Basis):
    """Orthonormal basis for a +-1 product distribution with E[x_i]=mu_i."""

    means: tuple[float, ...]
    tag = "product_mu"

    def __post_init__(self):
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        if any(not -1.0 < m < 1.0 for m in self.means):
            raise ContractViolation("product basis means must lie in (-1, 1)")
        object.__setattr__(self, "_variables", tuple(_pm_variable(m) for m in self.means))

    @property
    def width(self) -> int:
        return len(self.means)

    def _inverse(self, i: int):
        return self._variables[i][2]

    def _chars(self, subset: int, masks: np.ndarray) -> np.ndarray:
        out = np.ones(masks.shape, dtype=np.float64)
        for i in bits_of(subset):
            lo, hi, _ = self._variables[i]
            out *= np.where((masks >> i) & 1, hi, lo)
        return out

    def _flip_key(self, subset: int) -> int:
        return subset

    def _flip_weights(self, subset: int, patterns: np.ndarray) -> np.ndarray:
        # measure times character, in this order: the weights keep their bytes
        measure = np.ones(patterns.shape, dtype=np.float64)
        for i in bits_of(subset):
            q, p = self._variables[i][2][0]
            measure *= np.where((patterns >> i) & 1, p, q)
        return measure * self._chars(subset, patterns)


def _check_basis(basis, n: int, domain: str | None = None) -> None:
    """Refuse a basis that does not fit n variables or, when given, a
    session's domain."""
    fits = isinstance(basis, _Basis) and basis.width in (None, n)
    if not fits or domain not in (None, basis.domain):
        where = f"{n} bits" if domain is None else f"a {domain} session on {n} bits"
        raise ContractViolation(f"unsupported basis {basis!r} for {where}")


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


def char_values(basis, subset: int, masks: np.ndarray) -> np.ndarray:
    """Basis character of `subset` evaluated at the given point masks."""
    return basis._chars(int(subset), np.asarray(masks, dtype=np.int64))


# --------------------------------------------------------------------- spectra


@dataclass(frozen=True)
class FourierSpectrum:
    """Sparse map subset -> coefficient in a declared basis. A set outside
    [0, 2**n) and a basis that does not fit n are refused."""

    n: int
    basis: object
    coeffs: dict[int, float]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", {int(m): float(c) for m, c in self.coeffs.items() if c != 0.0}
        )
        _check_basis(self.basis, self.n)
        check_masks(list(self.coeffs), self.n, f"a coefficient's set lies outside [{self.n}]")

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
        subset = check_masks(subset, self.n, f"subset outside [{self.n}]")
        terms = {
            m & ~subset: c for m, c in self.coeffs.items() if m & subset == subset
        }
        return FourierSpectrum(self.n, self.basis, terms)

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.int64)
        out = np.zeros(masks.shape, dtype=np.float64)
        for m, c in self.coeffs.items():
            out += c * char_values(self.basis, m, masks)
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


def exact_transform(target, basis, zero_tol: float = DEFAULT_ZERO_TOL) -> FourierSpectrum:
    """Exact coefficient map of a target in the requested basis.

    One butterfly over the full truth table: step i reads each pair of
    values (bit 0, bit 1) of variable i, which sits on the lowest bit,
    into its (constant, character) coefficients through the basis's
    inverse and moves them to the top bit, so after n steps every
    variable is back in place. Coefficients with |c| <= zero_tol are
    dropped.
    """
    n = target.n
    _check_basis(basis, n)
    out = np.asarray(target.value_batch(all_masks(n)), dtype=np.float64)
    for i in range(n):
        inverse = np.asarray(basis._inverse(i))
        pairs = out.reshape(-1, 2)
        out = (inverse[:, :1] * pairs[:, 0] + inverse[:, 1:] * pairs[:, 1]).reshape(-1)
    kept = np.flatnonzero(np.abs(out) > zero_tol)
    return FourierSpectrum(n, basis, dict(zip(kept.tolist(), out[kept].tolist())))


def tree_to_polynomial(g, basis) -> FourierSpectrum:
    """Exact coefficient expansion of a decision tree via its leaf paths.

    Every leaf path contributes label * prod(per-variable indicator); the
    indicator of x_i taking bit v is a + b * char_i(x), with (a, b) column
    v of the basis's inverse, so the product expands over subsets of the
    path. Coefficient count is at most leaf_count * 2**depth, whatever n
    is, and every subset has size <= depth.
    """
    _check_basis(basis, g.n)
    coeffs: dict[int, float] = {}
    for vmask, pattern, label in g.paths:
        expansion = {0: float(label)}
        for i in bits_of(vmask):
            rows, v = basis._inverse(i), pattern >> i & 1
            a, b = rows[0][v], rows[1][v]
            nxt: dict[int, float] = {}
            for m, c in expansion.items():
                if a != 0.0:
                    nxt[m] = nxt.get(m, 0.0) + c * a
                if b != 0.0:
                    mm = m | (1 << i)
                    nxt[mm] = nxt.get(mm, 0.0) + c * b
            expansion = nxt
        for m, c in expansion.items():
            coeffs[m] = coeffs.get(m, 0.0) + c
    coeffs = {m: c for m, c in coeffs.items() if abs(c) > 1e-12}
    return FourierSpectrum(g.n, basis, coeffs)


# --------------------------------------------------------------- restrictions


@functools.lru_cache(maxsize=1024)
def _flip_weights(basis, subset: int) -> np.ndarray:
    """prod over i in S of the inverse's character row at a_i, for each
    flip pattern a of `subset` in the order of `restriction_query`'s
    patterns: labels @ weights is f_S at the anchor. Read-only, built on
    first use; the last 1024 (basis, S) are kept, and `restriction_values`
    asks a basis that is the same on every variable once per |S|."""
    weights = basis._flip_weights(subset, flip_patterns(subset))
    weights.flags.writeable = False
    return weights


def _session_basis(session, basis):
    """`basis`, or the session's natural basis for None (monomials over
    {0,1}, parities over +-1); refused unless it fits the session."""
    basis = _NATURAL[session.domain] if basis is None else basis
    _check_basis(basis, session.n, session.domain)
    return basis


def restriction_values(session, subset: int, anchors: np.ndarray, basis=None) -> np.ndarray:
    """f_S in `basis` (None: the session's natural basis) at the
    rest-coordinates of each anchor example.

    Uses exactly 2**|S| local queries per anchor, the flips of S, and
    weighs them by the basis's inverse; over {0,1} monomials that is
        f_S(x_rest) = sum over assignments a of prod(2a_i - 1) * f(a, x_rest).
    A basis that does not fit the session is refused before any query.
    """
    basis = _session_basis(session, basis)
    subset = int(subset)
    labels, _ = session.restriction_query(anchors, subset)
    return labels @ _flip_weights(basis, basis._flip_key(subset))


# ---------------------------------------------------------------------- tests


class TestResult(NamedTuple):
    passed: bool
    estimate: float
    samples: int


def estimate_restriction(session, subset: int, m: int, basis=None) -> np.ndarray:
    """Draw m fresh natural examples and return f_S at each of them, as
    float64 values from `restriction_values`; each costs exactly 2**|S|
    local queries. A basis that does not fit the session and a subset
    outside its cube are refused before any example is drawn."""
    basis = _session_basis(session, basis)
    check_masks(subset, session.n, f"subset outside the session's {session.n}-bit cube")
    anchors, _, _ = session.draw_batch(m)
    return restriction_values(session, subset, anchors, basis)


def default_test_samples(theta_gap: float, delta_test: float) -> int:
    """Two-sided Hoeffding sample size resolving theta_gap/2 deviations of
    an average of values spanning a range of 1."""
    if theta_gap <= 0 or not 0 < delta_test < 1:
        raise ContractViolation("need theta_gap > 0 and delta_test in (0,1)")
    half_gap = theta_gap / 2.0
    return int(math.ceil(math.log(2.0 / delta_test) / (2.0 * half_gap**2)))


def _nonzeros(zero_tol: float):
    """The non-zero statistic: whether |f_S| exceeds zero_tol."""
    return lambda values: np.abs(values) > zero_tol


def _admission(session, subset, m, basis, statistic, threshold, passes) -> TestResult:
    """The one admission rule: average `statistic` of f_S over m fresh
    natural examples and pass when passes(mean, threshold). Each example
    costs 2**|S| local queries."""
    est = float(np.mean(statistic(estimate_restriction(session, subset, m, basis))))
    return TestResult(passes(est, threshold), est, m)


def l2_test(session, subset: int, theta: float, m: int, basis=None) -> TestResult:
    """Estimate E[f_S(x)^2] from m fresh natural examples; passes when
    the estimate exceeds theta**2."""
    return _admission(session, subset, m, basis, np.square, theta * theta, operator.gt)


def nonzero_test(
    session, subset: int, theta: float, zero_tol: float, m: int, basis=None
) -> TestResult:
    """Estimate Pr[|f_S| > zero_tol] over the rest-marginal from m fresh
    natural examples (the subset coordinates are simply ignored); passes
    when the estimate is at least theta."""
    return _admission(session, subset, m, basis, _nonzeros(zero_tol), theta, operator.ge)
