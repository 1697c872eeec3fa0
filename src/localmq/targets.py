"""Target function classes: sparse multilinear polynomials, decision
trees, and DNF formulas over the n-cube, with exact evaluation.

A point is an integer bitmask (bit i = variable i). Each target carries
a domain tag telling whether stored bit b encodes {0,1} or {-1,+1}; bit
b=1 always means the "high" value (1 or +1). All types are immutable
after construction and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from ._bits import ENUM_MAX_BITS, bits_of, mask_of, popcount
from .errors import ContractViolation, EnumerationLimitError

ZERO_ONE = "zero_one"
PLUS_MINUS = "plus_minus"
_DOMAINS = (ZERO_ONE, PLUS_MINUS)


def _check_domain(domain: str) -> None:
    if domain not in _DOMAINS:
        raise ContractViolation(f"unknown domain tag {domain!r}")


def _as_terms(terms: Mapping[int, float]) -> dict[int, float]:
    out = {}
    for mask, c in terms.items():
        if c != 0.0:
            out[int(mask)] = float(c)
    return out


@dataclass(frozen=True)
class SparsePolynomial:
    """Multilinear polynomial sum_S c_S prod_{i in S} x_i.

    Over the {0,1} domain the monomials are conjunction indicators; over
    {-1,+1} they are parities. Term masks index variable subsets. The
    sparsity budget and coefficient bound are part of the declared class
    and are enforced at construction.
    """

    n: int
    terms: dict[int, float]
    domain: str = ZERO_ONE
    sparsity_budget: int | None = None
    coeff_bound: float | None = None

    def __post_init__(self):
        _check_domain(self.domain)
        if not 1 <= self.n <= 30:
            raise ContractViolation(f"n={self.n} outside [1, 30]")
        object.__setattr__(self, "terms", _as_terms(self.terms))
        for mask in self.terms:
            if not 0 <= mask < (1 << self.n):
                raise ContractViolation(f"term mask 0x{mask:x} outside [{self.n}]")
        t = self.sparsity_budget
        if t is None:
            t = max(1, len(self.terms))
            object.__setattr__(self, "sparsity_budget", t)
        b = self.coeff_bound
        if b is None:
            b = max([abs(c) for c in self.terms.values()], default=1.0)
            object.__setattr__(self, "coeff_bound", float(b))
        if t < 1:
            raise ContractViolation("sparsity budget must be positive")
        if len(self.terms) > t:
            raise ContractViolation(f"{len(self.terms)} terms exceed budget t={t}")
        if any(abs(c) > self.coeff_bound * (1 + 1e-12) for c in self.terms.values()):
            raise ContractViolation(f"coefficient exceeds bound B={self.coeff_bound}")

    @property
    def sparsity(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        return max((int(popcount(m)) for m in self.terms), default=0)

    def value_at(self, bits: int) -> float:
        if self.domain == ZERO_ONE:
            return float(sum(c for m, c in self.terms.items() if bits & m == m))
        acc = 0.0
        for m, c in self.terms.items():
            acc += c if popcount(m & ~bits & ((1 << self.n) - 1)) % 2 == 0 else -c
        return float(acc)

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.int64)
        out = np.zeros(masks.shape, dtype=np.float64)
        if self.domain == ZERO_ONE:
            for m, c in self.terms.items():
                out += c * ((masks & m) == m)
        else:
            full = (1 << self.n) - 1
            for m, c in self.terms.items():
                odd = popcount(m & ~masks & full) & 1
                out += c * (1 - 2 * odd)
        return out

    def restrict(self, subset: int) -> "SparsePolynomial":
        """The restriction f_S: coefficients of supersets of S on the
        remaining variables. Variables in S become inert."""
        terms = {
            m & ~subset: c for m, c in self.terms.items() if m & subset == subset
        }
        return SparsePolynomial(self.n, terms, self.domain)

    def truncate(self, d: int) -> "SparsePolynomial":
        if d < 0:
            raise ContractViolation("truncation degree must be >= 0")
        kept = {m: c for m, c in self.terms.items() if popcount(m) <= d}
        return SparsePolynomial(
            self.n, kept, self.domain, self.sparsity_budget, self.coeff_bound
        )

    def to_json(self) -> dict:
        return {
            "kind": "sparse_poly",
            "n": self.n,
            "domain": self.domain,
            "terms": [
                {"vars": bits_of(m), "coeff": c}
                for m, c in sorted(self.terms.items())
            ],
            "t": self.sparsity_budget,
            "B": self.coeff_bound,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SparsePolynomial":
        terms = {mask_of(t["vars"]): float(t["coeff"]) for t in obj["terms"]}
        return cls(
            int(obj["n"]),
            terms,
            obj.get("domain", ZERO_ONE),
            obj.get("t"),
            obj.get("B"),
        )


@dataclass(frozen=True)
class Leaf:
    label: int  # -1 or +1

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise ContractViolation(f"leaf label {self.label} not in {{-1,+1}}")


@dataclass(frozen=True)
class Internal:
    var: int
    low: "Leaf | Internal"   # branch taken when bit = 0 (value 0 or -1)
    high: "Leaf | Internal"  # branch taken when bit = 1 (value 1 or +1)


Node = Leaf | Internal


@dataclass(frozen=True)
class DecisionTree:
    """Binary decision tree; no variable repeats on a root-to-leaf path."""

    n: int
    root: Node
    domain: str = PLUS_MINUS

    def __post_init__(self):
        _check_domain(self.domain)
        if not 1 <= self.n <= 30:
            raise ContractViolation(f"n={self.n} outside [1, 30]")
        self._validate(self.root, 0)

    def _validate(self, node: Node, seen: int) -> None:
        if isinstance(node, Leaf):
            return
        if not 0 <= node.var < self.n:
            raise ContractViolation(f"split variable {node.var} outside [{self.n}]")
        if seen >> node.var & 1:
            raise ContractViolation(f"variable {node.var} repeats on a path")
        self._validate(node.low, seen | (1 << node.var))
        self._validate(node.high, seen | (1 << node.var))

    @cached_property
    def leaf_count(self) -> int:
        def count(node):
            if isinstance(node, Leaf):
                return 1
            return count(node.low) + count(node.high)

        return count(self.root)

    @cached_property
    def depth(self) -> int:
        def dep(node):
            if isinstance(node, Leaf):
                return 0
            return 1 + max(dep(node.low), dep(node.high))

        return dep(self.root)

    @cached_property
    def paths(self) -> list[tuple[int, int, int]]:
        """Leaf paths as (variable mask, required-bit pattern, label)."""
        out = []

        def walk(node, vmask, pattern):
            if isinstance(node, Leaf):
                out.append((vmask, pattern, node.label))
                return
            walk(node.low, vmask | (1 << node.var), pattern)
            walk(node.high, vmask | (1 << node.var), pattern | (1 << node.var))

        walk(self.root, 0, 0)
        return out

    def value_at(self, bits: int) -> float:
        node = self.root
        while isinstance(node, Internal):
            node = node.high if bits >> node.var & 1 else node.low
        return float(node.label)

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.int64)
        out = np.zeros(masks.shape, dtype=np.float64)
        for vmask, pattern, label in self.paths:
            out += label * ((masks & vmask) == pattern)
        return out

    def truncate(self, d: int, cap_label: int = -1) -> "DecisionTree":
        if d < 1:
            raise ContractViolation("truncation depth must be >= 1")
        if cap_label not in (-1, 1):
            raise ContractViolation("cap label must be -1 or +1")

        def cut(node, budget):
            if isinstance(node, Leaf):
                return node
            if budget == 0:
                return Leaf(cap_label)
            return Internal(node.var, cut(node.low, budget - 1), cut(node.high, budget - 1))

        return DecisionTree(self.n, cut(self.root, d), self.domain)

    def to_json(self) -> dict:
        def enc(node):
            if isinstance(node, Leaf):
                return {"leaf": node.label}
            return {"var": node.var, "low": enc(node.low), "high": enc(node.high)}

        return {
            "kind": "decision_tree",
            "n": self.n,
            "domain": self.domain,
            "root": enc(self.root),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DecisionTree":
        def dec(node):
            if "leaf" in node:
                return Leaf(int(node["leaf"]))
            return Internal(int(node["var"]), dec(node["low"]), dec(node["high"]))

        return cls(int(obj["n"]), dec(obj["root"]), obj.get("domain", PLUS_MINUS))


@dataclass(frozen=True)
class DnfFormula:
    """OR of ANDs of signed literals; +1 when some term is satisfied.

    Terms are tuples of (variable index, positive) pairs; a positive
    literal asks for bit 1 (value 1 or +1), a negative one for bit 0.
    """

    n: int
    terms: tuple[tuple[tuple[int, bool], ...], ...]
    domain: str = PLUS_MINUS

    def __post_init__(self):
        _check_domain(self.domain)
        if not 1 <= self.n <= 30:
            raise ContractViolation(f"n={self.n} outside [1, 30]")
        norm = []
        for term in self.terms:
            seen = 0
            lits = []
            for var, pos in term:
                var = int(var)
                if not 0 <= var < self.n:
                    raise ContractViolation(f"literal variable {var} outside [{self.n}]")
                if seen >> var & 1:
                    raise ContractViolation(f"variable {var} repeats inside a term")
                seen |= 1 << var
                lits.append((var, bool(pos)))
            norm.append(tuple(lits))
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def size(self) -> int:
        return len(self.terms)

    @cached_property
    def _term_masks(self) -> list[tuple[int, int]]:
        """Per term: (mask of all literal vars, required-bit pattern)."""
        out = []
        for term in self.terms:
            vmask = 0
            pat = 0
            for var, pos in term:
                vmask |= 1 << var
                if pos:
                    pat |= 1 << var
            out.append((vmask, pat))
        return out

    def value_at(self, bits: int) -> float:
        for vmask, pat in self._term_masks:
            if bits & vmask == pat:
                return 1.0
        return -1.0

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.int64)
        sat = np.zeros(masks.shape, dtype=bool)
        for vmask, pat in self._term_masks:
            sat |= (masks & vmask) == pat
        return np.where(sat, 1.0, -1.0)

    def drop_wide_terms(self, width: int) -> "DnfFormula":
        kept = tuple(t for t in self.terms if len(t) <= width)
        return DnfFormula(self.n, kept, self.domain)

    def to_json(self) -> dict:
        # signed 1-based literals, DIMACS style
        return {
            "kind": "dnf",
            "n": self.n,
            "domain": self.domain,
            "terms": [
                [(var + 1) if pos else -(var + 1) for var, pos in term]
                for term in self.terms
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DnfFormula":
        terms = tuple(
            tuple((abs(lit) - 1, lit > 0) for lit in term) for term in obj["terms"]
        )
        return cls(int(obj["n"]), terms, obj.get("domain", PLUS_MINUS))


TargetFunction = SparsePolynomial | DecisionTree | DnfFormula


def tree_to_polynomial(g: DecisionTree, basis) -> "FourierSpectrum":
    """Exact coefficient expansion of a decision tree via its leaf paths.

    Every leaf path contributes label * prod(per-variable indicator); each
    indicator is affine in the basis character of that variable, so the
    product expands over subsets of the path. Coefficient count is at most
    leaf_count * 2**depth and every subset has size <= depth.
    """
    from .fourier import FourierSpectrum, MONOMIAL_01, UNIFORM_PM, ProductBasis

    if g.n > ENUM_MAX_BITS:
        raise EnumerationLimitError(f"n={g.n} too large for exact path expansion")
    coeffs: dict[int, float] = {}
    if isinstance(basis, ProductBasis):
        if len(basis.means) != g.n:
            raise ContractViolation("basis means length != tree dimension")
        mus = basis.means
        sigmas = [float(np.sqrt(1.0 - m * m)) for m in mus]
    for vmask, pattern, label in g.paths:
        path_vars = bits_of(vmask)
        # indicator(x_i on its required side) written as a + b * char_i(x)
        factors = []
        for i in path_vars:
            side = 1 if pattern >> i & 1 else -1
            if basis is UNIFORM_PM:
                factors.append((i, 0.5, 0.5 * side))
            elif basis is MONOMIAL_01:
                # x_i for side 1; 1 - x_i for side 0
                factors.append((i, 0.0 if side == 1 else 1.0, float(side)))
            else:
                factors.append(
                    (i, 0.5 * (1.0 + side * mus[i]), 0.5 * side * sigmas[i])
                )
        expansion = {0: float(label)}
        for i, a, b in factors:
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


def target_to_json(target: TargetFunction) -> dict:
    return target.to_json()


def target_from_json(obj: dict | str) -> TargetFunction:
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj["kind"]
    if kind == "sparse_poly":
        return SparsePolynomial.from_json(obj)
    if kind == "decision_tree":
        return DecisionTree.from_json(obj)
    if kind == "dnf":
        return DnfFormula.from_json(obj)
    raise ContractViolation(f"unknown target kind {kind!r}")
