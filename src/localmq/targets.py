"""Target function classes: sparse multilinear polynomials, decision
trees, and DNF formulas over the n-cube, with exact evaluation.

A point is an integer bitmask (bit i = variable i). Each target carries
a domain tag (`_bits.ZERO_ONE` or `_bits.PLUS_MINUS`) telling whether
stored bit b encodes {0,1} or {-1,+1}. All types are immutable after
construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._bits import PLUS_MINUS, ZERO_ONE, bits_of, check_cube, mask_of, popcount
from .errors import ContractViolation
from .fourier import _NATURAL, FourierSpectrum


@dataclass(frozen=True)
class SparsePolynomial:
    """Multilinear polynomial sum_S c_S prod_{i in S} x_i.

    Over the {0,1} domain the monomials are conjunction indicators; over
    {-1,+1} they are parities. Term masks index variable subsets. The
    sparsity budget and coefficient bound are part of the declared class
    and are enforced at construction, then the terms are compiled once
    into `spectrum`, in the domain's natural basis (`MONOMIAL_01` or
    `UNIFORM_PM`); `terms` is its coefficient map.
    """

    n: int
    terms: dict[int, float]
    domain: str = ZERO_ONE
    sparsity_budget: int | None = None
    coeff_bound: float | None = None
    spectrum: FourierSpectrum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_cube(self.n, self.domain)
        for mask, c in self.terms.items():
            if c != 0.0 and not 0 <= mask < (1 << self.n):  # a zero term is dropped unchecked
                raise ContractViolation(f"term mask 0x{int(mask):x} outside [{self.n}]")
        spectrum = FourierSpectrum(self.n, _NATURAL[self.domain], self.terms)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "terms", spectrum.coeffs)
        if self.sparsity_budget is None:
            object.__setattr__(self, "sparsity_budget", max(1, len(self.terms)))
        if self.coeff_bound is None:
            object.__setattr__(self, "coeff_bound", max(map(abs, self.terms.values()), default=1.0))
        t = self.sparsity_budget
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
        return self.spectrum.degree()

    def value_at(self, bits: int) -> float:
        if self.domain == ZERO_ONE:
            return float(sum(c for m, c in self.terms.items() if bits & m == m))
        odd = lambda m: popcount(m & ~bits & ((1 << self.n) - 1)) % 2
        return float(sum(-c if odd(m) else c for m, c in self.terms.items()))

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        return self.spectrum.value_batch(masks)

    def restrict(self, subset: int) -> "SparsePolynomial":
        """The restriction f_S: coefficients of supersets of S on the
        remaining variables. Variables in S become inert."""
        return SparsePolynomial(self.n, self.spectrum.restrict(subset).coeffs, self.domain)

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
    """Binary decision tree; no variable repeats on a root-to-leaf path.
    The walk that checks it builds `paths`, a (variable mask, required-bit
    pattern, label) per leaf, read by evaluation, size, depth and expansion."""

    n: int
    root: Node
    domain: str = PLUS_MINUS
    paths: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_cube(self.n, self.domain)
        paths = []

        def walk(node, vmask, pattern):
            if isinstance(node, Leaf):
                paths.append((vmask, pattern, node.label))
                return
            if not 0 <= node.var < self.n:
                raise ContractViolation(f"split variable {node.var} outside [{self.n}]")
            bit = 1 << node.var
            if vmask & bit:
                raise ContractViolation(f"variable {node.var} repeats on a path")
            walk(node.low, vmask | bit, pattern)
            walk(node.high, vmask | bit, pattern | bit)

        walk(self.root, 0, 0)
        object.__setattr__(self, "paths", tuple(paths))

    @property
    def leaf_count(self) -> int:
        return len(self.paths)

    @property
    def depth(self) -> int:  # a path has distinct variables, so its length is its popcount
        return max(popcount(vmask) for vmask, _, _ in self.paths)

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

    def truncate(self, d: int) -> "DecisionTree":
        """This tree cut at depth d, each cut subtree a -1 leaf."""
        if d < 1:
            raise ContractViolation("truncation depth must be >= 1")

        def cut(node, budget):
            if isinstance(node, Leaf):
                return node
            if budget == 0:
                return Leaf(-1)
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
    `term_masks`, one (variable mask, required-bit pattern) per term, is
    built in the pass that checks the literals, and evaluation reads it.
    """

    n: int
    terms: tuple[tuple[tuple[int, bool], ...], ...]
    domain: str = PLUS_MINUS
    term_masks: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_cube(self.n, self.domain)
        norm = []
        masks = []
        for term in self.terms:
            norm.append(tuple((int(var), bool(pos)) for var, pos in term))
            vmask = pattern = 0
            for var, pos in norm[-1]:
                if not 0 <= var < self.n:
                    raise ContractViolation(f"literal variable {var} outside [{self.n}]")
                if vmask >> var & 1:
                    raise ContractViolation(f"variable {var} repeats inside a term")
                vmask |= 1 << var
                pattern |= pos << var
            masks.append((vmask, pattern))
        object.__setattr__(self, "terms", tuple(norm))
        object.__setattr__(self, "term_masks", tuple(masks))

    @property
    def size(self) -> int:
        return len(self.terms)

    def value_at(self, bits: int) -> float:
        return 1.0 if any(bits & vmask == pat for vmask, pat in self.term_masks) else -1.0

    def value_batch(self, masks: np.ndarray) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.int64)
        sat = np.zeros(masks.shape, dtype=bool)
        for vmask, pat in self.term_masks:
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


def target_to_json(target: TargetFunction) -> dict:
    return target.to_json()


def target_from_json(obj: dict) -> TargetFunction:
    kind = obj["kind"]
    cls = {"sparse_poly": SparsePolynomial, "decision_tree": DecisionTree, "dnf": DnfFormula}
    if kind not in cls:
        raise ContractViolation(f"unknown target kind {kind!r}")
    return cls[kind].from_json(obj)
