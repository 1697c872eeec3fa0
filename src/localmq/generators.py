"""Seeded random instance generators used by the CLI and the suites."""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .targets import (
    PLUS_MINUS,
    ZERO_ONE,
    DecisionTree,
    DnfFormula,
    Internal,
    Leaf,
    SparsePolynomial,
)


def random_subset(n: int, max_size: int, rng: np.random.Generator, min_size: int = 0) -> int:
    """A uniformly sized random subset of the n bits, sizes clamped to n."""
    max_size = min(max_size, n)
    if min_size > max_size:
        raise ContractViolation(f"min_size {min_size} above max_size {max_size} (n={n})")
    size = int(rng.integers(min_size, max_size + 1))
    if size == 0:
        return 0
    chosen = rng.choice(n, size=size, replace=False)
    mask = 0
    for i in chosen:
        mask |= 1 << int(i)
    return mask


def random_sparse_poly(
    n: int,
    t: int,
    rng: np.random.Generator,
    max_degree: int | None = None,
    coeff_choices=(-2.0, -1.0, 1.0, 2.0),
    domain: str = ZERO_ONE,
    B: float | None = None,
    include_constant: bool = False,
    min_degree: int = 0,
) -> SparsePolynomial:
    """t distinct monomials with coefficients drawn from coeff_choices."""
    max_degree = n if max_degree is None else min(max_degree, n)
    if max_degree < min_degree:
        raise ContractViolation(f"min_degree {min_degree} above max_degree {max_degree} (n={n})")
    terms: dict[int, float] = {}
    if include_constant:
        terms[0] = float(rng.choice(coeff_choices))
    guard = 0
    while len(terms) < t:
        guard += 1
        if guard > 100 * t + 100:
            break
        mask = random_subset(n, max_degree, rng, min_size=min_degree)
        if mask in terms:
            continue
        terms[mask] = float(rng.choice(coeff_choices))
    bound = B if B is not None else max(abs(c) for c in terms.values())
    return SparsePolynomial(n, terms, domain, sparsity_budget=max(t, len(terms)), coeff_bound=bound)


def random_tree(
    n: int,
    t_leaves: int,
    rng: np.random.Generator,
    max_depth: int | None = None,
    domain: str = PLUS_MINUS,
) -> DecisionTree:
    """Random binary tree grown by splitting random leaves until the leaf
    budget is reached, never repeating a variable on a path."""
    max_depth = n if max_depth is None else min(max_depth, n)
    if t_leaves < 1:
        raise ContractViolation("need at least one leaf")

    def leaf():
        return Leaf(1 if rng.random() < 0.5 else -1)

    # grow as a mutable nested structure, freeze at the end
    root = {"leaf": leaf()}
    leaves = [(root, 0, 0)]  # (holder, depth, used-vars mask)
    count = 1
    while count < t_leaves:
        order = rng.permutation(len(leaves))
        picked = None
        for idx in order:
            holder, depth, used = leaves[int(idx)]
            if depth < max_depth and used != (1 << n) - 1:
                picked = int(idx)
                break
        if picked is None:
            break
        holder, depth, used = leaves.pop(picked)
        free = [i for i in range(n) if not used >> i & 1]
        var = int(rng.choice(free))
        lo = {"leaf": leaf()}
        hi = {"leaf": leaf()}
        holder.pop("leaf")
        holder["var"] = var
        holder["low"] = lo
        holder["high"] = hi
        leaves.append((lo, depth + 1, used | (1 << var)))
        leaves.append((hi, depth + 1, used | (1 << var)))
        count += 1

    def freeze(node):
        if "leaf" in node:
            return node["leaf"]
        return Internal(node["var"], freeze(node["low"]), freeze(node["high"]))

    return DecisionTree(n, freeze(root), domain)


def random_dnf(
    n: int,
    s: int,
    rng: np.random.Generator,
    width: int = 3,
    domain: str = PLUS_MINUS,
) -> DnfFormula:
    if width > n:
        raise ContractViolation(f"DNF width {width} above n={n}")
    terms = []
    for _ in range(s):
        vars_ = rng.choice(n, size=width, replace=False)
        terms.append(tuple((int(v), bool(rng.random() < 0.5)) for v in vars_))
    return DnfFormula(n, tuple(terms), domain)


def random_product_means(
    n: int, rng: np.random.Generator, lo: float = -0.4, hi: float = 0.4
) -> list[float]:
    return [float(m) for m in rng.uniform(lo, hi, size=n)]
