"""Target representations: exact evaluation, truncation, expansion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmq import (
    ContractViolation,
    DecisionTree,
    DnfFormula,
    Internal,
    Leaf,
    PLUS_MINUS,
    SparsePolynomial,
    ZERO_ONE,
    target_from_json,
    target_to_json,
    tree_to_polynomial,
)
from localmq.distributions import exact_mean, random_smooth_table, verify_smoothness
from localmq.fourier import MONOMIAL_01, UNIFORM_PM, ProductBasis, exact_transform
from localmq._bits import all_masks, popcount
from localmq.generators import random_dnf, random_sparse_poly, random_tree


AND_TREE = DecisionTree(
    2, Internal(0, Leaf(-1), Internal(1, Leaf(-1), Leaf(1))), PLUS_MINUS
)


class TestEvaluate:
    def test_poly_conjunction(self):
        f = SparsePolynomial(3, {0b011: 1.0}, ZERO_ONE)
        assert f.value_at(0b011) == 1.0
        assert f.value_at(0b111) == 1.0
        assert f.value_at(0b101) == 0.0

    def test_empty_poly_is_zero(self):
        f = SparsePolynomial(4, {}, ZERO_ONE)
        for bits in range(16):
            assert f.value_at(bits) == 0.0

    def test_dnf_example(self):
        # (x1 and not-x2) or (x3) at (+1, +1, -1): both terms falsified
        f = DnfFormula(3, (((0, True), (1, False)), ((2, True),)), PLUS_MINUS)
        assert f.value_at(0b011) == -1.0
        assert f.value_at(0b001) == 1.0
        assert f.value_at(0b100) == 1.0

    @pytest.mark.parametrize(
        "terms, error",
        [
            ((((0, True),), ((3, False),)), "literal variable 3 outside"),
            ((((-1, True),),), "literal variable -1 outside"),
            ((((1, True), (2, False), (1, False)),), "variable 1 repeats inside a term"),
        ],
    )
    def test_dnf_literal_off_the_cube_or_repeated_is_refused(self, terms, error):
        with pytest.raises(ContractViolation, match=error):
            DnfFormula(3, terms)

    def test_pm_poly_is_parity_combination(self):
        f = SparsePolynomial(3, {0b101: 2.0}, PLUS_MINUS)
        # chi_{0,2}(x) = x0 * x2
        assert f.value_at(0b101) == 2.0
        assert f.value_at(0b001) == -2.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        tree = random_tree(8, 10, rng)
        masks = all_masks(8)
        batch = tree.value_batch(masks)
        assert all(batch[m] == tree.value_at(int(m)) for m in range(256))

    def test_poly_range_bound(self):
        rng = np.random.default_rng(7)
        f = random_sparse_poly(10, 6, rng, max_degree=5, B=2.0)
        vals = f.value_batch(all_masks(10))
        assert np.all(np.abs(vals) <= f.sparsity_budget * f.coeff_bound + 1e-12)


class TestSparsePolynomialInvariants:
    def test_budget_enforced(self):
        with pytest.raises(ContractViolation):
            SparsePolynomial(3, {0b1: 1.0, 0b10: 1.0}, ZERO_ONE, sparsity_budget=1)
        with pytest.raises(ContractViolation):
            SparsePolynomial(3, {0b1: 3.0}, ZERO_ONE, coeff_bound=2.0)

    def test_zero_coeffs_dropped(self):
        f = SparsePolynomial(3, {0b1: 0.0, 0b10: 1.0}, ZERO_ONE)
        assert f.sparsity == 1
        # a zero term is dropped before its mask is checked; a live one is checked
        assert SparsePolynomial(3, {0b1000: 0.0, 0b10: 1.0}, ZERO_ONE).terms == {0b10: 1.0}
        with pytest.raises(ContractViolation, match="term mask 0x8 outside"):
            SparsePolynomial(3, {0b1000: 2.0, 0b10: 1.0}, ZERO_ONE)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 10), domain=st.sampled_from([ZERO_ONE, PLUS_MINUS]), data=st.data())
    def test_spectrum_reads_as_the_terms(self, n, domain, data):
        # a constant term and coefficients of either sign, in any order
        coeff = st.floats(-4.0, 4.0, allow_nan=False).filter(lambda c: c != 0.0)
        masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=8, unique=True))
        terms = {m: data.draw(coeff) for m in masks}
        terms[0] = data.draw(coeff)
        f = SparsePolynomial(n, terms, domain)
        batch = f.value_batch(all_masks(n))
        assert batch.tobytes() == np.array([f.value_at(x) for x in range(1 << n)]).tobytes()
        subset = data.draw(st.integers(0, (1 << n) - 1))
        assert f.restrict(subset).terms == {
            m & ~subset: c for m, c in terms.items() if m & subset == subset
        }
        assert f.degree() == max(m.bit_count() for m in terms)


class TestTruncatePolynomial:
    def test_drops_high_degree(self):
        f = SparsePolynomial(4, {0: 1.0, 0b0111: 5.0}, ZERO_ONE)
        cut = f.truncate(2)
        assert cut.terms == {0: 1.0}

    def test_identity_when_degree_small(self):
        f = SparsePolynomial(4, {0: 1.0, 0b0111: 5.0}, ZERO_ONE)
        assert f.truncate(3).terms == f.terms

    def test_agreement_where_no_dropped_monomial_fires(self):
        rng = np.random.default_rng(11)
        f = random_sparse_poly(10, 8, rng, max_degree=6)
        d = 3
        cut = f.truncate(d)
        dropped = [m for m in f.terms if popcount(m) > d]
        masks = all_masks(10)
        quiet = np.ones(masks.shape, dtype=bool)
        for m in dropped:
            quiet &= (masks & m) != m
        fv, cv = f.value_batch(masks), cut.value_batch(masks)
        assert np.array_equal(fv[quiet], cv[quiet])

    def test_truncation_probability_bound(self):
        # Pr_D[f != f^d] <= t (alpha/(1+alpha))^d by full enumeration
        alpha = 1.5
        for seed in range(1, 6):
            rng = np.random.default_rng(seed)
            f = random_sparse_poly(12, 8, rng, max_degree=8)
            dist = random_smooth_table(12, alpha, rng, domain=ZERO_ONE)
            a_star = verify_smoothness(dist)
            d = 3
            cut = f.truncate(d)
            masks = all_masks(12)
            differs = np.abs(f.value_batch(masks) - cut.value_batch(masks)) > 1e-12
            p = exact_mean(dist, differs)
            assert p <= f.sparsity * (a_star / (1 + a_star)) ** d + 1e-12


def count_leaves(node):
    return 1 if isinstance(node, Leaf) else count_leaves(node.low) + count_leaves(node.high)


def node_depth(node):
    return 0 if isinstance(node, Leaf) else 1 + max(node_depth(node.low), node_depth(node.high))


def full_path_tree(n, depth):
    def build(level):
        if level == depth:
            return Leaf(1)
        return Internal(level, Leaf(-1), build(level + 1))

    return DecisionTree(n, build(0), PLUS_MINUS)


class TestTruncateTree:
    def test_unchanged_when_shallow(self):
        assert AND_TREE.truncate(5).to_json() == AND_TREE.to_json()

    def test_depth_capped_exactly(self):
        deep = full_path_tree(8, 6)
        assert deep.depth == 6
        cut = deep.truncate(3)
        assert cut.depth == 3

    def test_leaf_count_never_grows(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            tree = random_tree(10, 12, np.random.default_rng(seed))
            for d in (1, 2, 3):
                assert tree.truncate(d).leaf_count <= tree.leaf_count
            # size and depth, read off the leaf paths, match a walk of the nodes
            for t in (tree, *(tree.truncate(d) for d in (1, 2, 3, 5))):
                assert t.leaf_count == count_leaves(t.root)
                assert t.depth == node_depth(t.root)

    def test_cut_subtrees_become_minus_one_leaves(self):
        deep = full_path_tree(4, 3)
        assert deep.truncate(1).value_at(0b1111) == -1.0

    def test_product_truncation_error_bound(self):
        # exact weighted enumeration of Pr_mu[g != f] at the depth that
        # budgets the miss probability to tau
        from localmq.distributions import Distribution

        tau, c = 0.05, 0.3
        rng = np.random.default_rng(21)
        tree = random_tree(12, 16, rng, max_depth=10)
        means = rng.uniform(-0.4, 0.4, size=12)
        dist = Distribution.product(list(means), PLUS_MINUS)
        d = max(1, math.ceil(math.log(tree.leaf_count / tau) / math.log(1 / (1 - c))))
        cut = tree.truncate(d)
        masks = all_masks(12)
        differs = tree.value_batch(masks) != cut.value_batch(masks)
        assert exact_mean(dist, differs) <= tau


class TestTreeToPolynomial:
    def test_single_leaf(self):
        t = DecisionTree(3, Leaf(1), PLUS_MINUS)
        spec = tree_to_polynomial(t, UNIFORM_PM)
        assert spec.coeffs == {0: 1.0}

    def test_depth_one_split(self):
        t = DecisionTree(3, Internal(0, Leaf(-1), Leaf(1)), PLUS_MINUS)
        spec = tree_to_polynomial(t, UNIFORM_PM)
        assert spec.coeffs == {0b1: 1.0}

    def test_and_tree_wht_oracle(self):
        # independent oracle: plain Walsh sums over the 4-point truth table
        expected = {}
        for s in range(4):
            acc = 0.0
            for bits in range(4):
                chi = 1.0
                for i in range(2):
                    if s >> i & 1:
                        chi *= 1.0 if bits >> i & 1 else -1.0
                acc += chi * AND_TREE.value_at(bits)
            if acc:
                expected[s] = acc / 4.0
        assert expected == {0: -0.5, 1: 0.5, 2: 0.5, 3: 0.5}
        spec = tree_to_polynomial(AND_TREE, UNIFORM_PM)
        assert spec.coeffs == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_expansion_reproduces_tree_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(9, 9, rng, max_depth=5)
        masks = all_masks(9)
        tv = tree.value_batch(masks)
        for basis in (
            UNIFORM_PM,
            MONOMIAL_01,
            ProductBasis(tuple(rng.uniform(-0.5, 0.5, size=9))),
        ):
            spec = tree_to_polynomial(tree, basis)
            vals = spec.value_batch(masks)
            assert np.max(np.abs(vals - tv)) < 1e-9
            assert spec.l0() <= tree.leaf_count * 2**tree.depth
            assert spec.degree() <= tree.depth
            # the same coefficients as the butterfly over the truth table
            full = exact_transform(tree, basis, zero_tol=0.0)
            for s in set(spec.coeffs) | set(full.coeffs):
                assert abs(spec.coeff(s) - full.coeff(s)) <= 1e-12

    def test_no_repeated_variable_on_path(self):
        # nor a split variable outside [n]
        for root, error in [
            (Internal(0, Leaf(1), Internal(0, Leaf(1), Leaf(-1))), "variable 0 repeats on a path"),
            (Internal(0, Leaf(1), Internal(3, Leaf(1), Leaf(-1))), "split variable 3 outside"),
            (Internal(-1, Leaf(1), Leaf(-1)), "split variable -1 outside"),
        ]:
            with pytest.raises(ContractViolation, match=error):
                DecisionTree(3, root)


class TestJsonRoundtrip:
    @pytest.mark.parametrize("seed", range(3))
    def test_all_kinds(self, seed):
        rng = np.random.default_rng(seed)
        targets = [
            random_sparse_poly(8, 5, rng, max_degree=4),
            random_tree(8, 6, rng),
            DnfFormula(8, (((0, True), (3, False)), ((5, True),))),
        ]
        for t in targets:
            again = target_from_json(target_to_json(t))
            masks = all_masks(8)
            assert np.array_equal(t.value_batch(masks), again.value_batch(masks))

    def test_dnf_literals_are_dimacs_style(self):
        f = DnfFormula(4, (((0, True), (2, False)),))
        assert target_to_json(f)["terms"] == [[1, -3]]


class TestGeneratorSizes:
    @pytest.mark.parametrize(
        "make, least",
        [
            (lambda size, rng: random_sparse_poly(8, size, rng), 1),
            (lambda size, rng: random_dnf(8, size, rng), 0),
            (lambda size, rng: random_dnf(8, 2, rng, width=size), 0),
            (lambda size, rng: random_tree(8, 4, rng, max_depth=size), 0),
        ],
        ids=["poly t", "dnf s", "dnf width", "tree depth"],
    )
    def test_sizes_below_the_least_are_refused(self, make, least):
        # the least size builds (an empty DNF, zero-width terms, a leaf)
        rng = np.random.default_rng(0)
        make(least, rng)
        for size in (least - 1, least - 3):
            with pytest.raises(ContractViolation):
                make(size, rng)
