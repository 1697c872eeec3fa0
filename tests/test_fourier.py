"""Fourier machinery: transforms vs direct-definition oracles, restrictions
vs symbolic oracles, admission tests vs exact values."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmq import (
    ContractViolation,
    Distribution,
    FourierSpectrum,
    OracleSession,
    PLUS_MINUS,
    ProductBasis,
    SparsePolynomial,
    UNIFORM_PM,
    ZERO_ONE,
    exact_transform,
    l2_test,
    nonzero_test,
    tree_to_polynomial,
)
from localmq.distributions import random_smooth_table, verify_smoothness
from localmq.fourier import (
    MONOMIAL_01,
    char_values,
    default_test_samples,
    estimate_restriction,
    restriction_values_01,
    restriction_values_pm,
)
from localmq.generators import random_product_means, random_sparse_poly, random_subset, random_tree
from localmq.oracles import AUDIT_COUNTS
from localmq.verify import VerifierOracle
from localmq._bits import all_masks, bits_of, popcount


class TestExactTransform:
    def test_single_variable(self):
        f = SparsePolynomial(3, {0b1: 1.0}, PLUS_MINUS)
        spec = exact_transform(f, UNIFORM_PM)
        assert spec.coeffs == pytest.approx({0b1: 1.0})

    def test_constant_in_every_basis(self):
        from localmq.targets import DecisionTree, Leaf

        one = DecisionTree(4, Leaf(1), PLUS_MINUS)
        for basis in (UNIFORM_PM, MONOMIAL_01, ProductBasis((0.1, -0.2, 0.3, 0.0))):
            assert exact_transform(one, basis).coeffs == pytest.approx({0: 1.0})

    def test_two_bit_and(self):
        from .test_targets import AND_TREE

        spec = exact_transform(AND_TREE, UNIFORM_PM)
        assert spec.coeffs == pytest.approx({0: -0.5, 1: 0.5, 2: 0.5, 3: 0.5})

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_direct_definition(self, seed):
        # two independent routes: butterfly transforms vs per-subset sums
        rng = np.random.default_rng(seed)
        tree = random_tree(7, 6, rng, max_depth=4)
        ver = VerifierOracle()
        for basis in (
            UNIFORM_PM,
            ProductBasis(tuple(random_product_means(7, rng))),
        ):
            fast = exact_transform(tree, basis)
            slow = ver.direct_transform(tree, basis)
            keys = set(fast.coeffs) | set(slow.coeffs)
            for s in keys:
                assert fast.coeff(s) == pytest.approx(slow.coeff(s), abs=1e-10)

    def test_monomial_basis_inverts_evaluation(self):
        rng = np.random.default_rng(9)
        f = random_sparse_poly(8, 6, rng, max_degree=4, domain=ZERO_ONE)
        spec = exact_transform(f, MONOMIAL_01)
        assert spec.coeffs == pytest.approx(f.terms)

    def test_parseval_uniform(self):
        rng = np.random.default_rng(5)
        tree = random_tree(10, 10, rng)
        spec = exact_transform(tree, UNIFORM_PM)
        assert abs(spec.l2() - 1.0) <= 1e-9

    def test_product_orthonormality(self):
        # E_mu[chi_S1 chi_S2] = delta by exact enumeration
        rng = np.random.default_rng(6)
        n = 8
        means = random_product_means(n, rng)
        basis = ProductBasis(tuple(means))
        dist = Distribution.product(means, PLUS_MINUS)
        masks = all_masks(n)
        w = dist.probs_array()
        for _ in range(25):
            s1 = random_subset(n, 4, rng)
            s2 = random_subset(n, 4, rng)
            prod = char_values(basis, s1, masks, n) * char_values(basis, s2, masks, n)
            inner = math.fsum((w * prod).tolist())
            assert inner == pytest.approx(1.0 if s1 == s2 else 0.0, abs=1e-9)

    def test_norm_accessors(self):
        spec = FourierSpectrum(3, UNIFORM_PM, {0: 0.5, 0b11: -0.25})
        assert spec.l0() == 2
        assert spec.l1() == pytest.approx(0.75)
        assert spec.l2() == pytest.approx(0.3125)
        assert spec.linf() == pytest.approx(0.5)

    def test_spectrum_json_roundtrip(self):
        rng = np.random.default_rng(14)
        tree = random_tree(8, 6, rng, max_depth=3)
        for basis in (UNIFORM_PM, ProductBasis(tuple(random_product_means(8, rng)))):
            spec = exact_transform(tree, basis)
            again = FourierSpectrum.from_json(spec.to_json())
            assert again.coeffs == pytest.approx(spec.coeffs)
            obj = spec.to_json()
            assert all(set(e) == {"set", "c"} for e in obj["coeffs"])


def poly_session(poly, dist, r, seed=0):
    return OracleSession(poly, dist, r=r, seed=seed, audit_mode=AUDIT_COUNTS)


class TestRestriction01:
    def test_empty_set_is_value(self):
        rng = np.random.default_rng(0)
        f = random_sparse_poly(8, 5, rng, max_degree=4)
        s = poly_session(f, Distribution.uniform(8, ZERO_ONE), r=0)
        _, _, labels = s.draw_batch(1)
        assert restriction_values_01(s, 0, np.asarray([0]))[0] == labels[0]
        assert s.mq_count == 1

    def test_product_term_restriction(self):
        f = SparsePolynomial(6, {0b11: 1.0}, ZERO_ONE)
        s = poly_session(f, Distribution.uniform(6, ZERO_ONE), r=1)
        for k in range(10):
            idx, masks, _ = s.draw_batch(1)
            got = restriction_values_01(s, 0b1, idx)[0]
            want = float((int(masks[0]) >> 1) & 1)  # f_{x0} = x1
            assert got == pytest.approx(want)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_symbolic_oracle(self, seed):
        rng = np.random.default_rng(seed)
        f = random_sparse_poly(12, 6, rng, max_degree=5)
        dist = random_smooth_table(12, 1.5, rng, domain=ZERO_ONE)
        s = poly_session(f, dist, r=4, seed=seed)
        for _ in range(30):
            subset = random_subset(12, 4, rng, min_size=1)
            symbolic = f.restrict(subset)  # independent algebraic route
            idx, masks, _ = s.draw_batch(1)
            got = restriction_values_01(s, subset, idx)[0]
            assert got == pytest.approx(symbolic.value_at(int(masks[0])), abs=1e-9)

    def test_query_budget_is_2_to_s(self):
        rng = np.random.default_rng(1)
        f = random_sparse_poly(10, 4, rng, max_degree=3)
        s = poly_session(f, Distribution.uniform(10, ZERO_ONE), r=3)
        idx, _, _ = s.draw_batch(1)
        before = s.mq_count
        restriction_values_01(s, 0b10101, idx)  # needs r >= 3
        assert s.mq_count - before == 8
        assert s.max_locality_used <= 3


class TestRestrictionPm:
    def test_parity_restriction_exact(self):
        f = SparsePolynomial(6, {0b11: 1.0}, PLUS_MINUS)
        s = poly_session(f, Distribution.uniform(6, PLUS_MINUS), r=1)
        for _ in range(10):
            idx, masks, _ = s.draw_batch(1)
            got = restriction_values_pm(s, 0b1, idx)[0]
            want = 2.0 * ((int(masks[0]) >> 1) & 1) - 1.0  # x1
            assert got == pytest.approx(want)

    def test_empty_set_is_value(self):
        rng = np.random.default_rng(2)
        tree = random_tree(8, 6, rng)
        s = poly_session(tree, Distribution.uniform(8, PLUS_MINUS), r=0)
        _, _, labels = s.draw_batch(1)
        assert restriction_values_pm(s, 0, np.asarray([0]))[0] == labels[0]

    @pytest.mark.parametrize("seed", range(3))
    def test_product_basis_matches_symbolic(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(14, 12, rng, max_depth=4)
        means = random_product_means(14, rng)
        basis = ProductBasis(tuple(means))
        symbolic = tree_to_polynomial(tree, basis)  # path-expansion route
        dist = Distribution.product(means, PLUS_MINUS)
        s = poly_session(tree, dist, r=4, seed=seed)
        for _ in range(30):
            subset = random_subset(14, 4, rng, min_size=1)
            idx, masks, _ = s.draw_batch(1)
            got = restriction_values_pm(s, subset, idx, basis)[0]
            want = symbolic.restrict(subset).value_at(int(masks[0]))
            assert got == pytest.approx(want, abs=1e-9)

    def test_restriction_coefficient_identity(self):
        # the coefficient of chi_{T \ S} in the restriction equals the
        # original coefficient of chi_T, for every S inside T
        rng = np.random.default_rng(12)
        tree = random_tree(10, 8, rng, max_depth=4)
        spec = exact_transform(tree, UNIFORM_PM)
        for big, coeff in spec.coeffs.items():
            for _ in range(3):
                subset = big & random_subset(10, 10, rng)
                assert spec.restrict(subset).coeff(big & ~subset) == pytest.approx(
                    sum(
                        c
                        for t, c in spec.coeffs.items()
                        if t & subset == subset and t & ~subset == big & ~subset
                    )
                )

    def test_restriction_estimate_budget(self):
        rng = np.random.default_rng(13)
        tree = random_tree(8, 6, rng, max_depth=3)
        s = poly_session(tree, Distribution.uniform(8, PLUS_MINUS), r=2)
        values = estimate_restriction(s, 0b11, m=25)
        assert values.dtype == np.float64 and values.shape == (25,)
        assert s.mq_count == 25 * 4  # 2**|S| queries per anchored example
        assert s.ex_count == 25

    def test_refused_basis_asks_no_queries(self):
        f = SparsePolynomial(6, {0b11: 1.0}, PLUS_MINUS)
        s = OracleSession(f, Distribution.uniform(6, PLUS_MINUS), r=2)
        idx, _, _ = s.draw_batch(5)
        with pytest.raises(ContractViolation, match="unsupported basis"):
            restriction_values_pm(s, 0b11, idx, MONOMIAL_01)
        with pytest.raises(ContractViolation, match="unsupported basis"):
            l2_test(s, 0b11, theta=0.5, m=5, basis=MONOMIAL_01)
        # a product basis for another dimension is refused the same way
        for means in [(0.1,) * 5, (0.1,) * 7]:
            with pytest.raises(ContractViolation, match="unsupported basis"):
                restriction_values_pm(s, 0b11, idx, ProductBasis(means))
        assert s.mq_count == 0
        # the refused l2_test draws nothing: only the five examples above
        assert s.ex_count == 5
        assert [rec["op"] for rec in s.records] == ["ex"] * 5

    def test_uniform_matches_spectrum_sum(self):
        rng = np.random.default_rng(8)
        tree = random_tree(10, 8, rng, max_depth=4)
        spec = exact_transform(tree, UNIFORM_PM)
        s = poly_session(tree, Distribution.uniform(10, PLUS_MINUS), r=3, seed=5)
        for _ in range(20):
            subset = random_subset(10, 3, rng, min_size=1)
            idx, masks, _ = s.draw_batch(1)
            got = restriction_values_pm(s, subset, idx)[0]
            want = spec.restrict(subset).value_at(int(masks[0]))
            assert got == pytest.approx(want, abs=1e-9)


@dataclass(frozen=True)
class SpectrumTarget:
    """A sparse spectrum served to a session as its target."""

    spec: FourierSpectrum
    domain: str

    @property
    def n(self):
        return self.spec.n

    def value_batch(self, masks):
        return self.spec.value_batch(masks)


class TestRestrictionProperty:
    """Restriction values read through a session equal the symbolic
    restriction of the spectrum at each anchor, in every basis."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_symbolic_restriction(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        kind = data.draw(st.sampled_from(["monomial", "uniform", "product"]), label="basis")
        if kind == "product":
            means = data.draw(st.lists(st.floats(-0.8, 0.8), min_size=n, max_size=n))
            basis, dist = ProductBasis(tuple(means)), Distribution.product(means, PLUS_MINUS)
        elif kind == "uniform":
            basis, dist = UNIFORM_PM, Distribution.uniform(n, PLUS_MINUS)
        else:
            basis, dist = MONOMIAL_01, Distribution.uniform(n, ZERO_ONE)
        coeffs = data.draw(
            st.dictionaries(
                st.integers(0, (1 << n) - 1),
                st.floats(-2.0, 2.0).filter(lambda c: c != 0.0),
                max_size=6,
            ),
            label="coeffs",
        )
        spec = FourierSpectrum(n, basis, coeffs)
        subset = data.draw(st.integers(0, (1 << n) - 1), label="subset")
        k = int(popcount(subset))
        s = poly_session(SpectrumTarget(spec, dist.domain), dist, r=k, seed=n)
        idx, masks, _ = s.draw_batch(data.draw(st.integers(1, 6), label="anchors"))
        if basis is MONOMIAL_01:
            got = restriction_values_01(s, subset, idx)
        else:
            got = restriction_values_pm(s, subset, idx, basis)
        want = spec.restrict(subset).value_batch(masks)
        # |f| <= scale everywhere: no one-variable character exceeds peak
        mus = getattr(basis, "means", ())
        peak = max([(1 + abs(mu)) / math.sqrt(1 - mu * mu) for mu in mus], default=1.0)
        scale = (1.0 + sum(abs(c) for c in coeffs.values())) * peak**n
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale)
        assert s.mq_count == idx.size << k
        assert s.max_locality_used == k


class TestRestrictionOfTargets:
    """Generated targets (sparse polynomials in both domains, trees under
    product bases): the value functions and the sampler return the
    symbolic restriction at each anchor, and every query of the call lies
    within |S| of its anchor."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_values_and_query_distances(self, data):
        n = data.draw(st.integers(1, 10), label="n")
        r = data.draw(st.integers(0, n), label="r")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kind = data.draw(st.sampled_from(["poly01", "polypm", "tree"]), label="target")
        if kind == "tree":
            means = random_product_means(n, rng)
            target = random_tree(n, int(rng.integers(1, 9)), rng)
            basis, dist = ProductBasis(tuple(means)), Distribution.product(means, PLUS_MINUS)
            symbolic = tree_to_polynomial(target, basis)
        else:
            domain = ZERO_ONE if kind == "poly01" else PLUS_MINUS
            target = random_sparse_poly(n, int(rng.integers(1, 7)), rng, domain=domain)
            basis, dist = UNIFORM_PM, Distribution.uniform(n, domain)
            symbolic = target
        subset = random_subset(n, r, rng)
        k = int(popcount(subset))
        s = OracleSession(target, dist, r=r, seed=n)
        m = data.draw(st.integers(1, 6), label="anchors")
        if data.draw(st.booleans(), label="sampler"):
            got = estimate_restriction(s, subset, m, basis)
        elif dist.domain == ZERO_ONE:
            got = restriction_values_01(s, subset, s.draw_batch(m)[0])
        else:
            got = restriction_values_pm(s, subset, s.draw_batch(m)[0], basis)
        anchors = s.anchor_masks(np.arange(m))
        assert got.dtype == np.float64
        want = symbolic.restrict(subset).value_batch(anchors)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        queries = [rec for rec in s.records if rec["op"] != "ex"]
        assert len(queries) == m << k
        for rec in queries:
            point = int(rec["point"][::-1], 2)  # variable 0 first
            assert rec["op"] == "mq" and popcount(point ^ int(anchors[rec["anchor"]])) <= k


class TestL2Test:
    def test_parity_present(self):
        f = SparsePolynomial(6, {0b11: 1.0}, PLUS_MINUS)
        s = poly_session(f, Distribution.uniform(6, PLUS_MINUS), r=2)
        res = l2_test(s, 0b1, theta=0.5, m=50)
        assert res.passed and res.estimate == pytest.approx(1.0)

    def test_parity_absent(self):
        f = SparsePolynomial(6, {0b11: 1.0}, PLUS_MINUS)
        s = poly_session(f, Distribution.uniform(6, PLUS_MINUS), r=2)
        res = l2_test(s, 0b100, theta=0.5, m=50)
        assert not res.passed and res.estimate == pytest.approx(0.0)

    def test_estimates_near_exact_superset_mass(self):
        rng = np.random.default_rng(3)
        tree = random_tree(14, 16, rng, max_depth=4)
        spec = exact_transform(tree, UNIFORM_PM)
        ver = VerifierOracle()
        s = poly_session(tree, Distribution.uniform(14, PLUS_MINUS), r=4, seed=1)
        worst = 0.0
        for _ in range(50):
            subset = random_subset(14, 4, rng, min_size=1)
            res = l2_test(s, subset, theta=0.1, m=12_000)
            exact = ver.exact_cond_l2(spec, subset)
            worst = max(worst, abs(res.estimate - exact))
        assert worst < 0.02


class TestNonzeroTest:
    def test_constant_restriction(self):
        f = SparsePolynomial(6, {0b11: 1.0}, ZERO_ONE)
        s = poly_session(f, Distribution.uniform(6, ZERO_ONE), r=2)
        res = nonzero_test(s, 0b11, theta=1.0, zero_tol=1e-10, m=40)
        assert res.passed and res.estimate == 1.0

    def test_nonzero_constant_term_bound(self):
        # exact Pr[f != 0] >= (1/(1+alpha))^log2(t) when the constant term
        # survives; the sampled estimate sits near the exact value
        rng = np.random.default_rng(4)
        f = random_sparse_poly(10, 6, rng, max_degree=4, include_constant=True)
        dist = random_smooth_table(10, 1.5, rng, domain=ZERO_ONE)
        alpha = verify_smoothness(dist)
        ver = VerifierOracle()
        exact = ver.exact_nonzero_prob(f, dist, tol=1e-12)
        bound = (1.0 / (1.0 + alpha)) ** math.log2(f.sparsity)
        assert exact >= bound - 1e-12
        s = poly_session(f, dist, r=0, seed=2)
        res = nonzero_test(s, 0, theta=bound, zero_tol=1e-10, m=4000)
        assert res.passed
        assert abs(res.estimate - exact) < 0.05

    def test_sampled_estimate_vs_symbolic_enumeration(self):
        rng = np.random.default_rng(7)
        f = random_sparse_poly(12, 6, rng, max_degree=5)
        dist = random_smooth_table(12, 1.5, rng, domain=ZERO_ONE)
        ver = VerifierOracle()
        s = poly_session(f, dist, r=3, seed=3)
        for _ in range(10):
            subset = random_subset(12, 3, rng, min_size=1)
            exact = ver.exact_nonzero_prob(f.restrict(subset), dist, tol=1e-10)
            res = nonzero_test(s, subset, theta=0.5, zero_tol=1e-10, m=6000)
            assert abs(res.estimate - exact) < 0.02


class TestDefaultSamples:
    def test_hoeffding_formula(self):
        # independent recomputation of the two-sided bound
        theta_gap, delta = 0.1, 0.05
        expected = math.ceil(math.log(2 / delta) / (2 * (theta_gap / 2) ** 2))
        assert default_test_samples(theta_gap, delta) == expected

    def test_rejects_bad_inputs(self):
        from localmq import ContractViolation

        with pytest.raises(ContractViolation):
            default_test_samples(0.0, 0.05)
