"""Learning algorithms: parameter formulas, the regression solver against
an exact QP oracle, growth soundness/completeness against exact values,
and small end-to-end runs with enumerated ground truth."""

import math

import numpy as np
import pytest

from localmq import (
    BudgetExceededError,
    Distribution,
    DecisionTree,
    Internal,
    Leaf,
    LearnerConfig,
    LocalityError,
    OracleSession,
    PLUS_MINUS,
    SparsePolynomial,
    ZERO_ONE,
    constrained_regression,
    default_params_sparse,
    exact_transform,
    learn_dnf,
    learn_logdepth_tree,
    learn_sparse_poly,
    learn_tree_product,
    learn_tree_uniform,
    tree_to_polynomial,
)
from localmq.distributions import exact_event_prob_masked, random_smooth_table, verify_smoothness
from localmq import learners as learners_mod
from localmq.fourier import MONOMIAL_01, UNIFORM_PM, ProductBasis, char_values
from localmq.generators import random_dnf, random_product_means, random_sparse_poly, random_tree
from localmq.learners import project_l1
from localmq.oracles import AUDIT_COUNTS
from localmq.targets import DnfFormula
from localmq.verify import VerifierOracle
from localmq._bits import all_masks, bits_of, popcount, submasks


def session_for(target, dist, r, seed=0):
    return OracleSession(target, dist, r=r, seed=seed, audit_mode=AUDIT_COUNTS)


class TestDefaultParamsSparse:
    def test_reference_point(self):
        d, theta, d_prime = default_params_sparse(2, 1.0, 0.5, 1.0)
        assert d == 6
        assert theta == pytest.approx(1.0 / 1024.0)
        assert d_prime == 12

    def test_alpha_one_exponent_collapses(self):
        # log2(1+a)/log2((1+a)/a) = 1 at a = 1, so theta = (4 t^3 B^2)^-2
        _, theta, _ = default_params_sparse(3, 2.0, 0.25, 1.0)
        assert theta == pytest.approx((4 * 27 * 4.0) ** -2)

    def test_duplicated_formula_oracle(self):
        # independent reimplementation, different arrangement of the logs
        t, B, eps, alpha = 8, 2.0, 0.1, 1.5
        base = math.log((1 + alpha) / alpha, 2)
        poly = 4 * t**3 * B * B
        want_d = math.ceil(math.log(poly / eps, 2) / base)
        want_theta = 2.0 ** (-(2 * math.log(1 + alpha, 2) / base) * math.log(poly, 2))
        want_dp = math.ceil(math.log(2 * t / want_theta, 2) / base)
        d, theta, dp = default_params_sparse(t, B, eps, alpha)
        assert (d, dp) == (want_d, want_dp)
        assert theta == pytest.approx(want_theta, rel=1e-12)


class TestProjectL1:
    def test_inside_ball_untouched(self):
        v = np.array([0.2, -0.3])
        assert np.array_equal(project_l1(v, 1.0), v)

    @pytest.mark.parametrize("seed", range(10))
    def test_projection_properties(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=8) * 3
        bound = float(rng.uniform(0.5, 2.0))
        w = project_l1(v, bound)
        assert np.abs(w).sum() <= bound + 1e-9
        # projection is the closest point: no feasible random point is closer
        for _ in range(50):
            u = rng.normal(size=8)
            u = u / np.abs(u).sum() * bound * rng.uniform(0, 1)
            assert np.linalg.norm(v - w) <= np.linalg.norm(v - u) + 1e-9


class TestConstrainedRegression:
    def test_recovers_scaled_feature(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(400, 1))
        y = 0.5 * x[:, 0]
        w = constrained_regression(x, y, 1.0)
        assert w[0] == pytest.approx(0.5, abs=1e-6)

    def test_active_constraint_lands_on_boundary(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(400, 1))
        y = 3.0 * x[:, 0]
        w = constrained_regression(x, y, 1.0)
        assert np.abs(w).sum() == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exact_qp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        x = rng.normal(size=(300, k))
        true_w = rng.normal(size=k)
        y = x @ true_w + 0.1 * rng.normal(size=300)
        bound = float(rng.uniform(0.5, 1.5))
        w = constrained_regression(x, y, bound)
        ver = VerifierOracle()
        w_star, val_star = ver.exact_l1_least_squares(x, y, bound)
        m = x.shape[0]
        val = float(np.mean((x @ w - y) ** 2))
        assert val <= val_star + 1e-6

    @staticmethod
    def counted_steps(monkeypatch):
        """A list whose length grows by one per project_l1 call, one per step."""
        steps = []

        def counting(v, bound):
            steps.append(bound)
            return project_l1(v, bound)

        monkeypatch.setattr(learners_mod, "project_l1", counting)
        return steps

    @pytest.mark.parametrize("seed", range(4))
    def test_ill_conditioned_monomials_converge_fast(self, seed, monkeypatch):
        # nested monomials {0}, {0,1}, ..., {0..5} share their bits, so the
        # Gram matrix is ill-conditioned; plain projected gradient needs
        # about 500 steps here
        rng = np.random.default_rng(seed)
        masks = rng.integers(0, 1 << 10, size=2000)
        sets = [(1 << (j + 1)) - 1 for j in range(6)]
        x = np.column_stack([char_values(MONOMIAL_01, s, masks, 10) for s in sets])
        assert np.linalg.cond(x.T @ x / x.shape[0]) >= 100
        true_w = rng.choice([-1.0, 1.0], size=6) * rng.uniform(0.2, 1.0, size=6)
        y = x @ true_w
        bound = float(np.abs(true_w).sum())
        steps = self.counted_steps(monkeypatch)
        w = constrained_regression(x, y, bound)
        assert len(steps) < 300
        _, val_star = VerifierOracle().exact_l1_least_squares(x, y, bound)
        assert float(np.mean((x @ w - y) ** 2)) <= val_star + 1e-6

    def test_zero_labels_stop_after_one_step(self, monkeypatch):
        x = np.random.default_rng(3).normal(size=(50, 4))
        steps = self.counted_steps(monkeypatch)
        w = constrained_regression(x, np.zeros(50), 1.0)
        assert np.array_equal(w, np.zeros(4)) and len(steps) == 1


HEAVY_SINGLETON = SparsePolynomial(8, {0b100: 5.0}, ZERO_ONE, 1, 5.0)


class TestLearnSparsePoly:
    def test_recovers_heavy_singleton(self):
        dist = Distribution.uniform(8, ZERO_ONE)
        s = session_for(HEAVY_SINGLETON, dist, r=8)
        config = LearnerConfig(
            epsilon=0.1, delta=0.05, t=1, B=5.0, alpha=1.0, m=1500, seed=0
        )
        out = learn_sparse_poly(s, config)
        assert 0b100 in out.grown_sets
        assert out.hypothesis.coeff(0b100) == pytest.approx(5.0, abs=0.01)
        assert out.error_estimates["squared_loss"] < 1e-3
        assert s.audit_report().violations == 0

    def test_high_degree_terms_never_admit_singletons(self):
        # every term deeper than the test horizon: exact values are below
        # theta/2, so nothing beyond the seed set is admitted
        f = SparsePolynomial(12, {0b111111110000: 2.0}, ZERO_ONE, 1, 2.0)
        dist = random_smooth_table(12, 1.5, np.random.default_rng(3), domain=ZERO_ONE)
        a = verify_smoothness(dist)
        theta = 0.3
        ver = VerifierOracle()
        d_prime = 5
        assert f.sparsity * (a / (1 + a)) ** d_prime < theta / 2
        for j in range(12):
            exact = ver.exact_nonzero_prob(f.restrict(1 << j), dist, tol=1e-10)
            assert exact < theta / 2
        s = session_for(f, dist, r=6, seed=4)
        config = LearnerConfig(
            epsilon=0.2, delta=0.05, t=1, B=2.0, alpha=1.5,
            d=3, theta=theta, d_prime=d_prime, m=800, seed=4,
        )
        out = learn_sparse_poly(s, config)
        assert out.grown_sets == [0]

    def test_growth_soundness_and_completeness(self):
        # admitted sets satisfy the exact predicate at theta/2; sets whose
        # whole ancestor chain sits above 2 theta are always admitted
        ver = VerifierOracle()
        theta = 0.04
        for seed in range(1, 6):
            rng = np.random.default_rng(seed)
            f = random_sparse_poly(10, 4, rng, max_degree=3)
            dist = random_smooth_table(10, 1.3, rng, domain=ZERO_ONE)
            s = session_for(f, dist, r=10, seed=seed)
            config = LearnerConfig(
                epsilon=0.1, delta=0.02, t=4, B=2.0, alpha=1.3,
                d=4, theta=theta, d_prime=8, seed=seed,
            )
            out = learn_sparse_poly(s, config)
            admitted = set(out.grown_sets)

            def exact_value(subset):
                return ver.exact_nonzero_prob(f.restrict(subset), dist, tol=1e-10)

            for subset in admitted - {0}:
                assert exact_value(subset) >= theta / 2
            for term in f.terms:
                if popcount(term) > 4:
                    continue
                for subset in submasks(term):
                    if subset == 0 or popcount(subset) > 4:
                        continue
                    chain_ok = all(
                        exact_value(anc) >= 2 * theta
                        for anc in submasks(subset)
                        if anc != 0
                    )
                    if chain_ok:
                        assert subset in admitted

    def test_budget_cap_fires(self):
        rng = np.random.default_rng(0)
        f = random_sparse_poly(10, 6, rng, max_degree=2)
        dist = Distribution.uniform(10, ZERO_ONE)
        s = session_for(f, dist, r=10)
        config = LearnerConfig(
            epsilon=0.1, delta=0.05, t=6, B=2.0, alpha=1.0,
            d=3, theta=1e-6, d_prime=2, m=300, cap=2, seed=0,
        )
        with pytest.raises(BudgetExceededError):
            learn_sparse_poly(s, config)

    def test_r_zero_negative_control(self):
        dist = Distribution.uniform(8, ZERO_ONE)
        s = session_for(HEAVY_SINGLETON, dist, r=0)
        config = LearnerConfig(epsilon=0.1, delta=0.05, t=1, B=5.0, alpha=1.0, m=50)
        with pytest.raises(LocalityError):
            learn_sparse_poly(s, config)


def parity_tree():
    # depth-2 tree computing x0 * x1 over +-1
    return DecisionTree(
        6,
        Internal(0, Internal(1, Leaf(1), Leaf(-1)), Internal(1, Leaf(-1), Leaf(1))),
        PLUS_MINUS,
    )


class TestLearnTreeUniform:
    def test_parameter_formulas(self):
        tree = parity_tree()
        s = session_for(tree, Distribution.uniform(6, PLUS_MINUS), r=6)
        config = LearnerConfig(epsilon=0.08, delta=0.05, t=4, m=400, est_samples=2000)
        out = learn_tree_uniform(s, config)
        assert out.params["d"] == 9
        assert out.params["theta"] == pytest.approx(0.01)

    def test_parity_recovered_exactly(self):
        tree = parity_tree()
        s = session_for(tree, Distribution.uniform(6, PLUS_MINUS), r=6, seed=1)
        config = LearnerConfig(epsilon=0.08, delta=0.05, t=4, m=400, est_samples=3000, seed=1)
        out = learn_tree_uniform(s, config)
        assert sorted(out.grown_sets) == [0, 0b01, 0b10, 0b11]
        masks = all_masks(6)
        assert np.array_equal(out.predict_batch(masks), tree.value_batch(masks))

    def test_admitted_sets_have_heavy_ancestors(self):
        # every admitted set has a superset coefficient >= theta^2 / t
        rng = np.random.default_rng(5)
        tree = random_tree(12, 8, rng, max_depth=3)
        spec = exact_transform(tree, UNIFORM_PM)
        s = session_for(tree, Distribution.uniform(12, PLUS_MINUS), r=12, seed=5)
        config = LearnerConfig(epsilon=0.2, delta=0.05, t=8, m=600, est_samples=2000, seed=5)
        out = learn_tree_uniform(s, config)
        theta = out.params["theta"]
        for subset in out.grown_sets:
            best = max(
                (abs(c) for t_, c in spec.coeffs.items() if t_ & subset == subset),
                default=0.0,
            )
            assert best >= theta**2 / tree.leaf_count


class TestLearnTreeProduct:
    def test_zero_means_degenerate_to_uniform_behaviour(self):
        # chi^mu at mu = 0 is the plain parity basis; with matched (d,
        # theta, seeds) the two learners admit identical sets and agree
        # pointwise
        tree = parity_tree()
        means = [0.0] * 6
        s1 = OracleSession(
            tree, Distribution.product(means, PLUS_MINUS), r=6, seed=2,
            audit_mode=AUDIT_COUNTS,
        )
        s2 = session_for(tree, Distribution.uniform(6, PLUS_MINUS), r=6, seed=2)
        cfg = dict(epsilon=0.08, delta=0.05, t=4, d=5, theta=0.05, m=400, est_samples=2000, seed=2)
        out_p = learn_tree_product(s1, LearnerConfig(**cfg))
        out_u = learn_tree_uniform(s2, LearnerConfig(**cfg))
        assert sorted(out_p.grown_sets) == sorted(out_u.grown_sets)
        masks = all_masks(6)
        assert np.array_equal(out_p.predict_batch(masks), out_u.predict_batch(masks))

    def test_learns_small_tree(self):
        rng = np.random.default_rng(7)
        tree = random_tree(10, 8, rng, max_depth=3)
        means = random_product_means(10, rng)
        dist = Distribution.product(means, PLUS_MINUS)
        s = session_for(tree, dist, r=10, seed=7)
        config = LearnerConfig(
            epsilon=0.1, delta=0.05, t=8, m=1200, est_samples=40_000, seed=7
        )
        out = learn_tree_product(s, config)
        ver = VerifierOracle()
        assert ver.exact_01_error(tree, out.hypothesis, dist) <= 0.1

    def test_requires_product_distribution(self):
        tree = parity_tree()
        s = session_for(tree, Distribution.uniform(6, PLUS_MINUS), r=6)
        with pytest.raises(Exception):
            learn_tree_product(s, LearnerConfig(t=4, m=100))


class TestLearnLogdepthTree:
    def test_depth_one_tree_exact(self):
        tree = DecisionTree(6, Internal(0, Leaf(-1), Leaf(1)), PLUS_MINUS)
        s = session_for(tree, Distribution.uniform(6, PLUS_MINUS), r=3, seed=3)
        config = LearnerConfig(
            epsilon=0.1, delta=0.05, depth=3, alpha=1.0, t=2, m=2000, seed=3
        )
        out = learn_logdepth_tree(s, config)
        assert 0b1 in out.grown_sets
        masks = all_masks(6)
        assert np.array_equal(out.predict_batch(masks), tree.value_batch(masks))

    def test_maximal_set_closure(self):
        # all subsets of every maximal coefficient are admitted
        for seed in range(3):
            rng = np.random.default_rng(seed)
            tree = random_tree(12, 8, rng, max_depth=3)
            dist = random_smooth_table(12, 1.3, rng, domain=PLUS_MINUS)
            spec = exact_transform(tree, UNIFORM_PM)
            s = session_for(tree, dist, r=12, seed=seed)
            config = LearnerConfig(
                epsilon=0.1, delta=0.05, depth=3, alpha=1.3, t=8, m=4000, seed=seed
            )
            out = learn_logdepth_tree(s, config)
            admitted = set(out.grown_sets)
            maximal = [
                s1
                for s1 in spec.coeffs
                if not any(s2 != s1 and s2 & s1 == s1 for s2 in spec.coeffs)
            ]
            for big in maximal:
                for sub in submasks(big):
                    assert sub in admitted

    def test_smooth_table_run_accuracy(self):
        rng = np.random.default_rng(11)
        tree = random_tree(12, 8, rng, max_depth=4)
        dist = random_smooth_table(12, 1.3, rng, domain=PLUS_MINUS)
        s = session_for(tree, dist, r=12, seed=11)
        config = LearnerConfig(
            epsilon=0.05, delta=0.05, depth=4, alpha=1.3, t=8, m=6000, seed=11
        )
        out = learn_logdepth_tree(s, config)
        ver = VerifierOracle()
        assert ver.exact_01_error(tree, out.hypothesis, dist) <= 0.05


class TestLearnDnf:
    def test_single_term_and(self):
        f = DnfFormula(8, (((0, True), (1, True)),), PLUS_MINUS)
        s = session_for(f, Distribution.uniform(8, PLUS_MINUS), r=8, seed=0)
        config = LearnerConfig(epsilon=0.1, delta=0.05, s=1, m=1500, est_samples=4000)
        out = learn_dnf(s, config)
        for needed in (0, 0b01, 0b10, 0b11):
            assert needed in out.grown_sets
        masks = all_masks(8)
        assert np.array_equal(out.predict_batch(masks), f.value_batch(masks))
        assert out.metadata["hypothesis_rule"] == "sign-of-approximation substitute"

    def test_wide_term_drop_bound(self):
        # dropping terms wider than l costs at most 4 s / 2^l in squared loss
        rng = np.random.default_rng(2)
        for width in (4, 6, 8):
            f = random_dnf(12, 1, rng, width=width)
            g = f.drop_wide_terms(width - 1)  # drops the only term
            masks = all_masks(12)
            sq = float(np.mean((f.value_batch(masks) - g.value_batch(masks)) ** 2))
            assert sq <= 4 * f.size / 2 ** (width - 1) + 1e-12

    def test_run_stays_local(self):
        rng = np.random.default_rng(6)
        f = random_dnf(10, 3, rng, width=3)
        s = session_for(f, Distribution.uniform(10, PLUS_MINUS), r=10, seed=6)
        config = LearnerConfig(epsilon=0.1, delta=0.05, s=3, m=2500, est_samples=30_000, seed=6)
        out = learn_dnf(s, config)
        d = out.params["d"]
        assert d == math.ceil(math.log2(3 / 0.1))
        assert s.audit_report().max_locality_used <= d
        assert s.audit_report().violations == 0


class TestOutcomeContracts:
    def test_hypothesis_support_inside_grown_set(self):
        tree = parity_tree()
        s = session_for(tree, Distribution.uniform(6, PLUS_MINUS), r=6)
        out = learn_tree_uniform(
            s, LearnerConfig(epsilon=0.2, delta=0.1, t=4, m=300, est_samples=1000)
        )
        assert set(out.hypothesis.coeffs) <= set(out.grown_sets)
        assert all(popcount(x) <= out.params["d"] for x in out.grown_sets)

    def test_outcome_json_shape(self):
        tree = parity_tree()
        s = session_for(tree, Distribution.uniform(6, PLUS_MINUS), r=6)
        out = learn_tree_uniform(
            s, LearnerConfig(epsilon=0.2, delta=0.1, t=4, m=300, est_samples=1000)
        )
        obj = out.to_json()
        assert {"hypothesis", "grown_sets", "params", "error_estimates", "audit"} <= set(obj)
        assert obj["audit"]["violations"] == 0
        assert "wall_time" not in obj
