"""Persistent noise: exact collision probabilities vs Monte Carlo, the
corrected tests, and the unknown-rate grid search."""

import math
import zlib

import numpy as np
import pytest

from localmq import (
    ContractViolation,
    Distribution,
    LearnerConfig,
    NoiseWrapper,
    OracleSession,
    PLUS_MINUS,
    SparsePolynomial,
    exact_transform,
    learn_logdepth_tree,
    noisy_l2_estimate,
    noisy_nonzero_test,
    rcn_collision_prob,
)
from localmq.fourier import UNIFORM_PM, nonzero_test
from localmq.generators import random_tree
from localmq import noise as noise_module
from localmq.noise import eta_grid_search, eta_grid
from localmq.oracles import AUDIT_COUNTS
from localmq.verify import VerifierOracle, walk_gap_floor
from localmq._bits import all_masks, popcount
from localmq._prf import bernoulli


class TestCollisionProb:
    def test_noiseless_degenerates(self):
        assert rcn_collision_prob(4, 0, 0.0) == pytest.approx(1.0)
        assert rcn_collision_prob(4, 1, 0.0) == pytest.approx(0.0)

    def test_two_point_convolution(self):
        for eta in (0.1, 0.25, 0.4):
            assert rcn_collision_prob(1, 0, eta) == pytest.approx(
                eta**2 + (1 - eta) ** 2
            )

    def test_monotone_in_offset(self):
        for k in (2, 8, 64, 1024):
            for eta in (0.05, 0.2, 0.45):
                probs = [rcn_collision_prob(k, i, eta) for i in range(min(k, 5) + 1)]
                assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_gap_floor(self):
        for k in (1, 2, 8, 64):
            for eta in (0.1, 0.2, 0.3):
                gap = rcn_collision_prob(k, 0, eta) - rcn_collision_prob(k, 1, eta)
                assert gap >= (2 * eta - 1) ** 2 * walk_gap_floor(k) - 1e-14

    def test_monte_carlo_oracle_small(self):
        rng = np.random.default_rng(123)
        n_mc = 2_000_000
        for k, i, eta in [(8, 0, 0.2), (8, 1, 0.2), (16, 2, 0.1)]:
            z1 = rng.binomial(k + i, eta, size=n_mc)
            z2 = rng.binomial(k - i, eta, size=n_mc)
            hat = np.mean(z1 - z2 == i)
            p = rcn_collision_prob(k, i, eta)
            sigma = math.sqrt(p * (1 - p) / n_mc)
            assert abs(hat - p) < 4 * sigma

    @staticmethod
    def exact(k, i, eta):
        """Pr[Z1 - Z2 = i] from the binomial sum in integers; eta is a
        dyadic a/b, and int / int division rounds correctly."""
        a, b = eta.as_integer_ratio()
        n1, n2 = k + i, k - i
        total = sum(
            math.comb(n1, j + i) * math.comb(n2, j)
            * a ** (2 * j + i) * (b - a) ** (n1 + n2 - 2 * j - i)
            for j in range(n2 + 1)
        )
        return total / b ** (n1 + n2)

    @pytest.mark.parametrize("eta", [0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45, 0.49])
    def test_matches_the_exact_sum(self, eta):
        for k in range(1, 65):
            for i in sorted({0, 1, min(6, k), k // 2, k}):
                want = self.exact(k, i, eta)
                got = rcn_collision_prob(k, i, eta)
                assert abs(got - want) <= 2e-14 * want, (k, i, eta, got, want)

    def test_memoised_values_are_the_computed_ones(self):
        """Every call, the first and the repeats, with numpy or Python
        arguments, returns the convolution computed afresh, bit for bit."""
        compute = noise_module._collision_prob.__wrapped__
        for k, i, eta in [(1, 0, 0.1), (4, 1, 0.2), (32, 1, 0.1), (64, 7, 0.45)]:
            want = compute(k, i, eta)
            for args in [(k, i, eta), (np.int64(k), np.int64(i), np.float64(eta)), (k, i, eta)]:
                got = rcn_collision_prob(*args)
                assert type(got) is float and got.hex() == want.hex()

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            rcn_collision_prob(0, 0, 0.1)
        with pytest.raises(ContractViolation):
            rcn_collision_prob(4, 5, 0.1)
        with pytest.raises(ContractViolation):
            rcn_collision_prob(4, 0, 1.0)


class TestNoiseWrapper:
    def test_flip_rate_within_3_sigma(self):
        eta = 0.15
        wrapper = NoiseWrapper(eta, seed=42)
        masks = np.arange(100_000, dtype=np.int64)
        flips = wrapper.zeta_batch(masks) < 0
        sigma = math.sqrt(eta * (1 - eta) / masks.size)
        assert abs(np.mean(flips) - eta) < 3 * sigma

    def test_deterministic_per_point(self):
        w = NoiseWrapper(0.3, seed=7)
        masks = np.arange(1000, dtype=np.int64)
        assert np.array_equal(w.zeta_batch(masks), w.zeta_batch(masks))

    def test_eta_range(self):
        with pytest.raises(ContractViolation):
            NoiseWrapper(0.5)


class TestCorrectionIdentities:
    def test_first_and_second_moment(self):
        # average the noisy restriction over many independent noise
        # functions, realized as disjoint slices of one PRF domain
        eta = 0.2
        rng = np.random.default_rng(0)
        tree = random_tree(10, 8, rng, max_depth=4)
        spec = exact_transform(tree, UNIFORM_PM)
        subset = 0b111
        x = 0b1010010101
        k = int(popcount(subset))
        patterns = np.asarray([p for p in range(8)])
        masks = np.asarray([(x & ~subset) | _scatter(p, subset) for p in range(8)])
        signs = np.asarray([(-1.0) ** (k - bin(p).count("1")) for p in range(8)])
        clean = tree.value_batch(masks)
        f_s = float((signs * clean).sum() / 8)
        assert f_s == pytest.approx(spec.restrict(subset).value_at(x))
        n_seeds = 100_000
        combined = (np.arange(n_seeds)[:, None] << 12) | masks[None, :]
        flips = bernoulli(991, combined, eta)
        zeta = np.where(flips, -1.0, 1.0)
        noisy_vals = (zeta * clean[None, :]) @ signs / 8
        mean1 = float(np.mean(noisy_vals))
        mean2 = float(np.mean(noisy_vals**2))
        want1 = (1 - 2 * eta) * f_s
        want2 = (1 - 2 * eta) ** 2 * f_s**2 + 2.0 ** (-k) * 4 * eta * (1 - eta)
        s1 = float(np.std(noisy_vals)) / math.sqrt(n_seeds)
        s2 = float(np.std(noisy_vals**2)) / math.sqrt(n_seeds)
        assert abs(mean1 - want1) < 3 * max(s1, 1e-6)
        assert abs(mean2 - want2) < 3 * max(s2, 1e-6)


def _scatter(value, subset):
    out = 0
    j = 0
    for i in range(subset.bit_length()):
        if subset >> i & 1:
            if value >> j & 1:
                out |= 1 << i
            j += 1
    return out


def noisy_session(target, eta, seed=0, r=None):
    dist = Distribution.uniform(target.n, PLUS_MINUS)
    return OracleSession(
        target,
        dist,
        r=target.n if r is None else r,
        seed=seed,
        noise=NoiseWrapper(eta, seed=seed + 1000) if eta is not None else None,
        audit_mode=AUDIT_COUNTS,
    )


class TestAssumedEtaRange:
    """An assumed rate outside [0, 1/2) is refused by both noisy tests
    before any example is drawn."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda s: noisy_nonzero_test(s, 0b11, 0.5, 500, 1e-10, eta=0.6), id="nonzero-0.6"),
            pytest.param(lambda s: noisy_nonzero_test(s, 0b11, 0.5, 500, 1e-10, eta=-0.1), id="nonzero--0.1"),
            pytest.param(lambda s: noisy_nonzero_test(s, 0b11, 0.5, 500, 1e-10, eta=0.5), id="nonzero-0.5"),
            pytest.param(lambda s: noisy_nonzero_test(s, 0, 0.5, 500, 1e-10, eta=0.6), id="nonzero-empty-set"),
            pytest.param(lambda s: noisy_l2_estimate(s, 0b11, 500, eta=-0.2), id="l2--0.2"),
            pytest.param(lambda s: noisy_l2_estimate(s, 0b11, 500, eta=0.5), id="l2-0.5"),
        ],
    )
    def test_refused_before_any_draw(self, call):
        tree = random_tree(8, 4, np.random.default_rng(3), max_depth=2)
        s = noisy_session(tree, 0.1, seed=2)
        with pytest.raises(ContractViolation, match=r"outside \[0, 1/2\)"):
            call(s)
        assert s.ex_count == 0 and s.mq_count == 0


class TestNoisyNonzeroTest:
    def test_eta_zero_matches_plain_estimates(self):
        f = SparsePolynomial(8, {0b11: 1.0}, PLUS_MINUS)
        s1 = noisy_session(f, 0.0, seed=5)
        s2 = noisy_session(f, None, seed=5)
        res_noisy = noisy_nonzero_test(s1, 0b1, theta=0.5, m=500, zero_tol=1e-10)
        res_plain = nonzero_test(s2, 0b1, theta=0.5, zero_tol=1e-10, m=500)
        assert res_noisy.estimate == res_plain.estimate
        assert res_noisy.passed and res_plain.passed

    def test_vanishing_restriction_concentrates_at_1_minus_p0(self):
        f = SparsePolynomial(8, {0b11: 1.0}, PLUS_MINUS)
        eta = 0.2
        s = noisy_session(f, eta, seed=9)
        res = noisy_nonzero_test(s, 0b100, theta=0.5, m=5000, zero_tol=1e-10)
        p0 = rcn_collision_prob(1, 0, eta)
        assert abs(res.estimate - (1 - p0)) < 3 * math.sqrt(p0 * (1 - p0) / 5000)
        assert not res.passed

    def test_decisions_match_noiseless_on_margin_sets(self):
        # depth-2 trees at theta = 1/8 keep the distinguisher margin well
        # above the fixed-noise-realization fluctuation of the estimate
        rng = np.random.default_rng(3)
        tree = random_tree(16, 4, rng, max_depth=2)
        spec = exact_transform(tree, UNIFORM_PM)
        ver = VerifierOracle()
        dist = Distribution.uniform(16, PLUS_MINUS)
        theta = 1.0 / 8.0
        m = 40_000
        s_noisy = noisy_session(tree, 0.1, seed=1)
        s_clean = noisy_session(tree, None, seed=1)
        candidates = set(spec.coeffs) | {0b1, 0b10, 0b11, 0b101, 0b11000}
        for subset in sorted(candidates):
            if subset == 0 or popcount(subset) > 2:
                continue
            exact = ver.exact_nonzero_prob(spec.restrict(subset), dist, tol=1e-12)
            if abs(exact - theta) < theta / 4:
                continue
            noisy = noisy_nonzero_test(s_noisy, subset, theta, m=m, zero_tol=1e-10)
            clean = nonzero_test(s_clean, subset, theta, zero_tol=1e-10, m=2000)
            assert noisy.passed == clean.passed == (exact >= theta)


class TestNoisyL2:
    def test_eta_zero_identity(self):
        f = SparsePolynomial(8, {0b11: 1.0}, PLUS_MINUS)
        s = noisy_session(f, 0.0, seed=2)
        corrected, raw = noisy_l2_estimate(s, 0b1, m=400)
        assert corrected == raw == pytest.approx(1.0)

    def test_zero_restriction_debiased(self):
        # large n keeps repeated queries rare, so the persistent noise
        # behaves like fresh noise and the raw moment sits at the bias
        f = SparsePolynomial(16, {0b11: 1.0}, PLUS_MINUS)
        eta = 0.25
        s = noisy_session(f, eta, seed=4)
        corrected, raw = noisy_l2_estimate(s, 0b1000, m=20_000)
        k = 1
        bias = 2.0 ** (-k) * 4 * eta * (1 - eta)
        assert raw == pytest.approx(bias, abs=0.015)
        assert abs(corrected) < 0.04

    def test_random_tree_corrected_accuracy(self):
        rng = np.random.default_rng(8)
        tree = random_tree(14, 8, rng, max_depth=4)
        spec = exact_transform(tree, UNIFORM_PM)
        ver = VerifierOracle()
        s = noisy_session(tree, 0.1, seed=8)
        for subset in (0b1, 0b11, 0b110, 0b1001):
            corrected, _ = noisy_l2_estimate(s, subset, m=30_000)
            exact = ver.exact_cond_l2(spec, subset)
            assert abs(corrected - exact) < 0.02


class TestEtaSearch:
    def test_grid_resolution(self):
        grid = eta_grid(0.4)
        assert grid[0] == 0.0 and grid[1] == pytest.approx(0.05)
        assert all(g < 0.5 for g in grid)

    def test_recovers_on_grid_eta(self):
        rng = np.random.default_rng(5)
        tree = random_tree(8, 4, rng, max_depth=2)
        true_eta = 0.1

        def make_session(tag):
            return OracleSession(
                tree,
                Distribution.uniform(8, PLUS_MINUS),
                r=8,
                seed=zlib.crc32(tag.encode()) % 2**31,
                noise=NoiseWrapper(true_eta, seed=777),
                audit_mode=AUDIT_COUNTS,
            )

        config = LearnerConfig(
            epsilon=0.4, delta=0.1, depth=2, alpha=1.0, t=4, m=3000, seed=5
        )
        outcome, report = eta_grid_search(
            make_session, learn_logdepth_tree, config, validation_samples=3000
        )
        assert abs(report["picked_eta"] - true_eta) <= 0.4 / 8 + 1e-9
        # winner scores no worse than the true-eta run, up to tolerance
        true_run = next(
            r["validation_error"]
            for r in report["results"]
            if abs(r["eta_guess"] - true_eta) < 1e-9
        )
        assert report["picked_validation_error"] <= true_run + 0.02

    def test_eta_zero_grid_point_wins(self):
        rng = np.random.default_rng(6)
        tree = random_tree(8, 4, rng, max_depth=2)

        def make_session(tag):
            return OracleSession(
                tree,
                Distribution.uniform(8, PLUS_MINUS),
                r=8,
                seed=zlib.crc32(tag.encode()) % 2**31,
                noise=NoiseWrapper(0.0, seed=5),
                audit_mode=AUDIT_COUNTS,
            )

        config = LearnerConfig(
            epsilon=0.4, delta=0.1, depth=2, alpha=1.0, t=4, m=2000, seed=6
        )
        _, report = eta_grid_search(
            make_session, learn_logdepth_tree, config, validation_samples=2000
        )
        scored = [
            r["validation_error"]
            for r in report["results"]
            if r.get("validation_error") is not None
        ]
        assert report["picked_validation_error"] <= min(scored)
        assert report["picked_eta"] <= 0.1


class TestNoisyLearning:
    def test_logdepth_run_under_noise(self):
        rng = np.random.default_rng(12)
        tree = random_tree(12, 8, rng, max_depth=3)
        s = noisy_session(tree, 0.1, seed=12)
        config = LearnerConfig(
            epsilon=0.1, delta=0.05, depth=3, alpha=1.0, t=8,
            theta=1.0 / 16.0, m=60_000, seed=12,
        )
        out = learn_logdepth_tree(s, config)
        assert out.metadata["noise_corrected"] is True
        ver = VerifierOracle()
        err = ver.exact_01_error(tree, out.hypothesis, Distribution.uniform(12, PLUS_MINUS))
        assert err <= 0.1
