"""Distributions: smoothness verification, sampling, exact probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmq import ContractViolation, Distribution, ZeroMassError, conditional_marginal, verify_smoothness
from localmq.distributions import (
    _BLOCK,
    exact_mean,
    marginal,
    random_smooth_table,
)
from localmq.generators import random_product_means
from localmq.targets import PLUS_MINUS, ZERO_ONE
from localmq._bits import all_masks, popcount


def brute_force_alpha(dist):
    """Independent O(2^n * n) neighbor scan."""
    worst = 1.0
    for x in range(1 << dist.n):
        px = dist.point_prob(x)
        for i in range(dist.n):
            py = dist.point_prob(x ^ (1 << i))
            if px == 0 and py == 0:
                continue
            if py == 0 or px == 0:
                return math.inf
            worst = max(worst, px / py)
    return worst


def per_bit_alpha(dist):
    """The scan one variable at a time: a pass over the cube per bit."""
    pr = dist.probs_array()
    masks = all_masks(dist.n)
    zero = pr == 0
    support = masks[~zero]
    worst = 1.0
    for i in range(dist.n):
        if bool(np.any(zero != zero[masks ^ (1 << i)])):
            return math.inf
        worst = max(worst, float(np.max(pr[support] / pr[support ^ (1 << i)])))
    return worst


class TestVerifySmoothness:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_bit_scan(self, seed):
        # bit-identical alpha*; odd seeds zero out some points
        rng = np.random.default_rng([seed, 17])
        for n in range(1, 13):
            probs = rng.random(1 << n) ** 4
            if seed % 2:
                probs[rng.random(1 << n) < 0.2] = 0.0
                probs[0] = 1.0
            probs /= probs.sum()
            probs /= math.fsum(probs.tolist())
            d = Distribution.table(probs.tolist(), ZERO_ONE)
            want = per_bit_alpha(d)
            assert verify_smoothness(d) == want
            # the cube is connected: any zero-mass point borders positive mass
            assert (want == math.inf) == bool(np.any(probs == 0))
            smooth = random_smooth_table(n, 1.0 + seed, rng)
            assert verify_smoothness(smooth) == per_bit_alpha(smooth)

    def test_uniform_is_one(self):
        assert verify_smoothness(Distribution.uniform(12)) == 1.0

    def test_product_closed_form(self):
        d = Distribution.product([0.6, 0.4], ZERO_ONE)
        assert verify_smoothness(d) == pytest.approx(1.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_table_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.random(2**8)
        probs /= probs.sum()
        probs /= math.fsum(probs.tolist())
        d = Distribution.table(probs.tolist(), ZERO_ONE)
        assert verify_smoothness(d) == pytest.approx(brute_force_alpha(d), rel=1e-12)

    def test_zero_next_to_mass_is_inf(self):
        probs = [0.0, 0.5, 0.25, 0.25]
        d = Distribution.table(probs, ZERO_ONE)
        assert verify_smoothness(d) == math.inf

    def test_generator_respects_alpha(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            alpha = 1.0 + 0.1 * (seed + 1)
            d = random_smooth_table(10, alpha, rng)
            assert verify_smoothness(d) <= alpha + 1e-9


class TestSampling:
    def test_uniform_bit_means(self):
        d = Distribution.uniform(10, ZERO_ONE)
        rng = np.random.default_rng(42)
        masks = d.sample_batch(rng, 100_000)
        for i in range(10):
            assert abs(np.mean((masks >> i) & 1) - 0.5) < 0.02

    def test_product_bit_means(self):
        d = Distribution.product([0.9, 0.1], ZERO_ONE)
        rng = np.random.default_rng(1)
        masks = d.sample_batch(rng, 100_000)
        assert abs(np.mean(masks & 1) - 0.9) < 0.02
        assert abs(np.mean((masks >> 1) & 1) - 0.1) < 0.02

    def test_table_frequencies_within_3_sigma(self):
        rng = np.random.default_rng(7)
        d = random_smooth_table(6, 2.0, rng)
        n_draws = 200_000
        masks = d.sample_batch(rng, n_draws)
        counts = np.bincount(masks, minlength=64)
        bad = 0
        for m in range(64):
            p = d.probs[m]
            sigma = math.sqrt(p * (1 - p) * n_draws)
            if abs(counts[m] - p * n_draws) > 3 * sigma:
                bad += 1
        assert bad <= 2  # 3-sigma misses are rare but not impossible over 64 cells


def per_bit_product_sample(dist, rng, size):
    """The product sampler one bit at a time: `size` uniforms per bit."""
    out = np.zeros(size, dtype=np.int64)
    for i, p in enumerate(dist.p_high):
        out |= (rng.random(size) < p).astype(np.int64) << i
    return out


@st.composite
def skewed_tables(draw):
    """One point holds at least 1 - 1e-9 of the mass; the others hold
    zeros and tiny masses down to 1e-300."""
    n = draw(st.integers(1, 10), label="n")
    tiny = st.sampled_from([0.0, 1e-300, 1e-250, 1e-100, 1e-30, 1e-15, 1e-12])
    probs = np.asarray(draw(st.lists(tiny, min_size=1 << n, max_size=1 << n), label="tiny"))
    heavy = draw(st.integers(0, (1 << n) - 1), label="heavy")
    probs[heavy] = 0.0
    probs[heavy] = 1.0 - math.fsum(probs.tolist())
    return Distribution.table(probs, ZERO_ONE)


@st.composite
def smooth_tables(draw):
    n = draw(st.integers(1, 12), label="n")
    alpha = draw(st.floats(1.0, 4.0), label="alpha")
    seed = draw(st.integers(0, 1 << 16), label="seed")
    return random_smooth_table(n, alpha, np.random.default_rng(seed))


class TestSampleBatchMatchesReference:
    """`sample_batch` returns what the plain definitions return, bit for
    bit, and leaves the generator in the same state: searchsorted on the
    cumulative masses for a table, one `rng.random(size)` per bit for a
    product."""

    @staticmethod
    def same_draws(dist, reference, seed, size):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = dist.sample_batch(rng, size), reference(ref_rng)
        assert got.dtype == np.int64 and got.tobytes() == want.astype(np.int64).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(
        dist=st.one_of(smooth_tables(), skewed_tables()),
        size=st.one_of(st.integers(0, 64), st.integers(0, 1500).map(lambda k: 2 * k + 1)),
        seed=st.integers(0, 1 << 32),
    )
    def test_table_equals_searchsorted(self, dist, size, seed):
        cdf = np.cumsum(dist.probs_array())
        self.same_draws(
            dist, lambda rng: np.searchsorted(cdf, rng.random(size), side="right"), seed, size
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 1 << 32),
        data=st.data(),
    )
    def test_product_equals_per_bit_loop(self, n, seed, data):
        means = data.draw(st.lists(st.floats(-0.99, 0.99), min_size=n, max_size=n), label="means")
        dist = Distribution.product(means, PLUS_MINUS)
        # odd sizes, and sizes whose n * size crosses the block bound
        block = _BLOCK // n
        size = data.draw(
            st.one_of(
                st.integers(0, 200).map(lambda k: 2 * k + 1),
                st.integers(max(block - 2, 0), block + 2),
                st.integers(block + 1, 2 * block + 3),
            ),
            label="size",
        )
        self.same_draws(dist, lambda rng: per_bit_product_sample(dist, rng, size), seed, size)

    @pytest.mark.parametrize("kind", ["smooth", "skewed", "short"])
    def test_table_at_the_edges_of_its_search(self, kind):
        """Uniforms at every CDF entry, next to it, at every bucket edge,
        and at and above cdf[-1] (2**n there) give searchsorted's index."""
        rng = np.random.default_rng(3)
        n = 9
        if kind == "smooth":
            probs = random_smooth_table(n, 3.0, rng).probs_array().copy()
            probs[5] += 5e-13  # the masses sum to just above 1
        else:
            probs = np.where(rng.random(1 << n) < 0.5, 1e-300, 0.0)
            probs[5] = 1.0 - math.fsum(probs.tolist())
        if kind == "short":
            probs[5] -= 5e-13  # the masses sum to just below 1
        dist = Distribution.table(probs, ZERO_ONE)
        cdf = np.cumsum(dist.probs_array())
        edges = np.arange(1 << n) / (1 << n)
        near = [np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)]
        u = np.concatenate([cdf, *near, edges, [1.0 - 2.0**-53]])
        u = u[(u >= 0.0) & (u < 1.0)]

        class Fixed:
            def random(self, size):
                assert size == u.size
                return u

        got = dist.sample_batch(Fixed(), u.size)
        assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))
        if kind == "short":
            assert cdf[-1] < 1.0 and got[-1] == 1 << n


class TestExactEventProb:
    def test_always_true_is_one(self):
        d = Distribution.uniform(8, ZERO_ONE)
        assert exact_mean(d, np.ones(256, dtype=bool)) == pytest.approx(1.0)

    def test_uniform_single_bit(self):
        d = Distribution.uniform(8, ZERO_ONE)
        assert exact_mean(d, (all_masks(8) & 1) == 1) == pytest.approx(0.5)

    def test_event_array_must_cover_the_cube(self):
        d = Distribution.uniform(3)
        for size in (5, 16):  # short and long against 2**3 points
            with pytest.raises(ContractViolation):
                exact_mean(d, np.ones(size, dtype=bool))

    def test_signed_values_on_a_table(self):
        rng = np.random.default_rng(7)
        d = random_smooth_table(6, 1.5, rng)
        values = rng.normal(size=64)
        want = math.fsum(float(p) * float(v) for p, v in zip(d.probs, values))
        assert exact_mean(d, values) == want

    def test_subset_probability_sandwich(self):
        # Pr[x_S = b_S] within the smoothness sandwich for |S| = 3
        rng = np.random.default_rng(3)
        d = random_smooth_table(10, 1.5, rng)
        a = verify_smoothness(d)
        subset, assignment = 0b10101, 0b00101
        masks = all_masks(10)
        p = exact_mean(d, (masks & subset) == assignment)
        k = popcount(subset)
        assert (1 / (1 + a)) ** k - 1e-12 <= p <= (a / (1 + a)) ** k + 1e-12


class TestUniformIsTheHalfProduct:
    """Uniform is the product with every p_i = 1/2: every exact quantity
    equals the product's bit for bit, marginals and conditionals stay
    uniform, and only the sampler and the name are its own."""

    @pytest.mark.parametrize("domain", [PLUS_MINUS, ZERO_ONE])
    def test_exact_quantities_match_the_product(self, domain):
        u = Distribution.uniform(7, domain)
        half = 0.5 if domain == ZERO_ONE else 0.0
        p = Distribution.product([half] * 7, domain)
        assert (u.kind, p.kind) == ("uniform", "product")
        assert u.p_high == p.p_high == (0.5,) * 7
        assert u.means == p.means == (half,) * 7
        assert [u.point_prob(x) for x in range(128)] == [0.5**7] * 128
        assert np.array_equal(u.probs_array(), p.probs_array())
        assert verify_smoothness(u) == verify_smoothness(p) == 1.0
        for sub in (marginal(u, 0b1010011), conditional_marginal(u, 0b0110, 0b0100)):
            assert sub.kind == "uniform" and sub.p_high == (0.5,) * sub.n
        assert u.to_json() == {"kind": "uniform", "n": 7, "domain": domain}

    def test_sampler_is_one_integers_call(self):
        draws = Distribution.uniform(9).sample_batch(np.random.default_rng(4), 100)
        expect = np.random.default_rng(4).integers(0, 1 << 9, size=100, dtype=np.int64)
        assert np.array_equal(draws, expect)


class TestConditionalMarginal:
    def test_uniform_stays_uniform(self):
        d = Distribution.uniform(8, ZERO_ONE)
        c = conditional_marginal(d, 0b101, 0b001)
        assert c.kind == "uniform" and c.n == 6

    def test_product_independence(self):
        d = Distribution.product([0.2, 0.5, 0.8], ZERO_ONE)
        c = conditional_marginal(d, 0b010, 0b010)
        assert c.kind == "product"
        assert c.p_high == (0.2, 0.8)

    @pytest.mark.parametrize("seed", range(5))
    def test_table_smoothness_never_worse(self, seed):
        rng = np.random.default_rng(seed)
        d = random_smooth_table(9, 1.7, rng)
        a = verify_smoothness(d)
        c = conditional_marginal(d, 0b1001, 0b1000)
        assert verify_smoothness(c) <= a + 1e-9
        m = marginal(d, 0b011101)
        assert verify_smoothness(m) <= a + 1e-9

    def test_zero_mass_conditioning(self):
        probs = [0.5, 0.5, 0.0, 0.0]
        d = Distribution.table(probs, ZERO_ONE)
        with pytest.raises(ZeroMassError):
            conditional_marginal(d, 0b10, 0b10)

    @pytest.mark.parametrize(
        "call",
        [
            lambda d: marginal(d, 0b1000),
            lambda d: marginal(d, 0b1001),
            lambda d: conditional_marginal(d, 0b1000, 0b1000),
            lambda d: d.point_prob(8),
            lambda d: d.point_prob(-1),
        ],
    )
    @pytest.mark.parametrize("kind", ["uniform", "product", "table"])
    def test_outside_the_cube_is_refused(self, call, kind):
        d = {
            "uniform": Distribution.uniform(3),
            "product": Distribution.product([0.2, 0.7, 0.1]),
            "table": random_smooth_table(3, 1.5, np.random.default_rng(1)),
        }[kind]
        with pytest.raises(ContractViolation, match="outside the 3-bit cube"):
            call(d)

    def test_table_conditional_values(self):
        # hand-computed conditional over 2 bits
        d = Distribution.table([0.1, 0.2, 0.3, 0.4], ZERO_ONE)
        c = conditional_marginal(d, 0b01, 0b01)  # condition on bit0 = 1
        # remaining bit distribution: (0.2, 0.4)/0.6
        assert c.probs == pytest.approx((1 / 3, 2 / 3))


class TestConstructionContracts:
    def test_empty_table_rejected(self):
        with pytest.raises(ContractViolation):
            Distribution.table([])

    def test_bad_sum_rejected(self):
        with pytest.raises(ContractViolation):
            Distribution.table([0.5, 0.6], ZERO_ONE)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mass_rejected(self, bad):
        with pytest.raises(ContractViolation, match="finite"):
            Distribution.table([bad, 0.5, 0.25, 0.25], ZERO_ONE)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_smooth_table_needs_a_finite_alpha(self, alpha):
        with pytest.raises(ContractViolation, match="finite"):
            random_smooth_table(3, alpha, np.random.default_rng(0))

    @pytest.mark.parametrize("lo, hi", [(math.inf, 0.4), (math.nan, 0.4), (-0.4, -math.inf)])
    def test_product_means_need_finite_bounds(self, lo, hi):
        with pytest.raises(ContractViolation, match="finite"):
            random_product_means(8, np.random.default_rng(0), lo, hi)

    def test_tiny_positive_mass_rejected(self):
        probs = [1e-305, 1.0 - 1e-305]
        with pytest.raises(ContractViolation):
            Distribution.table(probs, ZERO_ONE)

    def test_product_open_interval(self):
        with pytest.raises(ContractViolation):
            Distribution.product([0.0, 0.5], ZERO_ONE)
        with pytest.raises(ContractViolation):
            Distribution.product([1.0], PLUS_MINUS)

    def test_convex_mixtures_stay_smooth(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = random_smooth_table(8, 1.6, rng)
            b = random_smooth_table(8, 1.6, rng)
            lam = float(rng.uniform(0.1, 0.9))
            mix = Distribution.table(
                [lam * x + (1 - lam) * y for x, y in zip(a.probs, b.probs)], ZERO_ONE
            )
            bound = max(verify_smoothness(a), verify_smoothness(b))
            assert verify_smoothness(mix) <= bound + 1e-9

    def test_json_roundtrip(self):
        rng = np.random.default_rng(2)
        for d in (
            Distribution.uniform(6),
            Distribution.product([0.3, -0.2, 0.1], PLUS_MINUS),
            random_smooth_table(6, 1.4, rng),
        ):
            again = Distribution.from_json(d.to_json())
            assert again.kind == d.kind and again.n == d.n
            masks = all_masks(d.n)
            assert np.allclose(
                [d.point_prob(int(m)) for m in masks],
                [again.point_prob(int(m)) for m in masks],
            )


def compress(mask, positions):
    """Bit j of the result is bit positions[j] of mask."""
    return sum((mask >> pos & 1) << j for j, pos in enumerate(positions))


@st.composite
def small_tables(draw):
    """A table over n = 1..8 bits with integer weights, some of them zero."""
    n = draw(st.integers(1, 8), label="n")
    weights = draw(
        st.lists(st.integers(0, 9), min_size=1 << n, max_size=1 << n).filter(any),
        label="weights",
    )
    probs = np.asarray(weights, dtype=np.float64) / sum(weights)
    probs /= math.fsum(probs.tolist())
    return Distribution.table(probs, ZERO_ONE)


class TestTableArrays:
    """Table queries read one float64 array; each equals its definition
    evaluated point by point."""

    @settings(max_examples=80, deadline=None)
    @given(dist=small_tables(), data=st.data())
    def test_marginal_matches_per_point_sums(self, dist, data):
        n = dist.n
        keep = data.draw(st.integers(1, (1 << n) - 1), label="keep")
        positions = [i for i in range(n) if keep >> i & 1]
        sums = [
            math.fsum(dist.probs[x] for x in range(1 << n) if compress(x, positions) == y)
            for y in range(1 << len(positions))
        ]
        want = [v / math.fsum(sums) for v in sums]
        assert marginal(dist, keep).probs == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=80, deadline=None)
    @given(dist=small_tables(), data=st.data())
    def test_conditional_marginal_matches_per_point_sums(self, dist, data):
        n = dist.n
        if n == 1:
            return  # conditioning on the only bit leaves nothing
        subset = data.draw(st.integers(1, (1 << n) - 2), label="subset")
        assignment = data.draw(st.integers(0, (1 << n) - 1), label="assignment") & subset
        rest = [i for i in range(n) if not subset >> i & 1]
        match = [x for x in range(1 << n) if x & subset == assignment]
        mass = math.fsum(dist.probs[x] for x in match)
        if mass == 0.0:
            with pytest.raises(ZeroMassError):
                conditional_marginal(dist, subset, assignment)
            return
        want = [
            math.fsum(dist.probs[x] for x in match if compress(x, rest) == y) / mass
            for y in range(1 << len(rest))
        ]
        got = conditional_marginal(dist, subset, assignment).probs
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=80, deadline=None)
    @given(dist=small_tables())
    def test_smoothness_matches_neighbour_scan(self, dist):
        assert verify_smoothness(dist) == brute_force_alpha(dist)

    @settings(max_examples=40, deadline=None)
    @given(dist=small_tables())
    def test_list_tuple_and_array_build_equal_tables(self, dist):
        want = dist.probs.copy()
        source = dist.probs.copy()
        built = [
            Distribution.table(form, ZERO_ONE)
            for form in (dist.probs.tolist(), tuple(dist.probs.tolist()), source)
        ]
        source[:] = 0.0  # the table keeps its own copy
        for table in built:
            assert table.probs.dtype == np.float64 and not table.probs.flags.writeable
            assert np.array_equal(table.probs, want)
            assert table.probs_array() is table.probs
            assert table.to_json()["probs"] == dist.to_json()["probs"]
            assert table == table and table != dist  # identity: == never compares arrays
        assert source.flags.writeable  # the caller's array is not frozen

    @settings(max_examples=20, deadline=None)
    @given(dist=small_tables())
    def test_probs_array_is_read_only(self, dist):
        with pytest.raises(ValueError):
            dist.probs_array()[0] = 0.5
        assert dist.probs_array()[0] == dist.probs[0]
