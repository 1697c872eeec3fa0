"""Separation targets: secret-recovery with one-local queries, the
examples-only baseline scoring chance, and the full-MQ break."""

from fractions import Fraction

import numpy as np
import pytest

from localmq import (
    Distribution,
    LocalityError,
    OracleSession,
    PLUS_MINUS,
    PrfTarget,
    learn_g_onelocal,
    pac_baseline,
)
from localmq.oracles import AUDIT_COUNTS, AUDIT_FULL
from localmq.separation import VARIANT_G, VARIANT_GPRIME, partition_block, prf_quality
from localmq.targets import DecisionTree, Leaf


def g_session(target, r=1, seed=0, audit_mode=AUDIT_COUNTS):
    return OracleSession(
        target,
        Distribution.uniform(target.n, PLUS_MINUS),
        r=r,
        seed=seed,
        audit_mode=audit_mode,
    )


class TestPartition:
    def test_blocks_match_rational_arithmetic(self):
        n = 8
        for mask in range(0, 256, 7):
            rank = int("".join(str(mask >> i & 1) for i in range(n)), 2)
            want = next(
                i
                for i in range(1, n + 1)
                if Fraction(i - 1, n) * 2**n <= rank < Fraction(i, n) * 2**n
            )
            assert partition_block(mask, n) == want

    def test_every_block_nonempty(self):
        n = 8
        blocks = {partition_block(m, n) for m in range(1 << n)}
        assert blocks == set(range(1, n + 1))


class TestGVariant:
    @pytest.mark.parametrize("seed", range(3))
    def test_xor_identity_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        n = 10
        secret = int(rng.integers(0, 1 << n))
        target = PrfTarget(n, secret, VARIANT_G, key_seed=seed)
        for suffix in range(1 << n):
            lo = target.value_at(suffix << 1)
            hi = target.value_at((suffix << 1) | 1)
            got = int(lo != hi)
            i = partition_block(suffix, n)
            assert got == (secret >> (i - 1)) & 1

    def test_recovers_secret(self):
        secret = 0b10110101
        target = PrfTarget(8, secret, VARIANT_G, key_seed=3)
        session = g_session(target, seed=3)
        result = learn_g_onelocal(session, budget=200)
        assert result["recovered"] == secret

    def test_zero_secret_means_zero_xors(self):
        target = PrfTarget(8, 0, VARIANT_G, key_seed=4)
        session = g_session(target, seed=4)
        result = learn_g_onelocal(session, budget=200)
        assert result["recovered"] == 0

    def test_queries_are_exactly_one_local(self):
        target = PrfTarget(8, 0b1010, VARIANT_G, key_seed=5)
        session = g_session(target, seed=5, audit_mode=AUDIT_FULL)
        learn_g_onelocal(session, budget=100)
        mq = [r for r in session.records if r["op"] == "mq"]
        assert mq and all(r["dist"] == 1 for r in mq)
        assert session.audit_report().max_locality_used == 1

    def test_baseline_is_chance(self):
        target = PrfTarget(12, 0b101011010011, VARIANT_G, key_seed=6)
        session = g_session(target, r=0, seed=6)
        result = pac_baseline(session, train=5000, test=5000)
        assert 0.45 <= result["holdout_error"] <= 0.55

    def test_baseline_sanity_constant_target(self):
        const = DecisionTree(10, Leaf(1), PLUS_MINUS)
        session = g_session(const, r=0, seed=7)
        result = pac_baseline(session, train=500, test=500)
        assert result["holdout_error"] == 0.0


class TestGPrimeVariant:
    def test_full_mq_break(self):
        n = 10
        secret = 0b1100101001
        target = PrfTarget(n, secret, VARIANT_GPRIME, key_seed=8)
        session = g_session(target, r=n, seed=8)
        session.draw_example()
        recovered = 0
        for i in range(n):
            label = session.local_query(1 << i, 0)
            recovered |= int(label > 0) << i
        assert recovered == secret

    def test_small_r_cannot_reach_unit_vectors(self):
        n = 12
        target = PrfTarget(n, 0b1, VARIANT_GPRIME, key_seed=9)
        session = g_session(target, r=2, seed=9)
        rejected = 0
        for trial in range(20):
            idx, masks, _ = session.draw_batch(1)
            try:
                session.local_query(1 << (trial % n), int(idx[0]))
            except LocalityError:
                rejected += 1
        assert rejected >= 19  # random anchors sit at distance ~n/2

    def test_low_r_baseline_is_chance(self):
        n = 12
        target = PrfTarget(n, 0b110010110010, VARIANT_GPRIME, key_seed=10)
        session = g_session(target, r=2, seed=10)
        result = pac_baseline(session, train=4000, test=4000, r_probe=2, rng_seed=10)
        assert 0.45 <= result["holdout_error"] <= 0.55


class TestPrfGate:
    def test_monobit_and_serial(self):
        target = PrfTarget(17, 0b10010, VARIANT_GPRIME, key_seed=11)
        report = prf_quality(target, samples=100_000)
        assert report["monobit_pass"] and report["serial_pass"]

    def test_distinct_keys_give_distinct_functions(self):
        a = PrfTarget(10, 0, VARIANT_GPRIME, key_seed=1)
        b = PrfTarget(10, 0, VARIANT_GPRIME, key_seed=2)
        masks = np.arange(1 << 10)
        assert not np.array_equal(a.value_batch(masks), b.value_batch(masks))
