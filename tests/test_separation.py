"""Separation targets: secret-recovery with one-local queries, the
examples-only baseline scoring chance, and the full-MQ break."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from localmq import (
    ContractViolation,
    Distribution,
    LocalityError,
    OracleSession,
    PLUS_MINUS,
    PrfTarget,
    learn_g_onelocal,
    pac_baseline,
)
from localmq.cli import EXIT_CONTRACT, main as cli_main
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

    def test_mask_arrays_match_scalars(self):
        for n in (1, 8, 13, 24):
            masks = np.random.default_rng(n).integers(0, 1 << n, 300)
            want = [partition_block(int(m), n) for m in masks]
            assert partition_block(masks, n).tolist() == want

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


class TestBatchedQueries:
    """learn_g_onelocal and pac_baseline ask their queries in batches."""

    def test_onelocal_overshoots_the_sequential_count_by_less_than_a_block(self):
        ns = 8
        target = PrfTarget(ns, 0b01101100, VARIANT_G, key_seed=13)
        session = g_session(target, seed=13, audit_mode=AUDIT_FULL)
        result = learn_g_onelocal(session, budget=500)
        assert result["covered"] and result["recovered"] == target.secret
        examples = [r for r in session.records if r["op"] == "ex"]
        queries = [r for r in session.records if r["op"] == "mq"]
        assert len(examples) == len(queries) == result["examples_used"] == result["queries_used"]
        assert [q["anchor"] for q in queries] == list(range(len(examples)))
        # the example at which a one-at-a-time learner would have stopped
        seen = set()
        for used, mask in enumerate(session.anchor_masks(np.arange(len(examples))).tolist(), 1):
            seen.add(partition_block(mask >> 1, ns))
            if len(seen) == ns:
                break
        assert used <= result["examples_used"] < used + ns

    @pytest.mark.parametrize("budget", [1, 5, 7])
    def test_onelocal_budget_below_the_block_count(self, budget):
        target = PrfTarget(8, 0b1011, VARIANT_G, key_seed=14)
        session = g_session(target, seed=14)
        result = learn_g_onelocal(session, budget=budget)
        assert not result["covered"] and result["recovered"] is None
        assert result["examples_used"] == session.ex_count == budget
        assert len(result["missing_blocks"]) >= 8 - budget

    def test_onelocal_budget_is_never_exceeded(self):
        for seed in range(10):
            target = PrfTarget(8, 0b1011, VARIANT_G, key_seed=seed)
            session = g_session(target, seed=seed)
            learn_g_onelocal(session, budget=11)
            assert session.ex_count <= 11 and session.mq_count <= 11

    def test_baseline_probes_flip_exactly_r_bits(self):
        n, train = 12, 300
        target = PrfTarget(n, 0b110010110010, VARIANT_GPRIME, key_seed=15)
        session = g_session(target, r=2, seed=15, audit_mode=AUDIT_FULL)
        result = pac_baseline(session, train=train, test=100, r_probe=2, rng_seed=15)
        queries = [r for r in session.records if r["op"] == "mq"]
        assert len(queries) == train and result["train_size"] == 2 * train
        anchors = session.anchor_masks(np.arange(session.ex_count)).tolist()
        assert {q["anchor"] for q in queries} == set(range(train, 2 * train))
        for q in queries:
            probe = int(q["point"][::-1], 2)  # variable 0 is written first
            assert q["dist"] == 2 and (probe ^ anchors[q["anchor"]]).bit_count() == 2

    @pytest.mark.parametrize("r_probe", [-1, 13])
    def test_baseline_rejects_probes_outside_the_cube(self, r_probe):
        target = PrfTarget(12, 0b1, VARIANT_GPRIME, key_seed=16)
        session = g_session(target, r=12, seed=16)
        with pytest.raises(ContractViolation):
            pac_baseline(session, train=10, test=10, r_probe=r_probe)

    def test_baseline_seeds_2_to_the_31_apart_probe_different_points(self):
        target = PrfTarget(12, 0b1, VARIANT_GPRIME, key_seed=16)
        probes = []
        for rng_seed in (5, 5 + 2**31):
            session = g_session(target, r=2, seed=16, audit_mode=AUDIT_FULL)
            pac_baseline(session, train=50, test=10, r_probe=2, rng_seed=rng_seed)
            probes.append([q["point"] for q in session.records if q["op"] == "mq"])
        assert probes[0] != probes[1]

    def test_baseline_rejects_a_negative_seed_before_any_draw(self):
        target = PrfTarget(12, 0b1, VARIANT_GPRIME, key_seed=16)
        session = g_session(target, r=2, seed=16)
        with pytest.raises(ContractViolation, match="must be >= 0"):
            pac_baseline(session, train=10, test=10, r_probe=2, rng_seed=-1)
        assert session.ex_count == 0

    def test_cli_exits_3_on_too_many_probe_flips(self, capsys):
        argv = ["demo-separation", "--variant", "gprime", "--n", "12", "--baseline-r", "13",
                "--examples", "20", "--trials", "1"]
        assert cli_main(argv) == EXIT_CONTRACT
        assert "contract violation" in capsys.readouterr().err


class TestGPrimeVariant:
    def test_full_mq_break(self):
        n = 10
        secret = 0b1100101001
        target = PrfTarget(n, secret, VARIANT_GPRIME, key_seed=8)
        session = g_session(target, r=n, seed=8)
        session.draw_batch(1)
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

    def test_prf_bit_is_the_keyed_shake256_keystream(self):
        target = PrfTarget(10, 0b101, VARIANT_G, key_seed=17)
        key = bytes.fromhex("110000000000000005000000")  # key_seed, then secret, little-endian
        stream = hashlib.shake_256(PRF_LABEL + key).digest(8)
        assert stream.hex() == "d830ccfbd00abb7a"  # the known answer
        masks = [*range(0, 1 << 10, 7), (1 << 10) - 1]
        want = [prf_reference_bit(target, m) for m in masks]
        assert want[:9] == [stream[m >> 3] >> (m & 7) & 1 for m in masks[:9]]
        assert target._prf(np.asarray(masks)).tolist() == want

    def test_table_is_packed_and_built_on_first_use(self):
        for variant in (VARIANT_G, VARIANT_GPRIME):
            target = PrfTarget(24, 0b1011, variant, key_seed=18)
            assert "_table" not in vars(target)
            target.value_at((1 << target.n) - 1)
            table = vars(target)["_table"]
            assert table.nbytes == 1 << 21 and not table.flags.writeable
            assert target._table is table

    @pytest.mark.parametrize("variant", [VARIANT_G, VARIANT_GPRIME])
    def test_gate_fails_rarely_over_many_keys(self, variant):
        # at the 4 sigma / 4.5 sigma gates a true PRF fails about 7e-5 of keys
        offset = 0 if variant == VARIANT_G else 2000
        failures = 0
        for seed in range(offset, offset + 2000):
            report = prf_quality(PrfTarget(12, 0, variant, key_seed=seed))
            failures += not (report["monobit_pass"] and report["serial_pass"])
        assert failures <= 3

    def test_distinct_keys_give_distinct_functions(self):
        a = PrfTarget(10, 0, VARIANT_GPRIME, key_seed=1)
        b = PrfTarget(10, 0, VARIANT_GPRIME, key_seed=2)
        masks = np.arange(1 << 10)
        assert not np.array_equal(a.value_batch(masks), b.value_batch(masks))


PRF_LABEL = b"localmq.prf.keystream\x00"


def prf_reference_bit(target, x):
    """The PRF bit of point x by its definition: bit x % 8 of byte x // 8
    of SHAKE-256 over the label and the key, in Python integers."""
    stream = hashlib.shake_256(PRF_LABEL + target._key).digest(x // 8 + 1)
    return stream[x // 8] >> (x % 8) & 1


def reference_bit(target, bits):
    """A target bit by its definition, one point at a time."""
    ns = target.secret_n
    if target.variant == VARIANT_GPRIME:
        if bits and bits & (bits - 1) == 0:  # e^i carries s_i
            return target.secret >> (bits.bit_length() - 1) & 1
        return prf_reference_bit(target, bits)
    suffix = bits >> 1
    out = prf_reference_bit(target, suffix)
    if bits & 1:
        rank = int("".join(str(suffix >> i & 1) for i in range(ns)), 2)
        out ^= target.secret >> (rank * ns >> ns) & 1
    return out


class TestBatchEvaluation:
    @pytest.mark.parametrize("variant", [VARIANT_G, VARIANT_GPRIME])
    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_value_batch_matches_definition(self, variant, n):
        rng = np.random.default_rng(n)
        target = PrfTarget(n, int(rng.integers(0, 1 << n)), variant, key_seed=n)
        cube = np.arange(1 << target.n)
        want = np.asarray([2.0 * reference_bit(target, int(m)) - 1.0 for m in cube])
        assert np.array_equal(target.value_batch(cube), want)
        # repeated points and a 2-d batch keep their shape and values
        batch = rng.integers(0, 1 << target.n, (7, 5))
        assert np.array_equal(target.value_batch(batch), want[batch])
        assert [target.value_at(int(m)) for m in cube[:20]] == want[:20].tolist()

    @pytest.mark.parametrize("variant", [VARIANT_G, VARIANT_GPRIME])
    def test_gate_reads_the_prf_bits(self, variant):
        # the gate reads the PRF over its own 2**secret_n points (the
        # suffixes of 'g'), not the paired target bits of 'g'
        target = PrfTarget(8, 0, variant, key_seed=12)
        limit = 1 << target.secret_n
        bits = np.asarray([prf_reference_bit(target, x) for x in range(limit)], dtype=np.float64)
        x = bits - bits.mean()
        report = prf_quality(target, samples=10 * limit)
        assert report["samples"] == limit and report["bit_mean"] == float(bits.mean())
        assert report["serial_correlation"] == float(np.sum(x[:-1] * x[1:]) / np.sum(x * x))
        assert report["monobit_pass"] and report["serial_pass"]
        assert prf_quality(target, samples=100)["samples"] == 100

    @pytest.mark.parametrize("variant", [VARIANT_G, VARIANT_GPRIME])
    def test_points_outside_the_cube_are_refused(self, variant):
        target = PrfTarget(8, 0b1101, variant, key_seed=19)
        top = (1 << target.n) - 1
        assert target.value_batch(np.asarray([0, top])).shape == (2,)
        for bad in (-1, top + 1, -(1 << 40), 1 << 40):
            with pytest.raises(ContractViolation):
                target.value_at(bad)
            with pytest.raises(ContractViolation):
                target.value_batch(np.asarray([[0, 1], [bad, top]]))
        assert target.value_batch(np.empty(0, dtype=np.int64)).shape == (0,)
