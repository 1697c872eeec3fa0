"""Code embedding: exhaustive code checks, simulator distribution, the
correlation identity, and a learner run through the simulator."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from localmq import (
    ContractViolation,
    Distribution,
    EnumerationLimitError,
    LearnerConfig,
    LocalityError,
    OracleSession,
    PLUS_MINUS,
    SparsePolynomial,
    build_code,
    correlation_check,
    embed,
    learn_tree_uniform,
)
from localmq.oracles import AUDIT_COUNTS
from localmq.generators import random_tree
from localmq.reduction import LinearCode, ReductionSimulator, ball_size, reduction_report
from localmq._bits import ENUM_MAX_BITS, all_masks, popcount
from localmq._prf import coin_pm
from localmq.verify import agnostic_excess, pull_back
from tests.test_oracles import ask_restriction_twins


def base_session(target, seed=0, r=0):
    return OracleSession(
        target,
        Distribution.uniform(target.n, PLUS_MINUS),
        r=r,
        seed=seed,
        audit_mode=AUDIT_COUNTS,
    )


class TestBuildCode:
    def test_identity_for_k0(self):
        code = build_code(5, 0)
        assert code.m == 5
        for x in range(32):
            assert code.encode(x) == x

    def test_hamming_n4(self):
        code = build_code(4, 1)
        assert code.m <= 7
        # exhaustive pairwise distance via min nonzero weight
        assert code.distance >= 3
        assert code.distance == brute_force_distance(code)

    def test_exhaustive_error_correction_n8_k1(self):
        code = build_code(8, 1)
        for msg in range(256):
            word = code.encode(msg)
            assert code.decode(word) == msg
            for j in range(code.m):
                assert code.decode(word ^ (1 << j)) == msg

    @pytest.mark.parametrize("n,k", [(6, 2), (8, 2), (6, 3), (12, 2), (16, 3), (30, 3)])
    def test_bch_distances(self, n, k):
        code = build_code(n, k)
        assert code.distance >= 2 * k + 1
        assert code.m <= n + k * math.ceil(math.log2(n)) + 8
        # spot-check correction at the design radius
        rng = np.random.default_rng(n * 31 + k)
        for _ in range(50):
            msg = int(rng.integers(0, 1 << n))
            word = code.encode(msg)
            err = 0
            for pos in rng.choice(code.m, size=k, replace=False):
                err |= 1 << int(pos)
            assert code.decode(word ^ err) == msg

    def test_decode_failure_beyond_radius(self):
        code = build_code(4, 1)
        word = code.encode(3)
        corrupted = word ^ 0b111  # weight-3 error on a distance-3 code
        got = code.decode(corrupted)
        assert got is None or got != 3 or popcount(code.encode(got) ^ corrupted) <= 1

    def test_desk_scale_contract(self):
        with pytest.raises(ContractViolation):
            build_code(8, 4)

    @pytest.mark.parametrize("n", range(17, 31))
    def test_every_message_length_to_30(self, n):
        # every message length a target supports gets a code; past n = 20,
        # where the brute-force reference stops, the walk's distance alone
        # shows it reaches 2k+1, within the documented length
        for k in range(4):
            code = build_code(n, k)
            assert code.distance >= 2 * k + 1
            assert code.m <= n + k * math.ceil(math.log2(n)) + 8


def codewords(code):
    """Every codeword, indexed by its message."""
    return code.encode_batch(all_masks(code.n))


def brute_force_distance(code):
    return int(popcount(codewords(code)[1:]).min())


class TestWalkDistance:
    """The distance read from the coset-leader walk equals the least
    weight of a nonzero codeword, listed by the encoder."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_systematic_codes(self, data):
        n = data.draw(st.integers(1, 10), label="n")
        parity = data.draw(st.integers(0, 8), label="parity bits")
        checks = data.draw(
            st.lists(st.integers(0, (1 << parity) - 1), min_size=n, max_size=n), label="checks"
        )
        code = LinearCode(n, n + parity, 1, tuple((1 << i) | (c << n) for i, c in enumerate(checks)))
        assert code.distance == brute_force_distance(code)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_built_codes_and_their_pads(self, n):
        for k in range(4):
            code = build_code(n, k)
            want = brute_force_distance(code)
            for extra in (0, 1, 3):
                if code.m + extra - n <= ENUM_MAX_BITS:  # the syndrome table's limit
                    assert code.pad(extra).distance == want


def nearest_codeword(code, words):
    """Brute force over every codeword: each word's distance to the code
    and the message of its first nearest codeword."""
    dists = popcount(words[:, None] ^ codewords(code)[None, :])
    return dists.min(axis=1), dists.argmin(axis=1)


class TestSyndromeDecoding:
    """The coset-leader table gives exactly what a search over every
    codeword gives: on every word when m <= 14, else on random words."""

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 13) for k in range(4)])
    def test_equals_nearest_codeword_search(self, n, k):
        rng = np.random.default_rng([n, k, 41])
        code = build_code(n, k)
        for padded in (code, code.pad(1), code.pad(3)):
            if padded.m <= 14:
                words = all_masks(padded.m)
            else:
                words = rng.integers(0, 1 << padded.m, size=600, dtype=np.int64)
            for lo in range(0, words.size, 512):
                block = words[lo : lo + 512]
                dists, best = nearest_codeword(padded, block)
                assert np.array_equal(padded.min_distance_batch(block), dists)
                want = [b if d <= k else None for d, b in zip(dists.tolist(), best.tolist())]
                assert [padded.decode(w) for w in block.tolist()] == want

    def test_syndrome_table_is_bounded(self):
        LinearCode(1, 21, 0, (1,))  # 2**20 syndromes
        with pytest.raises(EnumerationLimitError):
            LinearCode(1, 22, 0, (1,))
        with pytest.raises(EnumerationLimitError):
            build_code(6, 3).pad(6)  # m - n = 15 + 6


class TestEmbedding:
    def test_beta_matches_direct_enumeration(self):
        f = random_tree(4, 4, np.random.default_rng(0))
        emb = embed(f, 1, coin_seed=3)
        m, k = emb.m, emb.code.k
        in_z = emb.code.min_distance_batch(np.arange(1 << m)) <= k
        assert int(in_z.sum()) == (1 << 4) * ball_size(m, k)
        assert emb.beta == pytest.approx(int(in_z.sum()) / 2.0**m)
        assert emb.beta <= 2.0 / 3.0

    def test_values_on_and_off_code(self):
        f = random_tree(4, 4, np.random.default_rng(1))
        emb = embed(f, 1, coin_seed=5)
        for msg in range(16):
            z = np.asarray([emb.code.encode(msg)])
            assert emb.value_batch(z)[0] == f.value_at(msg)
            assert emb.label_batch(z)[0] == f.value_at(msg)
        off = np.asarray([emb.code.encode(3) ^ (1 << (emb.m - 1))])
        assert emb.value_batch(off)[0] == 0.0
        assert emb.label_batch(off)[0] in (-1.0, 1.0)
        assert emb.label_batch(off)[0] == emb.label_batch(off)[0]  # persistent coin

    @pytest.mark.parametrize("n,k", [(3, 0), (4, 1), (6, 1), (4, 2), (3, 3)])
    def test_whole_cube_against_codeword_table(self, n, k):
        # f_e over every m-bit word, against a word -> message table built
        # here from the encoder's codewords
        f = random_tree(n, 4, np.random.default_rng([n, k]))
        emb = embed(f, k, coin_seed=n + k)
        message_of = {w: msg for msg, w in enumerate(codewords(emb.code).tolist())}
        assert len(message_of) == 1 << n
        words = np.arange(1 << emb.m, dtype=np.int64)
        want = np.asarray(
            [f.value_at(message_of[z]) if z in message_of else 0.0 for z in words.tolist()]
        )
        assert np.array_equal(emb.value_batch(words), want)
        labels = emb.label_batch(words)
        on_code = want != 0.0
        assert np.array_equal(labels[on_code], want[on_code])
        assert np.array_equal(labels[~on_code], coin_pm(emb.coin_seed, words[~on_code]))

    def test_k0_simulation_passes_examples_through(self):
        f = random_tree(6, 6, np.random.default_rng(2))
        emb = embed(f, 0)
        bs = base_session(f, seed=4)
        sim = ReductionSimulator(emb, bs, seed=4)
        _, masks, labels = sim.draw_batch(200)
        assert np.array_equal(labels, f.value_batch(masks))
        assert bs.ex_count == 200


class TestSimulatorDistribution:
    def test_tv_distance_to_exact(self):
        # m <= 8 keeps the exact distribution enumerable
        f = random_tree(4, 4, np.random.default_rng(3))
        emb = embed(f, 1, coin_seed=9)
        assert emb.m <= 8
        bs = base_session(f, seed=7)
        sim = ReductionSimulator(emb, bs, seed=7)
        n_draws = 400_000
        _, masks, labels = sim.draw_batch(n_draws)
        counts = Counter(zip(masks.tolist(), labels.tolist()))
        tv = 0.0
        for z, want in enumerate(emb.label_batch(np.arange(1 << emb.m)).tolist()):
            p_exact = 1.0 / (1 << emb.m)
            tv += abs(counts.get((z, want), 0) / n_draws - p_exact)
            tv += counts.get((z, -want), 0) / n_draws
        assert tv / 2 <= 0.01

    def test_base_session_never_queried(self):
        f = random_tree(4, 4, np.random.default_rng(4))
        emb = embed(f, 1)
        bs = base_session(f, seed=5)
        sim = ReductionSimulator(emb, bs, seed=5)
        sim.draw_batch(5000)
        for j in range(200):
            anchor = j % sim.ex_count
            q = int(sim.anchor_masks([anchor])[0]) ^ (1 << (j % emb.m))
            sim.local_query(q, anchor)
        assert bs.mq_count == 0
        assert bs.ex_count > 0

    def test_rejection_tries_logged(self):
        f = random_tree(4, 4, np.random.default_rng(5))
        emb = embed(f, 1)
        bs = base_session(f, seed=6)
        sim = ReductionSimulator(emb, bs, seed=6)
        sim.draw_batch(2000)
        rep = reduction_report(emb, sim)
        assert rep["beta"] <= 2 / 3
        assert sum(rep["tries_histogram"].values()) >= 1
        assert rep["base_mq_count"] == 0


class TestSimulatedQueries:
    def test_query_at_drawn_point_consistent(self):
        f = random_tree(4, 4, np.random.default_rng(6))
        emb = embed(f, 1)
        sim = ReductionSimulator(emb, base_session(f, seed=8), seed=8)
        idx, masks, labels = sim.draw_batch(100)
        for i in range(100):
            assert sim.local_query(int(masks[i]), i) == labels[i]

    def test_locality_enforced(self):
        f = random_tree(4, 4, np.random.default_rng(7))
        emb = embed(f, 1)
        sim = ReductionSimulator(emb, base_session(f, seed=9), seed=9)
        _, masks, _ = sim.draw_batch(1)
        with pytest.raises(LocalityError):
            sim.local_query(int(masks[0]) ^ 0b11, 0)

    def test_answers_equal_embedded_function(self):
        # the procedural answers coincide pointwise with f_e's labels
        f = random_tree(4, 4, np.random.default_rng(8))
        emb = embed(f, 1, coin_seed=11)
        sim = ReductionSimulator(emb, base_session(f, seed=10), seed=10)
        _, masks, _ = sim.draw_batch(300)
        rng = np.random.default_rng(12)
        for i in range(300):
            flip = 1 << int(rng.integers(0, emb.m))
            q = int(masks[i]) ^ flip
            assert sim.local_query(q, i) == emb.label_batch(np.asarray([q]))[0]

    def test_chi_square_label_statistics(self):
        # label frequencies through the simulator match direct f_e access
        f = random_tree(4, 4, np.random.default_rng(9))
        emb = embed(f, 1, coin_seed=13)
        sim = ReductionSimulator(emb, base_session(f, seed=14), seed=14)
        n_draws = 20_000
        _, masks, labels = sim.draw_batch(n_draws)
        on_code = emb.code.min_distance_batch(masks) == 0
        sim_counts = [
            int(np.sum(on_code & (labels > 0))),
            int(np.sum(on_code & (labels < 0))),
            int(np.sum(~on_code & (labels > 0))),
            int(np.sum(~on_code & (labels < 0))),
        ]
        rng = np.random.default_rng(15)
        direct_masks = rng.integers(0, 1 << emb.m, size=n_draws)
        direct_labels = emb.label_batch(direct_masks)
        d_on = emb.code.min_distance_batch(direct_masks) == 0
        direct_counts = [
            int(np.sum(d_on & (direct_labels > 0))),
            int(np.sum(d_on & (direct_labels < 0))),
            int(np.sum(~d_on & (direct_labels > 0))),
            int(np.sum(~d_on & (direct_labels < 0))),
        ]
        _, p, _, _ = stats.chi2_contingency([sim_counts, direct_counts])
        assert p > 0.01


class TestSimulatorGateway:
    """The simulator is a k-local MQ gateway over f_e: every label it
    releases equals f_e's at that word, queries beyond k are refused, the
    base session answers no query, and its audit report matches a tally
    kept by the caller."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_answers_refusals_and_counts(self, data):
        n = data.draw(st.integers(3, 6), label="n")
        k = data.draw(st.sampled_from([0, 1, 2]), label="k")
        seed = data.draw(st.integers(0, 1 << 16), label="seed")
        f = random_tree(n, 4, np.random.default_rng(seed))
        emb = embed(f, k, coin_seed=seed)
        bs = base_session(f, seed=seed)
        sim = ReductionSimulator(emb, bs, seed=seed)
        m = emb.m
        tally = {"ex": 0, "mq": 0, "violations": 0, "max_dist": 0}
        seen = set()

        def flips(far):
            size = (k + 1, m) if far else (0, k)
            picked = data.draw(st.sets(st.integers(0, m - 1), min_size=size[0], max_size=size[1]))
            return sum(1 << i for i in picked)

        def answered(words, anchors, labels):
            words = np.asarray(words, dtype=np.int64).ravel()
            assert np.array_equal(np.ravel(labels), emb.label_batch(words))
            dists = popcount(words ^ sim.anchor_masks(anchors))
            tally["mq"] += words.size
            tally["max_dist"] = max(tally["max_dist"], int(dists.max()))
            seen.update(words.tolist())

        steps = data.draw(
            st.lists(st.sampled_from(["draw", "scalar", "matrix"]), max_size=10), label="steps"
        )
        for step in ["draw", *steps]:
            if step == "draw":
                _, masks, labels = sim.draw_batch(data.draw(st.integers(1, 20), label="count"))
                assert np.array_equal(labels, emb.label_batch(masks))
                tally["ex"] += masks.size
                continue
            anchor_st = st.integers(0, sim.ex_count - 1)
            far = data.draw(st.booleans(), label="far")
            if step == "scalar":
                anchor = data.draw(anchor_st, label="anchor")
                word = int(sim.anchor_masks([anchor])[0]) ^ flips(far)
                if far:
                    with pytest.raises(LocalityError) as err:
                        sim.local_query(word, anchor)
                    assert err.value.distance > k
                    tally["violations"] += 1
                else:
                    answered([word], [anchor], [sim.local_query(word, anchor)])
            else:
                anchors = data.draw(st.lists(anchor_st, min_size=1, max_size=3), label="anchors")
                cols = data.draw(st.integers(1, 3), label="cols")
                pats = np.asarray([[flips(False) for _ in range(cols)] for _ in anchors])
                if far:
                    pats[data.draw(st.integers(0, len(anchors) - 1)), -1] = flips(True)
                queries = sim.anchor_masks(anchors)[:, None] ^ pats
                if far:
                    with pytest.raises(LocalityError):
                        sim.local_query_matrix(queries, anchors)
                    tally["violations"] += 1
                else:
                    labels = sim.local_query_matrix(queries, anchors)
                    answered(queries, np.repeat(anchors, cols), labels)
        assert bs.mq_count == 0
        rep = sim.audit_report()
        assert (rep.ex_count, rep.mq_count, rep.violations, rep.max_locality_used) == (
            tally["ex"], tally["mq"], tally["violations"], tally["max_dist"]
        )
        assert rep.distinct_mq_points == len(seen)


class TestSimulatorScalarMatchesBatch:
    """The simulator's scalar hook answers as its batch hook does, on and
    off the anchors' codewords, with the same counters and distinct count."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_labels_and_counters(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        k = data.draw(st.sampled_from([0, 1, 2]), label="k")
        seed = data.draw(st.integers(0, 1 << 16), label="seed")
        f = random_tree(n, 4, np.random.default_rng(seed))
        emb = embed(f, k, coin_seed=seed)
        scalar, batch = (
            ReductionSimulator(emb, base_session(f, seed=seed), seed=seed) for _ in range(2)
        )
        count = data.draw(st.integers(1, 40), label="count")
        _, masks, _ = scalar.draw_batch(count)
        batch.draw_batch(count)

        def ask(anchor, query):
            try:
                got = scalar.local_query(query, anchor)
            except LocalityError:
                with pytest.raises(LocalityError):
                    batch.local_query_matrix([[query]], [anchor])
                return
            assert got == batch.local_query_matrix([[query]], [anchor])[0, 0]
            assert got == emb.label_batch(np.asarray([query]))[0]

        flips = st.tuples(st.integers(0, count - 1), st.integers(0, (1 << emb.m) - 1))
        for anchor, flip in data.draw(st.lists(flips, max_size=30), label="queries"):
            ask(anchor, int(masks[anchor]) ^ flip)
        # every anchor within k of a codeword also asks for that codeword
        for anchor, word in enumerate(masks.tolist()):
            msg = emb.code.decode(word)
            if msg is not None:
                ask(anchor, emb.code.encode(msg))
        assert scalar.audit_report() == batch.audit_report()
        assert scalar.base_session.audit_report() == batch.base_session.audit_report()


class TestSimulatorRestrictionQuery:
    """At k = 1 the simulator answers `restriction_query` as it answers
    `local_query_matrix` on the explicit flip matrix, codewords included,
    refuses |S| > 1 alike, and leaves the same counters and distinct count."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_labels_refusals_and_counters(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        seed = data.draw(st.integers(0, 1 << 16), label="seed")
        f = random_tree(n, 4, np.random.default_rng(seed))
        emb = embed(f, 1, coin_seed=seed)
        fast, slow = (
            ReductionSimulator(emb, base_session(f, seed=seed), seed=seed) for _ in range(2)
        )
        count = data.draw(st.integers(1, 40), label="count")
        for sim in (fast, slow):
            sim.draw_batch(count)
        subsets = st.sets(st.integers(0, emb.m - 1), max_size=2).map(
            lambda bits: sum(1 << i for i in bits)
        )
        for _ in range(data.draw(st.integers(1, 6), label="asks")):
            anchors = data.draw(st.lists(st.integers(0, count - 1), max_size=5), label="anchors")
            subset = data.draw(subsets, label="subset")
            ask_restriction_twins(fast, slow, np.asarray(anchors, dtype=np.int64), subset)
        # each anchor within 1 of a codeword asks for it on the flip of that bit
        anchors = np.arange(count)
        for anchor, word in zip(anchors.tolist(), fast.anchor_masks(anchors).tolist()):
            msg = emb.code.decode(word)
            if msg is not None and word != emb.code.encode(msg):
                flip = word ^ emb.code.encode(msg)
                patterns, labels = ask_restriction_twins(fast, slow, np.asarray([anchor]), flip)
                assert np.array_equal(labels[0], emb.label_batch((word & ~flip) | patterns))
        assert fast.audit_report() == slow.audit_report()
        assert fast.base_session.audit_report() == slow.base_session.audit_report()


def parity(n, mask):
    return SparsePolynomial(n, {mask: 1.0}, PLUS_MINUS)


class TestLearnerThroughSimulator:
    def test_tree_learner_picks_the_planted_parity(self):
        # the tree learner with d = k, at the attenuated threshold
        # theta = 2^(n-m) / 2; n = 10 keeps the persistent coin's
        # coefficients (~2^(-m/2)) well below the signal 2^(n-m)
        n, k = 10, 1
        f = parity(n, 0b1000)
        emb = embed(f, k, coin_seed=21)
        bs = base_session(f, seed=21)
        sim = ReductionSimulator(emb, bs, seed=21)
        signal = 2.0 ** (n - emb.m)
        config = LearnerConfig(epsilon=0.5, t=1, d=k, theta=0.5 * signal, m=2000, seed=21)
        outcome = learn_tree_uniform(sim, config)
        pulled = pull_back(outcome, n)
        terms = {s: c for s, c in pulled.hypothesis.coeffs.items() if s}
        assert max(terms, key=lambda s: abs(terms[s])) == 0b1000 and terms[0b1000] > 0
        achieved, best = agnostic_excess(f, pulled, max_size=k)
        assert best == 1.0 and achieved >= 0.5
        rep = sim.audit_report()
        assert rep.mq_count > 0 and rep.max_locality_used <= k
        assert bs.mq_count == 0


class TestCorrelationIdentity:
    def test_self_correlation(self):
        f = random_tree(6, 6, np.random.default_rng(10))
        emb = embed(f, 1)
        lhs, rhs = correlation_check(f, emb)
        assert lhs == pytest.approx(2.0 ** (6 - emb.m), abs=1e-15)
        assert rhs == pytest.approx(2.0 ** (6 - emb.m), abs=1e-15)

    def test_orthogonal_parities_vanish(self):
        f, g = parity(6, 0b1), parity(6, 0b10)
        emb = embed(f, 1)
        lhs, rhs = correlation_check(g, emb)
        assert lhs == 0.0 and rhs == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pairs_exact(self, seed):
        rng = np.random.default_rng(seed)
        f = random_tree(6, 6, rng)
        g = random_tree(6, 6, rng)
        emb = embed(f, 1)
        lhs, rhs = correlation_check(g, emb)
        assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("n,k", [(6, 1), (5, 2), (4, 3)])
    def test_matches_a_sum_over_the_codewords(self, n, k):
        # fsum is correctly rounded, so summing only the codeword terms,
        # message by message, must give the same floats
        rng = np.random.default_rng([n, k, 32])
        f, g = random_tree(n, 6, rng), random_tree(n, 6, rng)
        emb = embed(f, k)
        words = codewords(emb.code).tolist()
        msg_mask = (1 << n) - 1
        lhs = math.fsum(f.value_at(x) * g.value_at(w & msg_mask) for x, w in enumerate(words))
        rhs = math.fsum(f.value_at(x) * g.value_at(x) for x in range(1 << n))
        got = correlation_check(g, emb)
        assert got == (lhs / (1 << emb.m), 2.0 ** (n - emb.m) * rhs / (1 << n))

    def test_m_bit_form_of_identity(self):
        # E_m[f_e h] = 2^(n-m) E_n[f(x) h(x . e(x))] for h over all m bits
        import math

        rng = np.random.default_rng(31)
        f = random_tree(6, 6, rng)
        emb = embed(f, 1)
        m = emb.m
        h = parity(m, 0b10000000001)  # touches message and parity bits
        lookup = {int(emb.code.encode(x)): x for x in range(1 << 6)}
        acc = []
        for z in range(1 << m):
            x = lookup.get(z)
            if x is not None:
                acc.append(f.value_at(x) * h.value_at(z))
        lhs = math.fsum(acc) / (1 << m)
        rhs = (
            2.0 ** (6 - m)
            * math.fsum(
                f.value_at(x) * h.value_at(emb.code.encode(x)) for x in range(1 << 6)
            )
            / (1 << 6)
        )
        assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_code_serializes_generator_rows(self):
        code = build_code(4, 1)
        obj = code.to_json()
        assert len(obj["generator_rows"]) == 4
        assert all(len(row) == code.m for row in obj["generator_rows"])
        assert obj["distance"] >= 3
        # rows reproduce the encoder
        for i in range(4):
            row_mask = sum(b << j for j, b in enumerate(obj["generator_rows"][i]))
            assert row_mask == code.encode(1 << i)
