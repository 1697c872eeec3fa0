"""Oracle gateway: locality contract, audit trail, persistence."""

import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmq import (
    ContractViolation,
    Distribution,
    Leaf,
    LocalityError,
    NoiseWrapper,
    OracleSession,
    PLUS_MINUS,
    ZERO_ONE,
    DecisionTree,
)
from localmq.distributions import exact_mean
from localmq.generators import random_sparse_poly, random_tree
from localmq.cli import main
from localmq.audit import _decimal_digits
from localmq.oracles import AUDIT_COUNTS
from localmq._bits import ENUM_MAX_BITS, DistinctMasks, all_masks, mask_to_bitstring


def constant_tree(n, label=1):
    return DecisionTree(n, Leaf(label), PLUS_MINUS)


def fresh_session(target=None, n=8, r=3, seed=0, **kw):
    target = target if target is not None else constant_tree(n)
    dist = Distribution.uniform(target.n, target.domain)
    return OracleSession(target, dist, r=r, seed=seed, **kw)


class TestDrawExample:
    def test_constant_target_labels(self):
        s = fresh_session()
        for _ in range(20):
            _, _, labels = s.draw_batch(1)
            assert labels[0] == 1.0

    def test_zero_noise_equals_clean(self):
        tree = random_tree(8, 6, np.random.default_rng(0))
        clean = fresh_session(tree, seed=3)
        noisy = fresh_session(tree, seed=3, noise=NoiseWrapper(0.0, seed=5))
        for _ in range(50):
            (_, m1, l1), (_, m2, l2) = clean.draw_batch(1), noisy.draw_batch(1)
            assert m1[0] == m2[0] and l1[0] == l2[0]

    def test_seeds_2_to_the_31_apart_draw_different_examples(self):
        tree = random_tree(16, 6, np.random.default_rng(0))
        near, far = (fresh_session(tree, seed=seed).draw_batch(64)[1] for seed in (5, 5 + 2**31))
        assert not np.array_equal(near, far)

    @pytest.mark.parametrize("seed", [-1, -(2**31) + 5])
    def test_negative_seed_is_refused(self, seed):
        with pytest.raises(ContractViolation, match="must be >= 0"):
            fresh_session(seed=seed)

    def test_label_frequency_matches_enumeration(self):
        tree = random_tree(10, 12, np.random.default_rng(4))
        masks = all_masks(10)
        dist = Distribution.uniform(10, PLUS_MINUS)
        exact = exact_mean(dist, tree.value_batch(masks) > 0)
        s = OracleSession(tree, dist, r=0, seed=11, audit_mode=AUDIT_COUNTS)
        _, _, labels = s.draw_batch(10_000)
        assert abs(np.mean(labels > 0) - exact) < 0.02


class TestLocalQuery:
    def test_distance_zero_always_allowed(self):
        s = fresh_session(r=0)
        _, masks, labels = s.draw_batch(1)
        assert s.local_query(int(masks[0]), 0) == labels[0]

    def test_three_flips_violate_r2(self):
        s = fresh_session(n=8, r=2)
        _, masks, _ = s.draw_batch(1)
        with pytest.raises(LocalityError) as err:
            s.local_query(int(masks[0]) ^ 0b111, 0)
        assert err.value.distance == 3 and err.value.r == 2
        assert s.audit_report().violations == 1

    def test_persistence_under_noise(self):
        tree = random_tree(8, 6, np.random.default_rng(1))
        s = fresh_session(tree, r=2, noise=NoiseWrapper(0.2, seed=9))
        _, masks, _ = s.draw_batch(1)
        q = int(masks[0]) ^ 0b11
        assert s.local_query(q, 0) == s.local_query(q, 0)

    def test_anchor_must_preexist(self):
        s = fresh_session()
        _, masks, _ = s.draw_batch(1)
        with pytest.raises(ContractViolation):
            s.local_query(int(masks[0]), 5)

    def test_matrix_query_matches_scalar(self):
        tree = random_tree(8, 8, np.random.default_rng(2))
        s = fresh_session(tree, r=3, seed=2)
        idx, masks, _ = s.draw_batch(4)
        queries = masks[:, None] ^ np.asarray([[0b001, 0b110]])
        got = s.local_query_matrix(queries, idx)
        for i in range(4):
            for j in range(2):
                assert got[i, j] == s.local_query(int(queries[i, j]), int(idx[i]))

    def test_matrix_query_rejects_points_outside_the_cube(self):
        s = fresh_session(n=8, r=2)
        idx, masks, _ = s.draw_batch(2)
        with pytest.raises(ContractViolation):
            s.local_query_matrix(masks[:, None] ^ np.asarray([[1 << 8]]), idx)
        assert s.audit_report().mq_count == 0

    def test_matrix_query_rejects_far_rows(self):
        s = fresh_session(n=8, r=1)
        idx, masks, _ = s.draw_batch(2)
        queries = masks[:, None] ^ np.asarray([[0b0, 0b1011]])
        with pytest.raises(LocalityError):
            s.local_query_matrix(queries, idx)


class TestAudit:
    def test_fresh_session_all_zero(self):
        rep = fresh_session().audit_report()
        assert (rep.ex_count, rep.mq_count, rep.max_locality_used, rep.violations) == (
            0,
            0,
            0,
            0,
        )
        assert rep.distinct_mq_points == 0

    def test_counters_match_activity(self):
        s = fresh_session(n=10, r=2, seed=1)
        idx, masks, _ = s.draw_batch(5)
        s.local_query_matrix(masks[:, None] ^ 0b11, idx)
        rep = s.audit_report()
        assert rep.ex_count == 5 and rep.mq_count == 5
        assert rep.max_locality_used == 2

    def test_jsonl_schema(self):
        s = fresh_session(n=6, r=1, seed=8)
        _, masks, _ = s.draw_batch(1)
        s.local_query(int(masks[0]) ^ 0b100, 0)
        buf = io.StringIO()
        assert s.write_audit_jsonl(buf) == 2
        recs = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert recs[0]["op"] == "ex" and recs[0]["anchor"] is None
        assert recs[1]["op"] == "mq" and recs[1]["dist"] == 1
        assert set(recs[1]) >= {"op", "point", "anchor", "dist", "resp", "seq"}
        assert recs[0]["seq"] == 0 and recs[1]["seq"] == 1
        assert len(recs[0]["point"]) == 6

    def test_distinct_tracking_no_collisions_at_large_n(self):
        # at n = 24 a few hundred queries collide with negligible probability,
        # backing the no-repeated-query reading of persistent noise
        tree = random_tree(24, 8, np.random.default_rng(3))
        s = fresh_session(tree, r=3, seed=13)
        idx, masks, _ = s.draw_batch(50)
        pat = np.asarray([0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111, 0b0])
        s.local_query_matrix(masks[:, None] ^ pat[None, :], idx)
        rep = s.audit_report()
        assert rep.distinct_mq_points == rep.mq_count == 400

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_distinct_count_matches_set_of_queried_masks(self, data):
        # queries come from a small pool, so batches repeat points within
        # and across calls; small cubes also cross into the label table
        n = data.draw(st.integers(1, 12))
        pool = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
        s = fresh_session(constant_tree(n), n=n, r=n, audit_mode=AUDIT_COUNTS)
        idx, _, _ = s.draw_batch(4)
        seen = set()
        for scalar in data.draw(st.lists(st.booleans(), min_size=1, max_size=6)):
            if scalar:
                bits = data.draw(st.sampled_from(pool))
                s.local_query(bits, int(data.draw(st.sampled_from(idx))))
                seen.add(bits)
            else:
                rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
                flat = data.draw(
                    st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols)
                )
                s.local_query_matrix(np.asarray(flat).reshape(rows, cols), idx[:rows])
                seen.update(flat)
        assert s.audit_report().distinct_mq_points == len(seen)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_distinct_masks_count_a_cube_as_it_fills(self, n, data):
        # batches of up to 3 * 2**n points fill small cubes, after which
        # a full bitmap takes no more writes and still counts 2**n
        distinct, seen = DistinctMasks(n), set()
        for _ in range(data.draw(st.integers(1, 12))):
            flat = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3 << n))
            distinct.add(np.asarray(flat, dtype=np.int64))
            seen.update(flat)
            assert len(distinct) == len(seen)

    def test_noisy_sessions_flag_their_records(self):
        tree = random_tree(6, 4, np.random.default_rng(4))
        s = fresh_session(tree, n=6, r=1, seed=3, noise=NoiseWrapper(0.1, seed=3))
        _, masks, _ = s.draw_batch(1)
        s.local_query(int(masks[0]) ^ 0b1, 0)
        assert all(rec.get("noisy") is True for rec in s.records)

    def test_counts_mode_skips_records(self):
        s = fresh_session(audit_mode=AUDIT_COUNTS)
        s.draw_batch(1)
        assert s.records == []
        with pytest.raises(ContractViolation):
            s.write_audit_jsonl(io.StringIO())


class TestColumnarAudit:
    """The full audit log equals json.dumps(record, sort_keys=True) of every
    call the caller made and every answer it got, and `localmq audit` on
    that log reproduces the session's own report."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_log_matches_reference_and_audit_command(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        domain = data.draw(st.sampled_from([PLUS_MINUS, ZERO_ONE]), label="domain")
        seed = data.draw(st.integers(0, 1 << 16), label="seed")
        rng = np.random.default_rng(seed)
        if domain == ZERO_ONE:  # real-valued labels, zeros included
            target = random_sparse_poly(
                n, min(3, (1 << n) - 1), rng, coeff_choices=(-0.3, 0.1, 0.7, 1.9), min_degree=1
            )
        else:
            target = random_tree(n, min(4, 1 << n), rng)
        noisy = data.draw(st.booleans(), label="noisy")
        noise = NoiseWrapper(0.3, seed=seed) if noisy else None
        r = data.draw(st.integers(0, n - 1), label="r")
        s = OracleSession(target, Distribution.uniform(n, domain), r=r, seed=seed, noise=noise)
        reference = []

        def expect(op, bits, anchor, dist, resp):
            rec = {
                "op": op,
                "point": "".join("1" if int(bits) >> i & 1 else "0" for i in range(n)),
                "anchor": None if anchor is None else int(anchor),
                "dist": int(dist),
                "resp": None if resp is None else float(resp),
                "seq": len(reference),
            }
            if noise is not None:
                rec["noisy"] = True
            reference.append(json.dumps(rec, sort_keys=True) + "\n")

        def flips(label):
            picked = data.draw(st.lists(st.integers(0, n - 1), max_size=r + 1), label=label)
            return sum(1 << i for i in set(picked))

        def scalar(anchor, bits):
            base = int(s.anchor_masks([anchor])[0])
            try:
                label = s.local_query(bits, anchor)
            except LocalityError as err:
                expect("mq_violation", bits, anchor, err.distance, None)
            else:
                expect("mq", bits, anchor, bin(bits ^ base).count("1"), label)

        def matrix(anchors, queries):
            base = s.anchor_masks(anchors)
            dists = [
                [bin(int(q) ^ int(b)).count("1") for q in row] for row, b in zip(queries, base)
            ]
            try:
                labels = s.local_query_matrix(queries, anchors)
            except LocalityError as err:
                i, j = next(
                    (i, j) for i, row in enumerate(dists) for j, d in enumerate(row) if d > r
                )
                assert (err.anchor, err.distance) == (anchors[i], dists[i][j])
                expect("mq_violation", queries[i, j], anchors[i], dists[i][j], None)
            else:
                for row, a, drow, lrow in zip(queries, anchors, dists, labels):
                    for q, d, y in zip(row, drow, lrow):
                        expect("mq", q, a, d, y)

        steps = data.draw(
            st.lists(st.sampled_from(["draw", "scalar", "matrix"]), max_size=8), label="steps"
        )
        for step in ["draw", *steps]:
            if step == "draw":
                _, masks, labels = s.draw_batch(data.draw(st.integers(1, 5), label="count"))
                for m, y in zip(masks, labels):
                    expect("ex", m, None, 0, y)
                continue
            anchor_st = st.integers(0, s.ex_count - 1)
            if step == "scalar":
                anchor = data.draw(anchor_st, label="anchor")
                scalar(anchor, int(s.anchor_masks([anchor])[0]) ^ flips("flip"))
            else:
                anchors = np.asarray(data.draw(st.lists(anchor_st, min_size=1, max_size=3)))
                cols = data.draw(st.integers(1, 3), label="cols")
                pats = np.asarray([[flips("flip") for _ in range(cols)] for _ in anchors])
                matrix(anchors, s.anchor_masks(anchors)[:, None] ^ pats)
        # one caught LocalityError from each path; the matrix one reports
        # its first far entry in row-major order, with that entry's distance
        too_far = (1 << (r + 1)) - 1
        scalar(0, int(s.anchor_masks([0])[0]) ^ too_far)
        pats = np.asarray([0, too_far, (1 << n) - 1])
        matrix(np.asarray([0, 0]), s.anchor_masks([0, 0])[:, None] ^ pats)

        buf = io.StringIO()
        assert s.write_audit_jsonl(buf) == len(reference)
        assert buf.getvalue() == "".join(reference)
        with tempfile.TemporaryDirectory() as tmp:
            log, out = Path(tmp, "audit.jsonl"), Path(tmp, "summary.json")
            log.write_text(buf.getvalue())
            assert main(["audit", "--infile", str(log), "--out", str(out)]) == 0
            summary = json.loads(out.read_text())
        assert summary == {**s.audit_report().to_json(), "distance_mismatches": 0}

    def test_signed_zero_and_float_text_match_json(self):
        # a noisy {0,1} polynomial labels some points 0.0 and others -0.0
        target = random_sparse_poly(
            6, 3, np.random.default_rng(1), coeff_choices=(-0.3, 0.1, 0.7, 1.9), min_degree=1
        )
        s = OracleSession(
            target, Distribution.uniform(6, ZERO_ONE), r=1, seed=1, noise=NoiseWrapper(0.3, seed=1)
        )
        _, _, labels = s.draw_batch(200)
        text = [json.dumps(float(y)) for y in labels]
        assert {"0.0", "-0.0"} <= set(text)
        assert [json.dumps(rec["resp"]) for rec in s.records] == text

    def test_export_chunks_split_calls_without_changing_bytes(self, monkeypatch):
        s = fresh_session(random_tree(9, 6, np.random.default_rng(5)), n=9, r=2, seed=4)
        idx, masks, _ = s.draw_batch(300)
        s.local_query_matrix(masks[:, None] ^ np.asarray([[0b1, 0b10, 0b11]]), idx)
        whole = io.StringIO()
        s.write_audit_jsonl(whole)
        monkeypatch.setattr("localmq.audit._CHUNK", 7)
        chunked = io.StringIO()
        assert s.write_audit_jsonl(chunked) == 1200
        assert chunked.getvalue() == whole.getvalue()
        assert [rec["seq"] for rec in s.records] == list(range(1200))

    def test_decimal_digits_match_str(self):
        values = [0, 9, 10, 99, 100, 2**62, 2**63 - 1]
        values += [10**k + d for k in range(1, 19) for d in (-1, 0, 1)]
        rows = _decimal_digits(np.asarray(values, dtype=np.int64))
        assert rows.shape == (len(values), 19)
        for value, row in zip(values, rows):
            text = str(value).encode()
            assert row.tobytes() == text + bytes(19 - len(text))

    def test_digit_counts_change_inside_one_block(self, monkeypatch):
        # blocks of 64 records: seq crosses 9 -> 10 in the first block and
        # 99 -> 100 in the second, and the anchors of the query records
        # cross 9 -> 10 (second block) and 99 -> 100 (third)
        monkeypatch.setattr("localmq.audit._CHUNK", 64)
        n = 7
        s = fresh_session(random_tree(n, 5, np.random.default_rng(6)), n=n, r=1, seed=6)
        _, masks, labels = s.draw_batch(120)
        anchors = np.r_[5:15, 95:105]
        answers = s.local_query_matrix(masks[anchors, None] ^ 0b1, anchors)

        def line(op, anchor, dist, bits, resp, seq):
            rec = {"op": op, "anchor": anchor, "dist": dist, "resp": float(resp),
                   "point": mask_to_bitstring(int(bits), n), "seq": seq}
            return json.dumps(rec, sort_keys=True) + "\n"

        want = [line("ex", None, 0, m, y, i) for i, (m, y) in enumerate(zip(masks, labels))]
        want += [
            line("mq", int(a), 1, masks[a] ^ 0b1, y, 120 + j)
            for j, (a, y) in enumerate(zip(anchors, answers[:, 0]))
        ]
        buf = io.StringIO()
        assert s.write_audit_jsonl(buf) == 140
        assert buf.getvalue() == "".join(want)

    def test_scalar_queries_keep_under_64_bytes_per_record(self):
        # five columns of 26 B per record, at most doubled by spare room
        calls = 50_000
        n = 10
        s = fresh_session(random_tree(n, 6, np.random.default_rng(7)), n=n, r=1, seed=7)
        idx, masks, _ = s.draw_batch(100)
        queries = (masks[:, None] ^ (1 << np.arange(n))).ravel().tolist()
        anchors = np.repeat(idx, n).tolist()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(calls):
                s.local_query(queries[k % len(queries)], anchors[k % len(anchors)])
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 64 * calls


class TestLabelTable:
    """After 2**n labelled points the session reads labels from a table of
    the whole cube; every label must equal direct evaluation bit for bit."""

    @pytest.mark.parametrize("kind", ["tree-pm", "poly-01", "noisy-tree-pm"])
    def test_labels_identical_before_across_and_after_the_switch(self, kind):
        n = 7
        rng = np.random.default_rng(21)
        if kind == "poly-01":
            target = random_sparse_poly(
                n, 6, rng, coeff_choices=(-0.3, 0.1, 0.7, 1.9), include_constant=True
            )
            noise = None
        else:
            target = random_tree(n, 10, rng)
            noise = NoiseWrapper(0.2, seed=4) if kind.startswith("noisy") else None
        s = fresh_session(target, r=2, seed=6, noise=noise, audit_mode=AUDIT_COUNTS)

        def direct(masks):
            clean = target.value_batch(masks)
            return clean * noise.zeta_batch(masks) if noise is not None else clean

        def check(got, masks):
            assert got.dtype == np.float64
            assert got.tobytes() == direct(masks).tobytes()

        idx, masks, labels = s.draw_batch(40)
        check(labels, masks)
        pat = np.asarray([0b0, 0b1, 0b110, 0b1000001])
        queries = masks[:15, None] ^ pat[None, :]
        check(s.local_query_matrix(queries, idx[:15]), queries)
        assert s._table is None  # 100 points labelled, 2**7 = 128
        queries = masks[15:30, None] ^ pat[None, :]
        check(s.local_query_matrix(queries, idx[15:30]), queries)  # crosses 128
        assert s._table is not None
        idx2, masks2, labels2 = s.draw_batch(25)
        check(labels2, masks2)
        queries = masks2[:, None] ^ pat[None, ::-1]
        check(s.local_query_matrix(queries, idx2), queries)
        q = int(masks2[3]) ^ 0b11
        assert s.local_query(q, int(idx2[3])) == float(direct(np.asarray([q]))[0])
        assert s.audit_report().mq_count == 2 * 60 + 100 + 1

    def test_short_session_never_builds_the_table(self):
        s = fresh_session(random_tree(10, 6, np.random.default_rng(2)), n=10, r=1)
        idx, masks, _ = s.draw_batch(500)
        s.local_query_matrix(masks[:, None] ^ 0b1, idx)
        assert s._table is None  # 1000 of 1024 points labelled


class TestReleasedAnchors:
    """`release_anchors` drops every example drawn so far from the anchor
    store. Draw indices stay global, and a query that names a released
    example is refused before anything is counted, labelled or logged."""

    def state(self, s):
        buf = io.StringIO()
        s.write_audit_jsonl(buf)
        return (s.audit_report(), s._labelled, s._table is None, buf.getvalue())

    ASKS = {
        "scalar": lambda s, idx, masks: s.local_query(int(masks[-1]) ^ 0b1, int(idx[-1])),
        "matrix": lambda s, idx, masks: s.local_query_matrix(masks[:, None] ^ 0b1, idx),
        "restriction": lambda s, idx, masks: s.restriction_query(idx, 0b11),
    }

    @pytest.mark.parametrize("ask", sorted(ASKS))
    @pytest.mark.parametrize("which", ["released", "mixed"])
    def test_released_anchor_is_refused_and_changes_nothing(self, ask, which):
        s = fresh_session(random_tree(8, 6, np.random.default_rng(3)), seed=4)
        old, old_masks, _ = s.draw_batch(6)
        s.release_anchors()
        new, new_masks, _ = s.draw_batch(4)
        assert new.tolist() == [6, 7, 8, 9]  # indices stay global
        if which == "mixed":  # live anchors first, one released at the end
            idx, masks = np.append(new, old[2]), np.append(new_masks, old_masks[2])
        else:
            idx, masks = old, old_masks
        before = self.state(s)
        with pytest.raises(ContractViolation, match="is not a live example"):
            self.ASKS[ask](s, idx, masks)
        assert self.state(s) == before
        # the live anchors still answer, from the reused store
        self.ASKS[ask](s, new, new_masks)
        assert s.audit_report().mq_count > 0

    def test_store_reuses_its_room(self):
        s = fresh_session(seed=2)
        for _ in range(20):
            idx, masks, _ = s.draw_batch(200)
            assert np.array_equal(s.anchor_masks(idx), masks)
            s.release_anchors()
        assert s.ex_count == 4000 and s._examples.size == 256

    def test_release_leaves_labels_and_log_unchanged(self):
        target = random_tree(8, 6, np.random.default_rng(5))

        def run(release):
            s = fresh_session(target, seed=6, noise=NoiseWrapper(0.1, seed=7))
            labels = []
            for _ in range(5):
                idx, masks, drawn = s.draw_batch(30)
                labels += [drawn, s.restriction_query(idx, 0b101)[0]]
                labels.append([s.local_query(int(masks[-1]) ^ 0b10, int(idx[-1]))])
                if release:
                    s.release_anchors()
            return labels, self.state(s)

        kept, released = run(False), run(True)
        assert all(np.array_equal(a, b) for a, b in zip(kept[0], released[0]))
        assert kept[1] == released[1]


class TestScalarMatchesBatch:
    """A scalar `local_query` gives the label a one-entry
    `local_query_matrix` gives, and leaves the same counters, distinct
    count and full audit, before and after the label table is built."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_same_label_counters_and_audit(self, data):
        n = data.draw(st.integers(2, 8), label="n")
        r = data.draw(st.integers(0, n), label="r")
        seed = data.draw(st.integers(0, 1 << 16), label="seed")
        noisy = data.draw(st.booleans(), label="noisy")
        tree = random_tree(n, min(4, 1 << n), np.random.default_rng(seed))

        def session():
            noise = NoiseWrapper(0.3, seed=seed) if noisy else None
            return fresh_session(tree, n=n, r=r, seed=seed, noise=noise)

        scalar, batch = session(), session()

        def ask(pairs):
            for anchor, flip in pairs:
                anchor %= scalar.ex_count
                query = int(scalar.anchor_masks([anchor])[0]) ^ flip
                try:
                    got = scalar.local_query(query, anchor)
                except LocalityError as err:
                    with pytest.raises(LocalityError) as again:
                        batch.local_query_matrix([[query]], [anchor])
                    assert again.value.distance == err.distance
                    continue
                want = batch.local_query_matrix([[query]], [anchor])[0, 0]
                assert np.float64(got).tobytes() == want.tobytes()

        pairs = st.lists(
            st.tuples(st.integers(0, 1 << 10), st.integers(0, (1 << n) - 1)), max_size=8
        )
        first = data.draw(st.integers(1, 3), label="first")
        for s in (scalar, batch):
            s.draw_batch(first)
        ask(data.draw(pairs, label="before"))
        if n >= 4:  # at most 11 of 2**n points labelled so far
            assert scalar._table is None and batch._table is None
        for s in (scalar, batch):
            s.draw_batch(1 << n)
        assert scalar._table is not None and batch._table is not None
        ask(data.draw(pairs, label="after"))
        assert scalar.audit_report() == batch.audit_report()
        logs = [io.StringIO(), io.StringIO()]
        scalar.write_audit_jsonl(logs[0])
        batch.write_audit_jsonl(logs[1])
        assert logs[0].getvalue() == logs[1].getvalue()


    REFUSALS = {  # (query, anchor), where the live anchor 3 sits at `mask`
        "query-negative": lambda mask: (-1, 3),
        "query-too-wide": lambda mask: (1 << 8, 3),
        "query-beyond-int64": lambda mask: (1 << 70, 3),
        "query-below-int64": lambda mask: (-(1 << 70), 3),
        "anchor-released": lambda mask: (mask, 0),
        "anchor-undrawn": lambda mask: (mask, 4),
        "anchor-negative": lambda mask: (mask, -1),
        "anchor-beyond-int64": lambda mask: (mask, 1 << 70),
        "too-far": lambda mask: (mask ^ 0b111, 3),
    }

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_same_refusal(self, case):
        tree = random_tree(8, 6, np.random.default_rng(5))

        def session():
            s = fresh_session(tree, n=8, r=2, seed=5)
            s.draw_batch(2)
            s.release_anchors()
            s.draw_batch(2)
            return s

        scalar, batch = session(), session()
        query, anchor = self.REFUSALS[case](int(scalar.anchor_masks([3])[0]))
        with pytest.raises(ContractViolation) as one:
            scalar.local_query(query, anchor)
        with pytest.raises(ContractViolation) as many:
            batch.local_query_matrix([[query]], [anchor])
        assert type(one.value) is type(many.value) and str(one.value) == str(many.value)
        assert scalar.audit_report() == batch.audit_report()
        assert scalar.audit_report().violations == (case == "too-far")
        logs = [s.records for s in (scalar, batch)]
        assert logs[0] == logs[1] and len(logs[0]) == 4 + (case == "too-far")


def flip_patterns(n, subset):
    """The 2**|S| flips of S, assignment a putting its bit j on the j-th
    lowest bit of S."""
    positions = [i for i in range(n) if subset >> i & 1]
    return np.asarray(
        [sum((a >> j & 1) << p for j, p in enumerate(positions)) for a in range(1 << len(positions))],
        dtype=np.int64,
    )


def ask_restriction_twins(fast, slow, anchors, subset):
    """Ask `fast` by restriction_query and `slow` by local_query_matrix on
    the explicit matrix; both must answer or refuse alike. When the batch
    holds at least 2**n queries (n <= ENUM_MAX_BITS), `fast` must label
    each distinct row, anchors that agree off S, once. Returns the flip
    patterns, the labels and the number of rows `fast` labelled, or None
    for a refusal."""
    want_patterns = flip_patterns(slow.n, subset)
    bases = slow.anchor_masks(anchors) & ~subset
    queries = bases[:, None] | want_patterns[None, :]
    try:
        want = slow.local_query_matrix(queries, anchors)
    except LocalityError as err:
        with pytest.raises(LocalityError) as again:
            fast.restriction_query(anchors, subset)
        assert (again.value.distance, again.value.r, again.value.anchor) == (
            err.distance, err.r, err.anchor
        )
        return None
    asked = []
    labels_for = fast._labels_for

    def spy(masks):
        asked.append(masks)
        return labels_for(masks)

    fast._labels_for = spy
    try:
        labels, patterns = fast.restriction_query(anchors, subset)
    finally:
        del fast._labels_for
    (masks,) = asked
    rows = masks.reshape(-1, want_patterns.size)
    if slow.n <= ENUM_MAX_BITS and anchors.size * want_patterns.size >= 1 << slow.n:
        # column 0 of a row is its base, the flip that sets no bit of S
        assert rows[:, 0].tolist() == sorted(set(bases.tolist()))
    else:
        assert np.array_equal(rows, queries)
    assert np.array_equal(patterns, want_patterns)
    assert labels.shape == want.shape and labels.tobytes() == want.tobytes()
    return patterns, labels, rows.shape[0]


class TestRestrictionQueryMatchesMatrix:
    """`restriction_query(anchors, S)` answers as `local_query_matrix` does
    on the matrix (anchor & ~S) | patterns, refuses what it refuses, and
    leaves the same counters, distinct count, `_labelled` and full audit,
    on the 2**n bitmap and on the set of masks above ENUM_MAX_BITS; with
    up to 64 anchors, repeats among them, batches of 2**n queries or more
    take the distinct-row path."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_same_labels_counters_audit_and_refusal(self, data):
        n = data.draw(st.one_of(st.integers(1, 8), st.integers(21, 23)), label="n")
        r = data.draw(st.integers(0, min(n, 5)), label="r")
        seed = data.draw(st.integers(0, 1 << 16), label="seed")
        noisy = data.draw(st.booleans(), label="noisy")
        audit = data.draw(st.sampled_from(["full", AUDIT_COUNTS]), label="audit")
        tree = random_tree(n, min(4, 1 << n), np.random.default_rng(seed))

        def session():
            noise = NoiseWrapper(0.3, seed=seed) if noisy else None
            return fresh_session(tree, n=n, r=r, seed=seed, noise=noise, audit_mode=audit)

        fast, slow = session(), session()
        subset_st = st.sets(st.integers(0, n - 1), max_size=min(n, r + 2)).map(
            lambda bits: sum(1 << i for i in bits)
        )
        steps = data.draw(st.lists(st.sampled_from(["draw", "ask"]), max_size=8), label="steps")
        for step in ["draw", *steps]:
            if step == "draw":
                count = data.draw(st.integers(1, 1 << min(n, 7)), label="count")
                for s in (fast, slow):
                    s.draw_batch(count)
                continue
            anchor_st = st.lists(st.integers(0, fast.ex_count - 1), max_size=64)
            anchors = np.asarray(data.draw(anchor_st, label="anchors"), dtype=np.int64)
            ask_restriction_twins(fast, slow, anchors, data.draw(subset_st, label="subset"))
        assert fast.audit_report() == slow.audit_report()
        assert fast._labelled == slow._labelled
        if audit == "full":
            logs = [io.StringIO(), io.StringIO()]
            fast.write_audit_jsonl(logs[0])
            slow.write_audit_jsonl(logs[1])
            assert logs[0].getvalue() == logs[1].getvalue()

    @pytest.mark.parametrize("noisy", [False, True])
    def test_repeated_rows_are_labelled_once(self, noisy):
        """64 anchors on 16 examples of the 6-cube share at most 2**(6-3)
        rows off a 3-bit S; each is labelled once, and everything the
        session reports or logs is as on the explicit matrix."""
        tree = random_tree(6, 4, np.random.default_rng(9))
        noise = NoiseWrapper(0.2, seed=4) if noisy else None
        fast, slow = (fresh_session(tree, n=6, r=3, seed=4, noise=noise) for _ in range(2))
        for s in (fast, slow):
            s.draw_batch(16)
        anchors = np.random.default_rng(1).integers(0, 16, size=64)
        _, _, rows = ask_restriction_twins(fast, slow, anchors, 0b010110)
        assert rows <= 8 < anchors.size
        assert fast.audit_report() == slow.audit_report()
        assert fast._labelled == slow._labelled
        logs = [io.StringIO(), io.StringIO()]
        fast.write_audit_jsonl(logs[0])
        slow.write_audit_jsonl(logs[1])
        assert logs[0].getvalue() == logs[1].getvalue()

    def test_far_subset_is_refused_once_per_batch(self):
        s = fresh_session(n=8, r=2)
        idx, _, _ = s.draw_batch(5)
        with pytest.raises(LocalityError) as err:
            s.restriction_query(idx, 0b10101)
        assert (err.value.distance, err.value.anchor) == (3, int(idx[0]))
        rep = s.audit_report()
        assert (rep.mq_count, rep.violations, rep.max_locality_used) == (0, 1, 0)
        # with no anchor there is no query, so nothing is far
        labels, patterns = s.restriction_query(np.zeros(0, dtype=np.int64), 0b10101)
        assert labels.shape == (0, 8) and patterns.size == 8
        assert s.audit_report() == rep

    @pytest.mark.parametrize("subset", [-1, 1 << 8])
    def test_subset_outside_the_cube_is_refused(self, subset):
        s = fresh_session(n=8, r=8)
        idx, _, _ = s.draw_batch(2)
        with pytest.raises(ContractViolation, match="outside the session's cube"):
            s.restriction_query(idx, subset)
        assert s.audit_report().violations == 0

    def test_batches_are_released_through_local_query_matrix(self, monkeypatch):
        """A wrapper around `OracleSession.local_query_matrix` sees every
        restriction batch, the refused one too, and counts what the
        session counts."""
        seen = []
        inner = OracleSession.local_query_matrix

        def wrapped(self, queries, anchors):
            try:
                labels = inner(self, queries, anchors)
            except LocalityError:
                seen.append("refused")
                raise
            seen.append(labels.size)
            return labels

        monkeypatch.setattr(OracleSession, "local_query_matrix", wrapped)
        s = fresh_session(n=8, r=2)
        idx, _, _ = s.draw_batch(5)
        s.restriction_query(idx, 0b101)
        with pytest.raises(LocalityError):
            s.restriction_query(idx, 0b10101)
        assert seen == [20, "refused"]
        assert (s.audit_report().mq_count, s.audit_report().violations) == (20, 1)

    def test_counts_only_session_computes_no_distance(self, monkeypatch):
        s = fresh_session(n=8, r=3, audit_mode=AUDIT_COUNTS)
        idx, _, _ = s.draw_batch(50)

        def refuse(*args, **kwargs):
            raise AssertionError("a distance was computed")

        monkeypatch.setattr(np, "bitwise_count", refuse)
        labels, _ = s.restriction_query(idx, 0b1011)
        assert labels.shape == (50, 8) and s.audit_report().max_locality_used == 3


class SealedTarget:
    """Evaluation-counting double: label reads must equal logged calls."""

    def __init__(self, n):
        self.n = n
        self.domain = PLUS_MINUS
        self.evaluations = 0

    def value_batch(self, masks):
        self.evaluations += len(np.atleast_1d(masks))
        return np.ones(np.atleast_1d(masks).shape)

    def value_at(self, bits):
        self.evaluations += 1
        return 1.0


class TestEncapsulation:
    def test_every_evaluation_is_logged(self):
        sealed = SealedTarget(8)
        s = OracleSession(sealed, Distribution.uniform(8, PLUS_MINUS), r=2, seed=0)
        idx, masks, _ = s.draw_batch(7)
        s.local_query_matrix(masks[:3, None] ^ 0b1, idx[:3])
        rep = s.audit_report()
        assert sealed.evaluations == rep.ex_count + rep.mq_count

    def test_target_attribute_is_private(self):
        s = fresh_session()
        assert not hasattr(s, "target")
