"""CLI surface, the audit reader's fast and JSON paths, suite runner, and
verifier independence (mutation check)."""

import io
import json
import os
import subprocess
import sys
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localmq import (
    ContractViolation,
    Distribution,
    LocalityError,
    NoiseWrapper,
    OracleSession,
    PLUS_MINUS,
)
from localmq import audit, cli, verify
from localmq.cli import main
from localmq.errors import AuditLogError
from localmq.generators import random_sparse_poly, random_tree
from localmq.oracles import AUDIT_COUNTS
from localmq.verify import run_lemma_suite
from localmq.targets import ZERO_ONE


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCliDeterminism:
    def test_gen_target_byte_identical(self, capsys):
        argv = ["gen-target", "--kind", "dnf", "--s", "4", "--n", "14", "--seed", "1"]
        code1, out1 = run_cli(capsys, argv)
        code2, out2 = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        obj = json.loads(out1)
        assert obj["kind"] == "dnf" and len(obj["terms"]) == 4

    def test_learn_run_byte_identical(self, capsys):
        argv = [
            "learn", "--algo", "tree-uniform", "--t", "4", "--eps", "0.08",
            "--seed", "7", "--n", "10", "--test-samples", "400",
            "--est-samples", "1500",
        ]
        _, out1 = run_cli(capsys, argv)
        _, out2 = run_cli(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize(
        "algo, flags, expect",
        [
            pytest.param(
                "tree-uniform",
                ["--t", "4", "--eps", "0.08", "--n", "10", "--test-samples", "400",
                 "--est-samples", "1500"],
                {"d": 9, "theta": 0.01},
                id="tree-uniform",
            ),
            pytest.param(
                "sparse-poly",
                ["--t", "3", "--B", "1", "--alpha", "1.5", "--eps", "0.2", "--n", "8",
                 "--test-samples", "200", "--reg-samples", "800"],
                {"d": 13, "d_prime": 37},
                id="sparse-poly",
            ),
            pytest.param(
                "logdepth-tree",
                ["--depth", "2", "--alpha", "1.0", "--eps", "0.2", "--n", "8",
                 "--test-samples", "300", "--reg-samples", "800"],
                {"d": 2, "theta": 0.125},
                id="logdepth-tree",
            ),
            pytest.param(
                "tree-product",
                ["--t", "4", "--eps", "0.2", "--n", "8", "--test-samples", "200",
                 "--est-samples", "1500"],
                {},
                id="tree-product",
            ),
            pytest.param(
                "dnf",
                ["--s", "2", "--eps", "0.2", "--n", "8", "--test-samples", "200",
                 "--est-samples", "1500"],
                {"d": 4, "theta": 0.025},
                id="dnf",
            ),
        ],
    )
    def test_learn_echoes_parameters(self, capsys, algo, flags, expect):
        code, out = run_cli(capsys, ["learn", "--algo", algo, "--seed", "7", *flags])
        assert code == 0
        obj = json.loads(out)
        outcome = obj["outcome"]
        params = outcome["params"]
        for key in ("algorithm", "epsilon", "delta", "seed", "d", "theta", "m", "cap"):
            assert key in params
        assert params["algorithm"] == algo
        assert ("est_samples" in params) != ("reg_samples" in params)
        for key, want in expect.items():
            assert params[key] == pytest.approx(want)
        assert outcome["sign_threshold"] == (obj["distribution"]["domain"] == PLUS_MINUS)
        assert outcome["audit"]["violations"] == 0
        assert "wall_time_s" not in obj


class TestCliSubcommands:
    def test_gen_dist_table_reports_alpha(self, capsys):
        code, out = run_cli(
            capsys,
            ["gen-dist", "--kind", "table", "--n", "8", "--alpha", "1.5", "--seed", "2"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "table" and obj["alpha_star"] <= 1.5

    def test_learn_from_files(self, tmp_path, capsys):
        tpath = tmp_path / "target.json"
        dpath = tmp_path / "dist.json"
        run_cli(capsys, ["gen-target", "--kind", "decision-tree", "--n", "8",
                         "--leaves", "4", "--seed", "3", "--out", str(tpath)])
        run_cli(capsys, ["gen-dist", "--kind", "uniform", "--n", "8",
                         "--seed", "3", "--out", str(dpath)])
        code, out = run_cli(
            capsys,
            ["learn", "--algo", "tree-uniform", "--t", "4", "--eps", "0.2",
             "--target", str(tpath), "--dist", str(dpath),
             "--test-samples", "300", "--est-samples", "1000", "--seed", "3"],
        )
        assert code == 0
        assert json.loads(out)["outcome"]["error_estimates"]["zero_one"] <= 0.2

    def test_verify_subcommand(self, capsys):
        code, out = run_cli(
            capsys,
            ["verify", "--suite", "parseval", "--n", "8", "--trials", "10", "--seed", "1"],
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_reduce_subcommand(self, capsys):
        code, out = run_cli(
            capsys, ["reduce", "--n", "5", "--k", "1", "--draws", "2000", "--seed", "4"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["base_mq_count"] == 0
        assert obj["max_correlation_residual"] <= 1e-12
        assert obj["beta"] <= 2 / 3

    def test_demo_separation_subcommand(self, capsys):
        code, out = run_cli(
            capsys,
            ["demo-separation", "--variant", "g", "--n", "6", "--examples", "150",
             "--trials", "3", "--prf-samples", "20000", "--seed", "5"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["recovery_rate"] == 1.0
        assert obj["prf_gate"]["monobit_pass"] and obj["prf_gate"]["serial_pass"]

    def test_audit_roundtrip(self, tmp_path, capsys):
        audit_path = tmp_path / "audit.jsonl"
        code, out = run_cli(
            capsys,
            ["learn", "--algo", "tree-uniform", "--t", "4", "--eps", "0.2",
             "--n", "8", "--test-samples", "200", "--est-samples", "500",
             "--seed", "6", "--audit-out", str(audit_path)],
        )
        assert code == 0
        outcome = json.loads(out)["outcome"]
        code2, out2 = run_cli(capsys, ["audit", "--infile", str(audit_path)])
        assert code2 == 0
        summary = json.loads(out2)
        assert summary["distance_mismatches"] == 0
        assert summary["violations"] == 0
        assert summary["ex_count"] == outcome["audit"]["ex_count"]
        assert summary["mq_count"] == outcome["audit"]["mq_count"]
        assert summary["max_locality_used"] == outcome["audit"]["max_locality_used"]


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["learn"])  # missing required --algo
        assert exc.value.code == 2

    def test_contract_violation_is_3(self, capsys):
        code, _ = run_cli(capsys, ["gen-dist", "--kind", "table", "--n", "25", "--seed", "0"])
        assert code == 3

    def test_budget_exceeded_is_4(self, capsys):
        code, _ = run_cli(
            capsys,
            ["learn", "--algo", "tree-uniform", "--t", "4", "--eps", "0.2", "--n", "8",
             "--test-samples", "200", "--est-samples", "500", "--seed", "1",
             "--cap", "1", "--theta", "0.05"],
        )
        assert code == 4

    def test_enumeration_limit_is_3(self, capsys):
        code = main(["verify", "--suite", "tree-expansion", "--n", "26", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("contract violation: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("n", [21, 24])
    def test_cube_past_the_table_limit_is_3(self, n, capsys):
        code = main(["verify", "--suite", "tree-truncation", "--n", str(n), "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"contract violation: exact enumeration needs n <= 20, got {n}\n"

    @pytest.mark.parametrize("suite", ["all", "parseval", "rcn-gap"])
    @pytest.mark.parametrize("trials", [0, -3])
    def test_trial_count_below_one_is_3(self, suite, trials, capsys):
        code = main(["verify", "--suite", suite, "--trials", str(trials)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        want = f"contract violation: a suite needs at least one trial, got {trials}\n"
        assert captured.err == want

    @pytest.mark.parametrize(
        "argv, expect",
        [
            *[
                (["gen-target", "--kind", "sparse-poly", "--n", "3", "--seed", str(s)], 0)
                for s in range(4)
            ],
            (["gen-target", "--kind", "dnf", "--n", "2"], 3),
            (["learn", "--algo", "dnf", "--n", "2"], 3),
            *[
                (["verify", "--suite", suite, "--n", str(n), "--trials", "20"], code)
                for suite, codes in [
                    ("fact-smooth", (3, 0)), ("nonzero-lower-bound", (0, 0)),
                    ("truncation-poly", (0, 0)),
                ]
                for n, code in zip((1, 2), codes)
            ],
        ],
    )
    def test_sizes_above_n_are_clamped_or_refused(self, argv, expect, capsys):
        # a size above n is clamped to n, and what cannot be built is a
        # contract violation, never a numpy error
        code = main(argv)
        captured = capsys.readouterr()
        assert code == expect
        if code == 3:
            assert captured.out == "" and captured.err.startswith("contract violation: ")
            assert captured.err.count("\n") == 1
        else:
            assert captured.err == "" and json.loads(captured.out)

    @pytest.mark.parametrize("n", [2, 3])
    def test_fact_smooth_runs_below_four_variables(self, n, capsys):
        # the conditioning set leaves a variable free, so the conditional
        # marginal exists at every n >= 2
        argv = ["verify", "--suite", "fact-smooth", "--n", str(n), "--trials", "50", "--seed", "0"]
        code, out = run_cli(capsys, argv)
        report = json.loads(out)
        assert code == 0 and report["passed"] and report["violations"] == 0

    def test_reduce_past_the_correlation_check_limit_is_3(self, capsys):
        # n = 12, k = 3 builds a code of length m = 27; the exact correlation
        # check enumerates all 2^m words, so it refuses m > 20
        code = main(["reduce", "--n", "12", "--k", "3", "--draws", "100"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "contract violation: exact enumeration needs n <= 20, got 27\n"

    def test_failed_run_keeps_its_audit_log(self, tmp_path, capsys):
        # r = 0 makes the learner's first query a violation (exit 3)
        log = tmp_path / "v.jsonl"
        code, _ = run_cli(
            capsys,
            ["learn", "--algo", "tree-uniform", "--n", "8", "--t", "4", "--eps", "0.2",
             "--test-samples", "200", "--est-samples", "500", "--r", "0",
             "--audit-out", str(log)],
        )
        assert code == 3
        lines = log.read_text().splitlines(keepends=True)
        assert json.loads(lines[-1])["op"] == "mq_violation"
        # the refused query's resp is JSON null, which the fast path reads
        assert '"resp": null' in lines[-1]
        assert audit._canonical_columns([line.encode() for line in lines], None) is not None
        code, out = run_cli(capsys, ["audit", "--infile", str(log)])
        summary = json.loads(out)
        assert code == 0
        assert summary["violations"] == 1 and summary["distance_mismatches"] == 0
        # the refused query's distance is checked like an answered one's
        lines[-1] = _edit_record(lines[-1], dist=json.loads(lines[-1])["dist"] + 1)
        log.write_text("".join(lines))
        code, out = run_cli(capsys, ["audit", "--infile", str(log)])
        assert code == 1 and json.loads(out)["distance_mismatches"] == 1

    def test_failing_suite_is_1(self, capsys, monkeypatch):
        import localmq.verify as verify_mod

        monkeypatch.setitem(
            verify_mod.SUITES,
            "parseval",
            lambda **kw: {"suite": "parseval", "trials": 0, "violations": 1,
                          "worst_margin": -1.0, "passed": False},
        )
        code, _ = run_cli(capsys, ["verify", "--suite", "parseval"])
        assert code == 1


@pytest.fixture(scope="module")
def long_audit_log(tmp_path_factory):
    """The round-trip log (70,030 records), longer than one reader chunk."""
    path = tmp_path_factory.mktemp("audit") / "audit.jsonl"
    code = main(
        ["learn", "--algo", "tree-uniform", "--t", "4", "--eps", "0.2",
         "--n", "8", "--test-samples", "200", "--est-samples", "500",
         "--seed", "6", "--audit-out", str(path), "--out", str(path.with_suffix(".json"))]
    )
    assert code == 0
    return path.read_text().splitlines(keepends=True)


def _edit_record(line, **changes):
    """The line's record with `changes` applied; a value of ... drops the key."""
    rec = json.loads(line)
    rec.update(changes)
    return json.dumps({k: v for k, v in rec.items() if v is not ...}, sort_keys=True) + "\n"


class TestAuditCommand:
    CORRUPTIONS = {
        "bad-json": (lambda line: line[:30] + "\n", "bad JSON"),
        "blank-line": (lambda line: "\n", "bad JSON"),
        "two-records": (lambda line: line.rstrip("\n") + " " + line, "bad JSON"),
        "not-an-object": (lambda line: "[1, 2]\n", "record is not a JSON object"),
        "missing-key": (lambda line: _edit_record(line, dist=...), "missing key 'dist'"),
        "unknown-op": (lambda line: _edit_record(line, op="mx"), "unknown op 'mx'"),
        "point-digit": (
            lambda line: _edit_record(line, point="0120" + json.loads(line)["point"][4:]),
            "is not a 0/1 string",
        ),
        "point-width": (
            lambda line: _edit_record(line, point=json.loads(line)["point"][1:]),
            "does not have the log's width 8",
        ),
        "point-too-long": (
            lambda line: _edit_record(line, point=json.loads(line)["point"] + "0"),
            "does not have the log's width 8",
        ),
        "anchor-type": (lambda line: _edit_record(line, anchor="3"), "anchor '3'"),
        "dist-type": (lambda line: _edit_record(line, dist=1.0), "dist 1.0"),
        "resp-type": (lambda line: _edit_record(line, resp="yes"), "resp 'yes' is not a number"),
        "resp-null": (lambda line: _edit_record(line, resp=None), "resp None is not a number"),
        "seq-type": (lambda line: _edit_record(line, seq="?"), "seq '?' is not an integer"),
    }

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("lineno", [3, 70_000])
    def test_corrupt_line_is_named_and_exits_1(
        self, tmp_path, capsys, long_audit_log, kind, lineno
    ):
        corrupt, problem = self.CORRUPTIONS[kind]
        lines = list(long_audit_log)
        lines[lineno - 1] = corrupt(lines[lineno - 1])
        log = tmp_path / "corrupt.jsonl"
        log.write_text("".join(lines))
        code = main(["audit", "--infile", str(log)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"corrupt audit log: line {lineno}: ")
        assert problem in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit, lineno, problem",
        [
            pytest.param("delete", 35_001, "seq 35001 out of order, expected 35000", id="deleted"),
            # lines 65,536 and 65,537 lie on either side of a reader chunk
            pytest.param("swap", 65_536, "seq 65536 out of order, expected 65535", id="swapped"),
        ],
    )
    def test_records_out_of_order_exit_1(
        self, tmp_path, capsys, long_audit_log, edit, lineno, problem
    ):
        lines = list(long_audit_log)
        if edit == "delete":
            assert json.loads(lines[lineno - 1])["op"] == "mq"
            del lines[lineno - 1]
        else:
            lines[lineno - 1], lines[lineno] = lines[lineno], lines[lineno - 1]
        log = tmp_path / "reordered.jsonl"
        log.write_text("".join(lines))
        code = main(["audit", "--infile", str(log)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"corrupt audit log: line {lineno}: {problem}\n"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("chunk", [0, 1])
    def test_non_json_resp_exits_1(self, tmp_path, capsys, long_audit_log, token, chunk):
        # Python's json reads these tokens as floats, but they are not JSON
        lines = list(long_audit_log)
        lineno = 1 + next(
            i for i in range(chunk << 16, len(lines)) if json.loads(lines[i])["op"] == "mq"
        )
        edited = _edit_record(lines[lineno - 1], resp=0.0)
        lines[lineno - 1] = edited.replace('"resp": 0.0', f'"resp": {token}')
        assert token in lines[lineno - 1]
        log = tmp_path / "constant.jsonl"
        log.write_text("".join(lines))
        code = main(["audit", "--infile", str(log)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"corrupt audit log: line {lineno}: bad JSON: {token} is not a JSON number\n"
        )

    @staticmethod
    def small_log():
        """Three examples, one query anchored at example 0, then a fourth
        example drawn after the query."""
        tree = random_tree(6, 4, np.random.default_rng(3))
        s = OracleSession(tree, Distribution.uniform(6, PLUS_MINUS), r=2, seed=3)
        idx, masks, _ = s.draw_batch(3)
        s.local_query_matrix(masks[:1, None] ^ 0b11, idx[:1])
        s.draw_batch(1)
        return [json.dumps(rec, sort_keys=True) + "\n" for rec in s.records]

    @pytest.mark.parametrize(
        "anchor, dist",
        [
            pytest.param(0, 2, id="honest"),
            pytest.param(0, 1, id="wrong-dist"),
            pytest.param(-3, 2, id="negative-anchor"),  # -3 would index example 0
            pytest.param(3, 2, id="anchor-drawn-later"),
            pytest.param(None, 2, id="null-anchor"),
        ],
    )
    def test_query_anchor_and_distance_are_checked(self, tmp_path, capsys, anchor, dist):
        lines = self.small_log()
        assert json.loads(lines[3])["anchor"] == 0 and json.loads(lines[3])["dist"] == 2
        lines[3] = _edit_record(lines[3], anchor=anchor, dist=dist)
        log = tmp_path / "audit.jsonl"
        log.write_text("".join(lines))
        code, out = run_cli(capsys, ["audit", "--infile", str(log)])
        summary = json.loads(out)
        honest = anchor == 0 and dist == 2
        assert code == (0 if honest else 1)
        assert summary["distance_mismatches"] == (0 if honest else 1)
        assert (summary["ex_count"], summary["mq_count"]) == (4, 1)


def _written_log(data) -> bytes:
    """The log of a drawn session: n from 1 to 20, either domain, noise
    on or off, batched queries within and beyond r, and examples drawn
    between them."""
    n = data.draw(st.integers(1, 20), label="n")
    domain = data.draw(st.sampled_from([PLUS_MINUS, ZERO_ONE]), label="domain")
    seed = data.draw(st.integers(0, 1 << 16), label="seed")
    rng = np.random.default_rng(seed)
    if domain == ZERO_ONE:  # real-valued labels, zeros included
        target = random_sparse_poly(
            n, min(3, (1 << n) - 1), rng, coeff_choices=(-0.3, 0.1, 0.7, 1.9), min_degree=1
        )
    else:
        target = random_tree(n, min(4, 1 << n), rng)
    noise = NoiseWrapper(0.3, seed=seed) if data.draw(st.booleans(), label="noisy") else None
    r = data.draw(st.integers(0, n), label="r")
    s = OracleSession(target, Distribution.uniform(n, domain), r=r, seed=seed, noise=noise)
    s.draw_batch(data.draw(st.integers(1, 30), label="examples"))
    for _ in range(data.draw(st.integers(0, 4), label="calls")):
        anchors = np.asarray(data.draw(st.lists(st.integers(0, s.ex_count - 1), min_size=1, max_size=6)))
        flips = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
        try:
            s.local_query_matrix(s.anchor_masks(anchors)[:, None] ^ np.asarray(flips), anchors)
        except LocalityError:
            pass
        s.draw_batch(data.draw(st.integers(1, 20), label="more"))
    buf = io.StringIO()
    s.write_audit_jsonl(buf)
    return buf.getvalue().encode()


def _read_log(log: bytes, json_only: bool = False):
    """`localmq audit`'s summary of a log, or the AuditLogError text;
    `json_only` turns the canonical-line fast path off."""
    with ExitStack() as stack:
        if json_only:
            stack.enter_context(mock.patch.object(audit, "_canonical_columns", lambda *a: None))
        try:
            return audit.check_log(io.BytesIO(log))
        except AuditLogError as exc:
            return f"AuditLogError: {exc}"


class TestCanonicalReader:
    """`localmq audit` reads chunks of writer output through a fast path
    that must agree with the JSON path on every chunk it accepts, and must
    hand everything else to the JSON path."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fast_path_returns_the_json_columns(self, data):
        lines = _written_log(data).splitlines(keepends=True)
        size = data.draw(st.sampled_from([1, 2, 3, 7, 64, 1 << 16]), label="chunk")
        width = None
        for start in range(0, len(lines), size):
            chunk = lines[start : start + size]
            fast = audit._canonical_columns(chunk, width)
            assert fast is not None
            want = audit._json_columns(chunk, width, start + 1)
            for got, ref in zip(fast[:4], want[:4]):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert fast[4] == want[4]
            width = want[4]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_byte_edit_reads_alike_on_both_paths(self, data):
        log = _written_log(data)
        pos = data.draw(st.integers(0, len(log) - 1), label="pos")
        byte = data.draw(
            st.sampled_from(b'0123456789-+.eE ,:"{}[]\nnulltrx\t\x00') | st.integers(0, 255),
            label="byte",
        )
        edit = data.draw(st.sampled_from(["replace", "insert", "delete"]), label="edit")
        keep = pos + (edit != "insert")
        log = log[:pos] + (bytes([byte]) if edit != "delete" else b"") + log[keep:]
        chunk = data.draw(st.sampled_from([1, 5, 1 << 16]), label="chunk")
        with mock.patch.object(audit, "_CHUNK", chunk):
            assert _read_log(log) == _read_log(log, json_only=True)

    # line 0 is an example (anchor null), line 3 a query with anchor 0 and
    # dist 2; each edit leaves a line the writer never writes
    EDITS = {
        "leading-zero": (3, lambda line: line.replace('"seq": ', '"seq": 0')),
        "signed-zero-anchor": (3, lambda line: line.replace('"anchor": 0', '"anchor": -0')),
        "negative-dist": (3, lambda line: line.replace('"dist": 2', '"dist": -2')),
        "19-digit-anchor": (3, lambda line: line.replace('"anchor": 0', '"anchor": 1' + "0" * 18)),
        "int64-overflow": (3, lambda line: line.replace('"anchor": 0', '"anchor": ' + "9" * 19)),
        "float-anchor": (3, lambda line: line.replace('"anchor": 0', '"anchor": 0.0')),
        "bool-resp": (3, lambda line: _edit_record(line, resp=True)),
        "string-resp": (3, lambda line: _edit_record(line, resp="1.0")),
        "null-resp-in-query": (3, lambda line: _edit_record(line, resp=None)),
        "spaced-null": (0, lambda line: line.replace('"anchor": null', '"anchor":  null')),
        "null-and-more": (0, lambda line: line.replace('"anchor": null', '"anchor": nullx')),
        "nul-after-resp": (3, lambda line: line.replace(', "seq"', '\x00, "seq"')),
        "noisy-in-one-line": (0, lambda line: _edit_record(line, noisy=True)),
        "digit-for-brace": (3, lambda line: line.replace("}", "7")),
        "crlf": (3, lambda line: line.replace("\n", "\r\n")),
        "no-final-newline": (4, lambda line: line.rstrip("\n")),
    }

    @pytest.mark.parametrize("kind", sorted(EDITS))
    def test_non_canonical_lines_take_the_json_path(self, kind):
        lineno, edit = self.EDITS[kind]
        lines = TestAuditCommand.small_log()
        lines[lineno] = edit(lines[lineno])
        assert audit._canonical_columns([line.encode() for line in lines], None) is None
        log = "".join(lines).encode()
        assert _read_log(log) == _read_log(log, json_only=True)

    @pytest.mark.parametrize("rewrite", ["insertion-order-keys", "integer-resp"])
    def test_valid_non_canonical_log_is_accepted(self, rewrite):
        lines = TestAuditCommand.small_log()
        edited = []
        for line in lines:
            rec = json.loads(line)
            if rewrite == "insertion-order-keys":
                keys = ("op", "point", "anchor", "dist", "resp", "seq")
                edited.append(json.dumps({k: rec[k] for k in keys}) + "\n")
            else:
                assert rec["resp"] in (1.0, -1.0)
                edited.append(json.dumps({**rec, "resp": int(rec["resp"])}, sort_keys=True) + "\n")
        edited = [line.encode() for line in edited]
        assert edited != [line.encode() for line in lines]
        if rewrite == "insertion-order-keys":
            assert audit._canonical_columns(edited, None) is None
        summary = _read_log("".join(lines).encode())
        assert summary["distance_mismatches"] == 0
        assert _read_log(b"".join(edited)) == _read_log(b"".join(edited), json_only=True) == summary


class TestSuiteRunner:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ContractViolation):
            run_lemma_suite("nonsense")

    def test_all_runs_everything(self):
        report = run_lemma_suite("all", trials=5, n=8)
        names = {r["suite"] for r in report["suites"]}
        assert "parseval" in names and "nonzero-lower-bound" in names
        assert all(r["passed"] for r in report["suites"])

    def test_driver_reports_the_first_five_violations(self, monkeypatch):
        # trial t draws from default_rng([seed, t]); trials 4..10 fail
        def checks(rng, n):
            draw = int(rng.integers(1 << 30))
            trial = next(order)
            yield 1.0, {"draw": draw}
            if trial >= 4:
                yield -float(trial), {"draw": draw, "n": n}

        order = iter(range(1, 11))
        stub = verify._Suite("stub", checks, {"n": 4}, 10, "none")
        monkeypatch.setitem(verify.SUITES, "stub", stub)
        report = run_lemma_suite("stub", n=None, alpha=2.0, trials=None, seed=9)
        assert report["suite"] == "stub" and report["trials"] == 10
        assert report["violations"] == 7 and report["passed"] is False
        assert report["worst_margin"] == -10.0 and report["tolerance"] == "none"
        assert report["counterexamples"] == [
            {"trial": t, "draw": int(np.random.default_rng([9, t]).integers(1 << 30)), "n": 4}
            for t in range(4, 9)
        ]

    @pytest.mark.parametrize("name", ["rcn-monotone", "rcn-gap"])
    def test_rcn_suites_run_their_grid_whatever_they_are_given(self, name):
        report = run_lemma_suite(name)
        assert report["trials"] == 40 and report["passed"]
        for params in ({"trials": 1}, {"trials": 200, "seed": 5}, {"n": 3, "seed": 11}):
            assert run_lemma_suite(name, **params) == report

    @pytest.mark.parametrize("name", ["parseval", "rcn-monotone"])
    def test_trial_count_below_one_is_refused(self, name):
        with pytest.raises(ContractViolation, match="at least one trial"):
            run_lemma_suite(name, trials=0)

    def test_package_imports_without_scipy(self):
        probe = (
            "import sys, localmq, localmq.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


class TestVerifierIndependence:
    def test_corrupted_estimator_is_caught(self, monkeypatch):
        # scale the sampled restriction path by 5 percent; the symbolic
        # oracle comparison must notice
        import localmq.fourier as fourier_mod

        rng = np.random.default_rng(0)
        f = random_sparse_poly(10, 5, rng, max_degree=4)
        dist = Distribution.uniform(10, ZERO_ONE)
        session = OracleSession(f, dist, r=4, seed=1, audit_mode=AUDIT_COUNTS)
        idx, masks, _ = session.draw_batch(1)
        subset = 0b101
        honest = fourier_mod.restriction_values_01(session, subset, idx)[0]
        symbolic = f.restrict(subset).value_at(int(masks[0]))
        assert honest == pytest.approx(symbolic, abs=1e-9)

        original = fourier_mod.restriction_values_01

        def corrupted(sess, sub, anchors):
            return 1.05 * original(sess, sub, anchors) + 0.01

        monkeypatch.setattr(fourier_mod, "restriction_values_01", corrupted)
        bad = fourier_mod.restriction_values_01(session, subset, np.asarray([int(idx[0])]))[0]
        assert abs(bad - symbolic) > 1e-3  # the oracle flags the mutation
