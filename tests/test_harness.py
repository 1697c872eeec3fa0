"""CLI surface, the audit reader's fast and JSON paths, suite runner, and
verifier independence (mutation check)."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import ExitStack
from types import SimpleNamespace
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
from localmq.verify import VerifierOracle, agnostic_excess, run_lemma_suite
from localmq.targets import ZERO_ONE, SparsePolynomial


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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--algo", "tree-uniform", "--t", "0"],
            ["--algo", "tree-product", "--t", "0"],
            ["--algo", "dnf", "--s", "0"],
            ["--algo", "logdepth-tree", "--depth", "2", "--alpha", "1.0", "--t", "0"],
            ["--algo", "logdepth-tree", "--depth", "0", "--alpha", "1.0"],
            ["--algo", "tree-uniform", "--t", "4", "--cap", "0"],
            ["--algo", "tree-uniform", "--t", "4", "--test-samples", "0"],
            ["--algo", "tree-uniform", "--t", "4", "--est-samples", "-5"],
            ["--algo", "tree-uniform", "--t", "4", "--holdout-samples", "0"],
            ["--algo", "tree-uniform", "--t", "4", "--theta", "0"],
            ["--algo", "tree-uniform", "--t", "4", "--d", "-1"],
            ["--algo", "sparse-poly", "--t", "4", "--B", "0", "--alpha", "1.5"],
            ["--algo", "sparse-poly", "--t", "4", "--B", "2", "--alpha", "1.5", "--d-prime", "-1"],
            ["--algo", "sparse-poly", "--t", "4", "--B", "2", "--alpha", "1.5", "--reg-samples", "0"],
            ["--algo", "sparse-poly", "--t", "4", "--B", "inf", "--alpha", "1.5"],
            ["--algo", "sparse-poly", "--t", "4", "--B", "2", "--alpha", "inf"],
            ["--algo", "sparse-poly", "--t", "4", "--B", "2", "--alpha", "1.5", "--theta", "inf"],
            ["--algo", "dnf", "--width", "-1"],
        ],
        ids=lambda flags: " ".join(flags[1:]),
    )
    def test_unusable_learner_parameter_is_3(self, flags, tmp_path, capsys):
        # refused when the instance or the config is built, before a session exists
        log = tmp_path / "run.jsonl"
        code = main(["learn", "--n", "8", "--eps", "0.2", *flags, "--audit-out", str(log)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("contract violation: ") and captured.err.count("\n") == 1
        assert not log.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "--infile", "{tmp}/missing.jsonl"],
            *[
                ["learn", "--algo", "tree-uniform", "--target", f"{{tmp}}/{name}", "--t", "4",
                 "--eps", "0.2"]
                for name in ("missing.json", "garbage.json", "kindless.json", "huge.json")
            ],
            ["gen-target", "--kind", "dnf", "--n", "8", "--out", "{tmp}/none/t.json"],
            ["learn", "--algo", "tree-uniform", "--n", "8", "--t", "4", "--eps", "0.2",
             "--out", "{tmp}/none/x.json"],
            ["learn", "--algo", "tree-uniform", "--n", "8", "--t", "4", "--eps", "0.2",
             "--out", "{tmp}"],
            ["learn", "--algo", "tree-uniform", "--n", "8", "--t", "4", "--eps", "0.2",
             "--audit-out", "{tmp}/none/a.jsonl"],
            ["verify", "--suite", "all", "--out", "{tmp}/none/v.json"],
        ],
        ids=["audit missing", "target missing", "target not JSON", "target without kind",
             "target n overflows", "gen-target out", "learn out", "learn out is a directory",
             "learn audit-out", "verify out"],
    )
    def test_file_and_input_errors_are_3(self, argv, tmp_path, capsys):
        # one stderr line, and no learner or suite runs when an output cannot be created
        (tmp_path / "garbage.json").write_text("garbage{")
        (tmp_path / "kindless.json").write_text('{"n": 4, "root": {"leaf": 1}}')
        (tmp_path / "huge.json").write_text('{"n": 1e400, "root": {"leaf": 1}}')
        ran = mock.Mock(side_effect=AssertionError("the work ran"))
        with mock.patch.dict(cli._ALGOS, {"tree-uniform": ran}), \
                mock.patch.object(cli, "run_lemma_suite", ran):
            code = main([arg.format(tmp=tmp_path) for arg in argv])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("contract violation: cannot ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("out", ["new", "kept", os.devnull])
    def test_out_probe_leaves_the_path_as_it_was(self, out, tmp_path, capsys):
        # the up-front check of --out neither creates, truncates nor removes anything;
        # a run that fails (budget, exit 4) writes no report, and one that succeeds does
        path = str(tmp_path / out)
        if out == "kept":
            (tmp_path / out).write_text("old")
        cap = ["--cap", "1", "--theta", "0.05"] if out != os.devnull else []
        code = main(["learn", "--algo", "tree-uniform", "--n", "8", "--t", "4", "--eps", "0.2",
                     "--test-samples", "200", "--est-samples", "500", *cap, "--out", path])
        capsys.readouterr()
        assert code == (0 if out == os.devnull else 4)
        assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
        assert not (tmp_path / "new").exists()
        if out == "kept":
            assert (tmp_path / out).read_text() == "old"

    @pytest.mark.parametrize("algo", ["dnf", "tree-product", "tree-uniform"])
    def test_noisy_l2_learner_is_3(self, algo, tmp_path, capsys):
        # refused before any draw: the audit log holds no record
        log = tmp_path / "run.jsonl"
        size = ["--s", "2"] if algo == "dnf" else ["--t", "4"]
        code = main(["learn", "--algo", algo, "--n", "8", *size, "--eps", "0.2", "--eta", "0.1",
                     "--test-samples", "100", "--est-samples", "500", "--audit-out", str(log)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        want = f"contract violation: noiseless labels needed, got eta=0.1: {algo} has no noise"
        assert captured.err.startswith(want)
        assert captured.err.count("\n") == 1
        assert log.read_bytes() == b""

    def test_noisy_sparse_poly_is_3(self, tmp_path, capsys):
        # the plain non-zero test admits every set under noise; refused before any draw
        log = tmp_path / "run.jsonl"
        code = main(["learn", "--algo", "sparse-poly", "--n", "10", "--t", "4", "--B", "2",
                     "--alpha", "1.5", "--eps", "0.2", "--seed", "3", "--test-samples", "300",
                     "--eta", "0.1", "--audit-out", str(log)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("contract violation: noiseless labels needed, got eta=0.1")
        assert log.read_bytes() == b""

    @pytest.mark.parametrize("algo", sorted(cli._ALGOS))
    def test_generated_instance_needs_no_class_flags(self, algo, capsys):
        # the learner is told the size, depth, B and alpha of the instance it learns
        code, out = run_cli(capsys, ["learn", "--algo", algo, "--n", "8", "--eps", "0.2",
                                     "--test-samples", "300", "--est-samples", "3000"])
        assert code == 0
        errors = json.loads(out)["outcome"]["error_estimates"]
        if algo == "sparse-poly":
            assert errors["squared_loss"] < 1e-6
        else:
            assert errors["zero_one"] == 0.0

    @pytest.mark.parametrize("kind", ["uniform", "product"])
    def test_distribution_wider_than_a_point_mask_is_3(self, kind, capsys):
        # 64 bits would overflow an int64 mask; the refusal comes before any draw
        code = main(["gen-dist", "--kind", kind, "--n", "64"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "contract violation: point mask needs n <= 48, got 64\n"

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
            (["gen-target", "--kind", "sparse-poly", "--n", "8", "--t", "0"], 3),
            (["gen-target", "--kind", "dnf", "--n", "8", "--width", "-1"], 3),
            (["gen-target", "--kind", "dnf", "--n", "8", "--s", "-1"], 3),
            (["gen-target", "--kind", "decision-tree", "--n", "8", "--depth", "-1"], 3),
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
        # a size above n is clamped to n, and what cannot be built (a size
        # above n, or below the least one) is a contract violation, never a
        # numpy error
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

    @pytest.mark.parametrize(
        "n, k, m, draws", [(12, 3, 27, 100), (6, 3, 21, 10_000), (16, 1, 22, 2_000_000)]
    )
    def test_reduce_past_the_correlation_check_limit_is_3(self, n, k, m, draws, capsys):
        # the exact correlation check enumerates all 2^m words of the code,
        # so it refuses m > 20, by m and before the simulator draws
        drawn = mock.Mock(side_effect=AssertionError("the simulator drew"))
        with mock.patch.object(cli.ReductionSimulator, "draw_batch", drawn):
            code = main(["reduce", "--n", str(n), "--k", str(k), "--draws", str(draws)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"contract violation: correlation check needs m <= 20, got {m}\n"

    @pytest.mark.parametrize("n, k", [(46, 3), (37, 2)])
    def test_reduce_without_a_code_in_a_point_mask_is_3(self, n, k, capsys):
        # no BCH generator of distance 7 covers n = 46; n = 37, k = 2 needs
        # m = 49 bits
        code = main(["reduce", "--n", str(n), "--k", str(k), "--draws", "100"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("contract violation: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "--draws", "0"],
            ["reduce", "--draws", "-3"],
            ["demo-separation", "--trials", "0"],
            ["demo-separation", "--variant", "gprime", "--trials", "0"],
            ["demo-separation", "--prf-samples", "0"],
            ["demo-separation", "--prf-samples", "-5"],
            ["gen-dist", "--kind", "table", "--n", "3", "--alpha", "nan"],
            ["gen-dist", "--kind", "product", "--n", "8", "--mu-lo", "inf"],
            ["gen-dist", "--kind", "product", "--n", "8", "--mu-lo", "nan"],
            ["verify", "--suite", "fact-smooth", "--alpha", "nan", "--trials", "3"],
        ],
        ids=" ".join,
    )
    def test_count_below_one_is_3(self, argv, tmp_path, capsys):
        # a count below 1 or a number that is not finite is refused with one
        # line, never a numpy or arithmetic error or a NaN report
        out = tmp_path / "out.json"
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and not out.exists()
        assert captured.err.startswith("contract violation: ") and captured.err.count("\n") == 1

    def test_seeds_2_to_the_31_apart_learn_apart(self, tmp_path, capsys):
        # same target, two seeds that agree in their low 31 bits
        target = tmp_path / "t8.json"
        main(["gen-target", "--kind", "decision-tree", "--n", "8", "--leaves", "4",
              "--seed", "1", "--out", str(target)])
        logs = []
        for seed in ("5", "2147483653"):
            log = tmp_path / f"{seed}.jsonl"
            code, _ = run_cli(capsys, ["learn", "--algo", "tree-uniform", "--target", str(target),
                                       "--t", "4", "--eps", "0.2", "--test-samples", "200",
                                       "--est-samples", "500", "--seed", seed,
                                       "--audit-out", str(log)])
            assert code == 0
            logs.append(log.read_bytes())
        assert logs[0] != logs[1]

    def test_tree_product_with_means_near_one(self, capsys):
        # d = 641: the default cap stays finite past the range of 2.0**d2
        argv = ["learn", "--algo", "tree-product", "--n", "8", "--eps", "0.2",
                "--test-samples", "300", "--est-samples", "3000"]
        code, out = run_cli(capsys, [*argv, "--mu-lo", "0.9", "--mu-hi", "0.99"])
        outcome = json.loads(out)["outcome"]
        assert code == 0 and outcome["params"]["d"] == 641
        assert outcome["error_estimates"]["zero_one"] < 0.05
        # d = 6430: the default theta is below the float range, so it must be given
        code = main([*argv, "--mu-lo", "0.99", "--mu-hi", "0.999"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("contract violation: ") and "--theta" in captured.err

    def test_failed_run_keeps_its_audit_log(self, tmp_path, capsys):
        # r = 0 makes the learner's first query a violation (exit 3)
        log, report = tmp_path / "v.jsonl", tmp_path / "v.json"
        code, _ = run_cli(
            capsys,
            ["learn", "--algo", "tree-uniform", "--n", "8", "--t", "4", "--eps", "0.2",
             "--test-samples", "200", "--est-samples", "500", "--r", "0",
             "--audit-out", str(log), "--out", str(report)],
        )
        assert code == 3
        assert not report.exists()  # checked before the run, written only after it
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn", "--algo", "tree-uniform", "--n", "8", "--t", "4", "--eps", "0.2"],
            ["gen-target", "--kind", "dnf", "--n", "8"],
            ["gen-dist", "--kind", "product", "--n", "8"],
            ["verify", "--suite", "parseval", "--trials", "1"],
            ["reduce", "--draws", "100"],
            ["demo-separation", "--trials", "1"],
            ["audit", "--infile", "LOG"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_3(self, argv, tmp_path, capsys):
        log = tmp_path / "a.jsonl"
        log.write_text("")  # an empty log is valid, so only the seed is refused
        out = tmp_path / "out.json"
        argv = [str(log) if arg == "LOG" else arg for arg in argv]
        code = main([*argv, "--seed", "-1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and not out.exists()
        assert captured.err == "contract violation: --seed -1 must be >= 0\n"

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
            i for i in range(chunk * audit._CHUNK, len(lines)) if json.loads(lines[i])["op"] == "mq"
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


class TestGoldenDigests:
    """SHA-256 of audit logs, a report, and generated instances as the code
    wrote them when these digests were recorded: how blocks are cut, how
    anchors are stored and when they are released, and how each instance
    kind is built must not move a byte."""

    RUNS = {
        "tree-uniform-n8": (
            ["--algo", "tree-uniform", "--n", "8", "--t", "4", "--eps", "0.2",
             "--test-samples", "200", "--est-samples", "500"],
            "2f648ce41f1bf1bec38f103a205214230d6823fda11b1238be5b623c2571fb36",
            None,
        ),
        "noisy-logdepth-tree": (
            ["--algo", "logdepth-tree", "--n", "8", "--depth", "2", "--alpha", "1.0",
             "--eps", "0.2", "--test-samples", "300", "--reg-samples", "800", "--eta", "0.1"],
            "15a56130fbfd6749ca8bf52b50aa4af0480939f0d6c1350e5116ae5983bca45c",
            None,
        ),
        # 149,790 records: ten writer blocks and reader chunks of 16 Ki
        "multi-block": (
            ["--algo", "tree-uniform", "--n", "12", "--t", "8", "--depth", "3",
             "--eps", "0.1", "--test-samples", "100", "--est-samples", "3000", "--seed", "3"],
            "a0d7518ce2e277baa74044321e811a02292d8bf9063dd8a39e8daa5b7d347bca",
            "f9aa01754469fb81634d0337a87a796c8d4ffa134cb6f084d635f06a7f38fa71",
        ),
        # sparse polynomials in the monomial basis, labelled and regressed
        "sparse-poly-n10": (
            ["--algo", "sparse-poly", "--n", "10", "--t", "4", "--B", "2", "--alpha", "1.5",
             "--eps", "0.2", "--seed", "3", "--test-samples", "300"],
            "a614cd5a88682d1a60953b6e0b5e4593f939771faadcdbd7b5a02339498a5e95",
            "1e4776fdfaf397f475f5366155398f1ba7dedae851f7e3811897d90c793d3b76",
        ),
        "sparse-poly-n8": (
            ["--algo", "sparse-poly", "--n", "8", "--t", "3", "--B", "2", "--alpha", "1.5",
             "--eps", "0.2", "--seed", "5", "--test-samples", "200"],
            "7d7761d39bf349a8f54f4406b15235fdaa9b9321321b3d30dc3b4a90c5b561e6",
            "303dfe3438e2279061574654d16aaea1c32346f1344fd93a4984769f01bc440e",
        ),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_log_and_report_digests(self, run, tmp_path, capsys):
        flags, log_digest, report_digest = self.RUNS[run]
        log, report = tmp_path / "run.jsonl", tmp_path / "run.json"
        code = main(["learn", *flags, "--audit-out", str(log), "--out", str(report)])
        capsys.readouterr()
        assert code == 0
        assert hashlib.sha256(log.read_bytes()).hexdigest() == log_digest
        if report_digest is not None:
            assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest

    GENERATED = {
        "target-sparse-poly": (
            ["gen-target", "--kind", "sparse-poly", "--n", "10", "--seed", "4"],
            "22cef184415502434113325742029e34717227811032f23560f4189dd31d140f",
        ),
        "target-decision-tree": (
            ["gen-target", "--kind", "decision-tree", "--n", "10", "--seed", "4"],
            "9b497197e1463eb850b2f335234a75d8390ae159e03c348ac019bbc51c826fcc",
        ),
        "target-dnf": (
            ["gen-target", "--kind", "dnf", "--n", "10", "--seed", "4"],
            "e7fe96b874402830d2bf19cb9d6fbf662599c45323bd902d1d8bca782b71c7ae",
        ),
        "dist-uniform-pm": (
            ["gen-dist", "--kind", "uniform", "--n", "6"],
            "d7855b79d26587665a57eb73ee07feddca1ab692671a176b5c66790221735961",
        ),
        "dist-uniform-01": (
            ["gen-dist", "--kind", "uniform", "--n", "6", "--domain", "zero_one"],
            "9ebc5e6649ac5a0bb891220b40aa835294cc57b0a33a8c7a3ea198e0833fcd34",
        ),
        "dist-product": (
            ["gen-dist", "--kind", "product", "--n", "6", "--seed", "5"],
            "fd05f4daf8a40a0c76f0cddd9b0056161eb339c8049cd87132a50684c4efc22e",
        ),
        "dist-table": (
            ["gen-dist", "--kind", "table", "--n", "6", "--seed", "5"],
            "bcde95546505485f5bb54878c53113a176974b726dae7e2f672c75353d280d1f",
        ),
        # not an instance: the lemma suites' report, which restricts spectra
        "verify-all": (
            ["verify", "--suite", "all", "--trials", "5", "--seed", "1"],
            "3e688f3078cd709e15f82a0e998d81b9687dc701b0f58fc4517d82b5f293b477",
        ),
    }

    @pytest.mark.parametrize("run", sorted(GENERATED))
    def test_generated_instance_digests(self, run, capsys):
        argv, digest = self.GENERATED[run]
        code, out = run_cli(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the target and distribution `learn` generates when no --target is given
    LEARN_INSTANCES = {
        "sparse-poly": (
            ["--t", "3", "--B", "2", "--alpha", "1.5", "--test-samples", "200"],
            "ab8f493fa1b4be299278bf539ebd12ea96190f0b5b7a7ec3551df0e6475ac85b",
        ),
        "logdepth-tree": (
            ["--depth", "2", "--alpha", "1.0", "--test-samples", "200", "--reg-samples", "500"],
            "d20f8b22adf3d5d2687e3c98d5aaea8108d350322e89914db7c1b0baf5dc500f",
        ),
        "tree-uniform": (
            ["--t", "4", "--test-samples", "200", "--est-samples", "500"],
            "d5e531bbe0081d9e86a116c46a027503bd1364c9839a0c5d86d1e7dd49628943",
        ),
        "tree-product": (
            ["--t", "4", "--test-samples", "200", "--est-samples", "500"],
            "cf30c162e5d723ca5ec136efe13964d0cc3f45c0d833bc3f984cd20731c388d4",
        ),
        "dnf": (
            ["--s", "2", "--test-samples", "200", "--est-samples", "500"],
            "69f576e833ee8dee558dbead54204300b9d3b095140d0e40281046e94f3fd3f2",
        ),
    }

    @pytest.mark.parametrize("algo", sorted(LEARN_INSTANCES))
    def test_learn_instance_digests(self, algo, capsys):
        flags, digest = self.LEARN_INSTANCES[algo]
        code, out = run_cli(
            capsys, ["learn", "--algo", algo, "--n", "8", "--eps", "0.2", "--seed", "2", *flags]
        )
        assert code == 0
        report = json.loads(out)
        text = json.dumps([report["target"], report["distribution"]], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestAuditMemory:
    """Writing and checking a log costs a few blocks of working memory,
    however long the log is. A 180,000-record log on n = 12 peaks (by
    tracemalloc) at 5.5 MB in the writer and 10.3 MB in the checker with
    16 Ki-record blocks; with 64 Ki blocks it was 22.0 MB and 36.8 MB."""

    WRITER_BOUND = 11 << 20
    CHECKER_BOUND = 18 << 20

    def test_writer_and_checker_peaks_stay_bounded(self, tmp_path):
        tree = random_tree(12, 8, np.random.default_rng([3, 0x1EA2]), max_depth=3)
        s = OracleSession(tree, Distribution.uniform(12, PLUS_MINUS), r=12, seed=3)
        for _ in range(10):
            anchors, _, _ = s.draw_batch(2000)
            s.restriction_query(anchors, 0b111)
        path = tmp_path / "audit.jsonl"
        tracemalloc.start()
        try:
            with open(path, "w") as fh:
                assert s.write_audit_jsonl(fh) == 180_000
            writer = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with open(path, "rb") as fh:
                summary = audit.check_log(fh)
            checker = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (summary["ex_count"], summary["mq_count"]) == (20_000, 160_000)
        assert summary["distance_mismatches"] == 0
        assert writer < self.WRITER_BOUND, writer
        assert checker < self.CHECKER_BOUND, checker


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
        honest = fourier_mod.restriction_values(session, subset, idx)[0]
        symbolic = f.restrict(subset).value_at(int(masks[0]))
        assert honest == pytest.approx(symbolic, abs=1e-9)

        original = fourier_mod.restriction_values

        def corrupted(sess, sub, anchors, basis=None):
            return 1.05 * original(sess, sub, anchors, basis) + 0.01

        monkeypatch.setattr(fourier_mod, "restriction_values", corrupted)
        bad = fourier_mod.restriction_values(session, subset, np.asarray([int(idx[0])]))[0]
        assert abs(bad - symbolic) > 1e-3  # the oracle flags the mutation

    @pytest.mark.parametrize("check", ["sq_loss", "01_error", "nonzero_prob", "agnostic_excess"])
    @pytest.mark.parametrize("cube_n", [10, 13])
    def test_exact_verifiers_refuse_another_width(self, check, cube_n):
        # f = x_11 and h = +1 over 12 bits disagree on half the 12-bit
        # cube, but on every point of the 10-bit cube, where bit 11 is 0
        f = SparsePolynomial(12, {1 << 11: 1.0}, PLUS_MINUS)
        h = SparsePolynomial(12, {0: 1.0}, PLUS_MINUS)
        dist = Distribution.uniform(cube_n, PLUS_MINUS)
        ver = VerifierOracle()
        target = SparsePolynomial(cube_n, {1: 1.0}, PLUS_MINUS)
        outcome = SimpleNamespace(hypothesis=h, predict_batch=h.value_batch)
        calls = {
            "sq_loss": lambda: ver.exact_sq_loss(f, h, dist),
            "01_error": lambda: ver.exact_01_error(f, h, dist),
            "nonzero_prob": lambda: ver.exact_nonzero_prob(f, dist),
            "agnostic_excess": lambda: agnostic_excess(target, outcome, max_size=1),
        }
        with pytest.raises(ContractViolation, match=f"function widths .* differ from n={cube_n}"):
            calls[check]()
        assert ver.exact_01_error(f, h, Distribution.uniform(12, PLUS_MINUS)) == 0.5
