"""Counts must repeat exactly for one seed.

Runs each workload twice with --trace 1 and the same seed, and asserts
that every trial's counts (examples, queries, distinct points, tests,
admitted sets, audit records, simulated draws) and every per-layer count
(regression iterations included) agree between the two runs. Each run
already checks that its untraced and traced passes agree; a mismatch
there makes the run report correct=false.

    python3 -m pytest -q perfbench/check_counts.py        # about 70 s

Not collected by the repository's own test run: the file name does not
match test_*.py.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
UNITS = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def run_once(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((HERE / "out" / f"result-{workload}-seed{SEED}-trace1.json").read_text())
    return {"summary": summary, "result": result}


def counts_of(run: dict) -> dict:
    result = run["result"]
    return {
        "trials": [(t["name"], t["counts"]) for t in result["trials"]],
        "traced": [(t["name"], t["counts"]) for t in result["traced_trials"]],
        "layers": {
            name: value for name, value in result["per_layer"].items()
            if UNITS[name] != "s" and name != "trace.overhead_frac"
        },
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat(workload):
    first, second = run_once(workload), run_once(workload)
    for run in (first, second):
        assert run["summary"]["correct"], run["result"].get("count_mismatches")
        assert run["result"]["count_mismatches"] == []
    a, b = counts_of(first), counts_of(second)
    assert a["trials"] == a["traced"]
    assert a == b
