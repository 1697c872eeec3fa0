"""Runs one workload in its own process and writes its figures as JSON.

Started by run.py, never by hand. The process sets up the workload, then
runs rounds as a closed loop (one caller; each trial starts after the
previous one returned) until the timed trial seconds reach --seconds.
run.py may start several workers at once, one per core, each a lane of
its own that runs every --lanes-th round.
With --trace 1 it then installs the tracer and replays the same rounds,
with the same seeds, to get the per-layer figures and to check that
every count repeats exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": f"{blas['name']} {blas['version']}", "blas_threads": threads}


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas_info(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(names, tracer, untraced, traced) -> dict:
    """Every per-layer metric named in BENCHMARK.json, from one traced pass."""
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    c = tracer.counts
    trials = [t for r in traced for t in r]
    tracked = [t for t in trials if t.distinct is not None]
    untraced_s = sum(t.seconds for r in untraced for t in r)
    values = {
        "oracles.local_query.calls": calls.get("oracles.OracleSession.local_query", 0),
        "reduction.local_query.calls": calls.get("reduction.ReductionSimulator.local_query", 0),
        "oracles.violations": c["errors.oracles.local_query_matrix.LocalityError"]
        + c["errors.oracles.local_query.LocalityError"],
        "oracles.distinct_frac": _ratio(sum(t.distinct for t in tracked), sum(t.mq for t in tracked)),
        "fourier.admit_frac": _ratio(c["fourier.admitted"], c["fourier.tests"]),
        "fourier.queries_per_test": _ratio(c["fourier.test_queries"], c["fourier.tests"]),
        "learners.budget_exceeded": c["errors.learners.learn.BudgetExceededError"],
        "reduction.accept_frac": _ratio(c["reduction.words_kept"], c["reduction.words_tested"]),
        "trace.overhead_frac": sum(t.seconds for t in trials) / untraced_s - 1.0,
    }
    out = {}
    for name in names:
        if name.endswith(".self_s"):
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name in values:
            out[name] = values[name]
        else:
            out[name] = c[name]
    return out


def count_mismatches(untraced, traced, tracer, every_session_reported: bool) -> list:
    """Counts that differ between the untraced and the traced pass."""
    bad = []
    pairs = zip((t for r in untraced for t in r), (t for r in traced for t in r))
    for plain, seen in pairs:
        if plain.counts != seen.counts:
            bad.append([plain.name, plain.counts, seen.counts])
    trials = [t for r in traced for t in r]
    c = tracer.counts
    if every_session_reported:
        for key, want in (("oracles.ex", sum(t.ex for t in trials)), ("oracles.mq", sum(t.mq for t in trials))):
            if c[key] != want:
                bad.append([key, want, c[key]])
    records = sum(t.counts.get("records", 0) for t in trials if t.name == "learn-audit-out")
    if c["oracles.audit_records"] != records:
        bad.append(["oracles.audit_records", records, c["oracles.audit_records"]])
    return bad


def measure(workload, args) -> dict:
    # A traced run replays its untraced rounds, so each pass gets about half
    # of --seconds and the run stays near the length of an untraced one.
    budget = args.seconds / 2 if args.trace else args.seconds
    # Lane k of n runs rounds k, k + n, k + 2n, ...: each round has seeds of
    # its own, whichever lane runs it.
    indices = []
    rounds = []
    timed = 0.0
    while not rounds or timed < budget:
        indices.append(args.lane + args.lanes * len(rounds))
        trials = workload.run_round(indices[-1])
        rounds.append(trials)
        timed += sum(t.seconds for t in trials)
    result = {
        "rounds": [
            {"seconds": sum(t.seconds for t in r), "mq": sum(t.mq for t in r), "ex": sum(t.ex for t in r)}
            for r in rounds
        ],
        "trials": [asdict(t) for r in rounds for t in r],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = [workload.run_round(i, tracer.span) for i in indices]
        finally:
            tracer.uninstall()
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = [m["name"] for m in bench["per_layer"]]
        result["per_layer"] = per_layer(names, tracer, rounds, traced)
        result["layer_self_s"] = dict(sorted(tracer.self_seconds().items()))
        result["traced_trials"] = [asdict(t) for r in traced for t in r]
        result["count_mismatches"] = count_mismatches(
            rounds, traced, tracer, workload.every_session_reported
        )
        result["spans"] = tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.tsv")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the caller just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--lane", type=int, default=0)
    parser.add_argument("--lanes", type=int, default=1)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        result.update(measure(workload, args))
        result["env"] = environment()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
