"""The localmq benchmark.

    python3 perfbench/run.py                       # every workload, seed 0
    python3 perfbench/run.py --workload learners --seed 3 --seconds 10 --trace 0

Run from the root of a checkout that holds `src/localmq`. Each workload
runs in fresh worker processes, so that peak RSS is the workload's own:
two set-up-only processes one after the other, then one measuring worker
per core (at most two) side by side, each a single-caller closed loop
over rounds of its own; setup_s is the median set-up time of them all.
The command prints every metric by name with its unit, each trial's
correctness, and as its last line one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics
of BENCHMARK.json; --trace 1 runs one worker, which measures for half of
--seconds and then replays the same rounds traced, and reports the
per-layer metrics. perfbench/spec.json says what each metric is,
which metric each layer should move, and which failing checks are known
program defects. Full results and traced spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0
# Untraced runs measure one lane per core, at most two: on the 2-core virtual
# machine the benchmark was defined on, the two cores slow down independently
# of each other, so two lanes halve the variance a single lane sees.
LANES = min(2, len(os.sched_getaffinity(0)))


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workers(args, workdir: Path, deadline: float, lanes: int, setup_only: bool) -> list[dict]:
    """Run `lanes` workers side by side, each in a directory of its own, and
    return their results. Every worker has ended when this returns, on every
    path out of it."""
    if deadline - time.monotonic() <= 0:
        raise BenchError(f"{args.workload}: out of time before starting a worker")
    started = []
    try:
        for lane in range(lanes):
            lane_dir = workdir / f"lane{lane}"
            lane_dir.mkdir(exist_ok=True)
            result = lane_dir / "result.json"
            result.unlink(missing_ok=True)
            cmd = [
                sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--workdir", str(lane_dir), "--result", str(result),
                "--lane", str(lane), "--lanes", str(lanes),
            ]
            if setup_only:
                cmd.append("--setup-only")
            proc = subprocess.Popen(
                [*cmd, "--spawned-at", repr(time.monotonic())], env=child_env(), cwd=ROOT,
                stdout=sys.stderr,
            )
            started.append((proc, result))
        for proc, _ in started:
            try:
                proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{args.workload}: worker killed after {RUN_LIMIT_S:.0f} s") from exc
    finally:
        for proc, _ in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    results = []
    for proc, result in started:
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"{args.workload}: worker exited {proc.returncode}")
        results.append(json.loads(result.read_text()))
    return results


def end_to_end(lanes: list[dict]) -> dict:
    """Figures over the rounds of every lane. Times and rates are means over
    rounds (total seconds / rounds, total work / total seconds)."""
    rounds = [r for lane in lanes for r in lane["rounds"]]
    seconds = sum(r["seconds"] for r in rounds)
    return {
        "wall_s": seconds / len(rounds),
        "trial_s.p50": statistics.median(t["seconds"] for lane in lanes for t in lane["trials"]),
        "mq_per_s": sum(r["mq"] for r in rounds) / seconds,
        "ex_per_s": sum(r["ex"] for r in rounds) / seconds,
        "peak_rss_mb": max(lane["peak_rss_mb"] for lane in lanes),
    }


def run_workload(args, bench: dict, spec: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    deadline = time.monotonic() + RUN_LIMIT_S
    # A traced run needs one pass only; an untraced run measures one lane per core.
    lanes = 1 if args.trace else LANES
    try:
        setups = [
            run_workers(args, workdir, deadline, 1, True)[0]["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        lane_results = run_workers(args, workdir, deadline, lanes, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups += [lane["setup_s"] for lane in lane_results]
    result = {
        "lanes": lanes,
        "setup_samples": setups,
        "round_s": [[r["seconds"] for r in lane["rounds"]] for lane in lane_results],
        "end_to_end": end_to_end(lane_results),
        "env": lane_results[0]["env"],
        "trials": [t for lane in lane_results for t in lane["trials"]],
    }
    for key in ("per_layer", "layer_self_s", "traced_trials", "count_mismatches", "spans"):
        if key in lane_results[0]:
            result[key] = lane_results[0][key]

    trials = result["trials"] + result.get("traced_trials", [])
    known = {d["check"] for d in spec["known_defects"]}
    failures = [f for t in trials for f in t["failures"]]
    unexpected = [f for f in failures if f[0] not in known]
    mismatches = result.get("count_mismatches", [])
    if args.trace:
        values = result["per_layer"]
        wanted = bench["per_layer"]
    else:
        values = {**result["end_to_end"], "setup_s": statistics.median(setups)}
        wanted = bench["end_to_end"]
    summary = {
        "correct": not unexpected and not mismatches,
        "attempted": len(trials),
        "failed": sum(1 for t in trials if t["failures"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    result["summary"] = summary
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1)
    )
    report(args, result, summary, unexpected, known)
    return summary


def report(args, result: dict, summary: dict, unexpected: list, known: set) -> None:
    env = result["env"]
    trials = result["trials"]
    print(f"== {args.workload}  seed {args.seed}  trace {args.trace} ==")
    print(
        f"{result['lanes']} closed loop(s), 1 caller each: "
        f"{sum(len(r) for r in result['round_s'])} round(s), {len(trials)} trials, "
        f"run_seconds {args.seconds:g}"
    )
    print(
        f"environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
        f"{env['blas']}, BLAS threads {env['blas_threads']}"
    )
    def line(name, value, unit, note=""):
        print(f"  {name:40s} {value:>16.6g} {unit:6s} {note}")

    for name, metric in summary["metrics"].items():
        note = f"median of {len(result['setup_samples'])} set-ups" if name == "setup_s" else ""
        line(name, metric["value"], metric["unit"], note)
    print("  reported, not gated (see perfbench/spec.json):")
    line("trial_s.p50", result["end_to_end"]["trial_s.p50"], "s", f"n={len(trials)}")
    failed = summary["failed"]
    line("fail_frac", failed / summary["attempted"], "ratio", f"{failed}/{summary['attempted']} trials failed")
    errors = [t["error"] for t in trials if t["error"] is not None]
    if errors:
        line("exact_err.mean", statistics.fmean(errors), "error", f"n={len(errors)} learned hypotheses")
    for t in trials:
        checks = ", ".join(f[0] for f in t["failures"]) or "ok"
        err = f"  err {t['error']:.4f}" if t["error"] is not None else ""
        print(f"  trial {t['name']:24s} {t['seconds']:8.3f} s  ex {t['ex']:>10d}  mq {t['mq']:>10d}{err}  {checks}")
    for check, detail in {f[0]: f[1] for t in trials for f in t["failures"]}.items():
        tag = "known defect" if check in known else "FAILED"
        print(f"  {tag}: {check}: {detail}")
    for mismatch in result.get("count_mismatches", []):
        print(f"  FAILED: counts differ between untraced and traced pass: {mismatch}")
    print(f"verdict: {'correct' if summary['correct'] else 'INCORRECT'}"
          f" ({len(unexpected)} unexpected failed checks)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=None, help="one workload; default all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that run_workers ends its workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "localmq" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no localmq sources under {ROOT / 'src'}\n")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; have {names}")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    chosen = [args.workload] if args.workload else names
    summaries = {}
    try:
        for name in chosen:
            args.workload = name
            summaries[name] = run_workload(args, bench, spec)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    if len(chosen) == 1:
        print(json.dumps(summaries[chosen[0]]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {name: s["metrics"] for name, s in summaries.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
