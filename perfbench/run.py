#!/usr/bin/env python3
"""zipstrata benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload hasse-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from ``src/``.
Each workload runs in a fresh interpreter (``worker.py``), single process, no
worker threads.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it runs the workload once untraced and once traced, each in its
own interpreter, and reports the per-layer metrics and the tracing overhead.
The seed only shuffles the order of the commands within each pass.

The host's speed drifts by a quarter or more over minutes, so every reported
time is at reference host speed: the wall time scaled by the host speed
sampled during and around it (see ``speed.py``).  The raw wall times are
printed beside them.

Every metric is printed with its unit and sample count, followed by the
output-check result.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# Extra interpreters that only set up, half before and half after the measured
# one, so that setup_s samples the machine at both ends of the run.
SETUP_PROBES = 8
RUN_LIMIT_S = 170           # one workload run, all its interpreters together
# The machine's speed drifts over seconds, so a run measures at least two
# passes, spread over time, even when one pass already fills --seconds
# (unless two passes would take more than twice --seconds).
MIN_PASSES = 2


class BenchError(RuntimeError):
    pass


def worker(workload, seed, budget, deadline, trace=None, setup_only=False, min_passes=1):
    """Run worker.py in a fresh interpreter and return its JSON report."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--budget", str(budget), "--min-passes", str(min_passes)]
    if trace:
        argv += ["--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:   # run() has killed and reaped the worker
        raise BenchError("%s: worker ran past the %d s run limit" % (workload, RUN_LIMIT_S))
    if proc.returncode != 0:
        raise BenchError("%s: worker exited with code %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """The highest percentile with at least ten samples beyond it (nearest
    rank), and the percentile used.  With ten samples or fewer no percentile
    qualifies, and the maximum is reported."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def outcomes(*reports):
    cmds = [c for r in reports for p in r["passes"] for c in p]
    failures = [c for c in cmds if c["failure"]]
    # a timeout is a missing answer; every other failure is a wrong one
    correct = all(c["failure"] == "timeout" for c in failures)
    return len(cmds), failures, correct


def reference_seconds(report):
    """Each command's time at reference host speed, grouped by pass: its wall
    time less the speed samples taken in it, scaled by the speed sampled in
    it and in the gaps before and after it."""
    cmds = [c for p in report["passes"] for c in p]
    gaps = [c["gap"] for c in cmds] + [report["gap_end"]]
    ref = [(c["seconds"] - sum(c["samples"]))
           * speed.factor(gaps[k] + c["samples"] + gaps[k + 1])
           for k, c in enumerate(cmds)]
    out, k = [], 0
    for p in report["passes"]:
        out.append(ref[k:k + len(p)])
        k += len(p)
    return out


def end_to_end(report, setups):
    """The end-to-end metrics, each as (value, sample note).  ``setups`` holds
    the reports of the set-up-only interpreters."""
    passes = reference_seconds(report)
    pass_times = [sum(p) for p in passes]
    # Each command's median over the passes, then the median over the
    # commands: pooling the samples would put the median between the slowest
    # sample of one command and the fastest of the next.
    by_command, raw_by_command = {}, {}
    for raw, ref in zip(report["passes"], passes):
        for c, t in zip(raw, ref):
            by_command.setdefault(c["id"], []).append(t)
            raw_by_command.setdefault(c["id"], []).append(c["seconds"])
    raw_pass = statistics.median(sum(c["seconds"] for c in p) for p in report["passes"])
    attempted, failures, _ = outcomes(report)
    # The commands of a workload differ by up to three orders of magnitude, so
    # pooling passes would move the tail from the slowest command to the
    # second fastest once a run holds 11 samples.  The tail is taken within
    # each pass and its median over the passes is reported.
    tails = [tail(p) for p in passes]
    pct = tails[0][1]
    setup_samples = [w["setup_s"] * speed.factor(w["gap"]) for w in setups]
    setup_samples.append(report["setup_s"] * speed.factor(report["passes"][0][0]["gap"]))
    return {
        "pass_s": (statistics.median(pass_times), "median of %d passes; raw wall %.4f s"
                   % (len(pass_times), raw_pass)),
        "cmd_p50_s": (statistics.median(map(statistics.median, by_command.values())),
                      "median over %d commands of each one's median of %d passes; "
                      "raw wall %.4f s" % (len(by_command), len(passes), statistics.median(
                          map(statistics.median, raw_by_command.values())))),
        "cmd_tail_s": (statistics.median(t for t, _p in tails),
                       "p%g of n=%d commands per pass, median of %d passes"
                       % (pct, len(passes[0]), len(tails))),
        "peak_rss_mb": (report["peak_rss_mb"], "n=1 process"),
        "ok_ratio": (1 - len(failures) / attempted,
                     "n=%d attempted, %d failed, failed_ratio=%g"
                     % (attempted, len(failures), len(failures) / attempted)),
        "setup_s": (statistics.median(setup_samples),
                    "median of n=%d interpreters; raw wall %.4f s" % (
                        len(setup_samples),
                        statistics.median([w["setup_s"] for w in setups] + [report["setup_s"]]))),
    }


def per_layer(base, traced):
    """Per-layer metrics from the traced passes, each as (value, note)."""
    passes = traced["per_layer"]
    note = "median of %d traced passes" % len(passes)
    out = {name: (statistics.median(p[name] for p in passes), note) for name in passes[0]}
    untraced = statistics.median(sum(p) for p in reference_seconds(base))
    traced_s = statistics.median(sum(p) for p in reference_seconds(traced))
    out["trace.overhead_s"] = (traced_s - untraced, "traced pass_s %.4f - untraced pass_s %.4f"
                               % (traced_s, untraced))
    return out


def provenance():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or commit
    return "python=%s nproc=%s commit=%s src_sha256=%s" % (
        platform.python_version(), os.cpu_count(), commit, digest.hexdigest()[:16])


def run_workload(name, seed, seconds, trace, units):
    """Measure one workload; print its report block; return (metrics, counts).
    ``units`` maps every metric this mode must report to its unit."""
    deadline = time.monotonic() + RUN_LIMIT_S
    print("== %s  seed=%d seconds=%d trace=%d  %s" % (name, seed, seconds, trace,
                                                       provenance()))
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / ("%s.spans.json" % name)
        base = worker(name, seed, seconds / 2, deadline)
        traced = worker(name, seed, seconds / 2, deadline, trace=spans)
        reports = (base, traced)
        metrics = per_layer(base, traced)
    else:
        def probes(k):
            return [worker(name, seed, 0, deadline, setup_only=True) for _ in range(k)]
        before = probes(SETUP_PROBES // 2)
        report = worker(name, seed, seconds, deadline, min_passes=MIN_PASSES)
        setup = before + probes(SETUP_PROBES - SETUP_PROBES // 2)
        reports = (report,)
        metrics = end_to_end(report, setup)
    if set(metrics) != set(units):
        raise BenchError("measured metrics differ from BENCHMARK.json: %s"
                         % sorted(set(metrics) ^ set(units)))
    for k, p in enumerate(reports[-1]["passes"]):
        print("pass %d order: %s" % (k + 1, " ".join(c["id"] for c in p)))
    width = max(len(m) for m in metrics)
    for metric, (value, note) in metrics.items():
        shown = "%14d" % value if isinstance(value, int) else "%14.6f" % value
        print("%-*s %s %-6s %s" % (width, metric, shown, units[metric], note))
    if trace:
        latencies = [c["seconds"] for p in traced["passes"] for c in p]
        print("traced commands: seconds, self time by layer, weyl.elements.s")
        for lat, cmd in zip(latencies, traced["per_command"]):
            layers = sorted(cmd["self_s"].items(), key=lambda kv: -kv[1])
            print("  %-22s %8.3f  %s  elements=%.3f" % (
                cmd["id"], lat, " ".join("%s=%.3f" % kv for kv in layers if kv[1] >= 0.0005),
                cmd["weyl.elements.s"]))
        print("spans written to %s" % spans.relative_to(ROOT))
    attempted, failures, correct = outcomes(*reports)
    tally = {k: sum(r["checks"][k] for r in reports) for k in reports[0]["checks"]}
    print("output checks: %d of %d commands passed; %d witnesses replayed, "
          "%d certificates verified; stdout identical to the recorded bytes: %d of %d"
          % (attempted - len(failures), attempted, tally["witnesses"],
             tally["certificates"], tally["stdout_identical"], attempted))
    for c in failures:
        print("  FAILED %s: %s" % (c["id"], c["failure"]))
    return metrics, (correct, attempted, len(failures))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "zipstrata" / "__init__.py").is_file():
        sys.stderr.write("error: no zipstrata sources under %s\n" % (ROOT / "src"))
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    metrics, correct, attempted, failed = {}, True, 0, 0
    try:
        for name in names:
            m, (ok, att, fail) = run_workload(name, args.seed, args.seconds, args.trace, units)
            prefix = "" if len(names) == 1 else name + "."
            metrics.update({prefix + k: {"value": v, "unit": units[k]}
                            for k, (v, _note) in m.items()})
            correct, attempted, failed = correct and ok, attempted + att, failed + fail
    except BenchError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
