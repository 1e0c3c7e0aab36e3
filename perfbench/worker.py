"""Run one workload in a fresh interpreter and print its raw measurements.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``; prints one JSON object
as its last line of standard output.  Each command is a cold in-process
``zipstrata.cli.main([...])`` call with captured stdout, which is what a CLI
user pays: the package has no module-level cache, so every call rebuilds its
root datum and ``WeylGroup``.  One process, one thread.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import zipstrata
from zipstrata import cli

import checks
import speed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
CONFIGS = BENCH / "configs"

# A command running past this is recorded as a timeout and the pass goes on.
TIME_LIMIT_S = 60
# Host-speed samples (see speed.py) taken in a row before every command and
# after the last one, outside the timed regions; about 0.3 ms each.
GAP_SAMPLES = 10


class CommandTimeout(BaseException):
    """Raised by the alarm.  A BaseException, so that the library's
    ``except Exception`` handlers (scan cells, the golden replay) let it pass."""


def _on_alarm(signum, frame):
    raise CommandTimeout()


def load_workload(name):
    """The workload's commands, their configs loaded and checked, and the
    expected verdicts.  This is the benchmark's set-up."""
    commands = WORKLOADS[name]
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    for cmd in commands:
        if cmd.id not in expected:
            raise SystemExit("expected.json has no entry for %s" % cmd.id)
        if cmd.config() is not None:
            cfg = json.loads((CONFIGS / cmd.config()).read_text(encoding="utf-8"))
            if not isinstance(cfg, dict) or "group" not in cfg:
                raise SystemExit("config %s has no group" % cmd.config())
    return commands, expected


def run_command(cmd, sampler=None):
    """One cold CLI call; returns (exit code or None, stdout, seconds, failure).
    With a ``speed.Sampler`` the host speed is sampled while it runs."""
    out, err = io.StringIO(), io.StringIO()
    argv = cmd.resolved_argv(CONFIGS)
    failure = None
    code = None
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    if sampler:
        sampler.start()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except CommandTimeout:
        failure = "timeout"
    except Exception as e:  # a crash is a failed operation; the pass goes on
        traceback.print_exc(file=sys.stderr)
        failure = "exception %s: %s" % (type(e).__name__, e)
    finally:
        seconds = time.perf_counter() - t0
        if sampler:
            sampler.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), seconds, failure


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds to measure; a pass is started only if it fits")
    ap.add_argument("--min-passes", type=int, default=1,
                    help="passes to run even past the budget, within twice the budget")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started us")
    ap.add_argument("--trace", default=None, help="trace the layers, write spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    commands, expected = load_workload(args.workload)
    src = BENCH.parent / "src"
    if Path(zipstrata.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit("imported zipstrata from %s, not from %s" % (zipstrata.__file__, src))
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "gap": speed.probe(3 * GAP_SAMPLES)}))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer, pass_metrics
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    sampler = speed.Sampler()
    rng = random.Random(args.seed)
    tally = {"witnesses": 0, "certificates": 0, "stdout_identical": 0}
    passes = []
    started = time.perf_counter()
    while True:
        order = list(commands)
        rng.shuffle(order)
        results = []
        for cmd in order:
            # A CLI process starts with an empty heap.  Collect the previous
            # command's cyclic garbage (Weyl elements refer to their group)
            # so that it is not traversed during this command's collections.
            gc.collect()
            gap = speed.probe(GAP_SAMPLES)
            if tracer:
                tracer.begin_command(cmd.id)
            code, stdout, seconds, failure = run_command(cmd, sampler)
            if tracer:
                tracer.end_command()
            if failure is None:
                problems = checks.check(cmd, code, stdout, expected, tally)
                if problems:
                    failure = "check: " + "; ".join(problems)
            results.append({"id": cmd.id, "seconds": seconds, "failure": failure,
                            "gap": gap, "samples": sampler.samples})
        passes.append(results)
        elapsed = time.perf_counter() - started
        typical = statistics.median(sum(r["seconds"] for r in p) for p in passes)
        if elapsed + typical > args.budget and (
                len(passes) >= args.min_passes or elapsed + typical > 2 * args.budget):
            break

    gc.collect()
    report = {"setup_s": setup_s, "passes": passes, "checks": tally,
              "gap_end": speed.probe(GAP_SAMPLES),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        per_command = [tracer.command_metrics(k) for k in range(len(tracer.commands))]
        report["per_command"] = [
            {"id": cid, "self_s": m["self_s"], "weyl.elements.s": m["weyl.elements.s"]}
            for (cid, _lo, _hi), m in zip(tracer.commands, per_command)]
        per_pass, k = [], 0
        for p in passes:
            per_pass.append(pass_metrics(per_command[k:k + len(p)]))
            k += len(p)
        report["per_layer"] = per_pass
        tracer.write(args.trace)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
