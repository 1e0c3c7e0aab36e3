"""Record the expected verdicts into perfbench/expected.json.

    PYTHONPATH=src python3 perfbench/record.py

Run once per workload command at a commit whose verdicts are trusted.  For
each command it stores the exit code, the verdict fields (see checks.py) and
the SHA-256 of stdout (reported, never enforced, since witness bytes may
change).  For the scan it also stores, per cell, the strata rows from a
``purity`` run of the same datum, so that scan witnesses can be replayed.
"""
from __future__ import annotations

import hashlib
import json

import checks
from workloads import Command, WORKLOADS
from worker import BENCH, CONFIGS, run_command

SCRATCH = BENCH.parent / ".bench_out" / "record"


def record_command(cmd):
    code, stdout, _seconds, failure = run_command(cmd)
    if failure:
        raise SystemExit("%s: %s" % (cmd.id, failure))
    entry = {"exit": code, "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    if cmd.id != "golden":
        entry["verdicts"] = checks.verdicts(json.loads(stdout))
    return entry


def scan_rows(cmd):
    """Per scan cell: every ambient row of every stratum cone of that datum."""
    cfg = json.loads((CONFIGS / cmd.config()).read_text(encoding="utf-8"))
    SCRATCH.mkdir(parents=True, exist_ok=True)
    rows = {}
    for I in cfg["types"]:
        for p in cfg["primes"]:
            cell = dict(cfg, I=I, p=p)
            path = SCRATCH / "cell.json"
            path.write_text(json.dumps(cell), encoding="utf-8")
            code, stdout, _s, failure = run_command(
                Command("purity", ("purity", "--config", str(path))))
            if failure or code != 0:
                raise SystemExit("purity on scan cell I=%s p=%d failed" % (I, p))
            strata = json.loads(stdout)["payload"]["strata"]
            rows[checks.scan_cell_key(I, p)] = [r for c in strata
                                               for r in c["inequalities_ambient"]]
    return rows


def main():
    expected = {}
    for commands in WORKLOADS.values():
        for cmd in commands:
            expected[cmd.id] = record_command(cmd)
            if cmd.argv[0] == "scan":
                expected[cmd.id]["scan_rows"] = scan_rows(cmd)
    with open(BENCH / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
