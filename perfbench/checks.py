"""Output checks for one CLI command.

Only fields that carry verdicts are compared with the values recorded in
``expected.json``: Hasse node labels and cover edges, cone feasibility, purity
verdicts and failing strata, ``n-alpha`` multiplicities, ``describe`` dims,
``char-test`` verdicts, scan cell verdicts and the ``golden`` exit code.
Witness values are not pinned, because a different exact solver may return a
different witness.  Instead every witness is replayed here, independently of
the library: it must be strictly positive on every row it claims to satisfy.
Every infeasibility certificate is passed through ``cones.verify_certificate``.
"""
from __future__ import annotations

import hashlib
import json

from zipstrata.cones import verify_certificate


def scan_cell_key(I, p):
    return "%s|%d" % (json.dumps(list(I)), p)


def verdicts(bundle):
    """The verdict-carrying fields of a parsed JSON bundle, in a form that
    compares equal when the verdicts agree."""
    kind, pl = bundle["kind"], bundle["payload"]
    if kind == "hasse":
        return {"nodes": sorted(n["label"] for n in pl["nodes"]),
                "edges": sorted(pl["edges"])}
    if kind == "purity":
        return {"principally_pure": pl["principally_pure"],
                "uniformly_pure": pl["uniformly_pure"],
                "failing_strata": pl["failing_strata"],
                "feasible": [[c["stratum"], c["feasible"]] for c in pl["strata"]]}
    if kind == "cone":
        return {"stratum": pl["stratum"], "feasible": pl["feasible"]}
    if kind == "describe":
        return {"dims": pl["dims"]}
    if kind == "n-alpha":
        return {"stratum": pl["stratum"],
                "rows": [{"chi": r["chi"], "multiplicities": r["multiplicities"],
                          "verdict": r["verdict"]} for r in pl["rows"]]}
    if kind == "char-test":
        keys = ("chi", "q_small", "orbitally_q_close", "zip_ample", "flag_ample")
        return {"characters": [{k: c[k] for k in keys if k in c}
                               for c in pl["characters"]]}
    if kind == "scan":
        keys = ("I", "p", "ok", "principally_pure", "uniformly_pure", "failing_strata")
        return {"cells": [{k: c.get(k) for k in keys} for c in pl["cells"]],
                "summary": pl["summary"]}
    raise ValueError("no verdict fields known for output kind %r" % kind)


def _positive_on(witness, rows):
    return all(sum(a * b for a, b in zip(row, witness)) > 0 for row in rows)


def _replay_cone(cone, tally, problems):
    name = "cone %s" % cone["stratum"]
    if cone["feasible"]:
        tally["witnesses"] += 1
        if cone["witness"] is None or not _positive_on(cone["witness"],
                                                       cone["inequalities_ambient"]):
            problems.append("%s: witness not strictly positive on its rows" % name)
    else:
        tally["certificates"] += 1
        if cone["certificate"] is None or not verify_certificate(
                cone["inequalities_reduced"], cone["certificate"]):
            problems.append("%s: certificate does not verify" % name)


def replay(bundle, scan_rows, tally):
    """Replay every witness and certificate in the output; returns problems."""
    problems = []
    kind, pl = bundle["kind"], bundle["payload"]
    if kind == "cone":
        _replay_cone(pl, tally, problems)
    elif kind == "purity":
        rows = []
        for cone in pl["strata"]:
            _replay_cone(cone, tally, problems)
            rows += cone["inequalities_ambient"]
        if pl["uniformly_pure"] and pl["uniform_witness"] is None:
            problems.append("uniformly pure without a uniform witness")
        for key in ("uniform_witness", "ample_close_char"):
            if pl[key] is not None:
                tally["witnesses"] += 1
                if not _positive_on(pl[key], rows):
                    problems.append("%s not strictly positive on the strata rows" % key)
    elif kind == "scan":
        for cell in pl["cells"]:
            if not cell["ok"]:
                problems.append("scan cell I=%s p=%s failed: %s"
                                % (cell["I"], cell["p"], cell.get("error")))
                continue
            if not cell["uniformly_pure"]:
                continue
            tally["witnesses"] += 1
            rows = scan_rows[scan_cell_key(cell["I"], cell["p"])]
            if cell["uniform_witness"] is None or not _positive_on(cell["uniform_witness"],
                                                                   rows):
                problems.append("scan cell I=%s p=%s: uniform witness not strictly "
                                "positive on the recorded rows" % (cell["I"], cell["p"]))
    return problems


def golden_problems(stdout):
    return ["golden: %s" % line for line in stdout.splitlines()
            if not line.startswith("PASS ")]


def check(cmd, code, stdout, expected, tally):
    """All problems with one command's result: exit code, verdicts, replays."""
    want = expected[cmd.id]
    tally["stdout_identical"] += (
        hashlib.sha256(stdout.encode()).hexdigest() == want["stdout_sha256"])
    if code != want["exit"]:
        return ["exit code %r, expected %r" % (code, want["exit"])]
    if cmd.id == "golden":
        return golden_problems(stdout)
    problems = []
    bundle = json.loads(stdout)
    got = verdicts(bundle)
    if got != want["verdicts"]:
        diff = sorted(k for k in set(got) | set(want["verdicts"])
                      if got.get(k) != want["verdicts"].get(k))
        problems.append("verdicts differ from the recorded ones in: %s" % ", ".join(diff))
    problems += replay(bundle, want.get("scan_rows", {}), tally)
    return problems
