import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (A1_RANK41, A3_FLIP_MATRIX, E7_TYPE, E8_EXPLICIT, EXPLICIT, PSI_12,
                      PSI_13, RANK41_GALOIS, ROW_GROUPS, group)
from zipstrata import cli, cones, golden, sections, zipdatum
from zipstrata.cones import verify_certificate
from zipstrata.rootsystem import dot
from zipstrata.weyl import WeylGroup

ROOT = Path(__file__).resolve().parents[1]
BENCH_CONFIGS = ROOT / "perfbench" / "configs"

C3_CONFIG = {"group": {"preset": "C3"}, "p": 2, "n": 1, "I": [1, 3],
             "characters": [[1, 1, 0]], "w": "[351]"}

PAPER_EDGES = sorted([
    ["[123]", "[132]"], ["[132]", "[142]"], ["[132]", "[231]"],
    ["[142]", "[153]"], ["[142]", "[241]"], ["[153]", "[263]"],
    ["[153]", "[351]"], ["[231]", "[241]"], ["[241]", "[263]"],
    ["[241]", "[351]"], ["[263]", "[362]"], ["[351]", "[362]"],
    ["[351]", "[451]"], ["[362]", "[462]"], ["[451]", "[462]"],
    ["[462]", "[563]"],
])


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args, tmp_path, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_help_and_usage_errors_ignore_the_terminal_width(monkeypatch, capsys):
    # both wrap at argparse's width with no terminal, whatever COLUMNS says
    seen = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["--help"], ["no-such-command"]):
            with pytest.raises(SystemExit):
                cli.main(argv)
            seen.append(capsys.readouterr())
    assert seen[:2] == seen[2:]


def test_only_golden_imports_the_golden_gate(tmp_path):
    cfg = write_config(tmp_path, C3_CONFIG)
    code = ("import sys; from zipstrata import cli; cli.main(%r); "
            "sys.exit('zipstrata.golden' in sys.modules)" % (["describe", "--config", cfg],))
    proc = subprocess.run([sys.executable, "-c", code], env=cli_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.startswith("{")


def test_describe_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, C3_CONFIG)
    code1, out1 = run(["describe", "--config", cfg], tmp_path, capsys)
    code2, out2 = run(["describe", "--config", cfg], tmp_path, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)["payload"]
    assert payload["datum"]["z"] == "[563]"
    assert payload["dims"]["dim_G"] == 21
    assert payload["frame_violations"] == []


def test_strata_counts(tmp_path, capsys):
    cfg = write_config(tmp_path, C3_CONFIG)
    code, out = run(["strata", "--config", cfg], tmp_path, capsys)
    assert code == 0 and json.loads(out)["payload"]["count"] == 12
    gl4 = write_config(tmp_path, {"group": {"preset": "GL4"}, "p": 2, "n": 1,
                                  "mu": [0, 1, 2, 3]}, "gl4.json")
    code, out = run(["strata", "--config", gl4], tmp_path, capsys)
    assert code == 0 and json.loads(out)["payload"]["count"] == 24


def test_hasse_dot_and_json(tmp_path, capsys):
    cfg = write_config(tmp_path, C3_CONFIG)
    code, out = run(["hasse", "--config", cfg, "--side", "J", "--format", "dot"],
                    tmp_path, capsys)
    assert code == 0
    assert out.count("->") == 16
    assert out.startswith("digraph")
    code, out = run(["hasse", "--config", cfg, "--side", "J"], tmp_path, capsys)
    payload = json.loads(out)["payload"]
    assert len(payload["nodes"]) == 12
    assert sorted(payload["edges"]) == PAPER_EDGES


def test_n_alpha_output(tmp_path, capsys):
    cfg = write_config(tmp_path, C3_CONFIG)
    code, out = run(["n-alpha", "--config", cfg], tmp_path, capsys)
    assert code == 0
    rows = json.loads(out)["payload"]["rows"]
    mult = {tuple(a): int(n) for a, n in rows[0]["multiplicities"]}
    factor = (2 ** 3 - 1) * (2 + 1)
    assert mult[(0, 1, -1)] == 0
    assert mult[(1, 1, 0)] == 3 * factor
    assert rows[0]["verdict"] is False


def test_cone_exit_codes(tmp_path, capsys):
    cfg2 = write_config(tmp_path, C3_CONFIG, "p2.json")
    code, out = run(["cone", "--config", cfg2], tmp_path, capsys)
    assert code == cli.EXIT_INFEASIBLE
    assert json.loads(out)["payload"]["feasible"] is False
    cfg3 = write_config(tmp_path, dict(C3_CONFIG, p=3), "p3.json")
    code, out = run(["cone", "--config", cfg3], tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["feasible"] and payload["witness"] is not None


def test_purity_and_formats(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(C3_CONFIG, p=3))
    code, out = run(["purity", "--config", cfg], tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["principally_pure"] and payload["uniformly_pure"]
    replay_purity(payload)
    code, out = run(["purity", "--config", cfg, "--format", "text"], tmp_path, capsys)
    assert code == 0 and "uniformly_pure" in out


def replay_purity(payload):
    """Replay every verdict of a purity payload from the printed rows alone."""
    def positive(point, rows):
        return all(sum(a * b for a, b in zip(r, point)) > 0 for r in rows)

    ambient, reduced = [], []
    for cone in payload["strata"]:
        if cone["feasible"]:
            assert positive(cone["witness"], cone["inequalities_ambient"])
        else:
            assert verify_certificate(cone["inequalities_reduced"], cone["certificate"])
        ambient += cone["inequalities_ambient"]
        reduced += cone["inequalities_reduced"]
    if payload["uniformly_pure"]:
        assert payload["uniform_certificate"] is None
        assert positive(payload["uniform_witness"], ambient)
    else:
        assert verify_certificate(reduced, payload["uniform_certificate"])


def test_purity_prints_uniform_certificate(tmp_path, capsys):
    code, out = run(["purity", "--config", str(BENCH_CONFIGS / "a4-i2.json")],
                    tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["principally_pure"] and not payload["uniformly_pure"]
    assert payload["uniform_certificate"] is not None
    replay_purity(payload)


@pytest.mark.parametrize("cfg, lattice", [
    ({"group": {"preset": "A4"}, "p": 2, "n": 1, "I": []}, "levi"),
    ({"group": {"preset": "D4"}, "galois": "dswap", "p": 2, "n": 1, "I": [1, 2]}, "torus"),
    ({"group": {"preset": "A4"}, "p": 2, "n": 1, "I": [2]}, "torus"),
], ids=["a4-borel", "d4-dswap-torus", "a4-i2-torus"])
def test_purity_large_uniform_cones(tmp_path, capsys, cfg, lattice):
    # uniform cones of a few hundred rows that Fourier-Motzkin elimination did
    # not decide within 30 s (the A4 Borel one not within 10 min)
    path = write_config(tmp_path, cfg)
    code, out = run(["purity", "--config", path, "--lattice", lattice], tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["principally_pure"] and not payload["uniformly_pure"]
    assert payload["failing_strata"] == []
    replay_purity(payload)


def test_flagged_subcommands(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(C3_CONFIG, I0=[1]))
    code, out = run(["flag-strata", "--config", cfg], tmp_path, capsys)
    assert code == 0 and json.loads(out)["payload"]["count"] == 24
    code, out = run(["coarse-strata", "--config", cfg], tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert all("reference_dim" in s and "derived_dim" in s for s in payload["strata"])
    code, out = run(["describe", "--config", cfg], tmp_path, capsys)
    assert json.loads(out)["payload"]["J0"] == [1]


def test_char_test(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(C3_CONFIG, p=3,
                                      characters=[[1, 1, 0], [0, 0, 0]]))
    code, out = run(["char-test", "--config", cfg], tmp_path, capsys)
    assert code == 0
    chars = json.loads(out)["payload"]["characters"]
    assert chars[0]["orbitally_q_close"] and chars[0]["zip_ample"]
    assert chars[1]["q_small"] and not chars[1]["zip_ample"]


def test_invalid_config_exit_2(tmp_path, capsys):
    bad = write_config(tmp_path, {"group": {"preset": "C3"}, "p": 4, "n": 1,
                                  "I": [1, 3]})
    code, _ = run(["describe", "--config", bad], tmp_path, capsys)
    assert code == cli.EXIT_CONFIG
    missing = write_config(tmp_path, {"group": {"preset": "C3"}}, "m.json")
    code, _ = run(["describe", "--config", missing], tmp_path, capsys)
    assert code == cli.EXIT_CONFIG
    code, _ = run(["describe"], tmp_path, capsys)
    assert code == cli.EXIT_CONFIG


def test_scan(tmp_path, capsys):
    cfg = write_config(tmp_path, {"group": {"preset": "C3"}, "n": 1, "I": [1, 3],
                                  "primes": [2, 3, 5]})
    code, out = run(["scan", "--config", cfg], tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    by_p = {c["p"]: c for c in payload["cells"]}
    assert not by_p[2]["uniformly_pure"] and by_p[2]["failing_strata"] == ["[351]"]
    assert by_p[3]["uniformly_pure"] and by_p[5]["uniformly_pure"]
    assert payload["summary"][json.dumps([1, 3])]["first_uniform_prime"] == 3
    # workers do not change the bytes
    code2, out2 = run(["scan", "--config", cfg, "--workers", "3"], tmp_path, capsys)
    assert out2 == out
    empty = write_config(tmp_path, {"group": {"preset": "C3"}, "n": 1, "I": [1, 3],
                                    "primes": []}, "e.json")
    code, out = run(["scan", "--config", empty], tmp_path, capsys)
    assert code == 0 and json.loads(out)["payload"]["cells"] == []


def test_scan_builds_weyl_group_once(tmp_path, capsys, monkeypatch):
    built = []

    class CountingWeylGroup(cli.WeylGroup):
        def __init__(self, rd):
            built.append(rd)
            super().__init__(rd)

    monkeypatch.setattr(cli, "WeylGroup", CountingWeylGroup)
    cfg = write_config(tmp_path, {"group": {"preset": "B2"}, "n": 1,
                                  "types": [[], [1]], "primes": [2, 3, 5]})
    code, out = run(["scan", "--config", cfg], tmp_path, capsys)
    assert code == 0
    cells = json.loads(out)["payload"]["cells"]
    assert len(cells) == 6 and all(c["ok"] for c in cells)
    assert len(built) == 1


def test_scan_invalid_group_exit_2(tmp_path, capsys):
    for group in ({"preset": "Q3"}, {}, "C3", {"explicit": {"simple_roots": [[1, -1]]}}):
        cfg = write_config(tmp_path, {"group": group, "n": 1, "I": [1],
                                      "primes": [2, 3]})
        code, out = run(["scan", "--config", cfg], tmp_path, capsys)
        assert code == cli.EXIT_CONFIG and out == ""




@pytest.mark.parametrize("group, galois", [
    ({"preset": "A3"}, {"matrix": A3_FLIP_MATRIX, "order": 0}),
    ({"preset": "A3"}, {"matrix": A3_FLIP_MATRIX, "order": "two"}),
    ({"preset": "A3"}, {"matrix": [[0, 0, 0, "x"]] + A3_FLIP_MATRIX[1:], "order": 2}),
    ({"preset": "A3"}, {"matrix": [[0, 0, 0, 0.5]] + A3_FLIP_MATRIX[1:], "order": 2}),
    ({"preset": "A3"}, {"matrix": A3_FLIP_MATRIX[:3], "order": 2}),
    ({"preset": "A3"}, {"matrix": [row + [0] for row in A3_FLIP_MATRIX], "order": 2}),
    ({"explicit": {"rank": 2, "simple_roots": [[1, -1], [-1, 1]],
                   "simple_coroots": [[1, -1], [-1, 1]]}}, None),
    # <alpha_2, alpha_1^vee> = 0 but <alpha_1, alpha_2^vee> = -1
    ({"explicit": {"rank": 2, "simple_roots": [[1, 0], [0, 1]],
                   "simple_coroots": [[2, 0], [-1, 2]]}}, None),
], ids=["order-0", "order-str", "entry-str", "entry-float", "short-matrix",
        "wide-matrix", "dependent-simple-roots", "asymmetric-zero"])
def test_hostile_explicit_data_exit_2(tmp_path, capsys, group, galois):
    cfg = {"group": group, "p": 3, "n": 1, "I": [1]}
    if galois is not None:
        cfg["galois"] = galois
    code = cli.main(["describe", "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG and captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command, cfg", [
    ("char-test", dict(C3_CONFIG, characters=["abc"])),
    ("char-test", dict(C3_CONFIG, characters=[5])),
    ("char-test", dict(C3_CONFIG, characters=[[1.5, 0, 0]])),
    ("describe", dict(C3_CONFIG, I=["1", "3"])),
    ("n-alpha", dict(C3_CONFIG, w=5)),
    ("describe", dict(C3_CONFIG, n="1")),
    ("scan", dict(C3_CONFIG, primes=2)),
    ("scan", dict(C3_CONFIG, primes=[2], types=3)),
    ("scan", dict(C3_CONFIG, primes=[2], characters=[[1, 1]])),
    ("describe", [C3_CONFIG]),
], ids=["char-str", "char-int", "char-float", "I-str", "w-int", "n-str", "primes-int",
        "types-int", "scan-char-rank", "config-list"])
def test_malformed_config_values_exit_2(tmp_path, capsys, command, cfg):
    code = cli.main([command, "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG and captured.out == ""
    assert captured.err.startswith("error: ")


def test_scan_cell_failure_reported(tmp_path, capsys):
    cfg = write_config(tmp_path, {"group": {"preset": "C3"}, "n": 1,
                                  "types": [[1, 3], [2, 9]], "primes": [2]})
    code, out = run(["scan", "--config", cfg], tmp_path, capsys)
    assert code == 0
    cells = json.loads(out)["payload"]["cells"]
    assert any(c["ok"] for c in cells) and any(not c["ok"] for c in cells)


def test_scan_certificates_replay_from_purity_rows(tmp_path, capsys):
    cfg = json.loads((BENCH_CONFIGS / "c3-scan.json").read_text())
    code, out = run(["scan", "--config", str(BENCH_CONFIGS / "c3-scan.json")],
                    tmp_path, capsys)
    assert code == 0
    cells = json.loads(out)["payload"]["cells"]
    assert len(cells) == 32 and all(c["ok"] for c in cells)
    assert sum(1 for c in cells if not c["uniformly_pure"]) == 8
    for cell in cells:
        if cell["uniformly_pure"]:
            assert cell["uniform_certificate"] is None
            continue
        path = write_config(tmp_path, dict(cfg, I=cell["I"], p=cell["p"]))
        code, out = run(["purity", "--config", path], tmp_path, capsys)
        assert code == 0
        purity = json.loads(out)["payload"]
        assert purity["uniform_certificate"] == cell["uniform_certificate"]
        reduced = [r for cone in purity["strata"] for r in cone["inequalities_reduced"]]
        assert verify_certificate(reduced, cell["uniform_certificate"])


def test_scan_cell_reports_error_type(tmp_path, capsys):
    cfg = write_config(tmp_path, {"group": {"preset": "C3"}, "n": 1, "I": [1, 3],
                                  "primes": [2, 4]})
    code, out = run(["scan", "--config", cfg], tmp_path, capsys)
    assert code == 0
    good, bad = json.loads(out)["payload"]["cells"]
    assert good["ok"] and "error_type" not in good
    assert not bad["ok"] and bad["error_type"] == "ZipDatumError" and bad["error"]


def test_scan_cell_past_the_bit_cap_fails_alone(tmp_path, capsys):
    # at q = 2^2500 the stratum [312] of I = {1,3} has T = 4, so its rows would
    # need 10,004 bits: that cell fails and the cell of I = {1,2,3} still answers
    cfg = write_config(tmp_path, {"group": {"preset": "C3"}, "n": 2500,
                                  "types": [[1, 2, 3], [1, 3]], "primes": [2]})
    code, out = run(["scan", "--config", cfg], tmp_path, capsys)
    assert code == 0
    good, bad = json.loads(out)["payload"]["cells"]
    assert good["ok"] and good["I"] == [1, 2, 3] and good["principally_pure"]
    assert not bad["ok"] and bad["error_type"] == "SectionError"
    assert "T = 4 of stratum [312]" in bad["error"] and "is 10004" in bad["error"]


def _group_config(preset, galois):
    """The config's group and galois entries for a ROW_GROUPS member."""
    if preset in EXPLICIT:
        spec, galois = EXPLICIT[preset]
        return {"group": {"explicit": spec}, **({"galois": galois} if galois else {})}
    return {"group": {"preset": preset}, **({"galois": galois} if galois else {})}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ROW_GROUPS), st.lists(st.sets(st.integers(0, 3)), min_size=1, max_size=3),
       st.integers(1, 2))
@example(("C3", None), [{0, 2}, {0, 1, 2}], 1)      # I = {1,3}: no uniform cone at p = 2
@example(("B2", None), [set(), {0}], 1)
@example(("C3", None), [{0, 1, 2}, {0, 2}], 2500)   # I = {1,3} is past ROW_BIT_CAP
@example(("A2", None), [set(), {0}, {1}, {0, 1}], 1)  # a sweep over every type
def test_scan_cells_print_the_purity_report_verdicts(group_spec, types, n):
    """Each scan cell prints the five verdict fields of `purity_report` on its
    datum, whether its uniform cone is feasible or not, and a cell whose rows
    are past the bit cap fails alone with the report's error.  The summary
    gives each type's least prime whose report is uniformly pure."""
    preset, galois = group_spec
    m = group(preset, galois)[0].num_simple
    types = [sorted(i + 1 for i in I if i < m) for I in types]
    cfg = dict(_group_config(preset, galois), n=n, types=types, primes=[2, 3, 5, 7])
    payload = cli._scan(cfg, cli.build_parser().parse_args(["scan"]))
    rd, wg = cli._group_from_config(cfg)
    first_uniform = {}
    for cell in payload["cells"]:
        Z = cli._datum_from_config(dict(cfg, I=cell["I"], p=cell["p"]), rd, wg)
        try:
            rep = sections.purity_report(Z)
        except sections.SectionError as e:
            assert cell == {"I": cell["I"], "p": cell["p"], "ok": False, "error": str(e),
                            "error_type": "SectionError"}
            continue
        assert cell == {"I": cell["I"], "p": cell["p"], "ok": True, **cli._verdict_payload(rep)}
        if rep.uniformly_pure:
            first_uniform.setdefault(json.dumps(cell["I"]), cell["p"])    # primes ascend
    assert payload["summary"] == {
        json.dumps(t): {"first_uniform_prime": first_uniform.get(json.dumps(t))} for t in types}


def test_scan_solves_the_section_cones_only_without_a_uniform_witness(monkeypatch):
    # the C3 scan: 24 of its 32 cells have a feasible uniform cone, whose witness
    # certifies all 147 strata, and 8 do not. Of the 228 strata of those 8, 144
    # are certified by a recent section-cone witness, so the scan solves the 32
    # uniform cones and 84 section cones, and the ample cone of each of the 28
    # cells whose Levi lattice has positive rank (all but I = {1,2,3}). The
    # Levi basis is built once per type, beside the radical order's basis, and
    # the frame is validated once per type.
    calls = {"feasible_strict": 0, "kernel_basis": 0, "validate_frame": 0}
    for mod, name in ((cones, "feasible_strict"), (cones, "kernel_basis"),
                      (zipdatum, "validate_frame")):
        def counted(*args, _name=name, _fn=getattr(mod, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mod, name, counted)
    cfg = json.loads((BENCH_CONFIGS / "c3-scan.json").read_text())
    cells = cli._scan(cfg, cli.build_parser().parse_args(["scan"]))["cells"]
    assert calls == {"feasible_strict": 144, "kernel_basis": 16, "validate_frame": 8}
    monkeypatch.undo()
    uniform = [c for c in cells if c["uniformly_pure"]]
    assert len(cells) == 32 and len(uniform) == 24
    rd, wg = cli._group_from_config(cfg)
    for cell in uniform:
        Z = cli._datum_from_config(dict(cfg, I=cell["I"], p=cell["p"]), rd, wg)
        rows = [row for c in sections.purity_report(Z).strata for row in c.ambient_rows]
        assert cell["principally_pure"] and cell["failing_strata"] == ()
        assert all(dot(row, cell["uniform_witness"]) > 0 for row in rows)


def test_out_file(tmp_path, capsys):
    cfg = write_config(tmp_path, C3_CONFIG)
    target = tmp_path / "out.json"
    code = cli.main(["describe", "--config", cfg, "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["kind"] == "describe"
    # --out gets the bytes that stdout gets, dot (drawn by the renderer) included
    scan = write_config(tmp_path, dict(C3_CONFIG, primes=[2, 3]), "scan.json")
    for argv in (["hasse", "--config", cfg], ["hasse", "--config", cfg, "--format", "dot"],
                 ["purity", "--config", cfg], ["scan", "--config", scan]):
        code, out = run(argv, tmp_path, capsys)
        assert code == 0 and out
        target = tmp_path / "out.txt"
        assert cli.main(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == out.encode()


REFUSED_DOT = "error: format 'dot' not supported for this subcommand\n"


@pytest.mark.parametrize("argv, code, stderr", [
    (["describe", "--config", "{cfg}", "--out", "{tmp}/missing/out.json"], 2,
     "error: cannot write output: "),
    (["hasse", "--config", "{cfg}", "--format", "dot", "--out", "{tmp}/missing/out.dot"], 2,
     "error: cannot write output: "),
    (["golden", "--out", "{tmp}"], 2, "error: cannot write output: "),
    (["golden", "--out", "{tmp}/golden.txt"], 0, ""),
    # dot is refused before the config, here a missing file, is read
    (["purity", "--config", "{tmp}/absent.json", "--format", "dot"], 2, REFUSED_DOT),
    (["scan", "--config", "{tmp}/absent.json", "--format", "dot"], 2, REFUSED_DOT),
], ids=["describe-out", "hasse-dot-out", "golden-out-dir", "golden-out", "purity-dot",
        "scan-dot"])
def test_out_and_format_are_checked(tmp_path, capsys, argv, code, stderr):
    cfg = write_config(tmp_path, C3_CONFIG)
    assert cli.main([a.format(cfg=cfg, tmp=tmp_path) for a in argv]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(stderr) and err.count("\n") == (code != 0)
    if code == 0:
        assert (tmp_path / "golden.txt").read_text() == golden.golden_report()[1]


def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    # A5 Borel `hasse` prints about 340 kB, more than a pipe holds, so the
    # command is still writing when the reader stops after one line
    cfg = write_config(tmp_path, {"group": {"preset": "A5"}, "p": 2, "n": 1, "I": []})
    with subprocess.Popen([sys.executable, "-m", "zipstrata.cli", "hasse", "--config", cfg],
                          env=cli_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=20) == 2
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_golden_subcommand(capsys):
    code = cli.main(["golden"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_explicit_group_and_galois_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "group": {"explicit": {"rank": 2,
                               "simple_roots": [[1, -1], [0, 2]],
                               "simple_coroots": [[1, -1], [0, 1]]}},
        "p": 2, "n": 1, "I": [1]})
    code, out = run(["describe", "--config", cfg], tmp_path, capsys)
    assert code == 0
    assert json.loads(out)["payload"]["dims"]["dim_G"] == 10
    flip = write_config(tmp_path, {
        "group": {"preset": "A3"},
        "galois": {"perm": [3, 2, 1], "order": 2},
        "p": 3, "n": 1, "I": [1]}, "flip.json")
    code, out = run(["describe", "--config", flip], tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["datum"]["galois_order"] == 2
    assert payload["datum"]["J"] == [1]


def test_exponent_two_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"group": {"preset": "B2"}, "p": 2, "n": 2,
                                  "I": [1]})
    code, out = run(["describe", "--config", cfg], tmp_path, capsys)
    assert code == 0
    assert json.loads(out)["payload"]["datum"]["q"] == 4


def test_hasse_flagged(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(C3_CONFIG, I0=[]))
    code, out = run(["hasse", "--config", cfg, "--side", "I"], tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert len(payload["nodes"]) == 48
    # fine strata live over the base parabolic: open stratum has dimension
    # l(w0) + dim P and stack dimension dim(P/P0)
    assert max(n["variety_dim"] for n in payload["nodes"]) == 23
    assert max(n["stack_dim"] for n in payload["nodes"]) == 2


def test_lattice_levi0_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, C3_CONFIG)
    with pytest.raises(SystemExit) as exc:
        cli.main(["cone", "--config", cfg, "--lattice", "levi0"])
    assert exc.value.code == 2


def test_readme_synopsis_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    actions = {a.dest: a for a in cli.build_parser()._actions}
    synopsis = readme.split("zipstrata <command>", 1)[1].split("```", 1)[0]
    assert sorted(re.findall(r"--([a-z]+)", synopsis)) == \
        sorted(d for d in actions if d not in ("help", "command"))
    for dest in ("format", "lattice", "side"):
        shown = re.search(r"--%s ([\w|]+)" % dest, synopsis).group(1)
        assert shown.split("|") == list(actions[dest].choices)
    listed = re.search(r"Commands: (.*?)\.\n", readme, re.S).group(1)
    assert re.findall(r"`([a-z-]+)`", listed) == list(actions["command"].choices)


def test_readme_config_example_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Configuration schema (abridged):", 1)[1]
    example = json.loads(block.split("```json", 1)[1].split("```", 1)[0])
    cfg = write_config(tmp_path, example)
    for command in ("describe", "n-alpha", "flag-strata", "scan"):
        assert run([command, "--config", cfg], tmp_path, capsys)[0] == 0


@pytest.mark.parametrize("preset, spelled, named", [
    ("A3", {"perm": [3, 2, 1]}, "flip"),
    ("GL4", {"perm": [3, 2, 1], "order": 2}, "flip"),
    ("D4", {"perm": [1, 2, 4, 3]}, "dswap"),
    ("C3", {"perm": [1, 2, 3]}, None),
    ("A3", {"matrix": A3_FLIP_MATRIX, "order": 2}, "flip"),
], ids=["A3-perm", "GL4-perm", "D4-perm", "C3-identity-perm", "A3-matrix"])
def test_galois_spellings_agree(tmp_path, capsys, preset, spelled, named):
    # each accepted spelling of a galois action prints what its named form prints
    base = {"group": {"preset": preset}, "p": 3, "n": 1, "I": [1]}
    outs = []
    for galois in (spelled, named):
        cfg = write_config(tmp_path, dict(base, galois=galois))
        code, out = run(["purity", "--config", cfg], tmp_path, capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("preset, perm", [("C3", [3, 2, 1]), ("A3", [2, 1, 3]),
                                          ("D4", [4, 3, 2, 1])])
def test_other_galois_permutations_exit_2(tmp_path, capsys, preset, perm):
    cfg = write_config(tmp_path, {"group": {"preset": preset}, "galois": {"perm": perm},
                                  "p": 3, "n": 1, "I": [1]})
    code = cli.main(["describe", "--config", cfg])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG and captured.out == ""
    assert captured.err == "error: config.galois: give an explicit matrix for this permutation\n"


@pytest.mark.parametrize("group, galois, keys", [
    ({"preset": "A3"}, {"Matrix": A3_FLIP_MATRIX, "order": 2},
     "config.galois needs one of 'matrix' and 'perm', and at most 'order' besides; "
     "got keys ['Matrix', 'order']"),
    ({"preset": "A3"}, {},
     "config.galois needs one of 'matrix' and 'perm', and at most 'order' besides; "
     "got keys []"),
    ({"preset": "A3"}, {"matrix": A3_FLIP_MATRIX, "perm": [3, 2, 1]},
     "config.galois needs one of 'matrix' and 'perm', and at most 'order' besides; "
     "got keys ['matrix', 'perm']"),
    ({"preset": "C3", "explicit": EXPLICIT["G2-explicit"][0]}, None,
     "config.group needs exactly one of 'preset' and 'explicit'; "
     "got keys ['explicit', 'preset']"),
    ({}, None,
     "config.group needs exactly one of 'preset' and 'explicit'; got keys []"),
], ids=["galois-misspelled", "galois-empty", "galois-both", "group-both", "group-empty"])
def test_config_objects_saying_two_things_or_nothing_exit_2(tmp_path, capsys, group, galois,
                                                          keys):
    cfg = {"group": group, "p": 3, "n": 1, "I": [1]}
    if galois is not None:
        cfg["galois"] = galois
    code = cli.main(["describe", "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG and captured.out == ""
    assert captured.err == "error: %s\n" % keys


@pytest.mark.parametrize("command, cfg, message", [
    ("describe", None, "cannot read config: "),
    ("describe", {"group": {"preset": "C3"}, "p": 2}, "config needs 'I' (1-based indices) or 'mu'"),
    ("n-alpha", dict(C3_CONFIG, w="351"),
     'config.w: use a bracket like "[351]", "e", or a word list'),
    ("n-alpha", dict(C3_CONFIG, w=[1, 4]), "config.w: letter 4 is out of range 1..3"),
    ("n-alpha", dict(C3_CONFIG, w=[0]), "config.w: letter 0 is out of range 1..3"),
    ("n-alpha", dict(C3_CONFIG, w="[1a2]"), "bracket '[1a2]' is not valid for rank 3"),
    ("n-alpha", dict(C3_CONFIG, w="[1 2 x]"), "bracket '[1 2 x]' is not valid for rank 3"),
    ("n-alpha", {k: v for k, v in C3_CONFIG.items() if k != "w"}, "n-alpha requires config.w"),
    ("cone", {k: v for k, v in C3_CONFIG.items() if k != "w"}, "cone requires config.w"),
    ("scan", {"group": {"preset": "C3"}, "n": 1, "primes": [2]},
     "scan requires 'types' or 'I' in the config"),
    ("flag-strata", C3_CONFIG, "flag-strata requires config.I0"),
    ("coarse-strata", C3_CONFIG, "coarse-strata requires config.I0"),
    ("n-alpha", dict(C3_CONFIG, w="[213]"), "w is not a stratum label for this datum"),
    ("cone", dict(C3_CONFIG, w="[213]"), "w is not a stratum label for this datum"),
    ("describe", {"group": {"preset": "A3"}, "galois": {"perm": [3, 2, 1], "order": 3},
                  "p": 3, "n": 1, "I": [1]}, "galois matrix does not have the declared order"),
], ids=["missing-file", "no-type", "w-no-bracket", "w-letter-past-rank", "w-letter-zero",
        "w-bracket-letter", "w-bracket-spaced-letter",
        "n-alpha-no-w", "cone-no-w",
        "scan-no-types", "flag-strata-no-I0", "coarse-strata-no-I0", "n-alpha-non-label",
        "cone-non-label", "perm-wrong-order"])
def test_config_errors_exit_2_with_their_message(tmp_path, capsys, command, cfg, message):
    path = str(tmp_path / "absent.json") if cfg is None else write_config(tmp_path, cfg)
    code = cli.main([command, "--config", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG and captured.out == ""
    assert captured.err.startswith("error: " + message)
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1


@pytest.mark.parametrize("cfg", [
    dict(C3_CONFIG),
    {"group": {"preset": "B2"}, "p": 2, "n": 2, "I": [1]},
    {"group": {"preset": "A3"}, "galois": "flip", "p": 3, "n": 1, "I": [1, 3]},
])
def test_purity_torus_lattice(tmp_path, capsys, cfg):
    # the ample, orbitally q-close search stays on Levi characters, which the
    # sufficient condition covers, also when the cones are over the torus
    path = write_config(tmp_path, cfg)
    code, out = run(["purity", "--config", path, "--lattice", "torus"], tmp_path, capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["uniformly_pure"]
    code, out = run(["purity", "--config", path], tmp_path, capsys)
    assert json.loads(out)["payload"]["ample_close_char"] == payload["ample_close_char"]


# -- size caps: oversized input exits 2 instead of hanging ------------------------------

def cli_env():
    """The environment of a fresh interpreter that imports this checkout's src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_subprocess(args, timeout):
    """The CLI in a fresh interpreter, killed after `timeout` seconds."""
    return subprocess.run([sys.executable, "-m", "zipstrata.cli"] + args, env=cli_env(),
                          capture_output=True, text=True, timeout=timeout)


E8_CONFIG = {"group": {"explicit": E8_EXPLICIT}, "p": 2, "n": 1, "w": [7],
             "characters": [[1, 0, 0, 0, 0, 0, 0, 0]]}


@pytest.mark.parametrize("command", ["n-alpha", "cone", "purity"])
def test_e8_at_e7_type_finishes(tmp_path, command):
    cfg = write_config(tmp_path, dict(E8_CONFIG, I=[i + 1 for i in E7_TYPE]))
    proc = run_subprocess([command, "--config", cfg], timeout=120)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)["payload"]
    if command == "purity":
        assert len(payload["strata"]) == 240     # |W| / |W_E7|
    else:
        assert payload["stratum"] == "7"


@pytest.mark.parametrize("command", ["strata", "hasse"])
def test_e8_borel_exits_2_before_enumerating(tmp_path, command):
    cfg = write_config(tmp_path, dict(E8_CONFIG, I=[]))
    proc = run_subprocess([command, "--config", cfg], timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "696729600 elements" in proc.stderr


def test_oversized_preset_exits_2(tmp_path):
    # A2000 has 2000 * 2001 roots; the count is read from the type before any
    # simple root is built
    cfg = write_config(tmp_path, {"group": {"preset": "A2000"}, "p": 2, "n": 1, "I": []})
    proc = run_subprocess(["describe", "--config", cfg], timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "4002000 roots" in proc.stderr


def test_oversized_galois_order_exits_2(tmp_path):
    # 10^8 is a multiple of the flip's true order 2, but no invertible integer
    # 4 x 4 matrix has a finite order above lcm{p^k : phi(p^k) <= 4} = 120
    cfg = {"group": {"preset": "A3"}, "p": 2, "n": 1, "I": [2]}
    big = write_config(tmp_path, dict(cfg, galois={"matrix": A3_FLIP_MATRIX,
                                                   "order": 100_000_000}))
    proc = run_subprocess(["describe", "--config", big], timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "galois order 100000000 exceeds 120" in proc.stderr
    for order in (2, 4):
        ok = write_config(tmp_path, dict(cfg, galois={"matrix": A3_FLIP_MATRIX,
                                                      "order": order}))
        proc = run_subprocess(["describe", "--config", ok], timeout=20)
        assert proc.returncode == 0, proc.stderr


def test_oversized_rank_exits_2(tmp_path):
    # neither datum has a root, so only the rank cap stops the identity
    # matrices of rank 600 and 100000 from being built
    preset = {"group": {"preset": "x".join(["GL1"] * 600)}, "p": 2, "n": 1, "I": []}
    explicit = {"group": {"explicit": {"rank": 100_000, "simple_roots": [],
                                       "simple_coroots": []}}, "p": 2, "n": 1, "I": []}
    for cfg, message in ((preset, "has rank 600, more than the cap 100"),
                         (explicit, "has rank 100000, more than the cap 100")):
        proc = run_subprocess(["describe", "--config", write_config(tmp_path, cfg)], timeout=20)
        assert proc.returncode == 2 and proc.stdout == ""
        assert message in proc.stderr
    negative = write_config(tmp_path, dict(explicit, group={"explicit": {
        "rank": -1, "simple_roots": [], "simple_coroots": []}}))
    proc = run_subprocess(["describe", "--config", negative], timeout=20)
    assert proc.returncode == 2 and "rank must be a non-negative integer" in proc.stderr


def test_describe_at_the_rank_cap_finishes(tmp_path):
    # GL100 has 9,900 roots and rank 100, the largest preset under both caps;
    # its set-up is linear in the roots times the simple roots, and no table
    # of all |Phi+| reflections is built for a datum that never asks for one
    cfg = {"group": {"preset": "GL100"}, "p": 2, "n": 1, "I": list(range(1, 99))}
    proc = run_subprocess(["describe", "--config", write_config(tmp_path, cfg)], timeout=30)
    assert proc.returncode == 0, proc.stderr
    datum = json.loads(proc.stdout)["payload"]["datum"]
    assert datum["rank"] == 100 and datum["J"] == list(range(2, 100))


def test_wall_rows_past_the_bit_cap_exit_2(tmp_path):
    # the one wall of s_1 on the rank-41 datum has the loop order T = 27,720,
    # the order of gamma on X_0, so its row would hold integers of about
    # 2 T bits at q = 2; the stratum e has no wall and still answers
    cfg = {"group": {"explicit": A1_RANK41}, "galois": RANK41_GALOIS, "p": 2, "n": 1,
           "I": [], "characters": [[1] + [0] * 40]}
    proc = run_subprocess(["n-alpha", "--config", write_config(tmp_path, dict(cfg, w=[1]))],
                          timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "T = 27720 of stratum 1 times the bit length 2 of q is 55440" in proc.stderr
    proc = run_subprocess(["n-alpha", "--config",
                           write_config(tmp_path, dict(cfg, w="e"), "e.json")], timeout=20)
    assert proc.returncode == 0 and json.loads(proc.stdout)["payload"]["rows"][0]["period"] == 27720


@pytest.mark.parametrize("command, explicit, message", [
    ("purity", {"rank": 2, "simple_roots": [[1.0, 0]], "simple_coroots": [[2, 0]]},
     "simple root entry must be an integer, got 1.0"),
    ("describe", {"rank": 2, "simple_roots": [[True, 0]], "simple_coroots": [[2, 0]]},
     "simple root entry must be an integer, got True"),
    ("n-alpha", {"rank": 2, "simple_roots": [[1, 0]], "simple_coroots": [[2, 10 ** 4299]]},
     "a simple coroot entry has 14281 bits, more than the cap 64"),
], ids=["float-root", "true-root", "huge-coroot"])
def test_explicit_entries_are_plain_bounded_integers(tmp_path, capsys, command, explicit,
                                                     message):
    # unchecked, the float reaches the JSON writer only after the whole report,
    # true reads as 1, and the coroot makes a multiplicity (the character is
    # under CHAR_BIT_CAP) past the 4300 digits that int-to-str allows
    cfg = {"group": {"explicit": explicit}, "p": 2, "n": 1, "I": [], "w": [1],
           "characters": [[0, 10 ** 1000]]}
    code = cli.main([command, "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG and captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_oversized_character_exits_2(tmp_path, capsys):
    # a multiplicity of the character (10^4299, 0, 0) has more than the 4300
    # digits that int-to-str allows; at the bit cap every product still prints
    cfg = dict(C3_CONFIG, p=7, characters=[[10 ** 4299, 0, 0]])
    path = write_config(tmp_path, cfg)
    for command in ("n-alpha", "char-test"):
        code = cli.main([command, "--config", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "a character entry has 14281 bits, more than the cap 4000" in captured.err
    top = 2 ** cli.CHAR_BIT_CAP - 1
    path = write_config(tmp_path, dict(cfg, characters=[[top, -top, top]]), "top.json")
    for command in ("n-alpha", "char-test"):
        code, out = run([command, "--config", path], tmp_path, capsys)
        assert code == 0 and json.loads(out)["payload"]


def test_unusable_p_or_q_exits_2(tmp_path, capsys):
    # psi_12 and psi_13 are composites that Miller-Rabin to the prime bases up
    # to 37 calls prime; a 5000-digit p is past int()'s digit limit, and
    # q = 2^20000 has 6021 digits, more than json.dumps prints
    cfg = {"group": {"preset": "A2"}, "n": 1, "I": [1]}
    big = tmp_path / "big.json"
    big.write_text('{"group": {"preset": "A2"}, "n": 1, "I": [1], "p": 1%s}' % ("0" * 4999))
    for path, message in (
            (write_config(tmp_path, dict(cfg, p=PSI_12), "12.json"),
             "p = %d is not prime" % PSI_12),
            (write_config(tmp_path, dict(cfg, p=PSI_13), "13.json"), "only below %d" % PSI_13),
            (str(big), "config is not valid JSON"),
            (write_config(tmp_path, dict(cfg, p=2, n=20000), "q.json"),
             "q = p^n is too large: n times the bit length of p is 40000")):
        code = cli.main(["describe", "--config", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("side", ["I", "J"])
def test_c8_siegel_hasse_exits_2_before_labelling(tmp_path, side):
    # |W(C8)| = 10321920; without the check before labelling the twisted
    # orbits (side I) or the cross labels (side J) run for minutes
    cfg = write_config(tmp_path, {"group": {"preset": "C8"}, "p": 2, "n": 1,
                                  "I": [1, 2, 3, 4, 5, 6, 7]})
    proc = run_subprocess(["hasse", "--config", cfg, "--side", side], timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "10321920 elements, more than the enumeration cap 100000" in proc.stderr


@pytest.mark.parametrize("preset, order", [("C7", 645120), ("C8", 10321920)])
@pytest.mark.parametrize("side", ["I", "J"])
def test_c7_c8_borel_hasse_exits_2_before_walking(tmp_path, capsys, monkeypatch, side,
                                                   preset, order):
    # the size of W is checked before the Borel path starts its level walk
    def refuse(self):
        raise AssertionError("the level walk started")
    monkeypatch.setattr(WeylGroup, "_bruhat_levels", refuse)
    cfg = write_config(tmp_path, {"group": {"preset": preset}, "p": 2, "n": 1, "I": []})
    code = cli.main(["hasse", "--config", cfg, "--side", side])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "%d elements, more than the enumeration cap 100000" % order in captured.err


# -- the JSON writer -------------------------------------------------------------------

def _written(obj):
    pieces = []
    cli._write_json(obj, pieces.append)
    return "".join(pieces)


JSON_LEAVES = (st.integers() | st.integers(-10 ** 40, 10 ** 40) | st.booleans() | st.none()
               | st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", "\u2028", "😀"]))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(st.integers()) | st.dictionaries(st.text(), inner)),
    max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
@example({"": [], "a": {}, "b": (), "c": [True, 1], "d": [[1, -2], [False]], "é\"": None})
def test_write_json_matches_json_dumps(obj):
    assert _written(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [[], {}, (), [True, 1], [1, True], [[]], {"a": [{}]}, 0, "",
                                 [10 ** 100, -1, 0]])
def test_write_json_edge_cases(obj):
    assert _written(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [1.5, [1, 2.0], {"a": float("nan")}, {1: 2}, {"a": {3}},
                                 b"bytes"])
def test_write_json_refuses_other_types(obj):
    with pytest.raises(TypeError):
        _written(obj)


# -- byte pins ---------------------------------------------------------------------------

PIN_CONFIGS = {
    "c3-golden": dict(C3_CONFIG, characters=[[1, 1, 0], [1, 0, 0]], primes=[2, 3]),
    "c3-flag": {"group": {"preset": "C3"}, "p": 2, "n": 1, "I": [1, 3], "I0": [1],
                "w": [3], "characters": [[1, 1, 0], [-2, -3, 1]], "primes": [2, 3]},
    "a3-flip": {"group": {"preset": "A3"}, "galois": {"perm": [3, 2, 1]}, "p": 3, "n": 1,
                "I": [1], "w": [2, 3], "characters": [[2, 1, -1, -2], [1, 0, 0, -1]],
                "primes": [2, 3]},
    "a2-shear": {"group": {"explicit": {"rank": 3, "simple_roots": [[1, 0, 0], [0, 1, 0]],
                                        "simple_coroots": [[2, -1, 0], [-1, 2, 3]]}},
                 "galois": {"matrix": [[0, 1, 1], [1, 0, -1], [0, 0, 1]], "order": 2},
                 "p": 3, "n": 1, "I": [], "w": [1, 2], "characters": [[1, 1, 0], [2, 1, 1]],
                 "primes": [2, 3]},
    "d4-dswap": {"group": {"preset": "D4"}, "galois": "dswap", "p": 2, "n": 1, "I": [1, 2],
                 "I0": [1], "w": [2, 3], "characters": [[1, 1, 0, 0], [2, 1, 1, -1]],
                 "primes": [2, 3]},
    "gl1xgl1": {"group": {"preset": "GL1xGL1"}, "p": 2, "n": 1, "I": [], "I0": [], "w": "e",
                "characters": [[1, 0], [2, -1]], "primes": [2, 3]},
    "a5-i1245": {"group": {"preset": "A5"}, "p": 2, "n": 1, "I": [1, 2, 4, 5],
                 "w": [3, 2, 4, 3], "characters": [[1, 1, 1, 0, 0, 0], [3, 2, 1, 0, -1, -2]],
                 "primes": [2, 3]},
    "a3-flip-n2": {"group": {"preset": "A3"}, "galois": {"perm": [3, 2, 1]}, "p": 3, "n": 2,
                   "I": [2], "w": [1, 3, 2], "characters": [[2, 1, -1, -2], [1, 1, 0, 0]],
                   "primes": [2, 3]},
}
# every command the parser offers, so that a new one cannot go unpinned; golden
# reads no config and has its own pin
PIN_COMMANDS = [c for a in cli.build_parser()._actions if a.dest == "command"
                for c in a.choices if c != "golden"]
PIN_FILE = Path(__file__).resolve().parent / "cli_digests.json"


def cli_digests(tmp_path):
    """"<exit code> <sha256 of stdout>" for golden and for every subcommand in
    json and text (and dot for hasse) on each PIN_CONFIGS entry, and for
    `strata` and `hasse` once more with --side J."""
    runs = {"golden": ["golden"]}
    for name, cfg in PIN_CONFIGS.items():
        path = write_config(tmp_path, cfg, name + ".json")
        for command in PIN_COMMANDS:
            for fmt in ["json", "text"] + (["dot"] if command == "hasse" else []):
                argv = [command, "--config", path, "--format", fmt]
                runs["%s %s %s" % (name, command, fmt)] = argv
                if command in ("strata", "hasse"):
                    runs["%s %s --side J %s" % (name, command, fmt)] = argv + ["--side", "J"]
    out = {}
    for key, argv in runs.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        out[key] = "%d %s" % (code, hashlib.sha256(stdout.getvalue().encode()).hexdigest())
    return out


def test_cli_bytes_are_pinned(tmp_path):
    """stdout stays byte-identical on these commands: cli_digests.json changes
    only with an intended change of output, whose reason CHANGES.md records."""
    assert cli_digests(tmp_path) == json.loads(PIN_FILE.read_text())
