import json
import re
from pathlib import Path

import pytest

from conftest import A3_FLIP_MATRIX
from zipstrata import cli
from zipstrata.cones import verify_certificate

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

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
], ids=["order-0", "order-str", "entry-str", "entry-float", "short-matrix",
        "wide-matrix", "dependent-simple-roots"])
def test_hostile_explicit_data_exit_2(tmp_path, capsys, group, galois):
    cfg = {"group": group, "p": 3, "n": 1, "I": [1]}
    if galois is not None:
        cfg["galois"] = galois
    code = cli.main(["describe", "--config", write_config(tmp_path, cfg)])
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


def test_out_file(tmp_path, capsys):
    cfg = write_config(tmp_path, C3_CONFIG)
    target = tmp_path / "out.json"
    code = cli.main(["describe", "--config", cfg, "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["kind"] == "describe"


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


@pytest.mark.parametrize("command", ["purity", "scan"])
def test_negative_box_rejected(tmp_path, capsys, command):
    cfg = write_config(tmp_path, dict(C3_CONFIG, primes=[2]))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, "--box", "-1"])
    assert exc.value.code == 2
