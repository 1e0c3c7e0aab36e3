"""In-process smoke runs of the Sp(6) demo script, the only non-test caller of
the public API outside the package, and of the prime scan it shipped with, which
is now a `scan` run with a `types` list."""
import json
import runpy
import sys
from pathlib import Path

from zipstrata import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name] + argv)
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_sp6_demo(monkeypatch, capsys):
    out = run_script("sp6_demo.py", ["--primes", "2", "3"], monkeypatch, capsys)
    assert "  [351] -> [451]" in out
    assert "p=2  principal=False uniform=False failing=['[351]']" in out
    assert "p=3  principal=True uniform=True failing=[]" in out
    assert out.rstrip().endswith("golden gate: PASS")


def test_prime_scan(tmp_path, capsys):
    # the sweep of the former scripts/prime_scan.py over every A2 type
    types = [[], [1], [2], [1, 2]]
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"group": {"preset": "A2"}, "n": 1, "types": types,
                               "primes": [2, 3]}))
    assert cli.main(["scan", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert [(c["I"], c["p"]) for c in payload["cells"]] == [
        (I, p) for I in types for p in (2, 3)]
    assert all(c["ok"] and c["principally_pure"] and c["uniformly_pure"]
               for c in payload["cells"])
    assert payload["summary"] == {json.dumps(I): {"first_uniform_prime": 2} for I in types}
