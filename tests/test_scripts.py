"""In-process smoke runs of the demo scripts, the only non-test callers of the
public API outside the package."""
import runpy
import sys
from pathlib import Path

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


def test_prime_scan(monkeypatch, capsys):
    out = run_script("prime_scan.py", ["--preset", "A2", "--primes", "2", "3", "--box", "1"],
                     monkeypatch, capsys)
    lines = out.splitlines()
    assert [l.split()[0] for l in lines] == ["I=[]", "I=[1]", "I=[2]", "I=[1,"]
    assert all(l.endswith("first-uniform=2") for l in lines)
