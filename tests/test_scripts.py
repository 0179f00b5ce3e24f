"""Smoke runs of the example scripts, called in-process through main(argv)."""
import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_global_vs_local(capsys):
    assert load_script("run_global_vs_local").main(["--couplings", "0.0", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "all pass" in out
    assert "the restricted construction stays compliant" in out


def test_tau_scan(capsys):
    assert load_script("run_tau_scan").main(["--points", "5"]) == 0
    out = capsys.readouterr().out
    assert "fitted log-log slope" in out
    assert "relative error (order 4)" in out


def test_theorem1_sweep_writes_csv(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    assert load_script("run_theorem1_sweep").main(["--seeds", "1", "--csv", str(path)]) == 0
    assert f"wrote {path}" in capsys.readouterr().out
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["system", "environment", "worst_defect", "induces_transitions"]
    assert len(rows) == 1 + 9 + 2
    strict = [float(r[2]) for r in rows[1:10]]
    witnesses = [float(r[2]) for r in rows[10:]]
    assert max(strict) < 1e-10
    assert min(witnesses) > 1e-3
