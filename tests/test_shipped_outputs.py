"""The shipped configs write the same bytes as the manifest records.

Every file a run writes (report.json, trajectory.csv, tauscan.csv) is
pinned by its sha256 in shipped_outputs.json. A change that alters these
bytes on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_shipped_outputs.py

and lists the change in CHANGES.md.
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from thermolindblad.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
MANIFEST = Path(__file__).resolve().parent / "shipped_outputs.json"


def output_digests(config, out_dir):
    """Run one shipped config in-process; {file name: sha256} of what it wrote."""
    experiment = json.loads(config.read_text())["experiment"]
    main([experiment, "--config", str(config), "--out", str(out_dir)])
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


# Imports the package, then runs every shipped config in this process; exits
# nonzero if scipy.linalg was imported by then.
WITHOUT_SCIPY_LINALG = """
import json, sys
from pathlib import Path
import thermolindblad
from thermolindblad.cli import main
loaded = ["import"] if "scipy.linalg" in sys.modules else []
for config in sorted(Path(sys.argv[1]).glob("*.json")):
    experiment = json.loads(config.read_text())["experiment"]
    main([experiment, "--config", str(config), "--out", str(Path(sys.argv[2]) / config.stem)])
    loaded += [config.stem] if "scipy.linalg" in sys.modules else []
sys.exit(", ".join(loaded) or None)
"""


def test_shipped_configs_run_without_scipy_linalg(tmp_path):
    # scipy.linalg is slow to import; only the expm and logm routes need it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY_LINALG, str(CONFIG_DIR), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_manifest_covers_the_shipped_configs():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(p.stem for p in CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_shipped_outputs_match_manifest(tmp_path, name):
    expected = json.loads(MANIFEST.read_text())[name]
    assert output_digests(CONFIG_DIR / f"{name}.json", tmp_path) == expected


if __name__ == "__main__":
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(CONFIG_DIR.glob("*.json")):
            out_dir = Path(tmp) / config.stem
            out_dir.mkdir()
            manifest[config.stem] = output_digests(config, out_dir)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
