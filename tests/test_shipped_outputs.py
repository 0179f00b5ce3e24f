"""The shipped configs write the same bytes as the manifest records.

Every file a run writes (report.json, trajectory.csv, tauscan.csv) is
pinned by its sha256 in shipped_outputs.json. A change that alters these
bytes on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_shipped_outputs.py

and lists the change in CHANGES.md.
"""
import hashlib
import json
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
