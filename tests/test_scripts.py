"""Smoke tests: the experiment scripts run to the end and report success."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_sweep_passes(capsys):
    sweep = load_script("run_identity_sweep")
    assert sweep.main(["--max-n", "3", "--random", "1"]) == 0
    assert "0 failing checks" in capsys.readouterr().out


def test_expansion_atlas_rebuilds_every_basis(capsys):
    atlas = load_script("expansion_atlas")
    assert atlas.main(["--graph", str(ROOT / "graphs" / "c5.txt")]) == 0
    assert "all bases rebuild the chromatic polynomial" in capsys.readouterr().out
