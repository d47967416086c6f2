"""Smoke tests: the experiment scripts run to the end and report success."""

import importlib.util
import os
import subprocess
import sys
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


def test_expansion_atlas_builds_one_table_over_the_subset(capsys, monkeypatch):
    atlas = load_script("expansion_atlas")
    built = []
    table = atlas.chromatic_setmap
    monkeypatch.setattr(atlas, "chromatic_setmap", lambda g: built.append(g) or table(g))
    assert atlas.main(["--graph", str(ROOT / "graphs" / "c8.txt"), "--subset", "63"]) == 0
    out = capsys.readouterr().out
    # vertices 0..5 of the 8-cycle induce a path: x (x - 1)^5
    assert [g.n for g in built] == [6]
    assert "subset=63" in out
    assert "chromatic polynomial: x^6 - 5*x^5 + 10*x^4 - 10*x^3 + 5*x^2 - x\n" in out
    assert "all bases rebuild the chromatic polynomial" in out


def test_table_at_cap_checks_its_reads_under_its_own_limits():
    # its own process: the script limits the address space of whatever runs it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = str(ROOT / "scripts" / "table_at_cap.py")

    def run(*args):
        return subprocess.run([sys.executable, script, *args], env=env, capture_output=True, text=True)

    done = run("--n", "11", "--p", "0.4")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("PASS ") == 8 and "FAIL" not in done.stdout
    # a bound below what the process uses fails the run
    done = run("--n", "6", "--max-rss-mib", "1")
    assert done.returncode == 1 and "FAIL peak RSS" in done.stdout
