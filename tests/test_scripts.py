"""Smoke tests: the experiment scripts run to the end and report success."""

import importlib.util
import json
import re
import tempfile
from pathlib import Path

from _corpus import _canonical_edges, classes_on
from setmaps.cli import main

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


def test_the_sweep_adds_a_vertex_to_find_the_iso_classes():
    sweep = load_script("run_identity_sweep")
    for n in range(7):
        classes = sweep.iso_classes(n)
        assert len(classes) == len(classes_on(n)), n  # 1, 1, 2, 4, 11, 34, 156
        keys = {_canonical_edges(n, g.edges) for g in classes}
        assert len(keys) == len(classes) and keys == {_canonical_edges(n, g.edges) for g in classes_on(n)}, n
        assert {sweep.canonical(n, g.edges) for g in classes_on(n)} == {sweep.canonical(n, g.edges) for g in classes}


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


def test_cap_probe_prints_a_reference_timing_first(capsys, monkeypatch):
    probe = load_script("cap_probe")
    monkeypatch.setattr(probe, "probe", lambda points: 0)  # the rows are not run here
    assert probe.main() == 0
    assert re.fullmatch(r"reference: \d+\.\d{3} s, the median of 7 runs of a fixed in-process loop\n",
                        capsys.readouterr().out)


def test_cap_probe_checks_every_row_under_its_own_limits(capsys):
    # the function main calls, at small n: every child limits its own address space
    probe = load_script("cap_probe")
    rows = {row.name: row for row in probe.rows()}
    small = {"verify --check tail-forests": 3, "abel on unit blocks": 5, "chromatic table and reads": 11}
    assert probe.probe([(row, small.get(name, 6)) for name, row in rows.items()]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS ") == len(rows) == 16 and "FAIL" not in out
    assert "PASS chromatic table and reads at n = 11, answer right: exit 0" in out
    # the expand row's answer re-sums the printed lengths itself: a wrong length fails it
    expand = rows["expand --basis rising"]
    with tempfile.TemporaryDirectory() as directory:
        assert main(expand.args(6, directory)) == 0
    out = json.loads(capsys.readouterr().out)
    assert expand.answer(out)
    out["result"]["length_coefficients"][2] = str(int(out["result"]["length_coefficients"][2]) + 1)
    assert not expand.answer(out)
    # the star row's answer is every coefficient of the closed form: one changed coefficient fails it
    chromatic = rows["chromatic on the star, centre 0"]
    with tempfile.TemporaryDirectory() as directory:
        assert main(chromatic.args(6, directory)) == 0
    out = json.loads(capsys.readouterr().out)
    assert chromatic.answer(out) and out["result"]["coefficients"][3] == "-10"
    out["result"]["coefficients"][3] = "-9"
    assert not chromatic.answer(out)
    # the sparse row's answer is deletion-contraction's every coefficient: one changed coefficient fails it
    sparse = rows["chromatic on G(n, .03)"]
    with tempfile.TemporaryDirectory() as directory:
        assert main(sparse.args(9, directory)) == 0
    out = json.loads(capsys.readouterr().out)
    assert sparse.answer(out) and out["result"]["degree"] == 9
    out["result"]["coefficients"][1] = str(int(out["result"]["coefficients"][1]) + 1)
    assert not sparse.answer(out)
    # past a lowered cap the command exits 3 before any work
    lowered = chromatic._replace(cap=4, args=lambda n, d: [*chromatic.args(n, d), "--cap", "4"])
    assert probe.check(lowered, 5)
    assert capsys.readouterr().out.startswith("PASS chromatic on the star, centre 0 at n = 5, past cap 4: exit 3")
    # a bound below what a run uses fails it
    table = rows["chromatic table and reads"]._replace(max_rss_mib=1)
    assert probe.probe([(table, 6)]) == 1
    assert capsys.readouterr().out.startswith("FAIL chromatic table and reads at n = 6, answer right: exit 0")
