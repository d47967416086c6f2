"""Smoke tests: the experiment scripts run to the end and report success."""

import json
import re
import tempfile
from pathlib import Path

from _corpus import load_script
from setmaps.cli import main

ROOT = Path(__file__).resolve().parent.parent


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


def test_cli_corpus_digests_every_command_check_and_oracle(capsys, monkeypatch):
    import setmaps.cli as cli

    corpus = load_script("cli_corpus")
    runs = corpus.corpus(small=True)
    names = {argv[i + 1] for argv in runs for i, flag in enumerate(argv[:-1]) if flag == "--check"}
    assert {*cli.GRAPH_CHECKS, *cli.BLOCK_CHECKS} <= names
    heads = {tuple(argv[:2]) for argv in runs}
    assert {("oracle", name) for name in cli.ORACLES} <= heads
    assert {"chromatic", "expand", "abel"} <= {head[0] for head in heads if head}
    assert corpus.main(["--small"]) == 0
    line = capsys.readouterr().out
    assert re.fullmatch(rf"{len(runs)} runs, sha256 [0-9a-f]{{64}}\n", line)
    # the same source prints the same line; one changed output byte changes it
    assert corpus.main(["--small"]) == 0 and capsys.readouterr().out == line
    render = cli.render
    monkeypatch.setattr(cli, "render", lambda payload, fmt: render(payload, fmt) + " ")
    assert corpus.main(["--small"]) == 0 and capsys.readouterr().out != line


def test_cli_corpus_fails_where_its_python_records_another_line(capsys, monkeypatch, tmp_path):
    import platform

    corpus = load_script("cli_corpus")
    # every recorded line counts the runs of the whole corpus
    recorded = corpus.recorded()
    assert recorded and all(re.fullmatch(r"\d+\.\d+\.\d+", version) for version in recorded)
    assert {line.split(" runs")[0] for line in recorded.values()} == {str(len(corpus.corpus()))}
    # the whole corpus takes about a minute: its small corner stands in for it
    small = corpus.corpus(small=True)
    monkeypatch.setattr(corpus, "corpus", lambda small_only: small)
    monkeypatch.setattr(corpus, "DIGESTS", tmp_path / "digests.txt")
    corpus.DIGESTS.write_text("")
    assert corpus.main([]) == 0
    line, err = capsys.readouterr()
    assert err == f"note: digests.txt records no line for Python {platform.python_version()}\n"
    moved = line[:-2] + ("0" if line[-2] != "0" else "1")  # its last hex digit moved
    for text, status in ((line, 0), (moved, 1)):
        corpus.DIGESTS.write_text(f"3.0.0 {moved}\n{platform.python_version()} {text}")
        assert corpus.main([]) == status
        out, err = capsys.readouterr()
        assert out == line and (err == "") == (status == 0)


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
