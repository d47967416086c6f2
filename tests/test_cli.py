"""CLI behavior: output shapes, determinism, exit codes."""

import importlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import setmaps.cli as cli
import setmaps.graphs as graphs
import setmaps.oracles as oracles
import setmaps.ring as ring
from setmaps.abel import ABEL_POLY_CAP
from setmaps.graphs import CHROMATIC_POLY_CAP, Graph
from setmaps.poly import Poly
from setmaps.ring import BLOCK_SUM_CAP
from setmaps.umbral import standard_families

from _corpus import random_graphs

GRAPHS = str(Path(__file__).resolve().parent.parent / "graphs")


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text(Graph.complete(2).to_text())
    return str(path)


def test_chromatic_k2_coefficients(capsys, k2_file):
    status, out, _ = run_cli(capsys, "chromatic", "--graph", k2_file)
    assert status == 0
    payload = json.loads(out)
    assert payload["command"] == "chromatic"
    assert payload["result"]["coefficients"] == ["0", "-1", "1"]
    assert set(payload) == {"command", "input", "result", "checks"}


def test_chromatic_edgeless_three(capsys, tmp_path):
    path = tmp_path / "e3.txt"
    path.write_text(Graph.edgeless(3).to_text())
    status, out, _ = run_cli(capsys, "chromatic", "--graph", str(path))
    assert status == 0
    assert json.loads(out)["result"]["coefficients"] == ["0", "0", "0", "1"]


def test_chromatic_k3_coefficients(capsys):
    status, out, _ = run_cli(capsys, "chromatic", "--graph", f"{GRAPHS}/k3.txt")
    assert status == 0
    assert json.loads(out)["result"]["coefficients"] == ["0", "2", "-3", "1"]


def test_chromatic_subset_restricts(capsys):
    status, out, _ = run_cli(capsys, "chromatic", "--graph", f"{GRAPHS}/k3.txt", "--subset", "3")
    assert json.loads(out)["result"]["coefficients"] == ["0", "-1", "1"]


def test_expand_rising_k2(capsys, k2_file):
    status, out, _ = run_cli(capsys, "expand", "--graph", k2_file, "--basis", "rising")
    assert status == 0
    result = json.loads(out)["result"]
    assert result["length_coefficients"] == ["0", "-2", "1"]
    assert result["reconstructs"] is True
    assert result["subset_coefficients"] == {"1": "1", "2": "1", "3": "-2"}


def test_expand_falling_k2(capsys, k2_file):
    _, out, _ = run_cli(capsys, "expand", "--graph", k2_file, "--basis", "falling:1")
    assert json.loads(out)["result"]["length_coefficients"] == ["0", "0", "1"]


def test_expand_empty_subset(capsys, k2_file):
    _, out, _ = run_cli(capsys, "expand", "--graph", k2_file, "--basis", "monomial", "--subset", "0")
    assert json.loads(out)["result"]["length_coefficients"] == ["1"]


def test_expand_serializes_canonical_fractions(capsys, k2_file):
    # evaluation at 1/2 produces non-integer coefficients: chi_uv(1/2) = -1/4
    _, out, _ = run_cli(capsys, "expand", "--graph", k2_file, "--basis", "falling:1/2")
    result = json.loads(out)["result"]
    assert result["subset_coefficients"] == {"1": "1/2", "2": "1/2", "3": "-1/4"}
    assert result["length_coefficients"] == ["0", "-1/4", "1/4"]
    assert result["reconstructs"] is True


def test_expand_rejects_unknown_basis(capsys, k2_file):
    status, _, err = run_cli(capsys, "expand", "--graph", k2_file, "--basis", "bogus")
    assert status == 2
    assert "family" in err


def test_verify_all_on_k3(capsys):
    status, out, _ = run_cli(capsys, "verify", "--check", "all", "--graph", f"{GRAPHS}/k3.txt")
    assert status == 0
    payload = json.loads(out)
    assert payload["result"]["all_pass"] is True
    assert payload["result"]["failed"] == 0
    assert len(payload["checks"]) >= 9
    assert all(check["pass"] for check in payload["checks"])


@pytest.mark.parametrize("x, runs", [((), 8), (("--x", "3/2"), 10)])
def test_check_all_runs_each_distinct_basis_once(capsys, monkeypatch, x, runs):
    # abel-one, derivative and evaluation use abel:1, abel:a and falling:a; at the
    # default a they are abel:1, abel:0 and falling:1, three of the eight standard bases
    import setmaps.expansions as expansions

    families, reconstructs = [], expansions.expansion_reconstructs

    def counted(p, family, cap):
        families.append(family)
        return reconstructs(p, family, cap)

    monkeypatch.setattr(expansions, "expansion_reconstructs", counted)
    status, out, _ = run_cli(capsys, "verify", "--check", "all", "--graph", f"{GRAPHS}/k3.txt", *x)
    assert status == 0 and json.loads(out)["result"]["passed"] == 16
    assert len(families) == len(set(families)) == runs


def test_verify_table_mode_prints_check_lines(capsys):
    status, out, _ = run_cli(
        capsys, "verify", "--check", "forest-count", "--blocks", "2,1", "--format", "table"
    )
    assert status == 0
    assert "PASS forest-count" in out.splitlines()


def test_verify_binomial_pass(capsys):
    status, out, _ = run_cli(capsys, "verify", "--check", "binomial", "--graph", f"{GRAPHS}/c4.txt")
    assert status == 0


def test_no_command_builds_the_whole_table_of_values(capsys, monkeypatch):
    # equality and the arithmetic read the tuple of values of a map that holds its
    # coordinates, a chromatic table or a composition with Poly terms; every command
    # reads single values or the coordinates (the counts, the coefficient columns)
    def refuse(self):
        raise AssertionError("the whole tuple of values was built")

    monkeypatch.setattr(ring._LazyMap, "table", property(refuse))
    c8 = f"{GRAPHS}/c8.txt"
    runs = [("verify", "--check", "all", "--graph", c8), ("chromatic", "--graph", c8)]
    runs += [("verify", "--check", "binomial", "--graph", c8)]
    runs += [("expand", "--graph", c8, "--basis", str(family)) for family in standard_families()]
    for argv in runs:
        status, out, err = run_cli(capsys, *argv)
        assert status == 0 and err == "", argv
    assert json.loads(out)["result"]["reconstructs"] is True


def test_verify_unknown_selector(capsys):
    status, _, err = run_cli(capsys, "verify", "--check", "nope", "--graph", f"{GRAPHS}/k2.txt")
    assert status == 2
    assert "unknown check" in err


def test_verify_failure_exit_code_via_fault_injection(capsys, monkeypatch):
    monkeypatch.setattr("setmaps.checks.verify_stanley_evaluation", lambda *a, **kw: False)
    status, out, _ = run_cli(capsys, "verify", "--check", "stanley", "--graph", f"{GRAPHS}/k2.txt")
    assert status == 1
    payload = json.loads(out)
    assert payload["result"]["all_pass"] is False
    assert payload["checks"][0]["pass"] is False


def test_verify_cap_exceeded_exit_code(capsys, tmp_path):
    path = tmp_path / "cycle.txt"  # one vertex past the kernel's cap, which the binomial check takes
    path.write_text(Graph.cycle(BLOCK_SUM_CAP + 1).to_text())
    status, _, err = run_cli(capsys, "verify", "--check", "binomial", "--graph", str(path))
    assert status == 3
    assert "cap" in err


def test_cap_override_admits_and_warns(capsys):
    status, out, err = run_cli(
        capsys, "verify", "--check", "binomial", "--graph", f"{GRAPHS}/c8.txt", "--cap", "8"
    )
    assert status == 0
    assert "warning: cap override" in err
    assert json.loads(out)["result"]["all_pass"] is True


def test_expand_cap_warning_prices_the_change_of_basis_not_the_kernel(capsys):
    argv = ("expand", "--graph", f"{GRAPHS}/c8.txt", "--basis", "rising")
    _, plain, quiet = run_cli(capsys, *argv)
    status, out, err = run_cli(capsys, *argv, "--cap", "13")
    assert status == 0
    assert out == plain and quiet == ""
    assert "(3^13-1)/2 = 797161 (subset, color class) pairs" in err
    assert "the change of basis takes about 2^13*13 = 106496 products of counts and constants" in err
    assert "kernel" not in err and "Bell" not in err


@pytest.mark.parametrize("check", ["closed-form", "forest-count"])
def test_block_partition_sums_are_priced_as_the_kernel(capsys, check):
    status, _, err = run_cli(capsys, "verify", "--check", check, "--blocks", "2,1,1", "--cap", "7")
    assert status == 0
    assert err == "warning: cap override 7; the block-sum kernel takes about 2^7*7 = 896 int products\n"


@pytest.mark.parametrize(
    "argv, priced",
    [
        (("verify", "--check", "stable-counts", "--graph", f"{GRAPHS}/c5.txt"), "2^7*7 = 896 int products"),
        (
            ("verify", "--check", "abel-one", "--graph", f"{GRAPHS}/c5.txt"),
            "(3^7-1)/2 = 1093 (subset, color class) pairs",
        ),
        (("verify", "--check", "power", "--graph", f"{GRAPHS}/c5.txt"), "2*2^7 = 256 table evaluations"),
        (("oracle", "acyclic", "--graph", f"{GRAPHS}/c5.txt"), "2^7 = 128 orientations"),
        (("oracle", "colorings", "--graph", f"{GRAPHS}/c5.txt", "--x", "3"), "Bell(7) = 877"),
    ],
)
def test_cap_warning_names_the_governed_stage(capsys, argv, priced):
    status, _, err = run_cli(capsys, *argv, "--cap", "7")
    assert status == 0
    assert priced in err
    assert ("Bell" in err) == ("Bell" in priced)


@pytest.mark.parametrize(
    "argv",
    [("chromatic", "--graph", f"{GRAPHS}/k3.txt"), ("abel", "--blocks", "2,1")],
)
def test_cap_override_reaches_chromatic_and_abel(capsys, argv):
    _, plain, _ = run_cli(capsys, *argv)
    status, out, err = run_cli(capsys, *argv, "--cap", "3")
    assert status == 0
    assert out == plain
    assert err.startswith("warning: cap override 3; ") and err.count("\n") == 1


def test_chromatic_checks_its_cap_before_any_split(capsys, monkeypatch, tmp_path):
    n = CHROMATIC_POLY_CAP + 1
    path = tmp_path / f"g{n}.txt"
    path.write_text(random_graphs(n, 1, seed=n, p=0.3)[0].to_text())
    passes = []
    monkeypatch.setattr(graphs, "_stable_partition_counts", lambda *a: passes.append(a))
    status, out, err = run_cli(capsys, "chromatic", "--graph", str(path))
    assert status == 3 and out == ""
    assert err == f"error: chromatic polynomial over {n} vertices exceeds cap {CHROMATIC_POLY_CAP}\n"
    assert passes == []
    # the cap reads the induced subgraph of --subset
    monkeypatch.undo()
    status, out, _ = run_cli(capsys, "chromatic", "--graph", str(path), "--subset", str((1 << 8) - 1))
    assert status == 0 and json.loads(out)["result"]["degree"] == 8


def test_chromatic_refuses_a_million_vertices_at_once(capsys, tmp_path):
    # the subgraph of the full set is the graph itself: no per-vertex pass before the cap
    path = tmp_path / "e1000000.txt"
    path.write_text("1000000 0\n")
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "chromatic", "--graph", str(path))
    assert time.perf_counter() - start < 2.0
    assert status == 3 and out == ""
    assert err == f"error: chromatic polynomial over 1000000 vertices exceeds cap {CHROMATIC_POLY_CAP}\n"


def test_cap_override_lets_the_chromatic_table_run(capsys, tmp_path):
    n = CHROMATIC_POLY_CAP + 1
    path = tmp_path / f"p{n}.txt"
    path.write_text(Graph.path(n).to_text())
    argv = ("chromatic", "--graph", str(path))
    assert run_cli(capsys, *argv)[0] == 3
    status, out, err = run_cli(capsys, *argv, "--cap", str(n))
    assert status == 0
    # a tree on n vertices: x(x - 1)^(n - 1)
    expected = Poly.x() * Poly((-1, 1)) ** (n - 1)
    assert json.loads(out)["result"]["coefficients"] == [str(c) for c in expected.coeffs]
    assert err == (
        f"warning: cap override {n}; the chromatic table sums over at most"
        f" (3^{n}-1)/2 = {(3**n - 1) // 2} (subset, color class) pairs\n"
    )


def test_abel_checks_its_cap_before_the_power(capsys, monkeypatch):
    n = ABEL_POLY_CAP + 1
    blocks = ("--blocks", ",".join(["1"] * n))
    powers = []
    monkeypatch.setattr(Poly, "__pow__", lambda self, e: powers.append(e))
    status, out, err = run_cli(capsys, "abel", *blocks)
    assert status == 3 and out == ""
    assert err == f"error: Abel polynomial over {n} blocks exceeds cap {ABEL_POLY_CAP}\n"
    assert powers == []
    # the cap counts the selected blocks: x(x + 3)^2
    monkeypatch.undo()
    status, out, _ = run_cli(capsys, "abel", *blocks, "--subset", "7")
    assert status == 0 and json.loads(out)["result"]["coefficients"] == ["0", "9", "6", "1"]


def test_cap_override_lets_the_abel_polynomial_run(capsys, monkeypatch):
    argv = ("abel", "--blocks", "2,1,1")
    status, out, err = run_cli(capsys, *argv, "--cap", "2")
    assert status == 3 and out == ""
    assert err.endswith("error: Abel polynomial over 3 blocks exceeds cap 2\n")
    status, out, err = run_cli(capsys, *argv, "--cap", "3")
    assert status == 0
    assert json.loads(out)["result"]["coefficients"] == ["0", "16", "8", "1"]  # x(x + 4)^2
    assert err == (
        "warning: cap override 3; the Abel polynomial over 3 blocks raises x + w to the power 2"
        " in about 3^2 = 9 int products\n"
    )
    # past the default cap; the power itself, seconds of work, is stubbed
    n = ABEL_POLY_CAP + 1
    powers = []
    monkeypatch.setattr(Poly, "__pow__", lambda self, e: powers.append(e) or Poly.one())
    status, out, err = run_cli(capsys, "abel", "--blocks", ",".join(["1"] * n), "--cap", str(n))
    assert status == 0 and powers == [n - 1]
    assert err.startswith(f"warning: cap override {n}; the Abel polynomial over {n} blocks")


def test_abel_refuses_coefficients_it_could_not_print(capsys, monkeypatch):
    # past the interpreter's limit on printing an int, abel exits 3 before the
    # power is taken and names the limit; Python lets the limit go down to 640
    limit = sys.get_int_max_str_digits()
    powers = []
    power = Poly.__pow__
    monkeypatch.setattr(Poly, "__pow__", lambda self, e: powers.append(e) or power(self, e))
    sys.set_int_max_str_digits(640)
    try:
        # x(x + 300)^299: coefficients of up to about 740 digits
        status, out, err = run_cli(capsys, "abel", "--blocks", ",".join(["1"] * 300))
        assert status == 3 and out == "" and powers == []
        assert err.startswith("error: Abel polynomial over 300 blocks of weight under 10^3 has coefficients of up to")
        assert "over the limit of 640 digits" in err
        # x(x + 200)^199, up to about 460 digits, prints
        status, out, _ = run_cli(capsys, "abel", "--blocks", ",".join(["1"] * 200))
        assert status == 0 and powers == [199]
        assert json.loads(out)["result"]["coefficients"][1] == str(200**199)
    finally:
        sys.set_int_max_str_digits(limit)


def test_an_unprintable_count_exits_2_with_one_error_line(capsys):
    # the count x(x - 1) of K2 at x = 10^400 has 800 digits, past a limit of 640:
    # rendering raises, inside main's error handling, not as a traceback
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        argv = ("oracle", "colorings", "--graph", f"{GRAPHS}/k2.txt", "--x", f"{10**400}")
        status, out, err = run_cli(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert status == 2 and out == ""
    assert err.startswith("error: Exceeds the limit (640 digits)") and err.count("\n") == 1


def test_an_unprintable_subset_is_refused_before_the_count(capsys, monkeypatch, tmp_path):
    # the full vertex mask of 20 000 vertices has 6021 digits, past the default limit of 4300
    wide = tmp_path / "wide.txt"
    wide.write_text("20000 1\n0 1\n")
    star = tmp_path / "star.txt"  # 21 edges: past the orientation counts' cap of 20
    star.write_text("20000 21\n" + "".join(f"0 {v}\n" for v in range(1, 22)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(oracles, "count_acyclic_orientations", lambda *a, **k: pytest.fail("the count ran"))
            status, out, err = run_cli(capsys, "oracle", "acyclic", "--graph", str(wide))
            assert status == 2 and out == ""
            assert err == (
                "error: the subset mask of 20000 vertices has more than 4300 digits, over the limit "
                "on printing an int (sys.get_int_max_str_digits; PYTHONINTMAXSTRDIGITS raises it)\n"
            )
            # a --cap that admits the count admits the refusal too, before the warning
            status, _, err = run_cli(capsys, "oracle", "acyclic", "--graph", str(star), "--cap", "21")
            assert status == 2 and err.startswith("error: the subset mask of 20000 vertices")
        # a cap that refuses the count still decides the exit code
        status, _, err = run_cli(capsys, "oracle", "acyclic", "--graph", str(star))
        assert status == 3 and err == "error: orientation enumeration over 21 edges exceeds cap 20\n"
        status, _, err = run_cli(capsys, "oracle", "colorings", "--graph", str(wide), "--x", "2")
        assert status == 3 and err == "error: coloring count over 20000 vertices exceeds cap 12\n"
        # a short subset echoes, and the count runs
        status, out, _ = run_cli(capsys, "oracle", "acyclic", "--graph", str(wide), "--subset", "3")
        assert status == 0 and json.loads(out)["result"]["count"] == 2
    finally:
        sys.set_int_max_str_digits(limit)


def test_tail_forest_oracle_refuses_an_unprintable_count_before_enumerating(capsys, monkeypatch):
    # three blocks of 10^400: the count at k = 1, (3 * 10^400)^2, has 801 digits
    import setmaps.abel as abel

    walks = []
    acyclic = abel._forest_acyclic
    monkeypatch.setattr(abel, "_forest_acyclic", lambda *a: walks.append(a) or acyclic(*a))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        blocks = ",".join([f"{10**400}"] * 3)
        status, out, err = run_cli(capsys, "oracle", "tail-forests", "--blocks", blocks, "--k", "1")
    finally:
        sys.set_int_max_str_digits(limit)
    assert status == 3 and out == "" and walks == []
    assert err.startswith("error: tail-forest closed form over 3 blocks of weight under 10^401 ")
    assert err.count("\n") == 1
    assert "has coefficients of up to 801 digits, over the limit of 640 digits" in err


def test_digit_refusals_name_the_weight_by_its_digit_count(capsys):
    # a weight past the limit itself: the refusal may not print it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        status, out, err = run_cli(capsys, "abel", "--blocks", ",".join(["9" * 4299] * 11))
        assert status == 3 and out == "" and err.count("\n") == 1
        assert err.startswith("error: Abel polynomial over 11 blocks of weight under 10^4301 ")
        assert "over the limit of 4300 digits" in err
        # seven blocks of 10^800 make a printable weight of 801 digits, named by its count
        blocks = ",".join([f"{10**800}"] * 7)
        status, out, err = run_cli(capsys, "oracle", "tail-forests", "--blocks", blocks, "--k", "1")
        assert status == 3 and out == "" and err.count("\n") == 1 and len(err) < 300
        assert err.startswith("error: tail-forest closed form over 7 blocks of weight under 10^801 ")
    finally:
        sys.set_int_max_str_digits(limit)


def test_running_out_of_memory_exits_3_with_one_error_line(capsys, monkeypatch):
    def exhausted(ns):
        raise MemoryError

    monkeypatch.setitem(cli._DISPATCH, "chromatic", exhausted)
    status, out, err = run_cli(capsys, "chromatic", "--graph", f"{GRAPHS}/k2.txt")
    assert status == 3 and out == "" and err == "error: out of memory\n"


def test_oracle_acyclic_k3(capsys):
    status, out, _ = run_cli(capsys, "oracle", "acyclic", "--graph", f"{GRAPHS}/k3.txt")
    assert status == 0
    assert json.loads(out)["result"]["count"] == 6


def test_oracle_stable_partitions_k2(capsys, k2_file):
    _, out, _ = run_cli(capsys, "oracle", "stable-partitions", "--graph", k2_file)
    assert json.loads(out)["result"]["count"] == 1


def test_oracle_colorings_zero_colors(capsys):
    _, out, _ = run_cli(capsys, "oracle", "colorings", "--graph", f"{GRAPHS}/c5.txt", "--x", "0")
    assert json.loads(out)["result"]["count"] == 0


def test_oracle_colorings_has_a_cap(capsys, monkeypatch, tmp_path):
    path = tmp_path / "edgeless13.txt"
    path.write_text("13 0\n")
    splits = []
    perm = oracles.math.perm
    # each color-class split the backtracking reaches is priced by one math.perm
    monkeypatch.setattr(oracles, "math", SimpleNamespace(perm=lambda *a: splits.append(a) or perm(*a)))
    status, out, err = run_cli(capsys, "oracle", "colorings", "--graph", str(path), "--x", "13")
    assert status == 3 and out == ""
    assert err == "error: coloring count over 13 vertices exceeds cap 12\n"
    assert splits == []
    status, out, err = run_cli(capsys, "oracle", "colorings", "--graph", str(path), "--x", "2", "--cap", "13")
    assert status == 0
    assert json.loads(out)["result"]["count"] == 2**13
    assert "Bell(13) = 27644437 set partitions" in err


def test_oracle_colorings_requires_integer(capsys):
    status, _, err = run_cli(
        capsys, "oracle", "colorings", "--graph", f"{GRAPHS}/c5.txt", "--x", "1/2"
    )
    assert status == 2


def test_oracle_unique_sink(capsys):
    _, out, _ = run_cli(
        capsys, "oracle", "unique-sink", "--graph", f"{GRAPHS}/k3.txt", "--sink", "1"
    )
    assert json.loads(out)["result"]["count"] == 2


def test_oracle_sink_source(capsys, k2_file):
    _, out, _ = run_cli(
        capsys, "oracle", "sink-source", "--graph", k2_file, "--source", "0", "--sink", "1"
    )
    assert json.loads(out)["result"]["count"] == 1


def test_oracle_sink_source_requires_adjacency(capsys):
    status, _, err = run_cli(
        capsys, "oracle", "sink-source", "--graph", f"{GRAPHS}/p3.txt", "--source", "0", "--sink", "2"
    )
    assert status == 2
    assert "adjacent" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        # the subset {1, 2} of the path 0-1-2 is one edge: sink 2 takes it
        (("unique-sink", "--graph", f"{GRAPHS}/p3.txt", "--subset", "6", "--sink", "2"), 1),
        (("sink-source", "--graph", f"{GRAPHS}/k3.txt", "--subset", "6", "--source", "1", "--sink", "2"), 1),
        (
            ("unique-sink", "--graph", f"{GRAPHS}/k3.txt", "--subset", "6", "--sink", "0"),
            "error: --sink 0 is not a vertex of subset 6\n",
        ),
        (
            ("sink-source", "--graph", f"{GRAPHS}/k3.txt", "--subset", "6", "--source", "0", "--sink", "2"),
            "error: --source 0 is not a vertex of subset 6\n",
        ),
    ],
)
def test_oracle_vertices_are_graph_file_labels_inside_the_subset(capsys, argv, expected):
    status, out, err = run_cli(capsys, "oracle", *argv)
    if isinstance(expected, str):
        assert status == 2 and out == "" and err == expected
    else:
        assert status == 0 and err == ""
        payload = json.loads(out)
        assert payload["result"]["count"] == expected
        assert payload["input"]["subset"] == 6 and payload["input"]["sink"] == 2


def test_oracle_tail_forests(capsys):
    _, out, _ = run_cli(capsys, "oracle", "tail-forests", "--blocks", "2,1", "--k", "1")
    assert json.loads(out)["result"]["count"] == 3


# each oracle with every flag it needs: its input flag, then the flags it reads
_ORACLE_ARGV = {
    "colorings": ("--graph", f"{GRAPHS}/k3.txt", "--x", "3"),
    "acyclic": ("--graph", f"{GRAPHS}/k3.txt"),
    "stable-partitions": ("--graph", f"{GRAPHS}/k3.txt"),
    "unique-sink": ("--graph", f"{GRAPHS}/k3.txt", "--sink", "0"),
    "sink-source": ("--graph", f"{GRAPHS}/k3.txt", "--source", "0", "--sink", "1"),
    "tail-forests": ("--blocks", "2,1", "--k", "1"),
}


def test_the_oracle_argv_covers_every_flag_each_oracle_reads():
    assert list(_ORACLE_ARGV) == list(cli.ORACLES)
    for name, (_, flags) in cli.ORACLES.items():
        assert _ORACLE_ARGV[name][2::2] == tuple(f"--{flag}" for flag in flags), name


@pytest.mark.parametrize(
    "name, at", [(name, at) for name, argv in _ORACLE_ARGV.items() for at in range(0, len(argv), 2)]
)
def test_an_oracle_missing_a_flag_it_needs_is_a_usage_error(capsys, name, at):
    argv = _ORACLE_ARGV[name]
    status, out, err = run_cli(capsys, "oracle", name, *argv[:at], *argv[at + 2 :], "--cap", "1")
    assert status == 2 and out == ""
    assert err == f"error: oracle {name!r} needs {argv[at]}\n"


def test_abel_command(capsys):
    status, out, _ = run_cli(capsys, "abel", "--blocks", "2,1")
    assert status == 0
    assert json.loads(out)["result"]["coefficients"] == ["0", "3", "1"]


def test_missing_graph_file_is_usage_error(capsys):
    status, _, err = run_cli(capsys, "chromatic", "--graph", "no/such/file.txt")
    assert status == 2


def test_malformed_graph_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n1 0\n")
    status, _, err = run_cli(capsys, "chromatic", "--graph", str(path))
    assert status == 2


def test_unknown_command_is_usage_error(capsys):
    assert cli.main(["bogus"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("abel", "--blocks", "1,x"), "argument --blocks: blocks must be comma-separated integers, got '1,x'"),
        (("abel", "--blocks", "0,1"), "argument --blocks: block sizes must be positive integers"),
        (
            ("verify", "--check", "derivative", "--graph", f"{GRAPHS}/k3.txt", "--x", "abc"),
            "argument --x: not an exact rational: 'abc'",
        ),
        # a negative value after any flag reaches the flag's own type, as after --x,
        # where argparse alone reads it as a flag ("expected one argument")
        (("verify", "--check", "power", "--graph", f"{GRAPHS}/k3.txt", "--k", "-2/3"),
         "argument --k: invalid int value: '-2/3'"),
        (("oracle", "unique-sink", "--graph", f"{GRAPHS}/k3.txt", "--sink", "-1/2"),
         "argument --sink: invalid int value: '-1/2'"),
        (("abel", "--blocks", "-1,2"), "argument --blocks: block sizes must be positive integers"),
    ],
)
def test_malformed_flag_values_are_argparse_errors(capsys, argv, message):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == ""
    assert err.endswith(f"setmaps {argv[0]}: error: {message}\n")


@pytest.mark.parametrize(
    "argv, status, text",
    [
        (("verify", "--check", "evaluation", "--graph", f"{GRAPHS}/k3.txt"), 0, '"name": "evaluation a=-3/4"'),
        # the value reaches the oracle, which counts colorings with a whole number of colors
        (("oracle", "colorings", "--graph", f"{GRAPHS}/k3.txt"), 2, "color count must be a nonnegative integer"),
    ],
)
def test_a_negative_fraction_after_x_is_its_value(capsys, argv, status, text):
    # argparse alone reads "-3/4" as a flag, though "-1" and "-2.5" as values
    runs = [run_cli(capsys, *argv, *x) for x in (("--x", "-3/4"), ("--x=-3/4",))]
    assert runs[0] == runs[1] and runs[0][0] == status and text in runs[0][1] + runs[0][2]
    assert "expected one argument" not in runs[0][2]


def test_subset_out_of_range_is_usage_error(capsys, k2_file):
    status, _, _ = run_cli(capsys, "chromatic", "--graph", k2_file, "--subset", "8")
    assert status == 2


def test_repeated_runs_are_byte_identical(capsys):
    commands = [
        ("chromatic", "--graph", f"{GRAPHS}/k3.txt"),
        ("expand", "--graph", f"{GRAPHS}/c4.txt", "--basis", "logfamily"),
        ("verify", "--check", "all", "--graph", f"{GRAPHS}/p3.txt"),
        ("oracle", "acyclic", "--graph", f"{GRAPHS}/diamond.txt"),
        ("abel", "--blocks", "2,1,1", "--format", "table"),
    ]
    for argv in commands:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def spy_on_tables(monkeypatch):
    """Record the vertex count of every chromatic table built, through any module."""
    sizes = []
    build = graphs.chromatic_setmap

    def spy(graph):
        sizes.append(graph.n)
        return build(graph)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "setmaps" and getattr(module, "chromatic_setmap", None) is build:
            monkeypatch.setattr(module, "chromatic_setmap", spy)
    return sizes


def test_expand_builds_the_table_over_the_subset_only(capsys, monkeypatch):
    sizes = spy_on_tables(monkeypatch)
    status, out, _ = run_cli(
        capsys, "expand", "--graph", f"{GRAPHS}/c8.txt", "--subset", "50", "--basis", "rising"
    )
    assert status == 0
    assert sizes == [3]
    result = json.loads(out)["result"]
    # keys stay the original vertex masks of the submasks of 50 = {1, 4, 5}
    assert list(result["subset_coefficients"]) == ["2", "16", "18", "32", "34", "48", "50"]
    assert result["reconstructs"] is True


def test_expand_checks_its_cap_before_building_the_table(capsys, monkeypatch):
    sizes = spy_on_tables(monkeypatch)
    status, _, err = run_cli(
        capsys, "expand", "--graph", f"{GRAPHS}/c8.txt", "--basis", "rising", "--cap", "5"
    )
    assert status == 3
    assert "cap 5" in err
    assert sizes == []


def test_verify_all_builds_one_shared_table(capsys, monkeypatch):
    sizes = spy_on_tables(monkeypatch)
    status, _, _ = run_cli(capsys, "verify", "--check", "all", "--graph", f"{GRAPHS}/p4.txt")
    assert status == 0
    assert sizes == [4]


@pytest.mark.parametrize(
    "check", ["binomial", "power", "expansion", "derivative", "rising-pairs", "stable-counts", "stanley", "all"]
)
def test_graph_checks_test_their_caps_before_any_table(capsys, monkeypatch, tmp_path, check):
    # 18 vertices: over the kernel's cap of 17, which every graph check takes; all names its first check
    path = tmp_path / "g18.txt"
    path.write_text(random_graphs(18, 1, seed=0x16, p=0.3)[0].to_text())
    sizes = spy_on_tables(monkeypatch)
    status, out, err = run_cli(capsys, "verify", "--check", check, "--graph", str(path))
    assert status == 3
    first = next(iter(cli.GRAPH_CHECKS)) if check == "all" else check
    assert out == "" and err == f"error: {first} check over 18 vertices exceeds cap {BLOCK_SUM_CAP}\n"
    assert sizes == []


def test_cap_reaches_the_stanley_orientation_enumeration(capsys, tmp_path):
    path = tmp_path / "k5.txt"
    path.write_text(Graph.complete(5).to_text())
    argv = ("verify", "--check", "stanley", "--graph", str(path))
    status, out, err = run_cli(capsys, *argv, "--cap", "4")
    assert status == 3 and out == "" and "stanley check over 5 vertices exceeds cap 4" in err
    status, out, err = run_cli(capsys, *argv, "--cap", "5")
    assert status == 0
    assert json.loads(out)["result"]["all_pass"] is True
    assert "2^5*5 = 160 int products" in err


def test_stanley_caps_vertices_not_edges(capsys, monkeypatch, tmp_path):
    # 18 vertices and 20 edges: within the oracles' edge cap of 20; over the
    # kernel's vertex cap of 17 before any table
    pairs = [(u, v) for u in range(18) for v in range(u + 1, 18)]
    path = tmp_path / "g18.txt"
    path.write_text(Graph(18, sorted(random.Random(1).sample(pairs, 20))).to_text())
    sizes = spy_on_tables(monkeypatch)
    status, out, err = run_cli(capsys, "verify", "--check", "stanley", "--graph", str(path))
    assert status == 3
    assert out == "" and err == "error: stanley check over 18 vertices exceeds cap 17\n"
    assert sizes == []


@pytest.mark.parametrize("check", ["rising-pairs", "stanley"])
def test_orientation_checks_share_one_vertex_cap(capsys, monkeypatch, tmp_path, check):
    path = tmp_path / "c18.txt"
    path.write_text(Graph.cycle(18).to_text())
    sizes = spy_on_tables(monkeypatch)
    status, out, err = run_cli(capsys, "verify", "--check", check, "--graph", str(path))
    assert status == 3
    assert out == "" and err == f"error: {check} check over 18 vertices exceeds cap 17\n"
    assert sizes == []


def test_stable_count_check_admits_nine_vertices(capsys, tmp_path):
    # over the former caps of 8 and 11; the cap is now the kernel's, 17
    path = tmp_path / "g9.txt"
    path.write_text(random_graphs(9, 1, seed=9, p=0.3)[0].to_text())
    status, out, _ = run_cli(capsys, "verify", "--check", "stable-counts", "--graph", str(path))
    assert status == 0
    assert json.loads(out)["result"] == {"all_pass": True, "passed": 1, "failed": 0}


def test_check_all_runs_one_orientation_pass(capsys, monkeypatch):
    # stanley and rising-pairs both read the orientation counts: one inverse serves both
    import setmaps.checks as checks
    from setmaps.ring import SetMap

    inverses = []
    inverse = SetMap.inverse
    monkeypatch.setattr(SetMap, "inverse", lambda self: inverses.append(self.n) or inverse(self))
    checks._orientation_counts.cache_clear()
    status, out, _ = run_cli(capsys, "verify", "--check", "all", "--graph", f"{GRAPHS}/c8.txt")
    assert status == 0 and json.loads(out)["result"]["all_pass"] is True
    assert inverses == [8]


def test_cap_reaches_every_stage_of_the_rising_pairs_check(capsys, tmp_path):
    # K7: the vertex cap of 7 reaches the expansion and the kernel runs, on 21 edges
    path = tmp_path / "k7.txt"
    path.write_text(Graph.complete(7).to_text())
    status, out, _ = run_cli(capsys, "verify", "--check", "rising-pairs", "--graph", str(path), "--cap", "7")
    assert status == 0
    assert json.loads(out)["result"]["passed"] == 1


def test_power_check_takes_the_kernel_cap(capsys, monkeypatch, tmp_path):
    status, out, _ = run_cli(capsys, "verify", "--check", "power", "--graph", f"{GRAPHS}/c8.txt")
    assert status == 0
    assert json.loads(out)["result"]["all_pass"] is True
    path = tmp_path / "g18.txt"
    path.write_text(random_graphs(18, 1, seed=0x16, p=0.3)[0].to_text())
    sizes = spy_on_tables(monkeypatch)
    status, out, err = run_cli(capsys, "verify", "--check", "power", "--graph", str(path))
    assert status == 3
    assert out == "" and "power check over 18 vertices exceeds cap 17" in err
    assert sizes == []


def test_power_check_takes_a_large_k_in_few_products(capsys):
    start = time.perf_counter()
    status, out, _ = run_cli(capsys, "verify", "--check", "power", "--graph", f"{GRAPHS}/c5.txt", "--k", "1000000")
    assert time.perf_counter() - start < 1.0  # one composition, not 999999 set-map products
    assert status == 0
    assert json.loads(out)["checks"] == [{"name": "power x0=2 y0=1000000", "pass": True}]


def test_cap_reaches_the_tail_forest_enumeration(capsys):
    # 8 blocks, one over the cap; k = 6 and 7 keep the raised runs small
    blocks = ("--blocks", "1,1,1,1,1,1,1,1")
    status, out, err = run_cli(capsys, "oracle", "tail-forests", *blocks, "--k", "6")
    assert status == 3 and out == ""
    assert err == "error: tail-forest enumeration over 8 blocks exceeds cap 7\n"
    status, out, err = run_cli(capsys, "oracle", "tail-forests", *blocks, "--k", "6", "--cap", "8")
    assert status == 0
    assert json.loads(out)["result"]["count"] == 21 * 8**2  # C(7, 5) * 8^(8 - 6)
    assert "9^8 = 43046721 tail sets" in err
    status, out, _ = run_cli(capsys, "verify", "--check", "tail-forests", *blocks, "--k", "7", "--cap", "8")
    assert status == 0
    assert json.loads(out)["result"] == {"all_pass": True, "passed": 1, "failed": 0}


def test_tail_forest_cap_warning_prices_blocks_alone(capsys):
    # weight 9: no cap reads the weight, and the warning prices blocks alone
    argv = ("oracle", "tail-forests", "--blocks", "3,3,3", "--k", "1", "--cap", "9")
    status, out, err = run_cli(capsys, *argv)
    assert status == 0
    assert json.loads(out)["result"]["count"] == 9**2  # C(2, 0) * 9^(3 - 1)
    assert err == (
        "warning: cap override 9; tail-forest enumeration over 9 blocks tries up to "
        "10^9 = 1000000000 tail sets\n"
    )


def test_verify_builds_the_table_over_the_subset_only(capsys, monkeypatch):
    sizes = spy_on_tables(monkeypatch)
    status, out, _ = run_cli(
        capsys, "verify", "--check", "binomial", "--graph", f"{GRAPHS}/c8.txt", "--subset", "7"
    )
    assert status == 0
    assert sizes == [3]
    assert json.loads(out)["result"]["all_pass"] is True


def test_verify_all_on_a_subset_within_every_cap(capsys):
    # 6 of c8's 8 vertices, within every check's cap
    status, out, _ = run_cli(
        capsys, "verify", "--check", "all", "--graph", f"{GRAPHS}/c8.txt", "--subset", "63"
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["result"]["all_pass"] is True
    assert payload["input"]["subset"] == 63


def test_closed_stdout_exits_cleanly():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "setmaps", "chromatic", "--graph", f"{GRAPHS}/k3.txt"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "graph, extra",
    [
        (Graph.cycle(9), ("--basis", "nope")),  # over the orientation caps
        (Graph.complete(7), ("--cap", "6", "--x", "0")),  # over every check's lowered cap
        (Graph.complete(6), ("--cap", "6", "--k", "0")),
    ],
)
def test_usage_errors_come_before_caps(capsys, monkeypatch, tmp_path, graph, extra):
    path = tmp_path / "g.txt"
    path.write_text(graph.to_text())
    sizes = spy_on_tables(monkeypatch)
    status, out, err = run_cli(capsys, "verify", "--check", "all", "--graph", str(path), *extra)
    assert status == 2
    assert out == "" and "exceeds cap" not in err
    assert sizes == []


def test_tail_forests_honour_the_subset(capsys):
    blocks = ("--blocks", "2,1,1")
    status, out, err = run_cli(capsys, "verify", "--check", "tail-forests", *blocks, "--subset", "99")
    assert status == 2 and out == "" and "block subset 99 outside 3 blocks" in err
    status, out, err = run_cli(capsys, "oracle", "tail-forests", *blocks, "--k", "1", "--subset", "99")
    assert status == 2 and out == "" and "block subset 99 outside 3 blocks" in err
    # --subset 3 keeps the blocks of sizes 2 and 1: two blocks of weight 3
    status, out, _ = run_cli(capsys, "verify", "--check", "tail-forests", *blocks, "--subset", "3")
    payload = json.loads(out)
    assert status == 0 and payload["input"]["blocks"] == [2, 1, 1]
    assert [c["name"] for c in payload["checks"]] == ["tail-forests k=1", "tail-forests k=2"]
    status, out, _ = run_cli(capsys, "oracle", "tail-forests", *blocks, "--k", "1", "--subset", "3")
    assert status == 0 and json.loads(out)["result"]["count"] == 3  # C(1, 0) * 3^1
    status, _, err = run_cli(capsys, "verify", "--check", "tail-forests", *blocks, "--subset", "0")
    assert status == 2 and "at least one block" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--check", "closed-form", "--blocks", "2,1,1"),
        ("verify", "--check", "forest-count", "--blocks", "2,1,1", "--k", "1"),
        ("verify", "--check", "tail-forests", "--blocks", "2,1,1"),
        ("oracle", "tail-forests", "--blocks", "2,1,1", "--k", "1"),
    ],
)
def test_block_commands_echo_the_subset_only_when_given(capsys, argv):
    status, out, _ = run_cli(capsys, *argv)
    assert status == 0 and "subset" not in json.loads(out)["input"]
    status, out, _ = run_cli(capsys, *argv, "--subset", "3")
    payload = json.loads(out)
    assert status == 0
    assert payload["input"]["blocks"] == [2, 1, 1] and payload["input"]["subset"] == 3


@pytest.mark.parametrize(
    "extra, a, x0, y0",
    [((), ("0", "1"), "2", "2"), (("--x", "3/2", "--k", "3"), ("3/2", "3/2"), "3/2", "3")],
)
def test_verify_all_runs_every_graph_check_in_order(capsys, extra, a, x0, y0):
    status, out, _ = run_cli(capsys, "verify", "--check", "all", "--graph", f"{GRAPHS}/c5.txt", *extra)
    assert status == 0
    families = ("monomial", "falling:1", "falling:-1", "falling:2", "rising", "abel:0", "abel:1", "logfamily")
    assert [check["name"] for check in json.loads(out)["checks"]] == [
        "binomial-type",
        *(f"expansion {family}" for family in families),
        "rising-pairs",
        "abel-one",
        "stable-counts",
        f"derivative a={a[0]}",
        f"evaluation a={a[1]}",
        f"power x0={x0} y0={y0}",
        "stanley",
    ]


# what a --cap 7 warning says of each stage it prices
_TABLE = "the chromatic table sums over at most (3^7-1)/2 = 1093 (subset, color class) pairs"
_KERNEL = "the block-sum kernel takes about 2^7*7 = 896 int products"
_BASIS = "the change of basis takes about 2^7*7 = 896 products of counts and constants"
_PARTITIONS = "a partition oracle enumerates Bell(7) = 877 set partitions"
_BASES = "the expansion check runs that kernel once per basis, eight times without --basis"
_POWER = (
    "the power check makes 2*2^7 = 256 table evaluations and one composition of at most 7 powers"
    " of 2^7 int products each"
)
_ORIENTATIONS = "orientation enumeration over 7 edges touches up to 2^7 = 128 orientations"
_TAILS = "tail-forest enumeration over 7 blocks tries up to 8^7 = 2097152 tail sets"
_ABEL = "the Abel polynomial over 7 blocks raises x + w to the power 6 in about 7^2 = 49 int products"
# at --cap 0 the power is 0, never -1
_ABEL_0 = "the Abel polynomial over 0 blocks raises x + w to the power 0 in about 0^2 = 0 int products"
_C5 = ("--graph", f"{GRAPHS}/c5.txt")
_BLOCKS = ("--blocks", "2,1,1")


@pytest.mark.parametrize(
    "argv, priced",
    [
        (("expand", *_C5, "--basis", "rising"), (_TABLE, _BASIS)),
        (("verify", "--check", "binomial", *_C5), (_TABLE, _KERNEL)),
        (("verify", "--check", "expansion", *_C5), (_TABLE, _KERNEL, _BASES)),
        (("verify", "--check", "rising-pairs", *_C5), (_TABLE, _KERNEL)),
        (("verify", "--check", "abel-one", *_C5), (_TABLE, _KERNEL)),
        (("verify", "--check", "stable-counts", *_C5), (_TABLE, _KERNEL)),
        (("verify", "--check", "derivative", *_C5), (_TABLE, _KERNEL)),
        (("verify", "--check", "evaluation", *_C5), (_TABLE, _KERNEL)),
        (("verify", "--check", "power", *_C5), (_TABLE, _POWER)),
        (("verify", "--check", "stanley", *_C5), (_TABLE, _KERNEL)),
        (("verify", "--check", "all", *_C5), (_TABLE, _KERNEL, _BASES, _POWER)),
        (("verify", "--check", "closed-form", *_BLOCKS), (_KERNEL,)),
        (("verify", "--check", "forest-count", *_BLOCKS), (_KERNEL,)),
        (("verify", "--check", "tail-forests", *_BLOCKS), (_TAILS,)),
        (("oracle", "colorings", *_C5, "--x", "3"), (_PARTITIONS,)),
        (("oracle", "acyclic", *_C5), (_ORIENTATIONS,)),
        (("oracle", "stable-partitions", *_C5), (_PARTITIONS,)),
        (("oracle", "unique-sink", *_C5, "--sink", "0"), (_ORIENTATIONS,)),
        (("oracle", "sink-source", *_C5, "--source", "0", "--sink", "1"), (_ORIENTATIONS,)),
        (("oracle", "tail-forests", *_BLOCKS, "--k", "1"), (_TAILS,)),
        (("chromatic", *_C5), (_TABLE,)),
        (("abel", *_BLOCKS), (_ABEL,)),
    ],
)
def test_cap_warning_lines_are_pinned(capsys, argv, priced):
    status, _, err = run_cli(capsys, *argv, "--cap", "7")
    assert status == 0
    assert err == f"warning: cap override 7; {'; '.join(priced)}\n"


def test_abel_cap_zero_prices_no_negative_power(capsys):
    status, out, err = run_cli(capsys, "abel", *_BLOCKS, "--subset", "0", "--cap", "0")
    assert status == 0 and json.loads(out)["result"]["coefficients"] == ["1"]
    assert err == f"warning: cap override 0; {_ABEL_0}\n"
    status, out, err = run_cli(capsys, "abel", *_BLOCKS, "--cap", "0")
    assert status == 3 and out == ""
    assert err == f"warning: cap override 0; {_ABEL_0}\nerror: Abel polynomial over 3 blocks exceeds cap 0\n"


@pytest.mark.parametrize("check", ["abel-one", "derivative", "evaluation", "expansion"])
def test_expansion_checks_run_to_the_block_sum_cap(capsys, monkeypatch, tmp_path, check):
    # 9 vertices: over the old cap of 8; 18: over the block-sum kernel's cap of 17
    paths = {}
    for n in (9, 18):
        paths[n] = tmp_path / f"g{n}.txt"
        paths[n].write_text(random_graphs(n, 1, seed=n, p=0.3)[0].to_text())
    status, out, _ = run_cli(capsys, "verify", "--check", check, "--graph", str(paths[9]))
    runs = 8 if check == "expansion" else 1  # the expansion check: one per standard basis
    assert status == 0 and json.loads(out)["result"] == {"all_pass": True, "passed": runs, "failed": 0}
    # --cap governs the row
    status, out, err = run_cli(capsys, "verify", "--check", check, "--graph", str(paths[9]), "--cap", "8")
    assert status == 3 and out == "" and err.endswith(f"error: {check} check over 9 vertices exceeds cap 8\n")
    sizes = spy_on_tables(monkeypatch)
    status, out, err = run_cli(capsys, "verify", "--check", check, "--graph", str(paths[18]))
    assert status == 3 and out == "" and err == f"error: {check} check over 18 vertices exceeds cap 17\n"
    assert sizes == []  # the cap comes before the table


def test_expand_parses_the_basis_before_its_cap(capsys, monkeypatch, tmp_path):
    path = tmp_path / "g18.txt"
    path.write_text(random_graphs(18, 1, seed=0x16, p=0.3)[0].to_text())
    sizes = spy_on_tables(monkeypatch)
    status, out, err = run_cli(capsys, "expand", "--graph", str(path), "--basis", "nope")
    assert status == 2
    assert out == "" and err.startswith("error: ") and "exceeds cap" not in err
    assert sizes == []


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--check", "all", "--blocks", "2,1"),
        ("verify", "--check", "closed-form", *_C5),
        ("expand", *_C5, "--basis", "nope"),
        ("oracle", "unique-sink", *_C5),
        ("verify", "--check", "power", *_C5, "--k", "0"),
        ("chromatic", *_C5, "--subset", "32"),
        ("abel", *_BLOCKS, "--subset", "8"),
    ],
)
def test_usage_errors_come_before_the_cap_warning(capsys, argv):
    status, out, err = run_cli(capsys, *argv, "--cap", "5")
    assert status == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--check", "forest-count", "--blocks", "2,1", "--k", "5", "--cap", "3"),
        ("verify", "--check", "tail-forests", "--blocks", "2,1", "--k", "0", "--cap", "3"),
        ("oracle", "tail-forests", "--blocks", "2,1", "--k", "9", "--cap", "3"),
        # past the default caps: the k is refused first
        ("verify", "--check", "tail-forests", "--blocks", ",".join(["1"] * 8), "--k", "0"),
        ("verify", "--check", "forest-count", "--blocks", ",".join(["1"] * 18), "--k", "99"),
    ],
)
def test_block_commands_refuse_k_before_the_cap(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: the component count k must be in 1..n on at least one block: got k = ")


@pytest.mark.parametrize(
    "argv, refused",
    [
        (("verify", "--check", "closed-form", "--blocks", "2,1", "--k", "99"), "check 'closed-form' does not read --k"),
        (
            ("verify", "--check", "binomial", "--graph", f"{GRAPHS}/k3.txt", "--k", "99"),
            "check 'binomial' does not read --k",
        ),
        (
            ("verify", "--check", "stanley", "--graph", f"{GRAPHS}/k3.txt", "--basis", "rising"),
            "check 'stanley' does not read --basis",
        ),
        (("oracle", "acyclic", "--graph", f"{GRAPHS}/k3.txt", "--k", "3"), "oracle 'acyclic' does not read --k"),
        (("oracle", "acyclic", "--graph", f"{GRAPHS}/k3.txt", "--sink", "0"), "oracle 'acyclic' does not read --sink"),
        (
            ("oracle", "unique-sink", "--graph", f"{GRAPHS}/k3.txt", "--source", "1", "--sink", "0"),
            "oracle 'unique-sink' does not read --source",
        ),
        (
            ("oracle", "tail-forests", "--blocks", "2,1", "--k", "1", "--graph", f"{GRAPHS}/k3.txt"),
            "oracle 'tail-forests' does not read --graph",
        ),
        (
            ("verify", "--check", "binomial", "--graph", f"{GRAPHS}/k3.txt", "--blocks", "2,1"),
            "check 'binomial' does not read --blocks",
        ),
        (
            ("verify", "--check", "all", "--graph", f"{GRAPHS}/k3.txt", "--blocks", "2,1"),
            "check 'all' does not read --blocks",
        ),
        (
            ("verify", "--check", "closed-form", "--blocks", "2,1", "--graph", f"{GRAPHS}/k3.txt"),
            "check 'closed-form' does not read --graph",
        ),
        # a flag the command's parser does not declare is refused by the same line
        (
            ("verify", "--check", "binomial", "--graph", f"{GRAPHS}/k3.txt", "--source", "0"),
            "check 'binomial' does not read --source",
        ),
        (
            ("verify", "--check", "binomial", "--graph", f"{GRAPHS}/k3.txt", "--sink=0", "--source", "0"),
            "check 'binomial' does not read --source",
        ),
        (("abel", "--blocks", "2,1", "--graph", f"{GRAPHS}/k3.txt"), "command 'abel' does not read --graph"),
        (
            ("chromatic", "--graph", f"{GRAPHS}/k3.txt", "--basis", "rising"),
            "command 'chromatic' does not read --basis",
        ),
        (
            ("expand", "--graph", f"{GRAPHS}/k3.txt", "--basis", "rising", "--k=2"),
            "command 'expand' does not read --k",
        ),
        (
            ("oracle", "colorings", "--graph", f"{GRAPHS}/k3.txt", "--x", "3", "--basis", "rising"),
            "oracle 'colorings' does not read --basis",
        ),
        # declared or not, the first unread flag in the flag table's order is named
        (
            ("verify", "--check", "binomial", "--graph", f"{GRAPHS}/k3.txt", "--basis", "rising", "--source", "0"),
            "check 'binomial' does not read --basis",
        ),
        (
            ("verify", "--check", "closed-form", "--blocks", "2,1", "--graph", f"{GRAPHS}/k3.txt", "--source", "1"),
            "check 'closed-form' does not read --graph",
        ),
        (
            ("verify", "--check", "all", "--graph", f"{GRAPHS}/k3.txt", "--blocks", "2,1", "--source", "1"),
            "check 'all' does not read --blocks",
        ),
        # an unknown check is refused before any flag
        (
            ("verify", "--check", "nope", "--graph", f"{GRAPHS}/k3.txt", "--source", "0"),
            f"unknown check 'nope'; expected one of {cli._CHECK_NAMES} (or 'all' with --graph)",
        ),
        # the falling factorials of step 0 are not a basis; every other graph check takes a = 0
        *(
            (
                ("verify", "--check", check, "--graph", f"{GRAPHS}/k3.txt", "--x", "0"),
                "check 'evaluation' needs a nonzero --x, the falling-factorial step",
            )
            for check in ("evaluation", "all")
        ),
    ],
)
def test_a_flag_the_check_does_not_read_is_a_usage_error(capsys, argv, refused):
    # before the warning and the caps: the lowered cap would refuse every one of them
    status, out, err = run_cli(capsys, *argv, "--cap", "1")
    assert status == 2 and out == ""
    assert err == f"error: {refused}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("chromatic", "--graph", f"{GRAPHS}/k3.txt", "--bogus", "1"),
        ("verify", "--check", "binomial", "--graph", f"{GRAPHS}/k3.txt", "--sourc", "0"),
        ("abel", "--blocks", "2,1", "extra"),
    ],
)
def test_any_other_unknown_argument_gets_the_parsers_own_error(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as exited:
        cli.build_parser().parse_args(list(argv))
    assert status == exited.value.code == 2 and out == ""
    assert err == capsys.readouterr().err and "error: unrecognized arguments: " in err


def test_the_check_tables_and_the_refusals_name_only_flags_of_the_parser():
    import argparse

    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {
        name: {option[2:] for option in p._option_string_actions if option.startswith("--")}
        for name, p in commands.items()
    }
    # every flag a check or oracle reads, and the input flag of its kind, is an option of its command
    for command, tables in (("verify", (cli.GRAPH_CHECKS, cli.BLOCK_CHECKS)), ("oracle", (cli.ORACLES,))):
        assert {"graph", "blocks"} <= options[command]
        for table in tables:
            for name, (_, flags) in table.items():
                assert set(flags) <= options[command], (command, name)
    # a refusal can name every declared flag but the ones every name reads: the
    # checks of each kind that read nothing but their input flag refuse the rest
    declared = set().union(*options.values()) - {"help", "check"}
    refused = set()
    for check in ("binomial", "closed-form"):
        ns = argparse.Namespace(command="verify", check=check, **dict.fromkeys(declared, 1))
        while (refusal := cli._refusal(ns, set())) is not None:
            flag = re.fullmatch(rf"check '{check}' does not read --(.*)", refusal)[1]
            refused.add(flag)
            setattr(ns, flag, None)
    assert refused == declared - {"subset", "format", "cap"}


def test_check_all_takes_every_flag_one_of_its_checks_reads(capsys):
    argv = ("--graph", f"{GRAPHS}/k3.txt", "--k", "2", "--x", "3", "--basis", "rising")
    status, out, err = run_cli(capsys, "verify", "--check", "all", *argv)
    assert status == 0 and err == ""
    assert "expansion rising" in [check["name"] for check in json.loads(out)["checks"]]


@pytest.mark.parametrize(
    "argv",
    [
        ("chromatic", "--graph", f"{GRAPHS}/k3.txt"),
        ("expand", "--graph", f"{GRAPHS}/k3.txt", "--basis", "rising"),
        ("verify", "--check", "binomial", "--graph", f"{GRAPHS}/k3.txt"),
        ("verify", "--check", "closed-form", "--blocks", "2,1"),
        ("oracle", "acyclic", "--graph", f"{GRAPHS}/k3.txt"),
        ("abel", "--blocks", "2,1"),
    ],
)
def test_a_negative_cap_is_refused_while_parsing(capsys, argv):
    status, out, err = run_cli(capsys, *argv, "--cap", "-1")
    assert status == 2 and out == ""
    assert err.endswith(": error: argument --cap: cap must be nonnegative, got -1\n")
    assert "warning" not in err


def _readme_cli_lines() -> list[str]:
    """The command lines of the README's CLI example block."""
    text = (Path(GRAPHS).parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("setmaps ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_each_readme_cli_example_prints_one_json_document(capsys, monkeypatch, line):
    monkeypatch.chdir(Path(GRAPHS).parent)  # its graph paths are relative to the repository
    status, out, err = run_cli(capsys, *line.split()[1:])
    assert status == 0 and err == "", line
    assert isinstance(json.loads(out), dict), line


def test_the_readme_cli_block_has_every_command():
    assert {line.split()[1] for line in _readme_cli_lines()} == set(cli._DISPATCH)


def _readme_caps() -> list[tuple[str, str, int]]:
    """Each cap the README states as `module.NAME = value`, or as `NAME = value`
    of the module it names for NAME elsewhere."""
    text = (Path(GRAPHS).parent / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"`(?:(\w+)\.)?([A-Z][A-Z_]*_CAP) = (\d+)`", text)
    home = {name: module for module, name, _ in stated if module}
    return [(module or home.get(name, ""), name, int(value)) for module, name, value in stated]


@pytest.mark.parametrize("module, name, value", _readme_caps())
def test_each_readme_cap_matches_the_code(module, name, value):
    assert module, f"the README never names the module of {name}"
    assert getattr(importlib.import_module(f"setmaps.{module}"), name) == value


def test_the_readme_states_every_cap():
    texts = [path.read_text(encoding="utf-8") for path in Path(cli.__file__).parent.glob("*.py")]
    defined = {name for text in texts for name in re.findall(r"^([A-Z_]+_CAP) = ", text, re.M)}
    assert {name for _, name, _ in _readme_caps()} == defined
