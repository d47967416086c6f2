"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line with its measured runtime; budgets
are asserted, and every expected value is either trivially forced,
independently derived in-test, or brute-forced by an oracle that does
not share a computation path with what it checks.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import setmaps.cli as cli
from setmaps.abel import BlockPartition, count_tail_forests, verify_closed_form_partition_sum
from setmaps.algebra import compose, decompose, recover_sequence
from setmaps.checks import (
    check_binomial_type,
    verify_power_identity,
    verify_rising_orientation_pairs,
    verify_stable_count_expansion,
    verify_stanley_evaluation,
)
from setmaps.expansions import expand, expansion_reconstructs
from setmaps.graphs import chromatic_setmap
from setmaps.oracles import chromatic_by_interpolation, deletion_contraction, subgraph_expansion
from setmaps.ring import SetMap, partitions_of, sequence_product
from setmaps.umbral import AbelPolynomials, FallingFactorials, standard_families

from _corpus import graphs_through, labeled_graphs, random_graphs
from _oracles import egf_to_series, series_compose, series_mul, series_to_egf
from conftest import random_fraction, random_table

import random
from itertools import combinations_with_replacement
from math import comb

GRAPHS_DIR = str(Path(__file__).resolve().parent.parent / "graphs")


class budget:
    """Context manager asserting a wall-clock budget and printing the verdict."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"{self.label}: PASS ({elapsed:.1f}s, budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, f"{self.label} exceeded budget: {elapsed:.1f}s"
        return False


def acceptance_corpus():
    return list(graphs_through(5)) + random_graphs(5, 50, seed=0xACCE5)


def test_criterion_01_chromatic_maps_are_binomial_type():
    with budget("criterion 1 (binomial type of the chromatic set map)", 30):
        for g in acceptance_corpus():
            assert check_binomial_type(chromatic_setmap(g)), g


def test_criterion_02_expansion_reconstructs_in_every_family():
    with budget("criterion 2 (expansion re-sums in every family)", 60):
        families = standard_families()
        for g in acceptance_corpus():
            p = chromatic_setmap(g)
            for family in families:
                # the expansion theorem on every subset: p = compose((a_k), A p)
                basis = [family.poly(k) for k in range(g.n + 1)]
                assert compose(basis, expand(p, family).coeffs) == p, (g, str(family))


def test_criterion_03_rising_coefficients_count_orientation_pairs():
    with budget("criterion 3 (rising coefficients vs orientation pairs)", 60):
        for g in graphs_through(4):
            for S in range(1 << g.n):
                local = g.restrict(S)
                assert verify_rising_orientation_pairs(local, chromatic_setmap(local)), (g, S)
        for g in random_graphs(5, 20, seed=0xB4E11):
            assert verify_rising_orientation_pairs(g, chromatic_setmap(g)), g


def test_criterion_04_chromatic_expansion_suites():
    with budget("criterion 4 (expansion suites and oracle cross-checks)", 60):
        for g in acceptance_corpus():
            p = chromatic_setmap(g)
            assert expansion_reconstructs(p, AbelPolynomials(1)), g
            assert verify_stable_count_expansion(g, p), g
            for a in (Fraction(0), Fraction(1), Fraction(-1)):
                assert expansion_reconstructs(p, AbelPolynomials(a)), (g, a)
            for a in (Fraction(1), Fraction(-1), Fraction(2)):
                assert expansion_reconstructs(p, FallingFactorials(a)), (g, a)
            assert verify_stanley_evaluation(g, p), g


def test_criterion_05_randomized_algebra_laws():
    rng = random.Random(0x5EED5)
    with budget("criterion 5 (randomized ring and composition laws)", 30):
        corpus = graphs_through(4)
        families = standard_families()
        for trial in range(200):
            n = rng.randint(2, 7)

            # ring axioms
            g = SetMap(n, random_table(rng, n))
            h = SetMap(n, random_table(rng, n))
            k = SetMap(n, random_table(rng, n))
            assert g * h == h * g
            assert (g * h) * k == g * (h * k)
            assert g * (h + k) == g * h + g * k
            assert g * SetMap.unit(n) == g

            # multiplicative inverse
            inv_input = SetMap(n, random_table(rng, n, first=1))
            assert inv_input * inv_input.inverse() == SetMap.unit(n)

            # composition is a ring morphism in the sequence argument
            a = [random_fraction(rng) for _ in range(n + 1)]
            b = [random_fraction(rng) for _ in range(n + 1)]
            inner = SetMap(n, random_table(rng, n, first=0))
            assert compose(sequence_product(a, b), inner) == compose(a, inner) * compose(b, inner)

            # functional action factorizes on chromatic maps
            graph = corpus[trial % len(corpus)]
            p = chromatic_setmap(graph)
            bound = max(1, graph.n)
            from setmaps.umbral import Functional

            L = Functional([random_fraction(rng) for _ in range(bound + 1)])
            M = Functional([random_fraction(rng) for _ in range(bound + 1)])
            assert p.map_values(L * M) == p.map_values(L) * p.map_values(M)

            # basis composition and entrywise functional invert each other
            fam = families[trial % len(families)]
            bij_n = rng.randint(1, 5)
            bij_h = SetMap(bij_n, random_table(rng, bij_n, first=0))
            polys = [fam.poly(j) for j in range(bij_n + 1)]
            composed = compose(polys, bij_h)
            assert composed.map_values(fam.delta(max(1, bij_n))) == bij_h

            # decompose and recover round trips
            terms = [random_fraction(rng) for _ in range(n + 1)]
            if terms[1] == 0:
                terms[1] = Fraction(1)
            terms[0] = inner.table[0]
            assert decompose(compose(terms, inner), terms) == inner
            rec_table = random_table(rng, n, first=0)
            for v in range(n):
                if rec_table[1 << v] == 0:
                    rec_table[1 << v] = Fraction(1, 2)
            rec_inner = SetMap(n, rec_table)
            assert recover_sequence(compose(terms, rec_inner), rec_inner, n) == tuple(terms)


def test_criterion_06_egf_correspondence():
    rng = random.Random(0xE6F)
    with budget("criterion 6 (EGF product and composition)", 10):
        degree = 8
        full_checks = 0
        for trial in range(100):
            a = [Fraction(rng.randint(-9, 9)) for _ in range(degree + 1)]
            b = [Fraction(rng.randint(-9, 9)) for _ in range(degree + 1)]

            product = SetMap.from_sequence(degree, a) * SetMap.from_sequence(degree, b)
            expected_product = series_to_egf(
                series_mul(egf_to_series(a), egf_to_series(b), degree)
            )
            binomial = sequence_product(a, b)
            for size in range(degree + 1):
                assert product[(1 << size) - 1] == expected_product[size] == binomial[size]

            b[0] = Fraction(0)
            composed_series = series_to_egf(
                series_compose(egf_to_series(a), egf_to_series(b), degree)
            )
            if trial < 3:
                # full-table check: compose is constant on cardinality here
                composed = compose(a, SetMap.from_sequence(degree, b))
                for S in range(1 << degree):
                    assert composed[S] == composed_series[S.bit_count()]
                full_checks += 1
            else:
                # representative subset per cardinality, the partition sum on
                # ints (the terms are integers) against the series and compose
                composed = compose(a, SetMap.from_sequence(degree, b))
                ints_a = [int(v) for v in a]
                ints_b = [int(v) for v in b]
                for size in range(degree + 1):
                    mask = (1 << size) - 1
                    acc = 0
                    for sigma in partitions_of(mask):
                        term = ints_a[len(sigma)]
                        for block in sigma:
                            term *= ints_b[block.bit_count()]
                        acc += term
                    assert acc == composed_series[size] == composed[mask]
        assert full_checks == 3


def test_criterion_07_abel_identities_and_tail_forests():
    with budget("criterion 7 (Abel closed form, partition sums, tail forests)", 60):
        for count in range(1, 7):
            for sizes in combinations_with_replacement((1, 2, 3), count):
                bp = BlockPartition(sizes)
                assert verify_closed_form_partition_sum(bp), sizes
                assert all(verify_closed_form_partition_sum(bp, k) for k in range(1, count + 1)), sizes
        for count in range(1, 5):
            for sizes in combinations_with_replacement(range(1, 9), count):
                bp = BlockPartition(sizes)
                for k in range(1, count + 1):
                    expected = comb(count - 1, k - 1) * bp.weight ** (count - k)
                    assert count_tail_forests(bp, k) == expected, (sizes, k)


def test_criterion_08_three_chromatic_routes_agree():
    with budget("criterion 8 (route agreement on all small labeled graphs)", 30):
        total = 0
        for n in range(6):
            for g in labeled_graphs(n, max_edges=8):
                reference = deletion_contraction(g)
                assert subgraph_expansion(g) == reference, g
                assert chromatic_by_interpolation(g) == reference, g
                total += 1
        assert total == 1 + 1 + 2 + 8 + 64 + (1024 - 10 - 1)


def test_criterion_09_integer_power_identity():
    with budget("criterion 9 (integer-power identity)", 20):
        for g in graphs_through(5):
            p = chromatic_setmap(g)
            for x0 in (1, 2, 3):
                for y0 in (1, 2, 3):
                    assert verify_power_identity(p, x0, y0), (g, x0, y0)


def run_cli_capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def test_criterion_10_cli_determinism_and_exit_codes():
    with budget("criterion 10 (CLI determinism and exit codes)", 60):
        documented = [
            ["chromatic", "--graph", f"{GRAPHS_DIR}/k2.txt"],
            ["chromatic", "--graph", f"{GRAPHS_DIR}/k3.txt", "--format", "table"],
            ["chromatic", "--graph", f"{GRAPHS_DIR}/c5.txt", "--subset", "7"],
            ["expand", "--graph", f"{GRAPHS_DIR}/k2.txt", "--basis", "rising"],
            ["expand", "--graph", f"{GRAPHS_DIR}/c4.txt", "--basis", "falling:1"],
            ["expand", "--graph", f"{GRAPHS_DIR}/diamond.txt", "--basis", "logfamily", "--format", "table"],
            ["verify", "--check", "all", "--graph", f"{GRAPHS_DIR}/k3.txt"],
            ["verify", "--check", "binomial", "--graph", f"{GRAPHS_DIR}/c5.txt"],
            ["verify", "--check", "expansion", "--graph", f"{GRAPHS_DIR}/p4.txt", "--basis", "abel:1"],
            ["verify", "--check", "rising-pairs", "--graph", f"{GRAPHS_DIR}/c4.txt", "--format", "table"],
            ["verify", "--check", "stable-counts", "--graph", f"{GRAPHS_DIR}/p3.txt"],
            ["verify", "--check", "derivative", "--graph", f"{GRAPHS_DIR}/k4.txt", "--x", "1"],
            ["verify", "--check", "evaluation", "--graph", f"{GRAPHS_DIR}/k4.txt", "--x", "-1"],
            ["verify", "--check", "power", "--graph", f"{GRAPHS_DIR}/c4.txt", "--x", "2", "--k", "3"],
            ["verify", "--check", "stanley", "--graph", f"{GRAPHS_DIR}/diamond.txt"],
            ["verify", "--check", "closed-form", "--blocks", "2,1,1"],
            ["verify", "--check", "forest-count", "--blocks", "2,1"],
            ["verify", "--check", "tail-forests", "--blocks", "2,1,1"],
            ["oracle", "colorings", "--graph", f"{GRAPHS_DIR}/k3.txt", "--x", "3"],
            ["oracle", "acyclic", "--graph", f"{GRAPHS_DIR}/k3.txt"],
            ["oracle", "stable-partitions", "--graph", f"{GRAPHS_DIR}/empty3.txt"],
            ["oracle", "unique-sink", "--graph", f"{GRAPHS_DIR}/k3.txt", "--sink", "0"],
            ["oracle", "sink-source", "--graph", f"{GRAPHS_DIR}/k2.txt", "--source", "0", "--sink", "1"],
            ["oracle", "tail-forests", "--blocks", "1,1", "--k", "1"],
            ["abel", "--blocks", "2,1"],
            ["abel", "--blocks", "3,2,1", "--subset", "3", "--format", "table"],
        ]
        for argv in documented:
            first = run_cli_capture(argv)
            second = run_cli_capture(argv)
            assert first == second, argv
            assert first[0] == 0, (argv, first)
            if "--format" not in argv:
                payload = json.loads(first[1])
                assert list(payload) == ["command", "input", "result", "checks"]

        # exit codes: usage/parse errors
        assert run_cli_capture(["bogus"])[0] == 2
        assert run_cli_capture(["chromatic", "--graph", f"{GRAPHS_DIR}/nope.txt"])[0] == 2
        assert run_cli_capture(["expand", "--graph", f"{GRAPHS_DIR}/k2.txt", "--basis", "zzz"])[0] == 2
        # exit code: cap exceeded, and the override path with its warning
        # no bundled graph is past a default cap, so the cap is lowered below c8's 8 vertices
        status, _, _ = run_cli_capture(
            ["verify", "--check", "binomial", "--graph", f"{GRAPHS_DIR}/c8.txt", "--cap", "7"]
        )
        assert status == 3
        status, _, err = run_cli_capture(
            ["verify", "--check", "binomial", "--graph", f"{GRAPHS_DIR}/c8.txt", "--cap", "8"]
        )
        assert status == 0 and "warning" in err
