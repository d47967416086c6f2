"""Expansion theorem, coefficient interpretations, and power identity."""

from fractions import Fraction
from math import factorial, perm, prod
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setmaps.abel import BlockPartition, abel_setmap
import setmaps.algebra as algebra
from setmaps.algebra import compose
import setmaps.checks as checks
import setmaps.cli as cli
from setmaps.checks import (
    _orientation_counts,
    _stable_sets,
    check_binomial_type,
    verify_power_identity,
    verify_rising_orientation_pairs,
    verify_stable_count_expansion,
    verify_stanley_evaluation,
)
from setmaps.expansions import expand, expansion_reconstructs
from setmaps.kernel import full_block_sums
import setmaps.graphs as graphs
from setmaps.graphs import Graph, chromatic_setmap
from setmaps.oracles import count_acyclic_orientations, count_stable_partitions, deletion_contraction
from setmaps.poly import Poly
from setmaps.ring import BLOCK_SUM_CAP, CapExceeded, SetMap, partitions_of, subsets_of
from setmaps.umbral import (
    AbelPolynomials,
    FallingFactorials,
    Functional,
    LogPolynomials,
    Monomials,
    RisingFactorials,
    family_from_string,
    standard_families,
)

from _corpus import graphs_through, iso_classes, random_graphs
from conftest import random_fraction, random_table


def monomial_type_map(n: int) -> SetMap:
    return SetMap.from_function(n, lambda S: Poly.monomial(S.bit_count()))


# ---------------------------------------------------------------------------
# binomial-type checking
# ---------------------------------------------------------------------------


def grid_holds(values: list) -> bool:
    """The binomial-type identity from every polynomial value, by the subset sum
    p_S(x+y) = sum over T in S of p_T(x) p_(S-T)(y) on the grid of its degree."""
    degree = max(0, max(q.degree for q in values))
    grid = range(degree + 1)
    evals = [[q(s) for s in range(2 * degree + 1)] for q in values]
    return all(
        evals[S][x + y] == sum(evals[T][x] * evals[S ^ T][y] for T in subsets_of(S))
        for S in range(len(values))
        for x in grid
        for y in grid
    )


def power_by_products(values: list, x0, y0: int) -> bool:
    """The power identity from every polynomial value, by y0 - 1 set-map products."""
    n = len(values).bit_length() - 1
    at = [SetMap(n, [q(x) for q in values]) for x in (x0, x0 * y0)]
    power = at[0]
    for _ in range(y0 - 1):
        power = power * at[0]
    return power == at[1]


def test_chromatic_maps_are_binomial_type():
    for g in graphs_through(4):
        assert check_binomial_type(chromatic_setmap(g))


def test_zero_map_is_binomial_type():
    zero = SetMap.constant(3, Poly.zero())
    assert check_binomial_type(zero)


def test_perturbed_power_map_is_not_binomial_type():
    p = monomial_type_map(3)
    assert check_binomial_type(p)
    table = list(p.table)
    table[0b011] = table[0b011] + 1
    assert not check_binomial_type(SetMap(3, table))


def test_binomial_check_cap():
    with pytest.raises(CapExceeded):
        check_binomial_type(monomial_type_map(BLOCK_SUM_CAP + 1))


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(standard_families() + (AbelPolynomials(Fraction(3, 4)),)),
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool),
            min_size=1 << n,
            max_size=1 << n,
        )
    ),
    st.data(),
)
def test_the_binomial_check_agrees_with_the_subset_sum_grid(family, table, data):
    n = len(table).bit_length() - 1
    values = list(compose(family.members(n), SetMap(n, [0] + table[1:])).table)
    # moving x^1 at the full set keeps the type; moving x^j at T with j != 1 adds
    # delta ((x + y)^j - x^j - y^j) to the identity at T, which is -delta at j = 0
    mask = data.draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    degree = data.draw(st.sampled_from([0, *range(2, n + 2)]))
    delta = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))
    moved = list(values)
    moved[mask] += Poly.monomial(degree) * delta
    # 0 on the empty set: the identity at a singleton v reads p_v(x + y) = 0
    unborn = [Poly.zero(), *values[1:]]
    for table, holds in ((values, True), (moved, False), (unborn, False)):
        assert (check_binomial_type(SetMap(n, table)), grid_holds(table)) == (holds, holds)


@pytest.mark.parametrize("S", [0, 0b00111, 0b11111])
@pytest.mark.parametrize("k", ["0", "2", "|S|"])
def test_the_binomial_check_refuses_a_chromatic_table_with_one_count_moved(S, k):
    # the table's own coordinates, the counts s_k(S) in the falling factorials, which the
    # monomial maps above never reach: one count one higher is not of binomial type
    g = Graph.cycle(5)
    assert check_binomial_type(chromatic_setmap(g))
    assert not check_binomial_type(miscount(g, S, S.bit_count() if k == "|S|" else int(k), 1))


def test_binomial_check_refuses_rational_values():
    # the chromatic table of C4 evaluated at 3/2: one Fraction per subset
    values = chromatic_setmap(Graph.cycle(4)).map_values(lambda q: q(Fraction(3, 2)))
    with pytest.raises(TypeError, match="polynomial values only"):
        check_binomial_type(values)


# ---------------------------------------------------------------------------
# expansion and its aggregates
# ---------------------------------------------------------------------------


def test_k2_monomial_coefficients_by_hand():
    # derivative-at-0 coefficients: 1 on singletons, -1 on the pair, and
    # x^2 * 1 + x * (-1) rebuilds the chromatic polynomial
    exp = expand(chromatic_setmap(Graph.complete(2)), Monomials())
    assert exp.coeffs[0b01] == 1
    assert exp.coeffs[0b10] == 1
    assert exp.coeffs[0b11] == -1
    assert exp.coeffs[0] == 0
    assert exp.reconstruct() == Poly((0, -1, 1))


def test_expand_empty_subset_reconstructs_one():
    exp = expand(chromatic_setmap(Graph.complete(2).restrict(0)), Monomials())
    assert exp.by_length() == (Fraction(1),)
    assert exp.reconstruct() == Poly.one()


def test_k2_falling_coefficients_are_stability_indicators():
    exp = expand(chromatic_setmap(Graph.complete(2)), FallingFactorials(1))
    assert exp.coeffs[0b01] == 1 and exp.coeffs[0b10] == 1
    assert exp.coeffs[0b11] == 0  # the edge makes the pair unstable
    assert exp.by_length() == (0, 0, 1)
    assert exp.reconstruct() == Poly((0, -1, 1))


def test_k2_rising_by_length():
    exp = expand(chromatic_setmap(Graph.complete(2)), RisingFactorials())
    assert exp.by_length() == (0, -2, 1)


def test_top_length_coefficient_is_singleton_product():
    for g in graphs_through(3):
        p = chromatic_setmap(g)
        for fam in (Monomials(), RisingFactorials(), LogPolynomials()):
            exp = expand(p, fam)
            cs = exp.by_length()
            prod = Fraction(1)
            for v in range(g.n):
                prod *= exp.coeffs[1 << v]
            assert cs[g.n] == prod


def test_expand_rejects_trivial_map():
    trivial = SetMap.constant(2, Poly.zero())
    with pytest.raises(ValueError, match="nontrivial"):
        expand(trivial, Monomials())


def test_expand_refuses_rational_values():
    values = chromatic_setmap(Graph.cycle(4)).map_values(lambda q: q(Fraction(3, 2)))
    with pytest.raises(TypeError, match="polynomial values only"):
        expand(values, Monomials())


def test_the_theorem_check_takes_the_kernel_cap():
    # expand reads a map that exists and takes no cap; the kernel's check does
    with pytest.raises(CapExceeded, match="expansion over a 4-element subset exceeds cap 3"):
        expansion_reconstructs(monomial_type_map(4), Monomials(), cap=3)


def test_reconstruct_matches_direct_partition_sum():
    # the by-length regrouping must agree with the raw per-partition sum
    for g in (Graph.complete(3), Graph.path(4), Graph.cycle(4)):
        p = chromatic_setmap(g)
        for fam in (RisingFactorials(), AbelPolynomials(1), LogPolynomials()):
            exp = expand(p, fam)
            direct = Poly.zero()
            for sigma in partitions_of(p.full_mask):
                weight = Fraction(1)
                for block in sigma:
                    weight *= exp.coeffs[block]
                direct = direct + fam.poly(len(sigma)) * weight
            assert exp.reconstruct() == direct


def test_reconstruct_and_coefficients_read_the_delta_once(monkeypatch):
    p = chromatic_setmap(Graph.cycle(5))
    exp = expand(p, LogPolynomials())
    calls = []
    delta = type(exp.family).delta
    monkeypatch.setattr(type(exp.family), "delta", lambda self, bound: calls.append(bound) or delta(self, bound))
    assert exp.reconstruct() == p[p.full_mask]
    assert calls == [5]
    assert LogPolynomials().coefficients(p[p.full_mask]) == exp.by_length()
    assert calls == [5, 5]


@pytest.fixture(scope="module")
def gnp_tables():
    """Chromatic tables of one seeded G(n, .3) per n, past brute force."""
    return {n: chromatic_setmap(random_graphs(n, 1, seed=n, p=0.3)[0]) for n in (13, 14, 15)}


@pytest.mark.parametrize("n", [13, 14, 15])
@pytest.mark.parametrize("basis", ["rising", "logfamily", "abel:3/4", "falling:-2/3"])
def test_full_set_lengths_are_the_basis_coefficients_of_the_full_polynomial(gnp_tables, n, basis):
    # p_S = sum_k c_k a_k(x) with c_k = A^k p_S / k! (Rota-Kahaner-Odlyzko):
    # an oracle for the kernel's full-set readout that needs no partitions;
    # at n = 15 the slot width counts ordered set compositions, 12-17 bits
    # narrower than a count of all k-tuples of subsets
    p, family = gnp_tables[n], family_from_string(basis)
    assert expand(p, family).by_length() == family.coefficients(p[p.full_mask])


def test_a_library_expand_reads_a_table_past_the_kernel_cap(capsys, tmp_path):
    # the library reads the table it is given; the command refuses before it builds one
    g = random_graphs(18, 1, seed=18, p=0.5)[0]
    assert g.n == BLOCK_SUM_CAP + 1
    p, family = chromatic_setmap(g), RisingFactorials()
    assert expand(p, family).by_length() == family.coefficients(p[p.full_mask])
    path = tmp_path / "g18.txt"
    path.write_text(g.to_text())
    assert cli.main(["expand", "--graph", str(path), "--basis", "rising"]) == 3
    assert capsys.readouterr() == ("", "error: expansion over 18 vertices exceeds cap 17\n")


def basis_composite(exp):
    """compose((a_k), A p): the expansion theorem re-summed on every subset."""
    return compose(exp.family.members(exp.coeffs.n), exp.coeffs)


def test_restricted_reconstruction_shares_one_coefficient_pass():
    p = chromatic_setmap(Graph.cycle(4))
    assert basis_composite(expand(p, RisingFactorials())) == p


def test_mix_reconstruction_all_families_small_corpus():
    families = standard_families() + (AbelPolynomials(-1),)
    corpus = list(graphs_through(4)) + random_graphs(6, 8, seed=0x515)
    for g in corpus:
        p = chromatic_setmap(g)
        for fam in families:
            assert basis_composite(expand(p, fam)) == p, (g, str(fam))


def test_mix_reconstruction_on_abel_type_map():
    # a binomial-type map that is not a chromatic set map
    from setmaps.abel import BlockPartition, abel_setmap

    p = abel_setmap(BlockPartition((2, 1, 3)))
    for fam in (Monomials(), RisingFactorials(), FallingFactorials(2)):
        assert expansion_reconstructs(p, fam)
        assert basis_composite(expand(p, fam)) == p, str(fam)


# ---------------------------------------------------------------------------
# functional action on binomial-type maps
# ---------------------------------------------------------------------------


def test_functional_action_factorizes(rng):
    # L M p = (L p) * (M p) as set maps, for the chromatic map
    for g in (Graph.complete(3), Graph.path(4), Graph.cycle(4)):
        p = chromatic_setmap(g)
        bound = g.n
        for _ in range(20):
            L = Functional([random_fraction(rng) for _ in range(bound + 1)])
            M = Functional([random_fraction(rng) for _ in range(bound + 1)])
            lhs = p.map_values(L * M)
            rhs = p.map_values(L) * p.map_values(M)
            assert lhs == rhs


def test_functional_powers_count_ordered_partitions():
    # (A^k) p_S = k! sum over k-block partitions of prod A p_T
    for g in list(graphs_through(4))[:10] + random_graphs(5, 3, seed=0xAEC):
        p = chromatic_setmap(g)
        fam = RisingFactorials()
        exp = expand(p, fam)
        bound = max(1, max(v.degree for v in p.table))
        A = fam.delta(bound)
        for k in range(5):
            Ak = A**k
            for S in range(1 << g.n):
                total = Fraction(0)
                for sigma in partitions_of(S):
                    if len(sigma) != k:
                        continue
                    prod = Fraction(1)
                    for block in sigma:
                        prod *= exp.coeffs[block]
                    total += prod
                assert Ak(p[S]) == factorial(k) * total


def test_theta_bijection_round_trip(rng):
    # composing a basis with a rational map and applying its functional
    # entrywise must invert each other
    for fam in standard_families():
        for _ in range(5):
            n = rng.randint(1, 5)
            table = random_table(rng, n, first=0)
            h = SetMap(n, table)
            polys = [fam.poly(k) for k in range(n + 1)]
            p = compose(polys, h)
            assert check_binomial_type(p)
            A = fam.delta(max(1, n))
            assert p.map_values(A) == h
            assert p[0] == Poly.one()


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(standard_families() + (AbelPolynomials(-1), FallingFactorials(Fraction(1, 2)))),
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=3),
            min_size=1 << n,
            max_size=1 << n,
        )
    ),
)
def test_basis_composite_re_sums_in_every_family(source, table):
    # p = compose((F.poly(k)), h) is of binomial type for any h with h_0 = 0;
    # its expansion in every other family G must re-sum to p on every subset
    n = len(table).bit_length() - 1
    h = SetMap(n, [Fraction(0)] + table[1:])
    p = compose([source.poly(k) for k in range(n + 1)], h)
    for fam in standard_families():
        assert basis_composite(expand(p, fam)) == p, (str(source), str(fam))


# ---------------------------------------------------------------------------
# chromatic coefficient interpretations
# ---------------------------------------------------------------------------


def with_table(verifier, graph, **kw):
    return verifier(graph, chromatic_setmap(graph), **kw)


def test_rising_orientation_pairs_k2_by_hand():
    assert with_table(verify_rising_orientation_pairs, Graph.complete(2))


def test_rising_orientation_pairs_edgeless_and_k3():
    assert with_table(verify_rising_orientation_pairs, Graph.edgeless(3))
    assert with_table(verify_rising_orientation_pairs, Graph.complete(3))


def test_rising_orientation_pairs_small_corpus():
    for g in graphs_through(4):
        for S in range(1 << g.n):
            assert with_table(verify_rising_orientation_pairs, g.restrict(S))


def test_abel_one_expansion_examples():
    for g in (Graph.complete(2), Graph.complete(3), Graph(1)):  # singleton: x * chi'(1)
        assert expansion_reconstructs(chromatic_setmap(g), AbelPolynomials(1))


def test_stable_count_expansion_examples():
    assert with_table(verify_stable_count_expansion, Graph.complete(2))
    assert with_table(verify_stable_count_expansion, Graph.path(3))
    assert with_table(verify_stable_count_expansion, Graph(1))


def test_chromatic_expansion_modes():
    # derivative at a is the Abel basis, evaluation at a the falling basis
    k2 = chromatic_setmap(Graph.complete(2))
    assert expansion_reconstructs(k2, AbelPolynomials(0))
    assert expansion_reconstructs(k2, FallingFactorials(1))
    k3 = chromatic_setmap(Graph.complete(3))
    assert expansion_reconstructs(k3, FallingFactorials(-1))
    assert expansion_reconstructs(k3, AbelPolynomials(Fraction(1, 2)))


def test_chromatic_expansion_rejects_zero_evaluation_point():
    with pytest.raises(ValueError, match="nonzero"):
        FallingFactorials(0)


def test_stanley_verifier_small_corpus():
    for g in graphs_through(4):
        assert with_table(verify_stanley_evaluation, g)


def assert_counts_match_the_oracles(g):
    orientations = _orientation_counts(g)
    # all-ones terms sum the block sums over every block count
    stable = compose([1] * (g.n + 1), SetMap(g.n, [0, *_stable_sets(g)[1:]]))
    for T in range(1 << g.n):
        induced = g.restrict(T)
        assert orientations[T] == count_acyclic_orientations(induced), (g, T)
        assert stable[T] == count_stable_partitions(induced), (g, T)


def test_counting_sides_match_the_oracles_on_small_graphs():
    for g in graphs_through(5):
        assert_counts_match_the_oracles(g)


@st.composite
def small_graphs(draw, max_n: int):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else [])


@settings(max_examples=100, deadline=None)
@given(small_graphs(max_n=8))
def test_counting_sides_match_the_oracles(g):
    assert_counts_match_the_oracles(g)


def test_graph_verifiers_check_their_caps_before_reading_the_table():
    # reading the table None would raise TypeError, not CapExceeded
    with pytest.raises(CapExceeded, match="over 18 vertices exceeds cap 17"):
        verify_rising_orientation_pairs(Graph.path(18), None)
    with pytest.raises(CapExceeded, match="over 18 vertices exceeds cap 17"):
        verify_stable_count_expansion(Graph.path(18), None)
    with pytest.raises(CapExceeded, match="over 18 vertices exceeds cap 17"):
        verify_stanley_evaluation(Graph.path(18), None)  # 17 edges: the cap counts vertices
    with pytest.raises(CapExceeded):
        verify_stanley_evaluation(Graph.complete(4), None, cap=3)


def corrupted_c4_tables() -> tuple:
    """Three corrupted chromatic tables of the 4-cycle: two plain tables and a
    count table."""
    c4 = Graph.cycle(4)
    # x^2 on the full set breaks binomial type; c*x would not, and the
    # expansion verifiers could not see it
    table = list(chromatic_setmap(c4).table)
    table[-1] = table[-1] + Poly.monomial(2)
    full = SetMap(c4.n, table)
    # on a proper subset x does break it, and A x != 0 for every delta functional A;
    # the path 0-1-2 gets x^3 - 2x^2 + 2x
    table = list(chromatic_setmap(c4).table)
    table[0b0111] = table[0b0111] + Poly.x()
    proper = SetMap(c4.n, table)
    # a count table that finds the edge {0, 1} stable: chi = x^2 there, in counts and in values
    miscounted = miscount(c4, 0b0011, 1, 1)
    assert miscounted[0b0011] == Poly.monomial(2) and miscounted.coordinates()[1][1][0b0011] == 1
    return full, proper, miscounted


def test_verifiers_reject_a_corrupted_chromatic_table():
    c4 = Graph.cycle(4)
    full, proper, miscounted = corrupted_c4_tables()
    for p in (full, proper, miscounted):
        # the coefficients of every subset, against the kernel or a count of the graph
        for a in (0, 1, -1):
            assert not expansion_reconstructs(p, AbelPolynomials(a)), a
        for a in (1, -1, 2):
            assert not expansion_reconstructs(p, FallingFactorials(a)), a
        for family in standard_families():
            assert not expansion_reconstructs(p, family), str(family)
        assert not verify_stable_count_expansion(c4, p)
        assert not verify_stanley_evaluation(c4, p)
    # the orientation pairs are a claim on the full set's coordinates alone
    assert not verify_rising_orientation_pairs(c4, full)
    assert verify_rising_orientation_pairs(c4, proper) and verify_rising_orientation_pairs(c4, miscounted)


def test_the_stable_count_check_sums_the_partitions_on_the_kernel():
    # B (x)_k = 1 for k > 0, so x^2 - 2x = (x)_2 - (x)_1 on the full set leaves every
    # coefficient at its count: only the partition sums over the kernel see it
    c4 = Graph.cycle(4)
    table = list(chromatic_setmap(c4).table)
    table[-1] = table[-1] + Poly((0, -2, 1))
    p = SetMap(c4.n, table)
    assert expand(p, LogPolynomials()).coeffs == expand(chromatic_setmap(c4), LogPolynomials()).coeffs
    assert not verify_stable_count_expansion(c4, p)


# ---------------------------------------------------------------------------
# power identity
# ---------------------------------------------------------------------------


def test_power_identity_trivial_exponent(rng):
    p = chromatic_setmap(Graph.path(3))
    assert verify_power_identity(p, random_fraction(rng), 1)


def test_power_identity_k2_squared():
    # chi table at 2, squared, equals the table at 4: both sides by hand
    p = chromatic_setmap(Graph.complete(2))
    evaluated = p.map_values(lambda q: q(Fraction(2)))
    squared = evaluated * evaluated
    assert squared[3] == Fraction(12) == deletion_contraction(Graph.complete(2))(4)
    assert verify_power_identity(p, 2, 2)


def test_power_identity_k3_cubed():
    assert verify_power_identity(chromatic_setmap(Graph.complete(3)), 1, 3)


def test_power_identity_rejects_bad_exponent():
    p = chromatic_setmap(Graph.complete(2))
    with pytest.raises(ValueError):
        verify_power_identity(p, 2, 0)


@pytest.mark.parametrize("x0", [2, Fraction(2), Fraction(-6, 3)])
def test_power_identity_evaluates_a_whole_point_at_an_int(monkeypatch, x0):
    tables = []  # every value table that the linear read of the coordinates returns
    read = checks.linear_read

    def spy(columns, weights, n):
        out = read(columns, weights, n)
        tables.append(out)
        return out

    monkeypatch.setattr(checks, "linear_read", spy)
    assert verify_power_identity(chromatic_setmap(Graph.cycle(5)), x0, 3)
    assert len(tables) == 2 and all(len(table) == 32 for table in tables)  # at x0 and at 3 x0
    assert all(type(v) is int for table in tables for v in table)


@pytest.mark.parametrize("x0", [2, Fraction(3), Fraction(1, 2)])
def test_power_identity_rejects_one_perturbed_value(x0):
    p = chromatic_setmap(Graph.cycle(5))
    table = list(p.table)
    table[0b10110] = table[0b10110] + Poly.x()
    assert verify_power_identity(p, x0, 2)
    assert not verify_power_identity(SetMap(p.n, table), x0, 2)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 1000, 2**20 - 1])
def test_power_identity_is_one_composition(monkeypatch, k):
    calls, products = [], []
    compose_ = algebra.compose
    monkeypatch.setattr(algebra, "compose", lambda terms, inner: calls.append(terms) or compose_(terms, inner))
    mul = SetMap.__mul__
    monkeypatch.setattr(SetMap, "__mul__", lambda self, other: products.append(k) or mul(self, other))
    assert verify_power_identity(chromatic_setmap(Graph.cycle(5)), 2, k)
    # the table at 2 is 1 on the empty set: terms (k)_j 1^(k-j), the int 0 past k
    assert calls == [[perm(k, j) if j <= k else 0 for j in range(6)]] and products == []
    assert all(type(a) is int for a in calls[0])


def through(base: list, power: list, x0, y0: int) -> SetMap:
    """The table of lines through (x0, base[T]) and (x0 y0, power[T]): constants at y0 = 1."""
    n = len(base).bit_length() - 1
    if y0 == 1:
        return SetMap(n, [Poly((b,)) for b in base])
    slopes = [Fraction(c - b) / (x0 * y0 - x0) for b, c in zip(base, power)]
    return SetMap(n, [Poly((b - m * x0, m)) for b, m in zip(base, slopes)])


@pytest.mark.parametrize("x0", [2, Fraction(1, 3), -2])
def test_the_power_identity_agrees_with_repeated_products(rng, x0):
    n = 4
    chi = chromatic_setmap(random_graphs(n, 1, seed=0x40, p=0.5)[0])
    base = SetMap(n, [2, *(random_fraction(rng) for _ in range(1, 1 << n))])  # 2 on the empty set
    for y0 in range(1, n + 3):
        power = base
        for _ in range(y0 - 1):
            power = power * base
        line = through(list(base.table), list(power.table), x0, y0)
        moved = list(line.table)
        moved[rng.randrange(1, 1 << n)] += Poly.one()
        for p, holds in ((chi, True), (line, True), (SetMap(n, moved), y0 == 1)):
            values = [p[T] for T in range(1 << n)]
            assert (verify_power_identity(p, x0, y0), power_by_products(values, x0, y0)) == (holds, holds)


def test_power_identity_cap():
    # the composition runs on the block-sum kernel, under its cap of 17
    with pytest.raises(CapExceeded):
        verify_power_identity(monomial_type_map(18), 1, 2)


# ---------------------------------------------------------------------------
# the coordinates, and the linear reads against the values they replaced
# ---------------------------------------------------------------------------


def resum(p: SetMap) -> list:
    """Every value re-summed from its coordinates: sum_j columns[j][T] b_j."""
    basis, columns = p.coordinates()
    return [sum((b * c[T] for b, c in zip(basis, columns) if c[T]), Poly.zero()) for T in range(1 << p.n)]


@settings(max_examples=25, deadline=None)
@given(small_graphs(max_n=10))
def test_a_chromatic_table_resums_its_counts_in_the_falling_factorials(g):
    p = chromatic_setmap(g)
    basis, columns = p.coordinates()
    assert basis == FallingFactorials(1).members(g.n) and len(columns) == g.n + 1
    assert resum(p) == [p[T] for T in range(1 << g.n)]
    assert all(type(c) is int and c >= 0 for column in columns for c in column)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(standard_families() + (AbelPolynomials(Fraction(3, 4)),)),
    st.integers(min_value=0, max_value=6).flatmap(
        lambda n: st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=1 << n, max_size=1 << n
        )
    ),
)
def test_a_composition_resums_its_monomial_coordinates(source, table):
    n = len(table).bit_length() - 1
    p = compose(source.members(n), SetMap(n, [Fraction(0)] + table[1:]))
    basis, columns = p.coordinates()
    assert basis == [Poly.monomial(j) for j in range(len(basis))]
    assert resum(p) == list(p.table)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), max_size=7))
def test_an_abel_map_resums_its_monomial_coordinates(sizes):
    p = abel_setmap(BlockPartition(sizes))
    assert resum(p) == list(p.table)


@st.composite
def held_maps(draw):
    """A graph on n <= 6 vertices, a map on its vertices (the graph's chromatic table, a
    composition with Poly terms, a family's members or random, or one with int terms)
    and the plain SetMap of the map's values, taken by deletion-contraction or by the
    sum over the set partitions of each mask."""
    graph = draw(small_graphs(max_n=6))
    n = graph.n
    kind = draw(st.sampled_from(["chromatic", "family", "poly", "int"]))
    if kind == "chromatic":
        values = [deletion_contraction(graph.restrict(S)) for S in range(1 << n)]
        return graph, chromatic_setmap(graph), SetMap(n, values)
    inner = [0, *draw(st.lists(st.integers(-3, 3), min_size=(1 << n) - 1, max_size=(1 << n) - 1))]
    if kind == "family":
        terms = draw(st.sampled_from(standard_families())).members(n)
    else:
        term = st.lists(st.integers(-3, 3), max_size=3).map(Poly) if kind == "poly" else st.integers(-3, 3)
        terms = draw(st.lists(term, min_size=n + 1, max_size=n + 1))
    values = [sum((terms[len(sigma)] * prod(inner[B] for B in sigma) for sigma in partitions_of(S)), 0 * terms[0])
              for S in range(1 << n)]
    return graph, compose(terms, SetMap(n, inner)), SetMap(n, values)


def readings(graph: Graph, p: SetMap, family, x0, y0: int) -> tuple:
    """What each coordinate reader makes of p, or the type of the error it raises."""
    def outcome(read):
        try:
            return read()
        except (TypeError, ValueError) as exc:  # values that are not polynomials; p_empty != 1
            return type(exc)

    exp = outcome(lambda: expand(p, family))
    return (
        exp if isinstance(exp, type) else (exp.coeffs, exp.lengths),
        outcome(lambda: check_binomial_type(p)),
        outcome(lambda: verify_power_identity(p, x0, y0)),
        outcome(lambda: verify_stanley_evaluation(graph, p)),
    )


def trimmed(p: SetMap) -> tuple:
    """p's coordinates as lists, without their trailing all-zero columns."""
    basis, columns = p.coordinates()
    columns = [list(column) for column in columns]
    while columns and not any(columns[-1]):
        columns.pop()
    return basis[: len(columns)], columns


@settings(max_examples=80, deadline=None)
@given(held_maps(), st.sampled_from(standard_families()), st.sampled_from([2, -1, Fraction(1, 2)]),
       st.integers(1, 3))
def test_a_map_that_holds_its_coordinates_agrees_with_the_plain_map_of_its_values(drawn, family, x0, y0):
    graph, p, plain = drawn
    masks = range(1 << p.n)
    for _ in range(2):  # each read before the whole table is built, then after
        assert [p[S] for S in masks] == list(plain.table)
        for mask in (-1, 1 << p.n):
            with pytest.raises(IndexError, match=f"mask {mask} outside ground set of size {p.n}"):
                p[mask]
        assert readings(graph, p, family, x0, y0) == readings(graph, plain, family, x0, y0)
        if isinstance(p[0], Poly):
            # a chromatic table holds its counts in the falling factorials, a composition
            # its coefficient columns in the monomials
            assert resum(p) == list(plain.table)
            basis = p.coordinates()[0]
            if basis == [Poly.monomial(j) for j in range(len(basis))]:
                assert trimmed(p) == trimmed(plain)
        assert p == plain and plain == p and p.table == plain.table
        assert p + plain == plain + p == plain + plain and p - plain == plain - p == plain - plain
    assert p.table is p.table


def verdicts(graph: Graph, p: SetMap, x0, y0: int, binomial: bool) -> tuple:
    """power, stanley and, when asked, binomial: the linear reads of the coordinates."""
    return (
        verify_power_identity(p, x0, y0),
        verify_stanley_evaluation(graph, p),
        check_binomial_type(p) if binomial else None,
    )


def verdicts_by_values(graph: Graph, p: SetMap, x0, y0: int, binomial: bool) -> tuple:
    """The same verdicts from every value p[T], built and evaluated one by one, the
    power by y0 - 1 products and the binomial identity on the grid of its degree."""
    masks, values = range(1 << p.n), [p[T] for T in range(1 << p.n)]
    counts = _orientation_counts(graph)
    stanley = all((-1) ** T.bit_count() * values[T](-1) == counts[T] for T in masks)
    return power_by_products(values, x0, y0), stanley, grid_holds(values) if binomial else None


def miscount(g: Graph, mask: int, slot: int, by: int) -> SetMap:
    """The chromatic table of g with the count s_slot(mask) raised by ``by``:
    chi at ``mask`` gains by * (x)_slot, in its counts and in its values."""
    counts = graphs._stable_partition_counts(g)
    counts[mask] += by << graphs._SLOT * slot
    with patch.object(graphs, "_stable_partition_counts", lambda graph: counts):
        return chromatic_setmap(g)


def test_the_linear_reads_give_the_verdicts_of_the_values_on_every_graph_of_up_to_7_vertices():
    # the 3^n grid of the binomial check on each of the 1044 graphs of 7 vertices would take
    # about 13 s a route, so it runs through 6 vertices here and on Hypothesis graphs below
    for n in range(8):
        for g in iso_classes(n):
            tables = [chromatic_setmap(g)]
            if 2 <= n <= 5:  # x on {0, 1}: binomial type breaks on a proper subset only
                tables.append(miscount(g, 0b11, 1, 1))
            for p in tables:
                assert verdicts(g, p, 2, 3, n <= 6) == verdicts_by_values(g, p, 2, 3, n <= 6), g


@settings(max_examples=40, deadline=None)
@given(
    small_graphs(max_n=10),
    st.sampled_from([2, -1, 3, Fraction(1, 2), Fraction(-5, 3)]),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_the_linear_reads_give_the_verdicts_of_the_values_on_miscounted_tables(g, x0, y0, data):
    p = chromatic_setmap(g)
    if g.n and data.draw(st.booleans()):
        mask = data.draw(st.integers(min_value=1, max_value=g.vertex_mask))
        slot = data.draw(st.integers(min_value=0, max_value=mask.bit_count()))
        p = miscount(g, mask, slot, data.draw(st.integers(min_value=1, max_value=3)))
    binomial = g.n <= 8  # the grid check's 3^n (n + 1)^2 terms: about 1.5 s a route at 10
    assert verdicts(g, p, x0, y0, binomial) == verdicts_by_values(g, p, x0, y0, binomial)


def test_the_linear_reads_give_the_verdicts_of_the_values_on_corrupted_tables():
    c4 = Graph.cycle(4)
    seen = set()
    for p in corrupted_c4_tables():
        for x0, y0 in ((2, 2), (Fraction(1, 2), 3), (-1, 1)):
            seen.add(verdicts(c4, p, x0, y0, True))
            assert verdicts(c4, p, x0, y0, True) == verdicts_by_values(c4, p, x0, y0, True)
    assert (False, False, False) in seen and (True, False, False) in seen


# ---------------------------------------------------------------------------
# the change of basis against the route it replaced
# ---------------------------------------------------------------------------

KERNEL_ROUTE_BASES = [str(f) for f in standard_families()] + ["abel:3/4", "falling:-2/3", "falling:1/1000003"]


def assert_kernel_route(p: SetMap, basis: str) -> None:
    """``expand`` equals the route it replaced: the delta functional on every
    value, and the kernel's partition sums of those coefficients."""
    family = family_from_string(basis)
    exp = expand(p, family)
    functional = family.delta(max(1, max(q.degree for q in p.table)))
    assert exp.coeffs.table == tuple(map(functional, p.table)), basis
    assert exp.lengths == full_block_sums(exp.coeffs.table), basis


@settings(max_examples=25, deadline=None)
@given(small_graphs(max_n=10))
def test_change_of_basis_matches_the_kernel_route_on_chromatic_tables(g):
    p = chromatic_setmap(g)
    for basis in KERNEL_ROUTE_BASES:
        assert_kernel_route(p, basis)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(standard_families() + (AbelPolynomials(Fraction(3, 4)), FallingFactorials(Fraction(-2, 3)))),
    st.integers(min_value=0, max_value=6).flatmap(
        lambda n: st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=4),
            min_size=1 << n,
            max_size=1 << n,
        )
    ),
)
def test_change_of_basis_matches_the_kernel_route_on_compositions(source, table):
    # p = compose(members, h) is of binomial type with Fraction coefficients: the monomial route
    n = len(table).bit_length() - 1
    p = compose(source.members(n), SetMap(n, [Fraction(0)] + table[1:]))
    for basis in KERNEL_ROUTE_BASES:
        assert_kernel_route(p, basis)


@pytest.mark.parametrize("n", [13, 14, 15])
def test_change_of_basis_matches_the_kernel_route_past_brute_force(gnp_tables, n):
    for basis in KERNEL_ROUTE_BASES:
        assert_kernel_route(gnp_tables[n], basis)


def test_a_count_table_and_its_values_expand_alike():
    # the counts route (a chromatic table) and the monomial route (the same values, eagerly)
    g = random_graphs(9, 1, seed=9, p=0.4)[0]
    lazy = chromatic_setmap(g)
    basis, columns = lazy.coordinates()
    assert len(basis) == len(columns) == 10 and all(len(column) == 1 << 9 for column in columns)
    assert lazy.coordinates()[1] is columns  # unpacked once
    eager = SetMap(g.n, lazy.table)
    # a table whose values were all built first still reads its counts
    built = chromatic_setmap(g)
    assert built.table == eager.table and built.coordinates() == (basis, columns)
    for basis in KERNEL_ROUTE_BASES:
        family = family_from_string(basis)
        a, b, c = expand(lazy, family), expand(eager, family), expand(built, family)
        assert a.coeffs == b.coeffs == c.coeffs and a.lengths == b.lengths == c.lengths, basis
