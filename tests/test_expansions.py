"""Expansion theorem, coefficient interpretations, and power identity."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setmaps.algebra import compose
from setmaps.checks import (
    check_binomial_type,
    verify_power_identity,
    verify_rising_orientation_pairs,
    verify_stable_count_expansion,
    verify_stanley_evaluation,
)
from setmaps.expansions import expand, expansion_reconstructs
from setmaps.graphs import Graph, chromatic_poly, chromatic_setmap
from setmaps.poly import Poly
from setmaps.ring import CapExceeded, SetMap, partitions_of
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

from _corpus import graphs_through, random_graphs
from conftest import random_fraction, random_table


def monomial_type_map(n: int) -> SetMap:
    return SetMap.from_function(n, lambda S: Poly.monomial(S.bit_count()))


# ---------------------------------------------------------------------------
# binomial-type checking
# ---------------------------------------------------------------------------


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
        check_binomial_type(monomial_type_map(8))


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


def test_expand_subset_cap():
    with pytest.raises(CapExceeded):
        expand(monomial_type_map(4), Monomials(), cap=3)


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
    assert expand(p, family, cap=n).by_length() == family.coefficients(p[p.full_mask])


def basis_composite(exp):
    """compose((a_k), A p): the expansion theorem re-summed on every subset."""
    n = exp.coeffs.n
    return compose([exp.family.poly(k) for k in range(n + 1)], exp.coeffs)


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


def test_graph_verifiers_check_their_caps_before_reading_the_table():
    # reading the table None would raise TypeError, not CapExceeded
    with pytest.raises(CapExceeded, match="over 9 vertices exceeds cap 8"):
        verify_rising_orientation_pairs(Graph.path(9), None)
    with pytest.raises(CapExceeded, match="over 12 vertices exceeds cap 11"):
        verify_stable_count_expansion(Graph.path(12), None)
    with pytest.raises(CapExceeded, match="over 9 vertices exceeds cap 8"):
        verify_stanley_evaluation(Graph.path(9), None)  # 8 edges: the cap counts vertices
    with pytest.raises(CapExceeded):
        verify_stanley_evaluation(Graph.complete(4), None, cap=3)


def test_stable_count_check_hands_its_cap_to_the_oracle(monkeypatch):
    import setmaps.oracles as oracles

    caps = []
    count = oracles.count_stable_partitions

    def spy(graph, *cap):
        caps.append(cap)
        return count(graph, *cap)

    monkeypatch.setattr(oracles, "count_stable_partitions", spy)
    assert with_table(verify_stable_count_expansion, Graph.path(3), cap=13)
    assert caps == [(13,)] * 7  # one call per nonempty subset


def test_verifiers_reject_a_corrupted_chromatic_table():
    # x^2 on the full set breaks binomial type; c*x would not, and the
    # expansion verifiers could not see it
    c4 = Graph.cycle(4)
    table = list(chromatic_setmap(c4).table)
    table[-1] = table[-1] + Poly.monomial(2)
    p = SetMap(c4.n, table)
    assert not verify_rising_orientation_pairs(c4, p)
    assert not expansion_reconstructs(p, AbelPolynomials(1))
    assert not verify_stable_count_expansion(c4, p)
    for a in (0, 1, -1):
        assert not expansion_reconstructs(p, AbelPolynomials(a)), a
    for a in (1, -1, 2):
        assert not expansion_reconstructs(p, FallingFactorials(a)), a
    assert not verify_stanley_evaluation(c4, p)


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
    assert squared[3] == Fraction(12) == chromatic_poly(Graph.complete(2))(4)
    assert verify_power_identity(p, 2, 2)


def test_power_identity_k3_cubed():
    assert verify_power_identity(chromatic_setmap(Graph.complete(3)), 1, 3)


def test_power_identity_rejects_bad_exponent():
    p = chromatic_setmap(Graph.complete(2))
    with pytest.raises(ValueError):
        verify_power_identity(p, 2, 0)


@pytest.mark.parametrize("x0", [2, Fraction(2), Fraction(-6, 3)])
def test_power_identity_evaluates_a_whole_point_at_an_int(monkeypatch, x0):
    tables = []  # every value table that map_values returns
    map_values = SetMap.map_values

    def spy(self, fn):
        out = map_values(self, fn)
        tables.append(out.table)
        return out

    monkeypatch.setattr(SetMap, "map_values", spy)
    assert verify_power_identity(chromatic_setmap(Graph.cycle(5)), x0, 3)
    assert len(tables) == 2  # at x0 and at 3 x0
    assert all(type(v) is int for table in tables for v in table)


@pytest.mark.parametrize("x0", [2, Fraction(3), Fraction(1, 2)])
def test_power_identity_rejects_one_perturbed_value(x0):
    p = chromatic_setmap(Graph.cycle(5))
    table = list(p.table)
    table[0b10110] = table[0b10110] + Poly.x()
    assert verify_power_identity(p, x0, 2)
    assert not verify_power_identity(SetMap(p.n, table), x0, 2)


def test_power_identity_cap():
    # the products run on the block-sum kernel, under its cap of 17
    with pytest.raises(CapExceeded):
        verify_power_identity(monomial_type_map(18), 1, 2)
