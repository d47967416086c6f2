"""Graphs, chromatic routes, and the combinatorial counting oracles."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setmaps.graphs import Graph, GraphFormatError, chromatic_poly, chromatic_setmap, parse_graph
import setmaps.graphs as graphs
from setmaps.oracles import (
    chromatic_by_interpolation,
    count_acyclic_orientations,
    count_acyclic_sink_source,
    count_acyclic_unique_sink,
    count_proper_colorings,
    count_stable_partitions,
    deletion_contraction,
    subgraph_expansion,
)
from setmaps.poly import Poly, interpolate
from setmaps.ring import CapExceeded, SetMap, partitions_of

from _corpus import _canonical_edges, classes_on, graphs_on, graphs_through, random_graphs
from _oracles import label_order_counts


def exact(poly: Poly) -> bool:
    """Every coefficient is an int or a Fraction, never a float."""
    return all(type(c) is int or isinstance(c, Fraction) for c in poly.coeffs)


def chromatic_oracle(graph: Graph) -> Poly:
    """Interpolation through backtracking coloring counts; the second opinion."""
    return interpolate([(x, count_proper_colorings(graph, x)) for x in range(graph.n + 1)])


# ---------------------------------------------------------------------------
# construction and restriction
# ---------------------------------------------------------------------------


def test_graph_rejects_loops_and_range():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError, match="outside"):
        Graph(2, [(0, 2)])


def test_graph_deduplicates_edges():
    g = Graph(3, [(0, 1), (1, 0), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))


def test_restrict_complete_graph():
    assert Graph.complete(3).restrict(0b011) == Graph.complete(2)


def test_restrict_to_empty_set():
    assert Graph.complete(3).restrict(0) == Graph(0)


def test_restrict_path_endpoints_gives_isolated_vertices():
    # path 0-1-2 restricted to {0, 2}: the middle vertex carried the edges
    assert Graph.path(3).restrict(0b101) == Graph(2)


def test_restrict_validates_mask():
    with pytest.raises(ValueError, match="outside"):
        Graph.path(3).restrict(0b1000)


def test_restrict_to_the_full_mask_is_the_graph_itself():
    graph = Graph.cycle(5)
    assert graph.restrict(graph.vertex_mask) is graph
    # any other mask relabels its vertices in order
    assert graph.restrict(0b11101) == Graph(4, [(0, 3), (1, 2), (2, 3)])


def test_iso_class_counts():
    # unlabeled simple graph counts: 1, 1, 2, 4, 11, 34
    assert [len(graphs_on(n)) for n in range(6)] == [1, 1, 2, 4, 11, 34]
    assert len(graphs_through(4)) == 19


def test_classes_by_extension_are_the_iso_classes():
    # OEIS A000088: 1, 1, 2, 4, 11, 34, 156, 1044
    assert [len(classes_on(n)) for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]
    for n in range(6):  # the same classes as the brute-force canonical form finds
        keys = {_canonical_edges(n, g.edges) for g in graphs_on(n)}
        assert {_canonical_edges(n, g.edges) for g in classes_on(n)} == keys


# ---------------------------------------------------------------------------
# chromatic polynomial routes
# ---------------------------------------------------------------------------


def test_chromatic_k2_against_coloring_oracle():
    g = Graph.complete(2)
    assert chromatic_oracle(g) == Poly((0, -1, 1))
    assert chromatic_poly(g) == Poly((0, -1, 1))


def test_chromatic_edgeless_is_pure_power():
    assert chromatic_poly(Graph.edgeless(3)) == Poly.monomial(3)


def test_chromatic_k3_against_coloring_oracle():
    g = Graph.complete(3)
    assert chromatic_oracle(g) == Poly((0, 2, -3, 1))
    assert chromatic_poly(g) == Poly((0, 2, -3, 1))


def test_subgraph_expansion_examples():
    assert subgraph_expansion(Graph.edgeless(4)) == Poly.monomial(4)
    assert subgraph_expansion(Graph.complete(2)) == Poly((0, -1, 1))
    assert subgraph_expansion(Graph.complete(3)) == Poly((0, 2, -3, 1))


def test_three_routes_agree_on_iso_classes():
    for g in graphs_through(4):
        reference = deletion_contraction(g)
        assert subgraph_expansion(g) == reference
        assert chromatic_by_interpolation(g) == reference


def test_three_routes_agree_on_random_graphs():
    for g in random_graphs(6, 12, seed=0x5E7):
        reference = deletion_contraction(g)
        assert subgraph_expansion(g) == reference
        assert chromatic_by_interpolation(g) == reference


def test_chromatic_matches_coloring_counts_pointwise():
    for g in graphs_through(4):
        poly = chromatic_poly(g)
        for x in range(g.n + 1):
            assert poly(x) == count_proper_colorings(g, x)


def test_subgraph_expansion_edge_cap():
    with pytest.raises(CapExceeded):
        subgraph_expansion(Graph.complete(7))  # 21 edges


def test_complete_graphs_match_falling_factorials():
    # chi of K_n is x(x-1)...(x-n+1)
    from setmaps.umbral import FallingFactorials

    falling = FallingFactorials(1)
    for n in range(7):
        assert deletion_contraction(Graph.complete(n)) == falling.poly(n)


def test_cycles_match_closed_form():
    # chi of C_n is (x-1)^n + (-1)^n (x-1)
    shifted = Poly((-1, 1))
    for n in range(3, 8):
        expected = shifted**n + shifted * ((-1) ** n)
        assert deletion_contraction(Graph.cycle(n)) == expected


def test_trees_match_closed_form():
    # any tree on n vertices: x(x-1)^(n-1); paths and stars both qualify
    shifted = Poly((-1, 1))
    for n in range(1, 8):
        expected = Poly.x() * shifted ** (n - 1)
        assert deletion_contraction(Graph.path(n)) == expected
        star = Graph(n, [(0, v) for v in range(1, n)])
        assert deletion_contraction(star) == expected


@st.composite
def reducible_graphs(draw, max_n: int, max_edges: int):
    """Graphs rich in what deletion-contraction peels off before it splits an
    edge: isolated vertices, pendant leaves, forests, disconnected parts.
    Labels are shuffled so those vertices sit anywhere."""
    core = draw(st.integers(0, max_n))
    isolated = draw(st.integers(0, max_n - core))
    shape = draw(st.sampled_from(("any", "forest", "leaves", "parts")))
    slots = list(combinations(range(core), 2))
    if shape == "parts":
        cut = draw(st.integers(0, core))
        slots = [(u, v) for u, v in slots if (u < cut) == (v < cut)]
    if shape == "forest":
        edges = []
    else:
        edges = draw(st.lists(st.sampled_from(slots), max_size=max_edges)) if slots else []
    if shape in ("forest", "leaves"):
        # every vertex past the first few hangs off an earlier one, or starts a tree
        start = 1 if shape == "forest" else draw(st.integers(1, max(core, 1)))
        for v in range(start, core):
            if draw(st.booleans()):
                edges.append((draw(st.integers(0, v - 1)), v))
    n = core + isolated
    label = draw(st.permutations(range(n)))
    graph = Graph(n, [(label[u], label[v]) for u, v in edges])
    return Graph(n, graph.edges[:max_edges])


@settings(max_examples=60, deadline=None)
@given(reducible_graphs(max_n=9, max_edges=14))
def test_reduced_recursion_matches_edge_subset_expansion(g):
    poly = deletion_contraction(g)
    assert exact(poly)
    assert poly == subgraph_expansion(g)


@settings(max_examples=60, deadline=None)
@given(reducible_graphs(max_n=9, max_edges=15))
def test_reduced_recursion_matches_interpolation(g):
    poly = deletion_contraction(g)
    assert exact(poly)
    assert poly == chromatic_by_interpolation(g)


@settings(max_examples=60, deadline=None)
@given(reducible_graphs(max_n=10, max_edges=20))
def test_chromatic_poly_matches_deletion_contraction(g):
    poly = chromatic_poly(g)
    assert exact(poly)
    assert poly == deletion_contraction(g)


def test_deletion_contraction_checks_its_cap_before_any_split(monkeypatch):
    import setmaps.oracles as oracles

    g = Graph.path(oracles.CHROMATIC_POLY_CAP + 1)
    splits = []
    monkeypatch.setattr(oracles, "_chromatic", lambda *a: splits.append(a))
    with pytest.raises(CapExceeded, match=f"deletion-contraction over {g.n} vertices exceeds cap"):
        deletion_contraction(g)
    assert splits == []
    monkeypatch.undo()
    assert deletion_contraction(g, cap=g.n) == Poly.x() * Poly((-1, 1)) ** (g.n - 1)


def test_table_matches_fresh_polynomials():
    # a triangle and a 4-cycle sharing vertex 2, a pendant path 5-6-8 and the
    # isolated vertex 7: top vertices with and without lower neighbors
    g = Graph(9, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (2, 5), (5, 6), (6, 8)])
    table = chromatic_setmap(g)
    for S in range(1 << g.n):
        assert table[S] == deletion_contraction(g.restrict(S)), S
        assert exact(table[S])


@st.composite
def table_graphs(draw, max_n: int):
    """The reducible shapes above, or a complete graph (edgeless on at most
    one core vertex) beside isolated vertices, labels shuffled."""
    if draw(st.booleans()):
        return draw(reducible_graphs(max_n=max_n, max_edges=3 * max_n))
    core = draw(st.integers(0, max_n))
    isolated = draw(st.integers(0, max_n - core))
    label = draw(st.permutations(range(core + isolated)))
    return Graph(core + isolated, [(label[u], label[v]) for u, v in combinations(range(core), 2)])


@settings(max_examples=60, deadline=None)
@given(table_graphs(max_n=9))
def test_table_matches_deletion_contraction_on_every_subset(g):
    table = chromatic_setmap(g)
    for S in range(1 << g.n):
        assert table[S] == deletion_contraction(g.restrict(S)), S


def test_table_closed_forms_at_scale():
    # edgeless: x^|S|; complete: (x)_|S|
    powers = [Poly.monomial(k) for k in range(15)]
    table = chromatic_setmap(Graph.edgeless(14))
    assert all(table[S] == powers[S.bit_count()] for S in range(1 << 14))
    falling = [Poly.one()]
    for k in range(12):
        falling.append(falling[-1] * Poly((-k, 1)))
    table = chromatic_setmap(Graph.complete(12))
    assert all(table[S] == falling[S.bit_count()] for S in range(1 << 12))
    assert all(exact(table[S]) for S in range(1 << 12))


# sha256 of the reprs of every table entry of the 300 graphs below, as built by
# deletion-contraction on each induced subgraph (the table route before the
# stable-set pass)
TABLE_DIGEST = "c67b26a7ada0f2898b241e6b785b926d8e3187926550e546c2314ce0130d0c93"


def test_tables_of_random_graphs_match_the_recorded_digest():
    rng = random.Random(0x7AB1E)
    digest = hashlib.sha256()
    for _ in range(300):
        n, p = rng.randint(0, 10), rng.random()
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        for poly in chromatic_setmap(g).table:
            digest.update(repr(poly).encode())
    assert digest.hexdigest() == TABLE_DIGEST


# ---------------------------------------------------------------------------
# the count pass: largest last, with the simplicial branch
# ---------------------------------------------------------------------------


def adjacency(g: Graph) -> list[int]:
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def union(*parts: Graph) -> Graph:
    """The disjoint union, each part's labels shifted past the parts before it."""
    edges, n = [], 0
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges]
        n += part.n
    return Graph(n, edges)


def chordal(n: int, rng: random.Random) -> Graph:
    """Each vertex joined to a clique among the earlier ones: read backwards, a
    perfect elimination order, so the graph is chordal; labels shuffled."""
    edges = set()
    for v in range(1, n):
        clique = []  # earlier vertices in random order, each kept when it is joined to those kept
        for u in rng.sample(range(v), rng.randint(0, v)):
            if all((w, u) in edges or (u, w) in edges for w in clique):
                clique.append(u)
        edges.update((u, v) for u in clique)
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


def count_pass_corpus() -> list[Graph]:
    """Stars with the centre at every label, paths, cycles, complete and edgeless
    graphs, disjoint unions, chordal graphs and graphs whose degrees tie."""
    out = []
    for n in range(1, 9):
        out += [Graph(n, [(c, v) for v in range(n) if v != c]) for c in range(n)]
        out += [Graph.path(n), Graph.edgeless(n), Graph.complete(min(n, 6))]
        out += [Graph.cycle(n)] if n >= 3 else []
    out += [union(Graph.complete(3), Graph.cycle(4), Graph.path(3)), union(Graph.edgeless(2), Graph.complete(4))]
    out += [union(Graph(4, [(3, v) for v in range(3)]), Graph.cycle(5))]
    rng = random.Random(0xC0D)
    out += [chordal(rng.randint(4, 9), rng) for _ in range(12)]
    # 3-regular: K_{3,3}, the 3-cube and the Petersen graph; every degree ties
    out.append(Graph(6, [(u, v) for u in range(3) for v in range(3, 6)]))
    out.append(Graph(8, [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1]))
    out.append(Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]))
    return out


def test_the_largest_last_order_is_a_deterministic_permutation():
    for g in count_pass_corpus():
        order = graphs._largest_last(adjacency(g))
        assert sorted(order) == list(range(g.n)) and order == graphs._largest_last(adjacency(g)), g
    for n in range(3, 9):
        for centre in range(n):
            star = Graph(n, [(centre, v) for v in range(n) if v != centre])
            assert graphs._largest_last(adjacency(star))[-1] == centre, star
    # ties go to the lowest label, which is placed last among them: edgeless in reverse label order
    assert graphs._largest_last(adjacency(Graph.edgeless(4))) == [3, 2, 1, 0]
    assert graphs._largest_last(adjacency(Graph.path(4))) == [3, 0, 2, 1]


def test_the_count_pass_equals_the_label_order_pass_on_every_class_through_7_vertices():
    for n in range(8):
        for g in classes_on(n):
            assert graphs._stable_partition_counts(g) == label_order_counts(g.n, g.edges), g


def test_the_count_pass_equals_the_label_order_pass_and_the_routes_on_named_graphs():
    for g in count_pass_corpus():
        assert graphs._stable_partition_counts(g) == label_order_counts(g.n, g.edges), g
        chi = chromatic_poly(g)
        assert chi == deletion_contraction(g) == chromatic_by_interpolation(g), g
        assert g.edge_count > 15 or chi == subgraph_expansion(g), g


@st.composite
def chordal_graphs(draw, max_n: int):
    return chordal(draw(st.integers(0, max_n)), random.Random(draw(st.integers(0, 2**32))))


@settings(max_examples=80, deadline=None)
@given(st.one_of(table_graphs(max_n=10), chordal_graphs(max_n=10)))
def test_the_count_pass_equals_the_label_order_pass_on_hypothesis_graphs(g):
    assert graphs._stable_partition_counts(g) == label_order_counts(g.n, g.edges)
    assert chromatic_poly(g) == deletion_contraction(g)


# ---------------------------------------------------------------------------
# chromatic set map
# ---------------------------------------------------------------------------


def test_chromatic_setmap_small_values():
    p = chromatic_setmap(Graph.complete(2))
    assert p[0] == Poly.one()
    assert p[1] == Poly.x()
    assert p[3] == Poly((0, -1, 1))


def test_chromatic_setmap_vanishes_at_zero_off_empty():
    for g in graphs_through(4):
        p = chromatic_setmap(g)
        assert p[0] == Poly.one()
        for S in range(1, 1 << g.n):
            assert p[S](0) == 0


def test_chromatic_at_one_detects_edges():
    for g in graphs_through(4):
        p = chromatic_setmap(g)
        for S in range(1 << g.n):
            expected = 1 if g.restrict(S).edge_count == 0 else 0
            assert p[S](1) == expected


def count_polys(monkeypatch) -> list:
    """Record every Poly that the graphs module builds."""
    built = []

    def spy(coeffs):
        built.append(coeffs)
        return Poly(coeffs)

    monkeypatch.setattr(graphs, "Poly", spy)
    return built


def test_reading_a_few_values_builds_only_those(monkeypatch):
    g = random_graphs(16, 1, seed=16, p=0.3)[0]
    masks = [0, 0b101, g.vertex_mask, 0xF0F0]
    expected = [deletion_contraction(g.restrict(S)) for S in masks]
    built = count_polys(monkeypatch)
    table = chromatic_setmap(g)
    assert [table[S] for S in masks] == expected
    assert len(built) == len(masks)
    # a value is built again on each read, and nothing is kept for it
    assert table[0b101] == expected[1] and len(built) == len(masks) + 1


def test_the_whole_table_is_built_once_on_first_use(monkeypatch):
    g = Graph.cycle(5)
    expected = tuple(deletion_contraction(g.restrict(S)) for S in range(32))
    built = count_polys(monkeypatch)
    table = chromatic_setmap(g)
    assert built == []
    whole = table.table
    assert len(built) == 32 and table.table is whole
    assert table[7] is whole[7] and len(built) == 32
    assert whole == expected


@pytest.mark.parametrize("built", [False, True])
@pytest.mark.parametrize("mask", [-1, 8, 1 << 40])
def test_a_mask_outside_the_table_is_refused(built, mask):
    table = chromatic_setmap(Graph.complete(3))
    if built:
        table.table
    with pytest.raises(IndexError, match="outside ground set of size 3"):
        table[mask]


def test_whole_table_operations_match_an_eager_table():
    g, h = Graph.cycle(4), Graph.path(4)
    eager = SetMap(4, [deletion_contraction(g.restrict(S)) for S in range(16)])
    other = SetMap(4, [deletion_contraction(h.restrict(S)) for S in range(16)])
    assert chromatic_setmap(g) == eager and eager == chromatic_setmap(g)
    assert chromatic_setmap(g) != chromatic_setmap(h) and chromatic_setmap(h) == other
    assert chromatic_setmap(g) + chromatic_setmap(h) == eager + other
    assert eager + chromatic_setmap(h) == eager + other
    assert chromatic_setmap(g) - other == eager - other
    assert chromatic_setmap(g).map_values(lambda q: q(3)) == eager.map_values(lambda q: q(3))
    assert repr(chromatic_setmap(g)) == repr(eager)


def test_products_match_an_eager_table():
    # the lazy class on rational values: products need rational maps
    values = [Fraction(S * S - 3, S + 1) for S in range(16)]
    eager = SetMap(4, values)
    lazy = graphs._CountTable(4, values.__getitem__)
    assert lazy * eager == eager * eager
    assert eager * graphs._CountTable(4, values.__getitem__) == eager * eager
    assert graphs._CountTable(4, values.__getitem__) * lazy == eager * eager
    assert lazy == eager and lazy.table == eager.table


# ---------------------------------------------------------------------------
# counting oracles
# ---------------------------------------------------------------------------


def test_colorings_with_no_colors():
    assert count_proper_colorings(Graph.path(3), 0) == 0
    assert count_proper_colorings(Graph(0), 0) == 1  # empty product


def test_colorings_small_cases():
    assert count_proper_colorings(Graph.complete(3), 3) == 6
    assert count_proper_colorings(Graph.complete(2), 2) == 2


def test_acyclic_orientation_counts():
    assert count_acyclic_orientations(Graph.edgeless(3)) == 1
    assert count_acyclic_orientations(Graph.complete(2)) == 2
    assert count_acyclic_orientations(Graph.complete(3)) == 6


def test_stanley_evaluation_on_small_corpus():
    for g in graphs_through(4):
        p = chromatic_setmap(g)
        for S in range(1 << g.n):
            sign = (-1) ** S.bit_count()
            assert sign * p[S](-1) == count_acyclic_orientations(g.restrict(S))


def stable_splits_by_filter(g: Graph) -> list[int]:
    """Stable partitions of g by block count, filtered out of every set partition."""
    splits = [0] * (g.n + 1)
    for sigma in partitions_of(g.vertex_mask):
        if all(not (block >> u & 1 and block >> v & 1) for block in sigma for u, v in g.edges):
            splits[len(sigma)] += 1
    return splits


def test_stable_partitions_and_colorings_match_the_partition_filter():
    for g in graphs_through(5):
        splits = stable_splits_by_filter(g)
        assert count_stable_partitions(g) == sum(splits), g
        for x in range(g.n + 1):
            assert count_proper_colorings(g, x) == sum(math.perm(x, k) * s for k, s in enumerate(splits)), (g, x)


def test_acyclic_orientations_match_deletion_contraction_at_minus_one():
    for g in graphs_through(5):
        assert count_acyclic_orientations(g) == (-1) ** g.n * deletion_contraction(g)(-1), g


def test_stable_partition_counts():
    assert count_stable_partitions(Graph.complete(2)) == 1
    assert count_stable_partitions(Graph.edgeless(3)) == 5
    assert count_stable_partitions(Graph.complete(3)) == 1


def test_stable_partition_cap():
    with pytest.raises(CapExceeded):
        count_stable_partitions(Graph.edgeless(13))


def test_unique_sink_counts():
    k2 = Graph.complete(2)
    assert count_acyclic_unique_sink(k2, 0) == 1
    assert count_acyclic_unique_sink(k2, 1) == 1
    k3 = Graph.complete(3)
    for v in range(3):
        assert count_acyclic_unique_sink(k3, v) == 2
    # isolated vertices are sinks, so two of them never leave a unique one
    assert count_acyclic_unique_sink(Graph.edgeless(2), 0) == 0


def connected(g: Graph) -> bool:
    reached, frontier = {0}, [0]
    while frontier:
        w = frontier.pop()
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                if a == w and b not in reached:
                    reached.add(b)
                    frontier.append(b)
    return len(reached) == g.n


def test_unique_sink_matches_derivative_at_zero_on_connected_graphs():
    # Greene-Zaslavsky: (-1)^(n-1) chi'(0) acyclic orientations have their only sink at any given vertex
    for g in filter(connected, graphs_through(5)):
        derivative = deletion_contraction(g).derivative()(0)
        expected = (-1) ** (g.n - 1) * derivative
        for v in range(g.n):
            assert count_acyclic_unique_sink(g, v) == expected


def test_sink_source_counts_match_derivative_at_one():
    k2 = Graph.complete(2)
    assert count_acyclic_sink_source(k2, 0, 1) == 1
    k3 = Graph.complete(3)
    assert count_acyclic_sink_source(k3, 0, 1) == 1
    c4 = Graph.cycle(4)
    expected = abs(deletion_contraction(c4).derivative()(1))
    assert count_acyclic_sink_source(c4, 0, 1) == expected


def test_sink_source_counts_across_adjacent_pairs():
    for g in graphs_through(5):
        if not g.edges or 0 in g.degrees():
            continue
        expected = abs(deletion_contraction(g).derivative()(1))
        for u, v in g.edges:
            assert count_acyclic_sink_source(g, u, v) == expected
            assert count_acyclic_sink_source(g, v, u) == expected


def test_sink_source_refuses_bad_inputs():
    with pytest.raises(ValueError, match="adjacent"):
        count_acyclic_sink_source(Graph.path(3), 0, 2)
    with pytest.raises(ValueError, match="isolated"):
        count_acyclic_sink_source(Graph(3, [(0, 1)]), 0, 1)
    with pytest.raises(ValueError, match="edge"):
        count_acyclic_sink_source(Graph.edgeless(2), 0, 1)


def test_orientation_cap():
    with pytest.raises(CapExceeded):
        count_acyclic_orientations(Graph.complete(7))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_parse_graph_with_comments():
    text = "# a triangle\n3 3\n0 1\n0 2  # third edge below\n1 2\n"
    assert parse_graph(text) == Graph.complete(3)


def test_parse_graph_rejects_malformed_input():
    for bad in (
        "",
        "3\n",
        "3 1\n",
        "3 1\n0 1\n1 2\n",
        "3 1\n1 0\n",
        "3 1\n0 0\n",
        "3 1\n0 3\n",
        "3 2\n0 1\n0 1\n",
        "a b\n",
        "2 1\nx y\n",
    ):
        with pytest.raises(GraphFormatError):
            parse_graph(bad)


def test_graph_text_round_trip():
    g = Graph(4, [(0, 2), (1, 3), (0, 1)])
    assert parse_graph(g.to_text()) == g
