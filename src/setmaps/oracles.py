"""Brute-force counting oracles on simple graphs.

Three routes to the chromatic polynomial that share no logic with the
chromatic table in ``graphs`` or with each other: deletion-contraction,
the edge-subset expansion

    chi_G(x) = sum over F subset of E of (-1)^|F| x^(components of (V, F)),

and exact Newton interpolation through coloring counts, found by
backtracking over color classes.  Their agreement with ``graphs`` is an
acceptance check.

Deletion-contraction builds a single polynomial (``deletion_contraction``).
It works on plain int coefficient tuples, lowest degree first, memoized on
a degree-sorted relabeling in a memo scoped to one call; a Poly is built
once per answer.  Before it splits an edge it peels off what the sort
puts first: k isolated vertices give x^k times the rest, and a leaf at
vertex 0 gives (x - 1) times the graph without it.  Its cost grows with
the edges, so it checks a vertex cap (``graphs.CHROMATIC_POLY_CAP``)
before the first split.

The counting oracles (proper colorings, acyclic orientations, stable
partitions, unique-sink and sink-source orientations, per Stanley and
Greene-Zaslavsky) are deliberately naive enumerations; they exist to
validate coefficient interpretations, not to be fast.  No engine module
imports this one at module level: the verifiers in ``checks`` that need
a count import it when they run, so that ``expand``, the chromatic table
and the checks that count nothing never compile it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator

from .graphs import CHROMATIC_POLY_CAP, Graph
from .poly import Poly, interpolate
from .ring import BELL_ENUM_CAP, CapExceeded, partitions_of

# caps the edge enumerations here (spanning subgraphs, acyclic orientations), over edges:
# the largest count at which a cold `oracle unique-sink --sink 0` on the star K_{1,m}, whose
# 2^m orientations are all acyclic, ran within 10 s and 512 MiB (6.9 s and 16 MiB at 19 edges,
# 13.7 s at 20; Python 3.11, 2 cores)
EDGE_ENUM_CAP = 19


# ---------------------------------------------------------------------------
# three routes to the chromatic polynomial, none through the table
# ---------------------------------------------------------------------------


def _canonical(n: int, edges: tuple) -> tuple:
    """Relabel vertices by (degree, index) and return the relabeled edge tuple.

    Equal keys imply isomorphic graphs (the key is itself a labeled graph),
    so memoizing on it is sound; the sort merely improves hit rates.
    """
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    # a stable sort by degree breaks ties by index
    order = sorted(range(n), key=deg.__getitem__)
    rank = [0] * n
    for i, w in enumerate(order):
        rank[w] = i
    relabeled = sorted(
        [(rank[u], rank[v]) if rank[u] < rank[v] else (rank[v], rank[u]) for u, v in edges]
    )
    return (n, tuple(relabeled))


def _chromatic(n: int, edges: tuple, memo: dict) -> tuple:
    """Chromatic polynomial as n + 1 int coefficients, lowest degree first."""
    key = _canonical(n, edges)
    hit = memo.get(key)
    if hit is not None:
        return hit
    n, edges = key
    if not edges:
        result = (0,) * n + (1,)
    elif edges[0][0]:
        # vertices are sorted by degree, so 0..k-1 are the isolated ones: x^k chi(rest)
        k = edges[0][0]
        rest = tuple((a - k, b - k) for a, b in edges)
        result = (0,) * k + _chromatic(n - k, rest, memo)
    elif len(edges) == 1 or edges[1][0]:
        # vertex 0 is a leaf: (x - 1) chi(G - 0)
        rest = _chromatic(n - 1, tuple((a - 1, b - 1) for a, b in edges[1:]), memo)
        result = tuple(map(operator.sub, (0,) + rest, rest + (0,)))
    else:
        u, v = edges[0]
        deleted = edges[1:]
        # contract v into u: drop v, shift higher labels down, merge parallels
        merged = set()
        for a, b in deleted:
            a = u if a == v else (a - 1 if a > v else a)
            b = u if b == v else (b - 1 if b > v else b)
            merged.add((a, b) if a < b else (b, a))
        big = _chromatic(n, deleted, memo)
        small = _chromatic(n - 1, tuple(sorted(merged)), memo)
        result = tuple(map(operator.sub, big, small + (0,)))
    memo[key] = result
    return result


def deletion_contraction(graph: Graph, cap: int = CHROMATIC_POLY_CAP) -> Poly:
    """Chromatic polynomial by deletion-contraction, memoized for this call;
    more than ``cap`` vertices raise ``CapExceeded`` before the first split."""
    if graph.n > cap:
        raise CapExceeded(f"deletion-contraction over {graph.n} vertices exceeds cap {cap}")
    return Poly(_chromatic(graph.n, graph.edges, {}))


def subgraph_expansion(graph: Graph, cap: int = EDGE_ENUM_CAP) -> Poly:
    """Signed edge-subset expansion of the chromatic polynomial.

    Sums (-1)^(#edges) x^(#components) over all 2^m spanning subgraphs,
    counting components with union-find.
    """
    m = len(graph.edges)
    if m > cap:
        raise CapExceeded(f"subgraph expansion over {m} edges exceeds cap {cap}")
    coeff = [0] * (graph.n + 1)
    for bits in range(1 << m):
        parent = list(range(graph.n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        components = graph.n
        for i in range(m):
            if (bits >> i) & 1:
                ra, rb = find(graph.edges[i][0]), find(graph.edges[i][1])
                if ra != rb:
                    parent[ra] = rb
                    components -= 1
        coeff[components] += 1 if bits.bit_count() % 2 == 0 else -1
    return Poly(coeff)


def count_proper_colorings(graph: Graph, colors: int, cap: int = BELL_ENUM_CAP) -> int:
    """Number of proper colorings with the given color count, by backtracking.

    Colors are handed out in first-use order: each vertex joins a color
    class holding none of its earlier neighbors, or opens the next class.
    A split into k classes is then colored in colors * (colors - 1) * ...
    * (colors - k + 1) ways, one per choice of distinct colors.  There are
    up to Bell(n) splits, so the vertex count is capped.
    """
    if colors < 0:
        raise ValueError("color count must be nonnegative")
    n = graph.n
    if n > cap:
        raise CapExceeded(f"coloring count over {n} vertices exceeds cap {cap}")
    earlier = [0] * n  # bitmask of each vertex's lower-numbered neighbors
    for u, v in graph.edges:
        earlier[v] |= 1 << u
    classes: list[int] = []

    def rec(v: int) -> int:
        if v == n:
            return math.perm(colors, len(classes))
        total = 0
        for i, members in enumerate(classes):
            if not members & earlier[v]:
                classes[i] = members | 1 << v
                total += rec(v + 1)
                classes[i] = members
        if len(classes) < colors:
            classes.append(1 << v)
            total += rec(v + 1)
            classes.pop()
        return total

    return rec(0)


def chromatic_by_interpolation(graph: Graph) -> Poly:
    """Chromatic polynomial interpolated through coloring counts at 0..n."""
    points = [(x, count_proper_colorings(graph, x)) for x in range(graph.n + 1)]
    return interpolate(points)


# ---------------------------------------------------------------------------
# orientation and partition oracles
# ---------------------------------------------------------------------------


def acyclic_orientations(graph: Graph, cap: int = EDGE_ENUM_CAP) -> Iterator[tuple]:
    """Yield each acyclic orientation as a tuple of directed (source, target) pairs.

    Backtracks over edges, rejecting a direction as soon as it would close
    a directed cycle, so only acyclic prefixes are ever extended.
    """
    m = len(graph.edges)
    if m > cap:
        raise CapExceeded(f"orientation enumeration over {m} edges exceeds cap {cap}")
    succ: list[list[int]] = [[] for _ in range(graph.n)]
    chosen: list[tuple[int, int]] = []

    def reaches(src: int, dst: int) -> bool:
        if src == dst:
            return True
        stack = [src]
        seen = {src}
        while stack:
            w = stack.pop()
            for nxt in succ[w]:
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def rec(i: int) -> Iterator[tuple]:
        if i == m:
            yield tuple(chosen)
            return
        u, v = graph.edges[i]
        for s, t in ((u, v), (v, u)):
            if not reaches(t, s):
                succ[s].append(t)
                chosen.append((s, t))
                yield from rec(i + 1)
                succ[s].pop()
                chosen.pop()

    return rec(0)


def count_acyclic_orientations(graph: Graph, cap: int = EDGE_ENUM_CAP) -> int:
    """Number of acyclic orientations; equals (-1)^n chi(-1) (Stanley)."""
    return sum(1 for _ in acyclic_orientations(graph, cap))


def _sinks_and_sources(n: int, orientation: tuple) -> tuple[list[int], list[int]]:
    outdeg = [0] * n
    indeg = [0] * n
    for s, t in orientation:
        outdeg[s] += 1
        indeg[t] += 1
    sinks = [w for w in range(n) if outdeg[w] == 0]
    sources = [w for w in range(n) if indeg[w] == 0]
    return sinks, sources


def count_acyclic_unique_sink(graph: Graph, sink: int, cap: int = EDGE_ENUM_CAP) -> int:
    """Acyclic orientations whose only sink is the given vertex.

    Isolated vertices have no out-edges and therefore count as sinks, so a
    graph with an isolated vertex other than ``sink`` counts zero.
    """
    if not 0 <= sink < graph.n:
        raise ValueError(f"vertex {sink} outside range 0..{graph.n - 1}")
    total = 0
    for orientation in acyclic_orientations(graph, cap):
        sinks, _ = _sinks_and_sources(graph.n, orientation)
        if sinks == [sink]:
            total += 1
    return total


def count_acyclic_sink_source(graph: Graph, source: int, sink: int, cap: int = EDGE_ENUM_CAP) -> int:
    """Acyclic orientations with unique sink and unique source at adjacent vertices.

    Requires at least one edge, no isolated vertices, and adjacent
    endpoints; this count equals |chi'(1)| (Greene-Zaslavsky), and outside
    those hypotheses the relationship is not defined, so the inputs are
    refused rather than answered.
    """
    if not 0 <= source < graph.n or not 0 <= sink < graph.n:
        raise ValueError("source or sink outside vertex range")
    if not graph.edges:
        raise ValueError("sink-source counting requires at least one edge")
    key = (source, sink) if source < sink else (sink, source)
    if key not in set(graph.edges):
        raise ValueError("the source and the sink are not adjacent")
    if 0 in graph.degrees():
        raise ValueError("sink-source counting requires no isolated vertices")
    total = 0
    for orientation in acyclic_orientations(graph, cap):
        sinks, sources = _sinks_and_sources(graph.n, orientation)
        if sinks == [sink] and sources == [source]:
            total += 1
    return total


def _edgeless_table(graph: Graph) -> list[bool]:
    table = [True] * (1 << graph.n)
    for u, v in graph.edges:
        pair = (1 << u) | (1 << v)
        for S in range(1 << graph.n):
            if S & pair == pair:
                table[S] = False
    return table


def count_stable_partitions(graph: Graph, cap: int = BELL_ENUM_CAP) -> int:
    """Number of vertex partitions all of whose blocks induce no edges."""
    if graph.n > cap:
        raise CapExceeded(f"stable-partition counting over {graph.n} vertices exceeds cap {cap}")
    stable = _edgeless_table(graph)
    total = 0
    for sigma in partitions_of(graph.vertex_mask):
        if all(stable[block] for block in sigma):
            total += 1
    return total
