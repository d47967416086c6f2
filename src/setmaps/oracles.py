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
Greene-Zaslavsky) are deliberately naive enumerations on two walkers;
they exist to validate coefficient interpretations, not to be fast.
``_stable_splits`` backtracks over the splits of the vertices into stable
classes, counting them by class number, for the colorings and the stable
partitions.  ``_count_acyclic`` backtracks over edge directions, closing
no directed cycle, and counts the acyclic orientations whose out-lists a
test accepts, for the three orientation counts.  No engine module
imports this one: the ``oracle`` command imports it when it runs, and the
tests read it as the reference for the counts the verifiers in ``checks``
take from the kernel, so that ``expand``, the chromatic table and the
checks never compile it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable

from .graphs import CHROMATIC_POLY_CAP, Graph
from .poly import Poly, interpolate
from .ring import CapExceeded

# the vertex cap of the oracles that backtrack over the Bell(n) splits of n vertices into
# stable classes, by the rule that set ring.BLOCK_SUM_CAP: a cold `oracle stable-partitions`
# on the edgeless graph took 2.0 s and 16 MiB at 12 vertices, 9.5 s at 13 (Python 3.11, 2 cores)
BELL_ENUM_CAP = 12

# caps the edge enumerations here (spanning subgraphs, acyclic orientations), over edges:
# the largest count at which a cold `oracle unique-sink --sink 0` on the star K_{1,m}, whose
# 2^m orientations are all acyclic, ran within 10 s and 512 MiB (5.0-5.6 s and 16 MiB at 20 edges).
# At 21, `sink-source` on C21 took 7.5 s.  `subgraph_expansion` took 0.48 s in process on K_{1,20}
# and 0.97 s on K_{1,21} (Python 3.11, 2 cores)
EDGE_ENUM_CAP = 20


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
    walked depth first, an edge left out or put in at a time.  The
    components are a union-find parent list, copied only when an edge
    joins two of them; an edge that closes a cycle is walked both ways.
    """
    edges = graph.edges
    m = len(edges)
    if m > cap:
        raise CapExceeded(f"subgraph expansion over {m} edges exceeds cap {cap}")
    coeff = [0] * (graph.n + 1)

    def root(parent: list[int], a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    def rec(i: int, parent: list[int], components: int, sign: int) -> None:
        if i == m:
            coeff[components] += sign
            return
        rec(i + 1, parent, components, sign)
        ru, rv = root(parent, edges[i][0]), root(parent, edges[i][1])
        if ru == rv:
            rec(i + 1, parent, components, -sign)
        else:
            joined = parent.copy()
            joined[ru] = rv
            rec(i + 1, joined, components - 1, -sign)

    rec(0, list(range(graph.n)), graph.n, 1)
    return Poly(coeff)


def _stable_splits(graph: Graph, most: int, cap: int, what: str) -> list[int]:
    """Splits of the vertices into at most ``most`` stable classes, counted by class number.

    Each vertex joins a class holding none of its earlier neighbors, or opens
    the next; there are up to Bell(n) splits, so ``what`` is refused past ``cap``.
    """
    n = graph.n
    if n > cap:
        raise CapExceeded(f"{what} over {n} vertices exceeds cap {cap}")
    earlier = [0] * n  # bitmask of each vertex's lower-numbered neighbors
    for u, v in graph.edges:
        earlier[v] |= 1 << u
    classes: list[int] = []
    splits = [0] * (n + 1)

    def rec(v: int) -> None:
        if v == n:
            splits[len(classes)] += 1
            return
        for i, members in enumerate(classes):
            if not members & earlier[v]:
                classes[i] = members | 1 << v
                rec(v + 1)
                classes[i] = members
        if len(classes) < most:
            classes.append(1 << v)
            rec(v + 1)
            classes.pop()

    rec(0)
    return splits


def count_proper_colorings(graph: Graph, colors: int, cap: int = BELL_ENUM_CAP) -> int:
    """Number of proper colorings with the given color count: a split into k
    stable classes takes colors * (colors - 1) * ... * (colors - k + 1) of them,
    and no split opens more classes than there are colors."""
    if colors < 0:
        raise ValueError("color count must be nonnegative")
    splits = _stable_splits(graph, colors, cap, "coloring count")
    return sum(math.perm(colors, k) * count for k, count in enumerate(splits))


def chromatic_by_interpolation(graph: Graph) -> Poly:
    """Chromatic polynomial interpolated through coloring counts at 0..n."""
    points = [(x, count_proper_colorings(graph, x)) for x in range(graph.n + 1)]
    return interpolate(points)


# ---------------------------------------------------------------------------
# orientation and partition oracles
# ---------------------------------------------------------------------------


def _count_acyclic(graph: Graph, cap: int, keep: Callable[[list[list[int]]], bool]) -> int:
    """Number of acyclic orientations whose out-lists ``keep`` accepts.

    Backtracks over edges, rejecting a direction as soon as it would close
    a directed cycle, so only acyclic prefixes are ever extended.
    """
    m = len(graph.edges)
    if m > cap:
        raise CapExceeded(f"orientation enumeration over {m} edges exceeds cap {cap}")
    succ: list[list[int]] = [[] for _ in range(graph.n)]

    def reaches(src: int, dst: int) -> bool:
        if src == dst:
            return True
        stack, seen = [src], {src}
        while stack:
            w = stack.pop()
            for nxt in succ[w]:
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def rec(i: int) -> int:
        if i == m:
            return 1 if keep(succ) else 0
        u, v = graph.edges[i]
        total = 0
        for s, t in ((u, v), (v, u)):
            if not reaches(t, s):
                succ[s].append(t)
                total += rec(i + 1)
                succ[s].pop()
        return total

    return rec(0)


def count_acyclic_orientations(graph: Graph, cap: int = EDGE_ENUM_CAP) -> int:
    """Number of acyclic orientations; equals (-1)^n chi(-1) (Stanley)."""
    return _count_acyclic(graph, cap, lambda succ: True)


def count_acyclic_unique_sink(graph: Graph, sink: int, cap: int = EDGE_ENUM_CAP) -> int:
    """Acyclic orientations whose only sink is the given vertex.

    Isolated vertices have no out-edges and therefore count as sinks, so a
    graph with an isolated vertex other than ``sink`` counts zero.
    """
    if not 0 <= sink < graph.n:
        raise ValueError(f"vertex {sink} outside range 0..{graph.n - 1}")
    return _count_acyclic(graph, cap, lambda succ: [w for w, out in enumerate(succ) if not out] == [sink])


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

    def keep(succ: list[list[int]]) -> bool:  # sources are read only where the sink is right
        sinks = [w for w, out in enumerate(succ) if not out]
        return sinks == [sink] and set(range(graph.n)).difference(*succ) == {source}

    return _count_acyclic(graph, cap, keep)


def count_stable_partitions(graph: Graph, cap: int = BELL_ENUM_CAP) -> int:
    """Number of vertex partitions all of whose blocks induce no edges."""
    return sum(_stable_splits(graph, graph.n, cap, "stable-partition counting"))
