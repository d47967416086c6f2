"""Simple graphs, the chromatic table and the chromatic polynomial.

The chromatic table (``chromatic_setmap``) is the paper's expansion in
the falling-factorial basis, chi_S = sum over partitions sigma of S into
stable sets of (x)_len(sigma), that is compose((x)_k, [T stable]).  One
pass over the masks counts the stable partitions of every subset by
block count, visiting the vertices largest last and taking a simplicial
vertex in one pass over the slots; no induced subgraph is built.  The
counts are the values' coordinates in the falling factorials (``_FALLING``):
the table holds them packed (``ring._LazyMap``), and ``expand`` and the
checks read them.  A single polynomial (``chromatic_poly``) is the table's
value at the full set, under a vertex cap of its own (``CHROMATIC_POLY_CAP``)
checked before the count pass.

Three routes to the chromatic polynomial check the table: deletion-
contraction, the edge-subset expansion and interpolation through coloring
counts.  They live with the other brute-force counts in ``oracles``, share
no logic with the table or with each other, and their agreement is an
acceptance check; since this module does not import ``oracles``, a
process that runs only ``chromatic``, ``expand`` or the table never
compiles the oracles.
"""

from __future__ import annotations

import operator
import struct
import sys
from collections.abc import Iterable
from itertools import accumulate, repeat

from .poly import Poly
from .ring import MAX_GROUND_SIZE, CapExceeded, SetMap, _LazyMap, rational


class GraphFormatError(ValueError):
    """Malformed graph file."""


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are deduplicated and stored sorted as (u, v) with u < v; loops
    are rejected.  The vertex count and labels are read exactly (``rational``):
    2.0 is the int 2, and 2.5 is refused.  Instances are immutable and hashable.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = rational(n)
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count must be nonnegative and an integer, got {n}")
        seen = set()
        for u, v in edges:
            u, v = rational(u), rational(v)
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u}, {v}) has a label that is not an integer")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            seen.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = tuple(sorted(seen))

    @classmethod
    def edgeless(cls, n: int) -> "Graph":
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def restrict(self, mask: int) -> "Graph":
        """Induced subgraph on the vertex subset ``mask``, relabeled to 0..|S|-1."""
        if mask & ~self.vertex_mask:
            raise ValueError(f"subset {mask} outside vertex range of {self.n} vertices")
        if mask == self.vertex_mask:  # graphs are immutable
            return self
        # one pass over the mask's binary digits, lowest first: linear in the vertex count
        verts = [v for v, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]
        rank = {v: i for i, v in enumerate(verts)}
        kept = [(rank[u], rank[v]) for u, v in self.edges if u in rank and v in rank]
        return Graph(len(verts), kept)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {list(self.edges)!r})"

    def to_text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """Parse the plain-text graph format: line `n m`, then m lines `u v`.

    Requires 0 <= u < v < n on every edge line; `#` starts a comment.
    """
    rows = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            rows.append(stripped)
    if not rows:
        raise GraphFormatError("empty graph file")
    head = rows[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(f"header must be two integers, got {rows[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphFormatError("vertex and edge counts must be nonnegative")
    if len(rows) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        pair = row.split()
        if len(pair) != 2:
            raise GraphFormatError(f"edge line must be 'u v', got {row!r}")
        try:
            u, v = int(pair[0]), int(pair[1])
        except ValueError:
            raise GraphFormatError(f"edge line must be two integers, got {row!r}") from None
        if not 0 <= u < v < n:
            raise GraphFormatError(f"edge ({u}, {v}) violates 0 <= u < v < {n}")
        edges.append((u, v))
    if len(set(edges)) != len(edges):
        raise GraphFormatError("duplicate edge")
    return Graph(n, edges)


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


# ---------------------------------------------------------------------------
# the chromatic table and the chromatic polynomial
# ---------------------------------------------------------------------------

_SLOT = 64  # bits per packed count; s_k(S) <= Bell(20) < 2^46
# little-endian layouts of 0..21 unsigned 64-bit slots
_UNSIGNED = [struct.Struct(f"<{w}Q") for w in range(MAX_GROUND_SIZE + 2)]
# (x)_0, ..., (x)_20: the basis the counts are coordinates in
_FALLING = list(accumulate((Poly((-k, 1)) for k in range(MAX_GROUND_SIZE)), operator.mul, initial=Poly.one()))


def _slots(packed: int, width: int) -> tuple:
    """The first ``width`` unsigned 64-bit slots of ``packed``, lowest first."""
    return _UNSIGNED[width].unpack(packed.to_bytes(8 * width, "little"))


def _largest_last(adj: list[int]) -> list[int]:
    """The count pass's vertex order: repeatedly, of the vertices not yet
    placed, the one with the most neighbors not yet placed goes last (ties to
    the lowest label); ``adj[v]`` is the neighbor mask of v."""
    order, rest = [], (1 << len(adj)) - 1
    while rest:
        v = max(range(len(adj)), key=lambda u: (adj[u] & rest).bit_count() if rest >> u & 1 else -1)
        order.append(v)
        rest ^= 1 << v
    return order[::-1]


def _stable_partition_counts(graph: Graph) -> list[int]:
    """For every mask S, the counts s_k(S) of stable partitions of S into k
    blocks, packed into one int: s_k(S) in bits 64k to 64k + 63.

    The vertices are visited largest last (``_largest_last``), which puts the
    hubs last, as the largest-first coloring of Welsh and Powell (Comput. J.
    1967) puts them first.  At v the pass fills every mask whose last vertex
    in that order is v: S = A | C | v, with C among v's earlier neighbors and
    A among its earlier non-neighbors.  Masks keep their labels.  With
    R = A | C, packed[S] takes one of three routes:
    - C is empty: v is isolated in S, chi_S = x chi_R;
    - C is a clique of c vertices: v is simplicial in S, chi_S = (x - c) chi_R
      (Fulkerson and Gross, Pacific J. Math. 1965; Read, J. Combin. Theory
      1968), and since (x - c)(x)_k = (x)_(k+1) + (k - c)(x)_k, s_k(S) =
      s_(k-1)(R) + (k - c) s_k(R): one pass over the slots, with the first
      route as c = 0;
    - otherwise the block holding v is v plus an independent set I of A, and
      packed[S] is the sum of packed[R - I] over those I, shifted one slot.
    The slot pass costs about as much as a sum of 12 counts (1.35 us, against
    0.92 us for 8 and 1.55 us for 16, on Python 3.11), so the first two routes
    take the sum while A has at most 8 independent subsets.  On the bench's
    G(12-13, p) and on G(16, .3-.9) a limit of 4, 8 or 12 times alike, and
    none (the slot pass always) is 3-7 % slower at p = .5-.8.  A depth-first
    walk over A extends the list of A's independent subsets one vertex at a
    time.  When every side C of v is a clique, every mask takes the slot
    pass, in one loop over the earlier vertices' subsets, with no list of
    independent subsets.
    """
    n = graph.n
    adj = [0] * n
    for u, v in graph.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    packed = [0] * (1 << n)
    packed[0] = 1
    get = packed.__getitem__
    times_k = [k << _SLOT * k for k in range(n + 1)]

    def simplicial(R, c):  # chi_(R + v) = (x - c) chi_R
        P = packed[R]
        return (P << _SLOT) + sum(map(operator.mul, _slots(P, R.bit_count() + 1), times_k)) - c * P

    placed = []
    for v in _largest_last(adj):
        top, near, far = 1 << v, adj[v], []
        sides = {0: 0}  # each side C: |C| if C is a clique, else -1
        for u in placed:
            if near >> u & 1:  # C | u is a clique when C is one inside the neighbors of u
                bit, a = 1 << u, adj[u]
                sides.update({C | bit: c + 1 if c >= 0 and C & a == C else -1 for C, c in sides.items()})
            else:
                far.append(u)

        def visit(A, independent, start):
            # independent: the independent subsets of A
            many = len(independent) > 8
            for C, c in sides.items():
                R = A | C
                if c >= 0 and many:
                    packed[R | top] = simplicial(R, c)
                else:
                    packed[R | top] = sum(map(get, map(R.__xor__, independent))) << _SLOT
            for i in range(start, len(far)):
                u = far[i]
                visit(A | 1 << u, independent + [I | 1 << u for I in independent if not I & adj[u]], i + 1)

        if -1 in sides.values():
            visit(0, [0], 0)
        else:  # every side is a clique
            masks = [0]
            for u in placed:
                masks += [R | 1 << u for R in masks]
            for R in masks:
                packed[R | top] = simplicial(R, (R & near).bit_count())
        placed.append(v)
    return packed


def chromatic_setmap(graph: Graph) -> SetMap:
    """The map S -> chromatic polynomial of the induced subgraph on S.

    One pass over the masks counts the stable partitions of every subset
    by block count (``_stable_partition_counts``), and the map holds those
    packed counts (``ring._LazyMap``).  ``table[S]`` builds the value of S: its
    count vector dotted with the falling factorials' monomial coefficients,
    the signed Stirling numbers of the first kind, chi_S = sum_k s_k(S) (x)_k
    and (x)_k = sum_j s(k, j) x^j, a Poly built from plain ints.  The engine
    reads the counts, unpacked once, as the coordinates: the falling factorials
    (x)_0, ..., (x)_n and, for each j, the unsigned counts s_j(S) of every mask.
    The table's one cap: more than ``MAX_GROUND_SIZE`` vertices raise
    ``CapExceeded`` before the count pass.
    """
    if graph.n > MAX_GROUND_SIZE:
        raise CapExceeded(f"chromatic set map capped at {MAX_GROUND_SIZE} vertices")
    n, packed = graph.n, _stable_partition_counts(graph)

    def value(S: int) -> Poly:  # each (x)_k's monomial coefficients added in
        width = S.bit_count() + 1
        coeffs = [0] * width
        for s, falling in zip(_slots(packed[S], width), _FALLING):
            if s:
                coeffs[: len(falling.coeffs)] = map(operator.add, coeffs, map(s.__mul__, falling.coeffs))
        return Poly(coeffs)

    def coordinates() -> tuple[list, list]:
        flat = b"".join(map(int.to_bytes, packed, repeat(8 * (n + 1)), repeat("little")))
        # 64-bit slots written little-endian: a view where that is the native order
        little = sys.byteorder == "little"
        counts = memoryview(flat).cast("Q") if little else struct.unpack(f"<{len(flat) // 8}Q", flat)
        return _FALLING[: n + 1], [counts[j :: n + 1] for j in range(n + 1)]

    return _LazyMap(n, value, coordinates)


# by the rule that set ring.BLOCK_SUM_CAP: the largest n under 10 s and 512 MiB
# for a cold `setmaps chromatic`, and 17 for both routes.  The count pass is
# slowest on sparse graphs: at 17, 0.11-0.65 s and 29-31 MiB on G(17, p) drawn
# by scripts/cap_probe.gnp_edges with random.Random(1), p = 0-.6, the worst at
# .03 (the probe's row), and 0.14 s on the star with centre 0 (3.2 s before the
# largest-last order; 0.26 s at 18); at 18 it takes 1.3-2.0 s on G(18, .02-.1).
# Deletion-contraction (oracles.deletion_contraction, which this also caps) is
# slowest on dense ones: at 17, 0.5-1.9 s and 70-225 MiB for p = .3-.6, and at
# 18 it took 13-18 s and 736-809 MiB from p = .4 on, on an older, slower host
# (Python 3.11, 2 cores)
CHROMATIC_POLY_CAP = 17


def chromatic_poly(graph: Graph, cap: int = CHROMATIC_POLY_CAP) -> Poly:
    """Chromatic polynomial, the chromatic table's value at the full set;
    more than ``cap`` vertices raise ``CapExceeded`` before the count pass."""
    if graph.n > cap:
        raise CapExceeded(f"chromatic polynomial over {graph.n} vertices exceeds cap {cap}")
    return chromatic_setmap(graph)[graph.vertex_mask]
