"""Simple graphs, the chromatic polynomial and the chromatic table.

Deletion-contraction is one of three independent routes to the chromatic
polynomial; the other two, the edge-subset expansion and interpolation
through coloring counts, live with the other brute-force counts in
``oracles``.  Their agreement is an acceptance check, so none of them may
share logic; and since this module does not import ``oracles``, a process
that runs only ``expand`` or the table never compiles the oracles.

Deletion-contraction builds a single polynomial (``chromatic_poly``).  It
works on plain int coefficient tuples, lowest degree first, memoized on a
degree-sorted relabeling in a memo scoped to one call; a Poly is built
once per answer.  Before it splits an edge it peels off what the sort
puts first: k isolated vertices give x^k times the rest, and a leaf at
vertex 0 gives (x - 1) times the graph without it.  Its cost grows with
the edges, so it checks a vertex cap of its own (``CHROMATIC_POLY_CAP``)
before the first split.

The chromatic table (``chromatic_setmap``) is the paper's expansion in
the falling-factorial basis, chi_S = sum over partitions sigma of S into
stable sets of (x)_len(sigma), that is compose((x)_k, [T stable]).  One
pass over the masks counts the stable partitions of every subset by
block count, and no induced subgraph is built; deletion-contraction is
its test oracle.  The table keeps those packed counts and builds a
polynomial only when it is read.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Callable, Iterable

from .poly import Poly
from .ring import MAX_GROUND_SIZE, CapExceeded, SetMap


class GraphFormatError(ValueError):
    """Malformed graph file."""


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are deduplicated and stored sorted as (u, v) with u < v; loops
    are rejected.  Instances are immutable and hashable.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        for u, v in edges:
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
        verts = [v for v in range(self.n) if (mask >> v) & 1]
        rank = {v: i for i, v in enumerate(verts)}
        kept = [(rank[u], rank[v]) for u, v in self.edges if (mask >> u) & 1 and (mask >> v) & 1]
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
# the chromatic polynomial and the chromatic table
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


# by the rule that set ring.BLOCK_SUM_CAP: the largest n under 10 s and 512 MiB
# for a cold `setmaps chromatic` on G(n, p) drawn by scripts/cap_probe.gnp_edges
# with random.Random(1), p = .3, .35, .4, .45, .5, .6.  At 17: 0.9-4.4 s and
# 71-225 MiB, the worst at p = .6, the density of the probe's row.  At 18: 2.7 s
# and 147 MiB at p = .3, 6.9 s and 367 MiB at .35, and 13-18 s and 736-809 MiB
# from .4 on (Python 3.11, 2 cores)
CHROMATIC_POLY_CAP = 17


def chromatic_poly(graph: Graph, cap: int = CHROMATIC_POLY_CAP) -> Poly:
    """Chromatic polynomial by deletion-contraction, memoized for this call;
    more than ``cap`` vertices raise ``CapExceeded`` before the first split."""
    if graph.n > cap:
        raise CapExceeded(f"deletion-contraction over {graph.n} vertices exceeds cap {cap}")
    return Poly(_chromatic(graph.n, graph.edges, {}))


_SLOT = 64  # bits per packed count; s_k(S) <= Bell(20) < 2^46
# little-endian layouts of 0..21 unsigned and signed 64-bit slots
_UNSIGNED = [struct.Struct(f"<{w}Q") for w in range(MAX_GROUND_SIZE + 2)]
_SIGNED = [struct.Struct(f"<{w}q") for w in range(MAX_GROUND_SIZE + 2)]


def _slots(packed: int, width: int) -> tuple:
    """The first ``width`` unsigned 64-bit slots of ``packed``, lowest first."""
    return _UNSIGNED[width].unpack(packed.to_bytes(8 * width, "little"))


def _stable_partition_counts(graph: Graph) -> list[int]:
    """For every mask S, the counts s_k(S) of stable partitions of S into k
    blocks, packed into one int: s_k(S) in bits 64k to 64k + 63.

    With v the top vertex of S and R = S - v, the block holding v is v plus
    an independent set I of R that avoids the neighbors of v, so
    packed[S] = (sum of packed[R - I] over those I) << 64.  The masks with
    top vertex v are visited as A | C | v, with C the neighbors of v in S
    and A the rest of R, by a depth-first walk over A that extends the list
    of independent subsets of A one vertex at a time.  When C is empty, v
    is isolated in S, chi_S = x chi_R and s_k(S) = s_{k-1}(R) + k s_k(R),
    which takes one pass over the slots instead of the sum.
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

    def isolated(R: int) -> int:
        counts = _slots(packed[R], R.bit_count() + 1)
        return (packed[R] << _SLOT) + sum(map(operator.mul, counts, times_k))

    for v in range(n):
        top = 1 << v
        near = adj[v] & (top - 1)
        if not near:
            packed[top : 2 * top] = map(isolated, range(top))
            continue
        far = [u for u in range(v) if not near >> u & 1]
        sides = [0]
        for u in range(v):
            if near >> u & 1:
                sides += [c | 1 << u for c in sides]
        sides = sides[1:]  # the nonempty submasks of near: C when v has a neighbor in S

        def visit(A: int, independent: list, start: int) -> None:
            # independent: the independent subsets of A
            packed[A | top] = isolated(A)
            rests = list(map(A.__xor__, independent))
            for C in sides:
                packed[A | C | top] = sum(map(get, map(C.__or__, rests))) << _SLOT
            for i in range(start, len(far)):
                bit, blocked = 1 << far[i], adj[far[i]]
                grown = independent + [I | bit for I in independent if not I & blocked]
                visit(A | bit, grown, i + 1)

        visit(0, [0], 0)
    return packed


class _CountTable(SetMap):
    """A set map kept as a function of the mask until its whole table is read.

    ``table[S]`` calls ``value(S)`` and keeps nothing.  The ``table`` tuple,
    which equality, the arithmetic and ``map_values`` read, is built once on
    first use; ``value`` and what it holds are then let go.
    """

    __slots__ = ("_value", "_built")

    def __init__(self, n: int, value: Callable[[int], object]):
        self.n = n
        self._value = value
        self._built = None

    @property
    def table(self) -> tuple:
        built, value = self._built, self._value
        if built is None and value is not None:
            built = self._built = tuple(map(value, range(1 << self.n)))
            self._value = None
        # a reader in another thread may have built it after the first read
        return self._built if built is None else built

    def __getitem__(self, mask: int):
        if not 0 <= mask < 1 << self.n:
            raise IndexError(f"mask {mask} outside ground set of size {self.n}")
        value = self._value
        return self.table[mask] if value is None else value(mask)


def chromatic_setmap(graph: Graph) -> SetMap:
    """The map S -> chromatic polynomial of the induced subgraph on S.

    One pass over the masks counts the stable partitions of every subset
    by block count (``_stable_partition_counts``), and the map keeps those
    packed counts.  A value is built when it is read: its count vector
    becomes monomial coefficients through the signed Stirling numbers of
    the first kind, chi_S = sum_k s_k(S) (x)_k and (x)_k = sum_j s(k, j) x^j,
    and the Poly is built from plain ints.  ``table[S]`` builds the one
    value of S, each time it is read; the whole ``table``, which equality,
    the arithmetic and ``expand`` read, is built once and then kept.
    """
    if graph.n > MAX_GROUND_SIZE:
        raise CapExceeded(f"chromatic set map capped at {MAX_GROUND_SIZE} vertices")
    n = graph.n
    packed = _stable_partition_counts(graph)
    # (x)_k as packed monomial coefficients: the int sum_j s(k, j) 2^(64 j)
    falling = [1]
    for k in range(1, n + 1):
        falling.append((falling[-1] << _SLOT) - (k - 1) * falling[-1])
    # |chi_S coefficients| sum to |chi_S(-1)| <= |S|! < 2^63, so adding 2^63 to
    # every slot carries nowhere, and flipping that bit back leaves each slot
    # in two's complement
    bias = [0]
    for m in range(n + 1):
        bias.append(bias[-1] | 1 << (_SLOT * m + _SLOT - 1))

    def poly(S: int) -> Poly:
        width = S.bit_count() + 1
        mono = sum(map(operator.mul, _slots(packed[S], width), falling))
        b = bias[width]
        return Poly(_SIGNED[width].unpack(((mono + b) ^ b).to_bytes(8 * width, "little")))

    return _CountTable(n, poly)
