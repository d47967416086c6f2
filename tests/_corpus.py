"""Small-graph corpora for exhaustive identity checks."""

import random
from functools import lru_cache
from itertools import combinations, permutations, product

from setmaps.graphs import Graph


@lru_cache(maxsize=None)
def graphs_on(n: int) -> tuple[Graph, ...]:
    """One representative of every isomorphism class on exactly n vertices."""
    slots = list(combinations(range(n), 2))
    perms = list(permutations(range(n)))
    seen = set()
    out = []
    for bits in range(1 << len(slots)):
        edges = tuple(e for i, e in enumerate(slots) if (bits >> i) & 1)
        key = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges)) for p in perms
        )
        if key not in seen:
            seen.add(key)
            out.append(Graph(n, edges))
    return tuple(out)


@lru_cache(maxsize=None)
def graphs_through(n: int) -> tuple[Graph, ...]:
    """Representatives of every isomorphism class on at most n vertices."""
    out = []
    for size in range(n + 1):
        out.extend(graphs_on(size))
    return tuple(out)


def _canonical_edges(n: int, edges: tuple) -> tuple:
    """The least sorted edge list over the relabellings that order the vertices by
    an invariant (degree, then twice the sorted invariants of the neighbors):
    equal for two graphs exactly when they are isomorphic."""
    near = [[] for _ in range(n)]
    for u, v in edges:
        near[u].append(v)
        near[v].append(u)
    invariant = [len(vs) for vs in near]
    for _ in range(2):
        invariant = [(invariant[v], tuple(sorted(invariant[u] for u in near[v]))) for v in range(n)]
    cells: dict = {}
    for v in range(n):
        cells.setdefault(invariant[v], []).append(v)
    best = None
    for choice in product(*(permutations(cells[key]) for key in sorted(cells))):
        label = {v: i for i, v in enumerate(v for cell in choice for v in cell)}
        key = sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in edges)
        if best is None or key < best:
            best = key
    return tuple(best)


@lru_cache(maxsize=None)
def classes_on(n: int) -> tuple[Graph, ...]:
    """One representative of every isomorphism class on exactly n vertices, as
    ``graphs_on`` gives, fast enough for n = 7: each class on n - 1 vertices with
    a vertex joined to each subset of it (every graph is one of those, less its
    last vertex), one graph kept per canonical edge list."""
    if n == 0:
        return (Graph(0),)
    seen, out = set(), []
    for g in classes_on(n - 1):
        for joined in range(1 << (n - 1)):
            edges = g.edges + tuple((u, n - 1) for u in range(n - 1) if joined >> u & 1)
            key = _canonical_edges(n, edges)
            if key not in seen:
                seen.add(key)
                out.append(Graph(n, edges))
    return tuple(out)


def random_graphs(n: int, count: int, seed: int, p: float = 0.5) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        out.append(Graph(n, edges))
    return out


def labeled_graphs(n: int, max_edges: int | None = None):
    """Every labeled graph on n vertices, optionally bounded in edge count."""
    slots = list(combinations(range(n), 2))
    for bits in range(1 << len(slots)):
        if max_edges is not None and bits.bit_count() > max_edges:
            continue
        yield Graph(n, tuple(e for i, e in enumerate(slots) if (bits >> i) & 1))
