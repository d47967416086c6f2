"""Small-graph corpora for exhaustive identity checks."""

import importlib.util
import random
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

from setmaps.graphs import Graph

ROOT = Path(__file__).resolve().parent.parent


def load_script(name: str):
    """The script ``scripts/<name>.py`` as a module of its own."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the isomorphism classes of the identity sweep: ``canonical(n, edges)`` is equal for
# two graphs exactly when they are isomorphic, and ``iso_classes(n)``, one graph of
# each class on n vertices, found by adding a vertex, is fast enough for n = 7
_sweep = load_script("run_identity_sweep")
canonical, iso_classes = _sweep.canonical, _sweep.iso_classes


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
