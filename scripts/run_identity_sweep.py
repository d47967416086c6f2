#!/usr/bin/env python3
"""Sweep every identity suite over all small graph isomorphism classes.

Usage:
    python scripts/run_identity_sweep.py [--max-n 6] [--random 20]

For each graph the sweep runs: the chromatic table's two readers against
each other (every value p[S] against the value rebuilt from its counts,
sum_j s_j(S) (x)_j, from ``p.coordinates()``), the binomial-type check (the
ring equation p(x) p(y) = p(x+y), one set-map product per grid pair), the
expansion theorem on every subset in every standard basis (as the set-map
identity p = compose((a_k), A p)), the rising/orientation-pair and
stable-partition coefficient interpretations, derivative and evaluation
expansions at several base points, the acyclic-orientation evaluation,
and the integer-power identity (one composition).  Prints one row per
graph and a summary.  The random graphs come from ``random.Random(SEED)``.
"""

import argparse
import random
import sys
import time
from functools import lru_cache
from itertools import combinations, permutations, product

from setmaps.algebra import compose
from setmaps.checks import (
    check_binomial_type,
    verify_power_identity,
    verify_rising_orientation_pairs,
    verify_stable_count_expansion,
    verify_stanley_evaluation,
)
from setmaps.expansions import expand, expansion_reconstructs
from setmaps.graphs import Graph, chromatic_setmap
from setmaps.poly import Poly
from setmaps.umbral import AbelPolynomials, FallingFactorials, standard_families

SEED = 7


def canonical(n, edges):
    """The least sorted edge list over the relabellings that order the vertices
    by an invariant (degree, then twice the sorted invariants of the
    neighbors): equal for two graphs exactly when they are isomorphic."""
    near = [[] for _ in range(n)]
    for u, v in edges:
        near[u].append(v)
        near[v].append(u)
    invariant = [len(vs) for vs in near]
    for _ in range(2):
        invariant = [(invariant[v], tuple(sorted(invariant[u] for u in near[v]))) for v in range(n)]
    cells = {}
    for v in range(n):
        cells.setdefault(invariant[v], []).append(v)
    return min(
        tuple(sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in edges))
        for choice in product(*(permutations(cells[key]) for key in sorted(cells)))
        for label in [{v: i for i, v in enumerate(v for cell in choice for v in cell)}]
    )


@lru_cache(maxsize=None)
def iso_classes(n):
    """One graph of every isomorphism class on n vertices: each class on n - 1
    vertices with a new last vertex joined to each subset of it (every graph
    is one of those, less its last vertex), one kept per canonical form."""
    if n == 0:
        return (Graph(0),)
    seen, out = set(), []
    for g in iso_classes(n - 1):
        for joined in range(1 << (n - 1)):
            edges = g.edges + tuple((u, n - 1) for u in range(n - 1) if joined >> u & 1)
            key = canonical(n, edges)
            if key not in seen:
                seen.add(key)
                out.append(Graph(n, edges))
    return tuple(out)


def sweep_graph(graph):
    p = chromatic_setmap(graph)
    basis, columns = p.coordinates()
    # the table's two readers: each value against the one its counts re-sum to
    resum = [sum((b * column[S] for b, column in zip(basis, columns)), Poly.zero()) for S in range(1 << graph.n)]
    checks = {"coordinates": resum == [p[S] for S in range(1 << graph.n)], "binomial": check_binomial_type(p)}
    for family in standard_families():
        # the expansion theorem on every subset: p = compose((a_k), A p)
        checks[f"mix[{family}]"] = compose(family.members(graph.n), expand(p, family).coeffs) == p
    checks["rising-pairs"] = verify_rising_orientation_pairs(graph, p)
    checks["abel-one"] = expansion_reconstructs(p, AbelPolynomials(1))
    checks["stable-counts"] = verify_stable_count_expansion(graph, p)
    for a in (0, 1, -1):
        checks[f"derivative a={a}"] = expansion_reconstructs(p, AbelPolynomials(a))
    for a in (1, -1, 2):
        checks[f"evaluation a={a}"] = expansion_reconstructs(p, FallingFactorials(a))
    checks["stanley"] = verify_stanley_evaluation(graph, p)
    checks["power"] = verify_power_identity(p, 2, 2)
    return checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=6, help="largest exhaustive vertex count")
    parser.add_argument("--random", type=int, default=20, help="extra random 5-vertex graphs")
    args = parser.parse_args(argv)

    corpus = []
    for n in range(args.max_n + 1):
        corpus.extend(iso_classes(n))
    rng = random.Random(SEED)
    for _ in range(args.random):
        corpus.append(Graph(5, [e for e in combinations(range(5), 2) if rng.random() < 0.5]))

    start = time.time()
    failures = 0
    for index, graph in enumerate(corpus):
        checks = sweep_graph(graph)
        bad = [name for name, ok in checks.items() if not ok]
        failures += len(bad)
        verdict = "ok" if not bad else f"FAIL {bad}"
        print(f"[{index + 1:3d}/{len(corpus)}] n={graph.n} m={graph.edge_count:2d} "
              f"{len(checks):2d} checks {verdict}")
    elapsed = time.time() - start
    print(f"\n{len(corpus)} graphs, {failures} failing checks, {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
