#!/usr/bin/env python3
"""Sweep every identity suite over all small graph isomorphism classes.

Usage:
    python scripts/run_identity_sweep.py [--max-n 4] [--random 20]

For each graph the sweep runs: the binomial-type grid check, the
expansion theorem on every subset in every standard basis (as the set-map
identity p = compose((a_k), A p)), the rising/orientation-pair and
stable-partition coefficient interpretations, derivative and evaluation
expansions at several base points, the acyclic-orientation evaluation,
and the integer-power identity.  Prints one row per graph and a summary.
The random graphs come from ``random.Random(SEED)``.
"""

import argparse
import random
import sys
import time
from itertools import combinations, permutations

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
from setmaps.umbral import AbelPolynomials, FallingFactorials, standard_families

SEED = 7


def iso_classes(n):
    slots = list(combinations(range(n), 2))
    perms = list(permutations(range(n)))
    seen, out = set(), []
    for bits in range(1 << len(slots)):
        edges = tuple(e for i, e in enumerate(slots) if (bits >> i) & 1)
        key = min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges)) for p in perms)
        if key not in seen:
            seen.add(key)
            out.append(Graph(n, edges))
    return out


def sweep_graph(graph):
    p = chromatic_setmap(graph)
    checks = {"binomial": check_binomial_type(p)}
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
    parser.add_argument("--max-n", type=int, default=4, help="largest exhaustive vertex count")
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
