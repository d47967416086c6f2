#!/usr/bin/env python3
"""Print the chromatic expansion of a graph in every standard basis.

Usage:
    python scripts/expansion_atlas.py --graph graphs/c5.txt
    python scripts/expansion_atlas.py --graph graphs/k4.txt --subset 7

For each basis the table shows the per-length coefficients c_k (so that
chi = sum_k c_k a_k) and the rebuilt polynomial, which must match the
chromatic polynomial exactly.  The chromatic table is built
once, over the submasks of the subset only.
"""

import argparse
import sys

from setmaps.expansions import expand
from setmaps.graphs import chromatic_setmap, load_graph
from setmaps.umbral import standard_families


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", required=True)
    parser.add_argument("--subset", type=int, default=None)
    args = parser.parse_args(argv)

    graph = load_graph(args.graph)
    subset = graph.vertex_mask if args.subset is None else args.subset
    # one table over the subset, its vertices relabelled 0..k-1 in order
    p = chromatic_setmap(graph.restrict(subset))
    target = p[p.full_mask]
    print(f"graph {args.graph}: n={graph.n} m={graph.edge_count} subset={subset}")
    print(f"chromatic polynomial: {target}\n")
    width = max(len(str(f)) for f in standard_families())
    ok = True
    for family in standard_families():
        exp = expand(p, family)
        coeffs = ", ".join(str(c) for c in exp.by_length())
        rebuilt = exp.reconstruct()
        ok = ok and rebuilt == target
        print(f"{str(family):>{width}}  c = ({coeffs})")
        print(f"{'':>{width}}  rebuilds to {rebuilt}")
    print("\nall bases rebuild the chromatic polynomial" if ok else "\nMISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
