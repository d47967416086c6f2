#!/usr/bin/env python3
"""Build the chromatic table of one seeded graph at the largest ground set.

Usage:
    python scripts/table_at_cap.py [--n 20] [--p 0.5] [--max-rss-mib 200]

Draws G(n, p) with ``random.Random(SEED)`` (``gnp_edges``) and limits this
process's own address space (``RLIMIT_AS``, ``ADDRESS_SPACE_MIB``) before
any work, so a table that outgrows it stops with ``MemoryError`` instead
of crowding the host.  It builds ``chromatic_setmap`` and reads back:

- ``READS`` seeded subsets of at most 12 vertices, each equal to
  deletion-contraction on its induced subgraph (``chromatic_poly``);
- the full set's value: degree n, leading coefficient 1 and the
  coefficient of x^(n-1) equal to minus the edge count.

Then it compares its own peak resident set (``ru_maxrss``, KiB on Linux)
with ``--max-rss-mib``.  It prints one line per check and exits 0 when
every check passes.  The defaults are the table at ``MAX_GROUND_SIZE``,
n = 20, and bounds set from a measured run on Python 3.11 (146 MiB peak
RSS, see CHANGES.md).
"""

import argparse
import random
import resource
import sys
import time

from setmaps.graphs import Graph, chromatic_poly, chromatic_setmap
from setmaps.ring import MAX_GROUND_SIZE

SEED = 1
READS = 4
ADDRESS_SPACE_MIB = 512
MAX_RSS_MIB = 200


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """The edges of G(n, p): each pair u < v, in order, kept with probability p."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=MAX_GROUND_SIZE)
    parser.add_argument("--p", type=float, default=0.5)
    parser.add_argument("--max-rss-mib", type=int, default=MAX_RSS_MIB)
    args = parser.parse_args(argv)
    limit = ADDRESS_SPACE_MIB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    rng = random.Random(SEED)
    n = args.n
    graph = Graph(n, gnp_edges(n, args.p, rng))
    start = time.perf_counter()
    table = chromatic_setmap(graph)
    checks = []
    for _ in range(READS):
        S = sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(n, 12))))
        checks.append((f"subset {S}", table[S] == chromatic_poly(graph.restrict(S))))
    full = table[graph.vertex_mask]
    checks.append(("full set degree", full.degree == n))
    checks.append(("full set leading coefficient", full.coeffs[-1] == 1))
    checks.append(("full set x^(n-1) coefficient", n == 0 or full.coeffs[n - 1] == -graph.edge_count))
    seconds = time.perf_counter() - start
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks.append((f"peak RSS {rss_mib:.0f} MiB <= {args.max_rss_mib} MiB", rss_mib <= args.max_rss_mib))
    print(f"G({n}, {args.p}) seed {SEED}: {graph.edge_count} edges, table and reads {seconds:.2f} s")
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
