"""Exact checks of the binomial-type identity and of the expansion
coefficients' combinatorial meaning, each against a brute-force count.

``check_binomial_type`` tests p_S(x+y) = sum over ordered disjoint (T, U)
covering S of p_T(x) p_U(y) on a grid that decides it.  The verifiers
check the coefficient interpretations that need an oracle of their own:
acyclic-orientation pair counts in the rising basis, stable-partition
counts in the log basis, Stanley's evaluation at -1, and the integer-power
identity.  They import those counts from ``oracles`` when they run.  Each
takes a graph as its whole ground set (restrict it first for a subset)
next to its chromatic table, and checks its cap before it reads the table.
A check's cap is the only cap on the work it runs: it passes the cap on to
the ``expand`` and the oracle it calls.  The power check, whose products
run on the kernel, takes the kernel's cap, ``ring.BLOCK_SUM_CAP``; the
checks that enumerate keep smaller ones, each over vertices.  ``expand``
and a table read never load this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .expansions import expand
from .graphs import Graph
from .ring import BELL_ENUM_CAP, BLOCK_SUM_CAP, CapExceeded, SetMap, partitions_of, subsets_of
from .umbral import LogPolynomials, RisingFactorials

BINOMIAL_CHECK_CAP = 7
# rising-pairs and stanley count the acyclic orientations of every induced subgraph; by the
# rule that set ring.BLOCK_SUM_CAP, for a cold run of either on K_n: on K8 1.8 s (stanley) and
# 2.0 s (rising-pairs), 16 MiB; on K9 18.8 s and 16.8 s (Python 3.11, 2 cores)
ORIENTATION_TABLE_CAP = 8
# the stable-count check draws sum_k C(n, k) Bell(k) = Bell(n + 1) partitions, a stable-partition
# count's work at n + 1 vertices.  Cold at 11: 6.8 s on the edgeless graph, 7.2 s and 17 MiB on
# G(11, .3) seeded random.Random(1); 37 s edgeless at 12 (Python 3.11, 2 cores)
STABLE_COUNT_CAP = BELL_ENUM_CAP - 1
# without --basis, the CLI's `expansion` check runs one expansion per standard
# basis, eight in all, so it gets a cap of its own by the rule that set
# ring.BLOCK_SUM_CAP: the largest n under 10 s and 512 MiB for a cold
# `verify --check expansion` on G(n, .3) seeded random.Random(1) (Python 3.11,
# 2 cores)
EXPANSION_CHECK_CAP = 15


def check_binomial_type(p: SetMap, cap: int = BINOMIAL_CHECK_CAP) -> bool:
    """Exactly test the binomial-type identity on every subset.

    Both sides are bivariate polynomials of degree at most D in each
    variable, where D bounds the degrees in the table, so agreement on the
    (D+1) x (D+1) integer grid is conclusive.
    """
    if p.n > cap:
        raise CapExceeded(f"binomial-type check over ground size {p.n} exceeds cap {cap}")
    degree = max(0, max(v.degree for v in p.table))
    points = range(degree + 1)
    # evals[T][s] = p_T(s) for s in 0..2D, covering both grid axes and x+y
    evals = [[p.table[T](s) for s in range(2 * degree + 1)] for T in range(1 << p.n)]
    for S in range(1 << p.n):
        for x in points:
            for y in points:
                rhs = 0
                for T in subsets_of(S):
                    rhs += evals[T][x] * evals[S ^ T][y]
                if evals[S][x + y] != rhs:
                    return False
    return True


def _orientation_table(graph: Graph) -> dict[int, int]:
    """The acyclic-orientation count of every induced subgraph, by vertex mask, under
    the graph's edge count: the vertex cap bounds the graph, whose edges bound every T's."""
    from .oracles import count_acyclic_orientations

    m = graph.edge_count
    return {T: count_acyclic_orientations(graph.restrict(T), m) for T in subsets_of(graph.vertex_mask)}


def verify_rising_orientation_pairs(graph: Graph, p: SetMap, cap: int = ORIENTATION_TABLE_CAP) -> bool:
    """Check the rising-factorial coefficients against orientation-pair counts.

    Writing chi_S = sum_k c_k x(x+1)...(x+k-1), the claim (Brenti's) is
    that (-1)^(|S|-k) c_k counts pairs (sigma, alpha) with sigma a k-block
    partition of S and alpha an acyclic orientation of the edges lying
    inside blocks of sigma.  The pair side is brute-forced: orientations
    of the within-block graph factor over blocks.  ``p`` is the chromatic
    table of ``graph``.
    """
    if graph.n > cap:
        raise CapExceeded(f"orientation-pair verification over {graph.n} vertices exceeds cap {cap}")
    coeffs = expand(p, RisingFactorials(), cap).by_length()
    orientations = _orientation_table(graph)
    counts = [0] * (graph.n + 1)
    for sigma in partitions_of(graph.vertex_mask):
        counts[len(sigma)] += math.prod(orientations[block] for block in sigma)
    return all((-1) ** (graph.n - k) * coeffs[k] == counts[k] for k in range(graph.n + 1))


def verify_stable_count_expansion(graph: Graph, p: SetMap, cap: int = STABLE_COUNT_CAP) -> bool:
    """Check the log-basis expansion with stable-partition-count coefficients.

    Verifies, on the chromatic table ``p`` of ``graph``, that the basis
    functional B gives s_T = B chi_T, the brute-force stable-partition
    count of the induced subgraph, for every nonempty T, and that
    chi_S = sum over sigma of b_len(x) * prod s_T.
    B chi of the empty set is 0 by linearity, while the empty set has one
    empty stable partition, so the empty set is skipped.
    """
    from .oracles import count_stable_partitions

    if graph.n > cap:
        raise CapExceeded(f"stable-count verification over {graph.n} vertices exceeds cap {cap}")
    exp = expand(p, LogPolynomials(), cap)
    for T in subsets_of(graph.vertex_mask):
        if T and exp.coeffs[T] != count_stable_partitions(graph.restrict(T), cap):
            return False
    return exp.reconstruct() == p[graph.vertex_mask]


def verify_power_identity(p: SetMap, x0, y0: int, cap: int = BLOCK_SUM_CAP) -> bool:
    """Check the integer-power identity for a binomial-type map.

    Evaluating the table at x0 and raising it to the y0-th set-map power
    must equal the table evaluated at x0*y0.  A whole-number x0 is used as
    an int, so that the 2 * 2^n evaluations of an int table run on ints.
    """
    if not isinstance(y0, int) or y0 < 1:
        raise ValueError("the exponent must be a positive integer")
    if p.n > cap:
        raise CapExceeded(f"power identity over ground size {p.n} exceeds cap {cap}")
    x0 = Fraction(x0)
    if x0.denominator == 1:
        x0 = x0.numerator
    base = p.map_values(lambda q: q(x0))
    target = p.map_values(lambda q: q(x0 * y0))
    power = base
    for _ in range(y0 - 1):
        power = power * base
    return power == target


def verify_stanley_evaluation(graph: Graph, p: SetMap, cap: int = ORIENTATION_TABLE_CAP) -> bool:
    """Check (-1)^|S| chi_S(-1) = number of acyclic orientations, per subset,
    on the chromatic table ``p`` of ``graph``."""
    if graph.n > cap:
        raise CapExceeded(f"Stanley evaluation over {graph.n} vertices exceeds cap {cap}")
    return all(
        (-1) ** T.bit_count() * p[T](-1) == count for T, count in _orientation_table(graph).items()
    )
