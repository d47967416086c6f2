"""Exact checks of the binomial-type identity and of the expansion
coefficients' combinatorial meaning, each against a count of its own.

``check_binomial_type`` tests p_S(x+y) = sum over ordered disjoint (T, U)
covering S of p_T(x) p_U(y), the ring equation p(x) p(y) = p(x+y), by the
expansion theorem: a map of that type is the composition of its basis with
its first coordinates (``algebra.compose``).  The integer power is one
composition too; it and Stanley's evaluation read a table's values at a
point as one linear read of its coordinates (``SetMap.coordinates``).  The
graph verifiers check the coefficient interpretations against counts taken
from the graph on the block-sum kernel (``kernel``), never from its
chromatic table: acyclic-orientation pair counts in the rising basis,
stable-partition counts in the log basis and Stanley's evaluation at -1.
The counts start from the stable-set indicator (``_stable_sets``): the
stable partitions are one composition with it, the acyclic orientations
the inverse of its signed map (``_orientation_counts``, kept for the last
graph, which the rising and Stanley checks share).  Each graph verifier
takes a graph as its whole ground set (restrict it first for a subset)
next to its chromatic table.  Every verifier checks its cap,
``ring.BLOCK_SUM_CAP``, before it reads the table; the ``expand`` it calls
reads the table and takes no cap.  ``expand`` and a table read load
neither this module nor the kernel.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import zip_longest

from .expansions import expand, linear_read, theorem_holds
from .graphs import Graph
from .kernel import full_block_sums
from .ring import BLOCK_SUM_CAP, CapExceeded, SetMap, rational
from .umbral import LogPolynomials, RisingFactorials


def check_binomial_type(p: SetMap, cap: int = BLOCK_SUM_CAP) -> bool:
    """Exactly test the binomial-type identity on every subset.

    By the expansion theorem with a = b, p is of binomial type exactly when
    p = 0, or p_empty = 1 and v_k = c_k(v_1) for the values' coordinates v_j
    (v_1 taken 0 on the empty set): one composition with the int terms k! x^k.
    """
    from .algebra import compose
    from .poly import Poly

    if p.n > cap:
        raise CapExceeded(f"binomial-type check over ground size {p.n} exceeds cap {cap}")
    _, columns = p.coordinates()
    if not any(map(any, columns)):
        return True
    zero = (0,) * (1 << p.n)  # each coordinate past the last
    ones = SetMap(p.n, (0, *columns[1][1:]) if len(columns) > 1 else zero)
    _, powers = compose([Poly.monomial(k, math.factorial(k)) for k in range(p.n + 1)], ones).coordinates()
    return all(list(a) == [math.factorial(k) * v for v in b]
               for k, (a, b) in enumerate(zip_longest(powers, columns, fillvalue=zero)))


def _stable_sets(graph: Graph) -> list[int]:
    """The indicator of the stable vertex sets, by mask: 1 on the empty set."""
    stable = [1]
    for v in range(graph.n):  # the masks with v are the ones without it, joined by v
        lower = sum(1 << u for u, w in graph.edges if w == v)
        stable += [s if not T & lower else 0 for T, s in enumerate(stable)]
    return stable


@lru_cache(maxsize=1)  # `verify --check all` reads it for stanley and for rising-pairs
def _orientation_counts(graph: Graph) -> tuple:
    """The acyclic-orientation count of every induced subgraph, by mask: the inverse
    of T -> (-1)^|T| [T stable], which is the sink recurrence AO(S) = sum over the
    nonempty stable I in S of (-1)^(|I|+1) AO(S - I)."""
    signed = [-s if T.bit_count() % 2 else s for T, s in enumerate(_stable_sets(graph))]
    return SetMap(graph.n, signed).inverse().table


def verify_rising_orientation_pairs(graph: Graph, p: SetMap, cap: int = BLOCK_SUM_CAP) -> bool:
    """Check the rising-factorial coefficients against orientation-pair counts.

    Writing chi_S = sum_k c_k x(x+1)...(x+k-1), the claim (Brenti's) is
    that (-1)^(|S|-k) c_k counts pairs (sigma, alpha) with sigma a k-block
    partition of S and alpha an acyclic orientation of the edges lying
    inside blocks of sigma.  Orientations of the within-block graph factor
    over blocks, so the pairs are the block sums of the orientation counts.
    ``p`` is the chromatic table of ``graph``.
    """
    if graph.n > cap:
        raise CapExceeded(f"orientation-pair verification over {graph.n} vertices exceeds cap {cap}")
    coeffs = expand(p, RisingFactorials()).by_length()
    counts = full_block_sums(_orientation_counts(graph))
    return all((-1) ** (graph.n - k) * coeffs[k] == counts[k] for k in range(graph.n + 1))


def verify_stable_count_expansion(graph: Graph, p: SetMap, cap: int = BLOCK_SUM_CAP) -> bool:
    """Check the log-basis expansion with stable-partition-count coefficients.

    Verifies, on the chromatic table ``p`` of ``graph``, that the basis
    functional B gives s_T = B chi_T, the stable-partition count of the
    induced subgraph (the block sums of the stable-set indicator), for every
    nonempty T, and that chi_S = sum over sigma of b_len(x) * prod s_T
    (``expansions.theorem_holds``).  The counts are one composition with
    terms 1 past term 0, which is 0: B chi of the empty set is 0 by linearity.
    """
    from .algebra import compose

    if graph.n > cap:
        raise CapExceeded(f"stable-count verification over {graph.n} vertices exceeds cap {cap}")
    exp = expand(p, LogPolynomials())
    if compose([0] + [1] * graph.n, SetMap(graph.n, [0, *_stable_sets(graph)[1:]])) != exp.coeffs:
        return False
    return theorem_holds(p, exp)


def verify_power_identity(p: SetMap, x0, y0: int, cap: int = BLOCK_SUM_CAP) -> bool:
    """Check the integer-power identity for a binomial-type map.

    Evaluating the table at x0 and raising it to the y0-th set-map power
    must equal the table evaluated at x0*y0.  The power of c + g, c the
    empty-set value, is sum_j C(y0, j) c^(y0-j) g^j with g^j = j! c_j(g): one
    composition.  A whole x0 is an int, so an int table stays int.
    """
    from .algebra import compose

    if not isinstance(y0, int) or y0 < 1:
        raise ValueError("the exponent must be a positive integer")
    if p.n > cap:
        raise CapExceeded(f"power identity over ground size {p.n} exceeds cap {cap}")
    x0 = rational(x0)
    basis, columns = p.coordinates()
    base, target = (SetMap(p.n, linear_read(columns, [b(x) for b in basis], p.n)) for x in (x0, x0 * y0))
    c = base.table[0]
    # the int 0 past y0, where c ** (y0 - j) is a float
    terms = [math.perm(y0, j) * c ** (y0 - j) if j <= y0 else 0 for j in range(p.n + 1)]
    return compose(terms, base - SetMap.unit(p.n, c)) == target


def verify_stanley_evaluation(graph: Graph, p: SetMap, cap: int = BLOCK_SUM_CAP) -> bool:
    """Check (-1)^|S| chi_S(-1) = number of acyclic orientations, per subset,
    on the chromatic table ``p`` of ``graph``."""
    if graph.n > cap:
        raise CapExceeded(f"Stanley evaluation over {graph.n} vertices exceeds cap {cap}")
    counts = _orientation_counts(graph)
    basis, columns = p.coordinates()
    values = linear_read(columns, [b(-1) for b in basis], graph.n)
    return all((-1) ** T.bit_count() * values[T] == counts[T] for T in range(1 << graph.n))
