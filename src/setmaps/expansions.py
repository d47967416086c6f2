"""Expansion of binomial-type polynomial set maps in binomial-type bases.

A polynomial set map p is of binomial type when

    p_S(x+y) = sum over (T, U) with T | U = S, T & U = 0 of p_T(x) p_U(y)

for every subset S.  For any nontrivial such map (p on the empty set is 1)
and any binomial-type basis a with delta functional A, the map expands as

    p_S(x) = sum over set partitions sigma of S of
             a_{len(sigma)}(x) * prod over blocks T of A p_T(x),

so the basis coefficients of every p_S are partition sums of functional
applications.  The chromatic set map is the headline instance; the
verifiers below check its classical and basis-specific coefficient
interpretations (acyclic-orientation pair counts in the rising basis,
stable-partition counts in the log basis, derivative and evaluation
coefficients in the Abel and falling bases) against brute-force oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .graphs import (
    Graph,
    chromatic_setmap,
    count_acyclic_orientations,
    count_stable_partitions,
)
from .ring import CapExceeded, SetMap, block_sums, partitions_of, subsets_of
from .umbral import (
    AbelPolynomials,
    BinomialFamily,
    FallingFactorials,
    LogPolynomials,
    Poly,
    RisingFactorials,
)

BINOMIAL_CHECK_CAP = 7
EXPAND_CAP = 12
PAIR_COUNT_CAP = 6
CHROMATIC_EXPANSION_CAP = 8
POWER_CAP = 7


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
                rhs = Fraction(0)
                for T in subsets_of(S):
                    rhs += evals[T][x] * evals[S ^ T][y]
                if evals[S][x + y] != rhs:
                    return False
    return True


@dataclass(frozen=True)
class Expansion:
    """Basis coefficients of one subset's polynomial in a binomial-type basis.

    ``coeffs`` holds the functional application A p_T for every T inside
    ``subset`` (zero elsewhere, including the empty set, since a delta
    functional kills constants).  ``sums`` holds their block sums for every
    T inside ``subset``, so one coefficient pass and one kernel run serve
    every reconstruction below it.
    """

    subset: int
    family: BinomialFamily
    coeffs: SetMap
    sums: dict = field(repr=False, compare=False)

    def _target(self, subset: Optional[int]) -> int:
        if subset is None:
            return self.subset
        if subset & ~self.subset:
            raise ValueError(f"subset {subset} not contained in expanded subset {self.subset}")
        return subset

    def by_length(self, subset: Optional[int] = None) -> tuple:
        """Aggregate c_k = sum over k-block partitions of the coefficient product."""
        return self.sums[self._target(subset)]

    def reconstruct(self, subset: Optional[int] = None) -> Poly:
        """Re-sum the expansion: sum_k c_k a_k(x), a partition sum grouped by
        block count, exact because a partition's basis polynomial depends
        only on its block count."""
        acc = Poly.zero()
        for k, c in enumerate(self.by_length(subset)):
            if c:
                acc = acc + self.family.poly(k) * c
        return acc


def expand(
    p: SetMap,
    subset: Optional[int] = None,
    family: BinomialFamily = RisingFactorials(),
    cap: int = EXPAND_CAP,
) -> Expansion:
    """Expansion coefficients A p_T of a nontrivial binomial-type map.

    ``subset`` defaults to the full ground set.  The trivial map (zero on
    the empty set) has no expansion and is rejected.
    """
    if p.table[0] != 1:
        raise ValueError("expansion requires a nontrivial map: empty-set value must be 1")
    target = p.full_mask if subset is None else subset
    if target & ~p.full_mask:
        raise ValueError(f"subset {target} outside ground set of size {p.n}")
    if target.bit_count() > cap:
        raise CapExceeded(f"expansion over a {target.bit_count()}-element subset exceeds cap {cap}")
    bound = max(1, max(p.table[T].degree for T in subsets_of(target)))
    functional = family.delta(bound)
    zero = Fraction(0)
    coeffs = [zero] * (1 << p.n)
    for T in subsets_of(target):
        coeffs[T] = functional(p.table[T])
    return Expansion(target, family, SetMap(p.n, coeffs), block_sums(coeffs, target))


def expansion_reconstructs(
    p: SetMap,
    family: BinomialFamily,
    subset: Optional[int] = None,
    cap: int = EXPAND_CAP,
) -> bool:
    """True iff the expansion of p over the subset re-sums to p exactly."""
    exp = expand(p, subset, family, cap)
    return exp.reconstruct() == p[exp.subset]


def target_subset(graph: Graph, subset: Optional[int], cap: int, what: str) -> int:
    """The vertex subset a graph check works on, full by default, checked
    against the vertex range and against ``cap`` before any work is done."""
    target = graph.vertex_mask if subset is None else subset
    if target & ~graph.vertex_mask:
        raise ValueError(f"subset {target} outside vertex range of {graph.n} vertices")
    if target.bit_count() > cap:
        raise CapExceeded(f"{what} over a {target.bit_count()}-element subset exceeds cap {cap}")
    return target


def verify_rising_orientation_pairs(
    graph: Graph, subset: Optional[int] = None, cap: int = PAIR_COUNT_CAP
) -> bool:
    """Check the rising-factorial coefficients against orientation-pair counts.

    Writing chi_S = sum_k c_k x(x+1)...(x+k-1), the claim (Brenti's) is
    that (-1)^(|S|-k) c_k counts pairs (sigma, alpha) with sigma a k-block
    partition of S and alpha an acyclic orientation of the edges lying
    inside blocks of sigma.  The pair side is brute-forced: orientations
    of the within-block graph factor over blocks.
    """
    local = graph.restrict(target_subset(graph, subset, cap, "orientation-pair verification"))
    coeffs = expand(chromatic_setmap(local), None, RisingFactorials()).by_length()
    full = local.vertex_mask
    counts = [0] * (local.n + 1)
    orientation_counts = {T: count_acyclic_orientations(local.restrict(T)) for T in subsets_of(full)}
    for sigma in partitions_of(full):
        prod = 1
        for block in sigma:
            prod *= orientation_counts[block]
        counts[len(sigma)] += prod
    sign = 1 if local.n % 2 == 0 else -1
    for k in range(local.n + 1):
        if sign * coeffs[k] != counts[k]:
            return False
        sign = -sign
    return True


def verify_abel_one_expansion(
    graph: Graph, subset: Optional[int] = None, cap: int = CHROMATIC_EXPANSION_CAP
) -> bool:
    """Check chi_S = sum over sigma of x(x - len)^(len-1) * prod chi'_T(1)."""
    target = target_subset(graph, subset, cap, "Abel-basis verification")
    return verify_chromatic_expansion(graph, target, Fraction(1), "derivative", cap)


def verify_stable_count_expansion(
    graph: Graph, subset: Optional[int] = None, cap: int = CHROMATIC_EXPANSION_CAP
) -> bool:
    """Check the log-basis expansion with stable-partition-count coefficients.

    Verifies that the basis functional B gives s_T = B chi_T, the
    brute-force stable-partition count of the induced subgraph, for every
    nonempty T, and that chi_S = sum over sigma of b_len(x) * prod s_T.
    B chi of the empty set is 0 by linearity, while the empty set has one
    empty stable partition, so the empty set is skipped.
    """
    local = graph.restrict(target_subset(graph, subset, cap, "stable-count verification"))
    p = chromatic_setmap(local)
    exp = expand(p, None, LogPolynomials(), cap)
    for T in subsets_of(local.vertex_mask):
        if T and exp.coeffs[T] != count_stable_partitions(local.restrict(T)):
            return False
    return exp.reconstruct() == p[local.vertex_mask]


def verify_chromatic_expansion(
    graph: Graph,
    subset: Optional[int] = None,
    parameter: Fraction = Fraction(0),
    mode: str = "derivative",
    cap: int = CHROMATIC_EXPANSION_CAP,
) -> bool:
    """Check the one-parameter chromatic expansions.

    mode 'derivative': chi_S = sum over sigma of
        x(x - a*len)^(len-1) * prod chi'_T(a)   (any a; a = 0 gives the
        classical monomial expansion in connected-subgraph derivatives).
    mode 'evaluation': chi_S = sum over sigma of
        (x/a)_len * prod chi_T(a)               (a != 0; a = 1 is the
        stable-partition expansion, a = -1 the rising/orientation form).

    These are expansions in the Abel and falling bases, whose delta
    functionals are f -> f'(a) and f -> f(a) - f(0), and chi_T(0) = 0 for
    every nonempty T.
    """
    a = Fraction(parameter)
    if mode == "derivative":
        family: BinomialFamily = AbelPolynomials(a)
    elif mode == "evaluation":
        if a == 0:
            raise ValueError("evaluation expansion requires a nonzero parameter")
        family = FallingFactorials(a)
    else:
        raise ValueError(f"mode must be 'derivative' or 'evaluation', got {mode!r}")
    target = target_subset(graph, subset, cap, "chromatic-expansion verification")
    return expansion_reconstructs(chromatic_setmap(graph.restrict(target)), family, None, cap)


def verify_power_identity(p: SetMap, x0, y0: int, cap: int = POWER_CAP) -> bool:
    """Check the integer-power identity for a binomial-type map.

    Evaluating the table at x0 and raising it to the y0-th set-map power
    must equal the table evaluated at x0*y0.
    """
    if not isinstance(y0, int) or y0 < 1:
        raise ValueError("the exponent must be a positive integer")
    if p.n > cap:
        raise CapExceeded(f"power identity over ground size {p.n} exceeds cap {cap}")
    x0 = Fraction(x0)
    base = p.map_values(lambda q: q(x0))
    target = p.map_values(lambda q: q(x0 * y0))
    power = base
    for _ in range(y0 - 1):
        power = power * base
    return power == target


def verify_stanley_evaluation(graph: Graph, subset: Optional[int] = None) -> bool:
    """Check (-1)^|S| chi_S(-1) = number of acyclic orientations, per subset."""
    local = graph.restrict(graph.vertex_mask if subset is None else subset)
    p = chromatic_setmap(local)
    for T in subsets_of(local.vertex_mask):
        sign = 1 if T.bit_count() % 2 == 0 else -1
        if sign * p[T](-1) != count_acyclic_orientations(local.restrict(T)):
            return False
    return True
