"""Expansion of binomial-type polynomial set maps in binomial-type bases.

A polynomial set map p is of binomial type when

    p_S(x+y) = sum over (T, U) with T | U = S, T & U = 0 of p_T(x) p_U(y)

for every subset S.  For any nontrivial such map (p on the empty set is 1)
and any binomial-type basis a with delta functional A, the map expands as

    p_S(x) = sum over set partitions sigma of S of
             a_{len(sigma)}(x) * prod over blocks T of A p_T(x),

that is, p = compose((a_k), A p) as set maps.  ``expand`` applies A once
per subset and sums the partitions of the whole ground set by block
count, through the kernel's full-set readout (``ring.full_block_sums``);
``expansion_reconstructs`` checks that re-summation in any basis, and
composing the basis with the coefficients (``algebra.compose``) checks it
on every subset at once.  The chromatic set map is the headline instance.
Its derivative- and evaluation-at-a expansions are that check in the Abel
and falling bases (see ``AbelPolynomials`` and ``FallingFactorials``).
``expand`` takes the kernel's cap, ``ring.BLOCK_SUM_CAP``.  The binomial-
type test and the verifiers that need an oracle of their own live in
``checks``, so that ``expand`` compiles neither them nor the oracles.
"""

from __future__ import annotations

from .poly import Poly
from .ring import BLOCK_SUM_CAP, CapExceeded, SetMap, full_block_sums
from .umbral import BinomialFamily, RisingFactorials


class Expansion:
    """Basis coefficients of a map's polynomials in a binomial-type basis.

    ``coeffs`` holds the functional application A p_T for every subset T
    (zero on the empty set, since a delta functional kills constants).
    ``lengths`` holds their block sums c_k over the whole ground set, from
    one kernel run.  On every subset at once the expansion theorem is the
    set-map identity compose(family.members(n), coeffs) == p.
    """

    __slots__ = ("family", "coeffs", "lengths")

    def __init__(self, family: BinomialFamily, coeffs: SetMap, lengths: tuple):
        self.family = family
        self.coeffs = coeffs
        self.lengths = lengths

    def by_length(self) -> tuple:
        """c_k = sum over k-block partitions of the ground set of the
        coefficient product, for k = 0..n."""
        return self.lengths

    def reconstruct(self) -> Poly:
        """Re-sum the expansion: sum_k c_k a_k(x), a partition sum grouped by
        block count, exact because a partition's basis polynomial depends
        only on its block count."""
        lengths = self.by_length()
        acc = Poly.zero()
        for a, c in zip(self.family.members(len(lengths) - 1), lengths):
            if c:
                acc = acc + a * c
        return acc


def expand(
    p: SetMap, family: BinomialFamily = RisingFactorials(), cap: int = BLOCK_SUM_CAP
) -> Expansion:
    """Expansion coefficients A p_T of a nontrivial binomial-type map.

    The trivial map (zero on the empty set) has no expansion and is rejected.
    """
    if p.table[0] != 1:
        raise ValueError("expansion requires a nontrivial map: empty-set value must be 1")
    if p.n > cap:
        raise CapExceeded(f"expansion over a {p.n}-element subset exceeds cap {cap}")
    try:
        degree = max(q.degree for q in p.table)
    except AttributeError:  # a rational or a float value
        raise TypeError("expansion takes polynomial values only") from None
    functional = family.delta(max(1, degree))
    coeffs = [functional(q) for q in p.table]
    return Expansion(family, SetMap(p.n, coeffs), full_block_sums(coeffs))


def expansion_reconstructs(p: SetMap, family: BinomialFamily, cap: int = BLOCK_SUM_CAP) -> bool:
    """True iff the expansion of p re-sums to p exactly on the whole ground set."""
    return expand(p, family, cap).reconstruct() == p[p.full_mask]
