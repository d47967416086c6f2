"""Expansion of binomial-type polynomial set maps in binomial-type bases.

A polynomial set map p is of binomial type when

    p_S(x+y) = sum over (T, U) with T | U = S, T & U = 0 of p_T(x) p_U(y)

for every subset S.  For any nontrivial such map (p on the empty set is 1)
and any binomial-type basis a with delta functional A, the map expands as

    p_S(x) = sum over set partitions sigma of S of
             a_{len(sigma)}(x) * prod over blocks T of A p_T(x),

that is, p = compose((a_k), A p) as set maps.  ``expand`` is a change of
basis.  It reads each p_T's coordinates v_j(T) in a binomial-type basis b
the map already holds (``SetMap.coordinates``): the stable-partition counts
s_j(T) in the falling factorials (x)_j for a chromatic table, the monomial
coefficients in x^j for any other map.  A p_T is their dot product with
alpha_j = A b_j, one linear read of every mask (``linear_read``).  The
theorem applied to b itself gives b_m = sum_k B_{m,k}(alpha) a_k, the
connection constants of Roman and Rota (Adv. Math. 1978) in the partial
Bell polynomials B (Comtet, Advanced Combinatorics, 1974, 3.3): B_{.,k} is
the k-th binomial power of alpha (``ring.sequence_product``) over k!.  So
the block sums over the whole ground set are c_k = sum_j v_j(V)
B_{j,k}(alpha), with no partition sum and no kernel.
``expansion_reconstructs`` checks the theorem: the block-sum kernel's
partition sums of the coefficients (``kernel.full_block_sums``) must be the
c_k, and the c_k must re-sum to p.  Composing the basis with the
coefficients (``algebra.compose``) checks it on every subset at once.  The
chromatic set map is the headline instance.  Its derivative- and
evaluation-at-a expansions are that check in the Abel and falling bases
(see ``AbelPolynomials`` and ``FallingFactorials``).  ``expand`` keeps the
kernel's cap, ``ring.BLOCK_SUM_CAP``, though it runs no kernel.  The
binomial-type test and the verifiers that need an oracle of their own live
in ``checks``, so that ``expand`` compiles neither them nor the oracles.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat

from .poly import Poly
from .ring import BLOCK_SUM_CAP, CapExceeded, SetMap, quotient, sequence_product
from .umbral import BinomialFamily, RisingFactorials


class Expansion:
    """Basis coefficients of a map's polynomials in a binomial-type basis.

    ``coeffs`` holds the functional application A p_T for every subset T
    (zero on the empty set, since a delta functional kills constants).
    ``lengths`` holds the coordinates c_k of the full set's polynomial in
    the basis, which for a binomial-type map are the block sums of the
    coefficients over the whole ground set.  On every subset at once the
    expansion theorem is the set-map identity
    compose(family.members(n), coeffs) == p.
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


def linear_read(columns, weights, n: int) -> list:
    """sum_j weights[j] columns[j][T] for each of the 2^n masks T: the functional
    b_j -> weights[j] on every value, from ``SetMap.coordinates``."""
    acc = [0] * (1 << n)
    for column, w in zip(columns, weights):
        if w:
            acc = list(map(operator.add, acc, map(operator.mul, column, repeat(w))))
    return acc


def expand(
    p: SetMap, family: BinomialFamily = RisingFactorials(), cap: int = BLOCK_SUM_CAP
) -> Expansion:
    """Expansion coefficients A p_T of a nontrivial binomial-type map, and the
    full set's coordinates c_k in the basis, by a change of basis (module
    docstring): one functional application per member of the basis the map
    holds (``SetMap.coordinates``), one linear read, and no partition sum.

    The trivial map (zero on the empty set) has no expansion and is rejected.
    """
    if p[0] != 1:
        raise ValueError("expansion requires a nontrivial map: empty-set value must be 1")
    n = p.n
    if n > cap:
        raise CapExceeded(f"expansion over a {n}-element subset exceeds cap {cap}")
    basis, columns = p.coordinates()
    alpha = list(map(family.delta(max(1, len(basis) - 1)), basis))
    scale = math.lcm(*(a.denominator for a in alpha))
    ints = [a.numerator * (scale // a.denominator) for a in alpha]
    acc = linear_read(columns, ints, n)
    coeffs = acc if scale == 1 else [quotient(c, scale) for c in acc]
    # B_{j,k}(alpha) = j! [t^j] (sum_i alpha_i t^i / i!)^k / k!: the k-th binomial power
    # of alpha over k!, homogeneous of degree k in the scaled ints
    top, power, lengths = [column[-1] for column in columns], [1] + [0] * (len(ints) - 1), []
    for k in range(max(n, len(ints) - 1) + 1):
        lengths.append(quotient(sum(map(operator.mul, top, power)), math.factorial(k) * scale**k))
        power = sequence_product(power, ints)
    return Expansion(family, SetMap(n, coeffs), tuple(lengths))


def expansion_reconstructs(p: SetMap, family: BinomialFamily, cap: int = BLOCK_SUM_CAP) -> bool:
    """True iff the expansion theorem holds for p on the whole ground set: the
    block-sum kernel's partition sums of the subset coefficients are the full
    set's coordinates c_k, and those re-sum to p there."""
    from .kernel import full_block_sums

    exp = expand(p, family, cap)
    return exp.reconstruct() == p[p.full_mask] and full_block_sums(exp.coeffs.table) == exp.lengths
