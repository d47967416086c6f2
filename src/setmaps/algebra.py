"""Set-map composition and the EGF algebra built on it.

Composition is the set-map form of the exponential formula: (a o h)_S
sums a_{len(sigma)} times the product of h over the blocks, over the set
partitions sigma of S.  ``compose`` is the every-mask readout of the
block-sum kernel (``kernel``), one Moebius transform per coefficient column
of the terms; ``SetMap.inverse``, ``decompose`` and ``recover_sequence``
are EGF algebra on it.  The Abel partition sums and the expansion checks
read the full set alone (``kernel.full_block_sums``) and never load this
module.  All arithmetic is exact: the terms are ints, Fractions or Polys,
the inner map rational, and every division is ``ring.quotient``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from itertools import zip_longest

from .kernel import _packed, _slot, _transform, full_block_sums
from .ring import SetMap, _terms, common_denominator, is_exact, quotient, sequence_product


def compose(terms: Iterable, inner: SetMap) -> SetMap:
    """Compose a sequence with a rational set map vanishing on the empty set.

    (a o h)_S = sum_k a_k c_k(S), c_k(S) the sum over k-block set partitions
    of S of the product of h over the blocks (c_0 is 1 on the empty set).
    The terms, 0..n, are ints, Fractions or Polys.

    Ranked zeta/Moebius transform (Bjorklund, Husfeldt, Kaski, Koivisto,
    "Fourier meets Moebius", STOC 2007), Kronecker-packed (``_packed``):
    k! c_k is the k-fold disjoint product.  No block is empty, so a packed
    mask divides by z and its k-th power over z^k is one int product kept
    to n + 1 - k slots.  The transform is linear: a coefficient column of
    the terms, as int weights W_k = L a_k / k!, sums W_k z^k times the k-th
    power, and one Moebius transform of the sum holds L lam^|T| (a o h)_T in
    slot |T| at mask T, zeros below.  A column is read once its last nonzero
    weight is in, so the terms x^0..x^n hold one column of packed sums at a time.
    """
    if inner.table[0] != 0:
        raise ValueError("composition requires value 0 on the empty set")
    seq = _terms(terms, inner.n, "composition over ")[: inner.n + 1]
    polys = not all(map(is_exact, seq))
    if polys:
        from .poly import Poly
    # column j holds the terms' coefficients of x^j; an int or a Fraction is its own column 0
    coeffs = ((a.coeffs or (0,)) if polys and isinstance(a, Poly) else (a,) for a in seq)
    columns = list(zip_longest(*coeffs, fillvalue=0))
    if not all(is_exact(a) for column in columns for a in column):
        raise TypeError("composition terms are ints, Fractions or Polys")
    weights, scales = zip(*(common_denominator(quotient(a, math.factorial(k)) for k, a in enumerate(column))
                            for column in columns))
    n, w, mask, lam, ranks, (zeta,) = _packed([inner.table], weights)
    power = zeta = [x >> w for x in zeta]
    last = [max((k for k, c in enumerate(W) if c), default=0) for W in weights]
    sums = [[W[0]] * len(zeta) for W in weights]  # the 0-th power is 1 at every mask
    for k in range(max(last) + 1):
        if k > 1:
            power = [a * b & mask >> w * k for a, b in zip(power, zeta)]
        for j, (W, L) in enumerate(zip(weights, scales)):
            if k and W[k]:
                sums[j][:] = [x + (W[k] * y << w * k) for x, y in zip(sums[j], power)]
            if k == last[j]:  # the column is whole: its values replace its packed sums
                _transform(sums[j], operator.sub)
                sums[j] = [_slot(x, w, r, L * lam**r) for x, r in zip(sums[j], ranks)]
    return SetMap(n, map(Poly, zip(*sums)) if polys else sums[0])


def _revert(terms: tuple) -> list:
    """EGF terms b of the compositional inverse of sum_{k>=1} terms[k] t^k / k!:
    b_0 = 0, and b_m solves the degree-m coefficient of sum_k terms[k] B^k / k!
    = t, in which only k = 1 involves b_m."""
    b = [0] * len(terms)
    for m in range(1, len(terms)):
        acc = int(m == 1)
        power = b
        for k in range(2, m + 1):
            power = sequence_product(power, b)
            acc -= quotient(terms[k] * power[m], math.factorial(k))
        b[m] = quotient(acc, terms[1])
    return b


def decompose(outer: SetMap, terms: Iterable) -> SetMap:
    """Solve compose(terms, h) == outer for the unique h with h_empty = 0.

    Requires a rational map, terms[0] == its value on the empty set and,
    on a nonempty ground set, terms[1] != 0.  Then outer - terms[0] * unit
    is (a - a_0) o h, so h is the EGF reversion of a - a_0 composed with it.
    """
    n = outer.n
    seq = _terms(terms, n, "decomposition over ")
    if seq[0] != outer.table[0]:
        raise ValueError("terms[0] must equal the empty-set value of the map")
    if n >= 1 and seq[1] == 0:
        raise ValueError("terms[1] must be nonzero")
    return compose(_revert(seq[: n + 1]), outer - SetMap.unit(n, seq[0]))


def recover_sequence(outer: SetMap, inner: SetMap, max_n: int) -> tuple:
    """Recover terms 0..max_n of a with compose(a, inner) == outer.

    ``inner`` is rational, 0 on the empty set and nonzero on the singletons
    0..max_n-1.  Term m is solved on {0, ..., m-1}, by the full-set readout
    of its masks, where the all-singletons partition isolates a_m; one
    composition, terms past max_n 0, rejects on the subsets of size <= max_n
    the maps that are not compositions with ``inner``.
    """
    n = outer.n
    if inner.n != n:
        raise ValueError(f"ground-set mismatch: {n} != {inner.n}")
    if inner.table[0] != 0:
        raise ValueError("recovery requires inner value 0 on the empty set")
    if max_n > n:
        raise ValueError(f"ground set of size {n} cannot determine terms beyond index {n}")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if any(inner.table[1 << v] == 0 for v in range(max_n)):
        raise ValueError("recovery requires nonzero values on one-element subsets")
    terms: list = [outer.table[0]]
    for m in range(1, max_n + 1):
        lengths = full_block_sums(inner.table[: 1 << m])
        terms.append(quotient(outer.table[(1 << m) - 1] - sum(map(operator.mul, terms, lengths)), lengths[m]))
    composed = compose(terms + [0] * (n - max_n), inner)
    if any(composed[S] != outer.table[S] for S in range(1 << n) if S.bit_count() <= max_n):
        raise ValueError("map is not a composition of any sequence with the inner map")
    return tuple(terms)
