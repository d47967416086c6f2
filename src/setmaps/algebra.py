"""Set-map composition and the EGF algebra built on it.

Composition is the set-map form of the exponential formula: (a o h)_S
sums a_{len(sigma)} times the product of h over the blocks, over the set
partitions sigma of S.  It reads the block sums of h at every subset
(``block_sums``, the every-mask readout of the kernel in ``ring``); the
decomposition and the recovery of a sequence are EGF algebra on it, and
``SetMap.inverse`` is one composition.  ``expand`` and the Abel partition
sums need the full set alone (``ring.full_block_sums``), so a process that
runs them never loads this module.  All arithmetic is exact (Fraction or
int); polynomial values work only in the terms of ``compose``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from fractions import Fraction

from .ring import SetMap, _packed, _slot, _transform, sequence_product


def block_sums(table) -> list[tuple]:
    """A list indexed by mask T of the rational ``table``: the tuple
    (c_0, ..., c_|T|), c_k the sum over k-block set partitions of T of the
    product of the table over the blocks (c_0 is 1 on the empty set).

    Ranked zeta/Moebius transform (Bjorklund, Husfeldt, Kaski, Koivisto,
    "Fourier meets Moebius", STOC 2007), Kronecker-packed (``_packed``):
    k! c_k is the k-fold disjoint product.  No block is empty, so a packed
    mask divides by z and its k-th power over z^k is one int product kept
    to n + 1 - k slots; the Moebius transform of that power holds
    k! c_k(T) lam^|T| in slot |T| - k at mask T, zeros below.
    """
    n, w, mask, lam, ranks, (zeta,) = _packed([(0, *table[1:])])
    zeta = [x >> w for x in zeta]
    sums, power = [[1]] + [[0] for _ in ranks[1:]], zeta
    for k in range(1, n + 1):
        if k > 1:
            power = [a * b & mask >> w * k for a, b in zip(power, zeta)]
        layer = _transform(list(power), operator.sub)
        for T, r in enumerate(ranks):
            if r >= k:
                sums[T].append(_slot(layer[T], w, r - k, math.factorial(k) * lam**r))
    return [tuple(s) for s in sums]


def compose(terms: Iterable, inner: SetMap) -> SetMap:
    """Compose a sequence with a rational set map vanishing on the empty set.

    (a o h)_S = sum_k a_k c_k(S) with c the block sums of h; the empty set
    gets a_0 (empty product).  The terms, 0..n, may be polynomials.
    """
    n = inner.n
    if inner.table[0] != 0:
        raise ValueError("composition requires value 0 on the empty set")
    seq = _terms(terms, n, "composition over ")
    sums = block_sums(inner.table)
    return SetMap(n, (_weigh(seq, sums[S]) for S in range(1 << n)))


def _terms(terms: Iterable, n: int, what: str) -> tuple:
    """The sequence as a tuple, which must cover indices 0..n; never padded."""
    seq = tuple(terms)
    if len(seq) < n + 1:
        raise ValueError(f"sequence too short: {what}ground-set size {n} needs terms 0..{n}, got {len(seq)}")
    return seq


def _weigh(terms: tuple, lengths: tuple):
    """sum_k terms[k] * lengths[k] over the block counts of one subset."""
    return sum(a * c for a, c in zip(terms, lengths))


def _revert(terms: tuple) -> list[Fraction]:
    """EGF terms b of the compositional inverse of sum_{k>=1} terms[k] t^k / k!:
    b_0 = 0, and b_m solves the degree-m coefficient of sum_k terms[k] B^k / k!
    = t, in which only k = 1 involves b_m."""
    b = [Fraction(0)] * len(terms)
    for m in range(1, len(terms)):
        acc = Fraction(int(m == 1))
        power = b
        for k in range(2, m + 1):
            power = sequence_product(power, b)
            acc -= terms[k] * power[m] / math.factorial(k)
        b[m] = acc / terms[1]
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
    0..max_n-1.  Term m is solved on {0, ..., m-1}, where the all-singletons
    partition isolates a_m; a final pass over the subsets of size <= max_n
    rejects maps that are not compositions with ``inner``.
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
    for v in range(max_n):
        if inner.table[1 << v] == 0:
            raise ValueError("recovery requires nonzero values on one-element subsets")
    sums = block_sums(inner.table)
    terms: list = [outer.table[0]]
    for m in range(1, max_n + 1):
        lengths = sums[(1 << m) - 1]
        terms.append((outer.table[(1 << m) - 1] - _weigh(terms, lengths)) / Fraction(lengths[m]))
    for S in range(1 << n):
        if S.bit_count() <= max_n and _weigh(terms, sums[S]) != outer.table[S]:
            raise ValueError("map is not a composition of any sequence with the inner map")
    return tuple(terms)
