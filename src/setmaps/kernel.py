"""The block-sum kernel: ranked zeta and Moebius transforms, Kronecker-packed.

Each mask's rank polynomial is packed into one int (``_packed``) and
zeta-transformed once (``_transform``); one loop forms its powers
(``_powers``), and a slot is read back over the packing scale (``_slot``).
No other module reads this format, only its readouts: the ``product`` of
two tables, a column's weighted sum of the powers at every mask
(``composition_columns``), and the full set alone (``full_block_sums``).
Only their callers import it, so ``expand``, ``chromatic`` or a table read
never compile it.  All arithmetic is exact; it refuses non-rational values.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from itertools import chain

from .ring import common_denominator, quotient, sequence_product


def _transform(a: list, op: Callable) -> list:
    """In place, op=add is the zeta transform (sum over submasks), op=sub its
    inverse, the Moebius transform; each bit is a few slice-wide ``map``s."""
    size = len(a)
    half = 1
    while half < size:
        step = 2 * half
        if half < size // step:
            for j in range(half):
                a[j + half::step] = map(op, a[j + half::step], a[j::step])
        else:
            for base in range(0, size, step):
                a[base + half:base + step] = map(op, a[base + half:base + step], a[base:base + half])
        half = step
    return a


def _packed(tables, weights) -> tuple:
    """Kronecker-pack rational tables: n, the slot width w, the mask
    2^(w(n+1)) - 1, the scale lam, the ranks, and per table the zeta
    transform of T -> f_T lam^|T| 2^(w|T|), one int per mask.  lam makes
    every f_T lam^|T| integral: its least power of each prime up to 2^10
    comes by trial division, its factor over the primes past that from
    ``_large_scale``.  A slot that is read holds, for a vector W of
    ``weights``, sum_j W_j P_j(r), P_j(r) a sum over ordered disjoint
    j-tuples of sets covering a mask of r elements of the product of the
    scaled values g_T = f_T lam^|T|; the slots below it are 0, so only its
    own size matters.  |P_j(r)| <= b_j(r), the smaller of [z^r] (sum of
    |g_T| z^|T|)^j, which counts every j-tuple, and r! [z^r] (sum over r' of
    M_r' z^r' / r'!)^j, M_r' the largest |g_T| at |T| = r', which counts the
    ordered set compositions; w is 2 bits past the largest sum_j |W_j| b_j(r)."""
    n = len(tables[0]).bit_length() - 1
    ranks = [0]
    for _ in range(n):
        ranks += [r + 1 for r in ranks]
    lam, by_rank = 1, [1] * (n + 1)
    try:
        for table in tables:
            for x, r in zip(table, ranks):
                by_rank[r] = math.lcm(by_rank[r], x.denominator)
    except AttributeError:  # a Poly or a float
        raise TypeError("the kernel takes rational values only; evaluate polynomial values first") from None
    rest = []  # by rank, the part of the denominators' lcm with no prime up to 2^10
    for r, d in enumerate(by_rank):
        p = 2
        while d > 1 and p <= 1024:
            p = d if p * p > d else p
            e = 0
            while d % p == 0:
                d, e = d // p, e + 1
            lam, p = math.lcm(lam, p ** -(-e // r)), p + 1
        rest.append(d)
    if any(d > 1 for d in rest):
        lam = math.lcm(lam, _large_scale(tables, ranks, rest))
    ints = [[x.numerator * (lam**r // x.denominator) for x, r in zip(t, ranks)]
            if lam > 1 else [x.numerator for x in t] for t in tables]
    total, top = [0] * (n + 1), [0] * (n + 1)
    for g in ints:
        for a, r in zip(g, ranks):
            a = abs(a)
            total[r] += a
            if a > top[r]:
                top[r] = a
    bounds, power, compositions = [[1] + [0] * n, top], total, top  # b_0 (the empty tuple) and b_1
    for _ in range(2, max(map(len, weights), default=0)):
        power = [sum(power[i] * total[r - i] for i in range(r + 1)) for r in range(n + 1)]
        compositions = sequence_product(compositions, top)
        bounds.append(list(map(min, power, compositions)))
    bound = max((sum(abs(c) * b[r] for c, b in zip(W, bounds)) for W in weights for r in range(n + 1)),
                default=0)
    w = bound.bit_length() + 2
    zetas = [_transform([a << w * r for a, r in zip(g, ranks)], operator.add) for g in ints]
    return n, w, (1 << w * (n + 1)) - 1, lam, ranks, zetas


def _large_scale(tables, ranks: list, rest: list) -> int:
    """The factor of lam over the primes past trial division, whose parts
    ``rest[r]`` of the rank-r denominators' lcm it cannot factor.  A gcd
    refinement (Bach, Driscoll, Shallit, "Factor refinement", J. Algorithms
    1993) splits those parts of the single denominators into a coprime base,
    each element b a product of them; b^e_r(b) divides rest[r] exactly.  A
    base element that is a perfect power a^k gives its root a, at exponent
    k e_r(b), and a enters lam at the largest ceil(k e_r(b) / r).  That is
    the least factor when every root is squarefree, as it is for prime powers
    and for products of distinct primes; otherwise it still clears every
    denominator and never exceeds taking each part whole."""
    parts = {math.gcd(x.denominator, rest[r]) for t in tables for x, r in zip(t, ranks)}
    todo, base = [g for g in parts if g > 1], []
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:  # the product of the parts falls, so this ends
                del base[i]
                todo += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    scale = 1
    for b in base:
        a, k, top = b, 1, 0
        j = 2
        while 1 << j <= a:  # a prime j at a time, and again after a root
            root = _iroot(a, j)
            if root**j == a:
                a, k = root, k * j
            else:
                j += 1
                while any(j % i == 0 for i in range(2, math.isqrt(j) + 1)):
                    j += 1
        for r, d in enumerate(rest):
            e = 0
            while d % b == 0:
                d, e = d // b, e + 1
            if e:
                top = max(top, -(-k * e // r))
        scale *= a**top
    return scale


def _iroot(a: int, j: int) -> int:
    """floor(a^(1/j)) for a >= 1, by Newton's method from above: from a float
    estimate, raised past its rounding error, while the root fits a float."""
    bits = a.bit_length()
    x = int(2 ** (math.log2(a) / j) * (1 + 1e-12)) + 1 if bits < 1000 * j else 1 << -(-bits // j)
    while True:
        y = ((j - 1) * x + a // x ** (j - 1)) // j
        if y >= x:
            return x
        x = y


def _slot(packed: int, w: int, r: int, scale: int):
    """Slot r of ``packed``, read balanced mod 2^w, over ``scale``."""
    half = 1 << (w - 1)
    q = ((packed >> w * r) + half & 2 * half - 1) - half
    return quotient(q, scale)


def _powers(base: list, mask: int, w: int, top: int):
    """Yield the k-th power over z^k of each int of ``base``, k = 1..top, one at a
    time, kept to n + 1 - k slots: no block is empty, so each int divides by z."""
    for k in range(1, top + 1):
        power = base if k == 1 else [a * b & mask >> w * k for a, b in zip(power, base)]
        yield power


def product(g, h) -> list:
    """The convolution of two rational tables, (g * h)_S the sum of g_T h_U over
    T | U = S, T & U = 0.  lam^0 cannot clear a denominator on the empty set, and
    ``_packed`` refuses a value that has none, so the two are cleared first."""
    c, d = (getattr(t[0], "denominator", 1) for t in (g, h))
    tables = [t if e == 1 else [x * e for x in t] for t, e in ((g, c), (h, d))]
    n, w, mask, lam, ranks, (a, b) = _packed(tables, ((0, 1), (0, 0, 1)))
    layer = _transform([x * y & mask for x, y in zip(a, b)], operator.sub)
    return [_slot(x, w, r, c * d * lam**r) for x, r in zip(layer, ranks)]


def composition_columns(table, columns) -> list:
    """Per column (a_0, a_1, ...) of exact coefficients, sum_k a_k c_k(S) at every mask S, c_k
    as in ``full_block_sums``, for a rational ``table`` 0 on the empty set.  k! c_k is the
    k-fold disjoint product (Bjorklund, Husfeldt, Kaski, Koivisto, STOC 2007), so with the
    column's int weights W_k = L a_k / k!, one Moebius transform of sum_k W_k z^k times the
    k-th power holds L lam^|S| times the value in slot |S| at mask S.  A column is read once
    its last nonzero weight is in: the terms x^0..x^n hold one column of sums at a time."""
    weights, scales = zip(*(common_denominator(quotient(a, math.factorial(k)) for k, a in enumerate(column))
                            for column in columns))
    n, w, mask, lam, ranks, (zeta,) = _packed([table], weights)
    zeta[:] = [x >> w for x in zeta]
    last = [max((k for k, c in enumerate(W) if c), default=0) for W in weights]
    sums = [[W[0]] * len(zeta) for W in weights]  # the 0-th power is 1 at every mask
    for k, power in enumerate(chain([None], _powers(zeta, mask, w, max(last)))):
        for j, (W, L) in enumerate(zip(weights, scales)):
            if k and W[k]:
                sums[j][:] = [x + (W[k] * y << w * k) for x, y in zip(sums[j], power)]
            if k == last[j]:  # the column is whole: its values replace its packed sums
                sums[j] = [_slot(x, w, r, L * lam**r) for x, r in zip(_transform(sums[j], operator.sub), ranks)]
    return sums


def full_block_sums(table) -> tuple:
    """(c_0, ..., c_n), c_k the sum over the k-block set partitions of the full set of the
    product of ``table`` over the blocks.  The Moebius transform there sums (-1)^(n-|X|)
    times the power at X, so the masks are ordered by sign and the halves go through the
    power loop in turn, half a power list alive at a time.  No disjoint k-tuple short of n
    elements covers the full set: slot n (n - k over z^k) is k! c_k lam^n, zeros below."""
    if not table or len(table) & (len(table) - 1):  # a table over n elements has 2^n values
        raise ValueError(f"table length {len(table)} is not a power of 2")
    alone = [(0,) * k + (1,) for k in range(1, len(table).bit_length())]  # each power 1..n
    n, w, mask, lam, ranks, (zeta,) = _packed([(0, *table[1:])], alone)
    zeta[:] = [x >> w for sign in (0, 1) for x, r in zip(zeta, ranks) if (n - r) % 2 == sign]
    half = len(zeta) // 2
    even, odd = ([sum(power) for power in _powers(part, mask, w, n)] for part in (zeta[:half], zeta[half:]))
    return (int(n == 0), *(_slot(a - b, w, n - k, math.factorial(k) * lam**n)
                           for k, (a, b) in enumerate(zip(even, odd), 1)))
