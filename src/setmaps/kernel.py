"""The block-sum kernel: ranked zeta and Moebius transforms, Kronecker-packed.

Each mask's rank polynomial is packed into one int (``_packed``) and
zeta-transformed once (``_transform``); a slot of the result is read back
over the packing scale (``_slot``).  It has three readouts: the product of
two transforms (``SetMap.__mul__``), every mask of a weighted sum of the
powers of one (``algebra.compose``) and the full set alone
(``full_block_sums``: the Abel closed form, the expansion checks).  Only
those callers import it, so ``expand``, ``chromatic`` or a table read never
compile it.  All arithmetic is exact; it refuses values that are not rational.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable

from .ring import quotient, sequence_product


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


def full_block_sums(table) -> tuple:
    """(c_0, ..., c_n), c_k the sum over the k-block set partitions of the full
    set of the product of ``table`` over the blocks, from n 2^n int products:
    the Moebius transform there is the sum over masks X of (-1)^(n-|X|) times
    the power at X, so the masks split in two lists by sign.  No disjoint
    k-tuple short of n elements covers the full set, so the slots below n
    are 0 and slot n is k! c_k lam^n (slot n - k over z^k)."""
    if not table or len(table) & (len(table) - 1):  # a table over n elements has 2^n values
        raise ValueError(f"table length {len(table)} is not a power of 2")
    alone = [(0,) * k + (1,) for k in range(1, len(table).bit_length())]  # each power 1..n
    n, w, mask, lam, ranks, (zeta,) = _packed([(0, *table[1:])], alone)
    plus = [x >> w for x, r in zip(zeta, ranks) if (n - r) % 2 == 0]
    minus = [x >> w for x, r in zip(zeta, ranks) if (n - r) % 2]
    sums, pp, mp = [int(n == 0)], plus, minus
    for k in range(1, n + 1):
        if k > 1:
            pp = [a * b & mask >> w * k for a, b in zip(pp, plus)]
            mp = [a * b & mask >> w * k for a, b in zip(mp, minus)]
        sums.append(_slot(sum(pp) - sum(mp), w, n - k, math.factorial(k) * lam**n))
    return tuple(sums)


