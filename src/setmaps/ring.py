"""The commutative ring of set maps on a finite ground set.

A set map assigns a value to every subset of {0, ..., n-1}; a table on n
elements stores 2**n entries indexed by bitmask.  The product is
convolution over ordered disjoint decompositions, (g * h)_S = sum of
g_T h_U over T | U = S, T & U = 0, and generalizes the product of
exponential generating functions.

The product runs on one kernel, each mask's rank polynomial packed into
one int and zeta-transformed once (``_packed``).  ``full_block_sums``
reads the same transform at the full set alone, the partition sums of
``expand`` and the Abel closed form.  Composition, which reads every mask
(``block_sums``), and the inverse, decomposition and recovery built on it
live in ``algebra``, which a process loads only when it composes.  All
arithmetic is exact (Fraction or int).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import lru_cache

MAX_GROUND_SIZE = 20


class CapExceeded(RuntimeError):
    """An enumeration would exceed its configured size cap."""


def subsets_of(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` exactly once, descending, ending at 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# the vertex cap of the oracles that draw, or backtrack over, the Bell(n) partitions of n
# vertices, by the rule that set BLOCK_SUM_CAP: a cold `oracle stable-partitions` on the
# edgeless graph took 5.6 s and 16 MiB at 12 vertices, 40 s at 13 (Python 3.11, 2 cores)
BELL_ENUM_CAP = 12


def partitions_of(mask: int) -> Iterator[tuple[int, ...]]:
    """Yield every set partition of the subset ``mask`` exactly once.

    A partition is a tuple of pairwise disjoint nonempty block masks whose
    union is ``mask``, blocks ordered by smallest element.  The empty set
    has exactly one partition, the empty tuple.  Enumeration follows
    restricted growth strings over the elements of ``mask`` in increasing
    index order, so Bell(popcount) partitions come out in a fixed,
    reproducible order.  The stream is lazy and has no cap of its own: a
    caller that would drain it checks its own cap before it draws.
    """
    elements = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
    k = len(elements)
    if k <= 1:
        yield (mask,) if k else ()
        return
    # Restricted growth strings: element i joins a block opened before it or
    # opens the next; the prefix (all but the last element) advances like an
    # odometer, and the last element runs in the inner loop.
    m = k - 1
    bits = [1 << e for e in elements]
    last = bits[m]
    suffix = [0] * k  # suffix[i]: the prefix elements from i on
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | bits[i]
    growth = [0] * m  # growth[i]: the block of element i
    opened = [0] + [1] * m  # opened[i]: blocks opened by elements before i
    blocks = [0] * k
    blocks[0] = mask ^ last
    while True:
        used = opened[m]
        for j in range(used):
            blocks[j] |= last
            yield tuple(blocks[:used])
            blocks[j] ^= last
        blocks[used] = last
        yield tuple(blocks[: used + 1])
        # the last prefix element below its highest choice moves up one block;
        # the ones after it, each alone in a block it opened, return to block 0
        i = m - 1
        while i and growth[i] == opened[i]:
            i -= 1
        if i == 0:
            return
        b = growth[i]
        blocks[b] ^= bits[i]
        b += 1
        growth[i] = b
        blocks[b] = bits[i] if b == opened[i] else blocks[b] | bits[i]
        blocks[0] |= suffix[i + 1]
        growth[i + 1 :] = [0] * (m - 1 - i)
        opened[i + 1 :] = [max(opened[i], b + 1)] * (m - i)


@lru_cache(maxsize=None)
def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set."""
    if n == 0:
        return 1
    return sum(math.comb(n - 1, j) * bell_number(j) for j in range(n))


class SetMap:
    """Immutable dense table from subset masks of a ground set to values.

    Values are exact rationals or polynomials; the two kinds should not be
    mixed inside one table.  Instances are safe to share freely.
    """

    __slots__ = ("n", "table")

    def __init__(self, n: int, table: Iterable):
        if not 0 <= n <= MAX_GROUND_SIZE:
            raise ValueError(f"ground-set size must be in 0..{MAX_GROUND_SIZE}, got {n}")
        tab = tuple(table)
        if len(tab) != 1 << n:
            raise ValueError(f"table length {len(tab)} != 2**{n}")
        self.n = n
        self.table = tab

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int], object]) -> "SetMap":
        return cls(n, (fn(mask) for mask in range(1 << n)))

    @classmethod
    def constant(cls, n: int, value) -> "SetMap":
        return cls(n, (value,) * (1 << n))

    @classmethod
    def unit(cls, n: int, one=Fraction(1)) -> "SetMap":
        """The ring unit: ``one`` on the empty set, zero elsewhere."""
        zero = one * 0
        return cls(n, (one if mask == 0 else zero for mask in range(1 << n)))

    @classmethod
    def from_sequence(cls, n: int, terms: Iterable) -> "SetMap":
        """Cardinality-constant map a_S = a_{|S|}; needs terms 0..n."""
        from .algebra import _terms

        seq = _terms(terms, n, "")
        return cls(n, (seq[mask.bit_count()] for mask in range(1 << n)))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __getitem__(self, mask: int):
        if not 0 <= mask < len(self.table):
            raise IndexError(f"mask {mask} outside ground set of size {self.n}")
        return self.table[mask]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetMap):
            return NotImplemented
        return self.n == other.n and self.table == other.table

    def __repr__(self) -> str:
        return f"SetMap(n={self.n}, table={list(self.table)!r})"

    def _same_ground(self, other: "SetMap") -> None:
        if self.n != other.n:
            raise ValueError(f"ground-set mismatch: {self.n} != {other.n}")

    def __add__(self, other):
        if not isinstance(other, SetMap):
            return NotImplemented
        self._same_ground(other)
        return SetMap(self.n, (a + b for a, b in zip(self.table, other.table)))

    def __sub__(self, other):
        if not isinstance(other, SetMap):
            return NotImplemented
        self._same_ground(other)
        return SetMap(self.n, (a - b for a, b in zip(self.table, other.table)))

    def __neg__(self):
        return SetMap(self.n, (-a for a in self.table))

    def __mul__(self, other):
        """Convolution of rational maps: the packed ranked transform
        (``_packed``) of a product of two factors."""
        if not isinstance(other, SetMap):
            return NotImplemented
        self._same_ground(other)
        # lam^0 cannot clear a denominator on the empty set, so clear it first
        c, d = self.table[0].denominator, other.table[0].denominator
        tables = [t if e == 1 else [x * e for x in t] for t, e in ((self.table, c), (other.table, d))]
        n, w, mask, lam, ranks, (g, h) = _packed(tables, 2)
        layer = _transform([a * b & mask for a, b in zip(g, h)], operator.sub)
        return SetMap(n, (_slot(x, w, r, c * d * lam**r) for x, r in zip(layer, ranks)))

    def map_values(self, fn: Callable) -> "SetMap":
        return SetMap(self.n, (fn(v) for v in self.table))

    def inverse(self) -> "SetMap":
        """Multiplicative inverse of a rational map with value 1 on the empty
        set: the EGF 1/(1+t), terms (-1)^k k!, composed with h - unit."""
        if self.table[0] != 1:
            raise ValueError("inverse requires value 1 on the empty set")
        from .algebra import compose

        terms = [(-1) ** k * math.factorial(k) for k in range(self.n + 1)]
        return compose(terms, self - SetMap.unit(self.n))


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


def _packed(tables, k: int | None = None) -> tuple:
    """Kronecker-pack rational tables: n, the slot width w, the mask
    2^(w(n+1)) - 1, the scale lam, the ranks, and per table the zeta
    transform of T -> f_T lam^|T| 2^(w|T|), one int per mask.  lam makes
    every f_T lam^|T| integral: its least power of each prime up to 2^10
    comes by trial division, its factor over the primes past that from
    ``_large_scale``.  Every slot that is read holds a sum over ordered
    disjoint j-tuples of sets covering a mask of r elements, j <= k (n by
    default), of the product of the scaled values g_T = f_T lam^|T|; the
    slots below it are 0, so only its own size matters.  It is at most
    the coefficient of z^r in (sum of |g_T| z^|T|)^j, which counts every
    j-tuple, and at most r! [z^r] (sum over r' of M_r' z^r' / r'!)^j with
    M_r' the largest |g_T| at |T| = r', which counts the ordered set
    compositions; w is 2 bits more than the largest of the smaller bounds."""
    n = len(tables[0]).bit_length() - 1
    ranks = [0]
    for _ in range(n):
        ranks += [r + 1 for r in ranks]
    lam, by_rank = 1, [1] * (n + 1)
    for table in tables:
        for x, r in zip(table, ranks):
            by_rank[r] = math.lcm(by_rank[r], x.denominator)
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
    weight, top = [0] * (n + 1), [0] * (n + 1)
    for g in ints:
        for a, r in zip(g, ranks):
            a = abs(a)
            weight[r] += a
            if a > top[r]:
                top[r] = a
    bound, power, compositions = max(top), weight, top
    for _ in range(1, n if k is None else k):
        power = [sum(power[i] * weight[j - i] for i in range(j + 1)) for j in range(n + 1)]
        compositions = sequence_product(compositions, top)
        bound = max(bound, *map(min, power, compositions))
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
    c, rem = divmod(q, scale)
    return Fraction(q, scale) if rem else c


# the default cap of every caller whose work is this kernel: the largest n under
# 10 s and 512 MiB for a cold `expand` on G(n, .3) seeded random.Random(1) in
# rising and abel:3/4 (Python 3.11, 2 cores); it bounds n, not the values' size.
# abel.abel_setmap, whose values feed the kernel, took 4.3 s and 69 MiB in process
# on 17 seeded blocks of size 1-3, and 8.7 s and 130 MiB on 18
BLOCK_SUM_CAP = 17


def full_block_sums(table) -> tuple:
    """``algebra.block_sums(table)`` at the full set alone, from n 2^n int products:
    the Moebius transform there is the sum over masks X of (-1)^(n-|X|)
    times the power at X, so the masks split in two lists by sign.  No
    disjoint k-tuple short of n elements covers the full set, so the slots
    below n are 0 and slot n is k! c_k lam^n (slot n - k over z^k)."""
    n, w, mask, lam, ranks, (zeta,) = _packed([(0, *table[1:])])
    plus = [x >> w for x, r in zip(zeta, ranks) if (n - r) % 2 == 0]
    minus = [x >> w for x, r in zip(zeta, ranks) if (n - r) % 2]
    sums, pp, mp = [int(n == 0)], plus, minus
    for k in range(1, n + 1):
        if k > 1:
            pp = [a * b & mask >> w * k for a, b in zip(pp, plus)]
            mp = [a * b & mask >> w * k for a, b in zip(mp, minus)]
        sums.append(_slot(sum(pp) - sum(mp), w, n - k, math.factorial(k) * lam**n))
    return tuple(sums)


def sequence_product(a: Iterable, b: Iterable) -> tuple:
    """Binomial convolution (a . b)_m = sum_k C(m,k) a_k b_{m-k}.

    This is the set-map product restricted to cardinality-constant maps,
    i.e. multiplication of exponential generating functions.
    """
    sa, sb = tuple(a), tuple(b)
    return tuple(
        sum((sa[k] * sb[m - k] * math.comb(m, k) for k in range(1, m + 1)), sa[0] * sb[m])
        for m in range(min(len(sa), len(sb)))
    )
