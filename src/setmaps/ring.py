"""The commutative ring of set maps on a finite ground set.

A set map assigns a value to every subset of {0, ..., n-1}; a table on n
elements stores 2**n entries indexed by bitmask.  The product is
convolution over ordered disjoint decompositions, (g * h)_S = sum of
g_T h_U over T | U = S, T & U = 0, and generalizes the product of
exponential generating functions.  Composition is the set-map form of
the exponential formula: (a o h)_S sums a_{len(sigma)} times the product
of h over the blocks, over the set partitions sigma of S.

Both run on one kernel, each mask's rank polynomial packed into one int
and zeta-transformed once, read out by the product, by ``block_sums`` for
every subset and by ``full_block_sums`` for the full set alone; the
composition, inverse, decomposition and recovery are EGF algebra on
``block_sums``.  All arithmetic is exact (Fraction or int); polynomial
values work only in sums and in the terms of ``compose``.
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
    transform of T -> f_T lam^|T| 2^(w|T|), one int per mask.  lam is the
    least int making every f_T lam^|T| integral (by trial division; what is
    left past 2^10 is taken whole).  Every slot that is read holds a sum over
    ordered disjoint j-tuples of sets covering a mask of r elements, j <= k
    (n by default), of the product of the scaled values g_T = f_T lam^|T|;
    the slots below it are 0, so only its own size matters.  It is at most
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
    for r, d in enumerate(by_rank):
        p = 2
        while d > 1:
            p = d if p * p > d or p > 1024 else p
            e = 0
            while d % p == 0:
                d, e = d // p, e + 1
            lam, p = math.lcm(lam, p ** -(-e // r)), p + 1
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


def _slot(packed: int, w: int, r: int, scale: int):
    """Slot r of ``packed``, read balanced mod 2^w, over ``scale``."""
    half = 1 << (w - 1)
    q = ((packed >> w * r) + half & 2 * half - 1) - half
    c, rem = divmod(q, scale)
    return Fraction(q, scale) if rem else c


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


# the default cap of every caller whose work is this kernel: the largest n under
# 10 s and 512 MiB for a cold `expand` on G(n, .3) seeded random.Random(1) in
# rising and abel:3/4 (Python 3.11, 2 cores); it bounds n, not the values' size
BLOCK_SUM_CAP = 17


def full_block_sums(table) -> tuple:
    """``block_sums(table)`` at the full set alone, from n 2^n int products:
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
