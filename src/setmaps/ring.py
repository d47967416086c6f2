"""The commutative ring of set maps on a finite ground set.

A set map assigns a value to every subset of {0, ..., n-1}.  Subsets are
machine-word bitmasks and tables are dense, indexed by mask, so a map on
n elements stores 2**n entries.  The product is convolution over ordered
disjoint decompositions,

    (g * h)_S = sum over (T, U) with T | U = S, T & U = 0 of g_T * h_U,

with unit the indicator of the empty set.  Maps that are constant on
cardinality are sequences in disguise; the product then reduces to the
binomial convolution, i.e. multiplication of exponential generating
functions.  Composing a sequence with a set map is the set-map form of
the exponential formula,

    (a o h)_S = sum over set partitions sigma of S of
                a_{len(sigma)} * prod over blocks T of h_T,

and generalizes EGF composition.  Every such partition sum goes through
one kernel, ``block_sums``, which groups the sum by block count for every
subset of a table's ground set at once, in a list indexed by mask;
composition, inverse, decomposition and sequence recovery are sequence
(EGF) algebra on top of it.  All arithmetic is exact: values are
fractions.Fraction or int.  Polynomial values work only in sums and in the
sequence terms of ``compose``; the product and the kernel, and so every
map they read, are rational, and run on ints over one common denominator.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import lru_cache

MAX_GROUND_SIZE = 20
PARTITION_CAP = 14


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


def partitions_of(mask: int, cap: int = PARTITION_CAP) -> Iterator[tuple[int, ...]]:
    """Yield every set partition of the subset ``mask`` exactly once.

    A partition is a tuple of pairwise disjoint nonempty block masks whose
    union is ``mask``, blocks ordered by smallest element.  The empty set
    has exactly one partition, the empty tuple.  Enumeration follows
    restricted growth strings over the elements of ``mask`` in increasing
    index order, so Bell(popcount) partitions come out in a fixed,
    reproducible order.  ``cap`` bounds the popcount.
    """
    elements = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
    k = len(elements)
    if k > cap:
        raise CapExceeded(
            f"set-partition enumeration over {k} elements exceeds cap {cap} "
            f"(Bell({k}) = {bell_number(k)} partitions)"
        )
    if k <= 1:
        yield (mask,) if k else ()
        return
    # Restricted growth strings: element i joins one of the blocks opened by
    # elements before it, or opens the next one.  The prefix (all but the
    # last element) advances like an odometer; the last element runs in the
    # inner loop.
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
        seq = tuple(terms)
        if len(seq) < n + 1:
            raise ValueError(
                f"sequence too short: ground-set size {n} needs terms 0..{n}, got {len(seq)}"
            )
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
        """Convolution over ordered disjoint decompositions of each subset,
        for rational maps; the result's values are Fractions."""
        if not isinstance(other, SetMap):
            return NotImplemented
        self._same_ground(other)
        g, g_scale = _scaled(self.table)
        h, h_scale = _scaled(other.table)
        denominator = g_scale * h_scale
        out = []
        for S in range(1 << self.n):
            acc = 0
            sub = S
            while True:
                acc += g[sub] * h[S ^ sub]
                if sub == 0:
                    break
                sub = (sub - 1) & S
            out.append(Fraction(acc, denominator))
        return SetMap(self.n, out)

    def map_values(self, fn: Callable) -> "SetMap":
        return SetMap(self.n, (fn(v) for v in self.table))

    def inverse(self) -> "SetMap":
        """Multiplicative inverse of a rational map with value 1 on the empty set.

        With g = h - unit, the closed partition formula

            inv_S = sum over sigma of S of (-1)^len(sigma) len(sigma)!
                    * prod over blocks W of g_W

        is the composition of the EGF 1/(1+t) with g, and h * inv = unit.
        """
        if self.table[0] != 1:
            raise ValueError("inverse requires value 1 on the empty set")
        terms = [(-1) ** k * math.factorial(k) for k in range(self.n + 1)]
        return compose(terms, self - SetMap.unit(self.n))


def _scaled(values) -> tuple[list[int], int]:
    """Rational ``values`` as ints over one common denominator, and that
    denominator; a polynomial value raises TypeError."""
    fractions = [Fraction(x) for x in values]
    scale = math.lcm(*(x.denominator for x in fractions))
    return [x.numerator * (scale // x.denominator) for x in fractions], scale


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


def block_sums(table) -> list[tuple[Fraction, ...]]:
    """A list indexed by mask T of the rational ``table``: the tuple
    (c_0, ..., c_|T|) with c_k the sum over k-block set partitions of T of
    the product of the table over the blocks (c_0 is 1 on the empty set).

    Ranked zeta/Moebius transform (Bjorklund, Husfeldt, Kaski, Koivisto,
    "Fourier meets Moebius", STOC 2007): c_k = f^{*k} / k!, with f^{*k} the
    k-fold disjoint product.  Zeta-transforming f rank by rank makes that
    product a polynomial product in the rank at every mask; the rank-r
    layer of the k-th power, Moebius-transformed, is f^{*k} on r-sets.
    O(m^3 2^m) for m elements, on ints over one common denominator.
    """
    size, m = len(table), len(table).bit_length() - 1
    values = [0, *table[1:]]
    f, scale = _scaled(values)
    ranks = [t.bit_count() for t in range(size)]
    by_rank = [[t for t in range(size) if ranks[t] == r] for r in range(m + 1)]
    zeta = [[]] + [
        _transform([x if ranks[t] == r else 0 for t, x in enumerate(f)], operator.add)
        for r in range(1, m + 1)
    ]
    sums = [[Fraction(1)]] + [[Fraction(0), Fraction(x)] for x in values[1:]]
    power = zeta  # power[r]: rank-r layer of f^{*k}, zeta-transformed; k = 1 here
    for k in range(2, m + 1):
        nxt = [[]] * (m + 1)
        for r in range(k, m + 1):
            acc = list(map(operator.mul, power[k - 1], zeta[r - k + 1]))
            for i in range(k, r):
                acc = list(map(operator.add, acc, map(operator.mul, power[i], zeta[r - i])))
            nxt[r] = acc
        power = nxt
        denominator = math.factorial(k) * scale**k
        for r in range(k, m + 1):
            layer = _transform(list(power[r]), operator.sub)
            for t in by_rank[r]:
                sums[t].append(Fraction(layer[t], denominator))
    return [tuple(s) for s in sums]


def compose(terms: Iterable, inner: SetMap) -> SetMap:
    """Compose a sequence with a rational set map vanishing on the empty set.

    (a o h)_S sums a_{len(sigma)} * prod h_T over all set partitions sigma
    of S, i.e. sum_k a_k c_k(S) with c the block sums of h; the empty set
    gets a_0 (empty-product convention).  The terms may be polynomials.
    The sequence must supply terms 0..n; shortfalls are a hard error,
    never padding.
    """
    n = inner.n
    if inner.table[0] != 0:
        raise ValueError("composition requires value 0 on the empty set")
    seq = tuple(terms)
    if len(seq) < n + 1:
        raise ValueError(
            f"sequence too short: composition over ground-set size {n} needs terms 0..{n}, "
            f"got {len(seq)}"
        )
    sums = block_sums(inner.table)
    return SetMap(n, (_weigh(seq, sums[S]) for S in range(1 << n)))


def _weigh(terms: tuple, lengths: tuple):
    """sum_k terms[k] * lengths[k] over the block counts of one subset."""
    return sum(a * c for a, c in zip(terms, lengths))


def sequence_product(a: Iterable, b: Iterable) -> tuple:
    """Binomial convolution (a . b)_m = sum_k C(m,k) a_k b_{m-k}.

    This is the set-map product restricted to cardinality-constant maps,
    i.e. multiplication of exponential generating functions.
    """
    sa, sb = tuple(a), tuple(b)
    length = min(len(sa), len(sb))
    out = []
    for m in range(length):
        acc = None
        for k in range(m + 1):
            term = (sa[k] * sb[m - k]) * math.comb(m, k)
            acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)


def _revert(terms: tuple) -> list[Fraction]:
    """EGF terms b of the compositional inverse of sum_{k>=1} terms[k] t^k / k!.

    b_0 = 0 and b_m is solved from the degree-m coefficient of
    sum_k terms[k] B^k / k! = t, in which only k = 1 involves b_m.
    """
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

    Requires a rational map, terms[0] == its value on the empty set and
    terms[1] != 0.  Then outer - terms[0] * unit is (a - a_0) o h, so h is
    the EGF reversion of a - a_0 composed with it.
    """
    n = outer.n
    seq = tuple(terms)
    if len(seq) < n + 1:
        raise ValueError(
            f"sequence too short: decomposition over ground-set size {n} needs terms 0..{n}, "
            f"got {len(seq)}"
        )
    if seq[0] != outer.table[0]:
        raise ValueError("terms[0] must equal the empty-set value of the map")
    if seq[1] == 0:
        raise ValueError("terms[1] must be nonzero")
    return compose(_revert(seq[: n + 1]), outer - SetMap.unit(n, seq[0]))


def recover_sequence(outer: SetMap, inner: SetMap, max_n: int) -> tuple:
    """Recover terms 0..max_n of a with compose(a, inner) == outer.

    The inner map must be rational, vanish on the empty set and be nonzero
    on the one-element subsets used by the induction (elements
    0..max_n-1); term m is solved on the subset {0, ..., m-1}, where the
    all-singletons partition isolates a_m.  A final pass over every subset
    of size <= max_n rejects maps that are not compositions with ``inner``.
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
        terms.append((outer.table[(1 << m) - 1] - _weigh(terms, lengths)) / lengths[m])
    for S in range(1 << n):
        if S.bit_count() <= max_n and _weigh(terms, sums[S]) != outer.table[S]:
            raise ValueError("map is not a composition of any sequence with the inner map")
    return tuple(terms)
