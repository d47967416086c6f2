"""The commutative ring of set maps on a finite ground set.

A set map assigns a value to every subset of {0, ..., n-1}; a table on n
elements stores 2**n entries indexed by bitmask.  The product is
convolution over ordered disjoint decompositions, (g * h)_S = sum of
g_T h_U over T | U = S, T & U = 0, and generalizes the product of
exponential generating functions.

The product runs on the block-sum kernel (``kernel``), which ``__mul__``
imports when it runs: a process that never multiplies set maps, such as
``expand``, ``chromatic`` or a table read, never compiles it.  Composition
(the kernel's every-mask readout) and the inverse, decomposition and
recovery built on it live in ``algebra``, loaded only to compose.  All
arithmetic is exact (Fraction or int); the kernel refuses other values.
``fractions`` is imported only where a quotient is not an int (``quotient``).
``expand`` and the checks read polynomial values through
``coordinates``, which imports ``poly`` when it runs.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from itertools import zip_longest

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


def quotient(a: int, b: int):
    """a / b exactly for ints: an int when b divides a, else a Fraction, so
    that integral work never loads ``fractions``."""
    q, r = divmod(a, b)
    if not r:
        return q
    from fractions import Fraction

    return Fraction(a, b)


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
    def unit(cls, n: int, one=None) -> "SetMap":
        """The ring unit: ``one`` (by default Fraction(1)) on the empty set,
        zero elsewhere."""
        if one is None:
            from fractions import Fraction

            one = Fraction(1)
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
        (``kernel._packed``) of a product of two factors."""
        if not isinstance(other, SetMap):
            return NotImplemented
        self._same_ground(other)
        from .kernel import _packed, _slot, _transform

        # lam^0 cannot clear a denominator on the empty set, so clear it first;
        # _packed refuses a value that has none
        c, d = (getattr(t[0], "denominator", 1) for t in (self.table, other.table))
        tables = [t if e == 1 else [x * e for x in t] for t, e in ((self.table, c), (other.table, d))]
        n, w, mask, lam, ranks, (g, h) = _packed(tables, ((0, 1), (0, 0, 1)))
        layer = _transform([a * b & mask for a, b in zip(g, h)], operator.sub)
        return SetMap(n, (_slot(x, w, r, c * d * lam**r) for x, r in zip(layer, ranks)))

    def map_values(self, fn: Callable) -> "SetMap":
        return SetMap(self.n, (fn(v) for v in self.table))

    def coordinates(self) -> tuple[list, list]:
        """The values' coordinates: a basis b_0, ..., b_D and, for each j, the
        column of j-th coordinates over all masks, so that the value at S is
        sum_j columns[j][S] b_j.  Here the basis is the monomials x^j; a table
        that holds its values in another basis overrides this (``graphs``)."""
        from .poly import Poly

        try:
            columns = list(zip_longest(*(q.coeffs for q in self.table), fillvalue=0))
        except AttributeError:  # a rational or a float value
            raise TypeError("coordinates are read from polynomial values only") from None
        return [Poly.monomial(j) for j in range(len(columns))], columns

    def inverse(self) -> "SetMap":
        """Multiplicative inverse of a rational map with value 1 on the empty
        set: the EGF 1/(1+t), terms (-1)^k k!, composed with h - unit."""
        if self.table[0] != 1:
            raise ValueError("inverse requires value 1 on the empty set")
        from .algebra import compose

        terms = [(-1) ** k * math.factorial(k) for k in range(self.n + 1)]
        return compose(terms, self - SetMap.unit(self.n))


# the default cap of `expand` and of every caller whose work is the block-sum kernel
# (``kernel``): the largest n under 10 s and 512 MiB for a cold `expand` on G(n, .3)
# seeded random.Random(1) in rising and abel:3/4 when `expand` ran on the kernel
# (Python 3.11, 2 cores); it bounds n, not the values' size.
# abel.abel_setmap, whose values feed the kernel, took 4.3 s and 69 MiB in process
# on 17 seeded blocks of size 1-3, and 8.7 s and 130 MiB on 18
BLOCK_SUM_CAP = 17


def _terms(terms: Iterable, n: int, what: str) -> tuple:
    """The sequence as a tuple, which must cover indices 0..n; never padded."""
    seq = tuple(terms)
    if len(seq) < n + 1:
        raise ValueError(f"sequence too short: {what}ground-set size {n} needs terms 0..{n}, got {len(seq)}")
    return seq


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
