"""Abel-type polynomial set maps on the blocks of a set partition.

Fix a partition of a finite set into blocks B_0, ..., B_{n-1}.  On every
subset pi of the blocks put

    f_pi(x) = x * (x + w(pi))^(len(pi) - 1),

where w(pi) is the number of underlying elements the blocks of pi cover.
This map is of binomial type, and with all blocks of size a it collapses
to the Abel sequence x(x + a n)^{n-1}.  Its monomial coefficients count
tail forests: sets of tails (block, element) with distinct origin blocks
whose induced digraph on blocks is a directed forest, the set-partition
analogue of planted forests.  Only block sizes matter, so the type below
stores nothing else, and the count enumerates target blocks, not elements.
The partition-sum checks of the closed form and of its coefficients of
x^k run over all the blocks of their partition; the blocks of a subset
form a partition of their own (``BlockPartition.restrict``).  They are
one run of the block-sum kernel, and share its cap (``ring.BLOCK_SUM_CAP``)
with the set maps, whose values feed it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import combinations, product

from .kernel import full_block_sums
from .poly import Poly
from .ring import BLOCK_SUM_CAP, CapExceeded, SetMap

# by the rule that set ring.BLOCK_SUM_CAP: the largest n under 10 s and 512 MiB
# for a cold `verify --check tail-forests`, every k, on n seeded blocks of size
# 1-3 (2.2-2.8 s and 16 MiB at 7 blocks, 65 s at 8; Python 3.11, 2 cores)
TAIL_BLOCK_CAP = 7
# by the same rule, for a cold `setmaps abel` on n unit blocks: 4.2 s at 1000,
# 4.5-5.1 s and 32 MiB at 1200, 6.8-10.1 s at 1300 (Python 3.11, 2 cores).  It
# bounds the block count alone, not the values, as BLOCK_SUM_CAP does: heavier
# blocks make longer ints in the power (x + w)^(n-1), which the command line
# refuses before the power when it could not print them (``max_digits``)
ABEL_POLY_CAP = 1200


class BlockPartition:
    """Block sizes of a set partition; the ground set for the induced algebra
    is the set of blocks.  A value: equal sizes give equal, equally hashed
    partitions, and the sizes never change after ``__init__``."""

    __slots__ = ("sizes",)

    def __init__(self, sizes):
        sizes = tuple(int(s) for s in sizes)
        if any(s < 1 for s in sizes):
            raise ValueError("block sizes must be positive")
        self.sizes = sizes

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.sizes == other.sizes

    def __hash__(self) -> int:
        return hash(self.sizes)

    def __repr__(self) -> str:
        return f"BlockPartition(sizes={self.sizes!r})"

    @property
    def block_count(self) -> int:
        return len(self.sizes)

    @property
    def weight(self) -> int:
        return sum(self.sizes)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.sizes)) - 1

    def restrict(self, mask: int) -> "BlockPartition":
        """The blocks selected by ``mask``, in block order, as a partition of
        their own."""
        if mask & ~self.full_mask:
            raise ValueError(f"block subset {mask} outside {self.block_count} blocks")
        return BlockPartition(tuple(s for i, s in enumerate(self.sizes) if (mask >> i) & 1))

    def subset_weight(self, mask: int) -> int:
        """Total element count of the blocks selected by ``mask``."""
        if mask & ~self.full_mask:
            raise ValueError(f"block subset {mask} outside {self.block_count} blocks")
        return sum(self.sizes[i] for i in range(len(self.sizes)) if (mask >> i) & 1)


def abel_poly(blocks: BlockPartition, mask: int, cap: int = ABEL_POLY_CAP, max_digits: int = 0) -> Poly:
    """The polynomial x(x + w)^(len-1) attached to a subset of the blocks.

    The empty subset gets 1, the only value consistent with a nontrivial
    binomial-type map.  More than ``cap`` selected blocks raise
    ``CapExceeded`` before the power is taken, and so, when ``max_digits``
    is not 0, does a bound on the largest coefficient's decimal digits
    (``coefficient_digits``) above it.
    """
    count = mask.bit_count()
    if count == 0:
        return Poly.one()
    w = blocks.subset_weight(mask)
    if count > cap:
        raise CapExceeded(f"Abel polynomial over {count} blocks exceeds cap {cap}")
    _check_digits("Abel polynomial", count, w, max_digits)
    return Poly.x() * Poly((w, 1)) ** (count - 1)


def coefficient_digits(count: int, w: int) -> int:
    """A bound on the decimal digits of the largest coefficient of x(x + w)^(count-1):
    each, C(count-1, k-1) w^(count-k), is below their sum (w + 1)^(count-1).  The
    float logarithm is raised by a relative 1e-12, far past its rounding error."""
    return int((count - 1) * math.log10(w + 1) * (1 + 1e-12)) + 1


def _check_digits(what: str, count: int, w: int, max_digits: int) -> None:
    """Unless ``max_digits`` is 0, refuse x(x + w)^(count-1) when ``coefficient_digits`` passes it.
    w may be past the limit too: it is named by a power of ten above it, the bound for x(x + w)."""
    digits = coefficient_digits(count, w)
    if max_digits and digits > max_digits:
        raise CapExceeded(
            f"{what} over {count} blocks of weight under 10^{coefficient_digits(2, w)} has coefficients "
            f"of up to {digits} digits, over the limit of {max_digits} digits on printing an int "
            "(sys.get_int_max_str_digits; PYTHONINTMAXSTRDIGITS raises it)"
        )


def component_counts(n: int, k: int | None) -> tuple[int, ...]:
    """The component counts checked on n blocks: k, or every k in 1..n when k is
    None.  No blocks, or a k outside 1..n, is one usage error, raised before any cap."""
    if n < 1 or (k is not None and not 1 <= k <= n):
        got = "every k" if k is None else f"k = {k}"
        raise ValueError(f"the component count k must be in 1..n on at least one block: got {got} on n = {n}")
    return tuple(range(1, n + 1)) if k is None else (k,)


def abel_setmap(blocks: BlockPartition, cap: int = BLOCK_SUM_CAP) -> SetMap:
    """The full table of abel_poly over all subsets of the blocks: the general map of
    T -> w(T); ``SetMap`` checks MAX_GROUND_SIZE before the weights are drawn."""
    return abel_general_setmap(SetMap(blocks.block_count, _subset_weights(blocks)), cap)


def abel_general_setmap(alpha: SetMap, cap: int = BLOCK_SUM_CAP) -> SetMap:
    """The map S -> x(x + alpha_S)^(|S|-1) for an additive rational map alpha.

    Additivity (alpha_S equals the sum of alpha over the singletons of S)
    is what makes the result binomial type; it is checked, not assumed.
    With alpha constant -a on singletons the diagonal is the Abel sequence
    x(x - a n)^{n-1}.
    """
    n = alpha.n
    if n > cap:
        raise CapExceeded(f"Abel set map over ground size {n} exceeds cap {cap}")
    # additive: zero on the empty set, and alpha_S = alpha_{S - min S} + alpha_{min S}
    for S in range(1 << n):
        if alpha[S] != (alpha[S & (S - 1)] + alpha[S & -S] if S else 0):
            raise ValueError(f"alpha is not additive at subset {S}")
    table = []
    for S in range(1 << n):
        size = S.bit_count()
        if size == 0:
            table.append(Poly.one())
        else:
            table.append(Poly.x() * Poly((alpha[S], 1)) ** (size - 1))
    return SetMap(n, table)


def _subset_weights(blocks: BlockPartition) -> Iterator[int]:
    """w(mask) for every mask of the blocks, in mask order, by one doubling pass at the first draw."""
    weights = [0]
    for size in blocks.sizes:
        weights += [w + size for w in weights]
    yield from weights


def _partition_weight_sums(blocks: BlockPartition) -> tuple[int, ...]:
    """sums[k] = sum over k-part partitions gamma of the blocks of prod
    w(rho)^(len(rho)-1), k = 0..n; rho, a part of gamma, is a set of blocks,
    and w(rho) their total element count.  The full-set readout of the
    block-sum kernel on the int table rho -> w(rho)^(len(rho)-1)."""
    weights = _subset_weights(blocks)
    return full_block_sums([w ** (rho.bit_count() - 1) if rho else 0 for rho, w in enumerate(weights)])


def verify_closed_form_partition_sum(blocks: BlockPartition, cap: int = BLOCK_SUM_CAP) -> bool:
    """Check f = sum over partitions gamma of the blocks of
    x^len(gamma) * prod w(rho)^(len(rho)-1), on all the blocks (restrict
    them first for a subset)."""
    if blocks.block_count > cap:
        raise CapExceeded(f"partition sum over {blocks.block_count} blocks exceeds cap {cap}")
    return Poly(_partition_weight_sums(blocks)) == abel_poly(blocks, blocks.full_mask, cap)


def verify_forest_coefficients(
    blocks: BlockPartition, k: int | None = None, cap: int = BLOCK_SUM_CAP
) -> bool:
    """Check C(n-1, k-1) w^(n-k) = sum over k-part partitions of prod w(rho)^(len(rho)-1),
    the closed form's coefficient of x^k.

    n is the number of blocks and w their total weight (restrict the blocks
    first for a subset); with k = None every k in 1..n is checked.
    """
    n = blocks.block_count
    ks = component_counts(n, k)
    if n > cap:
        raise CapExceeded(f"partition sum over {n} blocks exceeds cap {cap}")
    w = blocks.weight
    sums = _partition_weight_sums(blocks)
    return all(math.comb(n - 1, kk - 1) * w ** (n - kk) == sums[kk] for kk in ks)


def verify_tail_forests(
    blocks: BlockPartition, k: int | None = None, cap: int = TAIL_BLOCK_CAP
) -> dict[int, bool]:
    """Check the tail-forest count against C(n-1, k-1) w^(n-k), the closed
    form's coefficient of x^k: one verdict per k, every k in 1..n when k is
    None (restrict the blocks first for a subset)."""
    n, w = blocks.block_count, blocks.weight
    # counted first: count_tail_forests checks the cap
    return {
        kk: count_tail_forests(blocks, kk, cap) == math.comb(n - 1, kk - 1) * w ** (n - kk)
        for kk in component_counts(n, k)
    }


def _forest_acyclic(n: int, successor: dict[int, int]) -> bool:
    """Cycle test for a digraph with out-degree at most one per block."""
    state = [0] * n  # 0 unseen, 1 on current walk, 2 done
    for start in range(n):
        if state[start]:
            continue
        walk = []
        node = start
        while node is not None and state[node] == 0:
            state[node] = 1
            walk.append(node)
            node = successor.get(node)
        if node is not None and state[node] == 1:
            return False  # walked into the current path: a directed cycle
        for visited in walk:
            state[visited] = 2
    return True


def count_tail_forests(blocks: BlockPartition, k: int, cap: int = TAIL_BLOCK_CAP, max_digits: int = 0) -> int:
    """Count tail forests with k components by exhaustive enumeration.

    A tail is a pair (origin block, target element); a tail forest is a
    set of tails with pairwise distinct origins whose induced digraph on
    blocks (origin -> block containing the target) is acyclic.  A forest
    with k components has exactly n - k tails.  A tail pointing inside its
    own origin block induces a self-loop and is never acyclic.  Acyclicity
    reads target blocks alone, so each acyclic choice of them adds the
    product of their sizes: C(n, k) n^(n-k) choices, whatever the weight.
    The count is a coefficient of x(x + w)^(n-1): ``max_digits`` refuses it as ``abel_poly`` does.
    """
    n = blocks.block_count
    component_counts(n, k)
    if n > cap:
        raise CapExceeded(f"tail-forest enumeration over {n} blocks exceeds cap {cap}")
    _check_digits("tail-forest closed form", n, blocks.weight, max_digits)
    total = 0
    for origins in combinations(range(n), n - k):
        for targets in product(range(n), repeat=n - k):
            if _forest_acyclic(n, dict(zip(origins, targets))):
                total += math.prod(blocks.sizes[t] for t in targets)
    return total
