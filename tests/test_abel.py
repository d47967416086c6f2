"""Abel-type set maps on blocks, partition sums, and tail forests."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setmaps import abel
from setmaps.abel import (
    ABEL_POLY_CAP,
    BlockPartition,
    _partition_weight_sums,
    abel_general_setmap,
    abel_poly,
    abel_setmap,
    coefficient_digits,
    count_tail_forests,
    verify_closed_form_partition_sum,
    verify_tail_forests,
)
from setmaps.checks import check_binomial_type
from setmaps.poly import Poly
from setmaps.ring import CapExceeded, SetMap, partitions_of
from setmaps.umbral import AbelPolynomials


def size_vectors(max_blocks, max_size):
    for count in range(1, max_blocks + 1):
        yield from combinations_with_replacement(range(1, max_size + 1), count)


# ---------------------------------------------------------------------------
# the closed-form map
# ---------------------------------------------------------------------------


def test_block_partition_validation():
    for sizes in ((2, 0), (1.5, 2), ("3/2",)):
        with pytest.raises(ValueError, match="block sizes must be positive integers"):
            BlockPartition(sizes)
    bp = BlockPartition((2, 1, 3))
    assert bp.block_count == 3 and bp.weight == 6
    assert bp.restrict(0b101).weight == 5


def test_block_partitions_are_values():
    assert BlockPartition((2, 1)) == BlockPartition([2, 1])
    assert len({BlockPartition((2, 1)), BlockPartition([2, 1])}) == 1
    assert BlockPartition((2, 1)) != BlockPartition((1, 2))
    assert BlockPartition(["2", 1.0]).sizes == (2, 1)


def test_block_partition_restrict_keeps_block_order():
    bp = BlockPartition((2, 1, 3, 1))
    assert bp.restrict(0b1101).sizes == (2, 3, 1)
    assert bp.restrict(0b0110).sizes == (1, 3)
    assert bp.restrict(bp.full_mask) == bp
    assert bp.restrict(0).sizes == ()
    # the closed form of the blocks at a subset: x(x + 6)^2 on sizes 2, 3, 1
    assert abel_poly(bp.restrict(0b1101)) == Poly.x() * Poly((6, 1)) ** 2
    for mask in (0b10000, 0b10101, -1):
        with pytest.raises(ValueError, match="outside 4 blocks"):
            bp.restrict(mask)


def test_single_block_gives_x():
    for size in (1, 2, 5):
        assert abel_poly(BlockPartition((size,))) == Poly.x()


def test_two_singleton_blocks_full_set():
    # x(x + 2) at weight 2, two blocks
    assert abel_poly(BlockPartition((1, 1))) == Poly((0, 2, 1))


def test_sizes_two_one_full_set():
    # x(x + 3) at weight 3, two blocks
    assert abel_poly(BlockPartition((2, 1))) == Poly((0, 3, 1))


def test_abel_poly_keeps_int_coefficients():
    poly = abel_poly(BlockPartition((2, 1, 1)))
    assert poly == Poly((0, 16, 8, 1))  # x(x + 4)^2
    assert {type(c) for c in poly.coeffs} == {int}


def test_empty_subset_value_is_one():
    assert abel_poly(BlockPartition((2, 1)).restrict(0)) == Poly.one()
    assert abel_poly(BlockPartition(()), cap=0) == Poly.one()


def test_abel_poly_takes_its_blocks_whole():
    # cap and max_digits are keyword-only: an old positional mask fails loudly
    with pytest.raises(TypeError):
        abel_poly(BlockPartition((2, 1)), 0b11)
    with pytest.raises(CapExceeded, match="over 3 blocks exceeds cap 2"):
        abel_poly(BlockPartition((2, 1, 1)), cap=2)


def test_abel_setmap_is_binomial_type():
    for sizes in size_vectors(4, 3):
        assert check_binomial_type(abel_setmap(BlockPartition(sizes)))


def test_abel_setmap_cap():
    # the set maps feed the block-sum kernel and take its cap of 17, checked before any power
    with pytest.raises(CapExceeded, match="ground size 18 exceeds cap 17"):
        abel_setmap(BlockPartition((1,) * 18))
    with pytest.raises(CapExceeded, match="ground size 4 exceeds cap 3"):
        abel_setmap(BlockPartition((1,) * 4), cap=3)


def test_abel_setmap_admits_blocks_past_the_old_cap():
    # 13 blocks: over the former cap of 12
    bp = BlockPartition((1, 2, 3) * 4 + (2,))
    p = abel_setmap(bp)
    assert p.n == 13
    assert p[p.full_mask] == abel_poly(bp)


# ---------------------------------------------------------------------------
# the general additive-weight map
# ---------------------------------------------------------------------------


def additive_map(n, singleton_values):
    def value(S):
        total = Fraction(0)
        for v in range(n):
            if (S >> v) & 1:
                total += Fraction(singleton_values[v])
        return total

    return SetMap.from_function(n, value)


def test_general_map_with_zero_weights_is_monomials():
    p = abel_general_setmap(additive_map(3, (0, 0, 0)))
    for S in range(8):
        assert p[S] == Poly.monomial(S.bit_count())


def test_general_map_diagonal_is_abel_sequence():
    # constant singleton weight -a turns the diagonal into x(x - a n)^(n-1)
    a = Fraction(3, 2)
    n = 4
    p = abel_general_setmap(additive_map(n, (-a,) * n))
    fam = AbelPolynomials(a)
    for S in range(1 << n):
        assert p[S] == fam.poly(S.bit_count())


def test_general_map_reproduces_block_map():
    sizes = (2, 1, 3)
    bp = BlockPartition(sizes)
    p = abel_general_setmap(additive_map(len(sizes), sizes))
    assert p == abel_setmap(bp)
    assert all(p[mask] == abel_poly(bp.restrict(mask)) for mask in range(1 << bp.block_count))


def test_general_map_is_binomial_type():
    p = abel_general_setmap(additive_map(4, (1, -2, Fraction(1, 2), 0)))
    assert check_binomial_type(p)


def test_general_map_rejects_non_additive_alpha():
    table = [Fraction(0)] * 8
    table[0b11] = Fraction(5)
    with pytest.raises(ValueError, match="additive"):
        abel_general_setmap(SetMap(3, table))


def test_general_map_names_the_first_non_additive_subset():
    singles = {1: Fraction(1, 2), 2: Fraction(-3), 4: Fraction(2)}
    alpha = [sum(v for b, v in singles.items() if S & b) for S in range(8)]
    assert abel_general_setmap(SetMap(3, alpha))[7] == Poly.x() * Poly((Fraction(-1, 2), 1)) ** 2
    with pytest.raises(ValueError, match="at subset 0$"):
        abel_general_setmap(SetMap(3, [1, *alpha[1:]]))
    alpha[5] += 1
    alpha[6] -= 1
    with pytest.raises(ValueError, match="at subset 5$"):
        abel_general_setmap(SetMap(3, alpha))


# ---------------------------------------------------------------------------
# partition-sum identities
# ---------------------------------------------------------------------------


def test_closed_form_partition_sum_single_block():
    assert verify_closed_form_partition_sum(BlockPartition((3,)))


def test_closed_form_partition_sum_two_singletons_by_hand():
    # x^2 * 1 * 1 + x * 2^1 = x(x + 2)
    assert verify_closed_form_partition_sum(BlockPartition((1, 1)))


def test_closed_form_partition_sum_sweep():
    for sizes in size_vectors(7, 3):
        assert verify_closed_form_partition_sum(BlockPartition(sizes))


def test_partition_weight_sums_match_bell_enumeration():
    # the kernel's full-set readout against every partition of up to 10 blocks
    rng = random.Random(10)
    for count in range(11):
        blocks = BlockPartition(rng.randint(1, 4) for _ in range(count))
        part = [0] + [blocks.restrict(r).weight ** (r.bit_count() - 1) for r in range(1, 1 << count)]
        sums = [0] * (count + 1)
        for gamma in partitions_of(blocks.full_mask):
            term = 1
            for rho in gamma:
                term *= part[rho]
            sums[len(gamma)] += term
        assert _partition_weight_sums(blocks) == tuple(sums), blocks


def test_forest_coefficients_hand_values():
    # two singletons, k=1: C(1,0) * 2 = 2 = the single one-block term
    assert verify_closed_form_partition_sum(BlockPartition((1, 1)), k=1)
    # sizes (2,1), k=1: both sides 3
    assert verify_closed_form_partition_sum(BlockPartition((2, 1)), k=1)
    # k = n: both sides 1
    assert verify_closed_form_partition_sum(BlockPartition((2, 2, 1)), k=3)


def test_forest_coefficients_sweep_all_k():
    for sizes in size_vectors(7, 3):
        bp = BlockPartition(sizes)
        assert all(verify_closed_form_partition_sum(bp, k) for k in range(1, bp.block_count + 1))


def test_forest_coefficients_match_polynomial_coefficients():
    # the x^k coefficient of the closed form is the k-block partition sum
    for sizes in size_vectors(4, 3):
        bp = BlockPartition(sizes)
        n = bp.block_count
        poly = abel_poly(bp)
        for k in range(1, n + 1):
            assert poly.coefficient(k) == comb(n - 1, k - 1) * bp.weight ** (n - k)


def test_forest_coefficients_rejects_bad_k():
    with pytest.raises(ValueError, match="component count"):
        verify_closed_form_partition_sum(BlockPartition((1, 1)), k=3)
    with pytest.raises(ValueError, match="component count"):
        verify_closed_form_partition_sum(BlockPartition((1, 1)), k=0)
    with pytest.raises(ValueError, match="at least one block"):
        verify_closed_form_partition_sum(BlockPartition(()), k=1)
    # the usage error comes before the cap
    with pytest.raises(ValueError, match="component count"):
        verify_closed_form_partition_sum(BlockPartition((1,) * 18), k=19)


def test_partition_sum_cap():
    with pytest.raises(CapExceeded):
        verify_closed_form_partition_sum(BlockPartition((1,) * 18))


def test_partition_sums_run_past_the_bell_era_cap():
    # 11 blocks: over the old cap of 10, well inside the block-sum kernel's
    blocks = BlockPartition(random.Random(11).randint(1, 3) for _ in range(11))
    assert verify_closed_form_partition_sum(blocks)
    assert all(verify_closed_form_partition_sum(blocks, k) for k in range(1, 12))


@pytest.mark.parametrize("k", [None, 1])
def test_partition_sums_check_the_kernel_cap_first(monkeypatch, k):
    def kernel(blocks):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr("setmaps.abel._partition_weight_sums", kernel)
    with pytest.raises(CapExceeded, match="18 blocks exceeds cap 17"):
        verify_closed_form_partition_sum(BlockPartition((1,) * 18), k)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 5), max_size=9).flatmap(
        lambda sizes: st.tuples(st.just(sizes), st.integers(0, len(sizes)), st.integers(-2, 2))
    )
)
@example(([2, 1, 3], 0, 1))  # off only in the constant term: every k passes, k=None fails
def test_partition_sum_verdicts_match_the_test_side_closed_form(case):
    # the kernel's sums, off by delta at index j, against C(n-1, k-1) w^(n-k) written here
    sizes, j, delta = case
    bp = BlockPartition(sizes)
    n, w = bp.block_count, bp.weight
    closed = [int(n == 0)] + [comb(n - 1, k - 1) * w ** (n - k) for k in range(1, n + 1)]
    sums = list(_partition_weight_sums(bp))
    assert sums == closed
    sums[j] += delta
    with mock.patch.object(abel, "_partition_weight_sums", lambda blocks: tuple(sums)):
        for k in range(1, n + 1):
            assert verify_closed_form_partition_sum(bp, k) == (sums[k] == closed[k])
        assert verify_closed_form_partition_sum(bp) == (sums == closed) == (delta == 0)


# ---------------------------------------------------------------------------
# tail forests
# ---------------------------------------------------------------------------


def test_tail_forest_empty_forest():
    assert count_tail_forests(BlockPartition((2, 1, 1)), 3) == 1


def test_tail_forest_two_singletons():
    # 2 origin choices x 2 targets, self-targets loop: 2 survive
    assert count_tail_forests(BlockPartition((1, 1)), 1) == 2


def test_tail_forest_sizes_two_one():
    assert count_tail_forests(BlockPartition((2, 1)), 1) == 3


def test_tail_forest_counts_match_closed_form():
    for sizes in size_vectors(4, 4):
        bp = BlockPartition(sizes)
        if bp.weight > 8:
            continue
        n = bp.block_count
        for k in range(1, n + 1):
            expected = comb(n - 1, k - 1) * bp.weight ** (n - k)
            assert count_tail_forests(bp, k) == expected


def test_tail_forest_caps_and_validation():
    with pytest.raises(CapExceeded):
        count_tail_forests(BlockPartition((1,) * 8), 1)
    # the one cap counts blocks: a block heavier than any cap still counts
    assert count_tail_forests(BlockPartition((9,)), 1) == 1
    with pytest.raises(ValueError):
        count_tail_forests(BlockPartition((1, 1)), 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 1000), min_size=1, max_size=5))
def test_tail_forest_counts_match_closed_form_on_heavy_blocks(sizes):
    bp = BlockPartition(sizes)
    n, w = bp.block_count, bp.weight
    for k in range(1, n + 1):
        assert count_tail_forests(bp, k) == comb(n - 1, k - 1) * w ** (n - k), k


def test_tail_forest_count_refuses_what_it_could_not_print_before_enumerating():
    # three blocks of weight 3 * 10^2200: the k = 1 count (3 * 10^2200)^2 has 4401 digits
    bp = BlockPartition((10**2200,) * 3)
    with pytest.raises(CapExceeded, match="over the limit of 4300 digits"):
        count_tail_forests(bp, 1, max_digits=4300)
    with pytest.raises(CapExceeded, match="enumeration over 8 blocks exceeds cap 7"):
        count_tail_forests(BlockPartition((10**2200,) * 8), 1, max_digits=4300)  # the cap first
    assert count_tail_forests(bp, 3, max_digits=4401) == 1


def test_tail_forest_cap_keyword():
    assert count_tail_forests(BlockPartition((1,) * 6), 5, cap=6) == 30  # C(5, 4) * 6^1


def test_verify_tail_forests_gives_one_verdict_per_k():
    assert verify_tail_forests(BlockPartition((2, 1, 1))) == {1: True, 2: True, 3: True}
    assert verify_tail_forests(BlockPartition((2, 1)), 2) == {2: True}
    assert verify_tail_forests(BlockPartition((1,) * 6), 5, cap=6) == {5: True}
    with pytest.raises(CapExceeded):
        verify_tail_forests(BlockPartition((1,) * 8))
    with pytest.raises(ValueError, match="component count"):
        verify_tail_forests(BlockPartition((1, 1)), 3)
    with pytest.raises(ValueError, match="at least one block"):
        verify_tail_forests(BlockPartition(()))


def test_coefficient_digits_bound_the_largest_coefficient():
    # at most about log10(count) digits over the largest coefficient, never under
    for count in (1, 2, 3, 10, 57, 300):
        for w in (count, 2 * count + 1, 10**6):
            top = max(comb(count - 1, k - 1) * w ** (count - k) for k in range(1, count + 1))
            digits = len(str(top))
            assert digits <= coefficient_digits(count, w) <= digits + len(str(count))
    # the cap's own run prints under the default limit of 4300 digits
    assert coefficient_digits(ABEL_POLY_CAP, ABEL_POLY_CAP) < 4300
