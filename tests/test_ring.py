"""Set-map ring: product, composition, inverse, decomposition, recovery."""

import operator
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import setmaps.algebra as algebra
import setmaps.kernel as kernel
from setmaps.algebra import compose, decompose, recover_sequence
from setmaps.graphs import Graph, chromatic_setmap
from setmaps.kernel import _packed, full_block_sums
from setmaps.poly import Poly
from setmaps.ring import SetMap, bell_number, partitions_of, sequence_product, subsets_of

from _oracles import bell_by_triangle, egf_to_series, series_compose, series_mul, series_to_egf
from conftest import random_fraction, random_table

fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=3)


def tables_st(n: int):
    return st.lists(fractions_st, min_size=1 << n, max_size=1 << n)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_partitions_of_empty_set_is_single_empty_partition():
    assert list(partitions_of(0)) == [()]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
def test_partition_counts_match_bell_triangle(size):
    mask = (1 << size) - 1
    assert sum(1 for _ in partitions_of(mask)) == bell_by_triangle(size)


def test_partition_count_examples():
    # Bell(3) = 5 and Bell(5) = 52 per the independent triangle
    assert bell_by_triangle(3) == 5
    assert bell_by_triangle(5) == 52
    assert sum(1 for _ in partitions_of(0b111)) == 5
    assert sum(1 for _ in partitions_of(0b11111)) == 52


def test_partitions_respect_sparse_masks():
    mask = 0b10101  # elements 0, 2, 4
    seen = set()
    for sigma in partitions_of(mask):
        assert sigma not in seen
        seen.add(sigma)
        union = 0
        for block in sigma:
            assert block != 0
            assert union & block == 0
            union |= block
        assert union == mask
    assert len(seen) == bell_by_triangle(3)


def test_partition_order_is_frozen():
    # restricted-growth order over elements in increasing index order;
    # reproducible output is part of the contract
    assert list(partitions_of(0b111)) == [
        (0b111,),
        (0b011, 0b100),
        (0b101, 0b010),
        (0b001, 0b110),
        (0b001, 0b010, 0b100),
    ]


def _recursive_partitions(mask):
    """The earlier recursive enumeration, kept as the reference for the order."""
    elements = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
    k = len(elements)
    if k == 0:
        yield ()
        return
    blocks = [0] * k
    blocks[0] = 1 << elements[0]

    def grow(i, used):
        if i == k:
            yield tuple(blocks[:used])
            return
        bit = 1 << elements[i]
        for j in range(used):
            blocks[j] |= bit
            yield from grow(i + 1, used)
            blocks[j] &= ~bit
        blocks[used] = bit
        yield from grow(i + 1, used + 1)

    yield from grow(1, 1)


@pytest.mark.parametrize("masks", [range(1 << 8), (0b1000000001, 0b1010110100, 0b110110101)])
def test_partitions_match_recursive_enumeration(masks):
    # every mask on 8 elements, and sparse masks above them, tuple for tuple
    for mask in masks:
        assert list(partitions_of(mask)) == list(_recursive_partitions(mask)), mask


def test_partitions_stream_has_no_cap_of_its_own():
    # the stream is lazy and its callers cap it; draw one of Bell(15) terms
    assert next(partitions_of((1 << 15) - 1)) == ((1 << 15) - 1,)


def test_bell_number_matches_triangle():
    for n in range(10):
        assert bell_number(n) == bell_by_triangle(n)


def test_subsets_of_enumerates_exactly_the_submasks():
    subs = list(subsets_of(0b1010))
    assert sorted(subs) == [0b0000, 0b0010, 0b1000, 0b1010]


def test_from_sequence_rejects_short_sequence():
    with pytest.raises(ValueError, match="too short"):
        SetMap.from_sequence(3, (Fraction(1), Fraction(1)))


# ---------------------------------------------------------------------------
# block sums
# ---------------------------------------------------------------------------


def brute_block_sums(table):
    """Block-count sums of every mask, straight from the partition list."""
    out = []
    for T in range(len(table)):
        sums = [Fraction(0)] * (T.bit_count() + 1)
        for sigma in partitions_of(T):
            prod = Fraction(1)
            for block in sigma:
                prod *= table[block]
            sums[len(sigma)] += prod
        out.append(tuple(sums))
    return out


def block_sums(table):
    """Every mask's block sums (c_0, ..., c_|T|), read from compose with each unit
    sequence e_k: the k-th term 1, every other 0."""
    n = len(table).bit_length() - 1
    h = SetMap(n, [0, *table[1:]])
    by_k = [compose([int(j == k) for j in range(n + 1)], h) for k in range(n + 1)]
    return [tuple(c[T] for c in by_k[: T.bit_count() + 1]) for T in range(len(table))]


@st.composite
def kernel_tables(draw):
    n = draw(st.integers(min_value=0, max_value=8))  # 9: test_block_sums_full_nine_element_set
    value = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
    )
    return draw(st.lists(value, min_size=1 << n, max_size=1 << n))


@settings(max_examples=40, deadline=None)
@given(kernel_tables())
@example([Fraction(5)])
@example([Fraction(7), Fraction(2), Fraction(0), Fraction(5, 6)])
def test_block_sums_match_partition_enumeration(table):
    # both readouts of the packed kernel: every mask (compose), and the full set alone
    brute = brute_block_sums(table)
    assert block_sums(table) == brute
    assert full_block_sums(table) == brute[-1]


def test_block_sums_full_nine_element_set(rng):
    table = [Fraction(0)] + [random_fraction(rng) for _ in range((1 << 9) - 1)]
    table[0b11] = Fraction(0)
    brute = brute_block_sums(table)
    assert block_sums(table) == brute
    assert full_block_sums(table) == brute[-1]


@st.composite
def level_tables(draw):
    """Tables whose values all share one size, up to sign: the ordered set
    compositions then reach the slot-width bound, so a slot one bit too
    narrow would wrap."""
    n = draw(st.integers(min_value=0, max_value=8))
    size = draw(st.sampled_from([Fraction(1), Fraction(7), Fraction(2**40 + 1), Fraction(5, 3)]))
    signs = st.sampled_from([1, -1]) if draw(st.booleans()) else st.just(1)
    return [size * draw(signs) for _ in range(1 << n)]


@settings(max_examples=30, deadline=None)
@given(level_tables())
def test_kernel_is_exact_where_the_width_bound_is_tight(table):
    brute = brute_block_sums([0, *table[1:]])
    assert block_sums([0, *table[1:]]) == brute
    assert full_block_sums([0, *table[1:]]) == brute[-1]
    g = SetMap(len(table).bit_length() - 1, table)
    assert (g * g).table == brute_product(table, table)


def test_slot_width_counts_ordered_set_compositions():
    # an all-ones table: k! c_k on j elements counts the ordered partitions
    # into k blocks, the surjections onto k, far below what (sum_T z^|T|)^k
    # counts
    n = 10
    _, w, *_ = _packed([[0] + [1] * ((1 << n) - 1)], [(0,) * k + (1,) for k in range(1, n + 1)])
    onto = [sum((-1) ** i * comb(k, i) * (k - i) ** j for i in range(k + 1))
            for j in range(n + 1) for k in range(n + 1)]
    assert w == max(onto).bit_length() + 2


def test_block_sums_scale_each_rank_by_its_own_root():
    # denominators 3^|T| need lam = 3 only, and 1031^2 on one element needs
    # 1031^2, past the trial division bound; integral results come back as ints
    table = [0, Fraction(1, 3), Fraction(2, 3), Fraction(5, 9)]
    assert full_block_sums(table) == (0, Fraction(5, 9), Fraction(2, 9))
    big = [0, Fraction(1, 1031**2), Fraction(1, 1031), 1]
    assert _packed([big], [])[3] == 1031**2
    assert block_sums(big) == brute_block_sums(big)
    assert block_sums([0, 2, 3, 4]) == [(1,), (0, 2), (0, 3), (0, 4, 6)]
    assert all(type(c) is int for c in full_block_sums([0, 2, 3, 4]))


# primes past the trial division bound, 2^10: just past it, and of 17 and 20 bits
LARGE_PRIMES = (1031, 1033, 65537, 1000003)


@st.composite
def large_denominator_tables(draw):
    """Tables, and the factorisation of each value's denominator: a power of a
    prime past trial division, or a power of a product of two such primes,
    times 2^a 3^b."""
    n = draw(st.integers(min_value=1, max_value=5))
    large = st.one_of(
        st.tuples(st.sampled_from(LARGE_PRIMES), st.integers(0, 4)).map(lambda qe: {qe[0]: qe[1]}),
        st.tuples(st.lists(st.sampled_from(LARGE_PRIMES), min_size=2, max_size=2, unique=True),
                  st.integers(1, 2)).map(lambda qse: dict.fromkeys(*qse)),
    )
    table, factors = [Fraction(0)], [{}]
    for _ in range((1 << n) - 1):
        f = {**draw(large), 2: draw(st.integers(0, 2)), 3: draw(st.integers(0, 1))}
        # prime to 6, drawn without a filter, which trips Hypothesis's filter_too_much check
        numerator = draw(st.sampled_from((-7, -5, -1, 1, 5, 7)))
        table.append(Fraction(numerator, prod(q**e for q, e in f.items())))
        factors.append(f)
    return table, factors


@settings(max_examples=40, deadline=None)
@given(large_denominator_tables())
@example(([Fraction(1, 1000003 ** T.bit_count()) if T else 0 for T in range(16)],
          [{1000003: T.bit_count()} for T in range(16)]))
def test_scale_is_the_least_past_trial_division(drawn):
    # lam = prod over primes q of q^max ceil(v_q(denominator of f_T) / |T|); the
    # example's ranks r hold 1000003^r, which 1000003 clears at every rank
    table, factors = drawn
    least = prod(q ** max(-(-f.get(q, 0) // T.bit_count()) for T, f in enumerate(factors) if T)
                 for q in (2, 3, *LARGE_PRIMES))
    assert _packed([table], [])[3] == least
    brute = brute_block_sums(table)
    assert block_sums(table) == brute
    assert full_block_sums(table) == brute[-1]
    g = SetMap(len(table).bit_length() - 1, table)
    assert (g * g).table == brute_product(table, table)


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------


def test_add_zero_map_is_identity(rng):
    g = SetMap(3, random_table(rng, 3))
    zero = SetMap.constant(3, Fraction(0))
    assert g + zero == g


def test_add_constant_maps():
    g = SetMap.constant(2, Fraction(1))
    h = SetMap.constant(2, Fraction(2))
    assert g + h == SetMap.constant(2, Fraction(3))


def test_add_ground_size_one_example():
    g = SetMap(1, (Fraction(1), Fraction(2)))
    h = SetMap(1, (Fraction(0), Fraction(5)))
    assert g + h == SetMap(1, (Fraction(1), Fraction(7)))


def test_add_ground_mismatch_rejected():
    with pytest.raises(ValueError, match="ground-set mismatch"):
        SetMap.constant(2, Fraction(1)) + SetMap.constant(3, Fraction(1))


def brute_product(g, h):
    """(g * h)_S straight from the submasks T of S."""
    return tuple(sum(g[T] * h[S ^ T] for T in subsets_of(S)) for S in range(len(g)))


def test_product_matches_submask_sums(rng):
    # rational values everywhere, the empty set included
    for n in range(7):
        for _ in range(3):
            g, h = random_table(rng, n), random_table(rng, n)
            assert (SetMap(n, g) * SetMap(n, h)).table == brute_product(g, h)


def test_mul_unit_is_identity(rng):
    h = SetMap(3, random_table(rng, 3))
    assert h * SetMap.unit(3) == h


def test_mul_all_ones_gives_powers_of_two():
    # (g*h)_S sums one term per ordered disjoint pair, 2^|S| of them
    g = SetMap.constant(3, Fraction(1))
    product = g * g
    for S in range(8):
        assert product[S] == 2 ** S.bit_count()


def test_mul_matches_egf_product_oracle():
    # constant sequences a = b = 1: EGF e^t * e^t = e^(2t), so (a.b)_n = 2^n
    n = 6
    a = [Fraction(1)] * (n + 1)
    product = SetMap.from_sequence(n, a) * SetMap.from_sequence(n, a)
    expected = series_to_egf(series_mul(egf_to_series(a), egf_to_series(a), n))
    for S in range(1 << n):
        assert product[S] == expected[S.bit_count()]


def test_table_length_is_validated():
    with pytest.raises(ValueError, match="table length"):
        SetMap(2, (Fraction(1),))


def test_ground_size_cap():
    with pytest.raises(ValueError, match="ground-set size"):
        SetMap(21, ())


@settings(max_examples=40, deadline=None)
@given(tables_st(3), tables_st(3), tables_st(3))
def test_ring_axioms(ta, tb, tc):
    g, h, k = SetMap(3, ta), SetMap(3, tb), SetMap(3, tc)
    assert g * h == h * g
    assert (g * h) * k == g * (h * k)
    assert g * (h + k) == g * h + g * k


@settings(max_examples=30, deadline=None)
@given(tables_st(3))
def test_inverse_is_multiplicative_inverse(table):
    table[0] = Fraction(1)
    h = SetMap(3, table)
    assert h * h.inverse() == SetMap.unit(3)


def test_inverse_of_unit():
    unit = SetMap.unit(2)
    assert unit.inverse() == unit


def test_inverse_singleton_forced_value():
    h = SetMap(1, (Fraction(1), Fraction(7, 3)))
    assert h.inverse()[1] == Fraction(-7, 3)


def test_inverse_two_element_formula(rng):
    # by hand: inv on the pair is -h_01 + 2 h_0 h_1 (solve the convolution)
    table = random_table(rng, 2, first=1)
    h = SetMap(2, table)
    inv = h.inverse()
    assert inv[3] == -table[3] + 2 * table[1] * table[2]


def test_inverse_requires_one_at_empty_set():
    with pytest.raises(ValueError, match="value 1"):
        SetMap.constant(2, Fraction(0)).inverse()


# a polynomial table and a float table: values the kernel cannot pack exactly
_POLY = SetMap(2, [Poly((1,)), Poly.x(), Poly.x(), Poly.x() ** 2])
_FLOAT = SetMap(2, [1.0, 1.5, 2.0, 0.25])
_NOT_RATIONAL = "rational values only; evaluate polynomial values first"


def test_products_refuse_values_that_are_not_rational():
    c4 = chromatic_setmap(Graph.cycle(4))
    with pytest.raises(TypeError, match=_NOT_RATIONAL):
        c4 * c4
    with pytest.raises(TypeError, match=_NOT_RATIONAL):
        SetMap(1, [1, 2]) * SetMap(1, [1.5, 2])


@pytest.mark.parametrize("table", [_POLY, _FLOAT])
def test_compose_refuses_values_that_are_not_rational(table):
    with pytest.raises(TypeError, match=_NOT_RATIONAL):
        compose([1, 1, 1], table - SetMap.unit(2, table[0]))


@pytest.mark.parametrize("table", [_POLY, _FLOAT])
def test_full_block_sums_refuse_values_that_are_not_rational(table):
    with pytest.raises(TypeError, match=_NOT_RATIONAL):
        full_block_sums(table.table)


@pytest.mark.parametrize("table", [_POLY, _FLOAT])
def test_inverse_refuses_values_that_are_not_rational(table):
    with pytest.raises(TypeError, match=_NOT_RATIONAL):
        table.inverse()


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def one_on_nonempty(n):
    return SetMap(n, (Fraction(0) if S == 0 else Fraction(1) for S in range(1 << n)))


def test_compose_counts_partitions():
    n = 4
    ones = [Fraction(1)] * (n + 1)
    result = compose(ones, one_on_nonempty(n))
    for S in range(1 << n):
        assert result[S] == bell_by_triangle(S.bit_count())
    assert result[(1 << 4) - 1] == 15


def test_compose_empty_set_gets_first_term(rng):
    n = 3
    terms = [random_fraction(rng) for _ in range(n + 1)]
    h = SetMap(n, random_table(rng, n, first=0))
    assert compose(terms, h)[0] == terms[0]


def test_compose_matches_egf_composition_oracle(rng):
    n = 6
    a = [random_fraction(rng) for _ in range(n + 1)]
    b = [random_fraction(rng) for _ in range(n + 1)]
    b[0] = Fraction(0)
    result = compose(a, SetMap.from_sequence(n, b))
    expected = series_to_egf(series_compose(egf_to_series(a), egf_to_series(b), n))
    for size in range(n + 1):
        assert result[(1 << size) - 1] == expected[size]


def test_compose_requires_zero_at_empty_set():
    with pytest.raises(ValueError, match="value 0"):
        compose([Fraction(1)] * 4, SetMap.constant(3, Fraction(1)))


def test_compose_rejects_short_sequence():
    with pytest.raises(ValueError, match="too short"):
        compose([Fraction(1)] * 3, one_on_nonempty(3))


def test_sequence_product_is_binomial_convolution():
    a = (Fraction(1), Fraction(2), Fraction(3))
    b = (Fraction(1), Fraction(0), Fraction(1))
    # by hand: c_0 = 1, c_1 = 2, c_2 = 1 + 0 + 3 = 4
    assert sequence_product(a, b) == (Fraction(1), Fraction(2), Fraction(4))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(fractions_st, min_size=4, max_size=4),
    st.lists(fractions_st, min_size=4, max_size=4),
    tables_st(3),
)
def test_composition_is_ring_morphism_in_the_sequence(a, b, table):
    # (a.b) o h = (a o h) * (b o h)
    table[0] = Fraction(0)
    h = SetMap(3, table)
    lhs = compose(sequence_product(a, b), h)
    assert lhs == compose(a, h) * compose(b, h)


def brute_compose(terms, table):
    """(a o h)_S = sum_k a_k c_k(S), from the partition list of every mask."""
    return tuple(sum(a * c for a, c in zip(terms, sums)) for sums in brute_block_sums(table))


# denominators past trial division, 2^10, among small ones
wide_fractions = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 1031, 1031 * 1033, 65537]))


@st.composite
def compositions(draw):
    """Terms of one kind, int, rational or Poly, and an inner table with 0 on the empty set."""
    n = draw(st.integers(min_value=0, max_value=8))
    inner = draw(st.lists(st.one_of(st.just(Fraction(0)), wide_fractions), min_size=(1 << n) - 1,
                          max_size=(1 << n) - 1))
    term = draw(st.sampled_from([st.integers(-9, 9), wide_fractions, st.lists(wide_fractions, max_size=4).map(Poly)]))
    return draw(st.lists(term, min_size=n + 1, max_size=n + 1)), [Fraction(0), *inner]


@settings(max_examples=40, deadline=None)
@given(compositions())
@example(([1, Fraction(1, 1031), Fraction(-7, 65537), 2], [0, Fraction(1, 1031**2), Fraction(5, 1033), 3]))
@example(([Poly((1, Fraction(1, 1031))), Poly(), Poly.x() ** 3], [0, 1, -1, Fraction(2, 65537)]))
def test_compose_matches_the_partition_sum(drawn):
    terms, table = drawn
    assert compose(terms, SetMap(len(table).bit_length() - 1, table)).table == brute_compose(terms, table)


def test_compose_runs_one_moebius_transform_per_coefficient_column(monkeypatch):
    runs = []
    transform = algebra._transform
    monkeypatch.setattr(algebra, "_transform", lambda a, op: runs.append(op) or transform(a, op))
    h = SetMap(6, [0] + [Fraction(T % 5 - 2, 3) for T in range(1, 64)])
    terms = [Fraction(1, k + 1) for k in range(7)]
    assert compose(terms, h).table == brute_compose(terms, h.table)
    assert runs == [operator.sub]
    runs.clear()
    terms = [Poly.monomial(k % 3, k + 1) for k in range(7)]  # degrees 0 to 2: three columns
    assert compose(terms, h).table == brute_compose(terms, h.table)
    assert runs == [operator.sub] * 3


def test_compose_refuses_terms_that_are_not_exact():
    with pytest.raises(TypeError, match="ints, Fractions or Polys"):
        compose([1.5, 1, 0.5], SetMap(2, [0, 1, 1, 1]))
    with pytest.raises(TypeError, match="ints, Fractions or Polys"):
        compose([Poly.x(), 0.5, 1], SetMap(2, [0, 1, 1, 1]))


def test_the_product_and_the_full_set_readout_keep_their_slot_width(monkeypatch):
    # the product's w bounds the factors and their product, the full set's every
    # power alone; composition's weighted bound leaves both as they were
    widths = []
    packed = kernel._packed
    monkeypatch.setattr(kernel, "_packed", lambda *args: (lambda out: widths.append(out[1]) or out)(packed(*args)))
    tables = [[1], [1] * 8, [1] * 1024, [Fraction(1, 3)] * 16, [7, -7, 7, -7, 2**40, 1, 1, 1],
              [Fraction(T % 7 - 3, T % 4 + 1) for T in range(32)]]
    for t in tables:
        n = len(t).bit_length() - 1
        SetMap(n, t) * SetMap(n, t[::-1])
        full_block_sums(t)
    assert widths == [3, 2, 6, 5, 13, 27, 7, 9, 84, 123, 28, 28]


# ---------------------------------------------------------------------------
# decompose / recover
# ---------------------------------------------------------------------------


def test_decompose_bell_map_gives_indicator():
    n = 4
    ones = [Fraction(1)] * (n + 1)
    g = SetMap.from_function(n, lambda S: Fraction(bell_by_triangle(S.bit_count())))
    assert decompose(g, ones) == one_on_nonempty(n)


def test_decompose_unit_gives_zero_map():
    n = 3
    terms = [Fraction(1), Fraction(1)] + [Fraction(0)] * (n - 1)
    assert decompose(SetMap.unit(n), terms) == SetMap.constant(n, Fraction(0))


def test_decompose_on_the_empty_ground_set():
    outer = SetMap(0, [Fraction(1)])
    h = decompose(outer, [1])
    assert h == SetMap(0, [0])
    assert compose([1], h) == outer


@settings(max_examples=25, deadline=None)
@given(tables_st(3), st.lists(fractions_st, min_size=4, max_size=4))
def test_decompose_round_trip(table, terms):
    table[0] = Fraction(0)
    if terms[1] == 0:
        terms[1] = Fraction(1)
    h = SetMap(3, table)
    terms[0] = Fraction(0)
    g = compose(terms, h)
    assert decompose(g, terms) == h


def test_decompose_rejects_zero_linear_term():
    g = SetMap.unit(2)
    with pytest.raises(ValueError, match="nonzero"):
        decompose(g, [Fraction(1), Fraction(0), Fraction(1)])


def test_decompose_rejects_mismatched_constant_term():
    g = SetMap.unit(2)
    with pytest.raises(ValueError, match="empty-set value"):
        decompose(g, [Fraction(2), Fraction(1), Fraction(1)])


def test_recover_sequence_from_bell_map():
    n = 4
    g = SetMap.from_function(n, lambda S: Fraction(bell_by_triangle(S.bit_count())))
    assert recover_sequence(g, one_on_nonempty(n), n) == (Fraction(1),) * (n + 1)


def test_recover_sequence_round_trip(rng):
    n = 5
    for _ in range(10):
        a = [random_fraction(rng) for _ in range(n + 1)]
        table = random_table(rng, n, first=0)
        for v in range(n):
            if table[1 << v] == 0:
                table[1 << v] = Fraction(1)
        h = SetMap(n, table)
        g = compose(a, h)
        assert recover_sequence(g, h, n) == tuple(a)


def test_recover_sequence_scaled_singletons():
    n = 2
    h = SetMap.from_function(n, lambda S: Fraction(2) if S.bit_count() == 1 else Fraction(0))
    g = compose([Fraction(0), Fraction(1), Fraction(0)], h)
    assert recover_sequence(g, h, 1)[1] == Fraction(1)


def test_recover_sequence_rejects_zero_singleton():
    n = 3
    g = SetMap.constant(n, Fraction(0))
    h = SetMap.from_function(n, lambda S: Fraction(1) if S == 0b110 else Fraction(0))
    with pytest.raises(ValueError, match="one-element"):
        recover_sequence(g, h, 2)


def test_recover_sequence_rejects_inconsistent_map(rng):
    n = 3
    table = random_table(rng, n, first=0)
    for v in range(n):
        table[1 << v] = Fraction(1)
    h = SetMap(n, table)
    g = compose([Fraction(1)] * (n + 1), h)
    broken = list(g.table)
    broken[0b110] += 1  # size-2 subset off the induction chain {0}, {0,1}
    with pytest.raises(ValueError, match="not a composition"):
        recover_sequence(SetMap(n, broken), h, 2)


# ---------------------------------------------------------------------------
# integer-valued tables
# ---------------------------------------------------------------------------


def test_compose_on_int_table_counts_partitions():
    n = 4
    h = SetMap(n, [0] + [1] * ((1 << n) - 1))
    result = compose([1] * (n + 1), h)
    for S in range(1 << n):
        assert result[S] == bell_by_triangle(S.bit_count())


def test_inverse_on_int_table():
    n = 3
    h = SetMap(n, [1, 2, -1, 3, 4, 0, -2, 5])
    inv = h.inverse()
    assert h * inv == SetMap.unit(n)
    assert inv[1] == -2


def test_decompose_on_int_tables_is_exact():
    n = 3
    g = SetMap(n, [2, 1, 0, 4, -1, 2, 3, 1])
    terms = [2, 3, -1, 5]
    h = decompose(g, terms)
    assert h[1] == Fraction(1, 3)
    assert compose(terms, h) == g
