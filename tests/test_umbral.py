"""Polynomials, functionals, umbral products, and binomial-type bases."""

import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setmaps.poly import Poly, interpolate
from setmaps.ring import partitions_of
from setmaps.umbral import (
    AbelPolynomials,
    FallingFactorials,
    Functional,
    LogPolynomials,
    Monomials,
    RisingFactorials,
    family_from_string,
    standard_families,
)

from _oracles import series_binomial_power, series_log1p, series_to_egf

fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=3)
ALL_FAMILIES = standard_families() + (AbelPolynomials(-1), FallingFactorials(Fraction(1, 2)))


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------


def test_poly_normalization_and_degree():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((0, 0)).degree == -1
    assert Poly((0, 0)) == Poly.zero() == 0
    assert Poly((5,)) == 5


def test_poly_arithmetic_and_eval():
    x = Poly.x()
    p = (x - 1) * (x - 2)
    assert p == Poly((2, -3, 1))
    assert p(1) == 0 and p(3) == Fraction(2)
    assert p.derivative() == 2 * x - 3
    assert (x + 1) ** 3 == Poly((1, 3, 3, 1))
    assert (p / 2).coeffs == (1, Fraction(-3, 2), Fraction(1, 2))


def test_poly_pow_rejects_negative():
    with pytest.raises(ValueError):
        Poly.x() ** -1


def test_poly_pow_squares_only_the_bits_it_reads(monkeypatch):
    base, expected = Poly((3, 1)), Poly.one()
    mul = Poly.__mul__
    for e in range(18):
        products = []
        monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        assert base**e == expected, e
        # one product per set bit and one square per bit below the top
        assert len(products) == e.bit_count() + max(e.bit_length() - 1, 0), e
        monkeypatch.undo()
        expected *= base


@settings(max_examples=40, deadline=None)
@given(st.lists(fractions_st, max_size=6), st.lists(fractions_st, max_size=6))
def test_poly_product_evaluates_pointwise(a, b):
    p, q = Poly(a), Poly(b)
    for point in (-2, 0, 1, 3):
        assert (p * q)(point) == p(point) * q(point)
        assert (p + q)(point) == p(point) + q(point)


def test_int_products_keep_int_coefficients():
    assert [type(c) for c in (Poly((1, 1)) * Poly((1, 1))).coeffs] == [int, int, int]
    assert Poly((1, Fraction(1, 2))) * Poly((2, 1)) == Poly((2, 2, Fraction(1, 2)))


def test_evaluation_keeps_the_point_exact_type():
    p = Poly((3, -2, 1))  # x^2 - 2x + 3
    value = p(5)
    assert type(value) is int and value == 18
    value = p(Fraction(1, 2))
    assert type(value) is Fraction and value == Fraction(9, 4)
    value = p(0.5)  # a float point is read as the exact Fraction it holds
    assert type(value) is Fraction and value == Fraction(9, 4)
    value = Poly((Fraction(1, 2), 1))(3)
    assert type(value) is Fraction and value == Fraction(7, 2)


def test_interpolate_recovers_polynomial():
    p = Poly((1, Fraction(-1, 2), 0, 2))
    points = [(i, p(i)) for i in range(5)]
    assert interpolate(points) == p


def test_interpolate_rejects_repeated_nodes():
    with pytest.raises(ValueError):
        interpolate([(0, 1), (0, 2)])


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


def test_apply_derivative_at_zero():
    L = Functional.derivative_at(0, 3)
    assert L(Poly((0, 3, 1))) == 3  # (x^2 + 3x)'(0)


def test_apply_difference_functional():
    L = Functional((0, 1, 1, 1))  # f(1) - f(0) on degree <= 3
    assert L(Poly.monomial(2)) == 1


def test_log_basis_functional_on_falling_factorial():
    B = LogPolynomials().delta(4)
    falling = FallingFactorials()
    assert B(falling.poly(2)) == 1
    assert B(falling.poly(1)) == 1
    assert B(Poly.one()) == 0


def test_log_basis_functional_moments_are_bell_numbers():
    # B x^n sums the positive-index falling-basis coefficients of x^n,
    # i.e. the number of partitions of an n-set (n >= 1)
    from _oracles import bell_by_triangle

    B = LogPolynomials().delta(8)
    assert B.moments[0] == 0
    for n in range(1, 9):
        assert B.moments[n] == bell_by_triangle(n)


def test_apply_rejects_degree_overflow():
    L = Functional((0, 1))
    with pytest.raises(ValueError, match="degree"):
        L(Poly.monomial(2))


def test_functional_values_keep_their_type_on_one_path():
    p = Poly((3, -1, 4, 1, -5))
    for family in (RisingFactorials(), Monomials()):
        assert type(family.delta(4)(p)) is int
    for family in (FallingFactorials(Fraction(1, 2)), AbelPolynomials(Fraction(3, 4)), RisingFactorials()):
        L = family.delta(4)
        for q in (p, p / 3):
            assert L(q) == sum(c * m for c, m in zip(q.coeffs, L.moments))


def test_umbral_unit_is_evaluation_at_zero():
    L = Functional(tuple(Fraction(k * k + 1) for k in range(5)))
    unit = Functional.evaluation_at(0, 4)
    assert L * unit == L


def test_umbral_square_of_derivative():
    # (LL) x^2 = C(2,1) * 1 * 1 = 2 for L = derivative at 0
    L = Functional.derivative_at(0, 4)
    assert (L * L)(Poly.monomial(2)) == 2


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=11),
    st.data(),
)
def test_umbral_product_commutes_and_associates(length, data):
    vectors = st.lists(fractions_st, min_size=length, max_size=length)
    L = Functional(data.draw(vectors))
    M = Functional(data.draw(vectors))
    N = Functional(data.draw(vectors))
    assert L * M == M * L
    assert (L * M) * N == L * (M * N)


def test_functional_power_conventions():
    A = Functional.derivative_at(0, 4)
    assert (A**0)(Poly((5, 0, 1))) == 5  # power zero evaluates at 0
    assert (A**2)(Poly.monomial(2)) == 2
    with pytest.raises(ValueError):
        A**-1


def test_umbral_product_requires_matching_bounds():
    with pytest.raises(ValueError, match="bound"):
        Functional((0, 1)) * Functional((0, 1, 0))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_abel_family_small_values():
    fam = AbelPolynomials(1)
    assert fam.poly(0) == 1
    assert fam.poly(1) == Poly.x()
    assert fam.poly(2) == Poly((0, -2, 1))  # x(x - 2)


def test_every_family_starts_at_one():
    for fam in ALL_FAMILIES:
        assert fam.poly(0) == 1
        for n in range(6):
            assert fam.poly(n).degree == n


def test_log_family_matches_its_egf():
    # EGF (1 + log(1+t))^x: compare n! [t^n] at integer x against b_n(x)
    fam = LogPolynomials()
    assert fam.poly(2) == Poly((0, -2, 1))
    order = 6
    for x in range(-2, 4):
        series = series_binomial_power(x, series_log1p(order), order)
        values = series_to_egf(series)
        for n in range(order + 1):
            assert fam.poly(n)(x) == values[n]


def log_family_by_partitions(n):
    """Member n of the log basis as its defining set-partition sum."""
    acc = Poly.zero()
    for sigma in partitions_of((1 << n) - 1):
        weight = 1
        for block in sigma:
            size = block.bit_count()
            weight *= (-1) ** (size - 1) * factorial(size - 1)
        acc = acc + FallingFactorials().poly(len(sigma)) * weight
    return acc


def test_log_family_matches_partition_sum_definition():
    for n in range(9):
        assert LogPolynomials().poly(n) == log_family_by_partitions(n), n


def closed_form(fam, n):
    """Member n of a shipped family by its textbook closed form, not by the
    derivation from the delta functional that ``poly`` runs."""
    x = Poly.x()
    if isinstance(fam, Monomials):
        return Poly.monomial(n)
    if isinstance(fam, FallingFactorials):
        result = Poly.one()
        for i in range(n):
            result = result * (x / fam.step - i)
        return result
    if isinstance(fam, RisingFactorials):
        result = Poly.one()
        for i in range(n):
            result = result * (x + i)
        return result
    if isinstance(fam, AbelPolynomials):
        return Poly.one() if n == 0 else x * (x - fam.point * n) ** (n - 1)
    if isinstance(fam, LogPolynomials):
        stirling = [1]  # row m of s(m, k), by s(m+1, k) = s(m, k-1) - m s(m, k)
        for m in range(n):
            stirling = [a - m * b for a, b in zip([0] + stirling, stirling + [0])]
        falling = FallingFactorials()
        return sum((closed_form(falling, k) * s for k, s in enumerate(stirling)), Poly.zero())
    raise TypeError(f"no closed form for {fam}")


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=str)
def test_derived_members_equal_the_closed_forms(fam):
    for n in range(13):
        assert fam.poly(n) == closed_form(fam, n), n


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from((FallingFactorials, AbelPolynomials)),
    fractions_st.filter(lambda a: a != 0),
)
def test_derived_members_equal_the_closed_forms_at_drawn_parameters(kind, a):
    fam = kind(a)
    for n in range(13):
        assert fam.poly(n) == closed_form(fam, n), (str(fam), n)


def test_falling_family_poly_and_delta():
    fam = FallingFactorials(1)
    assert fam.poly(2) == Poly((0, -1, 1))
    assert fam.delta(3).moments == (0, 1, 1, 1)
    assert FallingFactorials(2).poly(1) == Poly((0, Fraction(1, 2)))


def test_integral_families_derive_int_members():
    # exact divisions stay in ints; one that leaves a remainder gives a Fraction
    integral = (Monomials(), FallingFactorials(1), FallingFactorials(-1), RisingFactorials(),
                LogPolynomials(), AbelPolynomials(1), AbelPolynomials(-1))
    for fam in integral:
        assert all(type(c) is int for n in range(11) for c in fam.poly(n).coeffs), fam
    assert [type(c) for c in FallingFactorials(2).poly(1).coeffs] == [int, Fraction]


def test_falling_step_must_be_nonzero():
    with pytest.raises(ValueError):
        FallingFactorials(0)


def test_monomial_delta_moments():
    assert Monomials().delta(3).moments == (0, 1, 0, 0)


def test_rising_factorial_in_own_basis():
    fam = RisingFactorials()
    assert fam.poly(2) == Poly((0, 1, 1))  # x(x+1)
    assert fam.coefficients(Poly((0, -1, 1))) == (0, -2, 1)  # x^2 - x


def test_family_index_must_be_nonnegative():
    with pytest.raises(ValueError):
        Monomials().poly(-1)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=str)
def test_delta_functional_is_delta_and_picks_degree_one(fam):
    A = fam.delta(8)
    assert A.is_delta()
    for n in range(9):
        assert A(fam.poly(n)) == (1 if n == 1 else 0)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=str)
def test_associated_functional_powers(fam):
    # A^k a_n = k! [n == k] characterizes the associated delta functional
    A = fam.delta(8)
    for k in range(9):
        Ak = A**k
        for n in range(9):
            assert Ak(fam.poly(n)) == (factorial(k) if n == k else 0)


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=str)
def test_binomial_type_identity_on_grid(fam):
    # a_n(x+y) = sum_k C(n,k) a_k(x) a_{n-k}(y), conclusive on an exact grid
    from math import comb

    for n in range(8):
        grid = range(n + 2)
        for x in grid:
            for y in grid:
                lhs = fam.poly(n)(x + y)
                rhs = sum(
                    comb(n, k) * fam.poly(k)(x) * fam.poly(n - k)(y) for k in range(n + 1)
                )
                assert lhs == rhs


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=str)
def test_polynomials_rebuild_from_functional_moments(fam):
    # a polynomial of degree <= D is pinned by A^k f for k = 0..D:
    # f = sum_k (A^k f) / k! * a_k reconstructs it
    A = fam.delta(6)
    f = Poly((3, Fraction(-1, 2), 0, 2, 1))
    rebuilt = Poly.zero()
    for k in range(7):
        value = (A**k)(f)
        if value:
            rebuilt = rebuilt + fam.poly(k) * (value / factorial(k))
    assert rebuilt == f


def test_own_basis_coefficients_are_indicators():
    for fam in ALL_FAMILIES:
        got = fam.coefficients(fam.poly(3))
        assert got == (0, 0, 0, 1)


@settings(max_examples=30, deadline=None)
@given(st.lists(fractions_st, max_size=8))
def test_basis_round_trip_random_polynomials(coeffs):
    f = Poly(coeffs)
    for fam in ALL_FAMILIES:
        cs = fam.coefficients(f)
        rebuilt = Poly.zero()
        for k, c in enumerate(cs):
            rebuilt = rebuilt + fam.poly(k) * c
        assert rebuilt == f


def _exact(value) -> bool:
    return type(value) is int or isinstance(value, Fraction)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=7))
@example([3])
@example([])
def test_int_polynomials_stay_exact_in_every_family(ints):
    # a table polynomial has int coefficients; an int quotient must not become a float
    f = Poly(ints)
    assert all(type(c) is int for c in f.coeffs)
    for fam in ALL_FAMILIES:
        cs = fam.coefficients(f)
        assert all(_exact(c) for c in cs)
        rebuilt = Poly.zero()
        for k, c in enumerate(cs):
            rebuilt = rebuilt + fam.poly(k) * c
        assert rebuilt == f
        value = fam.delta(max(1, f.degree))(f)
        assert _exact(value)


def test_monomial_coefficients_of_an_int_constant():
    assert Monomials().coefficients(Poly([3])) == (3,)
    assert all(_exact(c) for fam in ALL_FAMILIES for c in fam.coefficients(Poly([3])))


def test_family_members_do_not_recurse_per_degree():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        member = RisingFactorials().poly(120)
    finally:
        sys.setrecursionlimit(limit)
    assert member.degree == 120 and member(1) == factorial(120)


def test_poly_reads_the_delta_moments_once_per_call(monkeypatch):
    calls = []
    delta = FallingFactorials.delta
    monkeypatch.setattr(
        FallingFactorials, "delta", lambda self, bound: calls.append(bound) or delta(self, bound)
    )
    family = FallingFactorials(Fraction(7, 3))
    assert family.poly(20).degree == 20
    assert calls == [20]
    assert family.poly(20).degree == 20  # no member is kept: a second call reads once more
    assert calls == [20, 20]


@pytest.mark.parametrize(
    "fam",
    standard_families() + (AbelPolynomials(Fraction(3, 4)), FallingFactorials(Fraction(-2, 3))),
    ids=str,
)
def test_members_are_the_polys_from_one_delta_read(fam, monkeypatch):
    calls = []
    delta = type(fam).delta
    monkeypatch.setattr(type(fam), "delta", lambda self, bound: calls.append(bound) or delta(self, bound))
    members = fam.members(20)
    assert calls == [20]
    assert members == [fam.poly(k) for k in range(21)]
    assert fam.members(0) == [Poly.one()]


def test_threads_share_a_family():
    # four threads read one cold family, switching as often as the interpreter allows
    expected = FallingFactorials(Fraction(5, 7)).members(12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(60):
            family, reads = FallingFactorials(Fraction(5, 7)), []

            def read():
                reads.extend((k, family.poly(k)) for k in (3, 12, 7, 1, 9))

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(reads) == 20 and all(member == expected[k] for k, member in reads)
    finally:
        sys.setswitchinterval(interval)


def test_families_are_values():
    one, fraction_one = FallingFactorials(1), FallingFactorials(Fraction(1))
    assert one == fraction_one and hash(one) == hash(fraction_one)
    # a parameter is an int when it is integral, as a Poly coefficient is, else a Fraction
    assert type(one.step) is int and type(fraction_one.step) is int
    assert type(AbelPolynomials(Fraction(4, 2)).point) is int and AbelPolynomials(2).point == 2
    half = FallingFactorials("1/2")
    assert type(half.step) is Fraction and half == FallingFactorials(Fraction(2, 4))
    assert one != AbelPolynomials(1) and len({one, AbelPolynomials(1)}) == 2
    assert Monomials() != RisingFactorials() and Monomials() == Monomials()
    assert len({Monomials(), RisingFactorials(), LogPolynomials(), Monomials()}) == 3
    assert repr(FallingFactorials(-1)) == "FallingFactorials(step=-1)"
    assert repr(FallingFactorials(Fraction(-1, 2))) == "FallingFactorials(step=Fraction(-1, 2))"
    assert repr(Monomials()) == "Monomials()"


def test_family_parsing_round_trip():
    for spec in ("monomial", "falling:1", "falling:-1/2", "rising", "abel:0", "abel:2/3", "logfamily"):
        assert str(family_from_string(spec)) == spec


def test_family_parameters_are_ints_when_integral_and_keep_fractions_parsing():
    assert type(family_from_string("falling:-1").step) is int
    assert family_from_string("abel:+007").point == 7
    assert type(family_from_string("falling:1/2").step) is Fraction
    # text that is not an ASCII integer literal goes through Fraction: same spellings
    for text in ("2.0", " 3", "1e2", "4/2", "-6/3"):
        step = family_from_string(f"falling:{text}").step
        assert type(step) is int and step == Fraction(text), text
    # and the same error text, an over-long integer literal's too
    for text in ("x", "1/0", "-", "", "3/", "9" * 5000):
        with pytest.raises(ValueError) as caught:
            family_from_string(f"abel:{text}")
        with pytest.raises((ValueError, ZeroDivisionError)) as expected:
            Fraction(text)
        assert str(caught.value) == f"bad family parameter in {f'abel:{text}'!r}: {expected.value}"


def test_family_parsing_rejects_garbage():
    for bad in ("falling", "abel", "falling:0", "nope", "monomial:1", "abel:x"):
        with pytest.raises(ValueError):
            family_from_string(bad)
