"""Linear functionals on polynomials, and binomial-type polynomial bases.

The polynomials themselves are ``Poly`` values from ``poly``, which has
no dependency here; code that only builds or evaluates polynomials (the
chromatic table, the Abel-type maps) loads ``poly`` without this module.

Functionals on polynomials are stored by their moment vector (the values
on 1, x, x^2, ..., x^D) and multiply umbrally:

    (L M) x^n = sum_k C(n, k) (L x^k) (M x^{n-k}),

an associative, commutative product whose unit is evaluation at 0.  A
delta functional A has A 1 = 0 and A x != 0.

A polynomial sequence a_0(x), a_1(x), ... with deg a_n = n is of binomial
type when a_n(x+y) = sum_k C(n,k) a_k(x) a_{n-k}(y).  Such a sequence is
fixed by its associated delta functional A, characterized by
A^k a_n = k! [n == k] (Rota-Kahaner-Odlyzko, 1973); that is what turns
coefficient extraction in these bases into a single functional
application.  A family here is only its parameters and the moments m of
A; every member is derived from them: a_0 = 1, and for n >= 1, a_n is
the polynomial with a_n(0) = 0 and Q a_n = n a_{n-1}, where the delta
operator is Q x^j = sum_{k=1..j} C(j, k) m_k x^(j-k).  Shipped families:
monomials x^n, falling factorials (x/a)_n, rising factorials
x(x+1)...(x+n-1), Abel polynomials x(x - a n)^{n-1}, and the basis with
exponential generating function (1 + log(1+t))^x.

Moments, members and parameters follow ``Poly``'s rule: an int stays an int,
and a parameter is an int when it is integral, so the monomial, rising, log,
``falling:1`` and ``abel:0`` bases run in ints and never load ``fractions``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable

from .poly import Poly, _exact
from .ring import bell_number, quotient, sequence_product


def _rational(value):
    """``value`` exactly: an int when it is integral, else a Fraction."""
    if type(value) is int:
        return value
    from fractions import Fraction

    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class Functional:
    """Linear functional on polynomials, stored by moments on 1, x, x^2, ...

    Applying to a polynomial of degree above the stored bound is an error,
    never a truncation.  The application is one dot product of the
    coefficients with the moments scaled to a common denominator, divided by
    it only when it is not 1: int coefficients under int moments give an int.
    """

    __slots__ = ("moments", "_scaled")

    def __init__(self, moments: Iterable):
        ms = tuple(_exact(moments))
        if not ms:
            raise ValueError("a functional needs at least the moment on 1")
        self.moments = ms
        self._scaled = None  # (int moments, common denominator), on first use

    @classmethod
    def evaluation_at(cls, point, bound: int) -> "Functional":
        c = _rational(point)
        return cls(tuple(c**k for k in range(bound + 1)))

    @classmethod
    def derivative_at(cls, point, bound: int) -> "Functional":
        c = _rational(point)
        return cls((0,) + tuple(k * c ** (k - 1) for k in range(1, bound + 1)))

    @property
    def bound(self) -> int:
        return len(self.moments) - 1

    def is_delta(self) -> bool:
        return self.moments[0] == 0 and len(self.moments) > 1 and self.moments[1] != 0

    def __call__(self, f: Poly) -> int | Fraction:
        if f.degree > self.bound:
            raise ValueError(
                f"polynomial degree {f.degree} exceeds functional bound {self.bound};"
                " refusing to truncate"
            )
        if self._scaled is None:
            scale = math.lcm(*(m.denominator for m in self.moments))
            self._scaled = ([m.numerator * (scale // m.denominator) for m in self.moments], scale)
        ints, scale = self._scaled
        total = sum(map(operator.mul, f.coeffs, ints))
        return total if scale == 1 else quotient(total, scale)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Functional):
            return NotImplemented
        return self.moments == other.moments

    def __hash__(self) -> int:
        return hash(self.moments)

    def __mul__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        if len(self.moments) != len(other.moments):
            raise ValueError("umbral product requires matching degree bounds")
        return Functional(sequence_product(self.moments, other.moments))

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("functional powers must be nonnegative integers")
        if k == 0:
            # the umbral unit: evaluation at 0, i.e. f -> f(0)
            return Functional.evaluation_at(0, self.bound)
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def __repr__(self) -> str:
        return f"Functional([{', '.join(str(m) for m in self.moments)}])"


def _next_member(m: tuple, n: int, below: Poly) -> Poly:
    """a_n from a_{n-1} = ``below`` and the delta moments ``m`` (at least
    m_0..m_n), for n >= 1.  Over int moments a coefficient is an int, and a
    Fraction only where its division leaves a remainder."""
    # solve Q a_n = n a_{n-1} (module docstring) for a_n = sum_j c_j x^j top down:
    # the x^i coefficient, sum_{k>=1} C(i+k, k) m_k c_{i+k} = n [x^i] a_{n-1}, fixes c_{i+1}
    steps = [k for k in range(2, n + 1) if m[k]]
    rhs = below.coeffs
    c = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        acc = n * rhs[i]
        for k in steps:
            if i + k > n:
                break
            acc -= math.comb(i + k, k) * m[k] * c[i + k]
        d = (i + 1) * m[1]
        if type(acc) is int and type(d) is int:
            c[i + 1] = quotient(acc, d)
        else:
            c[i + 1] = acc / d  # a Fraction
    return Poly(c)


class BinomialFamily:
    """A binomial-type polynomial basis, fixed by its delta functional.

    A family is a value: its parameters are the slots of its class, set
    once in ``__init__`` and never changed.  Two families are equal, and
    hash alike, when they are of the same class with equal parameters.  A
    family keeps no state between calls: each call derives the members it
    returns, so one family serves any number of threads.
    """

    __slots__ = ()

    def _params(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._params() == other._params()

    def __hash__(self) -> int:
        return hash(self._params())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def members(self, n: int) -> list[Poly]:
        """The members a_0..a_n, derived bottom up from one read of the delta
        moments (module docstring): moment k does not depend on the bound, and
        no degree recurses."""
        if n < 0:
            raise ValueError("family index must be nonnegative")
        moments = self.delta(n).moments if n else ()  # a_0 = 1 needs none
        if all(m.denominator == 1 for m in moments):  # integral: members in ints (_next_member)
            moments = [m.numerator for m in moments]
        members = [Poly.one()]
        for j in range(1, n + 1):
            members.append(_next_member(moments, j, members[-1]))
        return members

    def poly(self, n: int) -> Poly:
        """The degree-n member of the family; a_0 = 1."""
        return self.members(n)[n]

    def delta(self, bound: int) -> Functional:
        """Moment vector, up to the given degree, of the associated functional."""
        raise NotImplementedError

    def coefficients(self, f: Poly) -> tuple:
        """Coefficients c with f = sum_k c_k * a_k(x), by triangular elimination."""
        if not f:
            return ()
        from fractions import Fraction

        out = [Fraction(0)] * (f.degree + 1)
        members = self.members(f.degree)
        remainder = f
        while remainder:
            d = remainder.degree
            c = Fraction(remainder.coeffs[d]) / members[d].coeffs[d]
            out[d] = c
            remainder = remainder - members[d] * c
        return tuple(out)

    def _check_bound(self, bound: int) -> None:
        if bound < 1:
            raise ValueError("a delta functional needs a degree bound of at least 1")


class Monomials(BinomialFamily):
    """The basis x^n; delta functional f -> f'(0)."""

    __slots__ = ()

    def delta(self, bound: int) -> Functional:
        self._check_bound(bound)
        return Functional.derivative_at(0, bound)

    def __str__(self) -> str:
        return "monomial"


class FallingFactorials(BinomialFamily):
    """The basis (x/a)_n = (x/a)(x/a - 1)...(x/a - n + 1), a != 0.

    Delta functional f -> f(a) - f(0).  Since chi_T(0) = 0 for every
    nonempty T, expanding the chromatic set map here is the evaluation
    expansion chi_S = sum over sigma of (x/a)_len * prod chi_T(a); a = 1
    gives the stable-partition expansion, a = -1 the rising/orientation
    form.
    """

    __slots__ = ("step",)

    def __init__(self, step=1):
        self.step = _rational(step)
        if self.step == 0:
            raise ValueError("falling-factorial step must be nonzero")

    def delta(self, bound: int) -> Functional:
        self._check_bound(bound)
        a = self.step
        return Functional((0,) + tuple(a**k for k in range(1, bound + 1)))

    def __str__(self) -> str:
        return f"falling:{self.step}"


class RisingFactorials(BinomialFamily):
    """The basis x(x+1)...(x+n-1); delta functional f -> f(0) - f(-1).

    The functional is forced by x^(n) = (-1)^n (-x)_n and is checked by the
    associated-functional property tests rather than assumed.
    """

    __slots__ = ()

    def delta(self, bound: int) -> Functional:
        self._check_bound(bound)
        # moments of f(0) - f(-1): 0^k - (-1)^k
        return Functional((0,) + tuple(-((-1) ** k) for k in range(1, bound + 1)))

    def __str__(self) -> str:
        return "rising"


class AbelPolynomials(BinomialFamily):
    """The basis x(x - a n)^{n-1}; delta functional f -> f'(a).

    Expanding the chromatic set map here is the derivative expansion
    chi_S = sum over sigma of x(x - a len)^(len-1) * prod chi'_T(a); a = 0
    gives the classical monomial expansion in connected-subgraph
    derivatives, a = 1 the Abel-one check.
    """

    __slots__ = ("point",)

    def __init__(self, point=1):
        self.point = _rational(point)

    def delta(self, bound: int) -> Functional:
        self._check_bound(bound)
        return Functional.derivative_at(self.point, bound)

    def __str__(self) -> str:
        return f"abel:{self.point}"


class LogPolynomials(BinomialFamily):
    """The basis with EGF (1 + log(1+t))^x.

    Member n is the set-partition sum over partitions of an n-set of
    (x)_len(sigma) * prod over blocks T of (-1)^(|T|-1) (|T|-1)!, i.e. the
    falling-factorial coefficients are signed Stirling numbers of the
    first kind.  Its delta functional B has B (x)_n = 1 for n > 0 and
    B 1 = 0; since x^n = sum_j S(n, j) (x)_j, its moments B x^n are the
    Bell numbers.
    """

    __slots__ = ()

    def delta(self, bound: int) -> Functional:
        self._check_bound(bound)
        return Functional((0,) + tuple(bell_number(k) for k in range(1, bound + 1)))

    def __str__(self) -> str:
        return "logfamily"


def _parameter(text: str):
    """An ASCII integer literal as an int; any other text through Fraction,
    whose spellings and error text it keeps."""
    digits = text[1:] if text[:1] in ("-", "+") else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    from fractions import Fraction

    return Fraction(text)


def family_from_string(spec: str) -> BinomialFamily:
    """Parse a family spec: monomial | falling:a | rising | abel:a | logfamily.

    The parameter a is an exact rational literal such as 2, -1, or 3/4.
    """
    name, sep, arg = spec.strip().partition(":")
    name = name.lower()
    try:
        if name == "monomial" and not sep:
            return Monomials()
        if name == "rising" and not sep:
            return RisingFactorials()
        if name == "logfamily" and not sep:
            return LogPolynomials()
        if name == "falling" and sep:
            return FallingFactorials(_parameter(arg))
        if name == "abel" and sep:
            return AbelPolynomials(_parameter(arg))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad family parameter in {spec!r}: {exc}") from None
    raise ValueError(
        f"unknown family spec {spec!r}; expected monomial, falling:a, rising, abel:a, or logfamily"
    )


def standard_families() -> tuple[BinomialFamily, ...]:
    """The family instances exercised by the verification suites."""
    return (
        Monomials(),
        FallingFactorials(1),
        FallingFactorials(-1),
        FallingFactorials(2),
        RisingFactorials(),
        AbelPolynomials(0),
        AbelPolynomials(1),
        LogPolynomials(),
    )
