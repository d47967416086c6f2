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
application.  A family here is only its spec and the moments m of A;
every member is derived from them: a_0 = 1, and for n >= 1, a_n is the
polynomial with a_n(0) = 0 and Q a_n = n a_{n-1}, where the delta
operator is Q x^j = sum_{k=1..j} C(j, k) m_k x^(j-k).  The specs are the
rows of one table (``_SPECS``), each a name, a parameter a or none, and
the moment m_k = A x^k for k >= 1:

    spec         basis a_n                 A                      m_k
    monomial     x^n                       f -> f'(0)             [k == 1]
    falling:a    (x/a)_n, a != 0           f -> f(a) - f(0)       a^k
    rising       x(x+1)...(x+n-1)          f -> f(0) - f(-1)      -(-1)^k
    abel:a       x(x - a n)^(n-1)          f -> f'(a)             k a^(k-1)
    logfamily    EGF (1 + log(1+t))^x      (x)_n -> [n > 0]       Bell(k)

Since chi_T(0) = 0 for every nonempty T, expanding the chromatic set map
in falling:a is the evaluation expansion chi_S = sum over sigma of
(x/a)_len * prod chi_T(a): a = 1 gives the stable-partition expansion,
a = -1 the rising/orientation form.  In abel:a it is the derivative
expansion chi_S = sum over sigma of x(x - a len)^(len-1) * prod chi'_T(a):
a = 0 gives the classical monomial expansion in connected-subgraph
derivatives, a = 1 the Abel-one check.  The log family's member n is the
sum over partitions of an n-set of (x)_len * prod over blocks T of
(-1)^(|T|-1) (|T|-1)!, so its falling-factorial coefficients are signed
Stirling numbers of the first kind; since x^n = sum_j S(n, j) (x)_j, its
moments are the Bell numbers.

Moments, members and parameters follow the exact-number rule of ``ring``:
an int stays an int, a quotient (``quotient``) and a parameter (``rational``,
``parse_rational``) are ints when they are integral, and a functional scales
its moments to ints (``common_denominator``).  So the monomial, rising, log,
``falling:1`` and ``abel:0`` bases run in ints and never load ``fractions``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable

from .poly import Poly, _exact
from .ring import bell_number, common_denominator, parse_rational, quotient, rational, sequence_product


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
        c = rational(point)
        return cls(tuple(c**k for k in range(bound + 1)))

    @classmethod
    def derivative_at(cls, point, bound: int) -> "Functional":
        c = rational(point)
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
            self._scaled = common_denominator(self.moments)
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
        c[i + 1] = quotient(acc, (i + 1) * m[1])
    return Poly(c)


class BinomialFamily:
    """A binomial-type polynomial basis, fixed by its delta functional.

    The members and the coordinates in the basis are derived from the
    moments that the subclass's ``delta`` returns.  A family keeps no state
    between calls: each call derives the members it returns, so one family
    serves any number of threads.
    """

    __slots__ = ()

    def members(self, n: int) -> list[Poly]:
        """The members a_0..a_n, derived bottom up from one read of the delta
        moments (module docstring): moment k does not depend on the bound, and
        no degree recurses."""
        if n < 0:
            raise ValueError("family index must be nonnegative")
        # a_0 = 1 needs none; integral moments give members in ints (_next_member)
        moments = list(map(rational, self.delta(n).moments)) if n else ()
        members = [Poly.one()]
        for j in range(1, n + 1):
            members.append(_next_member(moments, j, members[-1]))
        return members

    def poly(self, n: int) -> Poly:
        """The degree-n member of the family; a_0 = 1."""
        return self.members(n)[n]

    def coefficients(self, f: Poly) -> tuple:
        """Coefficients c with f = sum_k c_k * a_k(x), by triangular elimination."""
        if not f:
            return ()
        out = [0] * (f.degree + 1)
        members = self.members(f.degree)
        remainder = f
        while remainder:
            d = remainder.degree
            c = quotient(remainder.coeffs[d], members[d].coeffs[d])
            out[d] = c
            remainder = remainder - members[d] * c
        return tuple(out)


# each spec name -> (what its parameter is, or None for a spec without one,
# the moment A x^k for k >= 1 at parameter a); module docstring
_SPECS = {
    "monomial": (None, lambda k, a: int(k == 1)),
    "falling": ("falling-factorial step", lambda k, a: a**k),
    "rising": (None, lambda k, a: -((-1) ** k)),
    "abel": ("Abel point", lambda k, a: k * a ** (k - 1)),
    "logfamily": (None, lambda k, a: bell_number(k)),
}


# the only subclass: perfbench's tracer times ``delta`` on each direct subclass
class Family(BinomialFamily):
    """The family of one row of ``_SPECS`` at one parameter.

    A family is a value, named by its spec ``str``: ``falling:-1/2``, or
    ``rising`` for a row without a parameter.  Two families are equal, and
    hash alike, exactly when their specs are.  The parameter is stored by
    ``rational``, an int when it is integral, so the spec is canonical.
    """

    __slots__ = ("name", "param")

    def __init__(self, name: str, param=None):
        if name not in _SPECS:
            raise ValueError(f"unknown family {name!r}; expected one of {', '.join(_SPECS)}")
        meaning, moment = _SPECS[name]
        if (param is None) != (meaning is None):
            needs = "no parameter" if meaning is None else f"its {meaning}"
            raise TypeError(f"family {name!r} takes {needs}, got {param!r}")
        if meaning is not None:
            param = rational(param)
            if moment(1, param) == 0:  # A x != 0 for a delta functional
                raise ValueError(f"{meaning} must be nonzero")
        self.name, self.param = name, param

    def delta(self, bound: int) -> Functional:
        """Moment vector, up to the given degree, of the associated functional."""
        if bound < 1:
            raise ValueError("a delta functional needs a degree bound of at least 1")
        moment, a = _SPECS[self.name][1], self.param
        return Functional((0, *(moment(k, a) for k in range(1, bound + 1))))

    def __str__(self) -> str:
        return self.name if self.param is None else f"{self.name}:{self.param}"

    def __repr__(self) -> str:
        return f"Family({self.name!r}, {self.param!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))


# one constructor per spec row, under the names the package exports
def Monomials() -> Family:
    return Family("monomial")


def FallingFactorials(step=1) -> Family:
    return Family("falling", step)


def RisingFactorials() -> Family:
    return Family("rising")


def AbelPolynomials(point=1) -> Family:
    return Family("abel", point)


def LogPolynomials() -> Family:
    return Family("logfamily")


def family_from_string(spec: str) -> Family:
    """Parse a family spec: monomial | falling:a | rising | abel:a | logfamily.

    The parameter a is an exact rational literal such as 2, -1, or 3/4.
    """
    name, sep, arg = spec.strip().partition(":")
    name = name.lower()
    if name in _SPECS and bool(sep) == (_SPECS[name][0] is not None):
        try:
            return Family(name, parse_rational(arg) if sep else None)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad family parameter in {spec!r}: {exc}") from None
    *rows, last = (row if meaning is None else f"{row}:a" for row, (meaning, _) in _SPECS.items())
    raise ValueError(f"unknown family spec {spec!r}; expected {', '.join(rows)}, or {last}")


def standard_families() -> tuple[Family, ...]:
    """The family instances exercised by the verification suites."""
    specs = ("monomial", "falling:1", "falling:-1", "falling:2", "rising", "abel:0", "abel:1", "logfamily")
    return tuple(map(family_from_string, specs))
