"""Dense univariate polynomials with exact rational coefficients.

``Poly`` is the value type of every polynomial set map: chromatic
polynomials, basis members and Abel-type polynomials are all Polys.
``interpolate`` is exact Newton interpolation through rational points.
Nothing here depends on the rest of the package, so a module that only
builds or evaluates polynomials loads this one and not the umbral
functionals and bases.  ``fractions`` is imported only when a value that is
not an int comes in or a quotient is taken, so integral work never loads it.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence


def _exact(values: Iterable) -> list:
    """The values as a list, each int or Fraction as it is and anything else
    converted with Fraction."""
    cs = list(values)
    if not {int}.issuperset(map(type, cs)):
        from fractions import Fraction

        cs = [c if type(c) is int or isinstance(c, Fraction) else Fraction(c) for c in cs]
    return cs


def _scalar(value) -> bool:
    """An int or a Fraction; a Fraction exists only once ``fractions`` is loaded."""
    fractions = sys.modules.get("fractions")
    return isinstance(value, int) or fractions is not None and isinstance(value, fractions.Fraction)


class Poly:
    """Dense univariate polynomial with exact rational coefficients;
    coeffs[k] multiplies x^k.

    A coefficient given as an int or a Fraction is kept as it is, anything
    else is converted with Fraction, so a polynomial built from ints (a
    chromatic polynomial, say) keeps int coefficients; since
    hash(Fraction(3)) == hash(3), equality and hashing do not see the
    difference.  Arithmetic never produces a float: a quotient of
    coefficients goes through Fraction.  Normalized: no trailing zero
    coefficients; the zero polynomial stores an empty tuple and reports
    degree -1 (a stand-in for minus infinity).  Immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = _exact(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * k + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if _scalar(other):
            if not self.coeffs:
                return other == 0
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        # constants hash like their scalar value so Poly == scalar stays coherent
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not _scalar(other):
                return NotImplemented
            other = Poly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            if not _scalar(other):
                return NotImplemented
            other = Poly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not _scalar(other):
                return NotImplemented
            if other == 0:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _scalar(other):
            from fractions import Fraction

            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # the square after the top bit is never read
                base = base * base
        return result

    def __call__(self, point) -> int | Fraction:
        """The exact value; an int or Fraction point is used as it is."""
        if type(point) is not int:
            from fractions import Fraction

            point = point if type(point) is Fraction else Fraction(point)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(tuple(self.coeffs[k] * k for k in range(1, len(self.coeffs))))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly([{', '.join(str(c) for c in self.coeffs)}])"


def interpolate(points: Sequence[tuple]) -> Poly:
    """Exact Newton interpolation through the given (x, y) points."""
    from fractions import Fraction

    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    ys = [Fraction(y) for _, y in points]
    coeffs = list(ys)
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    result = Poly.zero()
    basis = Poly.one()
    for i, c in enumerate(coeffs):
        result = result + basis * c
        if i + 1 < len(xs):
            basis = basis * Poly((-xs[i], 1))
    return result
