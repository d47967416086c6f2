"""Independent reference computations used to pin expected test values.

Nothing here may import from the package's computation paths: these are
the second opinions.  Bell numbers come from the Bell triangle, EGF
arithmetic from truncated ordinary power series with exact coefficients.
"""

from fractions import Fraction
from math import factorial


def bell_by_triangle(n: int) -> int:
    """Bell number via the Bell (Peirce) triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def egf_to_series(terms) -> list[Fraction]:
    """Sequence a_k -> ordinary coefficients a_k / k! of its EGF."""
    return [Fraction(a) / factorial(k) for k, a in enumerate(terms)]


def series_to_egf(coeffs) -> list[Fraction]:
    """Ordinary coefficients c_k -> sequence c_k * k!."""
    return [Fraction(c) * factorial(k) for k, c in enumerate(coeffs)]


def series_mul(f, g, order: int) -> list[Fraction]:
    """Product of power series, truncated to degree ``order``."""
    out = [Fraction(0)] * (order + 1)
    for i, a in enumerate(f[: order + 1]):
        if a == 0:
            continue
        for j, b in enumerate(g[: order + 1 - i]):
            out[i + j] += a * b
    return out


def series_compose(f, g, order: int) -> list[Fraction]:
    """Composition f(g(t)) of power series with g(0) = 0, truncated."""
    assert g[0] == 0, "inner series must have zero constant term"
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order  # g^0
    for k, a in enumerate(f[: order + 1]):
        if a != 0:
            for i, c in enumerate(power):
                out[i] += a * c
        power = series_mul(power, g, order)
    return out


def series_log1p(order: int) -> list[Fraction]:
    """Coefficients of log(1 + t) through the given degree."""
    out = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        out[k] = Fraction((-1) ** (k + 1), k)
    return out


def series_binomial_power(x_value, inner, order: int) -> list[Fraction]:
    """(1 + u)^x at a fixed rational x, u a series with u(0) = 0, truncated.

    Expands via sum_k C(x, k) u^k with generalized binomial coefficients.
    """
    assert inner[0] == 0
    x = Fraction(x_value)
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    coeff = Fraction(1)
    for k in range(order + 1):
        if coeff != 0:
            for i, c in enumerate(power):
                out[i] += coeff * c
        coeff = coeff * (x - k) / (k + 1)
        power = series_mul(power, inner, order)
    return out


def label_order_counts(n: int, edges) -> list[int]:
    """The stable-partition counts of every mask, packed as the engine packs
    them (s_k(S) in bits 64k to 64k + 63), by the count pass that visited the
    vertices in label order: the top vertex v of S joins an independent set I
    of S - v that avoids its neighbors, packed[S] = (sum of packed[S - v - I])
    << 64, and an isolated top vertex gives s_k(S) = s_(k-1)(R) + k s_k(R)."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    packed = [0] * (1 << n)
    packed[0] = 1

    def isolated(R: int) -> int:
        counts = [packed[R] >> 64 * k & (1 << 64) - 1 for k in range(R.bit_count() + 1)]
        return (packed[R] << 64) + sum(k * c << 64 * k for k, c in enumerate(counts))

    for v in range(n):
        top = 1 << v
        near = adj[v] & (top - 1)
        if not near:
            packed[top : 2 * top] = map(isolated, range(top))
            continue
        far = [u for u in range(v) if not near >> u & 1]
        sides = [0]
        for u in range(v):
            if near >> u & 1:
                sides += [c | 1 << u for c in sides]
        sides = sides[1:]

        def visit(A: int, independent: list, start: int) -> None:
            packed[A | top] = isolated(A)
            rests = [A ^ I for I in independent]
            for C in sides:
                packed[A | C | top] = sum(packed[C | rest] for rest in rests) << 64
            for i in range(start, len(far)):
                bit, blocked = 1 << far[i], adj[far[i]]
                grown = independent + [I | bit for I in independent if not I & blocked]
                visit(A | bit, grown, i + 1)

        visit(0, [0], 0)
    return packed
