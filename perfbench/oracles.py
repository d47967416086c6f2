"""Independent answer checks for the benchmark.

Nothing here imports the engine: each check reaches the answer by a route
that shares no code with the function being timed.  The engine builds
chromatic polynomials by deletion-contraction; here they come from counts
of partitions into independent sets, P(x) = sum_k a_k (x)_k, found by a
recursion that removes the block holding the lowest vertex.  Basis values
come from closed forms or the Stirling recurrence.  Every comparison is
between exact rationals, and a polynomial identity of degree d is checked
at d + 1 points, so it holds exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _adjacency(edges: tuple) -> dict[int, int]:
    adj: dict[int, int] = {}
    for u, v in edges:
        adj[u] = adj.get(u, 0) | 1 << v
        adj[v] = adj.get(v, 0) | 1 << u
    return adj


_stable_memo: dict[tuple, dict[int, tuple]] = {}


def stable_partitions(edges: tuple, mask: int) -> tuple:
    """a_k for k = 0..|mask|: partitions of ``mask`` into k independent sets."""
    memo = _stable_memo.setdefault(edges, {0: (1,)})
    adj = _adjacency(edges)

    def count(S: int) -> tuple:
        hit = memo.get(S)
        if hit is not None:
            return hit
        low = S & -S
        out = [0] * (S.bit_count() + 1)

        def blocks(candidates: int, block: int) -> None:
            # every independent block that holds the lowest vertex of S
            if candidates == 0:
                for k, c in enumerate(count(S ^ block)):
                    out[k + 1] += c
                return
            w = candidates & -candidates
            blocks(candidates ^ w, block)
            blocks(candidates & ~w & ~adj.get(w.bit_length() - 1, 0), block | w)

        blocks(S & ~low & ~adj.get(low.bit_length() - 1, 0), low)
        memo[S] = result = tuple(out)
        return result

    return count(mask)


@lru_cache(maxsize=None)
def _stirling1(n: int) -> tuple:
    """Signed Stirling numbers of the first kind s(n, 0..n)."""
    row = [1]
    for m in range(n):
        row = [(row[k - 1] if k else 0) - (m * row[k] if k < len(row) else 0)
               for k in range(len(row) + 1)]
    return tuple(row)


@lru_cache(maxsize=None)
def chromatic(edges: tuple, mask: int) -> tuple:
    """Coefficients of the chromatic polynomial of the subgraph induced on ``mask``."""
    coeffs = [0] * (mask.bit_count() + 1)
    for k, a in enumerate(stable_partitions(edges, mask)):
        for j, s in enumerate(_stirling1(k)):
            coeffs[j] += a * s
    return tuple(coeffs)


def _value(coeffs, x: int) -> int:
    return sum(c * x**k for k, c in enumerate(coeffs))


def set_partitions(mask: int):
    """Every set partition of ``mask`` as a list of block masks."""
    if mask == 0:
        yield []
        return
    low = mask & -mask
    rest = mask ^ low
    sub = rest
    while True:
        # the block holding the lowest element is low | sub
        for tail in set_partitions(rest ^ sub):
            yield [low | sub, *tail]
        if sub == 0:
            return
        sub = (sub - 1) & rest


def _falling(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= x - i
    return out


def basis_value(spec: str, k: int, x: int) -> Fraction:
    """a_k(x) for a CLI basis spec (monomial, falling:a, rising, abel:a, logfamily)."""
    name, _, arg = spec.partition(":")
    x = Fraction(x)
    if name == "monomial":
        return x**k
    if name == "falling":
        return _falling(x / Fraction(arg), k)
    if name == "rising":
        return _falling(x + k - 1, k)
    if name == "abel":
        return Fraction(1) if k == 0 else x * (x - Fraction(arg) * k) ** (k - 1)
    if name == "logfamily":
        return sum((s * _falling(x, j) for j, s in enumerate(_stirling1(k))), Fraction(0))
    raise ValueError(f"unknown basis {spec!r}")


def expansion_matches(edges: tuple, basis: str, target: int, length_coeffs, subset_coeffs,
                      samples) -> bool:
    """Check an expansion of the chromatic polynomial on ``target``.

    sum_k c_k a_k(x) must equal it, and on each sampled subset S the
    partition sum of the subset coefficients must equal the chromatic
    polynomial of S.  Both sides have degree at most |S|, so they are
    compared at x = 0..|S|.
    """
    expected_keys = {T for T in range(1, target + 1) if T & ~target == 0}
    if set(subset_coeffs) != expected_keys or len(length_coeffs) != target.bit_count() + 1:
        return False
    full = chromatic(edges, target)
    for x in range(target.bit_count() + 1):
        total = sum((c * basis_value(basis, k, x) for k, c in enumerate(length_coeffs)),
                    Fraction(0))
        if total != _value(full, x):
            return False
    for S in samples:
        poly = chromatic(edges, S)
        partitions = list(set_partitions(S))
        for x in range(S.bit_count() + 1):
            total = Fraction(0)
            for sigma in partitions:
                term = basis_value(basis, len(sigma), x)
                for block in sigma:
                    term *= subset_coeffs[block]
                total += term
            if total != _value(poly, x):
                return False
    return True


def chromatic_matches(edges: tuple, subset: int, coeffs) -> bool:
    """Coefficients equal to those of the induced subgraph's chromatic polynomial."""
    return list(coeffs) == list(chromatic(edges, subset))
