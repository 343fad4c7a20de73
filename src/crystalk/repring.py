"""Closed-form combinatorics in the rational representation ring of Z/p.

The ring in play has Z-basis the trivial class [Q] and the regular class
[Q[Z/p]], with [Q] the unit and [Q[Z/p]]^2 = p*[Q[Z/p]].  A class is the
pair (q, reg) of Python ints standing for q*[Q] + reg*[Q[Z/p]].  From the
exterior power classes of the rank-(p-1) cyclotomic constituent one obtains
the fixed-rank counts r_m, the bounded-composition counts a_j and their
partial sums s_m, together with closed-form sum identities.
"""

from __future__ import annotations

from math import comb

from .abelian import is_prime


def lambda_class(p: int, l: int) -> tuple[int, int]:
    """Class (q, reg) of the l-th exterior power of the cyclotomic constituent.

    Equals (-1)^l [Q] + (1/p)(C(p-1, l) - (-1)^l) [Q[Z/p]] for
    0 <= l <= p-1 and the zero class for l >= p.
    """
    if l < 0:
        raise ValueError("negative exterior degree")
    if l >= p:
        return (0, 0)
    sign = -1 if l % 2 else 1
    reg, rest = divmod(comb(p - 1, l) - sign, p)
    if rest:
        raise ArithmeticError("binomial congruence C(p-1,l) = (-1)^l mod p failed")
    return (sign, reg)


def lambda_classes(p: int, k: int) -> tuple[tuple[int, int], ...]:
    """Classes (q, reg) of the 0th to nth exterior powers of k cyclotomic
    constituents, n = k(p-1), by one convolution over bounded compositions
    into k parts in [0, p-1].
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    singles = [lambda_class(p, l) for l in range(p)]
    # classes[j] = class of Lambda^j of the constituents taken so far
    classes = [(1, 0)]
    for _ in range(k):
        nxt = [(0, 0)] * (len(classes) + p - 1)
        for j, (a, b) in enumerate(classes):
            for l, (c, d) in enumerate(singles):
                q, reg = nxt[j + l]
                # [Q] is the unit, [Q[Z/p]]^2 = p*[Q[Z/p]]
                nxt[j + l] = (q + a * c, reg + a * d + b * c + b * d * p)
        classes = nxt
    return tuple(classes)


def r_vector(p: int, k: int) -> tuple[int, ...]:
    """(r_0, ..., r_n) for n = k(p-1); r vanishes above n.

    [Q] and [Q[Z/p]] both have rank-1 fixed subspaces, so r_m = q + reg.
    """
    rv = tuple(q + reg for q, reg in lambda_classes(p, k))
    if min(rv) < 0:
        raise ArithmeticError(f"fixed rank {min(rv)} is negative")
    return rv


def r_m(p: int, k: int, m: int) -> int:
    """Fixed rank of the m-th exterior power of the rank-k(p-1) module."""
    if m < 0:
        raise ValueError("negative exterior degree")
    rv = r_vector(p, k)
    return rv[m] if m < len(rv) else 0


def a_vector(p: int, k: int) -> tuple[int, ...]:
    """(a_0, ..., a_n): a_j counts compositions of j into k parts in [0, p-1]."""
    counts = [1]
    for _ in range(k):
        nxt = [0] * (len(counts) + p - 1)
        for t, c in enumerate(counts):
            for l in range(p):
                nxt[t + l] += c
        counts = nxt
    return tuple(counts)


def a_j(p: int, k: int, j: int) -> int:
    """Number of compositions of j into k parts each within [0, p-1]."""
    counts = a_vector(p, k)
    return counts[j] if 0 <= j < len(counts) else 0


def a_j_inclusion_exclusion(p: int, k: int, j: int) -> int:
    """Same count via inclusion-exclusion; cross-check for the DP."""
    if j < 0:
        return 0
    total = 0
    for i in range(k + 1):
        rest = j - i * p
        if rest < 0:
            break
        total += (-1) ** i * comb(k, i) * comb(rest + k - 1, k - 1)
    return total


def s_vector(p: int, k: int) -> tuple[int, ...]:
    """(s_0, ..., s_{n+1}): prefix sums of the a_j, from 0 up to p^k."""
    out = [0]
    for a in a_vector(p, k):
        out.append(out[-1] + a)
    return tuple(out)


def s_at(table: tuple[int, ...], m: int) -> int:
    """s_m read from an s_vector table: 0 for m <= 0, p^k above n + 1."""
    return table[min(max(m, 0), len(table) - 1)]


def s_m(p: int, k: int, m: int) -> int:
    """Prefix sum s_m = a_0 + ... + a_{m-1}; stabilizes at p^k."""
    return s_at(s_vector(p, k), m)


def r_sum_identities(p: int, k: int,
                     rv: tuple[int, ...] | None = None) -> dict[str, int]:
    """Closed-form totals of the r_m, each checked against direct summation.

    Returns sum_all, sum_even, sum_odd and the alternating sum.  A mismatch
    between a closed form and the direct sum is an internal consistency
    failure and raises.  `rv` is r_vector(p, k) when the caller already
    holds it.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if rv is None:
        rv = r_vector(p, k)
    direct_all = sum(rv)
    direct_even = sum(rv[0::2])
    direct_odd = sum(rv[1::2])
    direct_alt = direct_even - direct_odd
    if p == 2:
        n = k
        closed_all = 2 ** (k - 1)
        closed_even = 2 ** (n - 1)
        closed_odd = 0
    else:
        base = 2 ** ((p - 1) * k)
        closed_all = (base - 1) // p + 1
        if (base - 1) % p:
            raise ArithmeticError("2^{(p-1)k} = 1 mod p failed")
        half = (base + p - 1) // (2 * p)
        if (base + p - 1) % (2 * p):
            raise ArithmeticError("even/odd split denominator did not cancel")
        closed_even = half + (p - 1) * p ** (k - 1) // 2
        closed_odd = half - (p - 1) * p ** (k - 1) // 2
    closed_alt = (p - 1) * p ** (k - 1)
    out = {"sum_all": closed_all, "sum_even": closed_even,
           "sum_odd": closed_odd, "alternating": closed_alt}
    direct = {"sum_all": direct_all, "sum_even": direct_even,
              "sum_odd": direct_odd, "alternating": direct_alt}
    if out != direct:
        raise ArithmeticError(f"sum identities failed: closed {out} vs direct {direct}")
    return out
