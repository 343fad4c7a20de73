"""Closed-form combinatorics of the Z/p-lattice Z^n, n = k(p-1).

The lattice is k copies of the rank-(p-1) cyclotomic constituent.  Its
fixed-rank counts r_m = rk (Lambda^m Z^n)^{Z/p} come from the character
average over Z/p and the bounded-composition counts a_j; alongside them
are the partial sums s_m of the a_j and closed-form sum identities.  A
wedge class of the constituent in the rational representation ring is
the pair (q, reg) of Python ints standing for q*[Q] + reg*[Q[Z/p]].
"""

from __future__ import annotations

from math import comb

from .abelian import is_prime


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _require_blocks(k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")


def _exact(num: int, den: int, what: str) -> int:
    quot, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"{what} is not divisible by {den}")
    return quot


def lambda_class(p: int, l: int) -> tuple[int, int]:
    """Class (q, reg) of the l-th exterior power of the cyclotomic constituent.

    Equals (-1)^l [Q] + (1/p)(C(p-1, l) - (-1)^l) [Q[Z/p]] for
    0 <= l <= p-1 and the zero class for l >= p.
    """
    _require_prime(p)
    if l < 0:
        raise ValueError("negative exterior degree")
    if l >= p:
        return (0, 0)
    sign = -1 if l % 2 else 1
    return (sign, _exact(comb(p - 1, l) - sign, p, f"C(p-1, {l}) - (-1)^{l}"))


def r_vector(p: int, k: int,
             av: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """(r_0, ..., r_n) for n = k(p-1); r vanishes above n.

    A fixed rank is the average of the character.  The identity gives
    C(n, m); every other element has each primitive p-th root of unity as
    an eigenvalue k times, so det(1 + t*g) = (sum_{l<p} (-t)^l)^k, whose
    t^m coefficient is (-1)^m a_m.  Hence p*r_m = C(n, m) + (-1)^m (p-1) a_m.
    `av` is a_vector(p, k) when the caller already holds it.
    """
    _require_prime(p)
    n = k * (p - 1)
    rv, binom, sign = [], 1, p - 1
    for m, a in enumerate(a_vector(p, k) if av is None else av):
        r = _exact(binom + sign * a, p, f"character sum of degree {m}")
        if r < 0:
            raise ArithmeticError(f"fixed rank {r} is negative")
        rv.append(r)
        binom, sign = binom * (n - m) // (m + 1), -sign
    return tuple(rv)


def r_m(p: int, k: int, m: int) -> int:
    """Fixed rank of the m-th exterior power of the rank-k(p-1) module."""
    if m < 0:
        raise ValueError("negative exterior degree")
    rv = r_vector(p, k)
    return rv[m] if m < len(rv) else 0


def a_vector(p: int, k: int) -> tuple[int, ...]:
    """(a_0, ..., a_n): a_j counts compositions of j into k >= 1 parts in
    [0, p-1]."""
    _require_blocks(k)
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
    _require_blocks(k)
    if j < 0:
        return 0
    total = 0
    for i in range(k + 1):
        rest = j - i * p
        if rest < 0:
            break
        total += (-1) ** i * comb(k, i) * comb(rest + k - 1, k - 1)
    return total


def s_vector(p: int, k: int,
             av: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """(s_0, ..., s_{n+1}): prefix sums of the a_j, from 0 up to p^k; `av`
    is a_vector(p, k) when the caller already holds it."""
    out = [0]
    for a in a_vector(p, k) if av is None else av:
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
    _require_prime(p)
    if rv is None:
        rv = r_vector(p, k)
    # the character average at t = 1 and t = -1: (1 + t)^n gives 2^n and 0,
    # (sum_{l<p} (-t)^l)^k gives p mod 2 and p^k
    closed_all = _exact(2 ** (k * (p - 1)) + (p - 1) * (p % 2), p, "sum_all")
    closed_alt = _exact((p - 1) * p ** k, p, "alternating")
    out = {"sum_all": closed_all,
           "sum_even": _exact(closed_all + closed_alt, 2, "sum_even"),
           "sum_odd": _exact(closed_all - closed_alt, 2, "sum_odd"),
           "alternating": closed_alt}
    even, odd = sum(rv[0::2]), sum(rv[1::2])
    direct = {"sum_all": even + odd, "sum_even": even, "sum_odd": odd,
              "alternating": even - odd}
    if out != direct:
        raise ArithmeticError(f"sum identities failed: closed {out} vs direct {direct}")
    return out
