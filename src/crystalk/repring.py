"""Closed-form combinatorics in the rational representation ring of Z/p.

The ring in play has Z-basis the trivial class [Q] and the regular class
[Q[Z/p]], with [Q] the unit and [Q[Z/p]]^2 = p*[Q[Z/p]].  From exterior
power classes of the rank-(p-1) cyclotomic constituent one obtains the
fixed-rank counts r_m, the bounded-composition counts a_j and their
partial sums s_m, together with closed-form sum identities; every
computation is exact rational arithmetic and any residual denominator is
a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .abelian import is_prime


@dataclass(frozen=True)
class RepClass:
    """q_coeff*[Q] + reg_coeff*[Q[Z/p]], coefficients exact rationals."""

    p: int
    q_coeff: Fraction
    reg_coeff: Fraction

    @classmethod
    def zero(cls, p: int) -> "RepClass":
        return cls(p, Fraction(0), Fraction(0))

    @classmethod
    def unit(cls, p: int) -> "RepClass":
        return cls(p, Fraction(1), Fraction(0))

    @classmethod
    def regular(cls, p: int) -> "RepClass":
        return cls(p, Fraction(0), Fraction(1))

    def __add__(self, other: "RepClass") -> "RepClass":
        self._check(other)
        return RepClass(self.p, self.q_coeff + other.q_coeff,
                        self.reg_coeff + other.reg_coeff)

    def __sub__(self, other: "RepClass") -> "RepClass":
        self._check(other)
        return RepClass(self.p, self.q_coeff - other.q_coeff,
                        self.reg_coeff - other.reg_coeff)

    def __mul__(self, other: "RepClass") -> "RepClass":
        self._check(other)
        a, b = self.q_coeff, self.reg_coeff
        c, d = other.q_coeff, other.reg_coeff
        # [Q] is the unit, [Q[Z/p]]^2 = p*[Q[Z/p]]
        return RepClass(self.p, a * c, a * d + b * c + b * d * self.p)

    def scale(self, r) -> "RepClass":
        r = Fraction(r)
        return RepClass(self.p, self.q_coeff * r, self.reg_coeff * r)

    def _check(self, other: "RepClass") -> None:
        if self.p != other.p:
            raise ValueError("mixed primes in representation-ring arithmetic")

    def fixed_rank(self) -> int:
        """Rank of the fixed subspace: sends [Q] and [Q[Z/p]] both to 1."""
        val = self.q_coeff + self.reg_coeff
        if val.denominator != 1 or val < 0:
            raise ArithmeticError(
                f"fixed rank {val} is not a nonnegative integer; "
                "cancellation of 1/p factors failed")
        return int(val)


def lambda_class(p: int, l: int) -> RepClass:
    """Class of the l-th exterior power of the cyclotomic constituent.

    Equals (-1)^l [Q] + (1/p)(C(p-1, l) - (-1)^l) [Q[Z/p]] for
    0 <= l <= p-1 and the zero class for l >= p.
    """
    if l < 0:
        raise ValueError("negative exterior degree")
    if l >= p:
        return RepClass.zero(p)
    sign = -1 if l % 2 else 1
    reg = Fraction(comb(p - 1, l) - sign, p)
    if reg.denominator != 1:
        raise ArithmeticError("binomial congruence C(p-1,l) = (-1)^l mod p failed")
    return RepClass(p, Fraction(sign), reg)


def lambda_classes(p: int, k: int) -> tuple[RepClass, ...]:
    """Classes of the 0th to nth exterior powers of k cyclotomic constituents.

    One convolution over bounded compositions into k parts in [0, p-1],
    with n = k(p-1).  It runs on integer pairs (q, reg): every single
    class is integral (lambda_class checks it) and the ring product has
    integer structure constants, so no denominator can arise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    singles = [(int(c.q_coeff), int(c.reg_coeff))
               for c in (lambda_class(p, l) for l in range(p))]
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
    return tuple(RepClass(p, Fraction(q), Fraction(reg)) for q, reg in classes)


def lambda_class_total(p: int, k: int, m: int) -> RepClass:
    """Class of the m-th exterior power of k cyclotomic constituents."""
    if m < 0:
        raise ValueError("negative exterior degree")
    classes = lambda_classes(p, k)
    return classes[m] if m < len(classes) else RepClass.zero(p)


def r_m(p: int, k: int, m: int) -> int:
    """Fixed rank of the m-th exterior power of the rank-k(p-1) module."""
    return lambda_class_total(p, k, m).fixed_rank()


def r_vector(p: int, k: int) -> tuple[int, ...]:
    """(r_0, ..., r_n) for n = k(p-1); r vanishes above n."""
    return tuple(c.fixed_rank() for c in lambda_classes(p, k))


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
