"""Symbolic group expressions, the package's one value type for groups.

A GroupExpression is a normalized multiset of summands drawn from seven
kinds, namely free parts, cyclic prime-power parts, p-adic and Pruefer
summands, copies of (connective) real K-theory point groups, and bounded
unknown torsion.  Each kind is defined once, by its entry in the table
`_KINDS`: its canonical position, the field counting its copies and the
constructor call that sets it, the canonical form of one summand, and its
text.

Every exactly computed group is finitely generated and is held in its
elementary-divisor form, free parts plus cyclic prime-power parts, each
with a count that is never written out; on such expressions equality is
isomorphism.  The duals and scaling by a count are defined on them alone.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n <= 0:
        raise ValueError("factorint expects a positive integer")
    out: dict[int, int] = {}
    x = n
    p = 2
    while p * p <= x:
        while x % p == 0:
            out[p] = out.get(p, 0) + 1
            x //= p
        p += 1 if p == 2 else 2
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def is_prime(n: int) -> bool:
    """Exact primality by trial division by 2 and then the odd d, stopping
    at the first divisor: about sqrt(n) / 2 of them for a prime n."""
    if n < 3:
        return n == 2
    return n % 2 == 1 and all(n % d for d in range(3, isqrt(n) + 1, 2))


# KO_m(pt) for m = 0..7 (8-periodic) as (free rank, copies of Z/2)
_KO_SHAPE = ((1, 0), (0, 1), (0, 1), (0, 0), (1, 0), (0, 0), (0, 0), (0, 0))


# --------------------------------------------------------------------------
# symbolic group expressions


@dataclass(frozen=True, order=True)
class FreeZ:
    rank: int


@dataclass(frozen=True, order=True)
class CyclicPrimePower:
    p: int
    exponent: int
    multiplicity: int


@dataclass(frozen=True, order=True)
class PAdic:
    p: int
    rank: int


@dataclass(frozen=True, order=True)
class Pruefer:
    p: int
    rank: int


@dataclass(frozen=True, order=True)
class KOPoint:
    degree: int
    multiplicity: int


@dataclass(frozen=True, order=True)
class KoPoint:
    degree: int
    multiplicity: int


@dataclass(frozen=True)
class UnknownPTorsion:
    """Finite abelian p-torsion known only through filtration layer bounds.

    layer_bounds=None records a group known to be finite with no proven
    bounds; equality is tag-plus-bounds equality, never group isomorphism.
    """

    tag: str
    layer_bounds: tuple[int, ...] | None = None


def _pow_suffix(n: int) -> str:
    return "" if n == 1 else f"^{n}"


def _refuse(s, why: str):
    raise ValueError(f"{s!r} is not a canonical summand: {why}")


def _canon_prime(s):
    if not is_prime(s.p):
        _refuse(s, f"{s.p} is not prime")
    return s


def _canon_unknown(s):
    if s.layer_bounds is None:
        return s
    if min(s.layer_bounds, default=0) < 0:
        _refuse(s, "negative layer bound")
    return UnknownPTorsion(s.tag, tuple(s.layer_bounds)) if any(s.layer_bounds) else None


class _Kind(NamedTuple):
    key: Callable      # canonical position first, then the order within the kind
    count: str | None  # the field counting copies; None: unknown torsion, never added
    recount: Callable | None  # the summand with another count, by its constructor
    canon: Callable    # a summand of positive count in canonical form, None if zero
    text: Callable     # the rendered text


# One entry per summand kind; each key starts with the kind's place here.
_KINDS = {
    FreeZ: _Kind(lambda s: (0,), "rank", lambda s, c: FreeZ(c), lambda s: s,
                 lambda s: "Z" + _pow_suffix(s.rank)),
    CyclicPrimePower: _Kind(
        lambda s: (1, s.p, s.exponent), "multiplicity",
        lambda s, c: CyclicPrimePower(s.p, s.exponent, c),
        lambda s: _canon_prime(s) if s.exponent >= 1 else _refuse(s, "exponent below 1"),
        lambda s: (f"Z/{s.p ** s.exponent}" if s.multiplicity == 1
                   else f"(Z/{s.p ** s.exponent})^{s.multiplicity}")),
    PAdic: _Kind(lambda s: (2, s.p), "rank", lambda s, c: PAdic(s.p, c),
                 _canon_prime,
                 lambda s: f"Zp^[{s.p}]" + _pow_suffix(s.rank)),
    Pruefer: _Kind(lambda s: (3, s.p), "rank", lambda s, c: Pruefer(s.p, c),
                   _canon_prime,
                   lambda s: f"Pruefer[{s.p}]" + _pow_suffix(s.rank)),
    KOPoint: _Kind(lambda s: (4, s.degree), "multiplicity",
                   lambda s, c: KOPoint(s.degree, c),
                   lambda s: KOPoint(s.degree % 8, s.multiplicity),
                   lambda s: f"KO[{s.degree}](pt)" + _pow_suffix(s.multiplicity)),
    # connective: negative degrees vanish, no degree is reduced
    KoPoint: _Kind(lambda s: (5, s.degree), "multiplicity",
                   lambda s, c: KoPoint(s.degree, c),
                   lambda s: s if s.degree >= 0 else None,
                   lambda s: f"ko[{s.degree}](pt)" + _pow_suffix(s.multiplicity)),
    UnknownPTorsion: _Kind(
        lambda s: (6, s.tag, s.layer_bounds or ()), None, None, _canon_unknown,
        lambda s: (f"T{{{s.tag}; finite}}" if s.layer_bounds is None else
                   f"T{{{s.tag}; bounds=[{', '.join(map(str, s.layer_bounds))}]}}")),
}


@dataclass(frozen=True)
class GroupExpression:
    """Normalized multiset of group summands.

    The canonical summand tuple holds each summand in its kind's canonical
    form, at most one per order key, sorted by `_order_key` (see `_KINDS`).
    Every way of building one, the named constructors included, brings
    its summands into that form through `_normalize`, the one normalizer,
    and so refuses what it refuses; only `fg_expression` builds the
    canonical tuple directly.

    >>> g = GroupExpression((CyclicPrimePower(2, 1, 1), FreeZ(1),
    ...                      CyclicPrimePower(2, 1, 1)))
    >>> str(g + GroupExpression.elementary(3, 1))
    'Z (+) (Z/2)^2 (+) Z/3'
    >>> 3 * g == GroupExpression((CyclicPrimePower(2, 1, 6), FreeZ(3)))
    True
    >>> str(ext_dual(g))
    '(Z/2)^2'
    """

    summands: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "summands", _normalize(self.summands))

    @classmethod
    def zero(cls) -> "GroupExpression":
        return cls()

    @classmethod
    def free(cls, rank: int) -> "GroupExpression":
        return cls((FreeZ(rank),))

    @classmethod
    def elementary(cls, p: int, copies: int) -> "GroupExpression":
        """(Z/p)^copies."""
        return cls((CyclicPrimePower(p, 1, copies),))

    @classmethod
    def padic(cls, p: int, rank: int) -> "GroupExpression":
        return cls((PAdic(p, rank),))

    @classmethod
    def pruefer(cls, p: int, rank: int) -> "GroupExpression":
        return cls((Pruefer(p, rank),))

    @classmethod
    def unknown(cls, tag: str,
                layer_bounds: tuple[int, ...] | None) -> "GroupExpression":
        """Unknown p-torsion; zero when every layer bound is 0."""
        bounds = None if layer_bounds is None else tuple(layer_bounds)
        return cls((UnknownPTorsion(tag, bounds),))

    def __add__(self, other: "GroupExpression") -> "GroupExpression":
        return GroupExpression(self.summands + other.summands)

    def __rmul__(self, c: int) -> "GroupExpression":
        """c copies of a finitely generated group: each count times c,
        through its kind's `recount`, so no copy is written out."""
        if not isinstance(c, int):
            return NotImplemented
        return GroupExpression(tuple(
            _KINDS[type(s)].recount(s, c * getattr(s, _KINDS[type(s)].count))
            for s in _finitary(self)))

    def is_zero(self) -> bool:
        return not self.summands

    @property
    def free_rank(self) -> int:
        return sum(s.rank for s in self.summands if isinstance(s, FreeZ))

    def pruefer_rank(self, p: int) -> int:
        return sum(s.rank for s in self.summands
                   if isinstance(s, Pruefer) and s.p == p)

    def render(self) -> str:
        if not self.summands:
            return "0"
        return " (+) ".join([_KINDS[type(s)].text(s) for s in self.summands])

    def __str__(self) -> str:
        return self.render()


def _normalize(summands) -> tuple:
    """The canonical tuple of any iterable of summands: each summand in its
    kind's canonical form (zero counts dropped, negative ones refused; see
    `_Kind`), sorted by `_order_key`, equal keys added by `_plus`."""
    kept: list = []
    for s in summands:
        kind = _KINDS.get(type(s))
        if kind is None:
            raise TypeError(f"unknown summand kind: {s!r}")
        count = 1 if kind.count is None else getattr(s, kind.count)
        if count < 0:
            _refuse(s, "negative count")
        if count and (s := kind.canon(s)) is not None:
            kept.append(s)
    if len(kept) < 2:
        return tuple(kept)
    out: list = []
    for s in sorted(kept, key=_order_key):
        if out and _order_key(out[-1]) == _order_key(s):
            out[-1:] = _plus(out[-1], s)
        else:
            out.append(s)
    return tuple(out)


def _order_key(s) -> tuple:
    return _KINDS[type(s)].key(s)


def _plus(s, t) -> tuple:
    """Canonical summands of s + t for two summands with one order key."""
    kind = _KINDS[type(s)]
    if kind.count is None:   # unknown torsion: equal keys are equal summands, kept twice
        return (s, t)
    count = getattr(s, kind.count) + getattr(t, kind.count)
    return (kind.recount(s, count),) if count else ()


def _finitary(e: GroupExpression) -> tuple:
    """The summands of e, refused unless each is free or cyclic of
    prime-power order."""
    for s in e.summands:
        if type(s) not in (FreeZ, CyclicPrimePower):
            raise ValueError(f"summand {s!r} is not a finitely "
                             "generated abelian group")
    return e.summands


def hom_dual(a: GroupExpression) -> GroupExpression:
    """Hom(A, Z): kills torsion, keeps the free rank."""
    return GroupExpression(tuple(s for s in _finitary(a) if type(s) is FreeZ))


def ext_dual(a: GroupExpression) -> GroupExpression:
    """Ext^1(A, Z): the torsion subgroup of A."""
    return GroupExpression(tuple(s for s in _finitary(a)
                                 if type(s) is CyclicPrimePower))


def expr_evaluate(e: GroupExpression) -> GroupExpression:
    """Expand every KO/ko point summand through the KO point table.

    PAdic, Pruefer and unknown-torsion summands pass through unchanged;
    the result carries no point summands, so the map is idempotent, and
    an expression without point summands is returned as it is.
    """
    if not any(type(s) in (KOPoint, KoPoint) for s in e.summands):
        return e
    out: list = []
    for s in e.summands:
        if type(s) in (KOPoint, KoPoint):
            f, z = _KO_SHAPE[s.degree % 8]
            out.append(FreeZ(f * s.multiplicity))
            out.append(CyclicPrimePower(2, 1, z * s.multiplicity))
        else:
            out.append(s)
    return GroupExpression(tuple(out))


def fg_expression(free_rank: int = 0, p: int | None = None,
                  p_copies: int = 0) -> GroupExpression:
    """Shorthand for Z^a (+) (Z/p)^b expressions.

    The one unchecked construction: the tuple is built in canonical order
    without `_normalize` (whose primality test costs on a cold report), so
    p must be prime and neither count negative.
    """
    summands: list = []
    if free_rank:
        summands.append(FreeZ(free_rank))
    if p is not None and p_copies:
        summands.append(CyclicPrimePower(p, 1, p_copies))
    e = object.__new__(GroupExpression)
    object.__setattr__(e, "summands", tuple(summands))
    return e
