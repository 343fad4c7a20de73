"""Finitely generated abelian groups and symbolic group expressions.

FGAbelianGroup is the canonical value type for every exactly-computed
group: a free rank plus an ascending divisibility chain of invariant
factors.  Two values compare equal exactly when the groups are isomorphic.

GroupExpression is the output vocabulary for the theorem evaluators: a
normalized multiset of summands drawn from a fixed list of kinds, namely
free parts, cyclic prime-power parts, p-adic and Pruefer summands, copies
of (connective) real K-theory point groups, and bounded unknown torsion.
Everything renders through one text grammar:

    Z^a (+) (Z/q^e)^b (+) Zp^[p]^c (+) Pruefer[p]^d (+) KO[m](pt)^r
        (+) ko[m](pt)^r (+) T{tag; bounds=[...]}
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, replace


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


def _chain_from_prime_powers(powers: dict[int, list[int]]) -> tuple[int, ...]:
    """Invariant factors, ascending, of the sum of the cyclic groups Z/p^e
    for each prime p and each exponent e in powers[p].

    The i-th largest factor is the product over p of p to the i-th largest
    exponent, so it stays constant on runs where no prime's exponent
    changes; each run is emitted at once (exterior powers hand over
    thousands of copies of one Z/p).
    """
    # per prime: (e, copies) ascending in e, so the largest exponent is last
    stacks = [(p, sorted(Counter(exps).items()))
              for p, exps in powers.items() if exps]
    runs: list[tuple[int, int]] = []   # (factor, copies), factors descending
    while stacks:
        run = min(stack[-1][1] for _p, stack in stacks)
        f = 1
        for p, stack in stacks:
            e, copies = stack.pop()
            f *= p ** e
            if copies > run:
                stack.append((e, copies - run))
        runs.append((f, run))
        stacks = [(p, stack) for p, stack in stacks if stack]
    chain: list[int] = []
    for f, run in reversed(runs):
        chain.extend([f] * run)
    return tuple(chain)


@dataclass(frozen=True)
class FGAbelianGroup:
    """Z^free_rank plus cyclic factors in an ascending divisibility chain.

    >>> FGAbelianGroup(0, [2, 3]) == FGAbelianGroup(0, [6])
    True
    >>> str(FGAbelianGroup(1, [2, 6]))
    'Z (+) (Z/2)^2 (+) Z/3'
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        powers: dict[int, list[int]] = {}
        # each distinct order is factored once: wedge powers repeat (Z/p)
        # hundreds of times
        for d, copies in Counter(self.torsion).items():
            if d < 2:
                raise ValueError("torsion orders must be >= 2")
            for p, e in factorint(d).items():
                powers.setdefault(p, []).extend([e] * copies)
        object.__setattr__(self, "torsion", _chain_from_prime_powers(powers))

    @classmethod
    def trivial(cls) -> "FGAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FGAbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FGAbelianGroup":
        return cls(0, (n,)) if n != 1 else cls.trivial()

    @classmethod
    def elementary(cls, p: int, copies: int) -> "FGAbelianGroup":
        """(Z/p)^copies."""
        return cls(0, (p,) * copies)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def torsion_subgroup(self) -> "FGAbelianGroup":
        return FGAbelianGroup(0, self.torsion)

    def __str__(self) -> str:
        return self.to_expression().render()

    def to_expression(self) -> "GroupExpression":
        counts: dict[tuple[int, int], int] = {}
        # each distinct order is factored once
        for d, copies in Counter(self.torsion).items():
            for p, e in factorint(d).items():
                counts[(p, e)] = counts.get((p, e), 0) + copies
        summands: list = [FreeZ(self.free_rank)] if self.free_rank else []
        summands.extend(CyclicPrimePower(p, e, mult)
                        for (p, e), mult in sorted(counts.items()))
        return GroupExpression._canonical(tuple(summands))


def direct_sum(a: FGAbelianGroup, b: FGAbelianGroup) -> FGAbelianGroup:
    return FGAbelianGroup(a.free_rank + b.free_rank, a.torsion + b.torsion)


def direct_sum_all(groups) -> FGAbelianGroup:
    """Direct sum of any number of groups, normalized once."""
    free = 0
    torsion: list[int] = []
    for g in groups:
        free += g.free_rank
        torsion.extend(g.torsion)
    return FGAbelianGroup(free, tuple(torsion))


def hom_dual(a: FGAbelianGroup) -> FGAbelianGroup:
    """Hom(A, Z): kills torsion, keeps the free rank."""
    return FGAbelianGroup.free(a.free_rank)


def ext_dual(a: FGAbelianGroup) -> FGAbelianGroup:
    """Ext^1(A, Z): the torsion subgroup of A."""
    return a.torsion_subgroup()


# 8-periodic point groups of real K-theory, degrees 0..7.
_KO_TABLE: tuple[FGAbelianGroup, ...] = (
    FGAbelianGroup.free(1),
    FGAbelianGroup.cyclic(2),
    FGAbelianGroup.cyclic(2),
    FGAbelianGroup.trivial(),
    FGAbelianGroup.free(1),
    FGAbelianGroup.trivial(),
    FGAbelianGroup.trivial(),
    FGAbelianGroup.trivial(),
)


def ko_point_table(m: int, connective: bool = False) -> FGAbelianGroup:
    """KO_m(pt) by 8-periodic lookup; the connective variant is 0 for m < 0."""
    if connective and m < 0:
        return FGAbelianGroup.trivial()
    return _KO_TABLE[m % 8]


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


@dataclass(frozen=True)
class GroupExpression:
    """Normalized multiset of group summands.

    The canonical summand tuple holds at most one summand per kind and key,
    none with a zero count, in the order of `_order_key`: free part, cyclic
    parts by (p, e), p-adic and Pruefer parts by p, KO points by degree in
    [0, 8), ko points by degree >= 0, then the unknowns by (tag, bounds).
    The constructor brings any tuple into that form through `_normalize`;
    the named constructors, `+` and `expr_evaluate` build it directly.
    """

    summands: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "summands", _normalize(self.summands))

    @classmethod
    def _canonical(cls, summands: tuple) -> "GroupExpression":
        """An expression on a tuple already in canonical form (unchecked)."""
        e = object.__new__(cls)
        object.__setattr__(e, "summands", summands)
        return e

    @classmethod
    def zero(cls) -> "GroupExpression":
        return cls._canonical(())

    @classmethod
    def free(cls, rank: int) -> "GroupExpression":
        return cls._canonical((FreeZ(rank),) if rank else ())

    @classmethod
    def elementary(cls, p: int, copies: int) -> "GroupExpression":
        return cls._canonical((CyclicPrimePower(p, 1, copies),) if copies else ())

    @classmethod
    def padic(cls, p: int, rank: int) -> "GroupExpression":
        return cls._canonical((PAdic(p, rank),) if rank else ())

    @classmethod
    def pruefer(cls, p: int, rank: int) -> "GroupExpression":
        return cls._canonical((Pruefer(p, rank),) if rank else ())

    @classmethod
    def unknown(cls, tag: str,
                layer_bounds: tuple[int, ...] | None) -> "GroupExpression":
        """Unknown p-torsion; zero when every layer bound is 0."""
        if layer_bounds is None:
            return cls._canonical((UnknownPTorsion(tag, None),))
        bounds = tuple(layer_bounds)
        return cls._canonical((UnknownPTorsion(tag, bounds),) if any(bounds) else ())

    def __add__(self, other: "GroupExpression") -> "GroupExpression":
        if not other.summands:
            return self
        if not self.summands:
            return other
        return GroupExpression._canonical(_merge(self.summands, other.summands))

    def is_zero(self) -> bool:
        return not self.summands

    @property
    def free_rank(self) -> int:
        return sum(s.rank for s in self.summands if isinstance(s, FreeZ))

    def pruefer_rank(self, p: int) -> int:
        return sum(s.rank for s in self.summands
                   if isinstance(s, Pruefer) and s.p == p)

    def to_fg(self) -> FGAbelianGroup:
        """Convert to FGAbelianGroup; defined only for finitary summands."""
        free = 0
        torsion: list[int] = []
        for s in self.summands:
            if isinstance(s, FreeZ):
                free += s.rank
            elif isinstance(s, CyclicPrimePower):
                torsion.extend([s.p ** s.exponent] * s.multiplicity)
            else:
                raise ValueError(f"summand {s!r} is not a finitely "
                                 "generated abelian group")
        return FGAbelianGroup(free, tuple(torsion))

    def render(self) -> str:
        if not self.summands:
            return "0"
        return " (+) ".join(_render_summand(s) for s in self.summands)

    def __str__(self) -> str:
        return self.render()


def _normalize(summands) -> tuple:
    """The canonical tuple of any iterable of summands: counts of one kind
    and key are added, zero counts, negative ko degrees and all-zero
    unknown bounds dropped, KO degrees reduced mod 8."""
    free = 0
    cyclic: dict[tuple[int, int], int] = {}
    padic: dict[int, int] = {}
    pruefer: dict[int, int] = {}
    ko: dict[int, int] = {}
    kolow: dict[int, int] = {}
    unknowns: list[UnknownPTorsion] = []
    for s in summands:
        t = type(s)
        if t is FreeZ:
            free += s.rank
        elif t is CyclicPrimePower:
            key = (s.p, s.exponent)
            cyclic[key] = cyclic.get(key, 0) + s.multiplicity
        elif t is PAdic:
            padic[s.p] = padic.get(s.p, 0) + s.rank
        elif t is Pruefer:
            pruefer[s.p] = pruefer.get(s.p, 0) + s.rank
        elif t is KOPoint:
            d = s.degree % 8
            ko[d] = ko.get(d, 0) + s.multiplicity
        elif t is KoPoint:
            # connective: negative degrees vanish, no periodicity reduction
            if s.degree >= 0:
                kolow[s.degree] = kolow.get(s.degree, 0) + s.multiplicity
        elif t is UnknownPTorsion:
            if s.layer_bounds is None:
                unknowns.append(s)
            elif any(s.layer_bounds):
                unknowns.append(UnknownPTorsion(s.tag, tuple(s.layer_bounds)))
        else:
            raise TypeError(f"unknown summand kind: {s!r}")
    out: list = [FreeZ(free)] if free else []
    out.extend(CyclicPrimePower(p, e, c) for (p, e), c in sorted(cyclic.items()) if c)
    out.extend(PAdic(p, c) for p, c in sorted(padic.items()) if c)
    out.extend(Pruefer(p, c) for p, c in sorted(pruefer.items()) if c)
    out.extend(KOPoint(d, c) for d, c in sorted(ko.items()) if c)
    out.extend(KoPoint(d, c) for d, c in sorted(kolow.items()) if c)
    out.extend(sorted(unknowns, key=_order_key))
    return tuple(out)


# Canonical position of a summand; equal keys of a counted kind add up.
_ORDER_KEYS = {
    FreeZ: lambda s: (0,),
    CyclicPrimePower: lambda s: (1, s.p, s.exponent),
    PAdic: lambda s: (2, s.p),
    Pruefer: lambda s: (3, s.p),
    KOPoint: lambda s: (4, s.degree),
    KoPoint: lambda s: (5, s.degree),
    UnknownPTorsion: lambda s: (6, s.tag, s.layer_bounds or ()),
}


def _order_key(s) -> tuple:
    return _ORDER_KEYS[type(s)](s)


# the field that counts copies, per counted summand kind
_COUNT_FIELDS = {FreeZ: "rank", CyclicPrimePower: "multiplicity", PAdic: "rank",
                 Pruefer: "rank", KOPoint: "multiplicity", KoPoint: "multiplicity"}


def _plus(s, t) -> tuple:
    """Canonical summands of s + t for two summands with one order key."""
    name = _COUNT_FIELDS.get(type(s))
    if name is None:   # unknown torsion: equal keys are equal summands, kept twice
        return (s, t)
    count = getattr(s, name) + getattr(t, name)
    return (replace(s, **{name: count}),) if count else ()


def _merge(a: tuple, b: tuple) -> tuple:
    """The canonical tuple of a + b for canonical nonempty a and b, in one
    merge pass."""
    out: list = []
    i = j = 0
    ka, kb = _order_key(a[0]), _order_key(b[0])
    while True:
        if ka < kb:
            out.append(a[i])
            i += 1
        elif kb < ka:
            out.append(b[j])
            j += 1
        else:
            out.extend(_plus(a[i], b[j]))
            i += 1
            j += 1
        if i == len(a) or j == len(b):
            break
        ka, kb = _order_key(a[i]), _order_key(b[j])
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _pow_suffix(n: int) -> str:
    return "" if n == 1 else f"^{n}"


def _render_summand(s) -> str:
    if isinstance(s, FreeZ):
        return "Z" + _pow_suffix(s.rank)
    if isinstance(s, CyclicPrimePower):
        q = s.p ** s.exponent
        return f"Z/{q}" if s.multiplicity == 1 else f"(Z/{q})^{s.multiplicity}"
    if isinstance(s, PAdic):
        return f"Zp^[{s.p}]" + _pow_suffix(s.rank)
    if isinstance(s, Pruefer):
        return f"Pruefer[{s.p}]" + _pow_suffix(s.rank)
    if isinstance(s, KOPoint):
        return f"KO[{s.degree}](pt)" + _pow_suffix(s.multiplicity)
    if isinstance(s, KoPoint):
        return f"ko[{s.degree}](pt)" + _pow_suffix(s.multiplicity)
    if isinstance(s, UnknownPTorsion):
        if s.layer_bounds is None:
            return f"T{{{s.tag}; finite}}"
        inner = ", ".join(str(b) for b in s.layer_bounds)
        return f"T{{{s.tag}; bounds=[{inner}]}}"
    raise TypeError(f"unknown summand kind: {s!r}")


_TOKEN_RES: list[tuple[re.Pattern, object]] = [
    (re.compile(r"^Z(?:\^(\d+))?$"), "free"),
    (re.compile(r"^Z/(\d+)$"), "cyc1"),
    (re.compile(r"^\(Z/(\d+)\)\^(\d+)$"), "cyc"),
    (re.compile(r"^Zp\^\[(\d+)\](?:\^(\d+))?$"), "padic"),
    (re.compile(r"^Pruefer\[(\d+)\](?:\^(\d+))?$"), "pruefer"),
    (re.compile(r"^KO\[(-?\d+)\]\(pt\)(?:\^(\d+))?$"), "ko"),
    (re.compile(r"^ko\[(-?\d+)\]\(pt\)(?:\^(\d+))?$"), "kolow"),
    (re.compile(r"^T\{([^;]+); finite\}$"), "unk_fin"),
    (re.compile(r"^T\{([^;]+); bounds=\[([0-9, ]*)\]\}$"), "unk"),
]


def parse_expression(text: str) -> GroupExpression:
    """Inverse of GroupExpression.render for the canonical grammar."""
    text = text.strip()
    if text == "0":
        return GroupExpression.zero()
    summands: list = []
    for tok in text.split(" (+) "):
        for rx, kind in _TOKEN_RES:
            m = rx.match(tok)
            if not m:
                continue
            if kind == "free":
                summands.append(FreeZ(int(m.group(1) or 1)))
            elif kind in ("cyc1", "cyc"):
                q = int(m.group(1))
                mult = int(m.group(2)) if kind == "cyc" else 1
                fac = factorint(q)
                if len(fac) != 1:
                    raise ValueError(f"cyclic order {q} is not a prime power")
                ((p, e),) = fac.items()
                summands.append(CyclicPrimePower(p, e, mult))
            elif kind == "padic":
                summands.append(PAdic(int(m.group(1)), int(m.group(2) or 1)))
            elif kind == "pruefer":
                summands.append(Pruefer(int(m.group(1)), int(m.group(2) or 1)))
            elif kind == "ko":
                summands.append(KOPoint(int(m.group(1)), int(m.group(2) or 1)))
            elif kind == "kolow":
                summands.append(KoPoint(int(m.group(1)), int(m.group(2) or 1)))
            elif kind == "unk_fin":
                summands.append(UnknownPTorsion(m.group(1), None))
            elif kind == "unk":
                bounds = tuple(int(x) for x in m.group(2).split(",") if x.strip())
                summands.append(UnknownPTorsion(m.group(1), bounds))
            break
        else:
            raise ValueError(f"cannot parse summand {tok!r}")
    return GroupExpression(tuple(summands))


# per degree mod 8: the KO point group as (free rank, copies of Z/2); every
# point group is Z, Z/2 or 0
_KO_SHAPE = tuple((g.free_rank, len(g.torsion)) for g in _KO_TABLE)


def expr_evaluate(e: GroupExpression) -> GroupExpression:
    """Expand every KO/ko point summand through the point tables.

    PAdic, Pruefer and unknown-torsion summands pass through unchanged;
    the result carries no point summands, so the map is idempotent.  The
    expansion only adds to the free rank and to the count of Z/2.
    """
    free = twos = 0
    rest: list = []
    for s in e.summands:
        t = type(s)
        if t is KOPoint or t is KoPoint:
            # canonical: KO degrees lie in [0, 8), ko degrees are >= 0
            f, z = _KO_SHAPE[s.degree % 8]
            free += f * s.multiplicity
            twos += z * s.multiplicity
        else:
            rest.append(s)
    if len(rest) == len(e.summands):
        return e
    if rest and type(rest[0]) is FreeZ:
        free += rest.pop(0).rank
    # (2, 1) is the least key of a cyclic part, so Z/2 comes first
    first = rest[0] if rest else None
    if type(first) is CyclicPrimePower and (first.p, first.exponent) == (2, 1):
        twos += rest.pop(0).multiplicity
    if twos:
        rest.insert(0, CyclicPrimePower(2, 1, twos))
    if free:
        rest.insert(0, FreeZ(free))
    return GroupExpression._canonical(tuple(rest))


def fg_expression(free_rank: int = 0, p: int | None = None,
                  p_copies: int = 0) -> GroupExpression:
    """Shorthand for Z^a (+) (Z/p)^b expressions."""
    summands: list = []
    if free_rank:
        summands.append(FreeZ(free_rank))
    if p is not None and p_copies:
        summands.append(CyclicPrimePower(p, 1, p_copies))
    return GroupExpression._canonical(tuple(summands))
