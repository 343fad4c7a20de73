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
from dataclasses import dataclass


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
    descending = [(p, sorted(exps, reverse=True)) for p, exps in powers.items()]
    depth = max((len(exps) for _p, exps in descending), default=0)
    chain = []
    for i in range(depth):
        f = 1
        for p, exps in descending:
            if i < len(exps):
                f *= p ** exps[i]
        chain.append(f)
    chain.reverse()
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

    def primary_decomposition(self) -> dict[int, tuple[int, ...]]:
        """{prime: ascending exponent tuple}; for display purposes."""
        powers: dict[int, list[int]] = {}
        for d in self.torsion:
            for p, e in factorint(d).items():
                powers.setdefault(p, []).append(e)
        return {p: tuple(sorted(v)) for p, v in sorted(powers.items())}

    def __str__(self) -> str:
        return self.to_expression().render()

    def to_expression(self) -> "GroupExpression":
        summands: list = []
        if self.free_rank:
            summands.append(FreeZ(self.free_rank))
        counts: dict[tuple[int, int], int] = {}
        for p, exps in self.primary_decomposition().items():
            for e in exps:
                counts[(p, e)] = counts.get((p, e), 0) + 1
        for (p, e), mult in counts.items():
            summands.append(CyclicPrimePower(p, e, mult))
        return GroupExpression(tuple(summands))


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
    """Normalized multiset of group summands."""

    summands: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "summands", _normalize(self.summands))

    @classmethod
    def zero(cls) -> "GroupExpression":
        return cls(())

    @classmethod
    def free(cls, rank: int) -> "GroupExpression":
        return cls((FreeZ(rank),))

    @classmethod
    def elementary(cls, p: int, copies: int) -> "GroupExpression":
        return cls((CyclicPrimePower(p, 1, copies),))

    def __add__(self, other: "GroupExpression") -> "GroupExpression":
        return GroupExpression(self.summands + other.summands)

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
    free = 0
    cyclic: dict[tuple[int, int], int] = {}
    padic: dict[int, int] = {}
    pruefer: dict[int, int] = {}
    ko: dict[int, int] = {}
    kolow: dict[int, int] = {}
    unknowns: list[UnknownPTorsion] = []
    for s in summands:
        if isinstance(s, FreeZ):
            free += s.rank
        elif isinstance(s, CyclicPrimePower):
            if s.multiplicity:
                cyclic[(s.p, s.exponent)] = cyclic.get((s.p, s.exponent), 0) + s.multiplicity
        elif isinstance(s, PAdic):
            if s.rank:
                padic[s.p] = padic.get(s.p, 0) + s.rank
        elif isinstance(s, Pruefer):
            if s.rank:
                pruefer[s.p] = pruefer.get(s.p, 0) + s.rank
        elif isinstance(s, KOPoint):
            if s.multiplicity:
                d = s.degree % 8
                ko[d] = ko.get(d, 0) + s.multiplicity
        elif isinstance(s, KoPoint):
            # connective: negative degrees vanish, no periodicity reduction
            if s.multiplicity and s.degree >= 0:
                kolow[s.degree] = kolow.get(s.degree, 0) + s.multiplicity
        elif isinstance(s, UnknownPTorsion):
            if s.layer_bounds is not None and all(b == 0 for b in s.layer_bounds):
                continue
            unknowns.append(UnknownPTorsion(s.tag,
                                            None if s.layer_bounds is None
                                            else tuple(s.layer_bounds)))
        else:
            raise TypeError(f"unknown summand kind: {s!r}")
    out: list = []
    if free:
        out.append(FreeZ(free))
    for (p, e) in sorted(cyclic):
        out.append(CyclicPrimePower(p, e, cyclic[(p, e)]))
    for p in sorted(padic):
        out.append(PAdic(p, padic[p]))
    for p in sorted(pruefer):
        out.append(Pruefer(p, pruefer[p]))
    for d in sorted(ko):
        out.append(KOPoint(d, ko[d]))
    for d in sorted(kolow):
        out.append(KoPoint(d, kolow[d]))
    out.extend(sorted(unknowns, key=lambda u: (u.tag, u.layer_bounds or ())))
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


def expr_evaluate(e: GroupExpression) -> GroupExpression:
    """Expand every KO/ko point summand through the point tables.

    PAdic, Pruefer and unknown-torsion summands pass through unchanged;
    the result carries no point summands, so the map is idempotent.
    """
    out: list = []
    for s in e.summands:
        if isinstance(s, (KOPoint, KoPoint)):
            g = ko_point_table(s.degree, connective=isinstance(s, KoPoint))
            mult = s.multiplicity
            if g.free_rank:
                out.append(FreeZ(g.free_rank * mult))
            for d in g.torsion:
                out.append(CyclicPrimePower(2, factorint(d)[2], mult))
        else:
            out.append(s)
    return GroupExpression(tuple(out))


def fg_expression(free_rank: int = 0, p: int | None = None,
                  p_copies: int = 0) -> GroupExpression:
    """Shorthand for Z^a (+) (Z/p)^b expressions."""
    summands: list = []
    if free_rank:
        summands.append(FreeZ(free_rank))
    if p is not None and p_copies:
        summands.append(CyclicPrimePower(p, 1, p_copies))
    return GroupExpression(tuple(summands))
