"""Crystallographic groups Z^n x| Z/p with fixed-point-free twist.

Validates the defining data (prime order, order-p integral action with no
nonzero fixed vector), derives the structural constants (k, the count of
conjugacy classes of finite subgroups, torus fixed points, Euler
characteristic of the orbit space), and evaluates every closed-form
invariant: integral (co)homology, complex K-theory, real KO-theory and
connective ko-theory of the classifying space and of the orbit space, the
K-theory of the reduced group C*-algebras, and the equivariant groups of
the proper classifying space.  A spectral assembly from the module layer
gives an independent derivation of the cohomology, which the verify grid
compares with the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exact_linalg as la
from . import repring, zpmod
from .abelian import (FGAbelianGroup, GroupExpression, KOPoint, KoPoint,
                      direct_sum, direct_sum_all, expr_evaluate, fg_expression)


class GammaError(ValueError):
    """Validation failure; `code` names the violated invariant."""

    code = "Invalid"

    def __str__(self):
        return f"{self.code}: {super().__str__()}"


class NotPrimeError(GammaError):
    code = "NotPrime"


class WrongOrderError(GammaError):
    code = "WrongOrder"


class NotFreeError(GammaError):
    code = "NotFree"


class BadRankError(GammaError):
    code = "BadRank"


class CokernelMismatchError(GammaError):
    code = "CokernelMismatch"


class OddPrimeRequiredError(GammaError):
    code = "POdd"


@dataclass(frozen=True, eq=False)
class GammaDescriptor(zpmod.Memoized):
    p: int
    n: int
    k: int
    rho: np.ndarray
    canonical: bool
    _cache: dict = field(default_factory=dict, repr=False)

    def module(self) -> zpmod.ZpModule:
        """The lattice with its twist action as a module object."""
        return self._memo("module", lambda: zpmod.ZpModule(
            self.p, self.rho, check=False))

    def exterior(self, j: int) -> zpmod.ZpModule:
        """j-th exterior power of the lattice module, kept per degree."""
        return self._memo(("ext", j), lambda: zpmod.exterior_power(
            self.module(), j))

    def r(self) -> tuple[int, ...]:
        return self._memo("r", lambda: repring.r_vector(self.p, self.k))

    def s(self, m: int) -> int:
        sv = self._memo("s", lambda: repring.s_vector(self.p, self.k))
        return repring.s_at(sv, m)

    def r_sums(self) -> dict[str, int]:
        """The closed-form r-sums, each checked against summing `r()`."""
        return self._memo("r_sums", lambda: repring.r_sum_identities(
            self.p, self.k, self.r()))

    def r_even_sum(self) -> int:
        return self.r_sums()["sum_even"]

    def r_odd_sum(self) -> int:
        return self.r_sums()["sum_odd"]

    def rho_rows(self) -> list[list[int]]:
        # rho comes from intmat or the canonical builder: Python ints only
        return self.rho.tolist()


def validate_gamma(p: int, rho) -> GammaDescriptor:
    """Check the defining data and derive k; raises GammaError subclasses."""
    if not repring.is_prime(p):
        raise NotPrimeError(f"p = {p} must be prime")
    rho = la.intmat(rho)
    if rho.shape[0] != rho.shape[1] or rho.shape[0] == 0:
        raise BadRankError("action matrix must be square and nonempty")
    n = rho.shape[0]
    ident = la.eye(n)
    # repeated squaring: O(log p) exact products on the object array
    if np.any(np.linalg.matrix_power(rho, p) != ident):
        raise WrongOrderError(f"matrix does not have order {p}: rho^{p} != id")
    if not np.any(rho != ident):
        raise WrongOrderError("matrix is the identity, order 1")
    kern = la.kernel_basis(rho - ident)
    if kern.shape[1]:
        vec = tuple(int(x) for x in kern[:, 0])
        raise NotFreeError(f"fixed vector {vec}")
    if n % (p - 1):
        raise BadRankError(f"rank {n} is not divisible by p - 1 = {p - 1}")
    k = n // (p - 1)
    canonical = not np.any(rho != _canonical_action(p, k))
    return GammaDescriptor(p, n, k, rho, canonical)


def _canonical_action(p: int, k: int) -> np.ndarray:
    """The k-fold sum of the cyclotomic twist."""
    return zpmod.direct_sum_modules([zpmod.make_cyclotomic(p)] * k).action


def canonical_gamma(p: int, k: int) -> GammaDescriptor:
    """Descriptor for the k-fold sum of the cyclotomic twist.

    The action is valid by construction (order p, free away from the
    origin), so it skips `validate_gamma`.
    """
    if k < 1:
        raise BadRankError(f"k = {k} must be >= 1")
    if not repring.is_prime(p):
        raise NotPrimeError(f"p = {p} must be prime")
    return GammaDescriptor(p, k * (p - 1), k, _canonical_action(p, k), True)


@dataclass(frozen=True)
class FiniteSubgroupData:
    cokernel: FGAbelianGroup
    class_count: int
    fixed_point_count: int


def finite_subgroup_data(G: GammaDescriptor) -> FiniteSubgroupData:
    """Cokernel of (rho - id) and the finite-subgroup / fixed-point counts.

    The cokernel is the lattice module's coinvariants, kept in its memo.
    """
    cok = zpmod.coinvariants(G.module())
    expected = FGAbelianGroup.elementary(G.p, G.k)
    if cok != expected:
        raise CokernelMismatchError(
            f"coker(rho - id) = {cok}, expected {expected}")
    count = G.p ** G.k
    return FiniteSubgroupData(cok, count, count)


def abelianization(G: GammaDescriptor) -> FGAbelianGroup:
    """Largest abelian quotient; always elementary of rank k + 1."""
    ab = direct_sum(finite_subgroup_data(G).cokernel, FGAbelianGroup.cyclic(G.p))
    expected = FGAbelianGroup.elementary(G.p, G.k + 1)
    if ab != expected:
        raise CokernelMismatchError(f"abelianization {ab} != {expected}")
    return ab


def euler_characteristic_quotient(G: GammaDescriptor) -> int:
    """Euler characteristic (p - 1)p^(k-1) of the orbit space of the torus
    action: the alternating sum of the r_m."""
    return G.r_sums()["alternating"]


# --------------------------------------------------------------------------
# (co)homology of the classifying space and the orbit space


def _r_at(G: GammaDescriptor, m: int) -> int:
    rv = G.r()
    return rv[m] if 0 <= m <= G.n else 0


def cohomology_bgamma(G: GammaDescriptor, m: int) -> GroupExpression:
    if m < 0:
        raise ValueError("negative degree")
    if m % 2 == 0:
        return fg_expression(_r_at(G, m), G.p, G.s(m))
    return fg_expression(_r_at(G, m))


def homology_bgamma(G: GammaDescriptor, m: int) -> GroupExpression:
    if m < 0:
        raise ValueError("negative degree")
    if m % 2 == 0:
        return fg_expression(_r_at(G, m))
    return fg_expression(_r_at(G, m), G.p, G.s(m + 1))


def cohomology_quotient(G: GammaDescriptor, m: int) -> GroupExpression:
    if m < 0:
        raise ValueError("negative degree")
    if m == 1:
        return GroupExpression.zero()
    if m % 2 == 0:
        return fg_expression(_r_at(G, m))
    return fg_expression(_r_at(G, m), G.p, G.p ** G.k - G.s(m))


def homology_quotient(G: GammaDescriptor, m: int) -> GroupExpression:
    if m < 0:
        raise ValueError("negative degree")
    if m == 0:
        return GroupExpression.free(1)
    if m % 2 == 1:
        return fg_expression(_r_at(G, m))
    return fg_expression(_r_at(G, m), G.p, G.p ** G.k - G.s(m + 1))


# --------------------------------------------------------------------------
# complex K-theory


def _t1_unknown(G: GammaDescriptor) -> GroupExpression:
    bounds = tuple(G.p ** G.k - G.s(2 * i + 1) for i in range(1, G.n // 2 + 1))
    return GroupExpression.unknown("T1", bounds)


def k_theory_bgamma(G: GammaDescriptor, m: int,
                    variant: str = "cohomology") -> GroupExpression:
    _check_variant(variant)
    even = m % 2 == 0
    if variant == "cohomology":
        if even:
            return (GroupExpression.free(G.r_even_sum())
                    + GroupExpression.padic(G.p, (G.p - 1) * G.p ** G.k))
        return GroupExpression.free(G.r_odd_sum())
    if even:
        return GroupExpression.free(G.r_even_sum())
    return (GroupExpression.free(G.r_odd_sum())
            + GroupExpression.pruefer(G.p, (G.p - 1) * G.p ** G.k))


def k_theory_quotient(G: GammaDescriptor, m: int,
                      variant: str = "cohomology") -> GroupExpression:
    _check_variant(variant)
    even = m % 2 == 0
    if variant == "cohomology":
        if even:
            return GroupExpression.free(G.r_even_sum())
        return GroupExpression.free(G.r_odd_sum()) + _t1_unknown(G)
    if even:
        return GroupExpression.free(G.r_even_sum()) + _t1_unknown(G)
    return GroupExpression.free(G.r_odd_sum())


def _check_variant(variant: str) -> None:
    if variant not in ("cohomology", "homology"):
        raise ValueError(f"variant must be cohomology|homology, got {variant!r}")


def _check_space(space: str) -> None:
    if space not in ("bgamma", "quotient"):
        raise ValueError(f"space must be bgamma|quotient, got {space!r}")


def _require_odd(G: GammaDescriptor) -> None:
    if G.p == 2:
        raise OddPrimeRequiredError("p odd required for KO/ko computations")


# --------------------------------------------------------------------------
# real K-theory
#
# Point groups are tabulated homologically; the cohomological point group
# in degree j is the homological one in degree -j.


def _point_sum(G: GammaDescriptor, point, m: int,
               sign: int = 1) -> GroupExpression:
    """Sum over l of r_l copies of the point group `point` (KOPoint or
    KoPoint) in degree sign * (m - l); cohomology takes sign = -1.  Kept in
    the descriptor's memo: every KO/ko family of a report reads the same
    few sums."""
    def compute():
        rv = G.r()
        if point is KOPoint:
            # one summand per degree class mod 8
            counts = [0] * 8
            for l, r in enumerate(rv):
                counts[sign * (m - l) % 8] += r
            summands = [KOPoint(d, c) for d, c in enumerate(counts) if c]
        else:
            # connective: negative degrees vanish, the others are distinct
            summands = sorted(KoPoint(sign * (m - l), r) for l, r in enumerate(rv)
                              if r and sign * (m - l) >= 0)
        return GroupExpression._canonical(tuple(summands))
    return G._memo(("point_sum", point, m, sign), compute)


def _to_unknown(G: GammaDescriptor, degree: int) -> GroupExpression:
    """Unknown torsion attached in odd cohomological degree `degree`."""
    d = degree % 8
    eps = 1 if d % 4 == 1 else -1
    layers = (G.n + 4 - eps) // 4
    bounds = tuple(G.p ** G.k - G.s(4 * i + eps) for i in range(1, layers))
    return GroupExpression.unknown(f"TO^{d}", bounds)


def ko_theory(G: GammaDescriptor, m: int, space: str = "bgamma",
              variant: str = "cohomology") -> GroupExpression:
    """Periodic real K-theory of the classifying or orbit space."""
    _require_odd(G)
    _check_space(space)
    _check_variant(variant)
    even = m % 2 == 0
    cohomology = variant == "cohomology"
    half = G.p ** G.k * (G.p - 1) // 2
    out = _point_sum(G, KOPoint, m, -1 if cohomology else 1)
    if space == "bgamma":
        if cohomology and even:
            out = out + GroupExpression.padic(G.p, half)
        elif not cohomology and not even:
            out = out + GroupExpression.pruefer(G.p, half)
    elif even != cohomology:
        # odd cohomological / even homological degree
        out = out + _to_unknown(G, m if cohomology else m + 5)
    return out


# --------------------------------------------------------------------------
# group C*-algebra K-theory and equivariant groups


def d_even(G: GammaDescriptor) -> int:
    """Rank of K_0 of the reduced group C*-algebra: (p-1)p^k + sum of r_2i."""
    return (G.p - 1) * G.p ** G.k + G.r_even_sum()


def d_odd(G: GammaDescriptor) -> int:
    """Rank of K_1 of the reduced group C*-algebra: sum of r_(2i+1)."""
    return G.r_odd_sum()


def cstar_k_theory(G: GammaDescriptor, m: int,
                   field_kind: str = "complex") -> GroupExpression:
    """K-theory of the reduced group C*-algebra (complex or real scalars)."""
    if field_kind == "complex":
        return GroupExpression.free(d_even(G) if m % 2 == 0 else d_odd(G))
    if field_kind != "real":
        raise ValueError(f"field must be complex|real, got {field_kind!r}")
    _require_odd(G)
    half = G.p ** G.k * (G.p - 1) // 2
    out = _point_sum(G, KOPoint, m)
    if m % 2 == 0:
        out = GroupExpression.free(half) + out
    return out


def equivariant_k(G: GammaDescriptor, m: int) -> GroupExpression:
    """Equivariant complex K of the proper classifying space (either variant)."""
    return GroupExpression.free(d_even(G) if m % 2 == 0 else d_odd(G))


def equivariant_ko(G: GammaDescriptor, m: int) -> GroupExpression:
    """Equivariant KO-cohomology of the proper classifying space."""
    _require_odd(G)
    out = _point_sum(G, KOPoint, m, -1)
    if m % 2 == 0:
        out = GroupExpression.free(G.p ** G.k * (G.p - 1) // 2) + out
    return out


@dataclass(frozen=True)
class ExactSequence:
    left: GroupExpression
    middle: GroupExpression
    right: GroupExpression


@dataclass(frozen=True)
class EquivariantSequences:
    complex_seq: ExactSequence
    real_seq: ExactSequence | None


def equivariant_exact_sequences(G: GammaDescriptor,
                                m: int = 0) -> EquivariantSequences:
    """The even-degree restriction sequences onto the orbit space.

    Both sequences have free left-hand terms, so free ranks must be
    additive; that is asserted here.
    """
    if m % 2:
        raise ValueError("the sequences live in even degrees")
    cplx = ExactSequence(
        GroupExpression.free((G.p - 1) * G.p ** G.k),
        cstar_k_theory(G, m, "complex"),
        k_theory_quotient(G, m, "homology"))
    _assert_rank_additivity(cplx)
    real = None
    if G.p != 2:
        real = ExactSequence(
            GroupExpression.free(G.p ** G.k * (G.p - 1) // 2),
            cstar_k_theory(G, m, "real"),
            ko_theory(G, m, "quotient", "homology"))
        _assert_rank_additivity(real)
    return EquivariantSequences(cplx, real)


def _assert_rank_additivity(seq: ExactSequence) -> None:
    def rank(e: GroupExpression) -> int:
        return expr_evaluate(e).free_rank
    if rank(seq.middle) != rank(seq.left) + rank(seq.right):
        raise ArithmeticError(
            f"free ranks not additive: {seq.middle} vs "
            f"{seq.left} and {seq.right}")


# --------------------------------------------------------------------------
# connective real K-homology


def connective_ko(G: GammaDescriptor, m: int,
                  space: str = "bgamma") -> GroupExpression:
    """Connective ko-homology; undetermined torsion is tagged symbolically."""
    _require_odd(G)
    _check_space(space)
    if m < 0:
        raise ValueError("connective theories vanish in negative degrees")
    out = _point_sum(G, KoPoint, m)
    odd = m % 2 == 1
    if space == "bgamma" and odd:
        out = out + GroupExpression.unknown(f"to_{m}", None)
    if space == "quotient" and not odd and m >= 2:
        # in degree 0 the boundary lands in negative connective degrees
        out = out + GroupExpression.unknown(f"to_{m}", None)
    return out


# --------------------------------------------------------------------------
# independent spectral assembly of the cohomology


def brute_force_cohomology_bgamma(G: GammaDescriptor, m: int) -> GroupExpression:
    """Assemble degree m from invariants and Tate groups of wedge powers.

    Independent of the closed forms: E2^{i,j} = H^i(Z/p; Lambda^j M*), M*
    the dual lattice.  For a cyclic group Tate duality and 2-periodicity
    give Tate^i(M*) = Tate^-i(M) = Tate^i(M), and M* and M have the same
    fixed rank (Brown, Cohomology of Groups, VI 7); `zpmod.fixed_rank`
    and `zpmod.tate` read only prime-field ranks of T = A - I, which
    transposing keeps.  So this reads `G.exterior(j)`, Lambda^j of the
    action as given, the same modules as the verify r-oracle and
    checkerboard cells; the cell "tate: duality against the transposed
    module (random)" checks the duality against `tate_reference`.
    """
    if m < 0:
        raise ValueError("negative degree")
    free = 0
    torsion = []
    for j in range(0, min(m, G.n) + 1):
        i = m - j
        mod = G.exterior(j)
        if i == 0:
            free += zpmod.fixed_rank(mod)
        else:
            torsion.append(zpmod.tate(mod, i))
    return GroupExpression.free(free) + direct_sum_all(torsion).to_expression()


# --------------------------------------------------------------------------
# report assembly


@dataclass
class TheoremReport:
    descriptor: GammaDescriptor
    scalars: dict
    groups: dict
    warnings: list

    def to_json_dict(self) -> dict:
        return {
            "descriptor": {
                "p": self.descriptor.p,
                "n": self.descriptor.n,
                "k": self.descriptor.k,
                "canonical": self.descriptor.canonical,
                "rho": self.descriptor.rho_rows(),
            },
            "scalars": dict(self.scalars),
            "groups": {name: {str(m): expr.render()
                              for m, expr in sorted(degrees.items())}
                       for name, degrees in self.groups.items()},
            "warnings": list(self.warnings),
        }


# The report families in report order: (name, evaluator, window kind,
# odd p only).  Evaluators look the module functions up when called, so a
# rebinding of those names (as perfbench/tracer.py does) is seen.
REPORT_FAMILIES = (
    ("H^*(BGamma)", lambda G, m: cohomology_bgamma(G, m), "H", False),
    ("H_*(BGamma)", lambda G, m: homology_bgamma(G, m), "H", False),
    ("H^*(quotient)", lambda G, m: cohomology_quotient(G, m), "H", False),
    ("H_*(quotient)", lambda G, m: homology_quotient(G, m), "H", False),
    ("K^*(BGamma)", lambda G, m: k_theory_bgamma(G, m, "cohomology"), "K", False),
    ("K_*(BGamma)", lambda G, m: k_theory_bgamma(G, m, "homology"), "K", False),
    ("K^*(quotient)", lambda G, m: k_theory_quotient(G, m, "cohomology"), "K", False),
    ("K_*(quotient)", lambda G, m: k_theory_quotient(G, m, "homology"), "K", False),
    ("KO^*(BGamma)", lambda G, m: ko_theory(G, m, "bgamma", "cohomology"), "KO", True),
    ("KO_*(BGamma)", lambda G, m: ko_theory(G, m, "bgamma", "homology"), "KO", True),
    ("KO^*(quotient)", lambda G, m: ko_theory(G, m, "quotient", "cohomology"), "KO", True),
    ("KO_*(quotient)", lambda G, m: ko_theory(G, m, "quotient", "homology"), "KO", True),
    ("K_*(Cstar)", lambda G, m: cstar_k_theory(G, m, "complex"), "K", False),
    ("KO_*(CstarR)", lambda G, m: cstar_k_theory(G, m, "real"), "KO", True),
    ("K^*(equivariant)", lambda G, m: equivariant_k(G, m), "K", False),
    ("KO^*(equivariant)", lambda G, m: equivariant_ko(G, m), "KO", True),
    ("ko_*(BGamma)", lambda G, m: connective_ko(G, m, "bgamma"), "ko", True),
    ("ko_*(quotient)", lambda G, m: connective_ko(G, m, "quotient"), "ko", True),
)


def build_report(G: GammaDescriptor,
                 window: tuple[int, int] | None = None) -> TheoremReport:
    """Evaluate every theorem family over its degree window.

    The action is checked through the one Smith form of rho - id
    (`finite_subgroup_data`); every family is a closed form in (p, k), so
    a supplied action builds no exterior power.  `verify` compares the
    closed forms with the spectral assembly.
    """
    fsd = finite_subgroup_data(G)
    abelianization(G)
    scalars = {
        "d_ev": d_even(G),
        "d_odd": d_odd(G),
        "class_count": fsd.class_count,
        "euler": euler_characteristic_quotient(G),
        "fixed_points": fsd.fixed_point_count,
    }
    if window is not None and window[0] > window[1]:
        raise ValueError(f"empty degree window {window}")
    # window kind -> (degree window, whether degrees start at 0)
    windows = {"H": (window or (0, G.n), True), "K": (window or (0, 1), False),
               "KO": (window or (0, 7), False), "ko": (window or (0, 7), True)}
    groups: dict[str, dict[int, GroupExpression]] = {}
    for name, evaluate, kind, odd_only in REPORT_FAMILIES:
        if odd_only and G.p == 2:
            continue
        (lo, hi), from_zero = windows[kind]
        groups[name] = {m: expr_evaluate(evaluate(G, m))
                        for m in range(max(lo, 0) if from_zero else lo, hi + 1)}
    warnings: list[str] = []
    if G.p == 2:
        warnings.append("KO/ko sections omitted: p odd required")
    return TheoremReport(G, scalars, groups, warnings)
