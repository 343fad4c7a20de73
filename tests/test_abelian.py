import re
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from crystalk import exact_linalg as la
from crystalk.abelian import (CyclicPrimePower, FreeZ,
                              GroupExpression, KOPoint, KoPoint, PAdic,
                              Pruefer, UnknownPTorsion, _KINDS, _order_key,
                              ext_dual, expr_evaluate, factorint,
                              fg_expression, hom_dual, is_prime)


def _cyclic(p, e=1, copies=1):
    return GroupExpression((CyclicPrimePower(p, e, copies),))


# -- canonical form ----------------------------------------------------------

def test_crt_refactoring():
    assert la.cokernel_structure([[2, 0], [0, 3]]) == la.cokernel_structure([[6]])


def test_chain_kept():
    assert la.cokernel_structure([[2, 0], [0, 4]]).summands \
        == (CyclicPrimePower(2, 1, 1), CyclicPrimePower(2, 2, 1))


def test_mixed_chain():
    # Z/4 (+) Z/6 = Z/2 (+) Z/12, as elementary divisors 2, 4, 3
    got = la.cokernel_structure([[4, 0], [0, 6]])
    assert got.summands == (CyclicPrimePower(2, 1, 1), CyclicPrimePower(2, 2, 1),
                            CyclicPrimePower(3, 1, 1))
    assert got == la.cokernel_structure([[2, 0], [0, 12]])


def test_rejects_bad_orders():
    for summand in (CyclicPrimePower(1, 1, 1), FreeZ(-1),
                    CyclicPrimePower(2, 1, -1)):
        with pytest.raises(ValueError):
            GroupExpression((summand,))


def test_runs_in_any_order_with_repeats():
    g = GroupExpression((CyclicPrimePower(3, 1, 1), CyclicPrimePower(2, 1, 2),
                         CyclicPrimePower(2, 2, 0), CyclicPrimePower(2, 1, 1)))
    assert g.summands == (CyclicPrimePower(2, 1, 3), CyclicPrimePower(3, 1, 1))
    assert g == la.cokernel_structure([[6, 0, 0], [0, 2, 0], [0, 0, 2]])


def test_counts_are_never_written_out():
    # each returns at once: a count is carried, never expanded
    big = GroupExpression.elementary(3, 10 ** 30)
    assert big.summands == (CyclicPrimePower(3, 1, 10 ** 30),)
    two = _cyclic(2, 1, 2 ** 64)
    assert (big + big).summands == (CyclicPrimePower(3, 1, 2 * 10 ** 30),)
    assert (two + two + two).summands == (CyclicPrimePower(2, 1, 3 * 2 ** 64),)
    assert (big + two).summands == (CyclicPrimePower(2, 1, 2 ** 64),
                                    CyclicPrimePower(3, 1, 10 ** 30))
    assert (10 ** 30 * big).summands == (CyclicPrimePower(3, 1, 10 ** 60),)
    assert (2 ** 64 * (GroupExpression.free(3) + two)).summands \
        == (FreeZ(3 * 2 ** 64), CyclicPrimePower(2, 1, 2 ** 128))
    assert (0 * big).is_zero()


# Carmichael numbers: composites that every base prime to them passes
# Fermat's test for
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921,
              126217, 162401, 172081, 188461, 252601, 278545, 294409)


def test_is_prime_matches_a_sieve():
    bound = 10 ** 4
    sieve = [False, False] + [True] * (bound - 2)
    for i in range(2, bound):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    for n in range(-5, bound):
        assert is_prime(n) == (n >= 0 and sieve[n]), n
    primes = [n for n in range(bound) if sieve[n]]
    # a prime square's one divisor is its root, the last one tried
    for q in primes[:40] + [9973, 999983, 1_000_003]:
        assert not is_prime(q * q), q
    for n in CARMICHAEL:
        # Korselt: square-free, and q - 1 | n - 1 for every prime q | n
        factors = factorint(n)
        assert set(factors.values()) == {1} and len(factors) >= 3, n
        assert all((n - 1) % (q - 1) == 0 for q in factors), n
        assert not is_prime(n), n
    assert is_prime(1_000_003)
    assert not is_prime(1_000_001)   # 101 * 9901
    assert is_prime(10 ** 12 + 39)   # 13 digits
    assert not is_prime(1_000_003 * 1_000_033)
    assert not is_prime(2 ** 61)


def test_is_prime_stops_at_the_first_divisor():
    # a huge number with a small factor is refused after a few divisions;
    # a prime just past the int64 square root takes about 5.5e4
    huge = 10 ** 18 + 3
    for d in (2, 3, 41):
        assert not is_prime(d * huge), d
    assert is_prime(3037000507)


def test_order():
    # a finite cokernel has order |det M|: the product of its summands' orders
    for M in ([[2, 0], [0, 4]], [[3]], [[4, 6], [2, 8]], [[1, 0], [0, 1]],
              [[12, 18, 0], [0, 9, 3], [6, 0, 27]]):
        summands = la.cokernel_structure(M).summands
        assert all(isinstance(s, CyclicPrimePower) for s in summands)
        assert prod(s.p ** (s.exponent * s.multiplicity) for s in summands) \
            == abs(la.determinant(M)), M
    assert la.cokernel_structure([[2], [0]]).free_rank == 1


# -- direct sum and duals ----------------------------------------------------

def test_direct_sum_crt():
    assert _cyclic(2) + _cyclic(3) == la.cokernel_structure([[6]])


def test_direct_sum_free():
    assert GroupExpression.free(1) + GroupExpression.free(2) \
        == GroupExpression.free(3)


def test_direct_sum_chain():
    got = _cyclic(2) + _cyclic(2, 2)
    assert got.summands == (CyclicPrimePower(2, 1, 1), CyclicPrimePower(2, 2, 1))


def test_hom_dual():
    a = GroupExpression.free(3) + _cyclic(5)
    assert hom_dual(a) == GroupExpression.free(3)
    assert hom_dual(_cyclic(7)).is_zero()


def test_ext_dual():
    a = GroupExpression.free(3) + _cyclic(5)
    assert ext_dual(a) == _cyclic(5)
    assert ext_dual(GroupExpression.free(4)).is_zero()
    b = _cyclic(2) + _cyclic(2, 2)
    assert ext_dual(b) == b


@pytest.mark.parametrize("summand", [
    PAdic(3, 1), Pruefer(5, 2), KOPoint(1, 1), KoPoint(4, 2),
    UnknownPTorsion("T1", (1,)), UnknownPTorsion("to_3", None)], ids=repr)
def test_finitary_operations_refuse_other_summands(summand):
    e = GroupExpression((FreeZ(1), CyclicPrimePower(3, 1, 2), summand))
    for op in (hom_dual, ext_dual, lambda e: 2 * e):
        with pytest.raises(ValueError, match="not a finitely generated"):
            op(e)


fg_groups = st.builds(
    lambda rank, parts: GroupExpression(
        (FreeZ(rank),) + tuple(CyclicPrimePower(*part) for part in parts)),
    st.integers(0, 4),
    st.lists(st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3),
                       st.integers(0, 3)), max_size=4))


@given(fg_groups, fg_groups, fg_groups)
@settings(max_examples=60, deadline=None)
def test_direct_sum_commutative_associative(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@given(fg_groups, st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_direct_sum_of_none_or_one(g, c, d):
    assert GroupExpression.zero() + g == g == g + GroupExpression.zero()
    assert 1 * g == g and (0 * g).is_zero()
    assert c * g + d * g == (c + d) * g
    assert c * (d * g) == (c * d) * g


@given(fg_groups)
@settings(max_examples=60, deadline=None)
def test_dual_involutions(a):
    assert hom_dual(hom_dual(a)) == GroupExpression.free(a.free_rank)
    assert ext_dual(ext_dual(a)) == ext_dual(a)
    assert hom_dual(a) + ext_dual(a) == a


small_matrices = st.integers(1, 3).flatmap(lambda m: st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                       min_size=m, max_size=m)))


def _smith_invariants(M):
    """(free rank, invariant factors > 1) of coker M from its Smith form."""
    D, _, _ = la.smith_normal_form(M)
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    rank = sum(1 for d in diag if d)
    return len(D) - rank, [d for d in diag if d > 1]


@given(small_matrices, small_matrices)
@example([[2, 0], [0, 3]], [[6]])
@example([[4, 0], [0, 6]], [[2, 0], [0, 12]])
@example([[2, 0], [0, 2]], [[4]])
@example([[2, 0], [0, 2]], [[2]])
@example([[0, 0]], [[1], [0]])
@settings(max_examples=200, deadline=None)
def test_equality_is_isomorphism(M, N):
    # the invariant factors and the free rank classify a f.g. abelian group
    same = _smith_invariants(M) == _smith_invariants(N)
    assert (la.cokernel_structure(M) == la.cokernel_structure(N)) == same


# -- KO point table ----------------------------------------------------------
#
# The reference is written here, apart from the library's table: KO_m(pt)
# for m = 0, ..., 7, 8-periodic; connective ko_m(pt) is KO_m(pt) for m >= 0
# and 0 below.

KO_POINT = ["Z", "Z/2", "Z/2", "0", "Z", "0", "0", "0"]


def _point_summands(s):
    """The summands of the point group of a KO/ko point summand s."""
    if isinstance(s, KoPoint) and s.degree < 0:
        return []
    return {"Z": [FreeZ(s.multiplicity)],
            "Z/2": [CyclicPrimePower(2, 1, s.multiplicity)],
            "0": []}[KO_POINT[s.degree % 8]]


def _evaluated(s) -> str:
    return expr_evaluate(GroupExpression((s,))).render()


def test_ko_table_values():
    assert [_evaluated(KOPoint(m, 1)) for m in range(8)] == KO_POINT
    assert [_evaluated(KoPoint(m, 1)) for m in range(8)] == KO_POINT


def test_ko_table_periodic():
    for m in range(-8, 16):
        assert _evaluated(KOPoint(m, 1)) == KO_POINT[m % 8], m
        assert _evaluated(KOPoint(m, 3)) \
            == GroupExpression(tuple(_point_summands(KOPoint(m, 3)))).render(), m


def test_ko_table_connective():
    for m in range(-8, 16):
        assert _evaluated(KoPoint(m, 1)) == (KO_POINT[m % 8] if m >= 0 else "0"), m


# -- expressions -------------------------------------------------------------

def test_expr_normalization_merges():
    e = GroupExpression((FreeZ(1), CyclicPrimePower(3, 1, 2), FreeZ(2),
                         CyclicPrimePower(3, 1, 1)))
    assert e == GroupExpression((FreeZ(3), CyclicPrimePower(3, 1, 3)))


def test_expr_ko_degree_mod8():
    assert GroupExpression((KOPoint(9, 1),)) == GroupExpression((KOPoint(1, 1),))


def test_expr_ko_connective_negative_drops():
    assert GroupExpression((KoPoint(-3, 2),)).is_zero()
    assert not GroupExpression((KoPoint(5, 1),)).is_zero()


def test_expr_unknown_zero_bounds_drop():
    assert GroupExpression((UnknownPTorsion("T1", (0, 0)),)).is_zero()
    assert not GroupExpression((UnknownPTorsion("T1", (1, 0)),)).is_zero()
    assert not GroupExpression((UnknownPTorsion("to_3", None),)).is_zero()


def test_unknown_equality_is_tag_plus_bounds():
    # never group isomorphism: same possible groups, different identities
    assert UnknownPTorsion("T1", (1,)) != UnknownPTorsion("TO^1", (1,))
    assert UnknownPTorsion("T1", (1,)) != UnknownPTorsion("T1", (1, 0))
    assert UnknownPTorsion("T1", None) != UnknownPTorsion("T1", ())


def test_expr_evaluate_examples():
    assert expr_evaluate(GroupExpression((KOPoint(1, 3),))) \
        == GroupExpression((CyclicPrimePower(2, 1, 3),))
    assert expr_evaluate(GroupExpression((KOPoint(3, 5),))).is_zero()
    got = expr_evaluate(GroupExpression((FreeZ(2), KOPoint(4, 1))))
    assert got == GroupExpression.free(3)


# -- rendering ---------------------------------------------------------------

# one summand of each kind, in canonical order
SEVEN_KINDS = [FreeZ(2), CyclicPrimePower(3, 2, 1), PAdic(3, 6), Pruefer(5, 1),
               KOPoint(2, 3), KoPoint(4, 1), UnknownPTorsion("T1", (3, 0))]


def test_render_examples():
    assert GroupExpression.zero().render() == "0"
    assert GroupExpression.free(1).render() == "Z"
    assert GroupExpression.free(8).render() == "Z^8"
    # the canonical order, stated here apart from the kind table
    for summands in (SEVEN_KINDS, SEVEN_KINDS[::-1]):
        assert GroupExpression(tuple(summands)).render() == (
            "Z^2 (+) Z/9 (+) Zp^[3]^6 (+) Pruefer[5] "
            "(+) KO[2](pt)^3 (+) ko[4](pt) "
            "(+) T{T1; bounds=[3, 0]}")


def test_kind_table_lists_the_kinds_in_canonical_order():
    assert list(_KINDS) == [type(s) for s in SEVEN_KINDS]
    assert [_order_key(s)[0] for s in SEVEN_KINDS] == list(range(7))


# -- refused summands: GroupExpression(...) takes only canonical values ------

def _refused(summand):
    with pytest.raises(ValueError, match=re.escape(repr(summand))):
        GroupExpression((FreeZ(1), summand))


@pytest.mark.parametrize("summand", [
    FreeZ(-3), CyclicPrimePower(3, 1, -2), PAdic(3, -1), Pruefer(5, -1),
    KOPoint(1, -1), KoPoint(-2, -1)], ids=repr)
def test_refuses_negative_count(summand):
    _refused(summand)


def test_refuses_negative_layer_bound():
    _refused(UnknownPTorsion("T1", (2, -1)))


def test_refuses_cyclic_non_prime():
    # Z/4 is CyclicPrimePower(2, 2, 1), never CyclicPrimePower(4, 1, 1)
    _refused(CyclicPrimePower(4, 1, 1))


def test_refuses_cyclic_exponent_below_one():
    _refused(CyclicPrimePower(2, 0, 2))


@pytest.mark.parametrize("summand", [PAdic(4, 1), Pruefer(1, 2), Pruefer(9, 1)],
                         ids=repr)
def test_refuses_padic_pruefer_non_prime(summand):
    _refused(summand)


summand_strategy = st.one_of(
    st.builds(FreeZ, st.integers(0, 9)),
    st.builds(CyclicPrimePower, st.sampled_from([2, 3, 5, 7]),
              st.integers(1, 3), st.integers(0, 9)),
    st.builds(PAdic, st.sampled_from([2, 3, 5]), st.integers(0, 9)),
    st.builds(Pruefer, st.sampled_from([2, 3, 5]), st.integers(0, 9)),
    st.builds(KOPoint, st.integers(-20, 27), st.integers(0, 9)),
    st.builds(KoPoint, st.integers(-10, 11), st.integers(0, 9)),
    st.builds(UnknownPTorsion,
              st.sampled_from(["T1", "TO^1", "TO^5", "to_3"]),
              st.one_of(st.none(),
                        st.lists(st.integers(0, 9), max_size=3).map(tuple),
                        st.lists(st.just(0), max_size=3).map(tuple))),
)

expressions = st.lists(summand_strategy, max_size=5).map(
    lambda xs: GroupExpression(tuple(xs)))


@given(st.lists(summand_strategy, max_size=6).flatmap(
    lambda xs: st.tuples(st.just(xs), st.permutations(xs))))
@settings(max_examples=100, deadline=None)
def test_normalize_ignores_summand_order(lists):
    # the canonical order is total: no input order shows through
    xs, ys = lists
    assert GroupExpression(tuple(ys)) == GroupExpression(tuple(xs))


# summands whose texts differ by little: a render that merged two of them
# would show up on few draws
NEAR_MISSES = [
    FreeZ(1), FreeZ(2), CyclicPrimePower(2, 1, 1), CyclicPrimePower(2, 1, 2),
    CyclicPrimePower(2, 2, 1), CyclicPrimePower(2, 3, 1), PAdic(2, 1),
    Pruefer(2, 1), KOPoint(1, 1), KOPoint(9, 1), KoPoint(1, 1), KoPoint(9, 1),
    UnknownPTorsion("T1", (1, 2)), UnknownPTorsion("T1", (12,)),
    UnknownPTorsion("T1", (1, 0)), UnknownPTorsion("T1", (1,)),
    UnknownPTorsion("T1", None), UnknownPTorsion("T12", None)]
near_misses = st.lists(st.sampled_from(NEAR_MISSES), max_size=3).map(
    lambda xs: GroupExpression(tuple(xs)))


@given(near_misses | expressions, near_misses | expressions)
@example(GroupExpression((CyclicPrimePower(2, 2, 1),)), fg_expression(0, 2, 2))
@example(GroupExpression((CyclicPrimePower(2, 3, 1),)),
         GroupExpression((CyclicPrimePower(2, 1, 1), CyclicPrimePower(2, 2, 1))))
@example(GroupExpression.unknown("T1", (1, 2)), GroupExpression.unknown("T1", (12,)))
@example(GroupExpression.unknown("T1", (1, 0)), GroupExpression.unknown("T1", (1,)))
@example(GroupExpression.padic(3, 1), GroupExpression.pruefer(3, 1))
@example(GroupExpression((KOPoint(1, 1),)), GroupExpression((KoPoint(1, 1),)))
@example(GroupExpression((KOPoint(9, 1),)), GroupExpression((KOPoint(1, 1),)))
@example(GroupExpression.free(2), GroupExpression.free(1) + GroupExpression.free(1))
@settings(max_examples=200, deadline=None)
def test_render_is_injective(a, b):
    # a report records each group only as its text
    assert (a.render() == b.render()) == (a == b)


@given(expressions)
@settings(max_examples=100, deadline=None)
def test_evaluate_idempotent(e):
    once = expr_evaluate(e)
    assert expr_evaluate(once) == once


@given(expressions, expressions)
@settings(max_examples=60, deadline=None)
def test_expression_sum_commutes(a, b):
    assert a + b == b + a


# -- fast paths against the general normalizer -------------------------------
#
# Only `fg_expression` builds the canonical tuple without `_normalize`; it
# must give what `_normalize` gives.  The named constructors, `+`, scaling
# and `expr_evaluate` go through `_normalize`, and the tests below pin what
# they must return.

summand_lists = st.lists(summand_strategy, max_size=6)


def _reference(xs):
    return GroupExpression(tuple(xs)).summands


@given(st.integers(0, 9), st.sampled_from([2, 3, 5, 7]), st.integers(0, 9),
       st.sampled_from(["T1", "TO^3", "to_5"]),
       st.one_of(st.none(), st.lists(st.integers(0, 3), max_size=3)))
@settings(max_examples=100, deadline=None)
def test_named_constructors_are_canonical(count, p, copies, tag, bounds):
    assert GroupExpression.zero().summands == _reference([])
    assert GroupExpression.free(count).summands == _reference([FreeZ(count)])
    assert GroupExpression.elementary(p, copies).summands \
        == _reference([CyclicPrimePower(p, 1, copies)])
    assert fg_expression(0, p, copies).summands \
        == _reference([CyclicPrimePower(p, 1, copies)])
    assert fg_expression(count, p, copies).summands \
        == _reference([FreeZ(count), CyclicPrimePower(p, 1, copies)])
    assert fg_expression(count).summands == _reference([FreeZ(count)])
    assert GroupExpression.padic(p, count).summands == _reference([PAdic(p, count)])
    assert GroupExpression.pruefer(p, count).summands \
        == _reference([Pruefer(p, count)])
    assert GroupExpression.unknown(tag, bounds).summands \
        == _reference([UnknownPTorsion(tag, bounds)])


@pytest.mark.parametrize("name, args, summand", [
    ("free", (-3,), FreeZ(-3)),
    ("elementary", (4, 2), CyclicPrimePower(4, 1, 2)),
    ("padic", (4, 2), PAdic(4, 2)),
    ("pruefer", (6, 1), Pruefer(6, 1)),
    ("unknown", ("T", (-1, 2)), UnknownPTorsion("T", (-1, 2))),
], ids=["free", "elementary", "padic", "pruefer", "unknown"])
def test_named_constructors_refuse_what_the_constructor_refuses(name, args, summand):
    with pytest.raises(ValueError) as direct:
        GroupExpression((summand,))
    with pytest.raises(ValueError, match=re.escape(str(direct.value))):
        getattr(GroupExpression, name)(*args)


@given(summand_lists, summand_lists)
@settings(max_examples=100, deadline=None)
def test_sum_merges_like_normalize(xs, ys):
    got = GroupExpression(tuple(xs)) + GroupExpression(tuple(ys))
    assert got.summands == _reference(xs + ys)


def _expand_points(xs):
    """Every point summand replaced by its point group, element-wise."""
    out = []
    for s in xs:
        out.extend(_point_summands(s) if isinstance(s, (KOPoint, KoPoint)) else [s])
    return out


@given(summand_lists)
@example([CyclicPrimePower(2, 1, 2), KOPoint(9, 3), KoPoint(2, 1), FreeZ(1),
          KOPoint(-4, 2), CyclicPrimePower(3, 1, 1), KoPoint(-7, 5)])
@settings(max_examples=100, deadline=None)
def test_evaluate_matches_normalize(xs):
    e = GroupExpression(tuple(xs))
    got = expr_evaluate(e)
    assert got.summands == _reference(_expand_points(xs))
    if not any(isinstance(s, (KOPoint, KoPoint)) for s in e.summands):
        assert got is e


def test_large_elementary_chain():
    g = GroupExpression((CyclicPrimePower(3, 1, 1200), CyclicPrimePower(3, 2, 1),
                         CyclicPrimePower(3, 3, 1), CyclicPrimePower(2, 1, 1)))
    assert g.summands == (CyclicPrimePower(2, 1, 1), CyclicPrimePower(3, 1, 1200),
                          CyclicPrimePower(3, 2, 1), CyclicPrimePower(3, 3, 1))
    assert g == la.cokernel_structure([[6]]) + GroupExpression((
        CyclicPrimePower(3, 1, 1), CyclicPrimePower(3, 3, 1),
        CyclicPrimePower(3, 2, 1), CyclicPrimePower(3, 1, 1198)))
