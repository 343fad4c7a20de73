import pytest
from hypothesis import example, given, settings, strategies as st

from crystalk.abelian import (CyclicPrimePower, FGAbelianGroup, FreeZ,
                              GroupExpression, KOPoint, KoPoint, PAdic,
                              Pruefer, UnknownPTorsion,
                              _chain_from_prime_powers, direct_sum, ext_dual,
                              expr_evaluate, factorint, fg_expression,
                              hom_dual, ko_point_table, parse_expression)


# -- canonical form ----------------------------------------------------------

def test_crt_refactoring():
    assert FGAbelianGroup(0, (2, 3)) == FGAbelianGroup(0, (6,))


def test_chain_kept():
    assert FGAbelianGroup(0, (2, 4)).torsion == (2, 4)


def test_mixed_chain():
    assert FGAbelianGroup(0, (4, 6)).torsion == (2, 12)


def test_rejects_bad_orders():
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FGAbelianGroup(-1, ())


def test_order():
    assert FGAbelianGroup(0, (2, 4)).order() == 8
    assert FGAbelianGroup(1, ()).order() is None
    assert FGAbelianGroup.trivial().order() == 1


# -- direct sum and duals ----------------------------------------------------

def test_direct_sum_crt():
    assert direct_sum(FGAbelianGroup.cyclic(2), FGAbelianGroup.cyclic(3)) \
        == FGAbelianGroup.cyclic(6)


def test_direct_sum_free():
    assert direct_sum(FGAbelianGroup.free(1), FGAbelianGroup.free(2)) \
        == FGAbelianGroup.free(3)


def test_direct_sum_chain():
    got = direct_sum(FGAbelianGroup.cyclic(2), FGAbelianGroup.cyclic(4))
    assert got.torsion == (2, 4)


def test_hom_dual():
    a = FGAbelianGroup(3, (5,))
    assert hom_dual(a) == FGAbelianGroup.free(3)
    assert hom_dual(FGAbelianGroup.cyclic(7)).is_trivial()


def test_ext_dual():
    a = FGAbelianGroup(3, (5,))
    assert ext_dual(a) == FGAbelianGroup.cyclic(5)
    assert ext_dual(FGAbelianGroup.free(4)).is_trivial()
    b = FGAbelianGroup(0, (2, 4))
    assert ext_dual(b) == b


fg_groups = st.builds(
    FGAbelianGroup,
    st.integers(0, 4),
    st.lists(st.integers(2, 30), max_size=4).map(tuple))


@given(fg_groups, fg_groups, fg_groups)
@settings(max_examples=60, deadline=None)
def test_direct_sum_commutative_associative(a, b, c):
    assert direct_sum(a, b) == direct_sum(b, a)
    assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))


@given(fg_groups)
@settings(max_examples=60, deadline=None)
def test_dual_involutions(a):
    assert hom_dual(hom_dual(a)) == FGAbelianGroup.free(a.free_rank)
    assert ext_dual(ext_dual(a)) == a.torsion_subgroup()


# -- KO point table ----------------------------------------------------------

def test_ko_table_values():
    expected = ["Z", "Z/2", "Z/2", "0", "Z", "0", "0", "0"]
    assert [str(ko_point_table(m)) for m in range(8)] == expected


def test_ko_table_periodic():
    assert ko_point_table(-4) == FGAbelianGroup.free(1)
    assert ko_point_table(12) == ko_point_table(4)


def test_ko_table_connective():
    assert ko_point_table(-1, connective=True).is_trivial()
    assert ko_point_table(9, connective=True) == FGAbelianGroup.cyclic(2)


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


def test_to_fg():
    e = fg_expression(2, 5, 3)
    assert e.to_fg() == FGAbelianGroup(2, (5, 5, 5))
    with pytest.raises(ValueError):
        GroupExpression((PAdic(3, 1),)).to_fg()


# -- rendering and parsing ---------------------------------------------------

def test_render_examples():
    assert GroupExpression.zero().render() == "0"
    assert GroupExpression.free(1).render() == "Z"
    assert GroupExpression.free(8).render() == "Z^8"
    e = GroupExpression((FreeZ(2), CyclicPrimePower(3, 2, 1),
                         PAdic(3, 6), Pruefer(5, 1),
                         KOPoint(2, 3), KoPoint(4, 1),
                         UnknownPTorsion("T1", (3, 0))))
    assert e.render() == ("Z^2 (+) Z/9 (+) Zp^[3]^6 (+) Pruefer[5] "
                          "(+) KO[2](pt)^3 (+) ko[4](pt) "
                          "(+) T{T1; bounds=[3, 0]}")


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


@given(expressions)
@settings(max_examples=100, deadline=None)
def test_parse_render_roundtrip(e):
    assert parse_expression(e.render()) == e


@given(expressions)
@settings(max_examples=100, deadline=None)
def test_evaluate_idempotent(e):
    once = expr_evaluate(e)
    assert expr_evaluate(once) == once


@given(expressions, expressions)
@settings(max_examples=60, deadline=None)
def test_expression_sum_commutes(a, b):
    assert a + b == b + a


def test_fg_to_expression_roundtrip():
    g = FGAbelianGroup(2, (2, 12))
    assert g.to_expression().to_fg() == g


# -- fast paths against the general normalizer -------------------------------
#
# Every constructor other than GroupExpression(...) builds the canonical
# tuple without `_normalize`; each must give what `_normalize` gives.

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
    assert fg_expression(count, p, copies).summands \
        == _reference([FreeZ(count), CyclicPrimePower(p, 1, copies)])
    assert fg_expression(count).summands == _reference([FreeZ(count)])
    assert GroupExpression.padic(p, count).summands == _reference([PAdic(p, count)])
    assert GroupExpression.pruefer(p, count).summands \
        == _reference([Pruefer(p, count)])
    assert GroupExpression.unknown(tag, bounds).summands \
        == _reference([UnknownPTorsion(tag, bounds)])


@given(fg_groups)
@settings(max_examples=60, deadline=None)
def test_fg_to_expression_is_canonical(g):
    summands = g.to_expression().summands
    assert summands == _reference(summands)


@given(summand_lists, summand_lists)
@settings(max_examples=100, deadline=None)
def test_sum_merges_like_normalize(xs, ys):
    got = GroupExpression(tuple(xs)) + GroupExpression(tuple(ys))
    assert got.summands == _reference(xs + ys)


def _expand_points(xs):
    """Every point summand replaced by its point group, element-wise."""
    out = []
    for s in xs:
        if isinstance(s, (KOPoint, KoPoint)):
            g = ko_point_table(s.degree, connective=isinstance(s, KoPoint))
            out.append(FreeZ(g.free_rank * s.multiplicity))
            out.extend(CyclicPrimePower(2, factorint(d)[2], s.multiplicity)
                       for d in g.torsion)
        else:
            out.append(s)
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


# the element-wise invariant-factor chain, kept as the reference
def _chain_elementwise(powers):
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


prime_powers = st.dictionaries(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.one_of(
        st.lists(st.integers(1, 4), max_size=12),
        # the shape of a Tate group of an exterior power: many copies of
        # one prime with a few higher powers mixed in
        st.tuples(st.integers(1000, 1500), st.lists(st.integers(2, 4), max_size=4))
        .map(lambda t: [1] * t[0] + t[1])),
    max_size=4)


@given(prime_powers)
@settings(max_examples=60, deadline=None)
def test_chain_runs_match_elementwise(powers):
    assert _chain_from_prime_powers(powers) == _chain_elementwise(powers)


def test_large_elementary_chain():
    g = FGAbelianGroup(0, (3,) * 1200 + (9, 27, 2))
    assert g.torsion == (3,) * 1200 + (9, 54)
    assert g == FGAbelianGroup(0, (6, 3, 27, 9) + (3,) * 1198)
