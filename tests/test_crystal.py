import collections

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crystalk import crystal, exact_linalg as la, repring, zpmod
from crystalk.abelian import (CyclicPrimePower, FreeZ, GroupExpression,
                              KOPoint, KoPoint, PAdic, Pruefer,
                              UnknownPTorsion, expr_evaluate, ext_dual,
                              fg_expression, hom_dual)
from crystalk.crystal import (BadRankError, NotFreeError, NotPrimeError,
                              OddPrimeRequiredError, WrongOrderError,
                              brute_force_cohomology_bgamma, build_report,
                              canonical_gamma, cohomology_bgamma,
                              cohomology_quotient, connective_ko,
                              cstar_k_theory, d_even, d_odd,
                              equivariant_exact_sequences, equivariant_k,
                              euler_characteristic_quotient,
                              finite_subgroup_data, homology_bgamma,
                              homology_quotient, k_theory_bgamma,
                              k_theory_quotient, ko_theory, validate_gamma)

G31 = canonical_gamma(3, 1)
G32 = canonical_gamma(3, 2)
G21 = canonical_gamma(2, 1)
G51 = canonical_gamma(5, 1)


# -- validation --------------------------------------------------------------

def test_validate_cyclotomic():
    G = validate_gamma(3, [[0, -1], [1, -1]])
    assert (G.p, G.n, G.k, G.canonical) == (3, 2, 1, True)


def test_validate_identity_rejected():
    with pytest.raises(WrongOrderError, match="WrongOrder"):
        validate_gamma(3, [[1, 0], [0, 1]])


def test_validate_infinite_dihedral():
    G = validate_gamma(2, [[-1]])
    assert (G.p, G.n, G.k) == (2, 1, 1)


def test_validate_not_free():
    with pytest.raises(NotFreeError) as err:
        validate_gamma(2, [[0, 1], [1, 0]])
    assert str(err.value) == "NotFree: fixed vector (1, 1)"
    # a fixed vector is named before a rank that p - 1 does not divide
    with pytest.raises(NotFreeError) as err:
        validate_gamma(3, [[0, -1, 0], [1, -1, 0], [0, 0, 1]])
    assert str(err.value) == "NotFree: fixed vector (0, 0, 1)"


def test_validation_keeps_its_field_ranks(tmp_path, monkeypatch, capsys):
    # validation reads freeness off two prime-field ranks of rho - id and
    # hands the module over, so a --matrix report reads its cokernel off
    # the same ranks: one elimination, no Smith form and no kernel
    import json
    from crystalk import cli
    seen = []
    original = la.ranks_mod_rows

    def counting(rows, moduli):
        rows = list(rows)
        seen.append((len(rows), tuple(moduli)))
        return original(rows, moduli)

    def refuse(name):
        def refused(M):
            raise AssertionError(f"{name} on a valid action")
        return refused
    monkeypatch.setattr(la, "ranks_mod_rows", counting)
    monkeypatch.setattr(la, "cokernel_structure", refuse("cokernel_structure"))
    monkeypatch.setattr(la, "kernel_basis", refuse("kernel_basis"))
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 3, "matrix": [[2, -7], [1, -3]]}))
    assert cli.main(["report", "--matrix", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["descriptor"]["canonical"] is False
    assert seen == [(2, (2, 3))]


@pytest.mark.parametrize("p, seed", [(2, 1), (3, 1), (5, 2), (7, 3)])
def test_a_refused_action_names_a_vector_it_fixes(p, seed):
    # the ranks refuse a conjugated cyclotomic (+) trivial action, and the
    # integer kernel names a nonzero vector that rho really fixes
    import ast
    import random
    from crystalk.verify import _random_unimodular
    mod = zpmod.direct_sum(zpmod.make_cyclotomic(p), zpmod.make_trivial(p, 1))
    rho = zpmod.conjugate(mod, *_random_unimodular(random.Random(seed),
                                                    mod.rank)).action
    with pytest.raises(NotFreeError) as err:
        validate_gamma(p, rho)
    text = str(err.value)
    assert text.startswith("NotFree: fixed vector (")
    vec = [[x] for x in ast.literal_eval(text.split("vector ")[1])]
    assert any(x for [x] in vec) and la.matmul(rho, vec) == vec


def test_validate_checks_every_entry_of_an_array():
    # an object array from outside gets the per-entry check a list gets:
    # floats are refused, numpy integers become Python ints
    floats = np.array([[0.0, -1.0], [1.0, -1.0]], dtype=object)
    with pytest.raises(ValueError, match="not an integer"):
        validate_gamma(3, floats)
    for rho in (np.array([[0, -1], [1, -1]], dtype=np.int64),
                np.array([[0, -1], [1, -1]], dtype=np.int64).astype(object)):
        G = validate_gamma(3, rho)
        assert G.rho == [[0, -1], [1, -1]]
        assert all(type(x) is int for row in G.rho for x in row)
        assert G.canonical


def test_validate_not_prime():
    with pytest.raises(NotPrimeError):
        validate_gamma(4, [[-1]])


def test_validation_is_bounded_by_the_matrix_size():
    diag_2 = la.identity(12)
    diag_2[0][0] = 2   # diag(2, 1, ..., 1), of infinite order
    # trial division by 2, ..., n + 1 comes first
    with pytest.raises(NotPrimeError):
        validate_gamma(2 * 1000000000000000003, [[-1]])
    # rho^p is formed only for p <= n + 1: an infinite-order action and a
    # p = lcm(1, ..., 24) whose power would have 2^p as an entry
    with pytest.raises(NotPrimeError):
        validate_gamma(5354228880, diag_2)
    # past that, a p with no factor up to n + 1 fails the order check,
    # prime or not
    with pytest.raises(WrongOrderError, match="order 9"):
        validate_gamma(9, [[-1]])
    with pytest.raises(WrongOrderError, match="order 1000000000000000003"):
        validate_gamma(1000000000000000003, [[-1]])
    with pytest.raises(WrongOrderError, match="order 1000000000000000003"):
        validate_gamma(1000000000000000003, diag_2)
    with pytest.raises(WrongOrderError, match="identity"):
        validate_gamma(1000000000000000003, la.identity(3))
    for p in (1, 0, -3):
        with pytest.raises(NotPrimeError):
            validate_gamma(p, [[-1]])


def test_validate_wrong_power():
    with pytest.raises(WrongOrderError):
        validate_gamma(3, [[-1]])
    # -rho has order 2p: rho^p = id, so (-rho)^p = -id
    with pytest.raises(WrongOrderError):
        validate_gamma(61, _negated(canonical_gamma(61, 1).rho))


def _negated(rows):
    return [[-x for x in row] for row in rows]


def test_canonical_gamma_shapes():
    assert canonical_gamma(3, 1).rho == [[0, -1], [1, -1]]
    G2 = canonical_gamma(2, 3)
    assert G2.rho == _negated(la.identity(3))
    assert canonical_gamma(5, 2).n == 8


def test_canonical_k_zero_rejected():
    with pytest.raises(BadRankError):
        canonical_gamma(3, 0)


def test_canonical_nonprime_rejected():
    with pytest.raises(NotPrimeError):
        canonical_gamma(4, 1)


def test_canonical_rank_is_bounded_before_primality():
    assert canonical_gamma(2, zpmod.MAX_SUMMAND_DIM).n == zpmod.MAX_SUMMAND_DIM
    for p, k in ((2, zpmod.MAX_SUMMAND_DIM + 1), (4, 1000), (10 ** 18 + 3, 1)):
        with pytest.raises(BadRankError, match=f"{k * (p - 1)} exceeds the limit"):
            canonical_gamma(p, k)


# perfbench's REPORT_SWEEP and VERIFY_GRID shapes, and the smallest primes
CANONICAL_SHAPES = ((31, 1), (43, 1), (61, 1), (13, 3), (5, 4), (3, 8),
                    (2, 12), (3, 6), (2, 10), (5, 2), (7, 1), (2, 1), (3, 1))


@pytest.mark.parametrize("p,k", CANONICAL_SHAPES)
def test_canonical_gamma_passes_validation(p, k):
    # canonical_gamma does not validate; the full check must agree with it
    G = canonical_gamma(p, k)
    H = validate_gamma(p, G.rho)
    assert (H.n, H.k) == (G.n, G.k) == (k * (p - 1), k)
    assert G.canonical is True and H.canonical is True
    assert H.rho == G.rho


def test_canonical_gamma_skips_validation(monkeypatch):
    # each step of validation is refused, so the guard cannot pass by a
    # check that goes around validate_gamma
    def boom(*args, **kwargs):
        raise AssertionError("the canonical action was checked")
    monkeypatch.setattr(crystal, "validate_gamma", boom)
    monkeypatch.setattr(la, "power_is_identity", boom)
    monkeypatch.setattr(zpmod, "fixed_rank", boom)
    G = canonical_gamma(61, 1)
    assert (G.p, G.n, G.k, G.canonical) == (61, 60, 1, True)


def test_validation_of_the_canonical_1009_rows_forms_no_product(monkeypatch):
    # rho^p = I is certified on orbits of basis vectors, so checking the
    # 1008-wide action runs no matrix product, and still checks the order
    rows = canonical_gamma(1009, 1).rho_rows()
    checked = []
    original = la.power_is_identity

    def spy(A, e):
        checked.append(e)
        return original(A, e)

    def boom(*args, **kwargs):
        raise AssertionError("a matrix product in validation")
    monkeypatch.setattr(la, "matmul", boom)
    monkeypatch.setattr(la, "power_is_identity", spy)
    G = validate_gamma(1009, rows)
    assert (G.n, G.k, G.canonical, checked) == (1008, 1, True, [1009])
    rows[0][0] += 1
    with pytest.raises(WrongOrderError):
        validate_gamma(1009, rows)


def test_conjugated_matrix_not_canonical():
    g = [[1, 1], [0, 1]]
    ginv = [[1, -1], [0, 1]]
    rho = la.matmul(la.matmul(g, G31.rho), ginv)
    H = validate_gamma(3, rho)
    assert not H.canonical
    assert (H.p, H.n, H.k) == (3, 2, 1)


# -- structural data ---------------------------------------------------------

def test_finite_subgroup_data():
    d = finite_subgroup_data(G31)
    assert d.cokernel == GroupExpression.elementary(3, 1)
    assert d.class_count == d.fixed_point_count == 3
    d2 = finite_subgroup_data(G21)
    assert d2.cokernel == GroupExpression.elementary(2, 1)
    assert d2.class_count == 2
    d3 = finite_subgroup_data(G32)
    assert d3.cokernel == GroupExpression.elementary(3, 2)
    assert d3.class_count == 9


def test_abelianization():
    assert crystal.abelianization(G31) == GroupExpression.elementary(3, 2)
    assert crystal.abelianization(G21) == GroupExpression.elementary(2, 2)
    assert crystal.abelianization(canonical_gamma(5, 2)) \
        == GroupExpression.elementary(5, 3)


def test_euler_characteristic():
    assert euler_characteristic_quotient(G31) == 2
    assert euler_characteristic_quotient(G32) == 6
    assert euler_characteristic_quotient(G21) == 1


# -- (co)homology closed forms -----------------------------------------------

def test_cohomology_low_degrees():
    for G in (G31, G32, G21, G51):
        assert cohomology_bgamma(G, 0) == GroupExpression.free(1)
        assert cohomology_bgamma(G, 1).is_zero()


def test_cohomology_p3_k1_degree2():
    assert cohomology_bgamma(G31, 2) == fg_expression(1, 3, 2)


def test_homology_p3_k1_degree3():
    assert homology_bgamma(G31, 3) == fg_expression(0, 3, 3)


def test_quotient_cohomology():
    assert cohomology_quotient(G31, 1).is_zero()
    assert cohomology_quotient(G31, 3).is_zero()
    assert cohomology_quotient(G32, 3) == fg_expression(0, 3, 3)


def test_quotient_homology_top():
    # orientable quotient in even rank: top homology has no torsion term
    assert homology_quotient(G31, 2) == GroupExpression.free(1)
    assert homology_quotient(G31, 0) == GroupExpression.free(1)


def test_restriction_map_data():
    # restriction to the lattice in even degree m: kernel (Z/p)^{s_m},
    # image on the finite subgroups (Z/p)^{s_{m+1}} (none for m = 0)
    assert fg_expression(0, 3, G31.s(2)) == fg_expression(0, 3, 2)
    assert fg_expression(0, 3, G31.s(3)) == fg_expression(0, 3, 3)
    assert fg_expression(0, 3, G31.s(0)).is_zero()


# -- complex K-theory --------------------------------------------------------

def test_k_bgamma_p3_k1():
    got = k_theory_bgamma(G31, 0, "cohomology")
    assert got == GroupExpression((FreeZ(2), PAdic(3, 6)))
    assert k_theory_bgamma(G31, 1, "cohomology").is_zero()
    assert k_theory_bgamma(G31, 0, "homology") == GroupExpression.free(2)
    got = k_theory_bgamma(G31, 1, "homology")
    assert got == GroupExpression((Pruefer(3, 6),))


def test_k_quotient_bounds():
    assert k_theory_quotient(G31, 1, "cohomology").is_zero()
    got = k_theory_quotient(G32, 1, "cohomology")
    assert got == GroupExpression((UnknownPTorsion("T1", (3, 0)),))
    got0 = k_theory_quotient(G32, 0, "cohomology")
    assert got0 == GroupExpression.free(6)
    hom0 = k_theory_quotient(G32, 0, "homology")
    assert hom0 == GroupExpression((FreeZ(6), UnknownPTorsion("T1", (3, 0))))


def test_k_periodicity():
    assert k_theory_bgamma(G31, 4, "cohomology") == k_theory_bgamma(G31, 0, "cohomology")
    assert k_theory_bgamma(G31, -1, "homology") == k_theory_bgamma(G31, 1, "homology")


# -- KO theory ---------------------------------------------------------------

def test_ko_rejects_p2():
    with pytest.raises(OddPrimeRequiredError):
        ko_theory(G21, 0)
    with pytest.raises(OddPrimeRequiredError):
        cstar_k_theory(G21, 0, "real")
    with pytest.raises(OddPrimeRequiredError):
        connective_ko(G21, 0)


def test_ko_bgamma_odd_degree():
    got = expr_evaluate(ko_theory(G31, 1, "bgamma", "cohomology"))
    assert got == GroupExpression((CyclicPrimePower(2, 1, 1),))


def test_ko_bgamma_even_degree():
    got = expr_evaluate(ko_theory(G31, 0, "bgamma", "cohomology"))
    assert got == GroupExpression((FreeZ(1), CyclicPrimePower(2, 1, 1),
                                   PAdic(3, 3)))


def test_ko_quotient_unknowns():
    got = ko_theory(G32, 2, "quotient", "homology")
    unknowns = [s for s in got.summands if isinstance(s, UnknownPTorsion)]
    assert unknowns == [UnknownPTorsion("TO^7", (3,))]
    got0 = ko_theory(G32, 0, "quotient", "homology")
    assert not any(isinstance(s, UnknownPTorsion) for s in got0.summands)


def test_ko_homology_bgamma_pruefer_only_odd():
    even = ko_theory(G31, 0, "bgamma", "homology")
    odd = ko_theory(G31, 1, "bgamma", "homology")
    assert even.pruefer_rank(3) == 0
    assert odd.pruefer_rank(3) == 3


# -- C*-algebra K-theory -----------------------------------------------------

def test_cstar_complex_p2():
    for n in (1, 2, 3):
        G = canonical_gamma(2, n)
        assert cstar_k_theory(G, 0) == GroupExpression.free(3 * 2 ** (n - 1))
        assert cstar_k_theory(G, 1).is_zero()


def test_cstar_complex_p3():
    assert cstar_k_theory(G31, 0) == GroupExpression.free(8)
    assert cstar_k_theory(G31, 1).is_zero()
    assert d_even(G31) == 8 and d_odd(G31) == 0


def test_cstar_real_desk_value():
    got = expr_evaluate(cstar_k_theory(G31, 0, "real"))
    assert got == GroupExpression.free(4)


def test_equivariant_matches_cstar():
    for G in (G31, G32, G21, G51):
        for m in (0, 1):
            assert equivariant_k(G, m) == cstar_k_theory(G, m, "complex")


PAPER_SHAPES = ([(2, k) for k in range(1, 13)] + [(3, k) for k in range(1, 9)]
                + [(5, k) for k in range(1, 5)] + [(7, k) for k in range(1, 4)]
                + [(13, 3), (61, 1), (1009, 1)])


@pytest.mark.parametrize("p, k", PAPER_SHAPES)
def test_scalars_match_the_papers_closed_forms(p, k, monkeypatch, fresh_shapes):
    # Davis-Lueck: rk K_0 = d_ev and rk K_1 = d_odd of C*_r(Gamma), and the
    # orbit space has Euler characteristic (p - 1)p^(k-1)
    G = canonical_gamma(p, k)
    if p == 2:
        ev, odd = 3 * 2 ** (G.n - 1), 0
    else:
        assert (2 ** ((p - 1) * k) + p - 1) % (2 * p) == 0
        half = (2 ** ((p - 1) * k) + p - 1) // (2 * p)
        tilt = (p - 1) * p ** (k - 1) // 2
        ev, odd = half + tilt + (p - 1) * p ** k, half - tilt
    assert (d_even(G), d_odd(G)) == (ev, odd)
    assert euler_characteristic_quotient(G) == (p - 1) * p ** (k - 1)
    for m in (0, 1):
        assert equivariant_k(G, m) == cstar_k_theory(G, m, "complex")
    # the scalars are only as good as the check of the r-sums behind them
    rv = G.r()
    monkeypatch.setattr(repring, "r_vector",
                        lambda p, k, av=None: (rv[0] + 1,) + rv[1:])
    crystal.shape.cache_clear()
    fresh = crystal.GammaDescriptor(p, G.n, k, G.module, True)
    with pytest.raises(ArithmeticError):
        d_even(fresh)
    with pytest.raises(ArithmeticError):
        euler_characteristic_quotient(fresh)


def test_equivariant_sequences_ranks():
    seqs = equivariant_exact_sequences(G31, 0)
    assert seqs.complex_seq.left == GroupExpression.free(6)
    assert seqs.complex_seq.middle.free_rank == 8
    assert expr_evaluate(seqs.complex_seq.right).free_rank == 2
    assert seqs.real_seq.left == GroupExpression.free(3)
    seqs2 = equivariant_exact_sequences(G21, 0)
    assert seqs2.real_seq is None
    with pytest.raises(ValueError):
        equivariant_exact_sequences(G31, 1)


# -- connective theory -------------------------------------------------------

def test_connective_ko_bottom():
    assert expr_evaluate(connective_ko(G31, 0, "bgamma")) \
        == GroupExpression.free(1)


def test_connective_ko_degree2():
    got = expr_evaluate(connective_ko(G31, 2, "bgamma"))
    assert got == GroupExpression((FreeZ(1), CyclicPrimePower(2, 1, 1)))


def test_connective_unknown_placement():
    odd_b = connective_ko(G31, 3, "bgamma")
    assert any(isinstance(s, UnknownPTorsion) for s in odd_b.summands)
    even_q = connective_ko(G31, 2, "quotient")
    assert any(isinstance(s, UnknownPTorsion) for s in even_q.summands)
    assert not any(isinstance(s, UnknownPTorsion)
                   for s in connective_ko(G31, 2, "bgamma").summands)
    assert not any(isinstance(s, UnknownPTorsion)
                   for s in connective_ko(G31, 3, "quotient").summands)
    assert not any(isinstance(s, UnknownPTorsion)
                   for s in connective_ko(G31, 0, "quotient").summands)


def test_connective_quotient_matches_bgamma_away_from_p():
    # after inverting p both sides agree; concretely the evaluated
    # expressions agree once unknown p-torsion is dropped
    def strip(e):
        return GroupExpression(tuple(
            s for s in expr_evaluate(e).summands
            if not isinstance(s, UnknownPTorsion)))
    for m in range(8):
        assert strip(connective_ko(G31, m, "bgamma")) \
            == strip(connective_ko(G31, m, "quotient"))



@given(st.sampled_from([(3, 1), (3, 4), (5, 2), (7, 1), (2, 3)]),
       st.sampled_from([KOPoint, KoPoint]), st.integers(-12, 20),
       st.sampled_from([1, -1]))
@settings(max_examples=100, deadline=None)
def test_point_sum_matches_normalize(shape, point, m, sign):
    # _point_sum builds its canonical tuple directly; the reference is the
    # element-wise list through the general normalizer
    G = canonical_gamma(*shape)
    rv = G.r()
    expect = GroupExpression(tuple(point(sign * (m - l), rv[l])
                                   for l in range(G.n + 1)))
    assert crystal._point_sum(G, point, m, sign).summands == expect.summands

# -- spectral assembly -------------------------------------------------------

def test_brute_force_examples():
    assert brute_force_cohomology_bgamma(G31, 0) == GroupExpression.free(1)
    assert brute_force_cohomology_bgamma(G31, 1).is_zero()
    assert brute_force_cohomology_bgamma(G31, 2) == cohomology_bgamma(G31, 2)


def test_brute_force_small_grid():
    for G in (G31, G51):
        for m in range(G.n + 1):
            assert brute_force_cohomology_bgamma(G, m) == cohomology_bgamma(G, m)


def test_uct_duality_small():
    for G in (G31, G32, G21):
        for m in range(G.n + 1):
            hm = homology_bgamma(G, m)
            expect = (hom_dual(cohomology_bgamma(G, m))
                      + ext_dual(cohomology_bgamma(G, m + 1)))
            assert hm == expect


# -- report ------------------------------------------------------------------

def test_report_structure():
    rep = build_report(G31)
    assert rep.scalars == {"d_ev": 8, "d_odd": 0, "class_count": 3,
                           "euler": 2, "fixed_points": 3}
    assert set(rep.groups["H^*(BGamma)"]) == {0, 1, 2}
    assert set(rep.groups["K_*(Cstar)"]) == {0, 1}
    assert set(rep.groups["KO_*(CstarR)"]) == set(range(8))
    assert rep.groups["K_*(Cstar)"][0].render() == "Z^8"
    assert rep.warnings == []


def test_report_p2_omits_ko():
    rep = build_report(G21)
    assert "KO^*(BGamma)" not in rep.groups
    assert "ko_*(BGamma)" not in rep.groups
    assert any("p odd required" in w for w in rep.warnings)
    assert rep.groups["K_*(Cstar)"][0].render() == "Z^3"


def test_report_window_override():
    rep = build_report(G31, window=(0, 3))
    assert set(rep.groups["H^*(BGamma)"]) == {0, 1, 2, 3}
    assert set(rep.groups["K_*(Cstar)"]) == {0, 1, 2, 3}


def test_report_noncanonical_cross_checks_clean():
    g = [[1, 2], [0, 1]]
    ginv = [[1, -2], [0, 1]]
    rho = la.matmul(la.matmul(g, G31.rho), ginv)
    H = validate_gamma(3, rho)
    rep = build_report(H)
    assert not H.canonical
    assert rep.warnings == []
    assert rep.groups["K_*(Cstar)"][0].render() == "Z^8"


def test_report_json_dict_shape():
    d = build_report(G31).to_json_dict()
    assert list(d) == ["descriptor", "scalars", "groups", "warnings"]
    assert d["descriptor"]["rho"] == [[0, -1], [1, -1]]
    assert d["groups"]["H^*(BGamma)"]["2"] == "Z (+) (Z/3)^2"


def test_one_rank_elimination_of_rho_minus_id(monkeypatch, fresh_shapes):
    # the first report of a fresh shape ranks one (p - 1)-wide cyclotomic
    # block over F_l and F_p; every later report of the shape reads its
    # cokernel, and none takes a Smith form
    from crystalk import cli
    seen = []
    original = la.ranks_mod_rows

    def counting(rows, moduli):
        rows = list(rows)
        seen.append((len(rows), tuple(moduli)))
        return original(rows, moduli)

    def refuse(M):
        raise AssertionError("Smith form in a report")
    monkeypatch.setattr(la, "ranks_mod_rows", counting)
    monkeypatch.setattr(la, "cokernel_structure", refuse)
    for p, k in ((3, 2), (5, 2)):
        for _ in range(2):
            G = canonical_gamma(p, k)
            build_report(G)
            crystal.abelianization(G)
    assert seen == [(2, (2, 3)), (4, (2, 5))]
    payload = cli._oracle_payload(canonical_gamma(5, 2))
    assert payload["coker_invariant_factors"] == [5, 5]


def _seeded_conjugate(p, k, seed):
    import random
    from crystalk.verify import _random_unimodular
    G = canonical_gamma(p, k)
    g, g_inv = _random_unimodular(random.Random(seed), G.n)
    H = validate_gamma(p, la.matmul(la.matmul(g, G.rho), g_inv))
    assert not H.canonical
    return H


@pytest.mark.parametrize("p, k, seed", [(3, 2, 5), (5, 1, 7), (3, 3, 11),
                                        (7, 1, 13)])
def test_assembly_matches_the_dual_route(p, k, seed):
    # the paper's E2 term reads Lambda^j of the dual lattice; the assembly
    # reads Lambda^j of the supplied rho, which has the same Tate groups and
    # fixed ranks
    H = _seeded_conjugate(p, k, seed)
    dual = zpmod.dual(H.module)
    for m in range(H.n + 1):
        by_dual = GroupExpression.zero()
        for j in range(m + 1):
            ext = zpmod.exterior_power(dual, j)
            if j == m:
                by_dual += GroupExpression.free(zpmod.fixed_rank(ext))
            else:
                by_dual += zpmod.tate(ext, m - j)
        assert brute_force_cohomology_bgamma(H, m) == by_dual, m


def test_cokernel_mismatch_guards_the_coinvariants(monkeypatch, fresh_shapes):
    # coker(rho - id) is read off the F_p rank of rho - id, and a group
    # other than (Z/p)^k is still refused: here a wrong rank, one too low
    original = la.ranks_mod_rows

    def wrong(rows, moduli):
        rank_l, rank_p = original(rows, moduli)
        return rank_l, rank_p - 1
    monkeypatch.setattr(la, "ranks_mod_rows", wrong)
    with pytest.raises(crystal.CokernelMismatchError, match=r"\(Z/3\)\^4"):
        finite_subgroup_data(canonical_gamma(3, 2))
    H = _seeded_conjugate(3, 2, 5)
    with pytest.raises(crystal.CokernelMismatchError, match=r"\(Z/3\)\^3"):
        build_report(H)


def test_the_cokernel_keeps_its_free_part():
    # the rank route reads Z^(fixed rank) (+) Tate^1, exact on any module:
    # a hand-built descriptor whose torsion is (Z/p)^k but whose module
    # fixes a plane is still refused
    mod = zpmod.direct_sum(zpmod.make_cyclotomic(3), zpmod.make_trivial(3, 2))
    G = crystal.GammaDescriptor(3, 4, 1, mod, False)
    with pytest.raises(crystal.CokernelMismatchError,
                       match=r"= Z\^2 \(\+\) Z/3, expected Z/3$"):
        finite_subgroup_data(G)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                        (7, 1)]), st.integers(0, 2 ** 32))
def test_the_rank_route_cokernel_is_the_smith_form(shape_pk, seed):
    # on seeded conjugates of the canonical action, the cokernel read off
    # the prime-field ranks is the dense Smith form of rho - id
    import random
    from crystalk.verify import _random_unimodular
    p, k = shape_pk
    G = canonical_gamma(p, k)
    g, g_inv = _random_unimodular(random.Random(seed), G.n)
    H = validate_gamma(p, la.matmul(la.matmul(g, G.rho), g_inv))
    dense = la.cokernel_structure(list(la.minus_identity(H.rho)))
    assert finite_subgroup_data(H).cokernel == dense
    assert dense == GroupExpression.elementary(p, k)


@pytest.mark.parametrize("p, k, seed", [(3, 2, 5), (5, 2, 3)])
def test_conjugate_report_builds_no_exterior_power(monkeypatch, p, k, seed):
    # the closed forms depend only on (p, k): a report on a supplied action
    # reads it through validation and the Smith form of rho - id alone

    def refuse(*args):
        raise AssertionError("exterior power built")
    monkeypatch.setattr(zpmod, "exterior_power", refuse)
    H = _seeded_conjugate(p, k, seed)
    rep = build_report(H)
    assert rep.warnings == []
    assert rep.groups == build_report(canonical_gamma(p, k)).groups


def test_cross_check_builds_no_norm_matrix(monkeypatch):
    # the norm matrix belongs to verify's reference oracle only; a report on
    # a supplied action, whose groups are the closed forms, never needs it

    def refuse(self):
        raise AssertionError("norm matrix built")
    monkeypatch.setattr(zpmod.ZpModule, "norm_matrix", refuse)
    H = _seeded_conjugate(3, 2, 5)
    rep = build_report(H)
    assert rep.warnings == []
    assert rep.groups["H^*(BGamma)"] == build_report(G32).groups["H^*(BGamma)"]


def test_cross_check_builds_no_dual_module(monkeypatch):
    # the dual lattice is read only by the dual-route test above

    def refuse(m):
        raise AssertionError("dual module built")
    monkeypatch.setattr(zpmod, "dual", refuse)
    H = _seeded_conjugate(3, 2, 5)
    rep = build_report(H)
    assert rep.warnings == []
    assert rep.groups["H^*(BGamma)"] == build_report(G32).groups["H^*(BGamma)"]


def test_conjugate_report_ignores_the_guardrail():
    # a report builds no exterior power: one of n = 20, and one of (17, 1),
    # whose exterior powers the bound refuses in every degree
    H = _seeded_conjugate(3, 10, 310)
    rep = build_report(H)
    assert rep.warnings == []
    assert rep.groups == build_report(canonical_gamma(3, 10)).groups
    G = canonical_gamma(17, 1)
    assert build_report(G).warnings == []
    assert not [key for key in G.module._cache if key[0] == "ext"]
    with pytest.raises(zpmod.ExteriorGuardrailError):
        G.exterior(0)


# -- the shape memo ------------------------------------------------------------

def _action_of_shape(p, k, seed):
    """A seeded conjugate of the canonical (p, k) action (for p = 2, whose
    canonical action -I is its only conjugate, that action)."""
    return canonical_gamma(p, k) if p == 2 else _seeded_conjugate(p, k, seed)


@pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (3, 4), (5, 2), (7, 1)])
def test_every_action_of_a_shape_has_the_memoized_families(p, k, fresh_shapes):
    # the premise of the memo: each family is a function of (p, k) alone,
    # so evaluating it afresh on any action of the shape gives the table
    build_report(canonical_gamma(p, k))
    table = dict(crystal.shape(p, k)._cache["families"])
    assert list(table) == [name for name, _e, _w, odd in crystal.REPORT_FAMILIES
                           if not (odd and p == 2)]
    for seed in (3, 4):
        crystal.shape.cache_clear()
        H = _action_of_shape(p, k, seed)
        for name, evaluate, _w, _odd in crystal.REPORT_FAMILIES:
            for m, group in table.get(name, ()):
                assert expr_evaluate(evaluate(H, m)) == group, (name, m)
        assert "families" not in crystal.shape(p, k)._cache


def test_a_report_owns_its_groups():
    from crystalk import cli
    G = _seeded_conjugate(3, 2, 5)
    first = build_report(G)
    expect = cli.render_report_json(build_report(G))
    first.groups["H^*(BGamma)"][0] = GroupExpression.free(99)
    del first.groups["K_*(Cstar)"]
    first.groups["extra"] = {}
    assert cli.render_report_json(build_report(G)) == expect


def test_the_memo_keeps_at_most_its_bound(fresh_shapes):
    shapes = [(2, k) for k in range(1, 13)] + [(3, k) for k in range(1, 7)]
    for p, k in shapes:
        build_report(canonical_gamma(p, k))
    info = crystal.shape.cache_info()
    assert info.maxsize == 16 and info.misses == 18
    assert info.currsize == 16


@pytest.mark.parametrize("window", [(-11, 19), (2, 2), (0, 30)])
def test_a_windowed_report_is_evaluated_directly(window, fresh_shapes):
    G = _seeded_conjugate(5, 2, 3)
    default = build_report(G)
    table = crystal.shape(5, 2)._cache["families"]
    keys = set(crystal.shape(5, 2)._cache)
    windowed = build_report(G, window)
    lo, hi = window
    for name, evaluate, kind, _odd in crystal.REPORT_FAMILIES:
        from_zero = kind in ("H", "ko")
        degrees = range(max(lo, 0) if from_zero else lo, hi + 1)
        assert windowed.groups[name] == {
            m: expr_evaluate(evaluate(G, m)) for m in degrees}, name
    assert crystal.shape(5, 2)._cache["families"] is table
    assert build_report(G).groups == default.groups
    # a window is evaluated directly: the shape gains no entry from it
    assert set(crystal.shape(5, 2)._cache) == keys


def test_a_wide_window_leaves_only_the_default_memo(fresh_shapes):
    # the point sums are read off the shape's r_mod8, so after any mix of
    # default and windowed reports the shape keeps only the default
    # families and the canonical cokernel
    G = _seeded_conjugate(5, 2, 3)
    build_report(G)
    build_report(G, (-2000, 2000))
    build_report(canonical_gamma(5, 2), (-2000, 2000))
    build_report(canonical_gamma(5, 2))
    assert set(crystal.shape(5, 2)._cache) == {"families", "cokernel"}


def test_k_and_ko_families_evaluate_one_period(monkeypatch):
    # K and KO are 2- and 8-periodic (Bott), so a wide window evaluates
    # each K family in at most 2 degrees and each KO family in at most 8;
    # (co)homology and ko are evaluated once in each of their degrees
    calls = collections.Counter()

    def counted(name):
        evaluate = getattr(crystal, name)

        def wrapper(G, m, *args):
            calls[name, args] += 1
            return evaluate(G, m, *args)
        return wrapper
    periodic = {"k_theory_bgamma": 2, "k_theory_quotient": 2,
                "equivariant_k": 2, "ko_theory": 8, "equivariant_ko": 8}
    every_degree = ("cohomology_bgamma", "homology_bgamma",
                    "cohomology_quotient", "homology_quotient",
                    "connective_ko")
    for name in (*periodic, *every_degree, "cstar_k_theory"):
        monkeypatch.setattr(crystal, name, counted(name))
    G = _seeded_conjugate(5, 2, 3)
    report = build_report(G, (-2000, 2000))
    assert len(report.groups["KO_*(CstarR)"]) == 4001
    for (name, args), count in calls.items():
        if name == "cstar_k_theory":
            assert count <= (2 if args == ("complex",) else 8), args
        elif name in periodic:
            assert count <= periodic[name], (name, args)
        else:
            assert count == 2001, (name, args)
    assert len(calls) == 18


@pytest.mark.parametrize("p, k", [(3, 1), (5, 2), (7, 3)])
def test_a_ko_point_sum_is_read_off_r_by_residue(p, k):
    # r_mod8[c] sums the r_l with l = c mod 8; the point sum read off it
    # is the one counted class by class over r
    G = canonical_gamma(p, k)
    sh = crystal.shape(p, k)
    assert sum(sh.r_mod8) == sh.r_sums["sum_all"]
    for sign in (1, -1):
        for m in range(-16, 17):
            counts = [0] * 8
            for l, r in enumerate(sh.r):
                counts[sign * (m - l) % 8] += r
            assert crystal._point_sum(G, KOPoint, m, sign) == GroupExpression(
                tuple(KOPoint(d, c) for d, c in enumerate(counts))), (sign, m)


def test_a_window_over_the_limit_is_refused_before_any_work(monkeypatch):
    # the cost and the report grow with the width: a window of more than
    # MAX_WINDOW degrees is refused by name before the cokernel or any
    # family is evaluated; the widest admitted window is evaluated
    def refuse(*args):
        raise AssertionError("evaluated")
    fsd = crystal.finite_subgroup_data
    monkeypatch.setattr(crystal, "finite_subgroup_data", refuse)
    monkeypatch.setattr(crystal, "_evaluate_families", refuse)
    limit = crystal.MAX_WINDOW
    for window in ((0, limit), (-limit, 0), (-3000, 3000), (0, 10 ** 12)):
        with pytest.raises(crystal.BadWindowError, match=(
                rf"^BadWindow: degree window \({window[0]}, {window[1]}\) "
                rf"spans {window[1] - window[0] + 1} degrees; "
                rf"the limit is {limit}$")):
            build_report(G31, window)
    seen = []
    monkeypatch.setattr(crystal, "finite_subgroup_data", fsd)
    monkeypatch.setattr(crystal, "_evaluate_families",
                        lambda G, window: seen.append(window) or ())
    for window in ((0, limit - 1), (-2000, 2000)):
        build_report(G31, window)
    assert seen == [(0, limit - 1), (-2000, 2000)]


def test_an_empty_window_is_refused_before_any_work(monkeypatch):
    # as a window over the limit, an empty window is refused before the
    # cokernel or any family is evaluated
    def refuse(*args):
        raise AssertionError("evaluated")
    monkeypatch.setattr(crystal, "finite_subgroup_data", refuse)
    monkeypatch.setattr(crystal, "_evaluate_families", refuse)
    for window in ((1, 0), (3, -1), (0, -10 ** 12)):
        with pytest.raises(ValueError, match=(
                rf"^empty degree window \({window[0]}, {window[1]}\)$")):
            build_report(G31, window)


def _reachable(value):
    """Every object reachable from value through containers and dataclass
    fields."""
    import dataclasses
    from collections.abc import Mapping
    stack, out = [value], []
    while stack:
        x = stack.pop()
        out.append(x)
        if isinstance(x, Mapping):
            stack += [*x.keys(), *x.values()]
        elif isinstance(x, (tuple, list, set, frozenset)):
            stack += list(x)
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            stack += [getattr(x, f.name) for f in dataclasses.fields(x)]
    return out


@pytest.mark.parametrize("p, k", [(3, 2), (2, 4), (5, 1)])
def test_the_shape_holds_no_module_rows_or_exterior_data(p, k, fresh_shapes):
    # verify fills the module with exterior powers and the report fills
    # the shape; the shape keeps the cokernel as a group, and nothing whose
    # size grows with n
    from crystalk import cli, verify
    G = canonical_gamma(p, k)
    assert all(r.ok for r in verify.run_all(p, k, gamma=G))
    text = cli.render_report_json(build_report(G))
    assert any(key[0] == "ext" for key in G.module._cache
               if isinstance(key, tuple))
    sh = crystal.shape(p, k)
    assert sh._cache["cokernel"] == GroupExpression.elementary(p, k)
    rho_text = text[text.index('"rho"'):text.index('"scalars"')]
    for x in _reachable(sh._cache):
        assert not isinstance(
            x, (zpmod.ZpModule, zpmod.ExteriorPower, list)), type(x)
        assert not (isinstance(x, str) and rho_text in x)
    assert not [key for key in sh._cache if isinstance(key, tuple)
                and key[0] in ("ext", "block_types", "block_compound",
                               "summand")]


def test_a_descriptor_memoizes_only_what_its_action_gives():
    # the descriptor keeps no memo: a report leaves its module the field
    # ranks of validation, and the spectral assembly its exterior powers
    H = _seeded_conjugate(3, 2, 5)
    build_report(H)
    assert not hasattr(H, "_cache")
    assert set(H.module._cache) == {"field_ranks"}
    for m in range(H.n + 1):
        brute_force_cohomology_bgamma(H, m)
    assert ("ext", H.n) in H.module._cache


def test_threads_share_the_shape_memo(fresh_shapes):
    # descriptors stay per thread; the shape memo is shared, and a race on
    # it may compute an entry twice but must not change a report
    import sys
    import threading
    from crystalk import cli
    actions = [(p, _seeded_conjugate(p, k, seed).rho)
               for p, k in ((3, 2), (5, 1)) for seed in (5, 7, 11)]

    def reports(order):
        return {i: cli.render_report_json(build_report(validate_gamma(*actions[i])))
                for i in order}
    serial = reports(range(len(actions)))
    rounds = 8
    # each round starts from an empty memo, all four threads at once
    start = threading.Barrier(4, action=crystal.shape.cache_clear, timeout=60)
    results = [[] for _ in range(4)]

    def work(t):
        for _ in range(rounds):
            start.wait()
            results[t].append(reports([(i + t) % len(actions)
                                       for i in range(len(actions))]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[serial] * rounds] * 4


# -- the order check on rows, and no shared rows ------------------------------

def _passes_order_check(p, rho):
    try:
        validate_gamma(p, rho)
    except WrongOrderError:
        return False
    except crystal.GammaError:
        pass
    return True


@pytest.mark.parametrize("p, k, seed", [(3, 2, 5), (5, 1, 7), (3, 3, 11),
                                        (7, 1, 13), (5, 2, 3), (3, 4, 17)])
def test_order_verdict_matches_numpy_matrix_power(p, k, seed):
    # the conjugate, -rho (order 2p) and a one-entry change (usually of
    # infinite order), each judged by numpy's power of the object array
    rho = _seeded_conjugate(p, k, seed).rho_rows()
    bumped = [row[:] for row in rho]
    bumped[0][0] += 1
    ident = np.eye(len(rho), dtype=int)
    verdicts = []
    for A in (rho, _negated(rho), bumped):
        power = np.linalg.matrix_power(np.array(A, dtype=object), p)
        expect = bool((power == ident).all())
        assert _passes_order_check(p, A) == expect
        verdicts.append(expect)
    assert verdicts[:2] == [True, False]


def test_descriptor_keeps_no_alias_of_its_input():
    from crystalk import cli
    rows = _seeded_conjugate(3, 2, 5).rho_rows()
    reference = [row[:] for row in rows]
    G = validate_gamma(3, rows)
    expected = cli.render_report_json(build_report(G))
    module = G.module
    rows[0][0] += 1
    rows[1].append(9)
    rows.pop()
    assert G.rho == module.action == reference and G.n == module.rank == 4
    assert cli.render_report_json(build_report(G)) == expected
    # rho_rows hands out a fresh copy, the caller's to change
    copy = G.rho_rows()
    assert copy == G.rho and copy is not G.rho
    assert all(a is not b for a, b in zip(copy, G.rho))
    copy[0][0] = 99
    assert G.rho == reference
    assert cli.render_report_json(build_report(G)) == expected
