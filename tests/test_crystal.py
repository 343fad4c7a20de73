import numpy as np
import pytest

from crystalk import crystal, exact_linalg as la
from crystalk.abelian import (CyclicPrimePower, FGAbelianGroup, FreeZ,
                              GroupExpression, PAdic, Pruefer,
                              UnknownPTorsion, direct_sum, expr_evaluate,
                              ext_dual, fg_expression, hom_dual)
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
    assert "fixed vector" in str(err.value)


def test_validate_not_prime():
    with pytest.raises(NotPrimeError):
        validate_gamma(4, [[-1]])


def test_validate_wrong_power():
    with pytest.raises(WrongOrderError):
        validate_gamma(3, [[-1]])
    # -rho has order 2p: rho^p = id, so (-rho)^p = -id
    with pytest.raises(WrongOrderError):
        validate_gamma(61, -canonical_gamma(61, 1).rho)


def test_canonical_gamma_shapes():
    assert canonical_gamma(3, 1).rho.tolist() == [[0, -1], [1, -1]]
    G2 = canonical_gamma(2, 3)
    assert not np.any(G2.rho != -la.eye(3))
    assert canonical_gamma(5, 2).n == 8


def test_canonical_k_zero_rejected():
    with pytest.raises(BadRankError):
        canonical_gamma(3, 0)


def test_conjugated_matrix_not_canonical():
    g = la.intmat([[1, 1], [0, 1]])
    ginv = la.intmat([[1, -1], [0, 1]])
    rho = g @ G31.rho @ ginv
    H = validate_gamma(3, rho)
    assert not H.canonical
    assert (H.p, H.n, H.k) == (3, 2, 1)


# -- structural data ---------------------------------------------------------

def test_finite_subgroup_data():
    d = finite_subgroup_data(G31)
    assert d.cokernel == FGAbelianGroup.cyclic(3)
    assert d.class_count == d.fixed_point_count == 3
    d2 = finite_subgroup_data(G21)
    assert d2.cokernel == FGAbelianGroup.cyclic(2)
    assert d2.class_count == 2
    d3 = finite_subgroup_data(G32)
    assert d3.cokernel == FGAbelianGroup.elementary(3, 2)
    assert d3.class_count == 9


def test_abelianization():
    assert crystal.abelianization(G31) == FGAbelianGroup.elementary(3, 2)
    assert crystal.abelianization(G21) == FGAbelianGroup.elementary(2, 2)
    assert crystal.abelianization(canonical_gamma(5, 2)) \
        == FGAbelianGroup.elementary(5, 3)


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
            hm = homology_bgamma(G, m).to_fg()
            expect = direct_sum(hom_dual(cohomology_bgamma(G, m).to_fg()),
                                ext_dual(cohomology_bgamma(G, m + 1).to_fg()))
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
    g = la.intmat([[1, 2], [0, 1]])
    ginv = la.intmat([[1, -2], [0, 1]])
    rho = g @ G31.rho @ ginv
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


def test_report_warns_on_assembly_mismatch(monkeypatch):
    monkeypatch.setattr(crystal, "brute_force_cohomology_bgamma",
                        lambda G, m: GroupExpression.free(99))
    rep = build_report(G31, cross_check=True)
    assert any("disagrees" in w for w in rep.warnings)


def test_report_warns_when_guardrail_blocks_cross_check(monkeypatch):
    monkeypatch.setenv("CRYSTALK_MAX_EXT_DIM", "1")
    g = la.intmat([[1, 1], [0, 1]])
    ginv = la.intmat([[1, -1], [0, 1]])
    H = crystal.validate_gamma(3, g @ G31.rho @ ginv)
    rep = build_report(H)
    assert any("guardrail" in w for w in rep.warnings)
