import random
from itertools import combinations

import numpy as np
import pytest

from crystalk import exact_linalg as la
from crystalk import zpmod
from crystalk.abelian import FGAbelianGroup
from crystalk.verify import random_order_p_module
from crystalk.zpmod import (ZpModule, compound_matrix, coinvariants, dual,
                            direct_sum, exterior_power, fixed_rank,
                            invariants, make_cyclotomic, make_regular,
                            make_trivial, tate, tensor)

PRIMES = (2, 3, 5, 7)


# -- constructors ------------------------------------------------------------

def test_cyclotomic_p3_matrix():
    assert make_cyclotomic(3).action.tolist() == [[0, -1], [1, -1]]


def test_regular_p2_matrix():
    assert make_regular(2).action.tolist() == [[0, 1], [1, 0]]


def test_cyclotomic_orders():
    for p in PRIMES:
        mod = make_cyclotomic(p)
        mod.validate()
        power = la.eye(mod.rank)
        for _ in range(p):
            power = power @ mod.action
        assert not np.any(power != la.eye(mod.rank))
        if p > 2:
            assert np.any(mod.action != la.eye(mod.rank))


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        make_cyclotomic(6)
    with pytest.raises(ValueError):
        ZpModule(4, [[0, 1], [-1, -1]])


def test_wrong_order_rejected():
    with pytest.raises(ValueError):
        ZpModule(3, [[2]])
    # finite orders 4 and 2p do not divide p
    with pytest.raises(ValueError):
        ZpModule(5, [[0, -1], [1, 0]])
    with pytest.raises(ValueError):
        ZpModule(61, -make_cyclotomic(61).action)


@pytest.mark.parametrize("seed", range(4))
def test_squared_power_matches_repeated_product(seed):
    # the order checks square object arrays; the entries must stay exact
    rng = random.Random(seed)
    p = rng.choice(PRIMES)
    conj = random_order_p_module(rng, p).action
    for A in (conj, la.intmat([[2, 1], [1, 1]])):
        naive = la.eye(A.shape[0])
        for e in range(2 * p + 2):
            assert not np.any(np.linalg.matrix_power(A, e) != naive), (p, e)
            naive = naive @ A
    assert not np.any(np.linalg.matrix_power(conj, p) != la.eye(conj.shape[0]))


# -- combinators -------------------------------------------------------------

def test_direct_sum_of_trivials():
    got = direct_sum(make_trivial(3, 2), make_trivial(3, 3))
    assert not np.any(got.action != la.eye(5))


def test_tensor_with_unit():
    c = make_cyclotomic(5)
    got = tensor(make_trivial(5, 1), c)
    assert not np.any(got.action != c.action)


def test_tensor_cyclotomic_squared_fixed_rank():
    got = tensor(make_cyclotomic(3), make_cyclotomic(3))
    assert fixed_rank(got) == 2


def test_mismatched_primes():
    with pytest.raises(ValueError):
        direct_sum(make_trivial(3, 1), make_trivial(5, 1))
    with pytest.raises(ValueError):
        tensor(make_cyclotomic(3), make_cyclotomic(5))


def test_exterior_degree_zero():
    got = exterior_power(make_cyclotomic(5), 0)
    assert got.action.tolist() == [[1]]


def test_exterior_top_degree():
    got = exterior_power(make_cyclotomic(3), 2)
    assert got.action.tolist() == [[1]]


def test_exterior_out_of_range():
    with pytest.raises(ValueError):
        exterior_power(make_cyclotomic(3), 3)
    with pytest.raises(ValueError):
        exterior_power(make_cyclotomic(3), -1)


def test_exterior_guardrail(monkeypatch):
    monkeypatch.setenv("CRYSTALK_MAX_EXT_DIM", "5")
    with pytest.raises(ValueError, match="guardrail"):
        exterior_power(make_trivial(3, 6), 3)
    monkeypatch.setenv("CRYSTALK_MAX_EXT_DIM", "30")
    exterior_power(make_trivial(3, 6), 3)


def test_compound_matches_minors():
    rng = random.Random(7)
    for _ in range(5):
        A = la.intmat([[rng.randint(-3, 3) for _ in range(4)]
                       for _ in range(4)])
        for deg in (1, 2, 3):
            got = compound_matrix(A, deg)
            subsets = list(combinations(range(4), deg))
            for ri, rows in enumerate(subsets):
                for ci, cols in enumerate(subsets):
                    minor = la.determinant(A[np.ix_(rows, cols)])
                    assert got[ri, ci] == minor


def test_conjugate_rejects_wrong_inverse():
    c = make_cyclotomic(3)
    g, g_inv = la.intmat([[1, 2], [0, 1]]), la.intmat([[1, -2], [0, 1]])
    good = zpmod.conjugate(c, g, g_inv)
    assert good.action.tolist() == (g @ c.action @ g_inv).tolist()
    for wrong in ([[1, 2], [0, 1]], [[1, 0], [0, 1]], [[1, -2, 0], [0, 1, 0]]):
        with pytest.raises(ValueError):
            zpmod.conjugate(c, g, wrong)


def test_dual_is_transpose():
    c = make_cyclotomic(3)
    assert dual(c).action.tolist() == [[0, 1], [-1, -1]]
    t = make_trivial(5, 2)
    assert not np.any(dual(t).action != t.action)


def test_dual_of_regular_isomorphic():
    reg = make_regular(5)
    dreg = dual(reg)
    assert fixed_rank(dreg) == fixed_rank(reg) == 1
    for i in (0, 1):
        assert tate(dreg, i) == tate(reg, i)


def test_order_preserved_by_combinators():
    for p in (2, 3, 5):
        c = make_cyclotomic(p)
        built = [dual(c), tensor(c, c), exterior_power(c, min(2, p - 1)),
                 direct_sum(c, make_trivial(p, 1))]
        for mod in built:
            mod.validate()


def test_derived_power_matches_repeated_multiplication():
    c = make_cyclotomic(5)
    mods = [exterior_power(c, 2), tensor(c, make_regular(5)), dual(c),
            direct_sum(c, c)]
    for mod in mods:
        plain = ZpModule(mod.p, mod.action, check=False)
        for j in range(mod.p):
            assert not np.any(mod.power(j) != plain.power(j))
        assert not np.any(mod.norm_matrix() != plain.norm_matrix())


# -- invariants, coinvariants, Tate ------------------------------------------

def test_invariants_trivial():
    rank, basis = invariants(make_trivial(3, 4))
    assert rank == 4 and basis.shape == (4, 4)


def test_invariants_cyclotomic_none():
    for p in PRIMES:
        assert invariants(make_cyclotomic(p))[0] == 0


def test_invariants_regular_orbit_sum():
    rank, basis = invariants(make_regular(5))
    assert rank == 1
    col = [int(x) for x in basis[:, 0]]
    assert col == [col[0]] * 5 and abs(col[0]) == 1


def test_coinvariants():
    assert coinvariants(make_trivial(5, 3)) == FGAbelianGroup.free(3)
    assert coinvariants(make_cyclotomic(3)) == FGAbelianGroup.cyclic(3)
    assert coinvariants(make_regular(7)) == FGAbelianGroup.free(1)


def test_tate_trivial_module():
    for p in PRIMES:
        mod = make_trivial(p, 1)
        assert tate(mod, 0) == FGAbelianGroup.cyclic(p)
        assert tate(mod, 1).is_trivial()


def test_tate_regular_acyclic():
    for p in PRIMES:
        mod = make_regular(p)
        for i in range(-2, 3):
            assert tate(mod, i).is_trivial()


def test_tate_cyclotomic():
    for p in PRIMES:
        mod = make_cyclotomic(p)
        assert tate(mod, 0).is_trivial()
        assert tate(mod, 1) == FGAbelianGroup.cyclic(p)


def test_tate_periodicity():
    rng = random.Random(11)
    for p in (3, 5):
        for _ in range(3):
            mod = random_order_p_module(rng, p, max_rank=6)
            vals = {i: tate(mod, i) for i in range(-3, 4)}
            for i in range(-3, 2):
                assert vals[i] == vals[i + 2]


def test_tate_checkerboard_small():
    for p, k in ((3, 1), (3, 2), (5, 1)):
        base = zpmod.direct_sum_modules([make_cyclotomic(p)] * k)
        n = k * (p - 1)
        from crystalk.repring import a_j
        for j in range(n + 1):
            mod = exterior_power(base, j)
            for i in (0, 1):
                got = tate(mod, i)
                if (i + j) % 2 == 0:
                    assert got == FGAbelianGroup.elementary(p, a_j(p, k, j))
                else:
                    assert got.is_trivial()


def test_tate_duality_sample():
    rng = random.Random(23)
    for p in (3, 5):
        for _ in range(10):
            mod = random_order_p_module(rng, p, max_rank=6)
            dmod = dual(mod)
            for i in (-2, -1, 0, 1, 2):
                assert tate(mod, i) == tate(dmod, -i)


def test_dual_conventions_equivalent():
    # plain transpose vs inverse-transpose differ by a group automorphism
    rng = random.Random(5)
    for p in (3, 5):
        for _ in range(4):
            mod = random_order_p_module(rng, p, max_rank=6)
            plain = dual(mod)
            inv_t = ZpModule(p, mod.power(p - 1).T.copy(), check=False)
            assert fixed_rank(plain) == fixed_rank(inv_t)
            for i in (0, 1):
                assert tate(plain, i) == tate(inv_t, i)


def test_norm_sequence_bookkeeping():
    rng = random.Random(31)
    for p in (3, 5):
        for _ in range(5):
            mod = random_order_p_module(rng, p, max_rank=6)
            co = coinvariants(mod)
            assert co.free_rank == fixed_rank(mod)
            assert co.torsion_subgroup() == tate(mod, 1)


# Group (co)homology of Z/p with coefficients in a module: H^0 is the fixed
# lattice, H_0 the coinvariants, and above degree 0 H^i = Tate^i and
# H_i = Tate^(i+1).

def test_group_cohomology_examples():
    cyc = make_cyclotomic(3)
    assert tate(cyc, 1) == FGAbelianGroup.cyclic(3)
    assert tate(cyc, 1) == coinvariants(cyc)
    assert fixed_rank(make_trivial(5, 2)) == 2
    assert fixed_rank(make_cyclotomic(5)) == 0


def test_group_homology_examples():
    assert tate(make_trivial(3, 1), 2) == FGAbelianGroup.cyclic(3)
    assert coinvariants(make_cyclotomic(3)) == FGAbelianGroup.cyclic(3)


def test_homology_cohomology_periodic_ladder():
    rng = random.Random(47)
    mod = random_order_p_module(rng, 3, max_rank=5)
    for i in (1, 3):
        assert tate(mod, i) == tate(mod, 1)
        assert tate(mod, i + 1) == tate(mod, 0)
    for i in (2, 4):
        assert tate(mod, i) == tate(mod, 0)
        assert tate(mod, i + 1) == tate(mod, 1)


def test_herbrand_quotient_of_mixed_modules():
    # |H^0| / |H^1| = p^(trivial blocks - cyclotomic blocks); the quotient
    # is blind to regular blocks and to the choice of lattice basis
    from crystalk.verify import _random_unimodular
    for trial in range(12):
        rng = random.Random(900 + trial)
        p = rng.choice([3, 5])
        a, b, c = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)
        if a + b + c == 0:
            b = 1
        mods = ([make_trivial(p, 1)] * a + [make_cyclotomic(p)] * b
                + [make_regular(p)] * c)
        mod = zpmod.direct_sum_modules(mods)
        mod = zpmod.conjugate(mod, *_random_unimodular(rng, mod.rank))
        h0 = tate(mod, 0).order()
        h1 = tate(mod, 1).order()
        assert h0 * p ** max(b - a, 0) == h1 * p ** max(a - b, 0), \
            (p, a, b, c, h0, h1)


def test_fixed_rank_matches_character_theory():
    # third, fully independent route: trace of every generator power gives
    # the exterior fixed rank through Newton's identities, with no compound
    # matrix and no kernel computation involved
    from fractions import Fraction
    from crystalk.crystal import canonical_gamma
    for p, k in ((3, 2), (5, 1), (7, 1)):
        G = canonical_gamma(p, k)
        mod = G.module()
        for m in range(G.n + 1):
            total = Fraction(0)
            for j in range(p):
                s = [int(np.trace(mod.power(j * i))) for i in range(m + 1)]
                e = [Fraction(1)] + [Fraction(0)] * m
                for d in range(1, m + 1):
                    e[d] = sum((-1) ** (i - 1) * e[d - i] * s[i]
                               for i in range(1, d + 1)) / d
                total += e[m]
            val = total / p
            assert val.denominator == 1
            assert fixed_rank(G.exterior(m)) == int(val), (p, k, m)
