import random
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crystalk import exact_linalg as la
from crystalk import zpmod
from crystalk.abelian import CyclicPrimePower, GroupExpression, ext_dual
from crystalk.verify import random_order_p_module
from crystalk.zpmod import (ZpModule, compound_matrix, coinvariants, dual,
                            direct_sum, exterior_power, fixed_rank,
                            make_cyclotomic, make_regular, make_trivial,
                            tate, tate_reference, tensor)

PRIMES = (2, 3, 5, 7)


def _dense(base, deg):
    """The literal compound matrix of Lambda^deg base as a module; an
    `ExteriorPower` is only its Kronecker summands."""
    return ZpModule(base.p, compound_matrix(base.action, deg), check=False)


def _dim(g, p):
    """d for a group g = (Z/p)^d."""
    d = sum(s.multiplicity for s in g.summands)
    assert g == GroupExpression.elementary(p, d), g
    return d


# -- constructors ------------------------------------------------------------

def test_cyclotomic_p3_matrix():
    assert make_cyclotomic(3).action == [[0, -1], [1, -1]]


def test_regular_p2_matrix():
    assert make_regular(2).action == [[0, 1], [1, 0]]


def test_cyclotomic_orders():
    # the standard modules are built without a check; they must pass it
    for p in PRIMES + (61,):
        for mod in (make_trivial(p, 2), make_regular(p), make_cyclotomic(p)):
            mod.validate()
    for p in PRIMES:
        mod = make_cyclotomic(p)
        A = np.array(mod.action, dtype=object)
        power = np.eye(mod.rank, dtype=int)
        for _ in range(p):
            power = power @ A
        assert power.tolist() == la.identity(mod.rank)
        if p > 2:
            assert mod.action != la.identity(mod.rank)


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        make_cyclotomic(6)
    # the rank is bounded before the primality test: 10^18 + 3 is prime
    with pytest.raises(ValueError, match="exceeds the limit"):
        make_cyclotomic(10 ** 18 + 3)
    with pytest.raises(ValueError):
        ZpModule(4, [[0, 1], [-1, -1]])


def test_checked_module_checks_every_entry_of_an_array():
    # a checked module refuses floats in an object array and turns numpy
    # integers into Python ints; an unchecked one keeps the library's rows
    with pytest.raises(ValueError, match="not an integer"):
        ZpModule(3, np.array([[0.0, -1.0], [1.0, -1.0]], dtype=object))
    A = np.array([[0, -1], [1, -1]], dtype=np.int64).astype(object)
    mod = ZpModule(3, A)
    assert mod.action == [[0, -1], [1, -1]]
    assert all(type(x) is int for row in mod.action for x in row)
    assert ZpModule(3, mod.action, check=False).action is mod.action


def test_checked_module_keeps_no_alias_of_its_input():
    rows = [[0, -1], [1, -1]]
    mod = ZpModule(3, rows)
    rows[0][0] = 5
    rows.append([7, 7])
    assert mod.action == [[0, -1], [1, -1]] and mod.rank == 2
    assert coinvariants(mod) == GroupExpression.elementary(3, 1)


def test_wrong_order_rejected():
    with pytest.raises(ValueError):
        ZpModule(3, [[2]])
    # finite orders 4 and 2p do not divide p
    with pytest.raises(ValueError):
        ZpModule(5, [[0, -1], [1, 0]])
    with pytest.raises(ValueError):
        ZpModule(61, [[-x for x in row] for row in make_cyclotomic(61).action])


def _power(A, j):
    """A^j by numpy's matrix_power of the object array (by squaring): the
    tests' reference for powers of an action."""
    return np.linalg.matrix_power(np.array(A, dtype=object), j).tolist()


@pytest.mark.parametrize("seed", range(4))
def test_squared_power_matches_repeated_product(seed):
    # the module's powers and norm are running products; numpy's squared
    # powers must match them exactly, also for an action of infinite order
    rng = random.Random(seed)
    p = rng.choice(PRIMES)
    conj = random_order_p_module(rng, p)
    for mod in (conj, ZpModule(p, [[2, 1], [1, 1]], check=False)):
        for j in range(p):
            assert mod.power(j) == _power(mod.action, j), (p, j)
        norm = sum((np.array(_power(mod.action, j), dtype=object)
                    for j in range(p)), np.zeros((mod.rank,) * 2, dtype=int))
        assert mod.norm_matrix() == norm.tolist()
    assert _power(conj.action, p) == la.identity(conj.rank)
    assert conj.power(p) == conj.power(0) == la.identity(conj.rank)


# -- combinators -------------------------------------------------------------

def test_direct_sum_of_trivials():
    got = direct_sum(make_trivial(3, 2), make_trivial(3, 3))
    assert got.action == la.identity(5)


def test_tensor_with_unit():
    c = make_cyclotomic(5)
    got = tensor(make_trivial(5, 1), c)
    assert got.action == c.action


def test_tensor_cyclotomic_squared_fixed_rank():
    got = tensor(make_cyclotomic(3), make_cyclotomic(3))
    assert fixed_rank(got) == 2


def test_mismatched_primes():
    with pytest.raises(ValueError):
        direct_sum(make_trivial(3, 1), make_trivial(5, 1))
    with pytest.raises(ValueError):
        tensor(make_cyclotomic(3), make_cyclotomic(5))


def _kron_reference(A, B):
    """Kronecker product entry by entry in Python ints."""
    return [[a * b for a in row_a for b in row_b]
            for row_a in A for row_b in B]


def test_kronecker_products_stay_exact_past_int64():
    # a conjugate of the cyclotomic Z/3 module by a unimodular g with a
    # 2^70 entry: still order 3, with entries near 2^140
    big = 2 ** 70
    H = zpmod.conjugate(make_cyclotomic(3), [[1, big], [0, 1]],
                        [[1, -big], [0, 1]])
    H.validate()
    got = tensor(H, H).action
    assert got == _kron_reference(H.action, H.action)
    assert all(type(x) is int for row in got for x in row)
    # Lambda^2 of H + H holds the summand Lambda^1 H (x) Lambda^1 H
    (pair,) = [S for _c, S in exterior_power(direct_sum(H, H), 2).summands
               if S.rank == 4]
    assert pair.action == _kron_reference(H.action, H.action)
    assert all(type(x) is int for row in pair.action for x in row)


def test_direct_sum_of_many_blocks():
    blocks = [make_cyclotomic(5), make_trivial(5, 1), make_regular(5)]
    got = zpmod.direct_sum(*blocks)
    a, b, c = blocks
    for nested in (direct_sum(direct_sum(a, b), c),
                   direct_sum(a, direct_sum(b, c))):
        assert got.rank == nested.rank == 10
        assert got.action == nested.action
    start = 0
    for m in blocks:
        block = slice(start, start + m.rank)
        assert [row[block] for row in got.action[block]] == m.action
        start += m.rank
    # nothing outside the diagonal blocks
    assert np.count_nonzero(np.array(got.action)) == sum(
        np.count_nonzero(np.array(m.action)) for m in blocks)
    got.validate()
    for i in range(len(blocks)):
        mixed = blocks[:i] + [make_trivial(3, 1)] + blocks[i + 1:]
        with pytest.raises(ValueError, match="mismatched primes"):
            zpmod.direct_sum(*mixed)
    with pytest.raises(ValueError, match="at least one module"):
        zpmod.direct_sum()


def test_direct_sum_keeps_each_distinct_operand_once():
    a, b = make_cyclotomic(5), make_regular(5)
    got = direct_sum(a, b, a)
    # modules compare by identity
    assert [(c, S) for c, S in got.summands] == [(2, a), (1, b)]
    # by identity: an equal block built afresh is a summand of its own
    again = direct_sum(a, make_cyclotomic(5))
    assert [c for c, _S in again.summands] == [1, 1]
    assert again.action == direct_sum(a, a).action
    # the k-fold canonical sum is one block k times
    assert [c for c, _S in direct_sum(*[a] * 7).summands] == [7]


def test_exterior_degree_zero():
    got = exterior_power(make_cyclotomic(5), 0)
    assert got.rank == 1
    assert [(c, S.action) for c, S in got.summands] == [(1, [[1]])]


def test_exterior_top_degree():
    got = exterior_power(make_cyclotomic(3), 2)
    assert got.rank == 1
    assert [(c, S.action) for c, S in got.summands] == [(1, [[1]])]


def test_exterior_out_of_range():
    with pytest.raises(ValueError):
        exterior_power(make_cyclotomic(3), 3)
    with pytest.raises(ValueError):
        exterior_power(make_cyclotomic(3), -1)


def test_exterior_guardrail():
    # one 16-dim block: its middle compound, C(16, 8) = 12870, is over the
    # summand bound, so every degree is refused, degree 0 included, and
    # nothing is built
    big = make_cyclotomic(17)
    for deg in (0, 1, 8, 16):
        with pytest.raises(zpmod.ExteriorGuardrailError,
                           match=r"summand 12870 \(limit 2048\)"):
            exterior_power(big, deg)
    assert set(big._cache) == {"block_types"}
    # 200 blocks of rank 1: every summand is 1 x 1, but C(200, 100) copies
    # of them are over the rank bound
    with pytest.raises(zpmod.ExteriorGuardrailError,
                       match=r"\(limit 1000000\)"):
        exterior_power(make_trivial(2, 200), 0)
    # at the bounds: 2^11 = 2048 for eleven 2-dim blocks, whose rank
    # C(22, 11) = 705432 is under 10^6
    eleven = direct_sum(*[make_cyclotomic(3)] * 11)
    assert max(S.rank for _c, S in exterior_power(eleven, 11).summands) \
        == zpmod.MAX_SUMMAND_DIM
    assert issubclass(zpmod.ExteriorGuardrailError, ValueError)


@pytest.mark.parametrize("p, k, widest, largest", [
    (13, 1, 924, 924), (5, 4, 1296, 12870), (3, 10, 1024, 184756),
    (3, 6, 64, 924), (2, 10, 1, 252), (5, 2, 36, 70), (7, 1, 20, 20)])
def test_exterior_bound_admits_the_measured_shapes(p, k, widest, largest):
    base = direct_sum(*[make_cyclotomic(p)] * k)
    mods = [exterior_power(base, j) for j in range(base.rank + 1)]
    assert max(S.rank for m in mods for _c, S in m.summands) == widest
    assert max(m.rank for m in mods) == largest
    assert widest <= zpmod.MAX_SUMMAND_DIM
    assert largest <= zpmod.MAX_EXTERIOR_RANK


def test_dense_action_above_the_bound_is_refused():
    # Lambda^7 of seven 2-dim blocks is admitted (widest summand 2^7); its
    # dense compound, C(14, 7) = 3432 wide, is never built: the rank
    # formulas need only the summands
    ext = exterior_power(direct_sum(*[make_cyclotomic(3)] * 7), 7)
    # Tate^i of Lambda^j vanishes for i + j odd
    assert tate(ext, 0) == GroupExpression.zero()


def test_compound_matches_minors():
    rng = random.Random(7)
    for _ in range(5):
        A = np.array([[rng.randint(-3, 3) for _ in range(4)]
                      for _ in range(4)], dtype=object)
        for deg in (1, 2, 3):
            got = compound_matrix(A, deg)
            subsets = list(combinations(range(4), deg))
            for ri, rows in enumerate(subsets):
                for ci, cols in enumerate(subsets):
                    minor = la.determinant(A[np.ix_(rows, cols)])
                    assert got[ri][ci] == minor


def test_conjugate_rejects_wrong_inverse():
    c = make_cyclotomic(3)
    g, g_inv = [[1, 2], [0, 1]], [[1, -2], [0, 1]]
    good = zpmod.conjugate(c, g, g_inv)
    assert good.action == (np.array(g, dtype=object)
                           @ np.array(c.action, dtype=object)
                           @ np.array(g_inv, dtype=object)).tolist()
    for wrong in ([[1, 2], [0, 1]], [[1, 0], [0, 1]], [[1, -2, 0], [0, 1, 0]]):
        with pytest.raises(ValueError):
            zpmod.conjugate(c, g, wrong)
    # g and g_inv must be square of the module's rank
    with pytest.raises(ValueError, match="2 x 2"):
        zpmod.conjugate(c, [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]])


def test_dual_is_transpose():
    c = make_cyclotomic(3)
    assert dual(c).action == [[0, 1], [-1, -1]]
    t = make_trivial(5, 2)
    assert dual(t).action == t.action


def test_dual_of_regular_isomorphic():
    reg = make_regular(5)
    dreg = dual(reg)
    assert fixed_rank(dreg) == fixed_rank(reg) == 1
    for i in (0, 1):
        assert tate(dreg, i) == tate(reg, i)


def test_order_preserved_by_combinators():
    for p in (2, 3, 5):
        c = make_cyclotomic(p)
        built = [dual(c), tensor(c, c),
                 _dense(c, min(2, p - 1)),
                 direct_sum(c, make_trivial(p, 1))]
        for mod in built:
            mod.validate()


def test_derived_power_matches_repeated_multiplication():
    c = make_cyclotomic(5)
    mods = [tensor(c, make_regular(5)), dual(c), direct_sum(c, c)]
    for mod in mods:
        plain = ZpModule(mod.p, mod.action, check=False)
        for j in range(mod.p):
            assert mod.power(j) == plain.power(j)
        assert mod.norm_matrix() == plain.norm_matrix()


# -- invariants, coinvariants, Tate ------------------------------------------

def test_invariants_trivial():
    assert fixed_rank(make_trivial(3, 4)) == 4


def test_invariants_cyclotomic_none():
    for p in PRIMES:
        assert fixed_rank(make_cyclotomic(p)) == 0


def test_invariants_regular_rank_one():
    assert fixed_rank(make_regular(5)) == 1


def test_coinvariants():
    assert coinvariants(make_trivial(5, 3)) == GroupExpression.free(3)
    assert coinvariants(make_cyclotomic(3)) == GroupExpression.elementary(3, 1)
    assert coinvariants(make_regular(7)) == GroupExpression.free(1)


def test_coinvariants_scale_runs_by_multiplicity():
    # Lambda^11 of the (2, 22) lattice is one 1 x 1 summand (action -1)
    # with C(22, 11) = 705432 copies: one diagonalization, one summand
    ext = exterior_power(direct_sum(*[make_cyclotomic(2)] * 22), 11)
    assert len(ext.summands) == 1
    assert coinvariants(ext).summands == (CyclicPrimePower(2, 1, 705432),)
    even = exterior_power(direct_sum(*[make_cyclotomic(2)] * 22), 10)
    assert coinvariants(even) == GroupExpression.free(646646)


def test_tate_trivial_module():
    for p in PRIMES:
        mod = make_trivial(p, 1)
        assert tate(mod, 0) == GroupExpression.elementary(p, 1)
        assert tate(mod, 1).is_zero()


def test_tate_regular_acyclic():
    for p in PRIMES:
        mod = make_regular(p)
        for i in range(-2, 3):
            assert tate(mod, i).is_zero()


def test_tate_cyclotomic():
    for p in PRIMES:
        mod = make_cyclotomic(p)
        assert tate(mod, 0).is_zero()
        assert tate(mod, 1) == GroupExpression.elementary(p, 1)


def test_tate_periodicity():
    rng = random.Random(11)
    for p in (3, 5):
        for _ in range(3):
            mod = random_order_p_module(rng, p, max_rank=6)
            for i in range(-3, 2):
                assert tate(mod, i) == tate_reference(mod, i + 2)


def test_tate_checkerboard_small():
    for p, k in ((3, 1), (3, 2), (5, 1)):
        base = zpmod.direct_sum(*[make_cyclotomic(p)] * k)
        n = k * (p - 1)
        from crystalk.repring import a_j
        for j in range(n + 1):
            mod = exterior_power(base, j)
            for i in (0, 1):
                got = tate(mod, i)
                if (i + j) % 2 == 0:
                    assert got == GroupExpression.elementary(p, a_j(p, k, j))
                else:
                    assert got.is_zero()


def test_tate_duality_sample():
    rng = random.Random(23)
    for p in (3, 5):
        for _ in range(10):
            mod = random_order_p_module(rng, p, max_rank=6)
            dmod = dual(mod)
            for i in (-2, -1, 0, 1, 2):
                assert tate(mod, i) == tate_reference(dmod, -i)


def test_dual_conventions_equivalent():
    # plain transpose vs inverse-transpose differ by a group automorphism
    rng = random.Random(5)
    for p in (3, 5):
        for _ in range(4):
            mod = random_order_p_module(rng, p, max_rank=6)
            plain = dual(mod)
            inv_t = ZpModule(p, la.transpose(_power(mod.action, p - 1)),
                             check=False)
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
            assert ext_dual(co) == tate(mod, 1)


# Group (co)homology of Z/p with coefficients in a module: H^0 is the fixed
# lattice, H_0 the coinvariants, and above degree 0 H^i = Tate^i and
# H_i = Tate^(i+1).

def test_group_cohomology_examples():
    cyc = make_cyclotomic(3)
    assert tate(cyc, 1) == GroupExpression.elementary(3, 1)
    assert tate(cyc, 1) == coinvariants(cyc)
    assert fixed_rank(make_trivial(5, 2)) == 2
    assert fixed_rank(make_cyclotomic(5)) == 0


def test_group_homology_examples():
    assert tate(make_trivial(3, 1), 2) == GroupExpression.elementary(3, 1)
    assert coinvariants(make_cyclotomic(3)) == GroupExpression.elementary(3, 1)


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
        mod = zpmod.direct_sum(*mods)
        mod = zpmod.conjugate(mod, *_random_unimodular(rng, mod.rank))
        h0 = p ** _dim(tate(mod, 0), p)
        h1 = p ** _dim(tate(mod, 1), p)
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
        mod = G.module
        for m in range(G.n + 1):
            total = Fraction(0)
            for j in range(p):
                s = [int(np.trace(np.array(_power(mod.action, j * i % p),
                                           dtype=object)))
                     for i in range(m + 1)]
                e = [Fraction(1)] + [Fraction(0)] * m
                for d in range(1, m + 1):
                    e[d] = sum((-1) ** (i - 1) * e[d - i] * s[i]
                               for i in range(1, d + 1)) / d
                total += e[m]
            val = total / p
            assert val.denominator == 1
            assert fixed_rank(G.exterior(m)) == int(val), (p, k, m)


# -- the rank formulas against the kernel/cokernel reference -----------------

def _module_of_kind(rng, p, kind):
    """A random module: mixed blocks, trivial blocks only or regular only."""
    from crystalk.verify import _random_unimodular
    if kind == "mixed":
        return random_order_p_module(rng, p, max_rank=max(6, p))
    if kind == "trivial":
        mod = make_trivial(p, rng.randint(1, 4))
    else:
        mod = zpmod.direct_sum(*[make_regular(p)] * (2 if p <= 3 else 1))
    return zpmod.conjugate(mod, *_random_unimodular(rng, mod.rank))


@given(st.sampled_from(PRIMES), st.sampled_from(["mixed", "trivial", "regular"]),
       st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
@example(2, "mixed", 0)
@example(2, "trivial", 1)
@example(2, "regular", 2)
@example(5, "trivial", 3)
@example(7, "regular", 4)
def test_rank_formulas_match_reference(p, kind, seed):
    base = _module_of_kind(random.Random(seed), p, kind)
    family = [(mod, mod) for mod in (base, dual(base))]
    family += [(exterior_power(base, d), _dense(base, d))
               for d in range(min(3, base.rank) + 1)]
    for mod, dense in family:
        kernel_rank = len(la.kernel_basis(la.minus_identity(dense.action))[0])
        co = coinvariants(mod)
        assert fixed_rank(mod) == kernel_rank == co.free_rank
        for i in (0, 1):
            assert tate(mod, i) == tate_reference(dense, i)
        assert ext_dual(co) == tate_reference(dense, 1)


def test_herbrand_tate0_matches_power_of_T():
    # 1 + x + ... + x^(p-1) = (x - 1)^(p-1) in F_p[x], so rank_Fp N is the
    # rank of T^(p-1) mod p; `tate` never forms it and reads Tate^0 off the
    # Herbrand quotient, which must give rank_Fp N = rank_Q N - dim Tate^0
    rng = random.Random(61)
    for p in PRIMES:
        for _ in range(4):
            base = random_order_p_module(rng, p, max_rank=max(6, p + 1))
            for mod, dense in [(base, base)] + [
                    (exterior_power(base, d), _dense(base, d))
                    for d in range(2, min(3, base.rank) + 1)]:
                T = np.array(list(la.minus_identity(dense.action)),
                             dtype=object)
                power = np.eye(mod.rank, dtype=int).astype(object)
                for _ in range(p - 1):
                    power = power @ T
                rank_p_n = la.rank_mod(power, p)
                assert rank_p_n == la.rank_mod(dense.norm_matrix(), p)
                dim0 = _dim(tate(mod, 0), p)
                assert rank_p_n == fixed_rank(mod) - dim0, (p, mod.rank)


# -- exterior powers by blocks against the literal compound ------------------

_BLOCKS = {"cyc": make_cyclotomic, "reg": make_regular,
           "triv": lambda p: make_trivial(p, 1)}


@given(st.sampled_from((2, 3, 5)),
       st.lists(st.sampled_from(sorted(_BLOCKS)), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
@settings(max_examples=10, deadline=None)
@example(3, ["cyc", "cyc", "cyc"], random.Random(0))
@example(2, ["cyc", "reg", "triv", "cyc"], random.Random(1))
@example(5, ["cyc", "triv", "triv"], random.Random(2))
def test_block_route_matches_dense_compound(p, kinds, rng):
    # direct sums of repeated and distinct block types, with the basis
    # shuffled so blocks are not contiguous; in every degree, the Kronecker
    # summands must give what the literal compound matrix gives
    blocks = [_BLOCKS[kind](p) for kind in kinds]
    while sum(b.rank for b in blocks) > 6:
        blocks.pop()
    base = zpmod.direct_sum(*blocks)
    order = list(range(base.rank))
    rng.shuffle(order)
    ident = la.identity(base.rank)
    perm = [ident[i] for i in order]
    base = zpmod.conjugate(base, perm, la.transpose(perm))
    for mod in (base, dual(base)):
        for d in range(mod.rank + 1):
            ext = exterior_power(mod, d)
            assert all(c > 0 for c, _ in ext.summands)
            assert sum(c * S.rank for c, S in ext.summands) == ext.rank
            dense = ZpModule(p, compound_matrix(mod.action, d), check=False)
            T = list(la.minus_identity(dense.action))
            assert fixed_rank(ext) == len(la.kernel_basis(T)[0])
            assert coinvariants(ext) == la.cokernel_structure(T)
            for i in (0, 1):
                assert tate(ext, i) == tate_reference(dense, i)


def test_equal_blocks_give_one_summand_per_degree_multiset():
    # (3,3): three equal 2x2 blocks; wedge^2 = 3 (B (x) B) + 3 Lambda^2 B
    base = zpmod.direct_sum(*[make_cyclotomic(3)] * 3)
    got = sorted((c, S.rank) for c, S in exterior_power(base, 2).summands)
    assert got == [(3, 1), (3, 4)]
    # a connected action is its own single block: one summand, the compound
    B = make_cyclotomic(7)
    [(c, S)] = exterior_power(B, 3).summands
    assert c == 1 and S.action == compound_matrix(B.action, 3)


def _permuted_p2_base():
    """A p = 2 base with -1 blocks of both kinds and a trivial block, its
    basis shuffled so the blocks are not contiguous."""
    base = direct_sum(make_cyclotomic(2), make_regular(2), make_trivial(2, 1),
                      make_cyclotomic(2), make_regular(2))
    order = list(range(base.rank))
    random.Random(5).shuffle(order)
    ident = la.identity(base.rank)
    perm = [ident[i] for i in order]
    return zpmod.conjugate(base, perm, la.transpose(perm))


@pytest.mark.parametrize("make", [
    *(lambda p=p, k=k: direct_sum(*[make_cyclotomic(p)] * k)
      for p, k in ((3, 6), (5, 2), (7, 1), (2, 10))),
    _permuted_p2_base], ids=["3-6", "5-2", "7-1", "2-10", "permuted-p2"])
def test_each_distinct_summand_is_listed_once(make):
    # a 1 x 1 factor (Lambda^|B| B = [det B], or a 1 x 1 block) is folded
    # into a sign and equal products merged, so no summand of a degree
    # repeats another's matrix, and across degrees one matrix is one
    # summand module; the functors still give what the literal compound
    # gives
    base = make()
    built = {}
    for d in range(base.rank + 1):
        ext = exterior_power(base, d)
        rows = [S.action for _c, S in ext.summands]
        assert all(a != b for a, b in combinations(rows, 2)), d
        for _c, S in ext.summands:
            assert built.setdefault(repr(S.action), S) is S, d
        assert sum(c * S.rank for c, S in ext.summands) == comb(base.rank, d)
        T = list(la.minus_identity(compound_matrix(base.action, d)))
        assert fixed_rank(ext) == len(la.kernel_basis(T)[0])
        assert coinvariants(ext) == la.cokernel_structure(T)


def test_a_top_compound_minus_one_stays_a_factor():
    # Lambda^2 of the p = 2 regular block is [det] = [[-1]], not [[1]]
    [(c, S)] = exterior_power(make_regular(2), 2).summands
    assert (c, S.action) == (1, [[-1]])
    # beside a trivial block, the -1 stays and the trivial [[1]] goes
    base = direct_sum(make_regular(2), make_trivial(2, 1))
    got = sorted((c, S.action) for c, S in exterior_power(base, 2).summands)
    assert got == [(1, [[-1]]), (1, [[0, 1], [1, 0]])]


@given(st.sampled_from(PRIMES),
       st.lists(st.sampled_from(sorted(_BLOCKS)), min_size=1, max_size=6),
       st.lists(st.integers(0, 5), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
@example(2, ["cyc", "cyc", "triv"], [0, 1, 2, 0, 0, 0])
@example(3, ["cyc", "reg", "cyc"], [0, 0, 1, 0, 0, 0])
def test_direct_sum_functors_match_its_rows(p, kinds, reuse):
    # each operand is a fresh block or, by `reuse`, an earlier operand
    # again, so distinct blocks repeat; the functors read per summand must
    # give what the same rows give as one dense module
    mods = []
    for kind, back in zip(kinds, reuse):
        mods.append(mods[-1 - back % len(mods)] if mods and back
                    else _BLOCKS[kind](p))
    total = direct_sum(*mods)
    assert sum(c for c, _S in total.summands) == len(mods)
    dense = ZpModule(p, total.action)
    assert dense.summands is None
    assert fixed_rank(total) == fixed_rank(dense)
    assert coinvariants(total) == coinvariants(dense)
    for i in (0, 1):
        assert tate(total, i) == tate(dense, i), i
