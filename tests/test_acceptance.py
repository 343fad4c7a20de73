"""Acceptance suite: every closed-form result, checked at exact equality.

Each criterion prints one pass/fail line (visible with `pytest -s` or on
failure).  Tolerances are zero everywhere: all quantities are integers or
finitely generated abelian groups compared for isomorphism.
"""

import functools
import random
import time
from math import comb

from crystalk import crystal, repring, verify, zpmod
from crystalk.abelian import (CyclicPrimePower, FreeZ, GroupExpression,
                              expr_evaluate, ext_dual, fg_expression, hom_dual)

FULL_GRID = [(p, k) for p in (2, 3, 5, 7) for k in (1, 2)]
ODD_GRID = [(p, k) for p in (3, 5, 7) for k in (1, 2)]

_DESCRIPTORS: dict = {}


def G(p, k):
    if (p, k) not in _DESCRIPTORS:
        _DESCRIPTORS[(p, k)] = crystal.canonical_gamma(p, k)
    return _DESCRIPTORS[(p, k)]


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {num:02d} [FAIL] {desc}")
                raise
            print(f"criterion {num:02d} [PASS] {desc}")
        return wrapper
    return deco


@criterion(1, "wedge fixed ranks match the representation-ring counts")
def test_criterion_01_r_oracle():
    start = time.monotonic()
    for p, k in FULL_GRID:
        g = G(p, k)
        for m in range(g.n + 1):
            mod = g.exterior(m)
            assert zpmod.fixed_rank(mod) == repring.r_m(p, k, m), \
                f"(p,k,m)=({p},{k},{m})"
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"rank oracle took {elapsed:.1f}s, budget 60s"


@criterion(2, "k=1 closed form for the fixed ranks")
def test_criterion_02_k1_closed_form():
    for p in (3, 5, 7):
        for m in range(p):
            num = comb(p - 1, m) + (-1) ** m * (p - 1)
            assert num % p == 0
            assert repring.r_m(p, 1, m) == num // p, f"(p,m)=({p},{m})"
        for m in range(p, p + 4):
            assert repring.r_m(p, 1, m) == 0


@criterion(3, "total / even / odd / alternating rank sums")
def test_criterion_03_sum_identities():
    for p, k in FULL_GRID:
        sums = repring.r_sum_identities(p, k)  # asserts closed == direct
        if p == 2:
            assert sums["sum_all"] == 2 ** (k - 1)
        else:
            assert sums["sum_all"] == (2 ** ((p - 1) * k) - 1) // p + 1
            assert sums["sum_even"] == ((2 ** ((p - 1) * k) + p - 1) // (2 * p)
                                        + (p - 1) * p ** (k - 1) // 2)
        assert sums["alternating"] == (p - 1) * p ** (k - 1)


@criterion(4, "Tate checkerboard of exterior powers")
def test_criterion_04_checkerboard():
    for p, k in ODD_GRID:
        g = G(p, k)
        for j in range(g.n + 1):
            mod = g.exterior(j)
            aj = repring.a_j(p, k, j)
            for i in (0, 1):
                got = zpmod.tate(mod, i)
                if (i + j) % 2 == 0:
                    expect = GroupExpression.elementary(p, aj)
                else:
                    expect = GroupExpression.zero()
                assert got == expect, f"(p,k,j,i)=({p},{k},{j},{i}): {got}"


@criterion(5, "structure constants of the group")
def test_criterion_05_structure_constants():
    for p, k in FULL_GRID:
        g = G(p, k)
        data = crystal.finite_subgroup_data(g)
        assert data.cokernel == GroupExpression.elementary(p, k)
        assert data.class_count == p ** k
        assert data.fixed_point_count == p ** k
        assert crystal.abelianization(g) == GroupExpression.elementary(p, k + 1)


@criterion(6, "headline C*-algebra K-theory values")
def test_criterion_06_headline_k_theory():
    for n in (1, 2, 3):
        g = G(2, n)
        assert crystal.cstar_k_theory(g, 0) == GroupExpression.free(3 * 2 ** (n - 1))
        assert crystal.cstar_k_theory(g, 1).is_zero()
    g31 = G(3, 1)
    assert crystal.cstar_k_theory(g31, 0) == GroupExpression.free(8)
    assert crystal.cstar_k_theory(g31, 1).is_zero()
    assert crystal.d_even(g31) == (3 - 1) * 3 + sum(g31.r()[0::2]) == 8


@criterion(7, "free-rank consistency triangle")
def test_criterion_07_triangle():
    for p, k in FULL_GRID:
        g = G(p, k)
        assert crystal.d_even(g) == (p - 1) * p ** k + sum(g.r()[0::2])
        assert crystal.d_odd(g) == sum(g.r()[1::2])
        seqs = crystal.equivariant_exact_sequences(g, 0)
        mid = seqs.complex_seq.middle.free_rank
        flanks = (seqs.complex_seq.left.free_rank
                  + expr_evaluate(seqs.complex_seq.right).free_rank)
        assert mid == flanks == crystal.d_even(g)


@criterion(8, "spectral assembly reproduces the cohomology closed form")
def test_criterion_08_brute_force_cohomology():
    for p, k in [(3, 1), (3, 2), (5, 1), (5, 2)]:
        g = G(p, k)
        for m in range(g.n + 1):
            got = crystal.brute_force_cohomology_bgamma(g, m)
            if m % 2 == 0:
                expect = (GroupExpression.free(g.r()[m])
                          + fg_expression(0, p, g.s(m)))
            else:
                expect = GroupExpression.free(g.r()[m])
            assert got == expect == crystal.cohomology_bgamma(g, m), \
                f"(p,k,m)=({p},{k},{m}): {got}"


@criterion(9, "homology is the universal-coefficient dual of cohomology")
def test_criterion_09_uct_duality():
    for p, k in FULL_GRID:
        g = G(p, k)
        for m in range(g.n + 1):
            for coh, hom in ((crystal.cohomology_bgamma, crystal.homology_bgamma),
                             (crystal.cohomology_quotient, crystal.homology_quotient)):
                expect = hom_dual(coh(g, m)) + ext_dual(coh(g, m + 1))
                assert hom(g, m) == expect, f"(p,k,m)=({p},{k},{m})"


@criterion(10, "Tate duality on random order-p modules")
def test_criterion_10_tate_duality():
    start = time.monotonic()
    for p in (3, 5):
        rng = random.Random(1000 + p)
        for _ in range(100):
            mod = verify.random_order_p_module(rng, p, max_rank=6)
            dmod = zpmod.dual(mod)
            for i in (-1, 0, 1, 2):
                assert zpmod.tate(mod, i) == zpmod.tate(dmod, -i)
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"duality sample took {elapsed:.1f}s, budget 30s"


@criterion(11, "unknown torsion degenerates for the smallest odd case")
def test_criterion_11_t1_degeneration():
    g = G(3, 1)
    assert crystal.k_theory_quotient(g, 1, "cohomology") == GroupExpression.zero()
    assert crystal.k_theory_quotient(g, 0, "homology") == GroupExpression.free(2)
    assert crystal.k_theory_quotient(g, 0, "cohomology") == GroupExpression.free(2)


@criterion(12, "real C*-algebra K-theory desk values")
def test_criterion_12_ko_desk_values():
    g = G(3, 1)
    z4 = (FreeZ(4),)
    c2 = (CyclicPrimePower(2, 1, 1),)
    expected = [
        GroupExpression(z4),          # degree 0
        GroupExpression(c2),          # degree 1
        GroupExpression(z4 + c2),     # degree 2
        GroupExpression(c2),          # degree 3
        GroupExpression(z4 + c2),     # degree 4
        GroupExpression.zero(),       # degree 5
        GroupExpression(z4),          # degree 6
        GroupExpression.zero(),       # degree 7
    ]
    rv = g.r()
    for m in range(8):
        got = expr_evaluate(crystal.cstar_k_theory(g, m, "real"))
        assert got == expected[m], f"degree {m}: {got}"
        # convention-independent part: the p-local free rank
        free = sum(rv[l] for l in range(g.n + 1) if (m - l) % 4 == 0)
        if m % 2 == 0:
            free += 3 ** 1 * (3 - 1) // 2
        assert got.free_rank == free, f"degree {m} free rank"
