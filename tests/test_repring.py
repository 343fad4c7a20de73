from math import comb

import pytest

from crystalk import repring
from crystalk.repring import (a_j, a_j_inclusion_exclusion, a_vector,
                              lambda_class, r_m,
                              r_sum_identities, r_vector, s_m, s_vector)

PRIMES = (2, 3, 5, 7)
GRID = [(p, k) for p in PRIMES for k in (1, 2)]
# shapes whose one-pass tables are certified against per-degree references
TABLE_GRID = [(2, 1), (2, 12), (3, 8), (5, 4), (7, 2), (13, 3), (31, 1),
              (61, 1)]


def pair_product(p, x, y):
    """Product of classes (q, reg): [Q] is the unit, [Q[Z/p]]^2 = p*[Q[Z/p]]."""
    (a, b), (c, d) = x, y
    return (a * c, a * d + b * c + b * d * p)


def naive_lambda_class_total(p, k, m):
    """Class of Lambda^m by a convolution in the representation ring up to
    degree m; r_m is q + reg, since [Q] and [Q[Z/p]] both have rank-1
    fixed subspaces."""
    singles = [lambda_class(p, l) for l in range(p)]
    classes = [(1, 0)] + [(0, 0)] * m
    for _ in range(k):
        nxt = [(0, 0)] * (m + 1)
        for j in range(m + 1):
            for l in range(min(j, p - 1) + 1):
                q, reg = pair_product(p, classes[j - l], singles[l])
                nxt[j] = (nxt[j][0] + q, nxt[j][1] + reg)
        classes = nxt
    return classes[m]


def naive_a_j(p, k, j):
    """Compositions of j into k parts in [0, p-1], by a DP up to degree j."""
    if j < 0:
        return 0
    counts = [1] + [0] * j
    for _ in range(k):
        nxt = [0] * (j + 1)
        for t in range(j + 1):
            for l in range(min(p - 1, j - t) + 1):
                nxt[t + l] += counts[t]
        counts = nxt
    return counts[j]


# -- wedge classes -----------------------------------------------------------

def test_lambda_class_degree_zero():
    for p in PRIMES:
        assert lambda_class(p, 0) == (1, 0)


def test_lambda_class_degree_one():
    for p in PRIMES:
        assert lambda_class(p, 1) == (-1, 1)


def test_lambda_class_top_is_trivial_p3():
    assert lambda_class(3, 2) == (1, 0)


def test_lambda_class_vanishes_high():
    assert lambda_class(3, 3) == (0, 0)
    assert lambda_class(5, 7) == (0, 0)


def test_lambda_class_negative_rejected():
    with pytest.raises(ValueError):
        lambda_class(3, -1)


def test_consecutive_relation():
    for p in PRIMES:
        for l in range(1, p):
            (q1, reg1), (q0, reg0) = lambda_class(p, l), lambda_class(p, l - 1)
            assert q1 + q0 == 0
            assert p * (reg1 + reg0) == comb(p, l)


def test_total_class_sum():
    for p in PRIMES:
        q, reg = map(sum, zip(*(lambda_class(p, l) for l in range(p))))
        if p == 2:
            assert (q, reg) == (0, 1)
        else:
            assert q == 1 and p * reg == 2 ** (p - 1) - 1


def test_lambda_total_degree_zero():
    assert naive_lambda_class_total(5, 2, 0) == (1, 0)
    assert r_m(5, 2, 0) == 1


def test_lambda_total_p3_k2_m2():
    # 2*(wedge^0 x wedge^2) + (wedge^1)^2 expands to 3[Q] + [Q[Z/3]]
    assert naive_lambda_class_total(3, 2, 2) == (3, 1)
    assert r_m(3, 2, 2) == 4


def test_lambda_total_vanishes_above_top():
    assert len(r_vector(3, 1)) == 3
    assert r_m(3, 1, 3) == 0


def test_negative_fixed_rank_refused(monkeypatch):
    # the average (C(2, m) + (-1)^m 2 a_m) / 3 of (1, 4, 1) is (1, -2, 1):
    # an integer, but no rank; r_vector refuses it rather than reporting it
    monkeypatch.setattr(repring, "a_vector", lambda p, k: (1, 4, 1))
    with pytest.raises(ArithmeticError, match="negative"):
        r_vector(3, 1)


def test_non_integer_character_average_refused(monkeypatch):
    # (C(2, 1) - 2 * 2) / 3 is no integer
    monkeypatch.setattr(repring, "a_vector", lambda p, k: (1, 2, 1))
    with pytest.raises(ArithmeticError, match="not divisible by 3"):
        r_vector(3, 1)


def test_non_prime_p_refused():
    for call, args in ((lambda_class, (9, 2)), (lambda_class, (4, 1)),
                       (r_vector, (4, 2)), (r_m, (1, 1, 0))):
        with pytest.raises(ValueError, match=f"^{args[0]} is not prime$"):
            call(*args)


@pytest.mark.parametrize("k", [0, -2])
def test_every_count_refuses_k_below_one(k):
    # the lattice has k >= 1 blocks; every count refuses the others alike
    for call, args in ((a_vector, (3, k)), (a_j, (3, k, 0)),
                       (a_j_inclusion_exclusion, (3, k, 0)),
                       (r_vector, (3, k)), (r_m, (3, k, 0)),
                       (s_vector, (3, k)), (s_m, (3, k, 1))):
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            call(*args)


@pytest.mark.parametrize("p,k", TABLE_GRID)
def test_lambda_table_matches_per_degree_convolution(p, k):
    n = k * (p - 1)
    rv = r_vector(p, k)
    assert len(rv) == n + 1
    for m in range(n + 1):
        assert rv[m] == sum(naive_lambda_class_total(p, k, m)), (p, k, m)
    # exact Python ints, not numpy scalars or Fractions
    assert all(type(x) is int for x in rv)
    for m in (n + 1, n + 2, n + 7):
        assert r_m(p, k, m) == 0
    with pytest.raises(ValueError):
        r_m(p, k, -2)


# -- the counts r, a, s ------------------------------------------------------

def test_r_initial_values():
    for p, k in GRID:
        assert r_m(p, k, 0) == 1
        assert r_m(p, k, 1) == 0


def test_r_vectors_frozen():
    assert r_vector(3, 1) == (1, 0, 1)
    assert r_vector(5, 1) == (1, 0, 2, 0, 1)
    assert r_vector(7, 1) == (1, 0, 3, 2, 3, 0, 1)
    assert r_vector(3, 2) == (1, 0, 4, 0, 1)
    assert r_vector(2, 3) == (1, 0, 3, 0)


def test_r_p2_closed_form():
    # -1 fixes exactly the even exterior powers of Z^k
    for k in (1, 2, 3, 12, 64, 511, 512):
        assert r_vector(2, k) == tuple(comb(k, m) if m % 2 == 0 else 0
                                       for m in range(k + 1)), k


def test_r_k1_closed_form():
    for p in (3, 5, 7):
        for m in range(p):
            num = comb(p - 1, m) + (-1) ** m * (p - 1)
            assert num % p == 0
            assert r_m(p, 1, m) == num // p
        assert r_m(p, 1, p) == 0
        assert r_m(p, 1, p + 3) == 0


def test_a_s_initial_values():
    for p, k in GRID:
        assert a_j(p, k, 0) == 1
        assert a_j(p, k, 1) == k
        assert s_m(p, k, 0) == 0
        assert s_m(p, k, 1) == 1
        assert s_m(p, k, 2) == k + 1


def test_a_p3_k2():
    assert [a_j(3, 2, j) for j in range(5)] == [1, 2, 3, 2, 1]


def test_a_s_k1():
    for p in (3, 5, 7):
        for m in range(p):
            assert a_j(p, 1, m) == 1
        assert a_j(p, 1, p) == 0
        for m in range(2 * p):
            assert s_m(p, 1, m) == min(m, p)


def test_a_two_implementations_agree():
    for p, k in GRID:
        n = k * (p - 1)
        for j in range(n + 3):
            assert a_j(p, k, j) == a_j_inclusion_exclusion(p, k, j)


def test_a_symmetry_and_total():
    for p, k in GRID:
        n = k * (p - 1)
        assert sum(a_j(p, k, j) for j in range(n + 1)) == p ** k
        for j in range(n + 1):
            assert a_j(p, k, j) == a_j(p, k, n - j)
        assert a_j(p, k, n + 1) == 0


@pytest.mark.parametrize("p,k", TABLE_GRID)
def test_a_s_tables_match_references(p, k):
    n = k * (p - 1)
    assert a_vector(p, k) == tuple(naive_a_j(p, k, j) for j in range(n + 1))
    for j in range(-2, n + 4):
        assert a_j(p, k, j) == naive_a_j(p, k, j), (p, k, j)
    table = s_vector(p, k)
    assert len(table) == n + 2 and table[-1] == p ** k
    prefix = 0
    for m in range(-2, n + 6):
        if m > 0:
            prefix += a_j_inclusion_exclusion(p, k, m - 1)
        assert s_m(p, k, m) == prefix, (p, k, m)
    assert prefix == p ** k


def test_s_stabilizes():
    # s_n misses the single top composition; the plateau starts at n + 1
    for p, k in GRID:
        n = k * (p - 1)
        assert s_m(p, k, n) == p ** k - 1
        assert s_m(p, k, n + 1) == p ** k
        assert s_m(p, k, n + 5) == p ** k


# -- sum identities ----------------------------------------------------------

def test_sum_identities_p3_k1():
    got = r_sum_identities(3, 1)
    assert got["sum_all"] == 2
    assert got["alternating"] == 2


def test_sum_identities_p3_k2():
    assert r_sum_identities(3, 2) == {
        "sum_all": 6, "sum_even": 6, "sum_odd": 0, "alternating": 6}


def test_sum_identities_p2_k3():
    got = r_sum_identities(2, 3)
    assert got["sum_even"] == 4
    assert got["sum_odd"] == 0
    assert got["sum_all"] == 4


def test_sum_identities_whole_grid():
    for p, k in GRID:
        got = r_sum_identities(p, k)
        assert got["alternating"] == (p - 1) * p ** (k - 1)
        assert got["sum_even"] + got["sum_odd"] == got["sum_all"]


def test_sum_identities_rejects_composite():
    with pytest.raises(ValueError):
        r_sum_identities(4, 1)
