import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crystalk import exact_linalg as la
from crystalk.abelian import (CyclicPrimePower, FreeZ, GroupExpression,
                              factorint)


def mat(rows):
    return la.intmat(rows)


def rational_rank(M) -> int:
    """Rank over Q by Gaussian elimination on Fractions: the reference for
    `rank_mod` and the kernel and cokernel ranks, apart from `_row_reduce`."""
    rows = [[Fraction(x) for x in row] for row in mat(M)]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_identity_rows():
    assert la.identity(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert la.identity(0) == []
    I = la.identity(2)
    assert I[0] is not I[1]
    assert all(type(x) is int for x in I[0] + I[1])


def arr(rows, ncols=None):
    """Rows as a 2-D numpy object array, the reference representation."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return np.array(rows, dtype=object).reshape(len(rows), ncols)


small_entries = st.integers(min_value=-9, max_value=9)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(small_entries, min_size=n, max_size=n),
                min_size=m, max_size=m)))


# -- the list elimination against the numpy one it replaced -----------------

def _swap_rows(W: np.ndarray, i: int, j: int) -> None:
    if i != j:
        W[[i, j]] = W[[j, i]]


def row_reduce_reference(W: np.ndarray, ncols: int) -> list[tuple[int, int]]:
    """In-place integer row echelon reduction of W, pivoting on W[:, :ncols].

    Columns beyond ncols (an augmented block) undergo the same row
    operations.  Pivots are made positive.  Returns the pivot positions
    (row, col).  The numpy elimination `exact_linalg._row_reduce` replaced,
    kept verbatim as its reference.
    """
    m = W.shape[0]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        while True:
            col = W[r:, c]
            nz = np.nonzero(col != 0)[0]
            if len(nz) == 0:
                break
            absvals = [abs(col[i]) for i in nz]
            best = nz[min(range(len(nz)), key=absvals.__getitem__)]
            _swap_rows(W, r, r + best)
            if W[r, c] < 0:
                W[r] = -W[r]
            if len(nz) == 1:
                break
            piv = W[r, c]
            rest = W[r + 1:, c]
            q = rest // piv
            # piv has the least absolute value, so every other nonzero
            # entry x has x // piv != 0 and upd is never empty
            upd = np.nonzero(q != 0)[0]
            W[r + 1 + upd] -= q[upd, None] * W[r][None, :]
            # loop: remainders are now in [0, piv), Euclid terminates
            if not np.any(W[r + 1:, c] != 0):
                break
        if W[r, c] != 0:
            pivots.append((r, c))
            r += 1
    return pivots


wide_entries = st.integers(-2 ** 70, 2 ** 70) | small_entries


@given(st.integers(0, 8), st.integers(0, 10), st.data())
@settings(max_examples=80, deadline=None)
def test_row_reduce_matches_numpy_reference(m, width, data):
    ncols = data.draw(st.integers(0, width))
    rows = data.draw(st.lists(st.lists(wide_entries, min_size=width,
                                       max_size=width),
                              min_size=m, max_size=m))
    ref = np.zeros((m, width), dtype=object)
    for i, row in enumerate(rows):
        ref[i, :] = row
    ref_pivots = row_reduce_reference(ref, ncols)
    W = [row[:ncols] for row in rows]
    T = [row[ncols:] for row in rows]
    assert la._row_reduce(W, T) == ref_pivots
    assert [w + t for w, t in zip(W, T)] == ref.tolist()


def test_results_are_rows_of_python_ints():
    M = np.array([[4, 6, 2], [2, 8, -2]], dtype=np.int64)
    D, U, V = la.smith_normal_form(M)
    K = la.kernel_basis(M)
    C = la.SaturatedBasisSolver(K).coefficient_matrix(arr(K) * 3)
    for A in (D, U, V, K, C, la.intmat(M)):
        assert type(A) is list and all(type(row) is list for row in A)
        assert all(type(x) is int for row in A for x in row)
    assert C == [[3]]


def test_empty_shapes():
    # a 2-D array without rows keeps its column count; rows without
    # columns are empty lists
    assert la.cokernel_structure(np.zeros((3, 0), dtype=object)) \
        == la.cokernel_structure([[], [], []]) == GroupExpression.free(3)
    assert la.cokernel_structure(np.zeros((0, 3), dtype=object)).is_zero()
    assert la.kernel_basis(np.zeros((0, 3), dtype=object)) == la.identity(3)
    assert la.kernel_basis([[], [], []]) == []
    assert la.kernel_basis([[1, 0], [0, 1]]) == [[], []]
    assert la.smith_normal_form(np.zeros((0, 2), dtype=object)) \
        == ([], [], [[1, 0], [0, 1]])
    assert la.smith_normal_form([[], []]) == ([[], []], [[1, 0], [0, 1]], [])


def test_object_array_entries_are_checked():
    with pytest.raises(ValueError, match="not an integer"):
        la.cokernel_structure(np.array([[2.5, 0], [0, 3]], dtype=object))
    with pytest.raises(ValueError, match="not an integer"):
        la.smith_normal_form(np.array([[1, True]], dtype=object))
    with pytest.raises(ValueError, match="ragged"):
        la.intmat([[1, 2], [3]])
    with pytest.raises(ValueError, match="sequence of rows"):
        la.intmat([1, 2])


def test_determinant_checks_every_entry():
    # an object array was read unchecked: 2.5 * 3 truncated to 7
    with pytest.raises(ValueError, match="not an integer"):
        la.determinant(np.array([[2.5, 0], [0, 3]], dtype=object))
    assert la.determinant(np.array([[2, 0], [0, 3]], dtype=object)) == 6


def test_rank_mod_checks_every_entry():
    # an object array was read unchecked: 2.5 mod 5 counted as a pivot
    with pytest.raises(ValueError, match="not an integer"):
        la.rank_mod(np.array([[2.5, 0], [0, 3]], dtype=object), 5)
    assert la.rank_mod(np.array([[2, 0], [0, 3]], dtype=np.int64), 5) == 2


def test_numpy_integers_in_object_arrays_do_not_wrap():
    a, b = 2 ** 62 - 1, 2 ** 62 - 3
    M = np.array([[np.int64(a), np.int64(0)], [np.int64(0), np.int64(b)]],
                 dtype=object)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        D, U, V = la.smith_normal_form(M)
    assert [D[0][0], D[1][1]] == [1, a * b]
    assert all(type(x) is int for row in D for x in row)


# -- Smith normal form -------------------------------------------------------

def test_snf_identity():
    D, U, V = la.smith_normal_form([[1, 0], [0, 1]])
    assert D == [[1, 0], [0, 1]]


def test_snf_1x1():
    D, _, _ = la.smith_normal_form([[3]])
    assert D == [[3]]


def test_snf_2x2_divisibility():
    # d_1 = gcd of entries = 2, d_1 * d_2 = |det| = 8
    M = [[2, 4], [6, 8]]
    D, U, V = la.smith_normal_form(M)
    assert [D[0][0], D[1][1]] == [2, 4]
    assert la.matmul(la.matmul(U, M), V) == D


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_snf_properties(rows):
    M = mat(rows)
    D, U, V = la.smith_normal_form(M)
    assert la.matmul(la.matmul(U, M), V) == D
    assert abs(la.determinant(U)) == 1
    assert abs(la.determinant(V)) == 1
    diag = [D[i][i] for i in range(min(len(M), len(M[0])))]
    for i, d in enumerate(diag):
        assert d >= 0
        if i and diag[i - 1]:
            assert d % diag[i - 1] == 0
        if i and diag[i - 1] == 0:
            assert d == 0
    assert all(x == 0 for i, row in enumerate(D)
               for j, x in enumerate(row) if i != j)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_snf_agrees_with_cokernel_diagonalization(rows):
    # the transform-carrying SNF and the transform-free diagonalization
    # behind cokernel_structure must see the same group
    M = mat(rows)
    D, _, _ = la.smith_normal_form(M)
    nonzero = [D[i][i] for i in range(min(len(M), len(M[0]))) if D[i][i] != 0]
    powers = Counter((q, e) for d in nonzero for q, e in factorint(d).items())
    got = la.cokernel_structure(M)
    assert got.summands == tuple(
        [FreeZ(len(M) - len(nonzero))] if len(M) > len(nonzero) else []) \
        + tuple(CyclicPrimePower(q, e, c) for (q, e), c in sorted(powers.items()))


# -- kernels -----------------------------------------------------------------

def test_kernel_obvious():
    K = la.kernel_basis([[1, 1]])
    assert len(K) == 2 and len(K[0]) == 1
    assert sorted(row[0] for row in K) == [-1, 1]


def test_kernel_identity_empty():
    assert la.kernel_basis([[1, 0], [0, 1]]) == [[], []]


def test_kernel_of_nonsingular_twist():
    # det(rho - id) = 3 for the order-3 twist, so no rational kernel
    rho = [[0, -1], [1, -1]]
    M = list(la.minus_identity(rho))
    assert M == [[-1, -1], [1, -2]]
    assert la.kernel_basis(M) == [[], []]


@given(matrices(max_dim=5))
@settings(max_examples=60, deadline=None)
def test_kernel_properties(rows):
    M = mat(rows)
    K = la.kernel_basis(M)
    assert len(K) == len(M[0])
    assert len(K[0]) == len(M[0]) - rational_rank(M)
    assert not np.any(arr(M) @ arr(K) != 0)
    if K[0]:
        # saturated lattice: quotient by the kernel is torsion-free
        got = la.cokernel_structure(K)
        assert got == GroupExpression.free(got.free_rank)


# -- cokernels ---------------------------------------------------------------

def test_cokernel_cyclic():
    assert la.cokernel_structure([[3]]) == GroupExpression.elementary(3, 1)


def test_cokernel_identity_trivial():
    assert la.cokernel_structure([[1, 0], [0, 1]]).is_zero()


def test_cokernel_of_twist():
    rho = mat([[0, -1], [1, -1]])
    got = la.cokernel_structure(la.minus_identity(rho))
    assert got == GroupExpression.elementary(3, 1)
    assert got.summands == (CyclicPrimePower(3, 1, 1),)


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_cokernel_free_rank(rows):
    M = mat(rows)
    cok = la.cokernel_structure(M)
    assert cok.free_rank == len(M) - rational_rank(M)


@given(matrices(max_dim=3), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_cokernel_unimodular_invariance(rows, rng):
    M = mat(rows)
    base = la.cokernel_structure(M)
    gl = _random_unimodular(rng, len(M))
    gr = _random_unimodular(rng, len(M[0]))
    assert la.cokernel_structure(la.matmul(la.matmul(gl, M), gr)) == base


def _random_unimodular(rng, n):
    g = la.identity(n)
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice([-2, -1, 1, 2])
            g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    return g


# -- rank: the test reference and rank_mod off small primes -----------------

def test_rank_identity():
    assert rational_rank(la.identity(4)) == la.rank_mod(la.identity(4), 5) == 4


def test_rank_zero():
    Z = [[0, 0]] * 3
    assert rational_rank(Z) == la.rank_mod(Z, 5) == 0


def test_rank_proportional_rows():
    M = mat([[1, 2], [2, 4]])
    assert rational_rank(M) == la.rank_mod(M, 5) == 1
    assert rational_rank([[2, 1], [1, 2]]) == 2 != la.rank_mod([[2, 1], [1, 2]], 3)


# -- basis solver ------------------------------------------------------------

def test_saturated_basis_solver_rejects_outside():
    B = mat([[2], [0]])  # not saturated, but a valid independent set
    solver = la.SaturatedBasisSolver(B)
    with pytest.raises(ArithmeticError):
        solver.coefficient_matrix(mat([[1], [0]]))


def test_saturated_basis_quotient():
    B = la.identity(2)
    solver = la.SaturatedBasisSolver(B)
    got = solver.quotient_by(mat([[2, 0], [0, 3]]))
    assert got == GroupExpression.elementary(2, 1) + GroupExpression.elementary(3, 1)


class ForwardSubstitutionSolver:
    """Lattice coordinates by a column-echelon form of the basis and exact
    forward substitution: the reference for `SaturatedBasisSolver`.  The
    echelon form comes from `row_reduce_reference`, not from the code
    under test."""

    def __init__(self, basis):
        B = arr(mat(basis))
        self.n, self.s = B.shape
        W = B.T.copy()
        pivots = row_reduce_reference(W, self.n)
        assert len(pivots) == self.s, "basis columns are not independent"
        self.echelon = W.T.copy()   # n x s, column echelon
        self.pivot_rows = [c for _, c in pivots]

    def quotient_by(self, gens):
        G = arr(mat(gens))
        Y = np.zeros((self.s, G.shape[1]), dtype=object)
        for j in range(self.s):
            r = self.pivot_rows[j]
            piv = self.echelon[r, j]
            if np.any(G[r, :] % piv != 0):
                raise ArithmeticError("vector outside the spanned lattice")
            Y[j, :] = G[r, :] // piv
            G -= np.outer(self.echelon[:, j], Y[j, :])
        if np.any(G != 0):
            raise ArithmeticError("vector outside the spanned lattice")
        return la.cokernel_structure(Y)


@given(matrices(max_dim=6), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_saturated_basis_solver_matches_forward_substitution(rows, rng):
    M = mat(rows[:5])
    B = la.kernel_basis(M)
    s = len(B[0])
    g = rng.randint(0, s + 2)
    C = [[rng.randint(-6, 6) for _ in range(g)] for _ in range(s)]
    G = la.matmul(B, C) if s else [[0] * g for _ in B]
    got = la.SaturatedBasisSolver(B).quotient_by(G)
    assert got == ForwardSubstitutionSolver(B).quotient_by(G)
    # B is injective, so span(B) / span(B C) is Z^s / span(C)
    assert got == la.cokernel_structure(C)


def test_saturated_basis_solver_refuses_unsaturated_basis():
    # span [2, 0] contains [2, 0], but Z^2 / span B has torsion
    with pytest.raises(ArithmeticError, match="not saturated"):
        la.SaturatedBasisSolver([[2], [0]]).quotient_by([[2], [0]])
    with pytest.raises(ValueError, match="not independent"):
        la.SaturatedBasisSolver([[1, 2], [1, 2]]).quotient_by([[1], [1]])
    with pytest.raises(ValueError, match="row counts"):
        la.SaturatedBasisSolver([[1], [0]]).quotient_by([[1], [0], [0]])


def test_saturated_basis_solver_rejects_outside_saturated_span():
    solver = la.SaturatedBasisSolver([[1], [1], [0]])
    assert solver.quotient_by([[3], [3], [0]]) == GroupExpression.elementary(3, 1)
    with pytest.raises(ArithmeticError, match="outside"):
        solver.quotient_by([[1], [0], [0]])


# -- ranks over prime fields ---------------------------------------------------

def test_rank_mod_small_cases():
    assert la.rank_mod(mat([[1, 2], [2, 4]]), 5) == 1
    assert la.rank_mod(mat([[2, 0], [0, 3]]), 2) == 1
    assert la.rank_mod(mat([[2, 0], [0, 3]]), 3) == 1
    assert la.rank_mod(mat([[2, 0], [0, 3]]), 5) == 2
    # entries are reduced exactly before the elimination
    assert la.rank_mod(mat([[7 ** 40, 1], [0, 7 ** 40 + 7]]), 7) == 1
    assert la.rank_mod(mat([[7 ** 40 + 1]]), 7) == 1
    assert la.rank_mod([[], [], []], 3) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_mod_off_p_matches_rational_rank(p):
    # F_q[Z/p] is semisimple for q != p, so T = A - I and the norm N keep
    # their rational ranks mod q
    import random
    from crystalk.verify import random_order_p_module
    rng = random.Random(100 + p)
    for _ in range(8):
        mod = random_order_p_module(rng, p, max_rank=max(6, p + 1))
        T = list(la.minus_identity(mod.action))
        N = mod.norm_matrix()
        for q in (2, 3, 5, 7, 11, 2 ** 31 - 1):
            if q == p:
                continue
            assert la.rank_mod(T, q) == rational_rank(T)
            assert la.rank_mod(N, q) == rational_rank(N)


def test_ranks_mod_refuse_a_modulus_that_is_not_prime():
    M = mat([[1, 2], [2, 0]])
    for q in (0, 1, 4, -3, 2.0, True):
        with pytest.raises(ValueError, match=f"modulus {q!r} is not a prime"):
            la.rank_mod(M, q)
        with pytest.raises(ValueError, match=f"modulus {q!r}"):
            la.ranks_mod(M, (3, q))
    # no modulus is too large: products of residues are Python ints; the
    # primality check is trial division, about sqrt(q) steps for a prime q
    assert la.rank_mod(mat([[1, 2], [3, 4]]), 3037000507) == 2
    assert la.rank_mod(M, 2) == 1 and la.rank_mod(M, 3) == 2


def int64_ranks_mod_reference(rows, moduli) -> tuple[int, ...]:
    """Ranks over F_q by int64 Gaussian elimination in numpy, the routine
    `exact_linalg.ranks_mod_rows` replaced: the rows are converted once
    for all moduli (an entry beyond int64 is reduced as a Python int), and
    only moduli whose (q - 1)^2 fits int64 are taken."""
    rows = list(rows)
    shape = (len(rows), len(rows[0]) if rows else 0)
    try:
        A = np.array(rows, dtype=np.int64).reshape(shape)
    except OverflowError:
        A = None
    ranks = []
    for q in moduli:
        assert (q - 1) ** 2 <= 2 ** 63 - 1
        if A is None:
            W = np.array([[x % q for x in row] for row in rows],
                         dtype=np.int64).reshape(shape)
        else:
            W = A % q
        m, n = W.shape
        rank = 0
        for c in range(n):
            if rank == m:
                break
            nz = W[rank:, c].nonzero()[0]
            if not nz.size:
                continue
            if nz[0]:
                j = rank + int(nz[0])
                W[[rank, j]] = W[[j, rank]]
            W[rank, c:] = W[rank, c:] * pow(int(W[rank, c]), -1, q) % q
            below = rank + nz[1:]
            if below.size:
                R = W[below, c:]
                R -= W[below, c, None] * W[rank, c:]
                R %= q
                W[below, c:] = R
            rank += 1
        ranks.append(rank)
    return tuple(ranks)


@given(st.integers(0, 8), st.integers(0, 8), st.data())
@settings(max_examples=80, deadline=None)
def test_ranks_mod_match_the_int64_reference(m, n, data):
    # entries past int64 are reduced exactly; rows are often dependent
    # mod a small q, so draw some as sums of others
    rows = data.draw(st.lists(st.lists(wide_entries, min_size=n, max_size=n),
                              min_size=m, max_size=m))
    for i in range(1, m):
        if data.draw(st.booleans()):
            rows[i] = [a + 3 * b for a, b in zip(rows[i - 1], rows[0])]
    qs = (2, 3, 5, 7, 13)
    assert la.ranks_mod(rows, qs) == int64_ranks_mod_reference(rows, qs)
    # no minor of an 8 x 8 matrix with entries |x| <= 9 reaches 2^61 - 1,
    # so that field keeps the rational rank (the elimination itself, as
    # the primality check would take about 1.5e9 divisions)
    small = data.draw(st.lists(st.lists(small_entries, min_size=n, max_size=n),
                               min_size=m, max_size=m))
    assert la.ranks_mod_rows(small, (2 ** 61 - 1,)) == (rational_rank(small),)


def dense_rank_mod_reference(rows, q) -> int:
    """Rank over F_q by textbook Gaussian elimination on dense rows of
    Python ints, for any prime q (2^61 - 1 too)."""
    W = [[x % q for x in row] for row in rows]
    rank = 0
    for c in range(len(W[0]) if W else 0):
        piv = next((r for r in range(rank, len(W)) if W[r][c]), None)
        if piv is None:
            continue
        W[rank], W[piv] = W[piv], W[rank]
        inv = pow(W[rank][c], -1, q)
        for r in range(rank + 1, len(W)):
            f = W[r][c] * inv % q
            W[r] = [(x - f * y) % q for x, y in zip(W[r], W[rank])]
        rank += 1
    return rank


near_2_80 = st.integers(2 ** 80 - 2 ** 8, 2 ** 80 + 2 ** 8).flatmap(
    lambda x: st.sampled_from((x, -x)))


@given(st.integers(0, 8), st.integers(1, 8), st.data())
@settings(max_examples=80, deadline=None)
def test_ranks_mod_rows_match_the_references(m, n, data):
    # sparse rows keyed by their leading column (odd q) and int bitsets
    # (q = 2) against the int64 and the dense references, on zero rows,
    # entries near 2^80 and rows that depend on others
    entry = st.just(0) | small_entries | near_2_80
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=m, max_size=m))
    for i in range(1, m):
        how = data.draw(st.sampled_from(("keep", "zero", "sum", "double")))
        if how == "zero":
            rows[i] = [0] * n
        elif how == "sum":
            rows[i] = [a - 5 * b for a, b in zip(rows[i - 1], rows[0])]
        elif how == "double":
            rows[i] = [2 * a for a in rows[i - 1]]
    qs = (2, 3, 5, 13, 2 ** 31 - 1)
    got = la.ranks_mod_rows(iter(rows), qs + (2 ** 61 - 1,))
    assert got[:-1] == int64_ranks_mod_reference(rows, qs)
    assert got == tuple(dense_rank_mod_reference(rows, q)
                        for q in qs + (2 ** 61 - 1,))


# -- row helpers against numpy object arrays ---------------------------------

def numpy_power(A, e):
    """A^e by numpy's matrix_power of the object array: the reference."""
    return np.linalg.matrix_power(arr(A), e).tolist()


def test_power_is_identity_matches_the_power():
    c3 = [[0, -1], [1, -1]]   # order 3
    c4 = [[0, -1], [1, 0]]    # order 4
    signed_cycle = [[0, 0, -1], [1, 0, 0], [0, 1, 0]]   # order 6
    for A in ([[-1]], [[2]], c3, c4, signed_cycle, [[1, 1], [0, 1]],
              [[2, 1], [1, 1]], [[0, 0], [0, 0]], la.identity(3)):
        n = len(A)
        # the exponents it takes: at most n + 1, or no prime factor as small
        for e in range(1, 60):
            if e <= n + 1 or all(e % d for d in range(2, n + 2)):
                assert la.power_is_identity(A, e) \
                    == (numpy_power(A, e) == la.identity(n)), (A, e)
    # a huge exponent is one comparison, whatever the order of A
    huge = 10 ** 18 + 3
    for A in ([[2]], c3, [[2, 1], [1, 1]]):
        assert not la.power_is_identity(A, huge)
    assert la.power_is_identity(la.identity(2), huge)


def wide_matrices(m, n):
    return st.lists(st.lists(wide_entries, min_size=n, max_size=n),
                    min_size=m, max_size=m)


@given(st.integers(0, 8), st.integers(1, 8), st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_matmul_transpose_and_kron_match_numpy(m, k, n, data):
    A = data.draw(wide_matrices(m, k))
    B = data.draw(wide_matrices(k, n))
    before = [row[:] for row in A + B]
    assert la.matmul(A, B) == (arr(A, k) @ arr(B, n)).tolist()
    assert la.kron(A, B) == np.kron(arr(A, k), arr(B, n)).tolist()
    # rows alone do not carry the column count of a matrix without rows
    if A:
        assert la.transpose(A) == arr(A).T.tolist()
    assert la.transpose(B) == arr(B).T.tolist()
    assert A + B == before


def _order_check_inputs(p, data):
    """Actions to judge at exponent p: a seeded conjugate of a sum of
    cyclotomic, regular and trivial blocks, -rho (order 2p) and a one-entry
    bump, or -I (for p = 2), whose orbits are degenerate mod 2."""
    import random
    from crystalk import zpmod
    from crystalk.verify import _random_unimodular
    kind = data.draw(st.sampled_from(("sum", "negated", "bumped", "minus_I")))
    if kind == "minus_I":
        n = data.draw(st.integers(1, 6))
        return [[-int(i == j) for j in range(n)] for i in range(n)], 2
    blocks = data.draw(st.lists(st.sampled_from(
        (zpmod.make_cyclotomic(p), zpmod.make_regular(p),
         zpmod.make_trivial(p, 1))), min_size=1, max_size=3))
    rho = zpmod.direct_sum(*blocks).action
    n = len(rho)
    if data.draw(st.booleans()):
        g, g_inv = _random_unimodular(random.Random(data.draw(
            st.integers(0, 10 ** 6))), n, data.draw(st.integers(1, 3 * n)))
        rho = la.matmul(la.matmul(g, rho), g_inv)
    if kind == "negated":
        rho = [[-x for x in row] for row in rho]
    elif kind == "bumped":
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rho[i][j] += data.draw(st.sampled_from((-2, -1, 1, 2)))
    return rho, p


@given(st.sampled_from((2, 3, 5, 7)), st.data())
@settings(max_examples=120, deadline=None)
def test_power_is_identity_matches_numpy(p, data):
    A, p = _order_check_inputs(p, data)
    n = len(A)
    before = [row[:] for row in A]
    # e = 1 and e = p are prime; the orbit check runs for e <= n + 1
    for e in (1, p):
        assert la.power_is_identity(A, e) \
            == (numpy_power(A, e) == la.identity(n)), (A, e)
    assert A == before
    assert list(la.minus_identity(A)) \
        == (arr(A) - np.eye(n, dtype=int)).tolist()


def test_ranks_mod_reads_once_for_every_prime():
    # one reading serves several primes, also when an entry leaves int64
    # and when a modulus does
    rng = np.random.default_rng(5)
    for scale in (1, 2 ** 70):
        M = [[int(x) * scale + int(y) for x, y in zip(row_x, row_y)]
             for row_x, row_y in zip(rng.integers(-3, 4, (6, 7)),
                                     rng.integers(-3, 4, (6, 7)))]
        qs = (2, 3, 5, 7, 2 ** 31 - 1)
        assert la.ranks_mod(M, qs) == tuple(la.rank_mod(M, q) for q in qs)
        assert la.ranks_mod(iter(M), qs) == la.ranks_mod(M, qs)
    assert la.ranks_mod(M, ()) == ()
    assert la.ranks_mod(M, (3, 3037000507)) \
        == (la.rank_mod(M, 3), la.rank_mod(M, 3037000507))
