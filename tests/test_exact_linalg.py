from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crystalk import exact_linalg as la
from crystalk.abelian import FGAbelianGroup


def mat(rows):
    return la.intmat(rows)


def rational_rank(M) -> int:
    """Rank over Q by Gaussian elimination on Fractions: the reference for
    `rank_mod` and the kernel and cokernel ranks, apart from `_row_reduce`."""
    rows = [[Fraction(int(x)) for x in row] for row in mat(M).tolist()]
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


small_entries = st.integers(min_value=-9, max_value=9)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(small_entries, min_size=n, max_size=n),
                min_size=m, max_size=m)))


# -- Smith normal form -------------------------------------------------------

def test_snf_identity():
    D, U, V = la.smith_normal_form([[1, 0], [0, 1]])
    assert D.tolist() == [[1, 0], [0, 1]]


def test_snf_1x1():
    D, _, _ = la.smith_normal_form([[3]])
    assert D.tolist() == [[3]]


def test_snf_2x2_divisibility():
    # d_1 = gcd of entries = 2, d_1 * d_2 = |det| = 8
    M = [[2, 4], [6, 8]]
    D, U, V = la.smith_normal_form(M)
    assert [D[0, 0], D[1, 1]] == [2, 4]
    assert not np.any(U @ mat(M) @ V != D)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_snf_properties(rows):
    M = mat(rows)
    D, U, V = la.smith_normal_form(M)
    assert not np.any(U @ M @ V != D)
    assert abs(la.determinant(U)) == 1
    assert abs(la.determinant(V)) == 1
    diag = [D[i, i] for i in range(min(M.shape))]
    for i, d in enumerate(diag):
        assert d >= 0
        if i and diag[i - 1]:
            assert d % diag[i - 1] == 0
        if i and diag[i - 1] == 0:
            assert d == 0
    off = D.copy()
    for i in range(min(M.shape)):
        off[i, i] = 0
    assert not np.any(off != 0)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_snf_agrees_with_cokernel_diagonalization(rows):
    # the transform-carrying SNF and the transform-free diagonalization
    # behind cokernel_structure must see the same group
    M = mat(rows)
    D, _, _ = la.smith_normal_form(M)
    nonzero = [D[i, i] for i in range(min(M.shape)) if D[i, i] != 0]
    assert [d for d in nonzero if d != 1] \
        == list(la.cokernel_structure(M).torsion)
    assert M.shape[0] - len(nonzero) == la.cokernel_structure(M).free_rank


# -- kernels -----------------------------------------------------------------

def test_kernel_obvious():
    K = la.kernel_basis([[1, 1]])
    assert K.shape == (2, 1)
    assert sorted(int(x) for x in K[:, 0]) == [-1, 1]


def test_kernel_identity_empty():
    assert la.kernel_basis([[1, 0], [0, 1]]).shape == (2, 0)


def test_kernel_of_nonsingular_twist():
    # det(rho - id) = 3 for the order-3 twist, so no rational kernel
    rho = [[0, -1], [1, -1]]
    M = mat(rho) - la.eye(2)
    assert la.kernel_basis(M).shape == (2, 0)


@given(matrices(max_dim=5))
@settings(max_examples=60, deadline=None)
def test_kernel_properties(rows):
    M = mat(rows)
    K = la.kernel_basis(M)
    assert K.shape[1] == M.shape[1] - rational_rank(M)
    assert not np.any(M @ K != la.zeros(M.shape[0], K.shape[1]))
    if K.shape[1]:
        # saturated lattice: quotient by the kernel is torsion-free
        assert la.cokernel_structure(K).torsion == ()


# -- cokernels ---------------------------------------------------------------

def test_cokernel_cyclic():
    assert la.cokernel_structure([[3]]) == FGAbelianGroup.cyclic(3)


def test_cokernel_identity_trivial():
    assert la.cokernel_structure([[1, 0], [0, 1]]).is_trivial()


def test_cokernel_of_twist():
    rho = mat([[0, -1], [1, -1]])
    got = la.cokernel_structure(rho - la.eye(2))
    assert got == FGAbelianGroup.cyclic(3)
    assert list(la.cokernel_structure(rho - la.eye(2)).torsion) == [3]


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_cokernel_free_rank(rows):
    M = mat(rows)
    cok = la.cokernel_structure(M)
    assert cok.free_rank == M.shape[0] - rational_rank(M)


@given(matrices(max_dim=3), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_cokernel_unimodular_invariance(rows, rng):
    M = mat(rows)
    base = la.cokernel_structure(M)
    gl = _random_unimodular(rng, M.shape[0])
    gr = _random_unimodular(rng, M.shape[1])
    assert la.cokernel_structure(gl @ M @ gr) == base


def _random_unimodular(rng, n):
    g = la.eye(n)
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            g[i] = g[i] + rng.choice([-2, -1, 1, 2]) * g[j]
    return g


# -- rank: the test reference and rank_mod off small primes -----------------

def test_rank_identity():
    assert rational_rank(la.eye(4)) == la.rank_mod(la.eye(4), 5) == 4


def test_rank_zero():
    assert rational_rank(la.zeros(3, 2)) == la.rank_mod(la.zeros(3, 2), 5) == 0


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
    B = la.eye(2)
    solver = la.SaturatedBasisSolver(B)
    got = solver.quotient_by(mat([[2, 0], [0, 3]]))
    assert got == FGAbelianGroup.cyclic(6)


class ForwardSubstitutionSolver:
    """Lattice coordinates by a column-echelon form of the basis and exact
    forward substitution: the reference for `SaturatedBasisSolver`."""

    def __init__(self, basis):
        B = mat(basis)
        self.n, self.s = B.shape
        W = B.T.copy()
        pivots = la._row_reduce(W, self.n)
        assert len(pivots) == self.s, "basis columns are not independent"
        self.echelon = W.T.copy()   # n x s, column echelon
        self.pivot_rows = [c for _, c in pivots]

    def quotient_by(self, gens):
        G = mat(gens).copy()
        Y = la.zeros(self.s, G.shape[1])
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
    s, g = B.shape[1], rng.randint(0, B.shape[1] + 2)
    C = la.zeros(s, g)
    for i in range(s):
        for j in range(g):
            C[i, j] = rng.randint(-6, 6)
    G = B @ C if s else la.zeros(M.shape[1], g)
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


def test_saturated_basis_solver_rejects_outside_saturated_span():
    solver = la.SaturatedBasisSolver([[1], [1], [0]])
    assert solver.quotient_by([[3], [3], [0]]) == FGAbelianGroup.cyclic(3)
    with pytest.raises(ArithmeticError, match="outside"):
        solver.quotient_by([[1], [0], [0]])


# -- ranks over prime fields ---------------------------------------------------

def test_rank_mod_small_cases():
    assert la.rank_mod(mat([[1, 2], [2, 4]]), 5) == 1
    assert la.rank_mod(mat([[2, 0], [0, 3]]), 2) == 1
    assert la.rank_mod(mat([[2, 0], [0, 3]]), 3) == 1
    assert la.rank_mod(mat([[2, 0], [0, 3]]), 5) == 2
    # entries are reduced exactly before the int64 elimination
    assert la.rank_mod(mat([[7 ** 40, 1], [0, 7 ** 40 + 7]]), 7) == 1
    assert la.rank_mod(mat([[7 ** 40 + 1]]), 7) == 1
    assert la.rank_mod(la.zeros(3, 0), 3) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_mod_off_p_matches_rational_rank(p):
    # F_q[Z/p] is semisimple for q != p, so T = A - I and the norm N keep
    # their rational ranks mod q
    import random
    from crystalk.verify import random_order_p_module
    rng = random.Random(100 + p)
    for _ in range(8):
        mod = random_order_p_module(rng, p, max_rank=max(6, p + 1))
        T = mod.action - la.eye(mod.rank)
        N = mod.norm_matrix()
        for q in (2, 3, 5, 7, 11, 2 ** 31 - 1):
            if q == p:
                continue
            assert la.rank_mod(T, q) == rational_rank(T)
            assert la.rank_mod(N, q) == rational_rank(N)


def test_int64_bounds_refuse_large_moduli():
    # (q - 1)^2 must fit int64 for a row update
    with pytest.raises(OverflowError):
        la.rank_mod(mat([[1, 2], [3, 4]]), 3037000507)
    assert la.rank_mod(mat([[1, 2], [3, 4]]), 2 ** 31 - 1) == 2
