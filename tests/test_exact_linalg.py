import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crystalk import exact_linalg as la
from crystalk.abelian import FGAbelianGroup


def mat(rows):
    return la.intmat(rows)


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
    # behind invariant_factors/cokernel_structure must see the same group
    M = mat(rows)
    D, _, _ = la.smith_normal_form(M)
    nonzero = [D[i, i] for i in range(min(M.shape)) if D[i, i] != 0]
    assert [d for d in nonzero if d != 1] == la.invariant_factors(M)
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
    assert K.shape[1] == M.shape[1] - la.rational_rank(M)
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
    assert la.invariant_factors(rho - la.eye(2)) == [3]


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_cokernel_free_rank(rows):
    M = mat(rows)
    cok = la.cokernel_structure(M)
    assert cok.free_rank == M.shape[0] - la.rational_rank(M)


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


# -- rank --------------------------------------------------------------------

def test_rank_identity():
    assert la.rational_rank(la.eye(4)) == 4


def test_rank_zero():
    assert la.rational_rank(la.zeros(3, 2)) == 0


def test_rank_proportional_rows():
    assert la.rational_rank([[1, 2], [2, 4]]) == 1


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
