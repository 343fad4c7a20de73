"""Exact integer matrix algebra.

One elimination routine, `_row_reduce`, gives ranks, saturated kernel
lattices, column lattices, the diagonalization behind cokernel structure
and invariant factors, and the Smith normal form with its transforms.
`determinant` (Bareiss elimination) stays apart as an independent check.
Matrices are numpy arrays of dtype=object holding Python ints, so nothing
ever overflows and no floating point is involved.
"""

from __future__ import annotations

import numpy as np

from .abelian import FGAbelianGroup


def _as_int(x) -> int:
    # operator.index semantics: ints and integer-like only, no silent
    # truncation of floats
    if isinstance(x, bool):
        raise ValueError(f"matrix entry {x!r} is not an integer")
    try:
        return int(x.__index__())
    except AttributeError:
        raise ValueError(f"matrix entry {x!r} is not an integer") from None


def intmat(rows) -> np.ndarray:
    """Build an exact integer matrix (dtype=object) from nested sequences."""
    if isinstance(rows, np.ndarray):
        arr = rows
        if arr.dtype == object and arr.ndim == 2:
            return arr
        rows = arr.tolist()
    try:
        data = [[_as_int(x) for x in row] for row in rows]
    except TypeError:
        raise ValueError("matrix input must be a sequence of rows") from None
    ncols = {len(r) for r in data}
    if len(data) and len(ncols) != 1:
        raise ValueError("ragged rows in matrix input")
    m = len(data)
    n = ncols.pop() if data else 0
    out = np.empty((m, n), dtype=object)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def zeros(m: int, n: int) -> np.ndarray:
    out = np.empty((m, n), dtype=object)
    out[...] = 0
    return out


def eye(n: int) -> np.ndarray:
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = 1
    return out


def _swap_rows(W: np.ndarray, i: int, j: int) -> None:
    if i != j:
        W[[i, j]] = W[[j, i]]


def _row_reduce(W: np.ndarray, ncols: int) -> list[tuple[int, int]]:
    """In-place integer row echelon reduction of W, pivoting on W[:, :ncols].

    Columns beyond ncols (an augmented block) undergo the same row
    operations.  Pivots are made positive.  Returns the pivot positions
    (row, col).
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
            upd = np.nonzero(q != 0)[0]
            if len(upd) == 0:
                # remaining entries already in [0, piv); smaller nonzero
                # exists only if some entry is nonzero, handled next round
                sub = np.nonzero(rest != 0)[0]
                if len(sub) == 0:
                    break
                continue
            W[r + 1 + upd] -= q[upd, None] * W[r][None, :]
            # loop: remainders are now in [0, piv), Euclid terminates
            if not np.any(W[r + 1:, c] != 0):
                break
        if W[r, c] != 0:
            pivots.append((r, c))
            r += 1
    return pivots


def _echelon(A: np.ndarray, T: np.ndarray):
    """Row-reduce [A | T], pivoting on A; returns (A', T', rank)."""
    W = np.concatenate([A, T], axis=1)
    rank = len(_row_reduce(W, A.shape[1]))
    return W[:, :A.shape[1]], W[:, A.shape[1]:], rank


def rational_rank(M) -> int:
    """Rank of M over the rationals, computed exactly."""
    M = intmat(M).copy()
    return len(_row_reduce(M, M.shape[1]))


def kernel_basis(M) -> np.ndarray:
    """Basis of the integer kernel lattice {x : Mx = 0}, as matrix columns.

    The kernel of an integer matrix is automatically saturated: the basis
    comes from the unimodular transform of a row reduction of the
    transpose, so the returned columns span the full kernel lattice and
    Z^cols modulo the kernel is torsion-free.
    """
    M = intmat(M)
    _, T, rank = _echelon(M.T, eye(M.shape[1]))
    return T[rank:].T.copy()


def column_lattice_basis(M) -> np.ndarray:
    """Columns forming a basis of the lattice spanned by the columns of M.

    Row operations on the transpose preserve the column lattice, so the
    nonzero rows of its echelon form give an exact generating set.
    """
    W = intmat(M).T.copy()
    pivots = _row_reduce(W, W.shape[1])
    return W[:len(pivots)].T.copy()


def _diagonalize(D: np.ndarray, U: np.ndarray, Vt: np.ndarray) -> int:
    """Make D diagonal in place; U and Vt pick up the row and column moves.

    Alternates row passes on [D | U] and column passes on [D^T | Vt] (pass
    zero-width U and Vt when no transform is wanted), so U @ M @ Vt.T = D
    holds throughout when U and Vt start as identities.  Returns the rank r:
    the nonzero entries end at D[i, i] for i < r, positive but not yet a
    divisibility chain.  A pass leaves every row (column) past the rank
    zero and no later move touches it, so later passes reduce only the
    leading block; after a row pass the first r columns of D^T are
    independent, so the column pass puts its pivots on the diagonal.
    """
    rows, cols = D.shape   # D is zero outside D[:rows, :cols]
    while True:
        D[:rows, :cols], U[:rows], rank = _echelon(D[:rows, :cols], U[:rows])
        rows = rank
        Dt, Vt[:cols], rank = _echelon(D[:rows, :cols].T, Vt[:cols])
        D[:rows, :cols] = Dt.T
        cols = rank
        if np.count_nonzero(D[:rows, :cols] != 0) == rank:
            return rank


def cokernel_structure(M) -> FGAbelianGroup:
    """Structure of Z^rows / column-span(M) as a finitely generated group."""
    D = intmat(M).copy()
    m, n = D.shape
    rank = _diagonalize(D, zeros(m, 0), zeros(n, 0))
    return FGAbelianGroup(m - rank,
                          [D[i, i] for i in range(rank) if D[i, i] != 1])


def invariant_factors(M) -> list[int]:
    """Invariant factors of M (SNF diagonal with unit entries dropped)."""
    return list(cokernel_structure(M).torsion)


def smith_normal_form(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form: (D, U, V) with D = U @ M @ V.

    U and V are unimodular; D is diagonal with d_1 | d_2 | ... positive,
    followed by zeros.  Where d_i does not divide d_(i+1), row i + 1 is
    added to row i and D is diagonalized again; that replaces d_i by a
    proper divisor and leaves d_1 ... d_(i-1) alone, so the repairs end.
    """
    D = intmat(M).copy()
    m, n = D.shape
    U, Vt = eye(m), eye(n)
    while True:
        rank = _diagonalize(D, U, Vt)
        bad = [i for i in range(rank - 1) if D[i + 1, i + 1] % D[i, i]]
        if not bad:
            return D, U, Vt.T
        i = bad[0]
        D[i] += D[i + 1]
        U[i] += U[i + 1]


def determinant(M) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    M = intmat(M).copy()
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k, k] == 0:
            nz = np.nonzero(M[k + 1:, k] != 0)[0]
            if len(nz) == 0:
                return 0
            _swap_rows(M, k, k + 1 + int(nz[0]))
            sign = -sign
        piv = M[k, k]
        blk = M[k + 1:, k + 1:]
        M[k + 1:, k + 1:] = (piv * blk - np.outer(M[k + 1:, k], M[k, k + 1:])) // prev
        M[k + 1:, k] = 0
        prev = piv
    return sign * int(M[n - 1, n - 1])


class SaturatedBasisSolver:
    """Repeated coordinate solving against a fixed lattice basis.

    Holds a column-echelon form of the basis matrix; `quotient_by` computes
    the structure of (lattice)/(sublattice) for a sublattice handed in by
    generating vectors, expressing each generator in basis coordinates by
    exact forward substitution and reading the quotient off the coefficient
    matrix.  Generators outside the lattice are a hard error.
    """

    def __init__(self, basis: np.ndarray):
        B = intmat(basis)
        self.n, self.s = B.shape
        W = B.T.copy()
        pivots = _row_reduce(W, self.n)
        if len(pivots) != self.s:
            raise ValueError("basis columns are not independent")
        self.echelon = W.T.copy()   # n x s, column echelon
        self.pivot_rows = [c for _, c in pivots]

    def coefficient_matrix(self, gens: np.ndarray) -> np.ndarray:
        """Coordinates of each generator column, up to a basis change.

        Returns Y (s x g) with column spans satisfying
        lattice(basis) @ C = gens for C = W @ Y, W unimodular; quotient
        computations may use Y directly.
        """
        G = intmat(gens).copy()
        g = G.shape[1]
        Y = zeros(self.s, g)
        for j in range(self.s):
            r = self.pivot_rows[j]
            piv = self.echelon[r, j]
            vals = G[r, :]
            if np.any(vals % piv != 0):
                raise ArithmeticError("vector outside the spanned lattice")
            coef = vals // piv
            Y[j, :] = coef
            upd = np.nonzero(coef != 0)[0]
            if len(upd):
                G[:, upd] -= np.outer(self.echelon[:, j], coef[upd])
        if np.any(G != 0):
            raise ArithmeticError("vector outside the spanned lattice")
        return Y

    def quotient_by(self, gens: np.ndarray) -> FGAbelianGroup:
        Y = self.coefficient_matrix(gens)
        return cokernel_structure(Y)
