"""Exact integer matrix algebra.

One elimination routine, `_row_reduce`, gives saturated kernel lattices,
lattice coordinates (`SaturatedBasisSolver`), the diagonalization behind
cokernel structure and the Smith normal form with its transforms.
Matrices are numpy arrays of dtype=object holding Python ints, so nothing
ever overflows and no floating point is involved.

Two routines stay apart on purpose.  `rank_mod` works over a prime field
F_q on int64 residues, and refuses a modulus for which a product of two
residues could leave int64.  `determinant` (Bareiss elimination) is an
independent check.
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
    """Build an exact integer matrix (dtype=object) from nested sequences.

    A 2-D object array is trusted to hold Python ints and returned as is."""
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
    return np.zeros((m, n), dtype=object)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=object)


_INT64_MAX = int(np.iinfo(np.int64).max)


def rank_mod(M, q: int) -> int:
    """Rank of M over the prime field F_q, by int64 Gaussian elimination.

    Entries are reduced into [0, q) first; scaling a row and subtracting
    a multiple of it take products of two residues, so no value leaves
    int64 while (q - 1)^2 does not.  A larger q is refused with
    OverflowError.
    """
    if (q - 1) ** 2 > _INT64_MAX:
        raise OverflowError(f"modulus {q} does not fit int64 arithmetic")
    if not (isinstance(M, np.ndarray) and M.dtype == np.int64):
        M = intmat(M)
    W = (M % q).astype(np.int64)
    rows, cols = W.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(W[rank:, c])
        if nz.size == 0:
            continue
        _swap_rows(W, rank, rank + int(nz[0]))
        W[rank, c:] = W[rank, c:] * pow(int(W[rank, c]), -1, q) % q
        below = rank + 1 + np.flatnonzero(W[rank + 1:, c])
        if below.size:
            W[below, c:] = (W[below, c:]
                            - W[below, c, None] * W[rank, c:]) % q
        rank += 1
    return rank


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


def _echelon(A: np.ndarray, T: np.ndarray):
    """Row-reduce [A | T], pivoting on A; returns (A', T', rank)."""
    W = np.concatenate([A, T], axis=1)
    rank = len(_row_reduce(W, A.shape[1]))
    return W[:, :A.shape[1]], W[:, A.shape[1]:], rank


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
    """Coordinates and quotients against a saturated lattice basis B.

    `coefficient_matrix` row-reduces [B | G] once, pivoting on B: U @ B =
    [R; 0] with U unimodular and R upper triangular with positive pivots.
    U keeps the gcd of the maximal minors of B (Cauchy-Binet), so that gcd
    is det R, and B spans a saturated lattice (Z^n / span B torsion-free)
    exactly when every pivot of R is 1 (Newman, Integral Matrices, ch. II).
    Then R is unimodular, B @ C = G forces the rows of U @ G below R to
    vanish, and the top rows R @ C are the coordinates C up to a basis
    change, which keeps every quotient.  A basis with another pivot is
    refused, as is a generator outside the span.  It is a class, not a
    function, because `perfbench/tracer.py` times its three methods as
    a layer boundary.
    """

    def __init__(self, basis: np.ndarray):
        self.basis = intmat(basis)
        self.s = self.basis.shape[1]

    def coefficient_matrix(self, gens: np.ndarray) -> np.ndarray:
        """R @ C (s x g) for the coordinates C of the generator columns."""
        UB, UG, rank = _echelon(self.basis, intmat(gens))
        if rank < self.s:
            raise ValueError("basis columns are not independent")
        if any(UB[j, j] != 1 for j in range(self.s)):
            raise ArithmeticError("basis is not saturated")
        if np.any(UG[self.s:] != 0):
            raise ArithmeticError("vector outside the spanned lattice")
        return UG[:self.s]

    def quotient_by(self, gens: np.ndarray) -> FGAbelianGroup:
        return cokernel_structure(self.coefficient_matrix(gens))
