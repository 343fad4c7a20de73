"""Exact integer matrix algebra.

One elimination routine, `_row_reduce`, gives saturated kernel lattices,
lattice coordinates (`SaturatedBasisSolver`), the diagonalization behind
cokernel structure and the Smith normal form with its transforms.  Inside,
a matrix is a list of rows of Python ints: most matrices here are at most
16 wide, where numpy's cost per call outweighs the arithmetic.  At the
boundary matrices are numpy arrays of dtype=object holding Python ints:
each public routine reads its argument into rows once (`_rows`, which
checks every entry) and builds the arrays it returns once.  Nothing ever
overflows and no floating point is involved.

Two routines stay apart on purpose.  `rank_mod` works over a prime field
F_q on int64 residues, and refuses a modulus for which a product of two
residues could leave int64.  `determinant` (Bareiss elimination) is an
independent check.
"""

from __future__ import annotations

from itertools import chain, compress

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

    A 2-D object array is returned as is, unchecked; the elimination
    routines check its entries when they read it into rows (`_rows`)."""
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
    return _array(data, len(data), ncols.pop() if data else 0)


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


def _rows(M) -> tuple[list[list[int]], int]:
    """M as a fresh list of rows of Python ints, and its column count.

    The one entry check of the elimination: every entry that is not an
    int goes through `_as_int`, so a float (even in an object array) is
    refused and a numpy integer becomes a Python int, whose arithmetic
    cannot wrap.
    """
    if not (isinstance(M, np.ndarray) and M.ndim == 2):
        M = intmat(M)
    rows = M.tolist()
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        rows = [[_as_int(x) for x in row] for row in rows]
    return rows, M.shape[1]


def _transpose(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """The transpose of rows that are ncols long.  Empties `rows` before
    building the new rows, so only one copy of the matrix is ever held as
    rows (the other is one flat list, freed at once)."""
    flat = list(chain.from_iterable(rows))
    rows.clear()
    return [flat[j::ncols] for j in range(ncols)]


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _array(rows: list[list[int]], m: int, n: int) -> np.ndarray:
    """The m x n object array of rows of Python ints."""
    return np.array(rows, dtype=object).reshape(m, n)


def _row_reduce(W: list[list[int]], T: list[list[int]] | None = None
                ) -> list[tuple[int, int]]:
    """In-place integer row echelon reduction of the rows W.

    T, if given, holds one companion row (say, of a transform) for each
    row of W and undergoes the same row operations; its rows past len(W)
    are left alone.  Pivots are the first row of least absolute value,
    reduced by Euclid's algorithm, and are made positive.  Returns the
    pivot positions (row, col).
    """
    m = len(W)
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(len(W[0]) if W else 0):
        if r == m:
            break
        nz = [i for i in range(r, m) if W[i][c]]
        while nz:
            best = nz[0] if len(nz) == 1 else min(nz, key=lambda i: abs(W[i][c]))
            W[r], W[best] = W[best], W[r]
            if T is not None:
                T[r], T[best] = T[best], T[r]
            row = W[r]
            if row[c] < 0:
                # every row from r down is zero left of column c
                row[c:] = [-x for x in row[c:]]
                if T is not None:
                    T[r] = [-x for x in T[r]]
            if len(nz) == 1:
                break
            piv = row[c]
            # the other rows with a nonzero in column c: if row r had one,
            # it is now at best and they are nz[1:]; if not, nz without best
            rest = nz[1:] if nz[0] == r else [i for i in nz if i != best]
            # a row update reads only the pivot row's nonzero entries
            support = list(compress(range(c, len(row)), row[c:]))
            if T is not None:
                Tr = T[r]
                tsupport = list(compress(range(len(Tr)), Tr))
            nz = [r]
            for i in rest:
                Wi = W[i]
                # piv has the least absolute value, so q != 0
                q = Wi[c] // piv
                for j in support:
                    Wi[j] -= q * row[j]
                if T is not None:
                    Ti = T[i]
                    for j in tsupport:
                        Ti[j] -= q * Tr[j]
                if Wi[c]:
                    nz.append(i)
            # remainders are now in [0, piv), so Euclid terminates
        if W[r][c]:
            pivots.append((r, c))
            r += 1
    return pivots


def kernel_basis(M) -> np.ndarray:
    """Basis of the integer kernel lattice {x : Mx = 0}, as matrix columns.

    The kernel of an integer matrix is automatically saturated: the basis
    comes from the unimodular transform of a row reduction of the
    transpose, so the returned columns span the full kernel lattice and
    Z^cols modulo the kernel is torsion-free.
    """
    rows, n = _rows(M)
    W = _transpose(rows, n)
    T = _identity(n)
    rank = len(_row_reduce(W, T))
    return _array(_transpose(T[rank:], n), n, n - rank)


def _diagonalize(D: list[list[int]], U: list[list[int]] | None = None,
                 Vt: list[list[int]] | None = None) -> int:
    """Make the rows D diagonal in place; U and Vt pick up the row and
    column moves.

    Alternates row passes on D, with U as companion, and column passes on
    D^T, with Vt, so U @ M @ Vt.T = D holds throughout when U and Vt start
    as identities.  Returns the rank r, with D cut to its r x r block,
    whose diagonal is positive but not yet a divisibility chain.  A pass
    leaves every row (column) past the rank zero and no later move touches
    it, so it is dropped and later passes reduce only the leading block;
    after a row pass the rows of D are independent, so the column pass
    puts its pivots on the diagonal.
    """
    while True:
        del D[len(_row_reduce(D, U)):]
        if not D:
            return 0
        Dt = _transpose(D, len(D[0]))
        rank = len(_row_reduce(Dt, Vt))
        del Dt[rank:]
        D[:] = _transpose(Dt, len(Dt[0]))
        if all(row.count(0) == rank - 1 for row in D):
            return rank


def cokernel_structure(M) -> FGAbelianGroup:
    """Structure of Z^rows / column-span(M) as a finitely generated group."""
    D, _ = _rows(M)
    m = len(D)
    rank = _diagonalize(D)
    return FGAbelianGroup(m - rank,
                          [D[i][i] for i in range(rank) if D[i][i] != 1])


def smith_normal_form(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form: (D, U, V) with D = U @ M @ V.

    U and V are unimodular; D is diagonal with d_1 | d_2 | ... positive,
    followed by zeros.  Where d_i does not divide d_(i+1), row i + 1 is
    added to row i and D is diagonalized again; that replaces d_i by a
    proper divisor and leaves d_1 ... d_(i-1) alone, so the repairs end.
    """
    D, n = _rows(M)
    m = len(D)
    U, Vt = _identity(m), _identity(n)
    while True:
        rank = _diagonalize(D, U, Vt)
        bad = [i for i in range(rank - 1) if D[i + 1][i + 1] % D[i][i]]
        if not bad:
            break
        i = bad[0]
        D[i] = [a + b for a, b in zip(D[i], D[i + 1])]
        U[i] = [a + b for a, b in zip(U[i], U[i + 1])]
    out = zeros(m, n)
    for i in range(rank):
        out[i, i] = D[i][i]
    return out, _array(U, m, m), _array(Vt, n, n).T


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
        B, _ = _rows(self.basis)
        G, g = _rows(gens)
        if len(G) != len(B):
            raise ValueError("generators and basis have different row counts")
        if len(_row_reduce(B, G)) < self.s:
            raise ValueError("basis columns are not independent")
        if any(B[j][j] != 1 for j in range(self.s)):
            raise ArithmeticError("basis is not saturated")
        if any(map(any, G[self.s:])):
            raise ArithmeticError("vector outside the spanned lattice")
        return _array(G[:self.s], self.s, g)

    def quotient_by(self, gens: np.ndarray) -> FGAbelianGroup:
        return cokernel_structure(self.coefficient_matrix(gens))
