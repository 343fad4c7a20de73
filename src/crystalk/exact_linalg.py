"""Exact integer matrix algebra on lists of rows of Python ints.

A matrix is a list of rows, each a list of Python ints, so nothing ever
overflows and no floating point is involved.  One elimination routine,
`_row_reduce`, gives saturated kernel lattices, lattice coordinates
(`SaturatedBasisSolver`), the diagonalization behind cokernel structure
and the Smith normal form with its transforms.

A matrix from outside is read by one checked reader, `_rows`, in front
of every routine that takes one; every routine returns new rows.  The
row helpers (`identity`, `transpose`, `minus_identity`, `matmul`,
`power_is_identity`, `kron`, `ranks_mod_rows`) take rows as those return
them, unchecked; `minus_identity` yields its rows one at a time, so
T = A - I is never held twice.  No helper forms a power of a matrix:
`power_is_identity` certifies A^e = I on the orbits of basis vectors.

Two routines stay apart on purpose: `ranks_mod_rows` (behind `ranks_mod`
and `rank_mod`, which refuse a modulus that is not prime) eliminates
over prime fields F_q on sparse rows, F_2 as XOR on int bitsets, and
`determinant` (Bareiss elimination) is an independent check.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from itertools import chain, compress
from operator import add

from .abelian import (CyclicPrimePower, FreeZ, GroupExpression, factorint,
                      is_prime)


def _as_int(x) -> int:
    # operator.index semantics: ints and integer-like only, no silent
    # truncation of floats
    if isinstance(x, bool):
        raise ValueError(f"matrix entry {x!r} is not an integer")
    try:
        return int(x.__index__())
    except (AttributeError, TypeError):
        raise ValueError(f"matrix entry {x!r} is not an integer") from None


def _rows(M) -> tuple[list[list[int]], int]:
    """M as a list of fresh rows of Python ints, and its column count.

    The one entry check: M is any sequence of equally long rows, or a 2-D
    numpy array, which keeps its column count when it has no rows.  Every
    entry that is not an int goes through `_as_int`, so a float (even in
    an object array) is refused and a numpy integer becomes a Python int,
    whose arithmetic cannot wrap.
    """
    shape = getattr(M, "shape", None)
    if shape is not None and len(shape) == 2:
        rows, n = M.tolist(), shape[1]
    else:
        try:
            rows = [list(row) for row in M]
        except TypeError:
            raise ValueError("matrix input must be a sequence of rows") from None
        n = len(rows[0]) if rows else 0
        if any(len(row) != n for row in rows):
            raise ValueError("ragged rows in matrix input")
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        rows = [[_as_int(x) for x in row] for row in rows]
    return rows, n


def intmat(M) -> list[list[int]]:
    """An exact integer matrix, as new rows of Python ints, from anything
    `_rows` reads."""
    return _rows(M)[0]


# -- row helpers: rows of Python ints in, new rows out ------------------------

def identity(n: int) -> list[list[int]]:
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(out):
        row[i] = 1
    return out


def _transpose(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """The transpose of rows that are ncols long.  Empties `rows` before
    building the new rows, so only one copy of the matrix is ever held as
    rows (the other is one flat list, freed at once)."""
    flat = list(chain.from_iterable(rows))
    rows.clear()
    return [flat[j::ncols] for j in range(ncols)]


def transpose(A: list[list[int]]) -> list[list[int]]:
    return _transpose(list(A), len(A[0]) if A else 0)


def minus_identity(A: list[list[int]]) -> Iterator[list[int]]:
    """The rows of A - I for a square A, each a new list, one at a time.

    Every routine that reads a matrix copies it, so a reader handed these
    rows holds the only copy of A - I, not a second one beside the
    caller's."""
    for i, row in enumerate(A):
        row = row[:]
        row[i] -= 1
        yield row


def matmul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """A @ B.  Row i of the product adds up the rows of B that the nonzero
    entries of row i of A pick, each scaled by its entry, so a sparse A
    costs less than a dense one; an entry 1 adds its row unscaled."""
    n = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = None
        for a, b in zip(row, B):
            if not a:
                continue
            if acc is None:
                acc = b[:] if a == 1 else [a * y for y in b]
            elif a == 1:
                acc = list(map(add, acc, b))
            else:
                acc = [x + a * y for x, y in zip(acc, b)]
        out.append([0] * n if acc is None else acc)
    return out


def _add_mod2(pivots: dict[int, int], v: int) -> bool:
    """Add v, a vector over F_2 held as an int bitset, to the echelon basis
    `pivots` (highest bit -> basis vector) unless it lies in their span;
    whether it was added.  Each step XORs away v's highest bit."""
    while v:
        top = v.bit_length() - 1
        b = pivots.get(top)
        if b is None:
            pivots[top] = v
            return True
        v ^= b
    return False


def power_is_identity(A: list[list[int]], e: int) -> bool:
    """Whether A^e = I, for a square A (n x n) and an e >= 1 that is a
    prime of at most n + 1 or has no prime factor that small.

    A larger such e has A^e = I only for A = I (an A of finite order
    m != 1 has, for each prime l | m, a primitive l-th root of unity among
    its eigenvalues, of degree l - 1 <= n), so that case is one
    comparison.  Otherwise no power of A is formed; A^e = I is certified
    on orbits.  The basis vectors e_i are taken in order, skipping each
    one already in the F_2-span of the vectors collected so far.  For the
    others the orbit e_i, A e_i, ..., A^e e_i is computed as sparse
    combinations of the columns of A, A^e e_i = e_i is checked, and the
    orbit, which A^e fixes as it commutes with A, joins an F_2 echelon
    basis (`_add_mod2`).  Every e_i ends in that span, so its rank reaches
    n; then A^e fixes n vectors whose determinant is odd, hence nonzero:
    a basis of Q^n, so A^e = I.
    """
    n = len(A)
    if e > n + 1:
        return not any(map(any, minus_identity(A)))
    # column j of A as the (row, entry) pairs of its nonzero entries
    cols = [[] for _ in range(n)]
    for i, row in enumerate(A):
        for j in compress(range(n), row):
            cols[j].append((i, row[j]))
    basis: dict[int, int] = {}
    for i in range(n):
        if not _add_mod2(basis, 1 << i):
            continue
        orbit = []   # A e_i, ..., A^e e_i, each as {row: nonzero entry}
        x = {i: 1}
        for _ in range(e):
            y: dict[int, int] = {}
            for j, c in x.items():
                for r, a in cols[j]:
                    y[r] = y.get(r, 0) + c * a
            x = {r: c for r, c in y.items() if c}
            orbit.append(x)
        if orbit.pop() != {i: 1}:
            return False
        for x in orbit:
            _add_mod2(basis, sum(1 << r for r, c in x.items() if c & 1))
            if len(basis) == n:
                return True
    return True


def kron(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """The Kronecker product: entry (i len(B) + k, j len(B[0]) + l) is
    A[i][j] B[k][l].  Each row is allocated at its final length and
    filled one entry of B at a time, so a large A and a small B (as an
    exterior power's summands are built) cost few steps per row."""
    q = len(B[0]) if B else 0
    out = []
    for row_a in A:
        for row_b in B:
            row = [0] * (len(row_a) * q)
            # the entries A[i][j] B[k][l], j = 0, 1, ..., sit at l, l + q, ...
            for l, b in enumerate(row_b):
                if b:
                    row[l::q] = row_a if b == 1 else [a * b for a in row_a]
            out.append(row)
    return out


# -- ranks over a prime field ------------------------------------------------

def rank_mod(M, q: int) -> int:
    """Rank of M over the prime field F_q (see `ranks_mod`)."""
    return ranks_mod(M, (q,))[0]


def ranks_mod(M, moduli) -> tuple[int, ...]:
    """`ranks_mod_rows` of M, read through `_rows`: every entry checked,
    and every modulus refused unless it is a prime.  That check is the
    trial division of `is_prime`, about sqrt(q) steps for a prime q, so
    it is quick up to about 10^12; `ranks_mod_rows` takes any prime."""
    for q in moduli:
        if not (isinstance(q, int) and is_prime(q)):
            raise ValueError(f"modulus {q!r} is not a prime")
    return ranks_mod_rows(_rows(M)[0], moduli)


def ranks_mod_rows(rows, moduli) -> tuple[int, ...]:
    """Ranks over the prime fields F_q, q in moduli (taken to be prime),
    of the rows of Python ints that `rows` yields, each read once as its
    nonzero entries; rows with fewer come first, as they fill in less.
    For each q every row is reduced by the pivot rows kept so far, each
    keyed by its leading position and held sparse, and becomes one more
    pivot when anything is left.  Over F_2 a row is an int bitset,
    reduced by XOR (`_add_mod2`).  Over an odd q the one row being
    reduced is a list of residues, and a pivot row, scaled to lead with
    1, is the columns and residues of its other nonzero entries: a
    reduction subtracts it times the row's entry in its leading column,
    reading only those entries."""
    sparse = []
    n = 0
    for row in rows:
        n = len(row)
        sparse.append(dict(compress(enumerate(row), row)))
    sparse.sort(key=len)
    ranks = []
    for q in moduli:
        pivots: dict = {}
        if q == 2:
            for entries in sparse:
                _add_mod2(pivots, sum(1 << j for j, x in entries.items()
                                      if x & 1))
        else:
            for entries in sparse:
                w = [0] * n
                for j, x in entries.items():
                    w[j] = x % q
                for c in range(min(entries, default=n), n):
                    f = w[c]
                    if not f:
                        continue
                    pivot = pivots.get(c)
                    if pivot is None:
                        inv = pow(f, -1, q)
                        cols = list(compress(range(c + 1, n), w[c + 1:]))
                        pivots[c] = (cols, [w[j] * inv % q for j in cols])
                        break
                    cols, vals = pivot
                    for j, x in zip(cols, vals):
                        w[j] = (w[j] - f * x) % q
        ranks.append(len(pivots))
    return tuple(ranks)


# -- integer elimination -----------------------------------------------------

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


def kernel_basis(M) -> list[list[int]]:
    """Basis of the integer kernel lattice {x : Mx = 0}, as matrix columns.

    The kernel of an integer matrix is automatically saturated: the basis
    comes from the unimodular transform of a row reduction of the
    transpose, so the returned columns span the full kernel lattice and
    Z^cols modulo the kernel is torsion-free.  With no kernel the result
    is cols empty rows.
    """
    rows, n = _rows(M)
    W = _transpose(rows, n)
    T = identity(n)
    rank = len(_row_reduce(W, T))
    return _transpose(T[rank:], n)


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


def cokernel_structure(M) -> GroupExpression:
    """Z^rows / column-span(M) in elementary-divisor form: Z^(rows - rank)
    plus Z/q^e for each prime power q^e exactly dividing a diagonal entry
    of the diagonalized M.  Each distinct entry is factored once; this is
    the one place the package factors."""
    D, _ = _rows(M)
    m = len(D)
    rank = _diagonalize(D)
    entries = Counter(D[i][i] for i in range(rank))
    return GroupExpression((FreeZ(m - rank),) + tuple(
        CyclicPrimePower(q, e, copies)
        for d, copies in entries.items() for q, e in factorint(d).items()))


def smith_normal_form(M) -> tuple[list[list[int]], list[list[int]],
                                  list[list[int]]]:
    """Smith normal form: (D, U, V) with D = U @ M @ V.

    U and V are unimodular; D is diagonal with d_1 | d_2 | ... positive,
    followed by zeros.  Where d_i does not divide d_(i+1), row i + 1 is
    added to row i and D is diagonalized again; that replaces d_i by a
    proper divisor and leaves d_1 ... d_(i-1) alone, so the repairs end.
    """
    D, n = _rows(M)
    m = len(D)
    U, Vt = identity(m), identity(n)
    while True:
        rank = _diagonalize(D, U, Vt)
        bad = [i for i in range(rank - 1) if D[i + 1][i + 1] % D[i][i]]
        if not bad:
            break
        i = bad[0]
        D[i] = [a + b for a, b in zip(D[i], D[i + 1])]
        U[i] = [a + b for a, b in zip(U[i], U[i + 1])]
    out = [[0] * n for _ in range(m)]
    for i in range(rank):
        out[i][i] = D[i][i]
    return out, U, _transpose(Vt, n)


def determinant(M) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    A, n = _rows(M)
    if len(A) != n:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            nz = next((i for i in range(k + 1, n) if A[i][k]), None)
            if nz is None:
                return 0
            A[k], A[nz] = A[nz], A[k]
            sign = -sign
        row = A[k]
        piv = row[k]
        for i in range(k + 1, n):
            Ai = A[i]
            a = Ai[k]
            Ai[k + 1:] = [(piv * x - a * y) // prev
                          for x, y in zip(Ai[k + 1:], row[k + 1:])]
            Ai[k] = 0
        prev = piv
    return sign * A[n - 1][n - 1]


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

    def __init__(self, basis):
        self.basis, self.s = _rows(basis)

    def coefficient_matrix(self, gens) -> list[list[int]]:
        """R @ C (s x g) for the coordinates C of the generator columns."""
        B = [row[:] for row in self.basis]
        G, _ = _rows(gens)
        if len(G) != len(B):
            raise ValueError("generators and basis have different row counts")
        if len(_row_reduce(B, G)) < self.s:
            raise ValueError("basis columns are not independent")
        if any(B[j][j] != 1 for j in range(self.s)):
            raise ArithmeticError("basis is not saturated")
        if any(map(any, G[self.s:])):
            raise ArithmeticError("vector outside the spanned lattice")
        return G[:self.s]

    def quotient_by(self, gens) -> GroupExpression:
        return cokernel_structure(self.coefficient_matrix(gens))
