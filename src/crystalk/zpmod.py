"""Modules over the group ring of Z/p and their homological calculus.

A module is an integer lattice Z^rank with an action matrix of
multiplicative order p for the fixed generator.  Constructors build the
trivial, regular and cyclotomic modules; combinators give direct sums,
tensor and exterior powers, duals and conjugates.  On top of that sit the
invariant and coinvariant functors, the norm map and 2-periodic Tate
cohomology, computed by exact integer linear algebra throughout.

Derived modules remember how to produce the action of every group element
directly (block sums, Kronecker products, compound matrices of the parent
powers), which keeps norm matrices cheap for large exterior powers; the
result agrees entry-for-entry with repeated multiplication of the action.
Powers are never stored; a module memoizes only its derived results (norm,
invariants, fixed rank, coinvariants, Tate groups).
"""

from __future__ import annotations

import os
from bisect import bisect
from itertools import combinations
from math import comb

import numpy as np

from . import exact_linalg as la
from .abelian import FGAbelianGroup, direct_sum_all
from .repring import is_prime

DEFAULT_MAX_EXTERIOR_DIM = 20000

# component splitting only pays off once matrices get big
_SPLIT_THRESHOLD = 24


def max_exterior_dim() -> int:
    return int(os.environ.get("CRYSTALK_MAX_EXT_DIM", DEFAULT_MAX_EXTERIOR_DIM))


class Memoized:
    """Derived results computed once per object, kept in its `_cache` dict."""

    def _memo(self, key, compute):
        cache = self._cache
        if key not in cache:
            cache[key] = compute()
        return cache[key]


class ZpModule(Memoized):
    """Z^rank with an order-p integer action of the generator."""

    def __init__(self, p: int, action, power_fn=None, check: bool = True):
        self.p = p
        self.action = la.intmat(action)
        if self.action.shape[0] != self.action.shape[1]:
            raise ValueError("action matrix must be square")
        self.rank = self.action.shape[0]
        self._power_fn = power_fn
        self._cache: dict = {}
        if check:
            self.validate()

    def validate(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        # repeated squaring: O(log p) exact products on the object array
        if self.rank and np.any(np.linalg.matrix_power(self.action, self.p)
                                != la.eye(self.rank)):
            raise ValueError("action does not have order dividing p")

    def power(self, j: int) -> np.ndarray:
        """Action matrix of the j-th power of the generator (not stored)."""
        j %= self.p
        if self._power_fn is not None:
            return self._power_fn(j)
        return np.linalg.matrix_power(self.action, j)

    def norm_matrix(self) -> np.ndarray:
        """Matrix of the norm element, the sum of all generator powers."""
        return self._memo("norm", lambda: sum(
            map(self.power, range(1, self.p)), la.eye(self.rank)))

    def __repr__(self) -> str:
        return f"ZpModule(p={self.p}, rank={self.rank})"


def make_trivial(p: int, rank: int) -> ZpModule:
    return ZpModule(p, la.eye(rank), power_fn=lambda j: la.eye(rank))


def make_regular(p: int) -> ZpModule:
    """The group ring itself: the p-cycle permutation action."""
    def perm(j):
        out = la.zeros(p, p)
        for i in range(p):
            out[(i + j) % p, i] = 1
        return out
    return ZpModule(p, perm(1), power_fn=perm)


def make_cyclotomic(p: int) -> ZpModule:
    """Ring of integers on a primitive p-th root, basis 1, z, ..., z^{p-2}.

    The generator acts as the companion matrix of 1 + x + ... + x^{p-1};
    for p = 2 this is the sign action on Z.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = p - 1
    A = la.zeros(n, n)
    for j in range(n - 1):
        A[j + 1, j] = 1
    for i in range(n):
        A[i, n - 1] = -1
    return ZpModule(p, A)


def direct_sum(m1: ZpModule, m2: ZpModule) -> ZpModule:
    if m1.p != m2.p:
        raise ValueError("mismatched primes in direct sum")
    def power(j, a=m1, b=m2):
        return _block_diag(a.power(j), b.power(j))
    return ZpModule(m1.p, _block_diag(m1.action, m2.action),
                    power_fn=power, check=False)


def direct_sum_modules(mods: list[ZpModule]) -> ZpModule:
    out = mods[0]
    for m in mods[1:]:
        out = direct_sum(out, m)
    return out


def tensor(m1: ZpModule, m2: ZpModule) -> ZpModule:
    """Tensor product with basis e_i (x) f_j ordered lexicographically."""
    if m1.p != m2.p:
        raise ValueError("mismatched primes in tensor product")
    def power(j, a=m1, b=m2):
        return _kron(a.power(j), b.power(j))
    return ZpModule(m1.p, _kron(m1.action, m2.action),
                    power_fn=power, check=False)


def dual(m: ZpModule) -> ZpModule:
    """Dual module: the generator acts by the transposed matrix."""
    return ZpModule(m.p, m.action.T.copy(),
                    power_fn=lambda j: m.power(j).T.copy(), check=False)


def conjugate(m: ZpModule, g, g_inv) -> ZpModule:
    """Base change g: the same module written in another lattice basis.

    g_inv must be the inverse of g; anything else is refused.
    """
    g, g_inv = la.intmat(g), la.intmat(g_inv)
    if g.shape != g_inv.shape or np.any(g @ g_inv != la.eye(g.shape[0])):
        raise ValueError("g_inv is not the inverse of g")
    def power(j):
        return g @ m.power(j) @ g_inv
    return ZpModule(m.p, g @ m.action @ g_inv, power_fn=power, check=False)


def exterior_power(m: ZpModule, deg: int) -> ZpModule:
    """deg-th exterior power: the compound matrix on lexicographic wedges.

    The entry at (I, J) is the deg x deg minor of the action with rows I
    and columns J.
    """
    if deg < 0 or deg > m.rank:
        raise ValueError(f"exterior degree {deg} outside [0, {m.rank}]")
    dim = comb(m.rank, deg)
    limit = max_exterior_dim()
    if dim > limit:
        raise ValueError(
            f"exterior power dimension C({m.rank},{deg}) = {dim} exceeds "
            f"the guardrail {limit}; set CRYSTALK_MAX_EXT_DIM to override")
    def power(j, base=m, d=deg):
        return compound_matrix(base.power(j), d)
    return ZpModule(m.p, compound_matrix(m.action, deg),
                    power_fn=power, check=False)


def compound_matrix(A: np.ndarray, deg: int) -> np.ndarray:
    """Matrix of all deg x deg minors, rows and columns in lex subset order.

    Built by expanding wedge products of the columns, which costs far less
    than enumerating minors when A is sparse.
    """
    A = la.intmat(A)
    n = A.shape[0]
    subsets = list(combinations(range(n), deg))
    index = {s: i for i, s in enumerate(subsets)}
    cols = [[(i, A[i, j]) for i in range(n) if A[i, j] != 0]
            for j in range(A.shape[1])]
    out = la.zeros(len(subsets), len(subsets))
    for cj, J in enumerate(subsets):
        terms: dict[tuple, int] = {(): 1}
        for j in J:
            nxt: dict[tuple, int] = {}
            col = cols[j]
            for rows, coeff in terms.items():
                for r, v in col:
                    if r in rows:
                        continue
                    pos = bisect(rows, r)
                    sign = -1 if (len(rows) - pos) % 2 else 1
                    key = rows[:pos] + (r,) + rows[pos:]
                    val = nxt.get(key, 0) + sign * coeff * v
                    if val:
                        nxt[key] = val
                    elif key in nxt:
                        del nxt[key]
            terms = nxt
        for rows, coeff in terms.items():
            out[index[rows], cj] = coeff
    return out


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = la.zeros(a.shape[0] + b.shape[0], a.shape[1] + b.shape[1])
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ra, ca = a.shape
    rb, cb = b.shape
    out = la.zeros(ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            v = a[i, j]
            if v != 0:
                out[i * rb:(i + 1) * rb, j * cb:(j + 1) * cb] = v * b
    return out


# --------------------------------------------------------------------------
# homological functors


def _components(A: np.ndarray) -> list[list[int]]:
    """Connected components of the nonzero pattern (symmetrized)."""
    n = A.shape[0]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    nz = np.nonzero(A != 0)
    for i, j in zip(nz[0].tolist(), nz[1].tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _component_blocks(m: ZpModule):
    """Index sets and restricted (action, norm) pairs per component."""
    if m.rank <= _SPLIT_THRESHOLD:
        return [(list(range(m.rank)), m.action, m.norm_matrix())]
    comps = _components(m.action)
    if len(comps) == 1:
        return [(comps[0], m.action, m.norm_matrix())]
    N = m.norm_matrix()
    out = []
    for idx in comps:
        ix = np.array(idx)
        out.append((idx, m.action[np.ix_(ix, ix)], N[np.ix_(ix, ix)]))
    return out


def invariants(m: ZpModule) -> tuple[int, np.ndarray]:
    """The fixed sublattice: its rank and a basis of the pure lattice."""
    return m._memo("invariants", lambda: _invariants(m))


def _invariants(m: ZpModule) -> tuple[int, np.ndarray]:
    cols: list[tuple[list[int], np.ndarray]] = []
    total = 0
    for idx, A, _N in _component_blocks(m):
        K = la.kernel_basis(A - la.eye(len(idx)))
        total += K.shape[1]
        cols.append((idx, K))
    basis = la.zeros(m.rank, total)
    at = 0
    for idx, K in cols:
        for c in range(K.shape[1]):
            for local, row in enumerate(idx):
                basis[row, at] = K[local, c]
            at += 1
    return total, basis


def fixed_rank(m: ZpModule) -> int:
    """Rank of the fixed sublattice, computed without a basis."""
    return m._memo("fixed_rank", lambda: sum(
        len(idx) - la.rational_rank(A - la.eye(len(idx)))
        for idx, A, _N in _component_blocks(m)))


def coinvariants(m: ZpModule) -> FGAbelianGroup:
    """Largest quotient with trivial action: cokernel of (action - id)."""
    return m._memo("coinvariants", lambda: direct_sum_all(
        [la.cokernel_structure(A - la.eye(len(idx)))
         for idx, A, _N in _component_blocks(m)]))


def _tate_block(A: np.ndarray, N: np.ndarray, parity: int) -> FGAbelianGroup:
    n = A.shape[0]
    if parity == 0:
        # invariants modulo the image of the norm
        B = la.kernel_basis(A - la.eye(n))
        if B.shape[1] == 0:
            return FGAbelianGroup.trivial()
        gens = la.column_lattice_basis(N)
    else:
        # kernel of the norm modulo the image of (action - id)
        B = la.kernel_basis(N)
        if B.shape[1] == 0:
            return FGAbelianGroup.trivial()
        gens = la.column_lattice_basis(A - la.eye(n))
    solver = la.SaturatedBasisSolver(B)
    return solver.quotient_by(gens)


def tate(m: ZpModule, i: int) -> FGAbelianGroup:
    """2-periodic Tate cohomology of the cyclic group acting on m.

    Even degrees give invariants mod norm image, odd degrees the norm
    kernel mod the augmentation image; each quotient is computed by
    expressing the sub-lattice generators in a pure-lattice basis and
    reading off the cokernel of the coefficient matrix.
    """
    parity = i % 2
    return m._memo(("tate", parity), lambda: direct_sum_all(
        [_tate_block(A, N, parity) for _idx, A, N in _component_blocks(m)]))

