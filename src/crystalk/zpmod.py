"""Modules over the group ring of Z/p and their homological calculus.

A module is an integer lattice Z^rank with an action matrix of
multiplicative order p for the fixed generator.  Constructors build the
trivial, regular and cyclotomic modules; combinators give direct sums,
tensor and exterior powers, duals and conjugates.  On top of that sit the
fixed rank, the coinvariants, the norm map and 2-periodic Tate cohomology.

Two oracles compute the homological functors.  `fixed_rank` and `tate`
read three ranks over prime fields of T = action - id and of T^(p-1)
(see `tate`): int64 eliminations and one matrix power mod p, with no norm
matrix and no integer kernel.
`coinvariants` diagonalizes T exactly (an independent SNF check of those
ranks), and `tate_reference` keeps the kernel/cokernel route through the
norm matrix as the slow reference that verify and the tests compare the
rank formulas against.

Only input from outside is checked: `ZpModule(p, action)` validates by
default, while the standard modules and the combinators' results are valid
by construction.  Exterior powers alone build each power from parts (the
compound matrix of the base power, far cheaper than multiplying a large
compound action); every other module raises its action matrix to the
power.  Powers are never stored; a module memoizes only its derived
results (norm, field ranks, coinvariants, reference Tate groups).
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
    return ZpModule(p, la.eye(rank), check=False)


def make_regular(p: int) -> ZpModule:
    """The group ring itself: the p-cycle permutation action."""
    A = la.zeros(p, p)
    for i in range(p):
        A[(i + 1) % p, i] = 1
    return ZpModule(p, A, check=False)


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
    return ZpModule(p, A, check=False)


def direct_sum(m1: ZpModule, m2: ZpModule) -> ZpModule:
    if m1.p != m2.p:
        raise ValueError("mismatched primes in direct sum")
    return ZpModule(m1.p, _block_diag(m1.action, m2.action), check=False)


def direct_sum_modules(mods: list[ZpModule]) -> ZpModule:
    out = mods[0]
    for m in mods[1:]:
        out = direct_sum(out, m)
    return out


def tensor(m1: ZpModule, m2: ZpModule) -> ZpModule:
    """Tensor product with basis e_i (x) f_j ordered lexicographically."""
    if m1.p != m2.p:
        raise ValueError("mismatched primes in tensor product")
    return ZpModule(m1.p, _kron(m1.action, m2.action), check=False)


def dual(m: ZpModule) -> ZpModule:
    """Dual module: the generator acts by the transposed matrix."""
    return ZpModule(m.p, m.action.T.copy(), check=False)


def conjugate(m: ZpModule, g, g_inv) -> ZpModule:
    """Base change g: the same module written in another lattice basis.

    g_inv must be the inverse of g; anything else is refused.
    """
    g, g_inv = la.intmat(g), la.intmat(g_inv)
    if g.shape != g_inv.shape or np.any(g @ g_inv != la.eye(g.shape[0])):
        raise ValueError("g_inv is not the inverse of g")
    return ZpModule(m.p, g @ m.action @ g_inv, check=False)


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
    """Index sets and restricted action matrices, one per component."""
    if m.rank <= _SPLIT_THRESHOLD:
        return [(list(range(m.rank)), m.action)]
    comps = _components(m.action)
    if len(comps) == 1:
        return [(comps[0], m.action)]
    return [(idx, m.action[np.ix_(idx, idx)]) for idx in comps]


def _block_ranks(A: np.ndarray, p: int) -> tuple[int, int, int]:
    """(rank_Q N, rank_Fp N, rank_Fp T) for one block; see `tate`."""
    n = A.shape[0]
    T = A - la.eye(n)
    ell = 3 if p == 2 else 2
    Tp = la.residues(T, p)
    return (n - la.rank_mod(T, ell),
            la.rank_mod(la.power_mod(Tp, p - 1, p), p),
            la.rank_mod(Tp, p))


def _norm_ranks(m: ZpModule) -> tuple[int, int, int]:
    """(rank_Q N, rank_Fp N, rank_Fp T) of the module, summed over blocks."""
    return m._memo("norm_ranks", lambda: tuple(map(sum, zip(
        *(_block_ranks(A, m.p) for _idx, A in _component_blocks(m))))))


def fixed_rank(m: ZpModule) -> int:
    """Rank of the fixed sublattice: rank_Q N (see `tate`)."""
    return _norm_ranks(m)[0]


def coinvariants(m: ZpModule) -> FGAbelianGroup:
    """Largest quotient with trivial action: cokernel of (action - id)."""
    return m._memo("coinvariants", lambda: direct_sum_all(
        [la.cokernel_structure(A - la.eye(len(idx)))
         for idx, A in _component_blocks(m)]))


def tate(m: ZpModule, i: int) -> FGAbelianGroup:
    """2-periodic Tate cohomology of the cyclic group acting on m.

    Write n for the rank, T = A - I for the action A and N for the norm.
    Even degrees are ker T / im N, odd degrees ker N / im T.  Both are
    killed by p, the group order, so each is (Z/p)^d, and d comes from
    three ranks over prime fields:

        dim Tate^0 = rank_Q N - rank_Fp N
        dim Tate^1 = n - rank_Q N - rank_Fp T

    ker T and ker N are pure sublattices (kernels of integer matrices), of
    ranks rank_Q N and n - rank_Q N, and they contain im N and im T
    (TN = 0).  If a pure sublattice K contains a sublattice L of the same
    rank with K / L = (Z/p)^d, then L maps onto a subspace of codimension
    d in K / pK, which embeds in F_p^n; so rank_Fp N = rank_Q N - d, and
    likewise for T.

    rank_Fp N is read off T^(p-1), since 1 + x + ... + x^(p-1) is
    (x - 1)^(p-1) in F_p[x].  rank_Q N is n - rank_l T for a prime l != p
    (l = 2, or 3 when p = 2): A^p = I mod l and F_l[Z/p] is semisimple,
    so rank_l N + rank_l T = n = rank_Q N + rank_Q T, and reduction mod l
    can only lower a rank, so both l-ranks equal their rational ranks.  No
    norm matrix is built; the compound action of an exterior power is the
    only matrix it needs.
    """
    rank_q_n, rank_p_n, rank_p_t = _norm_ranks(m)
    if i % 2 == 0:
        return FGAbelianGroup.elementary(m.p, rank_q_n - rank_p_n)
    return FGAbelianGroup.elementary(m.p, m.rank - rank_q_n - rank_p_t)


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


def tate_reference(m: ZpModule, i: int) -> FGAbelianGroup:
    """Tate cohomology by exact kernels and cokernels: the slow reference.

    Builds the norm matrix, takes a saturated basis of ker T (even
    degrees) or ker N (odd degrees), expresses the generators of im N or
    im T in it and reads the quotient off the cokernel of the coefficient
    matrix.  `tate` must agree with it on every module.
    """
    parity = i % 2

    def compute():
        N = m.norm_matrix()
        return direct_sum_all([_tate_block(A, N[np.ix_(idx, idx)], parity)
                               for idx, A in _component_blocks(m)])
    return m._memo(("tate_reference", parity), compute)
