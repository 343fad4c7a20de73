"""Modules over the group ring of Z/p and their homological calculus.

A module is an integer lattice Z^rank with an action matrix of
multiplicative order p for the fixed generator.  Constructors build the
trivial, regular and cyclotomic modules; combinators give direct sums,
tensor and exterior powers, duals and conjugates.  On top of that sit the
fixed rank, the coinvariants, the norm map and 2-periodic Tate cohomology.

Two oracles compute the homological functors.  `fixed_rank` and `tate`
read two ranks over prime fields of T = action - id and the Herbrand
quotient (see `tate`): eliminations over F_2 or F_3 and F_p, with no
norm matrix, no matrix power and no integer kernel.  The same two ranks
give the cokernel of T, Z^(fixed rank) (+) Tate^1, which is how a report
reads coker(rho - id) (see `crystal.validate_gamma`).  `coinvariants`
diagonalizes T exactly by its integer Smith form, an independent check
of those ranks that no report calls, and `tate_reference` keeps the
kernel/cokernel route through the norm matrix as the slow reference;
verify and the tests compare the ranks with both.

A direct sum keeps its operands, and an exterior power is a list of
Kronecker summands of the compounds of the diagonal blocks of the base
action, each distinct product once: a 1 x 1 factor (the full-degree
compound [det B], which is [[1]] for every block of odd order p) is
folded into a sign, and equal products are merged, their multiplicities
added (see `ExteriorPower`).  On either, the functors rank or
diagonalize each distinct summand once and scale by its multiplicity.
An exterior power is only its summands: it has no dense action, and
the base module keeps it per degree.  `exterior_power` refuses every
degree of a base whose widest summand or largest rank is too large,
before any is built.

Every matrix is a list of rows of Python ints (see `exact_linalg`).  Only
input from outside is checked: `ZpModule(p, action)` reads its action
through `exact_linalg.intmat` (a copy, every entry checked) and validates
it by default, while the standard modules and the combinators' results
are valid by construction and keep the rows they are given.  Powers are
never stored; a module memoizes only its derived results (norm, field
ranks, coinvariants, reference Tate groups, and for a base of exterior
powers its blocks, their compounds, the Kronecker summands and the
exterior powers themselves).
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from itertools import (chain, combinations, combinations_with_replacement,
                       compress, islice, product)
from math import comb, factorial, prod

from . import exact_linalg as la
from .abelian import GroupExpression, is_prime

# bounds on what the exterior powers of one base build (see `exterior_power`)
MAX_SUMMAND_DIM = 2048
MAX_EXTERIOR_RANK = 10 ** 6


class Memoized:
    """Derived results computed once per object, kept in its `_cache` dict."""

    def _memo(self, key, compute):
        cache = self._cache
        if key not in cache:
            cache[key] = compute()
        return cache[key]


class ZpModule(Memoized):
    """Z^rank with an order-p integer action of the generator."""

    # (multiplicity, module) pairs of a direct-sum decomposition, or None
    # when the functors read the action matrix itself
    summands = None

    def __init__(self, p: int, action, check: bool = True):
        self.p = p
        # outside input is copied and checked; the library's own rows are kept
        self.action = la.intmat(action) if check else action
        self.rank = len(self.action)
        if any(len(row) != self.rank for row in self.action):
            raise ValueError("action matrix must be square")
        self._cache: dict = {}
        if check:
            self.validate()

    def validate(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if not la.power_is_identity(self.action, self.p):
            raise ValueError("action does not have order dividing p")

    def _powers(self):
        """The action matrices of the generator powers 0, 1, ..., p - 1,
        each the product of the one before and the action."""
        out = la.identity(self.rank)
        yield out
        for _ in range(1, self.p):
            out = la.matmul(out, self.action)
            yield out

    def power(self, j: int) -> list[list[int]]:
        """Action matrix of the j-th power of the generator (not stored),
        the (j mod p)-th running product of `_powers`."""
        return next(islice(self._powers(), j % self.p, None))

    def norm_matrix(self) -> list[list[int]]:
        """Matrix of the norm element, the sum of all generator powers."""
        def compute():
            powers = self._powers()
            out = next(powers)
            for P in powers:
                out = [[a + b for a, b in zip(r, s)] for r, s in zip(out, P)]
            return out
        return self._memo("norm", compute)

    def __repr__(self) -> str:
        return f"ZpModule(p={self.p}, rank={self.rank})"


def make_trivial(p: int, rank: int) -> ZpModule:
    return ZpModule(p, la.identity(rank), check=False)


def make_regular(p: int) -> ZpModule:
    """The group ring itself: the p-cycle permutation action."""
    A = [[0] * p for _ in range(p)]
    for i in range(p):
        A[(i + 1) % p][i] = 1
    return ZpModule(p, A, check=False)


def make_cyclotomic(p: int) -> ZpModule:
    """Ring of integers on a primitive p-th root, basis 1, z, ..., z^{p-2}.

    The generator acts as the companion matrix of 1 + x + ... + x^{p-1};
    for p = 2 this is the sign action on Z.  Its rank p - 1 is bounded by
    MAX_SUMMAND_DIM before the primality test.
    """
    if p - 1 > MAX_SUMMAND_DIM:
        raise ValueError(f"rank p - 1 = {p - 1} exceeds the limit {MAX_SUMMAND_DIM}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = p - 1
    A = [[0] * (n - 1) + [-1] for _ in range(n)]
    for j in range(n - 1):
        A[j + 1][j] = 1
    return ZpModule(p, A, check=False)


def direct_sum(*mods: ZpModule) -> ZpModule:
    """The block-diagonal sum of one or more modules, each block written
    once.  The sum keeps its operands as `summands`, each distinct operand
    (by identity) once with its count, so the functors work on each
    distinct block once and scale by its count."""
    if not mods:
        raise ValueError("a direct sum needs at least one module")
    p = mods[0].p
    if any(m.p != p for m in mods):
        raise ValueError("mismatched primes in direct sum")
    counts: dict[int, list] = {}
    for m in mods:
        counts.setdefault(id(m), [0, m])[0] += 1
    total = ZpModule(p, list(block_diagonal_rows(mods)), check=False)
    total.summands = [(count, m) for count, m in counts.values()]
    return total


def block_diagonal_rows(mods):
    """The rows of the block-diagonal sum of the modules' actions, one at a
    time: each block's rows padded once with zeros."""
    n = sum(m.rank for m in mods)
    done = 0
    for m in mods:
        left, right = [0] * done, [0] * (n - done - m.rank)
        for row in m.action:
            yield left + row + right
        done += m.rank


def tensor(m1: ZpModule, m2: ZpModule) -> ZpModule:
    """Tensor product with basis e_i (x) f_j ordered lexicographically."""
    if m1.p != m2.p:
        raise ValueError("mismatched primes in tensor product")
    return ZpModule(m1.p, la.kron(m1.action, m2.action), check=False)


def dual(m: ZpModule) -> ZpModule:
    """Dual module: the generator acts by the transposed matrix."""
    return ZpModule(m.p, la.transpose(m.action), check=False)


def conjugate(m: ZpModule, g, g_inv) -> ZpModule:
    """Base change g: the same module written in another lattice basis.

    g and g_inv are read as outside input; both must be rank x rank, and
    g_inv must be the inverse of g; anything else is refused.
    """
    g, g_inv = la.intmat(g), la.intmat(g_inv)
    n = m.rank
    if len(g) != n or len(g_inv) != n or any(len(row) != n
                                             for row in chain(g, g_inv)):
        raise ValueError(f"g and g_inv must be {n} x {n} matrices")
    if la.matmul(g, g_inv) != la.identity(n):
        raise ValueError("g_inv is not the inverse of g")
    return ZpModule(m.p, la.matmul(la.matmul(g, m.action), g_inv),
                    check=False)


class ExteriorGuardrailError(ValueError):
    """Exterior powers refused before any is built (see `exterior_power`)."""


def exterior_power(m: ZpModule, deg: int) -> ExteriorPower:
    """deg-th exterior power, held as Kronecker summands (see `ExteriorPower`)
    and memoized on m under ("ext", deg).

    Every degree of m is refused alike, before anything is built, when the
    widest summand of any degree (the product over block types of
    C(|B|, |B| // 2)^count) exceeds MAX_SUMMAND_DIM, or the largest rank
    C(rank, rank // 2) exceeds MAX_EXTERIOR_RANK, which bounds the rank,
    and so the cell count of a grid, where every summand is 1 x 1 (p = 2):
    ExteriorGuardrailError.  The bound runs when a degree is first built;
    a refused degree stores nothing, so it is refused again on every call.
    """
    def build():
        if deg < 0 or deg > m.rank:
            raise ValueError(f"exterior degree {deg} outside [0, {m.rank}]")
        widest = prod(comb(len(B), len(B) // 2) ** count
                      for B, count in _block_types(m))
        largest = comb(m.rank, m.rank // 2)
        if widest > MAX_SUMMAND_DIM or largest > MAX_EXTERIOR_RANK:
            raise ExteriorGuardrailError(
                f"exterior powers refused: widest summand {widest} (limit "
                f"{MAX_SUMMAND_DIM}), rank {largest} (limit "
                f"{MAX_EXTERIOR_RANK})")
        return ExteriorPower(m, deg)
    return m._memo(("ext", deg), build)


class ExteriorPower(Memoized):
    """Exterior power of a base module, as a direct sum of Kronecker products.

    Split the base action into diagonal blocks B_1, ..., B_k (the connected
    components of its pattern, which is cheap at the base rank).  Then

        Lambda^deg(B_1 + ... + B_k) = sum over a_1 + ... + a_k = deg of
                                      Lambda^a_1 B_1 (x) ... (x) Lambda^a_k B_k

    up to a permutation of the wedge basis, which keeps every rank, every
    cokernel and every Tate group.  Equal blocks form a type; spreading the
    degree over the copies of a type in different orders gives summands
    that differ by a permutation of equal factors, so each multiset of
    degrees per type is one product whose multiplicity is the product of
    the multinomials.  A 1 x 1 factor is Lambda^|B| B = [det B] (or a
    1 x 1 block), and (det B)^p = 1, so it is [[1]] for odd p and [[1]] or
    [[-1]] for p = 2.  Each product keeps its wider factors and the sign
    of its 1 x 1 ones, and products with equal sign and factors are
    merged, their multiplicities added: each distinct summand is listed
    once, and every degree of the base shares it.  A base with one block
    gives one summand, its full compound.

    It is not a ZpModule and has no action, only its summands: the dense
    compound that `tate_reference` needs is ZpModule(p,
    compound_matrix(base.action, deg), check=False).  It keeps no
    reference to the base, whose memo keeps it (see `exterior_power`), so
    the two form no reference cycle and are freed with the base.
    """

    def __init__(self, base: ZpModule, deg: int):
        self.p, self.rank, self.deg = base.p, comb(base.rank, deg), deg
        self.summands = _wedge_summands(base, deg)
        self._cache: dict = {}


def _components(A: list[list[int]]) -> list[list[int]]:
    """Connected components of the nonzero pattern (symmetrized)."""
    n = len(A)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, row in enumerate(A):
        for j in compress(range(n), row):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _block_types(m: ZpModule) -> list[tuple[list[list[int]], int]]:
    """The distinct diagonal blocks of the action, each with its count."""
    def compute():
        types: dict[tuple, list] = {}
        for idx in _components(m.action):
            B = [[m.action[i][j] for j in idx] for i in idx]
            types.setdefault(tuple(map(tuple, B)), [B, 0])[1] += 1
        return [(B, count) for B, count in types.values()]
    return m._memo("block_types", compute)


def _arrangements(degs: tuple[int, ...]) -> int:
    """Ways to hand the multiset degs out to distinct copies of one block."""
    return factorial(len(degs)) // prod(map(factorial, Counter(degs).values()))


def _wedge_summands(m: ZpModule, deg: int) -> list[tuple[int, ZpModule]]:
    """(multiplicity, summand) pairs of Lambda^deg m, each distinct
    product once; see `ExteriorPower`."""
    # per block type: every multiset of exterior degrees of its copies
    choices = [list(combinations_with_replacement(range(len(B) + 1), count))
               for B, count in _block_types(m)]
    counts: dict[tuple, int] = {}
    for pick in product(*choices):
        if sum(map(sum, pick)) == deg:
            sign, factors = 1, []
            for t, degs in enumerate(pick):
                for d in filter(None, degs):
                    C = _block_compound(m, t, d)
                    if len(C) == 1:   # [det B] or a 1 x 1 block: +-1
                        sign *= C[0][0]
                    else:
                        factors.append((t, d))
            key = (sign, tuple(factors))
            counts[key] = counts.get(key, 0) + prod(map(_arrangements, pick))
    return [(c, _kron_summand(m, *key)) for key, c in counts.items()]


def _block_compound(m: ZpModule, t: int, d: int) -> list[list[int]]:
    """Lambda^d of block type t, memoized on m."""
    return m._memo(("block_compound", t, d), lambda: compound_matrix(
        _block_types(m)[t][0], d))


def _kron_summand(m: ZpModule, sign: int, factors: tuple) -> ZpModule:
    """sign times the Kronecker product of the compounds Lambda^d of block
    type t, for (t, d) in factors; memoized on m, so every degree shares
    it."""
    def compute():
        out = [[sign]]
        for t, d in factors:
            C = _block_compound(m, t, d)
            out = C if out == [[1]] else la.kron(out, C)  # [[1]] (x) C = C
        return ZpModule(m.p, out, check=False)
    return m._memo(("summand", sign, factors), compute)


def compound_matrix(A, deg: int) -> list[list[int]]:
    """Matrix of all deg x deg minors, rows and columns in lex subset order.

    Built by expanding wedge products of the columns, which costs far less
    than enumerating minors when A is sparse.
    """
    A = la.intmat(A)
    n = len(A)
    subsets = list(combinations(range(n), deg))
    index = {s: i for i, s in enumerate(subsets)}
    cols = [[(i, x) for i, x in enumerate(col) if x]
            for col in la.transpose(A)]
    out = [[0] * len(subsets) for _ in subsets]
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
            out[index[rows]][cj] = coeff
    return out


# --------------------------------------------------------------------------
# homological functors


def _field_ranks(m: ZpModule) -> tuple[int, int]:
    """(rank_Q N, rank_Fp T) of the module (see `tate`): each distinct
    summand's ranks once, scaled by its multiplicity."""
    def compute():
        if m.summands is None:
            rank_l, rank_p = la.ranks_mod_rows(la.minus_identity(m.action),
                                               (3 if m.p == 2 else 2, m.p))
            return m.rank - rank_l, rank_p
        ranks = [(c, _field_ranks(S)) for c, S in m.summands]
        return (sum(c * q for c, (q, _) in ranks),
                sum(c * t for c, (_, t) in ranks))
    return m._memo("field_ranks", compute)


def fixed_rank(m: ZpModule) -> int:
    """Rank of the fixed sublattice: rank_Q N (see `tate`)."""
    return _field_ranks(m)[0]


def coinvariants(m: ZpModule) -> GroupExpression:
    """Largest quotient with trivial action: cokernel of (action - id).

    Exact: one Smith-form diagonalization per distinct summand, its counts
    scaled by its multiplicity (coinvariants commute with direct sums).
    It is the reference for the rank route, Z^(fixed rank) (+) Tate^1
    (see `tate`): verify compares the two, and no report calls it.
    """
    def compute():
        if m.summands is None:
            # as a list, which perfbench/tracer.py can size
            return la.cokernel_structure(list(la.minus_identity(m.action)))
        return GroupExpression(tuple(chain.from_iterable(
            (c * coinvariants(S)).summands for c, S in m.summands)))
    return m._memo("coinvariants", compute)


def tate(m: ZpModule, i: int) -> GroupExpression:
    """2-periodic Tate cohomology of the cyclic group acting on m.

    Write n for the rank, T = A - I for the action A and N for the norm.
    Even degrees are ker T / im N, odd degrees ker N / im T.  Both are
    killed by p, the group order, so each is (Z/p)^d, and d comes from
    two ranks over prime fields:

        dim Tate^1 = n - rank_Q N - rank_Fp T
        dim Tate^0 = dim Tate^1 + (p rank_Q N - n) / (p - 1)

    ker N is a pure sublattice (the kernel of an integer matrix) of rank
    n - rank_Q N containing im T (TN = 0).  If a pure sublattice K contains
    a sublattice L of the same rank with K / L = (Z/p)^d, then L maps onto
    a subspace of codimension d in K / pK, which embeds in F_p^n; so
    rank_Fp T = n - rank_Q N - dim Tate^1.  As rank_Q T = n - rank_Q N,
    ker N is the saturation of im T, so Tate^1 is the torsion of coker T:
    coker T = Z^(rank_Q N) (+) Tate^1.

    Tate^0 follows from the Herbrand quotient h(M) = |Tate^0| / |Tate^1|
    (Serre, Local Fields, VIII section 4).  h is multiplicative on short
    exact sequences and is 1 on finite modules, so it depends only on
    M (x) Q = Q^a + Q(z)^b, where z is a primitive p-th root of unity,
    a = rank_Q N is the fixed rank and n = a + (p - 1) b.  Since h(Z) = p
    and h(Z[z]) = 1/p, h = p^(a - b) and a - b = (p a - n) / (p - 1).  The
    same purity argument for ker T gives rank_Fp N = rank_Q N - dim Tate^0,
    which is never formed.

    rank_Q N is n - rank_l T for a prime l != p (l = 2, or 3 when p = 2):
    A^p = I mod l and F_l[Z/p] is semisimple, so rank_l N + rank_l T = n =
    rank_Q N + rank_Q T, and reduction mod l can only lower a rank, so both
    l-ranks equal their rational ranks.  No norm matrix and no matrix power
    are built; an exterior power needs only its Kronecker summands.
    """
    return GroupExpression.elementary(m.p, tate_dim(m, i))


def tate_dim(m: ZpModule, i: int) -> int:
    """d for Tate^i = (Z/p)^d, from the two field ranks (see `tate`)."""
    rank_q_n, rank_p_t = _field_ranks(m)
    h1 = m.rank - rank_q_n - rank_p_t
    return h1 if i % 2 else h1 + (m.p * rank_q_n - m.rank) // (m.p - 1)


def tate_reference(m: ZpModule, i: int) -> GroupExpression:
    """Tate cohomology by exact kernels and cokernels: the slow reference.

    Builds the norm matrix, takes a saturated basis of ker T (even
    degrees) or ker N (odd degrees), expresses the generators of im N or
    im T in it and reads the quotient off the cokernel of the coefficient
    matrix.  It reads the dense action, so it takes a ZpModule, not an
    `ExteriorPower`.  `tate` must agree with it on every module.
    """
    def compute():
        # lists, which perfbench/tracer.py can size
        T, N = list(la.minus_identity(m.action)), m.norm_matrix()
        # invariants modulo the image of the norm, or the kernel of the
        # norm modulo the image of T
        kernel_of, image_of = (T, N) if i % 2 == 0 else (N, T)
        B = la.kernel_basis(kernel_of)
        if not (B and B[0]):
            return GroupExpression.zero()
        return la.SaturatedBasisSolver(B).quotient_by(image_of)
    return m._memo(("tate_reference", i % 2), compute)
