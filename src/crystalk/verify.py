"""Cross-validation grid: every invariant the library promises, per (p, k).

Each check compares an independently computed quantity against a closed
form (or two independent computations against each other) and reports a
pass/fail line.  Mismatches are ordinary failures; any other exception
in a cell is a hard internal error and carries a minimal reproducer.  A
grid too large to build is refused before its first cell (see `all_checks`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from . import crystal, exact_linalg as la, repring, zpmod
from .abelian import (CyclicPrimePower, FreeZ, GroupExpression,
                      UnknownPTorsion, ext_dual, hom_dual)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


class HardError(Exception):
    """Internal arithmetic failure with a minimal reproducer attached."""

    def __init__(self, message: str, reproducer: str):
        super().__init__(message)
        self.reproducer = reproducer


def _cell(name: str, fn, reproducer: str) -> CheckResult:
    try:
        fn()
        return CheckResult(name, True)
    except AssertionError as exc:
        return CheckResult(name, False, str(exc))
    except Exception as exc:  # noqa: BLE001 - anything else is a hard error
        raise HardError(f"{type(exc).__name__}: {exc}", reproducer) from exc


def _random_unimodular(rng: random.Random, n: int, steps: int = 8
                       ) -> tuple[list[list[int]], list[list[int]]]:
    """A random unimodular g and its inverse, from elementary row moves."""
    g, g_inv = la.identity(n), la.identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]  # g <- E g
        for row in g_inv:                               # g_inv <- g_inv E^-1
            row[j] -= c * row[i]
    return g, g_inv


def _random_int_matrix(rng: random.Random, m: int, n: int, lo=-5, hi=5
                       ) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def _p_copies(e: GroupExpression, p: int) -> int:
    """c for a group Z^r (+) (Z/p)^c; any other group fails the cell."""
    c = sum(s.multiplicity for s in e.summands if isinstance(s, CyclicPrimePower))
    assert e == GroupExpression.free(e.free_rank) + GroupExpression.elementary(p, c), \
        f"{e} is not Z^r (+) (Z/{p})^c"
    return c


def random_order_p_module(rng: random.Random, p: int,
                          max_rank: int = 6) -> zpmod.ZpModule:
    """A random module with exact order-p action and rank <= max_rank.

    Built from cyclotomic/regular/trivial blocks conjugated by a random
    unimodular base change; the first block is never trivial, so the
    action has order exactly p.
    """
    if max_rank < p - 1:
        raise ValueError(f"max_rank {max_rank} cannot hold an order-{p} block")
    # (block, its rank) per kind, in draw order
    kinds = ((zpmod.make_cyclotomic(p), p - 1), (zpmod.make_regular(p), p),
             (zpmod.make_trivial(p, 1), 1))
    blocks: list[zpmod.ZpModule] = []
    rank = 0
    while options := [(block, r) for block, r in kinds[:3 if blocks else 2]
                      if rank + r <= max_rank]:
        block, r = rng.choice(options)
        blocks.append(block)
        rank += r
        if rng.random() < 0.4:
            break
    mod = zpmod.direct_sum(*blocks)
    return zpmod.conjugate(mod, *_random_unimodular(rng, mod.rank))


# --------------------------------------------------------------------------
# individual check suites


def checks_exact_linalg(G: crystal.GammaDescriptor, seed: int):
    p, k = G.p, G.k

    def snf_properties():
        rng = random.Random(f"{seed}:snf:{p}:{k}")
        for trial in range(6):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            M = _random_int_matrix(rng, m, n)
            D, U, V = la.smith_normal_form(M)
            assert la.matmul(la.matmul(U, M), V) == D, f"UMV != D for {M}"
            assert abs(la.determinant(U)) == 1, "U not unimodular"
            assert abs(la.determinant(V)) == 1, "V not unimodular"
            diag = [D[i][i] for i in range(min(m, n))]
            for a, b in zip(diag, diag[1:]):
                assert (a == 0 and b == 0) or (a >= 0 and (b % a == 0 if a else b == 0)), \
                    f"divisibility chain broken: {diag}"
    yield "exact-linalg: SNF transform/divisibility (random)", snf_properties, "p=%d k=%d" % (p, k)

    def coker_invariance():
        rng = random.Random(f"{seed}:coker:{p}:{k}")
        for trial in range(6):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            M = _random_int_matrix(rng, m, n)
            base = la.cokernel_structure(M)
            gl, _ = _random_unimodular(rng, m)
            gr, _ = _random_unimodular(rng, n)
            moved = la.matmul(la.matmul(gl, M), gr)
            assert la.cokernel_structure(moved) == base, \
                f"cokernel not invariant under unimodular change: {M}"
    yield "exact-linalg: cokernel unimodular invariance (random)", coker_invariance, "p=%d k=%d" % (p, k)

    def kernel_purity():
        rng = random.Random(f"{seed}:kernel:{p}:{k}")
        for trial in range(6):
            M = _random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            K = la.kernel_basis(M)
            assert not any(map(any, la.matmul(M, K))), "MK != 0"
            if K[0]:
                cok = la.cokernel_structure(K)
                assert ext_dual(cok).is_zero(), f"kernel lattice {K} not saturated"
    yield "exact-linalg: kernel saturation (random)", kernel_purity, "p=%d k=%d" % (p, k)


def checks_repring(G: crystal.GammaDescriptor, seed: int):
    p, k, n = G.p, G.k, G.n

    def sum_identities():
        repring.r_sum_identities(p, k)  # self-asserting
    yield "repring: closed-form sum identities", sum_identities, f"p={p} k={k}"

    def aj_two_ways():
        av = repring.a_vector(p, k)
        for j in range(n + 2):
            dp = av[j] if j < len(av) else 0
            ie = repring.a_j_inclusion_exclusion(p, k, j)
            assert dp == ie, f"a_{j}: DP {dp} != inclusion-exclusion {ie}"
        total = sum(av)
        assert total == p ** k, f"sum a_j = {total} != p^k"
        assert av == av[::-1], "a_j not symmetric"
    yield "repring: a_j count two ways / symmetry / total", aj_two_ways, f"p={p} k={k}"

    def consecutive_lambda():
        for l in range(1, p):
            q1, reg1 = repring.lambda_class(p, l)
            q0, reg0 = repring.lambda_class(p, l - 1)
            assert q1 + q0 == 0 and p * (reg1 + reg0) == comb(p, l), \
                f"consecutive wedge-class relation failed at l={l}"
    yield "repring: consecutive wedge-class relation", consecutive_lambda, f"p={p} k={k}"

    def total_sum_class():
        q, reg = map(sum, zip(*(repring.lambda_class(p, l) for l in range(p))))
        if p == 2:
            assert (q, reg) == (0, 1), "total class (p=2) wrong"
        else:
            assert q == 1 and p * reg == 2 ** (p - 1) - 1, "total class wrong"
    yield "repring: total wedge-class sum", total_sum_class, f"p={p} k={k}"

    if k == 1:
        def k1_closed_form():
            rv = repring.r_vector(p, 1)
            for m in range(p):
                expect, rest = divmod(comb(p - 1, m) + (-1) ** m * (p - 1), p)
                assert rest == 0
                assert rv[m] == expect, f"k=1 closed form at m={m}"
            assert len(rv) == p, "r_m nonzero above m = p - 1"
        yield "repring: k=1 closed form for r_m", k1_closed_form, f"p={p} k={k}"


def checks_r_oracle(G: crystal.GammaDescriptor, seed: int):
    p, k, n = G.p, G.k, G.n

    def make(m):
        def check():
            rank = zpmod.fixed_rank(G.exterior(m))
            expect = G.r()[m]
            assert rank == expect, f"fixed rank {rank} != r_{m} = {expect}"
            # the Smith form: Z^(r_m) (+) the odd Tate group, (Z/p)^(a_m)
            # for odd m and 0 for even m
            co = zpmod.coinvariants(G.exterior(m))
            whole = GroupExpression.free(expect) + GroupExpression.elementary(
                p, crystal.shape(p, k).a[m] if m % 2 else 0)
            assert co == whole, f"coinvariants {co} != {whole}"
        return check
    for m in range(n + 1):
        yield (f"r-oracle: wedge^{m} fixed rank = r_{m}", make(m),
               f"p={p} k={k} m={m}")


def checks_structure(G: crystal.GammaDescriptor, seed: int):
    p, k = G.p, G.k

    def structure():
        data = crystal.finite_subgroup_data(G)
        assert data.cokernel == GroupExpression.elementary(p, k)
        # the cokernel is read off prime-field ranks (of a canonical
        # action's block, once per shape): the dense Smith form of
        # rho - id is the reference
        dense = la.cokernel_structure(list(la.minus_identity(G.rho)))
        assert data.cokernel == dense, f"rank route {data.cokernel} != {dense}"
        assert data.class_count == p ** k
        assert data.fixed_point_count == p ** k
        assert _p_copies(data.cokernel, p) == k, "cyclic factor count != k"
        assert crystal.abelianization(G) == GroupExpression.elementary(p, k + 1)
        assert crystal.euler_characteristic_quotient(G) == (p - 1) * p ** (k - 1)
    yield "structure: cokernel/class count/abelianization/euler", structure, f"p={p} k={k}"

    def conjugated():
        rng = random.Random(f"{seed}:conjugate:{p}:{k}")
        conj = zpmod.conjugate(G.module, *_random_unimodular(rng, G.n))
        H = crystal.validate_gamma(p, conj.action)
        if G.canonical:
            assert not H.canonical or conj.action == G.rho
        data = crystal.finite_subgroup_data(H)
        assert data.cokernel == GroupExpression.elementary(p, k)
        dense = la.cokernel_structure(list(la.minus_identity(H.rho)))
        assert data.cokernel == dense, f"rank route {data.cokernel} != {dense}"
    yield "structure: invariance under base change", conjugated, f"p={p} k={k}"


def checks_tate(G: crystal.GammaDescriptor, seed: int):
    p, k, n = G.p, G.k, G.n

    def make_checkerboard(j):
        def check():
            mod = G.exterior(j)
            aj = crystal.shape(p, k).a[j]
            for i in (0, 1, 2, 3):
                got = zpmod.tate(mod, i)
                if (i + j) % 2 == 0:
                    expect = GroupExpression.elementary(p, aj)
                else:
                    expect = GroupExpression.zero()
                assert got == expect, \
                    f"Tate^{i} of wedge^{j} = {got}, expected {expect}"
        return check
    for j in range(n + 1):
        yield (f"tate: checkerboard wedge^{j}", make_checkerboard(j),
               f"p={p} k={k} j={j} i=0..3")

    # periodicity and duality compare the rank formulas of `tate` with the
    # kernel/cokernel reference, so neither reduces to a memo lookup or to
    # the rank invariance of transposition
    def periodicity():
        rng = random.Random(f"{seed}:periodicity:{p}:{k}")
        mod = random_order_p_module(rng, p, max_rank=max(6, p + 1))
        for i in range(-3, 2):
            assert zpmod.tate(mod, i) == zpmod.tate_reference(mod, i + 2), \
                f"tate not 2-periodic at i={i}"
    yield "tate: 2-periodicity on a random module", periodicity, f"p={p} k={k}"

    def acyclicity():
        reg = zpmod.make_regular(p)
        for other in (zpmod.make_trivial(p, 2), zpmod.make_cyclotomic(p)):
            mod = zpmod.tensor(reg, other)
            for i in (0, 1):
                assert zpmod.tate(mod, i).is_zero(), \
                    "free module not Tate-acyclic"
    yield "tate: induced modules are acyclic", acyclicity, f"p={p} k={k}"

    def norm_sequence():
        rng = random.Random(f"{seed}:norm-seq:{p}:{k}")
        for _ in range(4):
            mod = random_order_p_module(rng, p, max_rank=max(6, p + 1))
            co = zpmod.coinvariants(mod)
            assert co.free_rank == zpmod.fixed_rank(mod), \
                "coinvariant rank != invariant rank"
            assert ext_dual(co) == zpmod.tate(mod, 1), \
                "coinvariant torsion != odd Tate group"
    yield "tate: norm-sequence bookkeeping (random)", norm_sequence, f"p={p} k={k}"

    def duality():
        rng = random.Random(f"{seed}:duality:{p}:{k}")
        for _ in range(6):
            mod = random_order_p_module(rng, p, max_rank=max(6, p + 1))
            dmod = zpmod.dual(mod)
            for i in (-1, 0, 1, 2):
                assert zpmod.tate(mod, i) == zpmod.tate_reference(dmod, -i), \
                    f"Tate duality failed at i={i}"
    yield "tate: duality against the transposed module (random)", duality, f"p={p} k={k}"


def checks_crystal(G: crystal.GammaDescriptor, seed: int):
    p, k, n = G.p, G.k, G.n

    def triangle():
        dv, do = crystal.d_even(G), crystal.d_odd(G)
        assert dv == (p - 1) * p ** k + sum(G.r()[0::2])
        assert do == sum(G.r()[1::2])
        seqs = crystal.equivariant_exact_sequences(G, 0)
        assert seqs.complex_seq.middle.free_rank == dv
    yield "crystal: rank triangle d_ev/d_odd", triangle, f"p={p} k={k}"

    def uct():
        for m in range(n + 1):
            hm = crystal.homology_bgamma(G, m)
            hco = crystal.cohomology_bgamma(G, m)
            hco1 = crystal.cohomology_bgamma(G, m + 1)
            assert hm == hom_dual(hco) + ext_dual(hco1), \
                f"UCT duality failed for the group at degree {m}"
            qm = crystal.homology_quotient(G, m)
            qco = crystal.cohomology_quotient(G, m)
            qco1 = crystal.cohomology_quotient(G, m + 1)
            assert qm == hom_dual(qco) + ext_dual(qco1), \
                f"UCT duality failed for the orbit space at degree {m}"
    yield "crystal: homology = dual of cohomology", uct, f"p={p} k={k}"

    def five_term():
        # Z/p copies of H^2m(BGamma) and H^(2m+1)(quotient), plus a_2m
        # counted without the DP behind s, make up p^k
        for m in range(1, n // 2 + 2):
            assert G.s(2 * m) + G.s(2 * m + 1) <= 2 * p ** k, \
                "exponent bound violated"
            total = repring.a_j_inclusion_exclusion(p, k, 2 * m) + sum(
                _p_copies(e, p) for e in (
                    crystal.cohomology_bgamma(G, 2 * m),
                    crystal.cohomology_quotient(G, 2 * m + 1)))
            assert total == p ** k, f"five-term count {total} != p^k at m={m}"
    yield "crystal: five-term sequence bookkeeping", five_term, f"p={p} k={k}"

    def k_parity():
        for m in (0, 1):
            expr = crystal.cstar_k_theory(G, m, "complex")
            assert all(isinstance(s, FreeZ) for s in expr.summands), \
                "complex C*-algebra K-theory must be free"
    yield "crystal: C*-algebra K-theory torsion-free", k_parity, f"p={p} k={k}"

    def t1_degeneration():
        bounds = tuple(p ** k - G.s(2 * i + 1) for i in range(1, n // 2 + 1))
        expr = crystal.k_theory_quotient(G, 1, "cohomology")
        has_unknown = any(isinstance(s, UnknownPTorsion) for s in expr.summands)
        assert has_unknown == any(b != 0 for b in bounds), \
            "unknown torsion must appear exactly when a bound is nonzero"
    yield "crystal: unknown-torsion degeneration", t1_degeneration, f"p={p} k={k}"


def checks_brute_force(G: crystal.GammaDescriptor, seed: int):
    p, k, n = G.p, G.k, G.n

    def make(m):
        def check():
            got = crystal.brute_force_cohomology_bgamma(G, m)
            expect = crystal.cohomology_bgamma(G, m)
            assert got == expect, f"assembled {got} != closed form {expect}"
        return check
    for m in range(n + 1):
        yield (f"brute-force: spectral assembly of H^{m}", make(m),
               f"p={p} k={k} m={m}")


def all_checks(p: int, k: int, seed: int = 20240801,
               gamma: crystal.GammaDescriptor | None = None):
    """The (name, check, reproducer) cells of the grid, without running any.

    The cells that take an action run on `gamma`, a validated descriptor
    for (p, k), or on the canonical action when it is None.  Every suite
    shares that one descriptor, whose module keeps each exterior power, so
    each is built once.
    Every randomized cell derives its own generator, so results do not
    depend on execution order.
    """
    if gamma is None:
        gamma = crystal.canonical_gamma(p, k)
    elif (gamma.p, gamma.k) != (p, k):
        raise ValueError(f"descriptor has (p, k) = ({gamma.p}, {gamma.k}), "
                         f"not ({p}, {k})")
    gamma.exterior(0)  # the bound of every degree: refuses before any cell
    for gen in (checks_exact_linalg, checks_repring, checks_r_oracle,
                checks_structure, checks_tate, checks_crystal,
                checks_brute_force):
        yield from gen(gamma, seed)


def run_all(p: int, k: int, seed: int = 20240801,
            gamma: crystal.GammaDescriptor | None = None) -> list[CheckResult]:
    """Run the whole grid for one (p, k); raises HardError on internal bugs
    and ExteriorGuardrailError, before any cell, on a grid too large."""
    return [_cell(name, fn, repro)
            for name, fn, repro in all_checks(p, k, seed, gamma)]
