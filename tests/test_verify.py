import dataclasses
import gc
import random
import weakref

import pytest

from crystalk import crystal, exact_linalg as la, repring, verify, zpmod
from crystalk.abelian import CyclicPrimePower, GroupExpression


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_random_unimodular_pair_is_inverse(n):
    rng = random.Random(n)
    for _ in range(5):
        g, g_inv = verify._random_unimodular(rng, n)
        assert la.matmul(g, g_inv) == la.identity(n)
        assert la.matmul(g_inv, g) == la.identity(n)


def test_random_unimodular_draws_only_the_moves():
    # the inverse is built from the same moves, so a seeded stream is
    # consumed exactly as by the moves alone
    rng, ref = random.Random(7), random.Random(7)
    verify._random_unimodular(rng, 4, steps=8)
    for _ in range(8):
        i, j = ref.randrange(4), ref.randrange(4)
        if i != j:
            ref.choice([-2, -1, 1, 2])
    assert rng.random() == ref.random()


def test_all_checks_refuses_a_descriptor_for_other_p_k():
    with pytest.raises(ValueError):
        list(verify.all_checks(3, 2, gamma=crystal.canonical_gamma(3, 1)))


def test_all_checks_shares_one_descriptor(monkeypatch):
    built = []
    real = crystal.canonical_gamma

    def counting(p, k):
        built.append((p, k))
        return real(p, k)
    monkeypatch.setattr(crystal, "canonical_gamma", counting)
    names = [name for name, _fn, _repro in verify.all_checks(3, 1)]
    assert built == [(3, 1)] and len(names) > 0


def test_periodicity_and_duality_cells_compare_with_the_reference(monkeypatch):
    # each cell sets the rank formulas of `tate` against tate_reference, so
    # a wrong reference value must make both fail
    names = ("tate: 2-periodicity on a random module",
             "tate: duality against the transposed module (random)")
    cells = {name: fn for name, fn, _repro in verify.all_checks(3, 1)}
    for name in names:
        cells[name]()
    monkeypatch.setattr(zpmod, "tate_reference",
                        lambda m, i: GroupExpression.elementary(97, 1))
    for name in names:
        with pytest.raises(AssertionError):
            cells[name]()


def test_five_term_cell_reads_each_group_whole(monkeypatch):
    # one Z/3 of H^2(BGamma) = Z^4 (+) (Z/3)^3 swapped for Z/9 keeps the
    # number of cyclic summands, so only a cell that reads the whole group
    # as Z^r (+) (Z/p)^c sees it
    name = "crystal: five-term sequence bookkeeping"
    cells = {name: fn for name, fn, _repro in verify.all_checks(3, 2)}
    cells[name]()
    real = crystal.cohomology_bgamma
    swapped = GroupExpression.free(4) + GroupExpression(
        (CyclicPrimePower(3, 1, 2), CyclicPrimePower(3, 2, 1)))
    assert real(crystal.canonical_gamma(3, 2), 2) \
        == GroupExpression.free(4) + GroupExpression.elementary(3, 3)
    monkeypatch.setattr(crystal, "cohomology_bgamma",
                        lambda G, m: swapped if m == 2 else real(G, m))
    with pytest.raises(AssertionError):
        cells[name]()


@pytest.mark.parametrize("p, k", [(5, 3), (3, 7), (11, 1), (13, 1), (3, 10),
                                  (2, 22)])
def test_grid_beyond_the_benchmark_passes(p, k):
    # rank 12 with 4x4 blocks and rank 14 with 2x2 blocks: the largest
    # exterior powers have 924 and 3432 dimensions; (11,1) and (13,1) are
    # one 10x10 and one 12x12 block, so every compound is a full one;
    # (3,10) reaches rank C(20, 10) = 184756 from summands of at most 2^10;
    # (2,22), the largest p = 2 grid the rank bound admits, reaches
    # C(22, 11) = 705432 copies of one 1x1 summand
    results = verify.run_all(p, k)
    assert results and [r.name for r in results if not r.ok] == []


def test_a_grid_too_large_is_refused_before_any_cell(monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "_cell", lambda *cell: ran.append(cell))
    with pytest.raises(zpmod.ExteriorGuardrailError, match="12870"):
        verify.run_all(17, 1)
    cells = verify.all_checks(7, 3)
    with pytest.raises(zpmod.ExteriorGuardrailError, match="8000"):
        next(cells)
    assert ran == []


def test_five_term_cell_catches_a_shifted_s_table(monkeypatch, fresh_shapes):
    # s read one degree late still satisfies the bound, but no longer
    # counts the a_2m that inclusion-exclusion gives
    name = "crystal: five-term sequence bookkeeping"
    cells = {n: fn for n, fn, _repro in verify.all_checks(3, 2)}
    cells[name]()
    real = repring.s_vector
    monkeypatch.setattr(repring, "s_vector",
                        lambda p, k, av=None: real(p, k)[1:] + (p ** k,))
    crystal.shape.cache_clear()
    cells = {n: fn for n, fn, _repro in verify.all_checks(3, 2)}
    with pytest.raises(AssertionError, match="five-term count"):
        cells[name]()


def test_wedge_class_cells_catch_a_wrong_class(monkeypatch, fresh_shapes):
    # reg of Lambda^1 off by one breaks both wedge-class relations; r is
    # read from the a-table, so no other cell sees the wrong class
    names = ("repring: consecutive wedge-class relation",
             "repring: total wedge-class sum")
    real = repring.lambda_class
    monkeypatch.setattr(repring, "lambda_class", lambda p, l: (
        (real(p, l)[0], real(p, l)[1] + 1) if l == 1 else real(p, l)))
    G = crystal.canonical_gamma(5, 1)
    cells = {n: (fn, repro) for n, fn, repro in verify.checks_repring(G, 0)}
    for name in names:
        result = verify._cell(name, *cells[name])
        assert result.name == name and not result.ok, result


def test_aj_cell_catches_a_wrong_a_table(monkeypatch, fresh_shapes):
    # one more composition of 0 than inclusion-exclusion counts
    name = "repring: a_j count two ways / symmetry / total"
    G = crystal.canonical_gamma(3, 2)
    real = repring.a_vector
    monkeypatch.setattr(repring, "a_vector",
                        lambda p, k: (real(p, k)[0] + 1,) + real(p, k)[1:])
    cells = {n: (fn, repro) for n, fn, repro in verify.checks_repring(G, 0)}
    result = verify._cell(name, *cells[name])
    assert result.name == name and not result.ok, result
    assert "inclusion-exclusion" in result.detail


@pytest.mark.parametrize("field, bumped", [
    ("r", {"r-oracle: wedge^1 fixed rank = r_1"}),
    # a_1 one more: the odd coinvariants and the checkerboard of degree 1
    ("a", {"r-oracle: wedge^1 fixed rank = r_1",
           "tate: checkerboard wedge^1"})])
def test_oracle_cells_compare_with_the_shape_tables(monkeypatch, field, bumped):
    # the r-oracle and checkerboard cells read r and a from crystal.shape:
    # a wrong table there fails them, and only in the degrees it changes
    real = crystal.shape(3, 2)
    table = list(getattr(real, field))
    table[1] += 1
    wrong = dataclasses.replace(real, _cache={}, **{field: tuple(table)})
    monkeypatch.setattr(crystal, "shape", lambda p, k: wrong)
    cells = [verify._cell(name, fn, repro)
             for name, fn, repro in verify.all_checks(3, 2)
             if name.startswith(("r-oracle", "tate: checkerboard"))]
    assert len(cells) == 10
    assert {c.name for c in cells if not c.ok} == bumped


def _guarded_compound(monkeypatch, limit):
    """Patch compound_matrix to refuse inputs above limit x limit; returns
    the list of input shapes it was called on."""
    real, shapes = zpmod.compound_matrix, []

    def guarded(A, deg):
        shape = (len(A), len(A[0]))
        shapes.append(shape)
        if shape[0] > limit:
            raise AssertionError(f"compound of a {shape} matrix")
        return real(A, deg)
    monkeypatch.setattr(zpmod, "compound_matrix", guarded)
    return shapes


def test_canonical_grid_runs_the_block_route(monkeypatch):
    # canonical (3,6) is six 2x2 blocks: every compound is of one block,
    # so no dense compound of an exterior power is built
    shapes = _guarded_compound(monkeypatch, 2)
    assert all(r.ok for r in verify.run_all(3, 6))
    assert shapes and set(shapes) == {(2, 2)}


def test_the_module_keeps_the_exterior_powers_of_the_grid():
    # the descriptor keeps no memo: every exterior power the grid reads is
    # kept by the lattice module, once per degree
    G = crystal.canonical_gamma(3, 2)
    assert all(r.ok for r in verify.run_all(3, 2, gamma=G))
    assert not hasattr(G, "_cache")
    for j in range(G.n + 1):
        assert ("ext", j) in G.module._cache
        assert zpmod.exterior_power(G.module, j) is G.exterior(j)
    # an exterior power keeps no reference to its base, so the module and
    # its memo are freed with the descriptor, with no cycle to collect
    module = weakref.ref(G.module)
    gc.disable()
    try:
        del G
        assert module() is None
    finally:
        gc.enable()


def _connected_conjugate(p, k, seed):
    """A validated conjugate of the canonical (p, k) action that is one block."""
    G = crystal.canonical_gamma(p, k)
    g, g_inv = verify._random_unimodular(random.Random(seed), G.n)
    H = crystal.validate_gamma(p, la.matmul(la.matmul(g, G.rho), g_inv))
    assert len(zpmod._components(H.rho)) == 1
    return H


@pytest.mark.parametrize("p, k, seed", [(3, 2, 5), (5, 2, 3)])
def test_connected_conjugate_report_builds_block_compounds_only(monkeypatch, p, k, seed):
    # the supplied action is one n x n block, yet a report builds no compound
    # wider than one (p-1)-block: its groups are the closed forms, so it
    # builds none at all
    H = _connected_conjugate(p, k, seed)
    shapes = _guarded_compound(monkeypatch, p - 1)
    rep = crystal.build_report(H)
    assert rep.warnings == []
    assert shapes == []


@pytest.mark.parametrize("p, k, seed", [(3, 2, 5), (5, 2, 3)])
def test_connected_conjugate_verify_builds_the_full_compound(monkeypatch, p, k, seed):
    # the r-oracle, Tate checkerboard and brute-force cells share the
    # literal route: the compound of the whole supplied action, once in
    # every degree 1..n (degree 0 is the 1x1 identity)
    H = _connected_conjugate(p, k, seed)
    shapes = _guarded_compound(monkeypatch, H.n)
    results = verify.run_all(p, k, gamma=H)
    assert results and [r.name for r in results if not r.ok] == []
    assert shapes.count((H.n, H.n)) == H.n


@pytest.mark.parametrize("p, k, seed", [(3, 2, 5), (5, 2, 3)])
def test_brute_force_cells_read_the_literal_exterior_powers(monkeypatch, p, k, seed):
    # degree m takes the fixed rank of wedge^m and Tate^i of wedge^(m-i):
    # each must be the descriptor's own exterior power of the supplied action
    H = _connected_conjugate(p, k, seed)
    real_assembly, real_fixed, real_tate = (
        crystal.brute_force_cohomology_bgamma, zpmod.fixed_rank, zpmod.tate)
    degree, seen = [], []

    def assembly(G, m):
        degree.append(m)
        try:
            return real_assembly(G, m)
        finally:
            degree.pop()

    def fixed_rank(mod):
        if degree:
            seen.append((mod, degree[-1]))
        return real_fixed(mod)

    def tate(mod, i):
        if degree:
            seen.append((mod, degree[-1] - i))
        return real_tate(mod, i)
    monkeypatch.setattr(crystal, "brute_force_cohomology_bgamma", assembly)
    monkeypatch.setattr(zpmod, "fixed_rank", fixed_rank)
    monkeypatch.setattr(zpmod, "tate", tate)
    results = verify.run_all(p, k, gamma=H)
    assert results and [r.name for r in results if not r.ok] == []
    assert {j for _mod, j in seen} == set(range(H.n + 1))
    assert all(mod is H.exterior(j) for mod, j in seen)


def test_assembly_mismatch_fails_a_verify_cell(monkeypatch):
    H = _connected_conjugate(3, 2, 5)
    monkeypatch.setattr(crystal, "brute_force_cohomology_bgamma",
                        lambda G, m: GroupExpression.free(99))
    failed = [r for r in verify.run_all(3, 2, gamma=H) if not r.ok]
    assert failed and all(r.name.startswith("brute-force: spectral assembly")
                          for r in failed)


def test_rank_errors_are_not_reported_as_the_guardrail(monkeypatch):
    # the bound refuses a grid before its first cell, so any exception
    # inside a cell, a refusal included, is a bug: a HardError
    # validation reads fixed_rank too, so the conjugate is built first
    H = _connected_conjugate(3, 2, 5)

    def broken(m):
        raise ValueError("negative free rank")
    monkeypatch.setattr(zpmod, "fixed_rank", broken)
    with pytest.raises(verify.HardError, match="negative free rank"):
        verify.run_all(3, 2, gamma=H)

    def refused(m):
        raise zpmod.ExteriorGuardrailError("refused mid-grid")
    monkeypatch.setattr(zpmod, "fixed_rank", refused)
    with pytest.raises(verify.HardError, match="refused mid-grid"):
        verify.run_all(3, 2)
