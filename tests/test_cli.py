import dataclasses
import enum
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crystalk import cli, crystal, exact_linalg as la, verify, zpmod
from crystalk.abelian import GroupExpression
from crystalk.cli import main, render_report_json
from crystalk.zpmod import MAX_EXTERIOR_RANK, MAX_SUMMAND_DIM

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
GOLDEN_SHAPES = sorted(
    tuple(map(int, re.fullmatch(r"report-(\d+)-(\d+)\.json", path.name).groups()))
    for path in GOLDEN.glob("report-*.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- report ------------------------------------------------------------------

def test_report_json_contains_headline(capsys):
    code, out, err = run(capsys, "report", "--p", "3", "--k", "1",
                         "--format", "json")
    assert code == 0
    assert err == ""
    data = json.loads(out)
    assert data["groups"]["K_*(Cstar)"]["0"] == "Z^8"
    assert data["groups"]["K_*(Cstar)"]["1"] == "0"
    assert data["scalars"]["d_ev"] == 8


def test_report_json_roundtrip_bytes(capsys):
    code, out, _ = run(capsys, "report", "--p", "3", "--k", "1",
                       "--format", "json")
    assert code == 0
    rerendered = json.dumps(json.loads(out), indent=2) + "\n"
    assert rerendered == out


@pytest.mark.parametrize("p,k", [(1009, 1)] + GOLDEN_SHAPES)
def test_render_report_json_is_json_dumps(p, k):
    report = crystal.build_report(crystal.canonical_gamma(p, k))
    assert render_report_json(report) == json.dumps(report.to_json_dict(),
                                                    indent=2)


def test_render_report_json_is_json_dumps_off_canonical():
    # wide entries, no warnings and a degree window
    G = crystal.canonical_gamma(5, 1)
    g = la.intmat([[1, 3, 0, 0], [0, 1, 0, 0], [0, 0, 1, -7], [0, 0, 0, 1]])
    g_inv = la.intmat([[1, -3, 0, 0], [0, 1, 0, 0], [0, 0, 1, 7], [0, 0, 0, 1]])
    H = crystal.validate_gamma(5, la.matmul(la.matmul(g, G.rho), g_inv))
    report = crystal.build_report(H, window=(1, 3))
    assert render_report_json(report) == json.dumps(report.to_json_dict(),
                                                    indent=2)


def _conjugate(p, k, seed):
    """A seeded unimodular conjugate of the canonical (p, k) action."""
    G = crystal.canonical_gamma(p, k)
    g, g_inv = verify._random_unimodular(random.Random(seed), G.n)
    return crystal.validate_gamma(p, la.matmul(la.matmul(g, G.rho), g_inv))


def _stored_block(p, k):
    return crystal.shape(p, k)._cache.get("groups json")


def _edited_after_the_block_was_stored():
    # the edits of test_a_report_owns_its_groups, on the report itself
    G = _conjugate(3, 2, 5)
    report = crystal.build_report(G)
    render_report_json(crystal.build_report(G))
    assert _stored_block(3, 2)
    report.groups["H^*(BGamma)"][0] = GroupExpression.free(99)
    del report.groups["K_*(Cstar)"]
    report.groups["extra"] = {}
    return report


def _reordered_after_the_block_was_stored():
    # equal tables in another order: == on the dicts alone would not see it
    report = crystal.build_report(crystal.canonical_gamma(3, 2))
    render_report_json(report)
    assert _stored_block(3, 2)
    report.groups["H^*(BGamma)"] = report.groups.pop("H^*(BGamma)")
    return report


def _window_with_empty_families():
    report = crystal.build_report(crystal.canonical_gamma(3, 2), window=(-3, -1))
    assert report.groups["H^*(BGamma)"] == report.groups["ko_*(BGamma)"] == {}
    return report


def _p2():
    report = crystal.build_report(crystal.canonical_gamma(2, 3))
    assert report.warnings and "KO^*(BGamma)" not in report.groups
    return report


def _conjugate_after_a_canonical_report():
    render_report_json(crystal.build_report(crystal.canonical_gamma(5, 2)))
    assert _stored_block(5, 2)
    return crystal.build_report(_conjugate(5, 2, 7))


def _the_1x1_action():
    report = crystal.build_report(crystal.canonical_gamma(2, 1))
    assert report.descriptor.rho == [[-1]]
    return report


def _with_rho(name, rho):
    """A maker of a report of (3, 1) whose descriptor is built by hand
    around the unchecked module of `rho`, which no validation has seen."""
    def make():
        report = crystal.build_report(crystal.canonical_gamma(3, 1))
        G = crystal.GammaDescriptor(3, len(rho), 1,
                                    zpmod.ZpModule(3, rho, check=False), False)
        return dataclasses.replace(report, descriptor=G)
    make.__name__ = name
    return make


HAND_BUILT_RHO = {
    "rho_above_2_64": [[2**64 + 1, 0], [0, -(2**70)]],
    "rho_with_negative_entries": [[-1, -3, 0, 0], [0, 0, 0, -12],
                                  [0, 0, 0, 0], [0, -5, 0, -1]],
    "rho_with_an_all_zero_row": [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
    "rho_with_a_dense_row": [[1, -2, 3, 4], [0, 0, 5, 0], [0, 0, 0, 0],
                             [7] * 4],
}


EDGE_REPORTS = [_edited_after_the_block_was_stored,
                _reordered_after_the_block_was_stored,
                _window_with_empty_families, _p2,
                _conjugate_after_a_canonical_report, _the_1x1_action,
                *(_with_rho(name, rho) for name, rho in HAND_BUILT_RHO.items())]


@pytest.mark.parametrize("make", EDGE_REPORTS,
                         ids=[make.__name__.strip("_") for make in EDGE_REPORTS])
def test_render_report_json_is_json_dumps_on_edge_cases(make, fresh_shapes):
    report = make()
    expect = json.dumps(report.to_json_dict(), indent=2)
    # twice: the first render may store the block the second reads
    assert render_report_json(report) == expect
    assert render_report_json(report) == expect


class _Entry(enum.IntEnum):
    MINUS_ONE = -1
    ZERO = 0
    ONE = 1


_RHO_31 = ((0, -1), (1, -1))
# the (3, 1) action conjugated by [[1, 2^40], [0, 1]]: one entry is
# -(2^80 + 2^40 + 1)
_RHO_31_WIDE = la.matmul(la.matmul([[1, 2**40], [0, 1]], _RHO_31),
                         [[1, -2**40], [0, 1]])

DESCRIPTOR_MAKERS = {
    "validate_gamma_on_tuple_rows": lambda: crystal.validate_gamma(3, _RHO_31),
    "validate_gamma_on_an_int64_array": lambda: crystal.validate_gamma(
        3, np.array(_RHO_31, dtype=np.int64)),
    "validate_gamma_on_intenum_entries": lambda: crystal.validate_gamma(
        3, [[_Entry(x) for x in row] for row in _RHO_31]),
    "validate_gamma_on_entries_near_2_80": lambda: crystal.validate_gamma(
        3, _RHO_31_WIDE),
    **{f"canonical_gamma_{p}_{k}": lambda p=p, k=k: crystal.canonical_gamma(p, k)
       for p, k in ((2, 1), (3, 2), (61, 1))},
}


@pytest.mark.parametrize("make", DESCRIPTOR_MAKERS.values(),
                         ids=DESCRIPTOR_MAKERS.keys())
def test_every_descriptor_holds_rows_of_python_ints(make):
    # `_layout_rows` writes rho without checking it, so every way the
    # package makes a descriptor must leave exact ints in a list of lists
    G = make()
    assert type(G.rho) is list
    assert all(type(row) is list and len(row) == G.n for row in G.rho)
    assert all(type(x) is int for row in G.rho for x in row)
    assert G.rho is G.module.action and len(G.rho) == G.n
    report = crystal.build_report(G)
    assert render_report_json(report) == json.dumps(report.to_json_dict(),
                                                    indent=2)


@pytest.mark.parametrize("rho, check, message", [
    ([[True, 0], [0, 1]], True, "matrix entry True is not an integer"),
    ([[1, 0], [], [0, 0]], True, "ragged rows in matrix input"),
    ([[1, 0], [], [0, 0]], False, "action matrix must be square")],
    ids=["rho_with_a_bool", "rho_with_an_empty_row",
         "unchecked_rho_with_an_empty_row"])
def test_a_module_refuses_rows_the_layout_would_misprint(rho, check, message):
    # `_layout_rows` would write a bool as 1 and trusts every row to be n
    # long; no descriptor's module holds such rows
    with pytest.raises(ValueError, match=message):
        zpmod.ZpModule(3, rho, check=check)
    if check:
        with pytest.raises(ValueError, match=message):
            crystal.validate_gamma(3, rho)


@st.composite
def int_matrices(draw):
    """Rows of Python ints of any width (0 to 12), each with a drawn set of
    nonzero positions, so rows run from all zeros to fully dense."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [0] * draw(st.integers(0, 12))
        for j in draw(st.sets(st.integers(0, max(len(row) - 1, 0)),
                              max_size=len(row))):
            row[j] = draw(st.integers(-2**70, 2**70).filter(bool))
        rows.append(row)
    return rows


@given(int_matrices(), st.sampled_from((0, 2, 4, 6)))
@settings(max_examples=200, deadline=None)
def test_layout_rows_is_layout(rows, indent):
    assert cli._layout_rows(rows, indent) == cli._layout(rows, indent)
    if indent == 0:
        assert cli._layout_rows(rows, 0) == json.dumps(rows, indent=2)


def test_a_second_report_of_a_shape_renders_no_expression(monkeypatch,
                                                          fresh_shapes):
    calls = []
    render = GroupExpression.render
    monkeypatch.setattr(GroupExpression, "render",
                        lambda self: calls.append(self) or render(self))
    first = render_report_json(crystal.build_report(_conjugate(5, 2, 3)))
    assert calls
    calls.clear()
    report = crystal.build_report(_conjugate(5, 2, 4))
    second = render_report_json(report)
    assert calls == []
    assert second.split('"scalars"')[1] == first.split('"scalars"')[1]
    assert second == json.dumps(report.to_json_dict(), indent=2)


def test_windowed_reports_store_nothing_in_the_shape(fresh_shapes):
    G = _conjugate(3, 2, 5)
    render_report_json(crystal.build_report(G))
    keys = set(crystal.shape(3, 2)._cache)
    assert "groups json" in keys
    windows = [(lo, lo + width) for lo in range(-4, 4) for width in range(5)]
    assert len(set(windows)) == 40
    for window in windows:
        report = crystal.build_report(G, window)
        assert render_report_json(report) == json.dumps(report.to_json_dict(),
                                                        indent=2)
    assert set(crystal.shape(3, 2)._cache) == keys


def test_report_p2_text(capsys):
    code, out, err = run(capsys, "report", "--p", "2", "--k", "1")
    assert code == 0
    assert "Z^3" in out
    assert "p odd required" in out
    assert "KO^*(BGamma)" not in out


def test_report_no_floats_anywhere(capsys):
    _, out, _ = run(capsys, "report", "--p", "5", "--k", "1",
                    "--format", "json")
    def no_floats(x):
        if isinstance(x, dict):
            return all(no_floats(v) for v in x.values())
        if isinstance(x, list):
            return all(no_floats(v) for v in x)
        return not isinstance(x, float)
    assert no_floats(json.loads(out))


def test_report_matrix_file(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 3, "matrix": [[0, -1], [1, -1]]}))
    code, out, err = run(capsys, "report", "--matrix", str(path),
                         "--format", "json")
    assert code == 0
    assert json.loads(out)["descriptor"]["canonical"] is True


@pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (5, 2), (7, 1)])
@pytest.mark.parametrize("matrix_first", [True, False])
def test_matrix_file_of_the_canonical_rows_reports_the_same_bytes(
        tmp_path, capsys, p, k, matrix_first, fresh_shapes):
    # a supplied canonical action is validated densely; whichever report
    # of the shape comes first fills its cokernel, and both read the same
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(
        {"p": p, "matrix": crystal.canonical_gamma(p, k).rho_rows()}))
    argvs = [["--matrix", str(path)], ["--p", str(p), "--k", str(k)]]
    outs = []
    for argv in argvs if matrix_first else argvs[::-1]:
        code, out, err = run(capsys, "report", *argv, "--format", "json")
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["descriptor"]["canonical"] is True


def test_report_matrix_identity_exit2(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 3, "matrix": [[1, 0], [0, 1]]}))
    code, out, err = run(capsys, "report", "--matrix", str(path))
    assert code == 2
    assert out == ""
    assert "WrongOrder" in err


HUGE_PRIME = 1000000000000000003
DIAG_2 = [[2 if i == j == 0 else int(i == j) for j in range(12)]
          for i in range(12)]   # diag(2, 1, ..., 1), of infinite order


def _matrix_file(p, matrix):
    """The argv of a --matrix report; the test writes the file."""
    return ["--matrix", {"p": p, "matrix": matrix}]


def _limit(n):
    return f"BadRank: n = k(p - 1) = {n} exceeds the limit {MAX_SUMMAND_DIM}"


@pytest.mark.parametrize("args, expected", [
    (_matrix_file(HUGE_PRIME, [[-1]]), "WrongOrder"),      # (-1)^p = -1
    (_matrix_file(2 * HUGE_PRIME, [[-1]]), "NotPrime"),    # (-1)^p = 1, p even
    (_matrix_file(HUGE_PRIME, [[2]]), "WrongOrder"),       # infinite order
    (_matrix_file(2 * HUGE_PRIME, [[2, 1], [1, 1]]), "NotPrime"),
    (_matrix_file(5354228880, DIAG_2), "NotPrime"),   # lcm(1, ..., 24): rho^p holds 2^p
    (_matrix_file(HUGE_PRIME, DIAG_2), "WrongOrder"),
    # the rank k(p - 1) is bounded before the primality test and the action
    (["--p", str(HUGE_PRIME), "--k", "1"], _limit(HUGE_PRIME - 1)),
    (["--p", "1000003", "--k", "1"], _limit(1000002)),
    (["--p", "20011", "--k", "1"], _limit(20010))],
    ids=["1000000000000000003-matrix0-WrongOrder",
         "2000000000000000006-matrix1-NotPrime",
         "1000000000000000003-matrix2-WrongOrder",
         "2000000000000000006-matrix3-NotPrime",
         "5354228880-matrix4-NotPrime",
         "1000000000000000003-matrix5-WrongOrder",
         "1000000000000000003-k1-BadRank", "1000003-k1-BadRank",
         "20011-k1-BadRank"])
def test_huge_p_is_refused_at_once(tmp_path, args, expected):
    # trial division up to n + 1 comes first, and rho^p is formed only
    # for p <= n + 1; the address-space limit turns a power that grows
    # without bound into a failure, not a stalled host
    path = tmp_path / "rho.json"
    argv = []
    for arg in args:
        if isinstance(arg, dict):
            path.write_text(json.dumps(arg))
            arg = str(path)
        argv.append(arg)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "crystalk.cli", "report", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (2 ** 30, 2 ** 30)))
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert expected in proc.stderr


def test_matrix_file_over_the_rank_limit_is_refused(tmp_path, capsys):
    # the (3, 1025) action that `--p 3 --k 1025` refuses, given as a file:
    # refused alike, before its order is checked
    rho = zpmod.direct_sum(*[zpmod.make_cyclotomic(3)] * 1025).action
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 3, "matrix": rho}, separators=(",", ":")))
    code, out, err = run(capsys, "report", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert _limit(2050) in err


def test_report_notfree_names_vector(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 2, "matrix": [[0, 1], [1, 0]]}))
    code, _, err = run(capsys, "report", "--matrix", str(path))
    assert code == 2
    assert "NotFree" in err and "fixed vector" in err


def test_report_missing_file_exit3(capsys):
    code, out, err = run(capsys, "report", "--matrix", "/nonexistent/rho.json")
    assert code == 3
    assert "input/output error" in err


def test_report_bad_json_exit3(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "report", "--matrix", str(path))
    assert code == 3


@pytest.mark.parametrize("payload", [
    b'{"p": 2, "matrix": [[-1]]}\xff',                       # not UTF-8
    b'{"p": 2, "matrix": [[' + b"1" * 5000 + b']]}',          # 5000 digits
    b'{"p": 2, "matrix": ' + b"[" * 100000 + b"]" * 100000 + b'}',
], ids=["not-utf8", "long-integer", "deep-nesting"])
def test_report_unreadable_file_exit3(tmp_path, capsys, payload):
    path = tmp_path / "rho.json"
    path.write_bytes(payload)
    code, out, err = run(capsys, "report", "--matrix", str(path))
    assert (code, out) == (3, "")
    assert "input/output error" in err


def test_report_float_entries_exit3(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 2, "matrix": [[-1.0]]}))
    code, _, err = run(capsys, "report", "--matrix", str(path))
    assert code == 3
    assert "not an integer" in err


def test_report_boolean_p_exit3(tmp_path, capsys):
    # JSON true is a Python bool, an int subclass; like a boolean matrix
    # entry it is malformed input, not a non-prime p
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": True, "matrix": [[-1]]}))
    code, _, err = run(capsys, "report", "--matrix", str(path))
    assert code == 3
    assert "'p' must be an integer" in err


def test_report_nonlist_matrix_exit3(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 3, "matrix": "nonsense"}))
    code, _, _ = run(capsys, "report", "--matrix", str(path))
    assert code == 3


def test_report_k_and_matrix_conflict(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 3, "matrix": [[0, -1], [1, -1]]}))
    code, _, err = run(capsys, "report", "--p", "3", "--k", "1",
                       "--matrix", str(path))
    assert code == 2
    code, _, err = run(capsys, "report", "--p", "3")
    assert code == 2


def test_report_p_mismatch_with_file(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 3, "matrix": [[0, -1], [1, -1]]}))
    code, _, err = run(capsys, "report", "--p", "5", "--matrix", str(path))
    assert code == 2
    assert "disagrees" in err


def test_report_window(capsys):
    code, out, _ = run(capsys, "report", "--p", "3", "--k", "1",
                       "--degree-window", "0", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert sorted(data["groups"]["H^*(BGamma)"]) == ["0", "1", "2", "3", "4"]


def test_report_inverted_window_exit2(capsys):
    code, _, err = run(capsys, "report", "--p", "3", "--k", "1",
                       "--degree-window", "3", "1")
    assert code == 2
    assert "empty degree window" in err


def test_report_window_over_the_limit_exit2(capsys):
    code, out, err = run(capsys, "report", "--p", "3", "--k", "1",
                         "--degree-window", "0", "40000")
    assert (code, out) == (2, "")
    assert err == ("BadWindow: degree window (0, 40000) spans 40001 "
                   "degrees; the limit is 4096\n")


def test_report_negative_window(capsys):
    # periodic families may dip below zero; graded ones clamp at zero
    code, out, _ = run(capsys, "report", "--p", "3", "--k", "1",
                       "--degree-window", "-2", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert sorted(data["groups"]["K_*(Cstar)"]) == ["-1", "-2", "0", "1"]
    assert data["groups"]["K_*(Cstar)"]["-2"] == "Z^8"
    assert sorted(data["groups"]["H^*(BGamma)"]) == ["0", "1"]
    assert sorted(data["groups"]["ko_*(BGamma)"]) == ["0", "1"]


# -- verify ------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", "--p", "3", "--k", "1")
    assert code == 0
    assert "[PASS]" in out
    assert "0 failed" in out


def test_verify_matrix_runs_on_the_supplied_action(tmp_path, capsys,
                                                   monkeypatch):
    from crystalk import crystal

    # a (3,1) conjugate g rho g^-1 with g = [[1, 2], [0, 1]]
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 3, "matrix": [[2, -7], [1, -3]]}))

    def refuse(p, k):
        raise AssertionError("verify --matrix built the canonical action")
    monkeypatch.setattr(crystal, "canonical_gamma", refuse)
    code, out, err = run(capsys, "verify", "--matrix", str(path),
                         "--format", "json")
    assert code == 0, err
    data = json.loads(out)
    assert (data["p"], data["k"], data["failed"]) == (3, 1, 0)
    assert data["passed"] == len(data["checks"]) > 0


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--p", "2", "--k", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0
    assert all(c["ok"] for c in data["checks"])


@pytest.mark.parametrize("argv, message", [
    (("--p", "3"), "exactly one of --k and --matrix must be given"),
    (("--k", "2"), "--p is required with --k"),
])
def test_verify_without_a_shape_exit2(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_verify_internal_error_exit4(capsys, monkeypatch):
    from crystalk import verify as verify_mod

    def boom(p, k, seed=0, gamma=None):
        raise verify_mod.HardError("division broke", "p=3 k=1 m=2 i=1")
    monkeypatch.setattr(verify_mod, "run_all", boom)
    code, out, err = run(capsys, "verify", "--p", "3", "--k", "1")
    assert code == 4
    assert "p=3 k=1 m=2 i=1" in err


def test_verify_guardrail_refusal_exit2(capsys):
    # a refused exterior power is an invalid request, not an internal error
    code, out, err = run(capsys, "verify", "--p", "17", "--k", "1")
    assert code == 2
    assert out == ""
    assert "invalid request" in err and "internal error" not in err


@pytest.mark.parametrize("command", ["verify", "oracle"])
@pytest.mark.parametrize("p, k, widest", [
    (17, 1, 12870), (7, 3, 8000), (13, 2, 853776), (2, 200, 1)])
def test_too_large_grids_are_refused_at_once(command, p, k, widest):
    # from interpreter start: the bound is checked before the first cell
    # or oracle degree, so no shape here gets to build anything
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "crystalk.cli", command, "--p", str(p),
         "--k", str(k)], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))})
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"widest summand {widest} (limit {MAX_SUMMAND_DIM})" in proc.stderr
    assert f"(limit {MAX_EXTERIOR_RANK})" in proc.stderr


# -- oracle ------------------------------------------------------------------

def test_oracle_text(capsys):
    code, out, _ = run(capsys, "oracle", "--p", "3", "--k", "1")
    assert code == 0
    assert "1 0 1" in out
    assert "wedge^1: 0 , Z/3" in out


def test_oracle_p2_sum(capsys):
    code, out, _ = run(capsys, "oracle", "--p", "2", "--k", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert sum(data["r_closed_form"]) == 2 ** (2 - 1)
    assert data["r_closed_form"] == data["r_fixed_rank_oracle"]


def test_oracle_matrix_echoes_descriptor(tmp_path, capsys):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"p": 2, "matrix": [[-1]]}))
    code, out, _ = run(capsys, "oracle", "--matrix", str(path),
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["descriptor"] == {"p": 2, "n": 1, "k": 1, "canonical": True,
                                  "rho": [[-1]]}
