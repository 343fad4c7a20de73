"""Byte identity with committed reference outputs.

Reports must match the files in perfbench/golden, the output of
`crystalk report --p P --k K --format json`, byte for byte, and each
verify grid must list the same cells in the same order.  A report on a
conjugate of a golden action must give the same scalars, groups and
warnings.

The files in tests/golden are the stdout of the commands in `CLI_CASES`,
written by the CLI before the change that added them:

    crystalk oracle --p P --k K --format json    (2,3) (3,2) (5,2) (7,1)
    crystalk report --p P --k K --format json --degree-window -11 19
                                                 (3,2) (5,2)
    crystalk report --p P --k K                  (2,3) (3,2)

The files are only read here.
"""

import json
import random
import re
from pathlib import Path

import pytest

from crystalk import crystal, exact_linalg as la, verify
from crystalk.cli import main, render_report_json, render_report_text
from crystalk.crystal import build_report, canonical_gamma, validate_gamma

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
CLI_GOLDEN = Path(__file__).resolve().parent / "golden"


def _args(command, p, k, *rest):
    return (command, "--p", str(p), "--k", str(k)) + rest


# file in tests/golden -> the crystalk arguments whose stdout it holds
CLI_CASES = {
    **{f"oracle-{p}-{k}.json": _args("oracle", p, k, "--format", "json")
       for p, k in [(2, 3), (3, 2), (5, 2), (7, 1)]},
    **{f"report-window-{p}-{k}.json": _args(
        "report", p, k, "--format", "json", "--degree-window", "-11", "19")
       for p, k in [(3, 2), (5, 2)]},
    **{f"report-{p}-{k}.txt": _args("report", p, k) for p, k in [(2, 3), (3, 2)]},
}


def _shapes(kind):
    out = []
    for path in sorted(GOLDEN.glob(f"{kind}-*.json")):
        p, k = map(int, re.fullmatch(rf"{kind}-(\d+)-(\d+)\.json", path.name).groups())
        out.append(pytest.param(p, k, path, id=f"{p}-{k}"))
    return out


def test_golden_files_present():
    assert _shapes("report") and _shapes("verify")
    assert sorted(path.name for path in CLI_GOLDEN.iterdir()) == sorted(CLI_CASES)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_bytes_match_golden(name, capsys):
    assert main(list(CLI_CASES[name])) == 0
    assert capsys.readouterr().out.encode() == (CLI_GOLDEN / name).read_bytes()


@pytest.mark.parametrize("p,k,path", _shapes("report"))
def test_report_bytes_match_golden(p, k, path, fresh_shapes):
    # cold, then with the groups block laid out by the first render
    for hit in (False, True):
        assert ("groups json" in crystal.shape(p, k)._cache) == hit
        text = render_report_json(build_report(canonical_gamma(p, k))) + "\n"
        assert text.encode() == path.read_bytes()


@pytest.mark.parametrize("p,k,path", _shapes("verify"))
def test_verify_cell_names_match_golden(p, k, path):
    # all_checks yields the cells without calling them
    names = [name for name, _fn, _repro in verify.all_checks(p, k)]
    assert names == json.loads(path.read_text())


def _seeded_conjugate(p, k, seed):
    G = canonical_gamma(p, k)
    g, g_inv = verify._random_unimodular(random.Random(seed), G.n)
    H = validate_gamma(p, la.matmul(la.matmul(g, G.rho), g_inv))
    assert not H.canonical
    return H


@pytest.mark.parametrize("p,k,path", [
    param for param in _shapes("report")
    if (param.values[0] - 1) * param.values[1] <= 8])
def test_conjugate_reports_match_golden(p, k, path):
    golden = json.loads(path.read_text())
    got = build_report(_seeded_conjugate(p, k, 1000 * p + k)).to_json_dict()
    for key in ("scalars", "groups", "warnings"):
        assert got[key] == golden[key], key



@pytest.mark.parametrize("p,k", [(3, 2), (3, 4), (5, 2), (7, 1)])
def test_conjugate_report_text_matches_canonical(p, k):
    # the text report of a conjugate differs only in its header line
    got = render_report_text(build_report(_seeded_conjugate(p, k, 1000 * p + k)))
    expect = render_report_text(build_report(canonical_gamma(p, k)))
    got_head, got_body = got.split("\n", 1)
    expect_head, expect_body = expect.split("\n", 1)
    assert got_head == expect_head.replace("canonical=yes", "canonical=no")
    assert got_body == expect_body

def test_large_conjugate_report_is_clean():
    # rank 14: a report on a supplied action builds no exterior power, so
    # the 3432-dimensional compounds of the matrix are never reached
    rep = build_report(_seeded_conjugate(3, 7, 37))
    assert rep.warnings == []
    assert rep.groups == build_report(canonical_gamma(3, 7)).groups
