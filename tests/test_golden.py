"""Byte identity with the committed reference outputs in perfbench/golden.

Reports must match `crystalk report --p P --k K --format json` byte for
byte, and each verify grid must list the same cells in the same order.
A report on a conjugate of a golden action must give the same scalars,
groups and warnings.  The files are only read here.
"""

import json
import random
import re
from pathlib import Path

import pytest

from crystalk import verify
from crystalk.cli import render_report_json
from crystalk.crystal import build_report, canonical_gamma, validate_gamma

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def _shapes(kind):
    out = []
    for path in sorted(GOLDEN.glob(f"{kind}-*.json")):
        p, k = map(int, re.fullmatch(rf"{kind}-(\d+)-(\d+)\.json", path.name).groups())
        out.append(pytest.param(p, k, path, id=f"{p}-{k}"))
    return out


def test_golden_files_present():
    assert _shapes("report") and _shapes("verify")


@pytest.mark.parametrize("p,k,path", _shapes("report"))
def test_report_bytes_match_golden(p, k, path):
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
    H = validate_gamma(p, g @ G.rho @ g_inv)
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


def test_large_conjugate_report_is_clean():
    # rank 14: a report on a supplied action builds no exterior power, so
    # the 3432-dimensional compounds of the matrix are never reached
    rep = build_report(_seeded_conjugate(3, 7, 37))
    assert rep.warnings == []
    assert rep.groups == build_report(canonical_gamma(3, 7)).groups
