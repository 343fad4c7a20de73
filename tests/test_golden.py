"""Byte identity with the committed reference outputs in perfbench/golden.

Reports must match `crystalk report --p P --k K --format json` byte for
byte, and each verify grid must list the same cells in the same order.
The files are only read here.
"""

import json
import re
from pathlib import Path

import pytest

from crystalk import verify
from crystalk.cli import render_report_json
from crystalk.crystal import build_report, canonical_gamma

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
