"""The README names only code that exists: a deleted or renamed function
must take its mention in the README with it.  Its report-family table
lists the families a report holds, in report order."""

import importlib
import re
from pathlib import Path

from crystalk import crystal

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("abelian", "cli", "crystal", "exact_linalg", "repring", "verify",
           "zpmod")
# `crystalk.<module>` or `<module>.<name>` inside an inline code span
NAME = re.compile(rf"\bcrystalk\.(\w+)|\b({'|'.join(MODULES)})\.(\w+)")


def _inline_code(text):
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    return re.findall(r"`([^`\n]+)`", text)


def test_readme_names_resolve():
    seen = 0
    for span in _inline_code(README.read_text()):
        for package_module, module, name in NAME.findall(span):
            seen += 1
            if package_module:
                importlib.import_module(f"crystalk.{package_module}")
            else:
                mod = importlib.import_module(f"crystalk.{module}")
                assert hasattr(mod, name), f"`{span}`: no {module}.{name}"
    assert seen


def _family_table():
    """Rows of the README's report-family table as (name, window, odd)."""
    lines = README.read_text().splitlines()
    start = lines.index("| family | degree window | odd p only |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, window, odd = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((name.strip("`"), window, odd))
    return rows


def test_report_family_table_matches_the_report():
    # order and names against REPORT_FAMILIES; windows and the odd-p rule
    # against the degrees a report actually holds
    rows = _family_table()
    assert [name for name, _w, _o in rows] \
        == [name for name, *_rest in crystal.REPORT_FAMILIES]
    G, G2 = crystal.canonical_gamma(3, 2), crystal.canonical_gamma(2, 3)
    groups = crystal.build_report(G).groups
    groups2 = crystal.build_report(G2).groups
    assert list(groups) == [name for name, _w, _o in rows]
    for name, window, odd in rows:
        lo, hi = window.replace("n", str(G.n)).split(" … ")
        assert sorted(groups[name]) == list(range(int(lo), int(hi) + 1)), name
        assert odd in ("yes", "no")
        assert (name not in groups2) == (odd == "yes"), name
