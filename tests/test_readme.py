"""The README names only code that exists: a deleted or renamed function
must take its mention in the README with it, and so must an environment
variable that the package stops reading.  Its report-family table lists
the families a report holds, in report order, and its expression grammar
lists the summand kinds in canonical order."""

import importlib
import re
from pathlib import Path

from crystalk import abelian, crystal

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src" / "crystalk"
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


def _unread_variables(text):
    """The CRYSTALK_* environment variables that `text` names and no module
    of the package reads (through os.environ or os.getenv)."""
    code = "\n".join(path.read_text() for path in SRC.glob("*.py"))
    read = set(re.findall(
        r"""(?:environ\.get\(|environ\[|getenv\()\s*["'](CRYSTALK_\w+)""", code))
    return sorted(set(re.findall(r"\bCRYSTALK_\w+", text)) - read)


def test_readme_names_only_variables_the_package_reads():
    assert _unread_variables("set `CRYSTALK_NO_SUCH_KNOB` to override") \
        == ["CRYSTALK_NO_SUCH_KNOB"]
    assert _unread_variables(README.read_text()) == []


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


# one rendered summand of each kind
SAMPLES = {
    abelian.FreeZ: abelian.FreeZ(2),
    abelian.CyclicPrimePower: abelian.CyclicPrimePower(3, 2, 2),
    abelian.PAdic: abelian.PAdic(3, 6),
    abelian.Pruefer: abelian.Pruefer(5, 2),
    abelian.KOPoint: abelian.KOPoint(2, 3),
    abelian.KoPoint: abelian.KoPoint(4, 2),
    abelian.UnknownPTorsion: abelian.UnknownPTorsion("T1", (3, 0)),
}


def _grammar_tokens():
    """The summand tokens of the README's expression grammar block."""
    text = README.read_text()
    block = text.split("Group expressions use one grammar everywhere:")[1]
    block = block.split("```")[1].split("\n", 1)[1]
    return [tok.strip() for tok in " ".join(block.split()).split("(+)")]


def test_grammar_block_matches_the_kind_table():
    # one token per kind, in table order, each starting like a rendered
    # summand of its kind up to its first `^`, `/`, `[` or `{`
    tokens = _grammar_tokens()
    assert len(tokens) == len(abelian._KINDS) == 7
    for token, kind in zip(tokens, abelian._KINDS):
        prefix = re.match(r"[^^/\[{]*[\^/\[{]", token)[0]
        rendered = abelian.GroupExpression((SAMPLES[kind],)).render()
        assert rendered.startswith(prefix), (token, rendered)
