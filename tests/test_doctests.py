import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import crystalk

MODULES = ["crystalk"] + [
    info.name for info in pkgutil.iter_modules(crystalk.__path__, "crystalk.")]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_module_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name


def test_the_examples_are_found():
    # a doctest run that finds nothing would pass on any code
    found = doctest.testmod(importlib.import_module("crystalk.abelian"))
    assert found.attempted >= 3


def test_readme_examples_pass():
    # the ```python blocks of the README, read up to their closing fence
    text = README.read_text(encoding="utf-8")
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for match in re.finditer(r"^```python\n(.*?)^```", text, flags=re.M | re.S):
        line = text.count("\n", 0, match.start(1))
        runner.run(parser.get_doctest(match.group(1), {}, "README.md",
                                      str(README), line))
    result = runner.summarize(verbose=False)
    assert result.failed == 0
    assert result.attempted >= 6
