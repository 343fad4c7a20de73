import doctest
import importlib
import pkgutil

import pytest

import crystalk

MODULES = ["crystalk"] + [
    info.name for info in pkgutil.iter_modules(crystalk.__path__, "crystalk.")]


@pytest.mark.parametrize("name", MODULES)
def test_module_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name


def test_the_examples_are_found():
    # a doctest run that finds nothing would pass on any code
    found = doctest.testmod(importlib.import_module("crystalk.abelian"))
    assert found.attempted >= 3
