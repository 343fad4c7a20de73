"""The README names only code that exists: a deleted or renamed function
must take its mention in the README with it."""

import importlib
import re
from pathlib import Path

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
