"""The package has no runtime dependency: importing it and its command
line loads no module outside the standard library, and reports, `verify`
and `oracle` run with numpy unimportable (numpy serves only the tests'
references and the benchmark).  Every function and class it defines is
used by its own code."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# compared before and after the import, since site hooks may preload
# modules of their own
PROBE = """
import json, sys
before = set(sys.modules)
import crystalk, crystalk.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added - set(sys.stdlib_module_names))))
"""

REPORT_PROBE = """
import contextlib, io, json, sys
if "numpy" in sys.modules:
    sys.exit("numpy preloaded before the probe")
import crystalk, crystalk.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    for argv in (["report", "--p", "3", "--k", "2", "--format", "json"],
                 ["report", "--matrix", sys.argv[1], "--format", "json"]):
        assert crystalk.cli.main(argv) == 0, argv
print(json.dumps({"numpy": "numpy" in sys.modules,
                  "reports": out.getvalue().count('"descriptor"')}))
"""


NO_NUMPY_PROBE = """
import contextlib, io, sys
sys.modules["numpy"] = None   # any `import numpy` now raises ImportError
import crystalk.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    for argv in (["verify", "--p", "3", "--k", "2", "--format", "json"],
                 ["oracle", "--p", "5", "--k", "1"]):
        assert crystalk.cli.main(argv) == 0, argv
print(len(out.getvalue()))
"""


def _run(code, *args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path)).stdout


def test_the_package_has_no_runtime_dependency():
    out = _run(PROBE)
    assert set(json.loads(out)) <= {"crystalk"}, out


def test_verify_and_oracle_run_without_numpy():
    # the oracles rank over prime fields without numpy
    assert int(_run(NO_NUMPY_PROBE)) > 0


def test_the_report_path_never_loads_numpy(tmp_path):
    # a canonical report and a --matrix report on a conjugate, which runs
    # the order check, the Smith form of rho - id and the canonical test
    path = tmp_path / "conjugate.json"
    path.write_text(json.dumps({"p": 3, "matrix": [[2, -7], [1, -3]]}))
    got = json.loads(_run(REPORT_PROBE, str(path)))
    assert got == {"numpy": False, "reports": 2}


# Defined in the package and called by none of its code, each on purpose.
UNREFERENCED = {
    "crystal.TheoremReport.to_json_dict":
        "the reference that cli.render_report_json is tested against",
    "exact_linalg.rank_mod": "the checked public entry to prime-field ranks",
    "abelian.GroupExpression.pruefer_rank": "a value accessor",
    "repring.s_m": "the paper's s_m, next to r_m and a_j",
    "repring.r_m": "the paper's r_m/a_j, public in `__init__`",
    "repring.a_j": "the paper's r_m/a_j, public in `__init__`",
    "zpmod.ZpModule.power": "perfbench/tracer.py wraps it by name",
}


def _definitions(node, prefix):
    """(qualified name, node) of every function and class under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            yield name, child
            yield from _definitions(child, name)


def _names(node):
    """Every name that code under node reads, as a variable or an attribute;
    docstrings, comments and imports (so re-exports) hold none."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_definition_is_used_by_the_package():
    # code that exists only to test itself should go: a function or class
    # is kept when code of the package outside its own body names it
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "crystalk").glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in _names(tree))
    unused = {
        qualname for module, tree in trees.items()
        for qualname, node in _definitions(tree, module)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and used[node.name] == sum(n == node.name for n in _names(node))}
    assert unused == set(UNREFERENCED)
