"""numpy is the only runtime dependency: importing the package and its
command line loads no third-party module besides numpy."""

import json
import os
import subprocess
import sys
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


def test_numpy_is_the_only_runtime_dependency():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    assert set(json.loads(out)) <= {"crystalk", "numpy"}, out
