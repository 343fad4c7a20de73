"""Write the reference outputs in perfbench/golden from the library in src/.

    python3 perfbench/make_golden.py

Reports are the exact stdout of `crystalk report --p P --k K --format json`;
verify files list the grid's cell names in order.  The committed files
come from the commit that added the benchmark.  Regenerate them only for
a change that is meant to alter report output, and say so in its log.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)
from crystalk import verify  # noqa: E402


def main() -> None:
    workloads.GOLDEN.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    shapes = set(workloads.REPORT_SWEEP) | {(p, k) for p, k, _ in workloads.CONJUGATED}
    for p, k in sorted(shapes):
        out = subprocess.run(
            [sys.executable, "-m", "crystalk.cli", "report", "--p", str(p),
             "--k", str(k), "--format", "json"],
            env=env, check=True, capture_output=True).stdout
        workloads.golden_report_path(p, k).write_bytes(out)
    for p, k in workloads.VERIFY_GRID:
        names = [name for name, _fn, _repro in verify.all_checks(p, k)]
        workloads.golden_cells_path(p, k).write_text(json.dumps(names, indent=1) + "\n")


if __name__ == "__main__":
    main()
