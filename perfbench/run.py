"""crystalk benchmark: one workload in this process, as a closed loop.

    python3 perfbench/run.py --workload report-sweep --seed 1 --seconds 25 --trace 0

A single caller runs the workload's items serially, with no threads, one
pass after another while the next pass is expected to end within
--seconds; there is always at least one pass.  Every output is checked after its
pass, outside the timed region.  The library is imported from src/ of the
checkout this file sits in; without it the run fails before any result.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       median time of one pass, from import-done to the last result
  setup_s      median time for a fresh interpreter to `import crystalk`
  peak_rss_mb  max RSS of this process (getrusage)
--trace 1 spends the first half of --seconds on untraced passes and the
second half on passes traced by tracer.py, and reports the per-layer
metrics: self times and counts per pass, plus trace.overhead_ratio
(traced / untraced median pass time - 1).

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  The lines before it give the machine facts and a
summary with failed_ratio; perfbench/out/ keeps the full result, and the
spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "load1": os.getloadavg()[0]}


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running `import crystalk`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import crystalk"], env=env,
                       cwd=ROOT, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_pass(items) -> tuple[float, float, list[str]]:
    """Time one pass over the items (wall, CPU), then check every output."""
    outputs = []
    t0, c0 = perf_counter(), process_time()
    for item in items:
        try:
            outputs.append((item, item.run(), None))
        except Exception as exc:  # noqa: BLE001 - a failed item is counted
            outputs.append((item, None, f"{type(exc).__name__}: {exc}"))
    wall, cpu = perf_counter() - t0, process_time() - c0
    errors = []
    for item, out, err in outputs:
        if err is None:
            try:
                err = item.check(out)
            except Exception as exc:  # noqa: BLE001 - an unreadable output fails
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            errors.append(f"{item.label}: {err}")
    return wall, cpu, errors


def run_for(make_items, seconds: float):
    """Passes until the next one would end after `seconds`; at least one.

    Pass i runs the items `make_items(i)`.  Returns the pass wall times,
    the pass CPU times, the error texts and the number of items attempted.
    """
    walls: list[float] = []
    cpus: list[float] = []
    errors: list[str] = []
    attempted = 0
    start = perf_counter()
    while True:
        items = make_items(len(walls))
        wall, cpu, errs = run_pass(items)
        walls.append(wall)
        cpus.append(cpu)
        errors += errs
        attempted += len(items)
        if perf_counter() - start + statistics.median(walls) > seconds:
            return walls, cpus, errors, attempted


def layer_values(rec, passes: int, overhead: float) -> dict:
    """Per-layer metrics per traced pass, from the recorder's totals."""
    def layer_self(layer):
        return sum(v for n, v in rec.self_s.items() if n.startswith(layer + "."))

    def calls(prefix):
        return sum(v for n, v in rec.calls.items() if n.startswith(prefix))

    per_pass = {
        "repring.closed_forms_s": layer_self("repring"),
        "repring.calls": calls("repring."),
        "crystal.self_s": layer_self("crystal"),
        "crystal.validate_s": rec.self_s["crystal.validate_gamma"],
        "crystal.validate_calls": rec.calls["crystal.validate_gamma"],
        "crystal.assembly_s": rec.incl_s["crystal.brute_force_cohomology_bgamma"],
        "crystal.report_s": rec.self_s["crystal.build_report"],
        "exact_linalg.self_s": layer_self("exact_linalg"),
        "exact_linalg.calls": rec.counts["exact_linalg.calls"],
        "exact_linalg.cells": rec.counts["exact_linalg.cells"],
        "zpmod.self_s": layer_self("zpmod"),
        "zpmod.power_s": rec.self_s["zpmod.ZpModule.power"],
        "zpmod.norm_s": rec.self_s["zpmod.ZpModule.norm_matrix"],
        "zpmod.compound_s": rec.self_s["zpmod.compound_matrix"],
        "zpmod.compound_entries": rec.counts["zpmod.compound_entries"],
        "zpmod.functor_s": sum(rec.self_s[f"zpmod.{f}"] for f in
                               ("fixed_rank", "coinvariants", "tate", "invariants")),
        "zpmod.tate_calls": rec.counts["zpmod.tate_calls"],
        "verify.cells": calls("verify.cell."),
        "abelian.self_s": layer_self("abelian"),
        "cli.render_s": rec.self_s["cli.render_report_json"],
    }
    for suite in tracer.SUITES.values():
        per_pass[f"verify.cell_s.{suite}"] = rec.incl_s[f"verify.cell.{suite}"]
    out = {name: value / passes for name, value in per_pass.items()}
    tate_calls = rec.counts["zpmod.tate_calls"]
    out["zpmod.tate_hit_ratio"] = rec.counts["zpmod.tate_hits"] / tate_calls if tate_calls else 0.0
    out["exact_linalg.max_entry_bits"] = rec.max_entry_bits
    cells = rec.counts["exact_linalg.cells"]
    out["exact_linalg.mean_entry_bits"] = rec.counts["exact_linalg.bit_cells"] / cells if cells else 0.0
    out["trace.overhead_ratio"] = overhead
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "crystalk" / "__init__.py").is_file():
        sys.exit(f"perfbench: no crystalk sources under {SRC}")
    facts = machine_facts()
    sys.path.insert(0, str(SRC))
    import crystalk
    import workloads
    if not Path(crystalk.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: crystalk imported from {crystalk.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    setup_s = None if args.trace else measure_setup()
    workload = workloads.WORKLOADS[args.workload]

    def make_items(index):
        return workload(args.seed, index)

    if args.trace:
        base_walls, _, errors, attempted = run_for(make_items, args.seconds / 2)
        rec = tracer.Recorder()
        saved = tracer.install(rec, crystalk)
        try:
            # the traced passes repeat the untraced passes' inputs
            walls, cpus, traced_errors, traced = run_for(make_items, args.seconds / 2)
        finally:
            tracer.uninstall(saved)
        errors += traced_errors
        attempted += traced
        overhead = statistics.median(walls) / statistics.median(base_walls) - 1
        values = layer_values(rec, len(walls), overhead)
        metric_spec = spec["per_layer"]
        passes = len(base_walls) + len(walls)
        walls = {"untraced": base_walls, "traced": walls}
    else:
        walls, cpus, errors, attempted = run_for(make_items, args.seconds)
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metric_spec = spec["end_to_end"]
        passes = len(walls)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_spec}
    result = {"correct": not errors, "attempted": attempted,
              "failed": len(errors), "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "machine": facts, "pass_walls": walls, "pass_cpus": cpus, "errors": errors,
         "result": result}, indent=1) + "\n")
    if args.trace:
        rec.save(stem.with_suffix(".spans.npz"), workload=args.workload,
                 seed=args.seed, machine=facts)

    for err in errors:
        print(f"FAILED {err}", file=sys.stderr)
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"{args.workload} seed={args.seed}: {passes} passes, "
          f"failed_ratio={len(errors) / attempted:.6g} ({len(errors)}/{attempted}); "
          + ", ".join(f"{n}={m['value']:.6g} {m['unit']}" for n, m in metrics.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
