"""The benchmark tracer wraps library methods by name; a renamed or deleted
method breaks every traced run, so the names are checked here."""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # read the source without leaving bytecode next to it
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = saved
    return tracer


def test_every_traced_method_exists():
    tracer = load_tracer()
    assert tracer.METHODS
    for (module, cls_name), names in tracer.METHODS.items():
        cls = getattr(importlib.import_module(f"crystalk.{module}"), cls_name)
        for name in names:
            assert name in vars(cls), f"{module}.{cls_name}.{name}"


# module-level functions that perfbench/run.py reads per-layer metrics of
# by name (crystal.assembly_s is the inclusive time of the assembly)
RUN_METRIC_FUNCTIONS = {
    "crystal": ("validate_gamma", "brute_force_cohomology_bgamma",
                "build_report"),
    "zpmod": ("compound_matrix", "fixed_rank", "coinvariants", "tate"),
    "cli": ("render_report_json",),
}


def test_every_function_the_bench_metrics_read_exists():
    # the tracer wraps exactly the public functions a module defines itself
    run_source = (TRACER.parent / "run.py").read_text()
    for module, names in RUN_METRIC_FUNCTIONS.items():
        mod = importlib.import_module(f"crystalk.{module}")
        for name in names:
            assert re.search(rf'"({module}\.)?{name}"', run_source), \
                f"{module}.{name} not read by run.py"
            fn = vars(mod).get(name)
            assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, \
                f"{module}.{name}"
