"""The benchmark tracer wraps library methods by name; a renamed or deleted
method breaks every traced run, so the names are checked here."""

import importlib
import importlib.util
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
