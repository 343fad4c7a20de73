"""Spans and counters around the public functions of every crystalk module.

`install` rebinds each public module-level function of the library (and a
few methods that are layer boundaries) to a wrapper that opens a span on
entry and closes it on exit.  Names bound by `from ... import` in other
modules (such as `crystal.expr_evaluate`) are rebound too, so those calls
are not missed.  The library source is not touched; `uninstall` puts every
original back.

Spans live in memory as (name, start, end, parent) and are written out by
`Recorder.save` when the run ends.  Time spent in the recorder itself is
kept out of every span: all span times are read on a clock that stops
while the recorder does its own bookkeeping (entry statistics of large
matrices included), so self times describe the library and not the probe.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import weakref
from array import array
from collections import defaultdict
from math import comb
from time import perf_counter

import numpy as np

LAYERS = ("abelian", "exact_linalg", "repring", "zpmod", "crystal", "verify", "cli")

# methods that cross a layer boundary; other methods count toward the
# self time of the function that calls them
METHODS = {
    ("zpmod", "ZpModule"): ("power", "norm_matrix"),
    ("exact_linalg", "SaturatedBasisSolver"): ("__init__", "coefficient_matrix",
                                               "quotient_by"),
    ("abelian", "GroupExpression"): ("render",),
}

# exact_linalg entry points that row-reduce their matrix argument, with
# the position of that argument; their inputs feed the size counters
REDUCTIONS = {
    "exact_linalg.rational_rank": 0,
    "exact_linalg.kernel_basis": 0,
    "exact_linalg.column_lattice_basis": 0,
    "exact_linalg.cokernel_structure": 0,
    "exact_linalg.invariant_factors": 0,
    "exact_linalg.hermite_normal_form": 0,
    "exact_linalg.smith_normal_form": 0,
    "exact_linalg.determinant": 0,
    "exact_linalg.solve_integer": 0,
    "exact_linalg.SaturatedBasisSolver.__init__": 1,
    "exact_linalg.SaturatedBasisSolver.coefficient_matrix": 1,
}

# verify cell name prefix -> suite
SUITES = {
    "exact-linalg": "exact_linalg", "repring": "repring",
    "r-oracle": "r_oracle", "structure": "structure", "tate": "tate",
    "crystal": "crystal", "brute-force": "brute_force",
}


class Recorder:
    """In-memory spans, per-name self/inclusive totals and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []   # [span index, start, child time]
        self.lost = 0.0                # seconds spent in the recorder
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.max_entry_bits = 0
        self._tate_seen = weakref.WeakKeyDictionary()

    def open(self, name: str, start: float) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._stack.append([idx, start, 0.0])
        self.calls[name] += 1

    def close(self, end: float) -> None:
        idx, start, child = self._stack.pop()
        dur = end - start
        name = self.names[self.span_name[idx]]
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        self.span_end[idx] = end
        if self._stack:
            self._stack[-1][2] += dur

    # probes: counters measured where the work happens

    def matrix_input(self, M) -> None:
        a = M if isinstance(M, np.ndarray) else np.array(M, dtype=object)
        if a.ndim != 2:
            return
        self.counts["exact_linalg.calls"] += 1
        self.counts["exact_linalg.cells"] += a.shape[0] * a.shape[1]
        if a.size:
            bits = int(max(a.max(), -a.min())).bit_length()
            self.max_entry_bits = max(self.max_entry_bits, bits)
            self.counts["exact_linalg.bit_cells"] += bits * a.shape[0] * a.shape[1]

    def tate_call(self, module, i: int) -> None:
        self.counts["zpmod.tate_calls"] += 1
        seen = self._tate_seen.setdefault(module, set())
        if i % 2 in seen:
            self.counts["zpmod.tate_hits"] += 1
        seen.add(i % 2)

    def save(self, path, **facts) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.span_name),
            start=np.asarray(self.span_start), end=np.asarray(self.span_end),
            parent=np.asarray(self.span_parent),
            facts=np.array(repr(facts)))


def _probe(rec: Recorder, name: str):
    """Counter probe for the span `name`, or None."""
    if name in REDUCTIONS:
        pos = REDUCTIONS[name]
        def reduction(args, kwargs):
            if len(args) > pos:
                rec.matrix_input(args[pos])
        return reduction
    if name == "zpmod.compound_matrix":
        def compound(args, kwargs):
            rec.counts["zpmod.compound_entries"] += comb(len(args[0]), args[1]) ** 2
        return compound
    if name == "zpmod.tate":
        return lambda args, kwargs: rec.tate_call(args[0], args[1])
    return None


def _wrap(rec: Recorder, name: str, fn):
    probe = _probe(rec, name)
    if name == "verify._cell":
        # one span name per suite; cells are named "<suite prefix>: ..."
        def span_name(args):
            return "verify.cell." + SUITES[args[0].split(":", 1)[0]]
    else:
        def span_name(args):
            return name

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        t0 = perf_counter()
        if probe is not None:
            probe(args, kwargs)
        rec.open(span_name(args), t0 - rec.lost)
        rec.lost += perf_counter() - t0
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            rec.close(t1 - rec.lost)
            rec.lost += perf_counter() - t1
    return traced


def _library_modules(package) -> dict[str, object]:
    mods = {"": package}
    for layer in LAYERS:
        mods[layer] = importlib.import_module(f"{package.__name__}.{layer}")
    return mods


def install(rec: Recorder, package) -> list[tuple[object, str, object]]:
    """Wrap the library in place; returns the bindings `uninstall` restores."""
    mods = _library_modules(package)
    wrapped: dict[object, object] = {}
    for layer in LAYERS:
        mod = mods[layer]
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and (not attr.startswith("_") or
                         (layer, attr) == ("verify", "_cell"))):
                wrapped[fn] = _wrap(rec, f"{layer}.{attr}", fn)
    saved = []
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                saved.append((mod, attr, val))
                setattr(mod, attr, wrapped[val])
    for (layer, cls_name), methods in METHODS.items():
        cls = getattr(mods[layer], cls_name)
        for meth in methods:
            fn = vars(cls)[meth]
            saved.append((cls, meth, fn))
            setattr(cls, meth, _wrap(rec, f"{layer}.{cls_name}.{meth}", fn))
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
