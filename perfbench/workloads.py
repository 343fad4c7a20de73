"""The benchmark workloads: inputs made from the seed, items, output checks.

A workload makes the items of each pass from the seed and the pass index,
so every pass draws fresh inputs from the seeded stream and a run samples
several input sets.  An item runs the library on inputs made beforehand
and returns the output; its check compares that output with a reference
and returns an error text, or None.

- verify-grid: `verify.run_all` on canonical (3,6), (2,10), (5,2) and
  (7,1), with a grid seed drawn from the benchmark seed.  Oracle-bound:
  exterior powers, norm matrices and integer row reduction on entries with
  |x| <= 2; the rank-12 (3,6) grid sets the peak RSS.
- report-sweep: canonical reports over a (p, k) grid that reaches large p.
  No exterior power is built, so the closed forms (repring) and the
  validation of the action dominate.  The seed only orders the items.
- report-conjugated: reports for seeded unimodular conjugates of small
  canonical actions.  The input is not canonical, so the report runs its
  spectral-assembly cross-check on dual exterior powers whose entries are
  far from |x| <= 2.  The cost of one conjugate is heavy-tailed in its
  basis (row reduction is sensitive to pivot order), so a pass holds many
  conjugates, made with few elementary steps, to keep its total steady.
  (2, k) is left out: conjugating -I gives -I back.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from crystalk import cli, crystal, verify

GOLDEN = Path(__file__).resolve().parent / "golden"

VERIFY_GRID = ((3, 6), (2, 10), (5, 2), (7, 1))
REPORT_SWEEP = ((31, 1), (43, 1), (61, 1), (13, 3), (5, 4), (3, 8), (2, 12))
# (p, k, conjugates per pass)
CONJUGATED = ((5, 2, 10), (3, 4, 10), (3, 3, 30), (7, 1, 30), (3, 2, 20),
              (5, 1, 20))


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def golden_report_path(p: int, k: int) -> Path:
    return GOLDEN / f"report-{p}-{k}.json"


def golden_cells_path(p: int, k: int) -> Path:
    return GOLDEN / f"verify-{p}-{k}.json"


@functools.cache
def _golden_bytes(path: Path) -> bytes:
    return path.read_bytes()


def _report_json(G) -> str:
    return cli.render_report_json(crystal.build_report(G))


def verify_grid(seed: int, index: int, shapes=VERIFY_GRID) -> list[Item]:
    grid_seed = random.Random(f"{seed}:{index}:verify").getrandbits(32)
    items = []
    for p, k in shapes:
        names = json.loads(_golden_bytes(golden_cells_path(p, k)))

        def check(results, names=names):
            failed = [r.name for r in results if not r.ok]
            if failed:
                return f"failed cells: {failed}"
            if [r.name for r in results] != names:
                return "cell names differ from the golden list"
            return None
        items.append(Item(f"verify({p},{k})",
                          lambda p=p, k=k: verify.run_all(p, k, seed=grid_seed),
                          check))
    return items


def report_sweep(seed: int, index: int, shapes=REPORT_SWEEP) -> list[Item]:
    items = []
    for p, k in shapes:
        expect = _golden_bytes(golden_report_path(p, k))

        def check(text, expect=expect):
            # the CLI writes the rendered report plus one newline
            if (text + "\n").encode() != expect:
                return "report --format json bytes differ from the golden file"
            return None
        items.append(Item(f"report({p},{k})",
                          lambda p=p, k=k: _report_json(crystal.canonical_gamma(p, k)),
                          check))
    random.Random(f"{seed}:{index}:sweep").shuffle(items)
    return items


def _matmul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def unimodular_pair(rng: random.Random, n: int, steps: int):
    """A random unimodular g and its inverse, from `steps` elementary moves."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    g_inv = [row[:] for row in g]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]   # g <- E g
        for row in g_inv:                                  # g_inv <- g_inv E^-1
            row[j] -= c * row[i]
    return g, g_inv


def conjugates(rng: random.Random, p: int, k: int, count: int) -> list[list[list[int]]]:
    """`count` random conjugates g rho g^-1 of the canonical (p, k) action."""
    rho = json.loads(_golden_bytes(golden_report_path(p, k)))["descriptor"]["rho"]
    n = len(rho)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    out = []
    while len(out) < count:
        g, g_inv = unimodular_pair(rng, n, max(2, n // 2))
        if _matmul(g, g_inv) != ident:
            raise ArithmeticError("unimodular pair is not inverse")
        conj = _matmul(_matmul(g, rho), g_inv)
        if conj != rho:
            out.append(conj)
    return out


def report_conjugated(seed: int, index: int, shapes=CONJUGATED) -> list[Item]:
    rng = random.Random(f"{seed}:{index}:conjugates")
    items = []
    for p, k, count in shapes:
        ref = json.loads(_golden_bytes(golden_report_path(p, k)))
        for number, rows in enumerate(conjugates(rng, p, k, count)):
            def check(text, p=p, k=k, rows=rows, ref=ref):
                got = json.loads(text)
                d = got["descriptor"]
                if (d["p"], d["k"], d["canonical"], d["rho"]) != (p, k, False, rows):
                    return "descriptor does not describe the supplied action"
                for key in ("scalars", "groups", "warnings"):
                    if got[key] != ref[key]:
                        return f"{key} differ from the canonical ({p},{k}) report"
                return None
            items.append(Item(f"conjugate({p},{k})#{number}",
                              lambda p=p, rows=rows: _report_json(crystal.validate_gamma(p, rows)),
                              check))
    rng.shuffle(items)
    return items


WORKLOADS = {
    "verify-grid": verify_grid,
    "report-sweep": report_sweep,
    "report-conjugated": report_conjugated,
}
