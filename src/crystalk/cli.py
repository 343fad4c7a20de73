"""Command-line frontend.

Three subcommands: `report` evaluates every theorem family for a group
given by (p, k) or an explicit action matrix; `verify` runs the
cross-validation grid; `oracle` dumps the raw combinatorial and
linear-algebra tables for inspection.  Reports go to stdout (text or
canonical JSON), diagnostics to stderr.

Exit codes: 0 success, 1 failed verification checks, 2 invalid group data
(the violated invariant is named), 3 input/output failure, 4 hard internal
error (with a minimal reproducer).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import compress
from json.encoder import encode_basestring_ascii

from . import crystal, verify, zpmod
from .crystal import GammaDescriptor, GammaError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystalk",
        description="Exact invariants of crystallographic groups Z^n x| Z/p.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_window=False):
        sp.add_argument("--p", type=int, help="prime order of the twist")
        sp.add_argument("--k", type=int,
                        help="number of rank-(p-1) blocks; n = k(p-1)")
        sp.add_argument("--matrix", dest="matrix_file", metavar="FILE",
                        help='JSON file {"p": <prime>, "matrix": [[...], ...]}')
        if with_window:
            sp.add_argument("--degree-window", nargs=2, type=int,
                            metavar=("LO", "HI"),
                            help="inclusive degree range for every family")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    common(sub.add_parser("report", help="full theorem report"),
           with_window=True)
    common(sub.add_parser("verify", help="run the cross-validation grid"))
    common(sub.add_parser("oracle", help="raw oracle tables"))
    return parser


def _load_descriptor(args: argparse.Namespace) -> GammaDescriptor:
    if (args.k is None) == (args.matrix_file is None):
        raise GammaError("exactly one of --k and --matrix must be given")
    if args.matrix_file is not None:
        try:
            with open(args.matrix_file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # not UTF-8, not JSON, an integer past the digit limit or
            # nesting past the recursion limit
            raise OSError(f"{args.matrix_file}: {exc}") from exc
        if not isinstance(data, dict) or "p" not in data or "matrix" not in data:
            raise OSError(f"{args.matrix_file}: expected keys 'p' and 'matrix'")
        if not isinstance(data["p"], int) or isinstance(data["p"], bool):
            raise OSError(f"{args.matrix_file}: 'p' must be an integer")
        p = data["p"]
        if args.p is not None and args.p != p:
            raise GammaError(f"--p {args.p} disagrees with file value {p}")
        try:
            return crystal.validate_gamma(p, data["matrix"])
        except GammaError:
            raise
        except ValueError as exc:
            # malformed matrix payload (floats, ragged rows, wrong types)
            raise OSError(f"{args.matrix_file}: {exc}") from exc
    if args.p is None:
        raise GammaError("--p is required with --k")
    return crystal.canonical_gamma(args.p, args.k)


def _emit(text: str) -> None:
    # in slices of a mebibyte, so a large report is never encoded whole
    # next to its text
    for start in range(0, len(text), 1 << 20):
        sys.stdout.write(text[start:start + (1 << 20)])
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _enclose(items: list[str], indent: int, brackets: str) -> str:
    """Laid-out items in `brackets` as json.dumps(indent=2) encloses them
    when the container starts `indent` spaces deep."""
    if not items:
        return brackets
    # one join over the items and separators, so a large document is
    # copied once here and not once per concatenation
    pad = "\n" + " " * (indent + 2)
    parts = ["," + pad] * (2 * len(items) + 1)
    parts[1::2] = items
    parts[0] = brackets[0] + pad
    parts[-1] = "\n" + " " * indent + brackets[1]
    return "".join(parts)


def _layout(value, indent: int) -> str:
    """`value` as json.dumps(value, indent=2) writes it when it starts
    `indent` spaces deep: dicts with str keys, lists, str, int, bool and
    None.  Anything else raises TypeError.  Each list item is laid out
    by its own call; rho goes through `_layout_rows` instead."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": "
                         + _layout(item, indent + 2))
        return _enclose(items, indent, "{}")
    if isinstance(value, list):
        return _enclose([_layout(item, indent + 2) for item in value],
                        indent, "[]")
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


def _layout_rows(rows: list[list[int]], indent: int) -> str:
    """`_layout(rows, indent)` for a list of rows of Python ints, such as
    a descriptor's rho, written from each row's nonzero entries.

    rho has n^2 entries but, for the canonical action, under 2 nonzero
    ones per row.  Its entries are not checked again here: they passed
    the checked reader `exact_linalg.intmat` or were built by the
    library.  Each row is written as its nonzero entries, each with the
    run of zeros before it as one string product."""
    sep = ",\n" + " " * (indent + 4)
    zeros = "0" + sep
    laid = []
    for row in rows:
        # an item is the run of zeros before a nonzero entry and the
        # entry, so _enclose's separators fall between entries; the zeros
        # after the last one are one more item
        items = []
        start = 0
        for j in compress(range(len(row)), row):
            items.append(zeros * (j - start) + int.__repr__(row[j]))
            start = j + 1
        if start < len(row):
            items.append(zeros * (len(row) - start - 1) + "0")
        laid.append(_enclose(items, indent + 2, "[]"))
    return _enclose(laid, indent, "[]")


def _groups_block(report: crystal.TheoremReport) -> str:
    """The laid-out value of the report's "groups" key, 2 spaces deep.

    A report whose groups are its shape's default-window families (in
    order, equal tables) gives the same block as every other such report
    of the shape, so that block is laid out once and kept in
    `crystal.shape(p, k)` next to the families.  Any other report, such as
    one built with a window or one whose groups were edited, is laid out
    afresh and stores nothing.
    """
    def layout():
        return _layout({name: {str(m): expr.render()
                               for m, expr in sorted(degrees.items())}
                        for name, degrees in report.groups.items()}, 2)
    G = report.descriptor
    sh = crystal.shape(G.p, G.k)
    families = sh._cache.get("families")
    # the report's tables hold the memo's own expressions, so == short-cuts
    # on identity
    if families is not None and list(report.groups.items()) == [
            (name, dict(table)) for name, table in families]:
        return sh._memo("groups json", layout)
    return layout()


def render_report_json(report: crystal.TheoremReport) -> str:
    """The bytes of json.dumps(report.to_json_dict(), indent=2), laid out
    here.  rho puts its n^2 entries one per line; it is written from each
    row's nonzero entries (`_layout_rows`).  The groups block of a
    default-window report is laid out once per shape (`_groups_block`)."""
    G = report.descriptor
    head = {"p": G.p, "n": G.n, "k": G.k, "canonical": G.canonical}
    # each laid-out value is prefixed with its key as a temporary, so no
    # copy of rho's text outlives the next one
    return _enclose(
        ['"descriptor": ' + _enclose(
            [f'"{key}": {_layout(value, 4)}' for key, value in head.items()]
            + ['"rho": ' + _layout_rows(G.rho, 4)], 2, "{}"),
         '"scalars": ' + _layout(report.scalars, 2),
         '"groups": ' + _groups_block(report),
         '"warnings": ' + _layout(report.warnings, 2)], 0, "{}")


def render_report_text(report: crystal.TheoremReport) -> str:
    G = report.descriptor
    lines = [f"Gamma: p={G.p} n={G.n} k={G.k} "
             f"canonical={'yes' if G.canonical else 'no'}"]
    lines.append("scalars: " + " ".join(
        f"{key}={value}" for key, value in report.scalars.items()))
    for name, degrees in report.groups.items():
        lines.append(f"{name}:")
        for m in sorted(degrees):
            lines.append(f"  {m}: {degrees[m].render()}")
    if report.warnings:
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in report.warnings)
    return "\n".join(lines)


def run_report(args: argparse.Namespace) -> int:
    G = _load_descriptor(args)
    window = tuple(args.degree_window) if args.degree_window else None
    report = crystal.build_report(G, window=window)
    if args.format == "json":
        _emit(render_report_json(report))
    else:
        _emit(render_report_text(report))
    return 0


def run_verify(args: argparse.Namespace) -> int:
    G = _load_descriptor(args)
    p, k = G.p, G.k
    results = verify.run_all(p, k, gamma=G)
    passed = sum(1 for r in results if r.ok)
    if args.format == "json":
        payload = {
            "p": p, "k": k,
            "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                       for r in results],
            "passed": passed,
            "failed": len(results) - passed,
        }
        _emit(json.dumps(payload, indent=2))
    else:
        lines = [f"[{'PASS' if r.ok else 'FAIL'}] {r.name}"
                 + (f"  -- {r.detail}" if r.detail else "")
                 for r in results]
        lines.append(f"summary: {passed} passed, {len(results) - passed} failed")
        _emit("\n".join(lines))
    return 0 if passed == len(results) else 1


def _oracle_payload(G: GammaDescriptor) -> dict:
    p, k, n = G.p, G.k, G.n
    mods = [G.exterior(j) for j in range(n + 1)]
    sh = crystal.shape(p, k)
    return {
        "descriptor": {"p": p, "n": n, "k": k, "canonical": G.canonical,
                       "rho": G.rho},
        "r_closed_form": list(G.r()),
        "r_fixed_rank_oracle": [zpmod.fixed_rank(mod) for mod in mods],
        "a": list(sh.a),
        "s": list(sh.s),
        "tate": {str(j): {str(i): str(zpmod.tate(mod, i)) for i in (0, 1)}
                 for j, mod in enumerate(mods)},
        # (Z/p)^k, or refused: its invariant factors are its summands
        "coker_invariant_factors": [
            s.p ** s.exponent
            for s in crystal.finite_subgroup_data(G).cokernel.summands
            for _ in range(s.multiplicity)],
    }


def run_oracle(args: argparse.Namespace) -> int:
    G = _load_descriptor(args)
    payload = _oracle_payload(G)
    if args.format == "json":
        _emit(json.dumps(payload, indent=2))
        return 0
    lines = [
        "descriptor: p=%d n=%d k=%d canonical=%s" % (
            G.p, G.n, G.k, "yes" if G.canonical else "no"),
        "r (closed form):  " + " ".join(map(str, payload["r_closed_form"])),
        "r (rank oracle):  " + " ".join(map(str, payload["r_fixed_rank_oracle"])),
        "a:                " + " ".join(map(str, payload["a"])),
        "s:                " + " ".join(map(str, payload["s"])),
        "coker invariant factors: "
        + (" ".join(map(str, payload["coker_invariant_factors"])) or "(none)"),
        "tate table (degree: even, odd):",
    ]
    for j, row in payload["tate"].items():
        lines.append(f"  wedge^{j}: {row['0']} , {row['1']}")
    _emit("\n".join(lines))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return run_report(args)
        if args.command == "verify":
            return run_verify(args)
        return run_oracle(args)
    except GammaError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input/output error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except verify.HardError as exc:
        print(f"internal error: {exc}\nreproducer: {exc.reproducer}",
              file=sys.stderr)
        return 4
    except (ArithmeticError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
