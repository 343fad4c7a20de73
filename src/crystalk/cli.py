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
from dataclasses import dataclass

from . import crystal, exact_linalg as la, repring, verify, zpmod
from .crystal import GammaDescriptor, GammaError


@dataclass
class CliConfig:
    command: str
    p: int | None = None
    k: int | None = None
    matrix_file: str | None = None
    degree_window: tuple[int, int] | None = None
    format: str = "text"


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


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    return CliConfig(
        command=args.command,
        p=args.p,
        k=args.k,
        matrix_file=args.matrix_file,
        degree_window=tuple(args.degree_window) if getattr(
            args, "degree_window", None) else None,
        format=args.format,
    )


def _load_descriptor(cfg: CliConfig) -> GammaDescriptor:
    if (cfg.k is None) == (cfg.matrix_file is None):
        raise GammaError("exactly one of --k and --matrix must be given")
    if cfg.matrix_file is not None:
        with open(cfg.matrix_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "p" not in data or "matrix" not in data:
            raise OSError(f"{cfg.matrix_file}: expected keys 'p' and 'matrix'")
        if not isinstance(data["p"], int):
            raise OSError(f"{cfg.matrix_file}: 'p' must be an integer")
        p = data["p"]
        if cfg.p is not None and cfg.p != p:
            raise GammaError(f"--p {cfg.p} disagrees with file value {p}")
        try:
            return crystal.validate_gamma(p, data["matrix"])
        except GammaError:
            raise
        except ValueError as exc:
            # malformed matrix payload (floats, ragged rows, wrong types)
            raise OSError(f"{cfg.matrix_file}: {exc}") from exc
    if cfg.p is None:
        raise GammaError("--p is required with --k")
    return crystal.canonical_gamma(cfg.p, cfg.k)


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def render_report_json(report: crystal.TheoremReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2)


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


def run_report(cfg: CliConfig) -> int:
    G = _load_descriptor(cfg)
    report = crystal.build_report(G, window=cfg.degree_window)
    if cfg.format == "json":
        _emit(render_report_json(report))
    else:
        _emit(render_report_text(report))
    return 0


def run_verify(cfg: CliConfig) -> int:
    if cfg.matrix_file is None and (cfg.p is None or cfg.k is None):
        raise GammaError("verify needs --p and --k (or --matrix)")
    G = _load_descriptor(cfg)
    p, k = G.p, G.k
    results = verify.run_all(p, k, gamma=G)
    passed = sum(1 for r in results if r.ok)
    if cfg.format == "json":
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
    r_closed = list(G.r())
    r_rank = [zpmod.fixed_rank(G.exterior(m)) for m in range(n + 1)]
    tate_table = {}
    for j in range(n + 1):
        mod = G.exterior(j)
        tate_table[str(j)] = {str(i): str(zpmod.tate(mod, i)) for i in (0, 1)}
    coker = la.invariant_factors(G.rho - la.eye(n))
    return {
        "descriptor": {"p": p, "n": n, "k": k, "canonical": G.canonical,
                       "rho": G.rho_rows()},
        "r_closed_form": r_closed,
        "r_fixed_rank_oracle": r_rank,
        "a": list(repring.a_vector(p, k)),
        "s": list(repring.s_vector(p, k)),
        "tate": tate_table,
        "coker_invariant_factors": [int(x) for x in coker],
    }


def run_oracle(cfg: CliConfig) -> int:
    G = _load_descriptor(cfg)
    payload = _oracle_payload(G)
    if cfg.format == "json":
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
    cfg = _config_from_args(args)
    try:
        if cfg.command == "report":
            return run_report(cfg)
        if cfg.command == "verify":
            return run_verify(cfg)
        return run_oracle(cfg)
    except GammaError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
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
