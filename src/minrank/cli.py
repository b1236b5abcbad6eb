"""Command-line front end: classification runs, pair verification, graph
export, and polynomial reports, with stable machine-readable output.

Exit codes: 0 success, 1 verification failures present, 2 usage error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .folding import (
    SelectorError,
    classification_to_json,
    classify,
    pair_to_json,
    resolve_pair,
)
from .orbits import (
    build_graph,
    graph_to_dot,
    graph_to_json,
    poincare_triple,
    report_to_json,
    verify_pair,
)
from .weyl import DEFAULT_BUDGET, BudgetExceededError


class UsageError(Exception):
    """Invalid configuration or an unusable pair."""


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _lines(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _valid_pair(selector: str, budget: int):
    report = resolve_pair(selector, budget)
    if not report.ok:
        raise UsageError(
            f"selector {selector!r} fails validation at check "
            f"{report.failed_check} ({report.tag})"
        )
    return report.pair


def _sigma_text(pair) -> str:
    vertices = pair.g_diagram.vertices
    cycles = pair.sigma.two_cycles
    if not cycles:
        return "id"
    return " ".join(f"({vertices[i]} {vertices[j]})" for i, j in cycles)


def run_classify(ns: argparse.Namespace, budget: int) -> tuple[int, str]:
    try:
        pairs = classify(ns.max_rank, budget=budget)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if ns.format == "json":
        return 0, _json(classification_to_json(pairs))
    return 0, _lines([
        f"{p.g_diagram.type_label}  sigma={_sigma_text(p)}  ->  "
        f"{p.h_colored.diagram.type_label}  "
        f"black={{{','.join(p.h_colored.black) or ''}}}  family={p.family}"
        for p in pairs
    ])


def run_verify(ns: argparse.Namespace, budget: int) -> tuple[int, str]:
    report = resolve_pair(ns.pair, budget)
    if not report.ok:
        if ns.format == "json":
            return 1, _json({
                "selector": ns.pair,
                "ok": False,
                "validation": {"failed_check": report.failed_check, "tag": report.tag},
            })
        return 1, (
            f"candidate rejected at check {report.failed_check} ({report.tag})\n"
        )
    result = verify_pair(report.pair, budget=budget)
    code = 0 if result.ok else 1
    if ns.format == "json":
        return code, _json(report_to_json(result))
    witnesses = {name: ", ".join(map(str, w)) for name, w in result.witnesses}
    return code, _lines([
        f"pair {result.pair.g_diagram.type_label} -> "
        f"{result.pair.h_colored.diagram.type_label}: "
        f"{result.orbit_count} orbits, Q={list(result.q)}"
    ] + [
        f"  {name}: {'pass' if passed else 'FAIL'}"
        + (f" (witness {witnesses[name]})" if name in witnesses else "")
        for name, passed in result.checks
    ])


def run_graph(ns: argparse.Namespace, budget: int) -> tuple[int, str]:
    pair = _valid_pair(ns.pair, budget)
    graph = build_graph(pair, budget=budget)
    if ns.format == "json":
        return 0, _json(graph_to_json(graph))
    if ns.format == "dot":
        return 0, graph_to_dot(graph)
    names = pair.g_diagram.vertices
    return 0, _lines([
        f"{len(graph.vertices)} vertices, {len(graph.edges)} edges, "
        f"dims {graph.d_h}..{graph.d_g}"
    ] + [
        f"  c{lo}/d{graph.vertices[lo].dim} -> c{hi}/d{graph.vertices[hi].dim}"
        f"  [{names[j]}]"
        for lo, hi, j in graph.edges
    ])


def run_poincare(ns: argparse.Namespace, budget: int) -> tuple[int, str]:
    pair = _valid_pair(ns.pair, budget)
    p_g, p_h, q, identity_ok = poincare_triple(pair, budget=budget)
    code = 0 if identity_ok else 1
    if ns.format == "json":
        return code, _json({
            "pair": pair_to_json(pair),
            "P_G": list(p_g),
            "P_H": list(p_h),
            "Q": list(q),
            "factorization_ok": identity_ok,
        })
    return code, (
        f"P_G = {list(p_g)}\nP_H = {list(p_h)}\nQ   = {list(q)}\n"
        f"Q * P_H == P_G: {identity_ok}\n"
    )


_RUNNERS = {
    "classify": run_classify,
    "verify": run_verify,
    "graph": run_graph,
    "poincare": run_poincare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minrank",
        description="Classify Dynkin foldings of minimal rank and explore "
        "their orbit graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_pair: bool) -> None:
        p.add_argument(
            "--format",
            choices=("json", "dot", "text"),
            default="json",
            help="output format (default json)",
        )
        p.add_argument("--out", metavar="PATH", help="write output to PATH")
        p.add_argument(
            "--budget",
            type=int,
            default=None,
            metavar="N",
            help="Weyl group element budget, at least 1: exit 3 when W(g) or "
            "W(h) has more than N elements, or a coset table defines more "
            "than N rows (default from MINRANK_BUDGET "
            f"or {DEFAULT_BUDGET})",
        )
        if with_pair:
            p.add_argument(
                "--pair",
                required=True,
                metavar="SELECTOR",
                help="family key like A3_C2, identity:TYPE, diag:TYPE, "
                "or explicit candidate JSON",
            )

    p = sub.add_parser("classify", help="emit the classification up to a rank")
    p.add_argument("--max-rank", type=int, required=True, metavar="N")
    add_common(p, with_pair=False)
    for name, text in (
        ("verify", "run every structural check on one pair"),
        ("graph", "export the orbit graph of one pair"),
        ("poincare", "emit (P_G, P_H, Q) for one pair"),
    ):
        p = sub.add_parser(name, help=text)
        add_common(p, with_pair=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        budget, source = ns.budget, "--budget"
        if budget is None:
            raw = os.environ.get("MINRANK_BUDGET")
            budget, source = DEFAULT_BUDGET, "MINRANK_BUDGET"
            if raw is not None:
                try:
                    budget = int(raw)
                except ValueError as exc:
                    raise UsageError(
                        f"MINRANK_BUDGET must be an integer, got {raw!r}"
                    ) from exc
        if budget < 1:
            raise UsageError(f"{source} must be at least 1, got {budget}")
        if ns.format == "dot" and ns.command != "graph":
            raise UsageError("dot output is only available for the graph command")
        code, text = _RUNNERS[ns.command](ns, budget)
        _emit(text, ns.out)
        return code
    except (UsageError, SelectorError) as exc:
        print(f"minrank: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"minrank: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
