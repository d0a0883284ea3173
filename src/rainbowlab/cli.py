"""Command-line interface.

Subcommands: gen, rb, ext, check, construct, verify, monotonicity.
Exit codes: 0 success, 1 precondition or parse error, 2 budget refusal,
3 unacknowledged discrepancy (verify, monotonicity), 4 failed certification
(construct).  Each subcommand accepts only the flags it reads; an unknown flag
is a parse error.  RAINBOWLAB_WORKERS sets the default --workers of verify and
monotonicity, the only subcommands that take it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from .colorings import format_coloring, load_coloring
from .constructions import (
    extremal_coloring_cycle_tight,
    extremal_coloring_path_simple,
    extremal_coloring_path_tight,
    extremal_coloring_regular,
)
from .errors import BudgetExceededError
from .extremal import (
    DEFAULT_EDGE_BUDGET,
    ext_exact,
    rb_exact,
    rb_formula_complete_bipartite,
    rb_formula_cycle,
    rb_formula_path,
    rb_formula_regular,
)
from .graphs import (
    format_graph,
    load_graph,
    make_circulant_regular_bipartite,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_random_regular_bipartite,
)
from .rainbow import find_rainbow_matching
from .verify import (
    THEOREM_IDS,
    apply_allowlist,
    has_blocking_discrepancy,
    load_allowlist,
    monotonicity_records,
    summarize,
    summary_line,
    verify_theorem,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_DISCREPANCY = 3
EXIT_CERTIFICATION = 4

GEN_FAMILIES = ("path", "cycle", "complete_bipartite", "circulant", "random_regular")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; this CLI reserves 2
    # for budget refusals, so parse errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


def _default_workers() -> int:
    raw = os.environ.get("RAINBOWLAB_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


_SWEEP_FLAGS = ("--format", "--out", "--workers", "--seed", "--budget-edges", "--timeout-ms",
                "--allowlist")


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    specs = {
        "--format": dict(choices=("table", "json", "csv"), default="table"),
        "--out": dict(type=Path, default=None, metavar="FILE"),
        "--workers": dict(type=int, default=_default_workers(), metavar="N"),
        "--seed": dict(type=int, default=0, metavar="S"),
        "--budget-edges": dict(type=int, default=DEFAULT_EDGE_BUDGET, metavar="N"),
        "--timeout-ms": dict(type=float, default=None, metavar="MS"),
        "--allowlist": dict(type=Path, default=None, metavar="FILE"),
    }
    for name in names:
        parser.add_argument(name, **specs[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="rainbowlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a graph file for one of the built-in families")
    p.add_argument("family", choices=GEN_FAMILIES)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int, nargs="?", default=None)
    _add_flags(p, "--out", "--seed")

    p = sub.add_parser("rb", help="exact rainbow number of m-matchings in a graph file")
    p.add_argument("graph", type=Path)
    p.add_argument("m", type=int)
    _add_flags(p, "--format", "--out", "--budget-edges", "--timeout-ms")

    p = sub.add_parser("ext", help="largest m-matching-free edge count in a graph file")
    p.add_argument("graph", type=Path)
    p.add_argument("m", type=int)
    _add_flags(p, "--format", "--out")

    p = sub.add_parser("check", help="search a colored graph for a rainbow m-matching")
    p.add_argument("graph", type=Path)
    p.add_argument("coloring", type=Path)
    p.add_argument("m", type=int)

    p = sub.add_parser("construct", help="emit and certify a rainbow-free coloring")
    p.add_argument("kind", choices=("regular", "path_simple", "path_tight", "cycle_tight"))
    p.add_argument("params", nargs="+",
                   help="regular: GRAPH_FILE M; others: N M")
    _add_flags(p, "--format", "--out")

    p = sub.add_parser("verify", help="sweep one claim id against the exhaustive oracle")
    p.add_argument("theorem", choices=THEOREM_IDS)
    p.add_argument("--n", type=_parse_range, default=None, metavar="A..B")
    p.add_argument("--k", type=_parse_range, default=None, metavar="A..B")
    p.add_argument("--m", type=_parse_range, default=None, metavar="A..B")
    p.add_argument("--samples", type=int, default=5)
    _add_flags(p, *_SWEEP_FLAGS)

    p = sub.add_parser("monotonicity",
                       help="check that identifying vertices never lowers the rainbow number")
    p.add_argument("--n", type=_parse_range, default=None, metavar="A..B")
    p.add_argument("--m", type=_parse_range, default=None, metavar="A..B")
    p.add_argument("--samples", type=int, default=5)
    _add_flags(p, *_SWEEP_FLAGS)

    return parser


# --- output helpers -----------------------------------------------------------


def _emit(rows: list[dict], columns: list[str], fmt: str, out: Path | None) -> None:
    if fmt == "table":
        text = _format_table(rows, columns)
    elif fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _plain(row.get(key)) for key in columns})
        text = buf.getvalue()
    if out is not None:
        out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _plain(value):
    if isinstance(value, (list, tuple)):
        return "..".join("" if v is None else str(v) for v in value)
    return value


def _format_table(rows: list[dict], columns: list[str]) -> str:
    if not rows:
        return "(no records)\n"
    cells = [[_cell(row.get(col)) for col in columns] for row in rows]
    widths = [max(len(col), *(len(row[i]) for row in cells)) for i, col in enumerate(columns)]
    lines = ["  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))]
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join("-" if v is None else str(v) for v in value) + "]"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


# --- graph file metadata --------------------------------------------------------


def _write_text(path: Path | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def _read_metadata(path: Path) -> dict:
    meta: dict = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line.startswith("# rainbowlab"):
            continue
        for token in line.removeprefix("# rainbowlab").split():
            if "=" in token:
                key, value = token.split("=", 1)
                meta[key] = value
    return meta


# --- subcommands ----------------------------------------------------------------


def _cmd_gen(args) -> int:
    family, n, k = args.family, args.n, args.k
    if family in ("circulant", "random_regular"):
        if k is None:
            raise ValueError(f"family {family!r} needs both n and k")
    elif k is not None:
        raise ValueError(f"family {family!r} takes only n")
    if family == "path":
        g = make_path(n)
    elif family == "cycle":
        g = make_cycle(n)
    elif family == "complete_bipartite":
        g = make_complete_bipartite(n)
    elif family == "circulant":
        g = make_circulant_regular_bipartite(n, k)
    else:
        g = make_random_regular_bipartite(n, k, args.seed)
    comment = f"rainbowlab family={family} n={n}"
    if k is not None:
        comment += f" k={k}"
    if family == "random_regular":
        comment += f" seed={args.seed}"
    _write_text(args.out, format_graph(g, comment=comment))
    return EXIT_OK


def _formula_for(meta: dict, edge_count: int, m: int):
    """(formula_value, formula_source) for a known family, else (None, None)."""
    family = meta.get("family")
    try:
        if family == "path":
            return rb_formula_path(edge_count, m), "path_two_branch"
        if family == "cycle":
            value = rb_formula_cycle(edge_count, m)
            source = "cycle_two_branch (disputed cell)" if value.disputed else "cycle_two_branch"
            return value.value, source
        if family == "complete_bipartite":
            return rb_formula_complete_bipartite(int(meta["n"]), m), "complete_bipartite"
        if family in ("circulant", "random_regular"):
            value = rb_formula_regular(int(meta["n"]), int(meta["k"]), m)
            if value is not None:
                return value, "regular_exact"
    except (ValueError, KeyError):
        pass
    return None, None


def _cmd_rb(args) -> int:
    g = load_graph(args.graph)
    meta = _read_metadata(args.graph)
    result = rb_exact(g, args.m, edge_budget=args.budget_edges, timeout_ms=args.timeout_ms)
    formula_value, formula_source = _formula_for(meta, g.edge_count, args.m)
    record = {
        "graph_id": args.graph.name,
        "family": meta.get("family", "unknown"),
        "n": int(meta["n"]) if "n" in meta else g.vertex_count,
        "k": int(meta["k"]) if "k" in meta else None,
        "m": args.m,
        "f_value": result.f_value,
        "rb_value": result.rb_value,
        "formula_value": formula_value,
        "formula_source": formula_source,
        "agrees": (result.rb_value == formula_value) if formula_value is not None else None,
        "colorings_examined": result.colorings_examined,
        "elapsed_ms": result.elapsed_ms,
    }
    columns = list(record.keys())
    _emit([record], columns, args.format, args.out)
    return EXIT_OK


def _cmd_ext(args) -> int:
    g = load_graph(args.graph)
    meta = _read_metadata(args.graph)
    result = ext_exact(g, args.m)
    record = {
        "graph_id": args.graph.name,
        "family": meta.get("family", "unknown"),
        "m": args.m,
        "value": result.value,
        "method": result.method,
        "witness_edges": sorted(result.witness_edges),
    }
    _emit([record], list(record.keys()), args.format, args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    g = load_graph(args.graph)
    coloring = load_coloring(args.coloring)
    witness = find_rainbow_matching(g, coloring, args.m)
    if witness is None:
        print("none")
    else:
        edges = ",".join(f"e{i}" for i in witness.edges)
        colors = ",".join(str(c) for c in witness.colors)
        print(f"witness edges={edges} colors={colors}")
    return EXIT_OK


def _cmd_construct(args) -> int:
    kind = args.kind
    if kind == "regular":
        if len(args.params) != 2:
            raise ValueError("construct regular takes GRAPH_FILE M")
        g = load_graph(Path(args.params[0]))
        m = int(args.params[1])
        report = extremal_coloring_regular(g, m)
        label = f"{kind} graph={Path(args.params[0]).name} m={m}"
    else:
        if len(args.params) != 2:
            raise ValueError(f"construct {kind} takes N M")
        n, m = int(args.params[0]), int(args.params[1])
        builder = {
            "path_simple": extremal_coloring_path_simple,
            "path_tight": extremal_coloring_path_tight,
            "cycle_tight": extremal_coloring_cycle_tight,
        }[kind]
        report = builder(n, m)
        label = f"{kind} n={n} m={m}"
    record = {
        "construction": label,
        "colors_used": report.colors_used,
        "rainbow_free_certified": report.rainbow_free_certified,
        "pattern": report.pattern,
    }
    _emit([record], list(record.keys()), args.format, None)
    if args.out is not None:
        args.out.write_text(
            format_coloring(report.coloring, comment=f"rainbowlab construction {label}"),
            encoding="utf-8",
        )
    return EXIT_OK if report.rainbow_free_certified else EXIT_CERTIFICATION


RECORD_COLUMNS = ["theorem_id", "family", "n", "k", "m", "seed", "oracle_value",
                  "claimed", "status", "acknowledged", "elapsed_ms", "note"]


def _finish_records(records, args) -> int:
    if args.allowlist is not None:
        apply_allowlist(records, load_allowlist(args.allowlist))
    rows = [r.to_dict() for r in records]
    _emit(rows, RECORD_COLUMNS, args.format, args.out)
    counts = summarize(records)
    print(summary_line(counts), file=sys.stderr if args.out is None and args.format != "table" else sys.stdout)
    return EXIT_DISCREPANCY if has_blocking_discrepancy(records) else EXIT_OK


def _cmd_verify(args) -> int:
    records = verify_theorem(args.theorem, n_range=args.n, k_range=args.k,
                             m_range=args.m, samples=args.samples, seed=args.seed,
                             edge_budget=args.budget_edges, workers=args.workers,
                             timeout_ms=args.timeout_ms)
    return _finish_records(records, args)


def _cmd_monotonicity(args) -> int:
    records = monotonicity_records(n_range=args.n, m_range=args.m,
                                   samples=args.samples, seed=args.seed,
                                   edge_budget=args.budget_edges, workers=args.workers,
                                   timeout_ms=args.timeout_ms)
    return _finish_records(records, args)


_COMMANDS = {
    "gen": _cmd_gen,
    "rb": _cmd_rb,
    "ext": _cmd_ext,
    "check": _cmd_check,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "monotonicity": _cmd_monotonicity,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"rainbowlab: budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"rainbowlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
