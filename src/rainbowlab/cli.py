"""Command-line interface.

Subcommands: gen, rb, ext, check, construct, verify, monotonicity (verify T3.2/C3.3).
Exit codes: 0 success, 1 precondition or parse error, 2 budget refusal,
3 unacknowledged discrepancy (verify, so monotonicity), 4 failed certification
(construct).  Each subcommand accepts only the flags it reads; an unknown flag
is a parse error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from .colorings import load_coloring, save_coloring
from .constructions import (
    extremal_coloring_cycle_tight,
    extremal_coloring_path_simple,
    extremal_coloring_path_tight,
    extremal_coloring_regular,
)
from .errors import BudgetExceededError
from .extremal import (
    DEFAULT_EDGE_BUDGET,
    DISPUTED_FORMULA_CELLS,
    ext_exact,
    rb_exact,
    rb_formula,
)
from .graphs import (
    FAMILIES,
    Graph,
    _ints,
    _read_line_file,
    format_graph,
    load_graph,
    make_family,
    parse_graph,
)
from .rainbow import find_rainbow_matching
from .verify import (
    THEOREM_IDS,
    apply_allowlist,
    has_blocking_discrepancy,
    load_allowlist,
    summary_line,
    verify_theorem,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_DISCREPANCY = 3
EXIT_CERTIFICATION = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; this CLI reserves 2
    # for budget refusals, so parse errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_range(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A or A..B (integers), got {text!r}") from None
    # a reversed range would sweep no cell and pass having checked nothing
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: {lo} > {hi}")
    return lo, hi


# argparse keeps no state between parse_args calls, so one tree serves every
# main() call in a process; it is built on first use, not at import.
@functools.cache
def build_parser() -> _Parser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=None, metavar="FILE")
    emit = argparse.ArgumentParser(add_help=False, parents=[out])
    emit.add_argument("--format", choices=("table", "json", "csv"), default="table")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--budget-edges", type=int, default=DEFAULT_EDGE_BUDGET, metavar="N")
    search.add_argument("--timeout-ms", type=float, default=None, metavar="MS")
    sweep = argparse.ArgumentParser(add_help=False, parents=[emit, search])
    sweep.add_argument("--n", type=_parse_range, default=None, metavar="A..B")
    sweep.add_argument("--m", type=_parse_range, default=None, metavar="A..B")
    sweep.add_argument("--samples", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=0, metavar="S")
    sweep.add_argument("--allowlist", type=Path, default=None, metavar="FILE")

    parser = _Parser(prog="rainbowlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[out],
                       help="write a graph file for one of the built-in families")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int, nargs="?", default=None)
    p.add_argument("--seed", type=int, default=None, metavar="S")

    p = sub.add_parser("rb", parents=[emit, search],
                       help="exact rainbow number of m-matchings in a graph file")
    p.add_argument("graph", type=Path)
    p.add_argument("m", type=int)

    p = sub.add_parser("ext", parents=[emit],
                       help="largest m-matching-free edge count in a graph file")
    p.add_argument("graph", type=Path)
    p.add_argument("m", type=int)

    p = sub.add_parser("check", help="search a colored graph for a rainbow m-matching")
    p.add_argument("graph", type=Path)
    p.add_argument("coloring", type=Path)
    p.add_argument("m", type=int)

    p = sub.add_parser("construct", parents=[emit],
                       help="emit and certify a rainbow-free coloring")
    p.add_argument("kind", choices=("regular", "path_simple", "path_tight", "cycle_tight"))
    p.add_argument("source", help="regular: a graph file; others: N")
    p.add_argument("m", type=int)

    p = sub.add_parser("verify", parents=[sweep],
                       help="sweep one claim id against the exhaustive oracle")
    p.add_argument("theorem", choices=THEOREM_IDS)
    p.add_argument("--k", type=_parse_range, default=None, metavar="A..B")

    # verify T3.2/C3.3 under the name that bench/workloads.py's sweep calls
    sub.add_parser(
        "monotonicity", parents=[sweep],
        help="check that identifying vertices never lowers the rainbow number",
        description="Check that closing a path into a cycle never lowers the rainbow "
                    "number, then merge random vertex pairs of paths.  --n bounds only the "
                    "path-vs-cycle cells; the --samples random identifications always merge "
                    "two vertices of a path with 5-8 edges, at m = 2, so they run only when "
                    "--m includes 2."
    ).set_defaults(theorem="T3.2/C3.3", k=None)
    return parser


# --- output helpers -----------------------------------------------------------


def _write_text(path: Path | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8")


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
    _write_text(out, text)


def _plain(value):
    if isinstance(value, (list, tuple)):
        return "..".join("" if v is None else str(v) for v in value)
    return value


def _format_table(rows: list[dict], columns: list[str]) -> str:
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


def _connected(g: Graph) -> bool:
    """Whether the vertices of g that have an edge form one component."""
    seen, stack = set(), [u for u, _ in g.edges[:1]]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(w for edge in g.edges if v in edge for w in edge)
    return len(seen) == sum(1 for d in g.degrees() if d)


def _check_metadata(g: Graph, meta: dict) -> None:
    """Raise ValueError when a known family's n or k does not describe g: a path
    or cycle has n edges and, isolated vertices aside, is connected with degrees
    1, 1, 2, ..., 2 (path) or 2, ..., 2 (cycle); any other family is bipartite,
    with 2n vertices, all of degree k, and complete_bipartite has k = n."""
    family, n, k = meta.get("family"), meta.get("n"), meta.get("k")
    if family in ("path", "cycle"):
        if n not in (None, g.edge_count):
            raise ValueError(f"{family} n={n} does not describe a graph with {g.edge_count} edges")
        shape = [1, 1] + [2] * (g.edge_count - 1) if family == "path" else [2] * g.edge_count
        if sorted(d for d in g.degrees() if d) != shape or not _connected(g):
            degrees = "1, 1, 2, ..., 2" if family == "path" else "2, ..., 2"
            raise ValueError(f"{family} graphs are connected with degrees {degrees}, "
                             "but this graph is not")
    elif family in FAMILIES:
        if n is not None and 2 * n != g.vertex_count:
            raise ValueError(f"{family} n={n} does not describe a graph on "
                             f"{g.vertex_count} vertices")
        if family == "complete_bipartite":
            if k not in (None, n):
                raise ValueError(f"complete_bipartite has k = n, got n={n} k={k}")
            k = n
        degrees = set(g.degrees())
        if k is not None and degrees != {k}:
            raise ValueError(f"{family} k={k} does not describe a graph with degrees "
                             f"{sorted(degrees)}")
        if g.bipartition is None:
            raise ValueError(f"{family} graphs are bipartite, but this graph has an odd cycle")


def _load_graph_and_metadata(path: Path) -> tuple[Graph, dict]:
    """A graph file's graph and the key=value tokens of its `# rainbowlab` lines,
    with n and k as integers; a value of n or k that is not one, or that does
    not describe the graph (_check_metadata), is a file error."""

    def parse(text: str) -> tuple[Graph, dict]:
        meta = {}
        for line in map(str.strip, text.splitlines()):
            if not line.startswith("# rainbowlab"):
                continue
            for token in line.removeprefix("# rainbowlab").split():
                key, eq, value = token.partition("=")
                if eq:
                    meta[key] = _ints(line, [value])[0] if key in ("n", "k") else value
        g = parse_graph(text)
        _check_metadata(g, meta)
        return g, meta

    return _read_line_file(path, parse)


# --- subcommands ----------------------------------------------------------------


def _cmd_gen(args) -> int:
    family, n, k, seed = args.family, args.n, args.k, args.seed or 0
    if args.seed is not None and family != "random_regular":
        raise ValueError(f"family {family!r} is not random, so a seed cannot be honoured")
    g = make_family(family, n, k, seed)
    comment = f"rainbowlab family={family} n={n}"
    if k is not None:
        comment += f" k={k}"
    if family == "random_regular":
        comment += f" seed={seed}"
    _write_text(args.out, format_graph(g, comment=comment))
    return EXIT_OK


def _formula_for(meta: dict, edge_count: int, m: int):
    """(formula_value, formula_source) for a known family, else (None, None)."""
    family = meta.get("family")
    try:
        n = edge_count if family in ("path", "cycle") else meta["n"]
        value = rb_formula(family, n, meta.get("k"), m)
    except (ValueError, KeyError):
        return None, None
    if value is None:
        return None, None
    source = {"path": "path_two_branch", "cycle": "cycle_two_branch",
              "complete_bipartite": "complete_bipartite"}.get(family, "regular_exact")
    disputed = (family, n, m) in DISPUTED_FORMULA_CELLS
    return value, f"{source} (disputed cell)" if disputed else source


def _cmd_rb(args) -> int:
    g, meta = _load_graph_and_metadata(args.graph)
    result = rb_exact(g, args.m, edge_budget=args.budget_edges, timeout_ms=args.timeout_ms)
    formula_value, formula_source = _formula_for(meta, g.edge_count, args.m)
    record = {
        "graph_id": args.graph.name,
        "family": meta.get("family", "unknown"),
        "n": meta.get("n", g.vertex_count),
        "k": meta.get("k"),
        "m": args.m,
        "f_value": result.f_value,
        "rb_value": result.rb_value,
        "formula_value": formula_value,
        "formula_source": formula_source,
        "agrees": (result.rb_value == formula_value) if formula_value is not None else None,
        "colorings_examined": result.colorings_examined,
        "elapsed_ms": result.elapsed_ms,
    }
    _emit([record], list(record.keys()), args.format, args.out)
    return EXIT_OK


def _cmd_ext(args) -> int:
    g, meta = _load_graph_and_metadata(args.graph)
    result = ext_exact(g, args.m)
    record = {
        "graph_id": args.graph.name,
        "family": meta.get("family", "unknown"),
        "m": args.m,
        "value": result.value,
        "method": "branch_and_bound" if result.cover is None else "cover_based",
        "witness_edges": sorted(result.witness_edges),
        "cover": sorted(result.cover) if result.cover is not None else None,
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
    kind, m = args.kind, args.m
    if kind == "regular":
        path = Path(args.source)
        report = extremal_coloring_regular(load_graph(path), m)
        label = f"{kind} graph={path.name} m={m}"
    else:
        try:
            n = int(args.source)
        except ValueError:
            raise ValueError(f"construct {kind} takes N, which must be an integer, "
                             f"got {args.source!r}") from None
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
        save_coloring(report.coloring, args.out, comment=f"rainbowlab construction {label}")
    return EXIT_OK if report.rainbow_free_certified else EXIT_CERTIFICATION


RECORD_COLUMNS = ["theorem_id", "family", "n", "k", "m", "seed", "oracle_value",
                  "claimed", "status", "acknowledged", "elapsed_ms", "note"]


def _cmd_verify(args) -> int:
    records = verify_theorem(args.theorem, n_range=args.n, k_range=args.k,
                             m_range=args.m, samples=args.samples, seed=args.seed,
                             edge_budget=args.budget_edges, timeout_ms=args.timeout_ms)
    if not records:
        raise ValueError("the given ranges select no cell, so the sweep checks nothing")
    if args.allowlist is not None:
        apply_allowlist(records, load_allowlist(args.allowlist))
    rows = [dict(vars(r)) for r in records]
    _emit(rows, RECORD_COLUMNS, args.format, args.out)
    print(summary_line(records), file=sys.stderr if args.out is None and args.format != "table" else sys.stdout)
    return EXIT_DISCREPANCY if has_blocking_discrepancy(records) else EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "rb": _cmd_rb,
    "ext": _cmd_ext,
    "check": _cmd_check,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "monotonicity": _cmd_verify,
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
