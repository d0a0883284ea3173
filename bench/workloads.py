"""The benchmark's three workloads: ladder, sweep and certify.

``build(name, seed, out_dir)`` imports what the workload needs from
rainbowlab, makes its inputs from the seed and returns a list of Cells.  A
Cell's ``call`` is the timed work; its ``check`` runs afterwards, untimed,
and returns one failure kind per failed sub-cell ("wrong", "unsolved",
"refused" or "error").  Every search gets an explicit edge budget and
timeout, no search is given ``workers=``, and only public functions are
called, always through their module so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

WORKLOADS = ("ladder", "sweep", "certify")

LADDER_EDGE_BUDGET = 32
LADDER_TIMEOUT_MS = 60_000
SWEEP_EDGE_BUDGET = 24
SWEEP_TIMEOUT_MS = 30_000


@dataclass
class Cell:
    label: str
    cells: int  # sub-cells attempted (records of a sweep command, else 1)
    call: Callable[[], object]
    check: Callable[[object], list[str]]


# --- ladder -------------------------------------------------------------------
#
# (label, graph family and parameters, m, pinned rb, where the pin comes from).
# "random_regular" graphs are drawn with the workload seed.  Cells on regular
# graphs are also checked against the T2.4 bounds k(m-2)+2 <= rb <= k(m-1)+1.

LADDER = (
    ("P14 m=4", ("path", 14), 4, 6, "T3.5: 2m-2, as n > 3m-3"),
    ("C13 m=5", ("cycle", 13), 5, 8, "T3.6: 2m-2, as n > 3m-3; odd, so non-bipartite"),
    ("circulant(7,3) m=3", ("circulant", 7, 3), 3, 5, "T2.5: k(m-2)+2, as k >= 3 and n > 3(m-1)"),
    ("circulant(5,4) m=3", ("circulant", 5, 4), 3, 6, "oracle"),
    ("random_regular(6,3) m=3", ("random_regular", 6, 3), 3, 5, "oracle, seeds 0..119"),
)

LADDER_TINY = (
    ("P8 m=3", ("path", 8), 3, 4, "T3.5: 2m-2, as n > 3m-3"),
    ("C7 m=3", ("cycle", 7), 3, 4, "T3.6: 2m-2, as n > 3m-3"),
    ("circulant(4,3) m=2", ("circulant", 4, 3), 2, 2, "T2.5: k(m-2)+2"),
    ("random_regular(4,3) m=2", ("random_regular", 4, 3), 2, 2, "T2.5: k(m-2)+2"),
)


def make_graph(graphs, spec, seed):
    family, *params = spec
    if family == "path":
        return graphs.make_path(*params)
    if family == "cycle":
        return graphs.make_cycle(*params)
    if family == "circulant":
        return graphs.make_circulant_regular_bipartite(*params)
    if family == "complete_bipartite":
        return graphs.make_complete_bipartite(*params)
    if family == "random_regular":
        return graphs.make_random_regular_bipartite(*params, seed)
    raise ValueError(f"unknown graph family {family!r}")


def has_rainbow_matching(edges, assignment, m: int) -> bool:
    """Brute force over edge m-subsets, sharing no code with rainbowlab."""
    for combo in combinations(range(len(edges)), m):
        if len({assignment[i] for i in combo}) < m:
            continue
        ends = [v for i in combo for v in edges[i]]
        if len(set(ends)) == 2 * m:
            return True
    return False


def _ladder_cell(extremal, g, label, spec, m, pinned):
    bounds = None
    if spec[0] in ("circulant", "random_regular"):
        k = spec[2]
        bounds = (k * (m - 2) + 2, k * (m - 1) + 1)

    def call():
        return extremal.rb_exact(g, m, edge_budget=LADDER_EDGE_BUDGET,
                                 timeout_ms=LADDER_TIMEOUT_MS)

    def check(result):
        if result.rb_value != pinned:
            return ["wrong"]
        if bounds is not None and not bounds[0] <= result.rb_value <= bounds[1]:
            return ["wrong"]
        coloring = result.extremal_coloring
        f = result.rb_value - 1
        if (result.f_value != f or coloring is None
                or len(coloring.assignment) != g.edge_count
                or coloring.color_count != f
                or set(coloring.assignment) != set(range(1, f + 1))
                or has_rainbow_matching(g.edges, coloring.assignment, m)):
            return ["wrong"]
        return []

    return Cell(label, 1, call, check)


def _build_ladder(seed, out_dir, tiny):
    from rainbowlab import extremal, graphs

    return [_ladder_cell(extremal, make_graph(graphs, spec, seed), label, spec, m, pinned)
            for label, spec, m, pinned, _ in (LADDER_TINY if tiny else LADDER)]


# --- sweep --------------------------------------------------------------------
#
# (cli arguments, records expected).  The grids are wider than the CLI
# defaults and every cell solves within SWEEP_EDGE_BUDGET: no T2.5 cell with
# m >= 3 or k >= 5, no T2.4 cell with k >= 4.

SWEEP = (
    (["verify", "T2.3", "--n", "3..7", "--k", "2..7", "--m", "2..5"], 365),
    (["verify", "T2.4", "--n", "3..6", "--k", "2..3", "--m", "2..3", "--samples", "3"], 48),
    (["verify", "T2.5", "--n", "4..6", "--k", "3..4", "--m", "2..2"], 30),
    (["verify", "T3.1", "--n", "2..12"], 30),
    (["verify", "T3.4", "--n", "3..12"], 25),
    (["verify", "T3.5", "--n", "2..12"], 30),
    (["verify", "T3.6", "--n", "3..12"], 25),
    (["monotonicity", "--n", "3..11", "--samples", "10"], 30),
)

SWEEP_TINY = (
    (["verify", "T2.3", "--n", "3..4", "--m", "2..3", "--samples", "2"], 20),
    (["verify", "T3.6", "--n", "3..6"], 4),
    (["monotonicity", "--n", "3..5", "--samples", "2"], 4),
)

RECORD_OK = ("match", "within_bounds")


def _run_cli(cli, argv):
    """cli.main with its stdout captured: (exit code, printed text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _sweep_cell(cli, argv, expected, out_file: Path):
    out_file.unlink(missing_ok=True)

    def check(result):
        rc, _ = result
        try:
            records = json.loads(out_file.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return ["error"] * expected
        finally:
            out_file.unlink(missing_ok=True)  # the next pass must write its own
        if len(records) != expected:
            return ["error"] * expected
        failures = []
        for r in records:
            if r["status"] in RECORD_OK or (r["status"] == "discrepancy" and r["acknowledged"]):
                continue
            if r["status"] == "discrepancy":
                failures.append("wrong")
            elif r["note"].startswith("budget refusal"):
                failures.append("refused")
            else:
                failures.append("unsolved")
        return failures if rc == 0 or failures else ["error"]

    return Cell(" ".join(argv[:2]), expected, lambda: _run_cli(cli, argv), check)


def _build_sweep(seed, out_dir, tiny):
    from rainbowlab import cli

    root = Path(__file__).resolve().parent.parent
    allowlist = root / "known_discrepancies.allow"
    if not allowlist.is_file():
        raise FileNotFoundError(f"missing allowlist {allowlist}")
    cells = []
    for i, (args, expected) in enumerate(SWEEP_TINY if tiny else SWEEP):
        out_file = out_dir / f"sweep{i}.json"
        argv = args + ["--seed", str(seed),
                       "--budget-edges", str(SWEEP_EDGE_BUDGET),
                       "--timeout-ms", str(SWEEP_TIMEOUT_MS),
                       "--allowlist", str(allowlist),
                       "--format", "json", "--out", str(out_file)]
        cells.append(_sweep_cell(cli, argv, expected, out_file))
    return cells


# --- certify ------------------------------------------------------------------

# ext_exact cells: (label, graph, m, pinned value).  T2.3 gives n(m-1) on
# K_{n,n} and k(m-1) on a k-regular circulant.  A subgraph of a cycle is a
# union of paths, and a path with e edges has a matching of ceil(e/2), so an
# odd cycle with n > 2(m-1) has ext = 2(m-1) (branch and bound, non-bipartite).
EXT = (
    ("ext K12,12 m=7", ("complete_bipartite", 12), 7, 12 * 6),
    ("ext circulant(16,5) m=5", ("circulant", 16, 5), 5, 5 * 4),
    ("ext C17 m=5", ("cycle", 17), 5, 2 * 4),
    ("ext C17 m=7", ("cycle", 17), 7, 2 * 6),
)
EXT_TINY = (
    ("ext K4,4 m=3", ("complete_bipartite", 4), 3, 4 * 2),
    ("ext C7 m=3", ("cycle", 7), 3, 2 * 2),
)

# Constructions: (function name, arguments, m, colours).  The regular star
# uses k(m-2)+1 colours, path_simple 2m-3, path_tight and cycle_tight 2m-2.
CONSTRUCTIONS = (
    ("extremal_coloring_regular", ("circulant", 12, 5), 7, 5 * 5 + 1),
    ("extremal_coloring_regular", ("circulant", 16, 4), 9, 4 * 7 + 1),
    ("extremal_coloring_path_simple", 60, 16, 2 * 16 - 3),
    ("extremal_coloring_path_tight", 30, 11, 2 * 11 - 2),
    ("extremal_coloring_cycle_tight", 30, 11, 2 * 11 - 2),
)
CONSTRUCTIONS_TINY = (
    ("extremal_coloring_regular", ("circulant", 5, 3), 4, 3 * 2 + 1),
    ("extremal_coloring_path_simple", 12, 4, 2 * 4 - 3),
    ("extremal_coloring_path_tight", 9, 4, 2 * 4 - 2),
    ("extremal_coloring_cycle_tight", 9, 4, 2 * 4 - 2),
)

# `check` runs on seeded 3-regular bipartite graphs on n + n vertices,
# coloured with n colours around a planted rainbow perfect matching.
CHECKS = (60, 10)  # (colourings, n)
CHECKS_TINY = (3, 6)
WITNESS_LINE = re.compile(r"^witness edges=(\S+) colors=(\S+)$", re.MULTILINE)


def _perfect_matching(g) -> list[int]:
    """Edge indices (1-based) of a perfect matching of a regular bipartite
    graph, by augmenting paths written here, not rainbowlab's."""
    x_side = sorted(g.bipartition[0])
    adjacent = {x: [] for x in x_side}
    for i, (u, v) in enumerate(g.edges, start=1):
        x, y = (u, v) if u in adjacent else (v, u)
        adjacent[x].append((y, i))
    owner: dict[int, tuple[int, int]] = {}

    def augment(x, seen):
        for y, i in adjacent[x]:
            if y not in seen:
                seen.add(y)
                if y not in owner or augment(owner[y][0], seen):
                    owner[y] = (x, i)
                    return True
        return False

    for x in x_side:
        if not augment(x, set()):
            raise ValueError("regular bipartite graph without a perfect matching")
    return [i for _, i in owner.values()]


def _planted_coloring(g, rng: random.Random) -> tuple[int, ...]:
    """A colouring with n colours, n the size of a perfect matching, that
    gives that matching all n colours: so it is surjective and has a rainbow
    n-matching."""
    planted = _perfect_matching(g)
    colors = len(planted)
    assignment = [rng.randint(1, colors) for _ in g.edges]
    for i, c in zip(planted, rng.sample(range(1, colors + 1), colors)):
        assignment[i - 1] = c
    return tuple(assignment)


def _ext_cell(extremal, label, g, m, pinned):
    def check(result):
        witness = getattr(result, "witness_edges", None)
        ok = result.value == pinned and (witness is None or len(witness) == pinned)
        return [] if ok else ["wrong"]

    return Cell(label, 1, lambda: extremal.ext_exact(g, m), check)


def _construction_cell(constructions, graphs, name, arg, m, colors, seed):
    if isinstance(arg, tuple):
        g = make_graph(graphs, arg, seed)
        label = f"{name} {arg[0]}{arg[1:]} m={m}"
    else:
        g = None
        label = f"{name} n={arg} m={m}"

    def call():
        return getattr(constructions, name)(g if g is not None else arg, m)

    def check(report):
        coloring = report.coloring
        ok = (report.rainbow_free_certified is True
              and report.colors_used == colors
              and coloring.color_count == colors
              and len(coloring.assignment) == report.graph.edge_count
              and set(coloring.assignment) == set(range(1, colors + 1)))
        return [] if ok else ["wrong"]

    return Cell(label, 1, call, check)


def _check_cell(cli, rainbow, g, coloring, m, graph_file, coloring_file, label):
    argv = ["check", str(graph_file), str(coloring_file), str(m)]

    def check(result):
        rc, text = result
        found = WITNESS_LINE.search(text)
        if rc != 0 or found is None:
            return ["wrong"]
        edges = tuple(int(e.removeprefix("e")) for e in found.group(1).split(","))
        colors = tuple(int(c) for c in found.group(2).split(","))
        try:
            witness = rainbow.RainbowWitness(edges, colors)
        except ValueError:
            return ["wrong"]
        return [] if witness.size == m and witness.verify(g, coloring) else ["wrong"]

    return Cell(label, 1, lambda: _run_cli(cli, argv), check)


def _build_certify(seed, out_dir, tiny):
    from rainbowlab import cli, colorings, constructions, extremal, graphs, rainbow

    cells = [_ext_cell(extremal, label, make_graph(graphs, spec, seed), m, pinned)
             for label, spec, m, pinned in (EXT_TINY if tiny else EXT)]
    cells += [_construction_cell(constructions, graphs, name, arg, m, colors, seed)
              for name, arg, m, colors in (CONSTRUCTIONS_TINY if tiny else CONSTRUCTIONS)]
    rng = random.Random(seed)
    count, n = CHECKS_TINY if tiny else CHECKS
    for j in range(count):
        g = graphs.make_random_regular_bipartite(n, 3, rng.randrange(2**31))
        coloring = colorings.Coloring(_planted_coloring(g, rng), n)
        graph_file = out_dir / f"check{j}.graph"
        coloring_file = out_dir / f"check{j}.coloring"
        graphs.save_graph(g, graph_file)
        colorings.save_coloring(coloring, coloring_file)
        cells.append(_check_cell(cli, rainbow, g, coloring, n, graph_file, coloring_file,
                                 f"check random_regular({n},3) #{j} m={n}"))
    return cells


def build(name: str, seed: int, out_dir: Path, tiny: bool = False) -> list[Cell]:
    """Import rainbowlab and make the named workload's inputs from `seed`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    make = {"ladder": _build_ladder, "sweep": _build_sweep, "certify": _build_certify}[name]
    return make(seed, out_dir, tiny)
