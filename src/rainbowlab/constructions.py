"""Explicit rainbow-free colorings witnessing lower bounds on rainbow numbers.

Each builder emits the coloring together with a report: how many colors it
uses (= the f lower bound it claims) and whether the rainbow search certified
it rainbow-free.  Certification is always performed by search, never assumed:
the cycle variant in particular is an adaptation whose freeness is only ever
claimed per certified instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colorings import Coloring
from .graphs import Graph, make_cycle, make_path
from .rainbow import find_rainbow_matching

__all__ = [
    "ConstructionReport",
    "extremal_coloring_regular",
    "extremal_coloring_path_simple",
    "extremal_coloring_path_tight",
    "extremal_coloring_cycle_tight",
]


@dataclass(frozen=True)
class ConstructionReport:
    graph: Graph
    matching_size: int
    coloring: Coloring
    colors_used: int
    rainbow_free_certified: bool
    pattern: str

    def recheck(self) -> bool:
        """Re-run the certification this report was issued with."""
        return find_rainbow_matching(self.graph, self.coloring, self.matching_size) is None


def _report(g: Graph, m: int, coloring: Coloring, pattern: str) -> ConstructionReport:
    certified = find_rainbow_matching(g, coloring, m) is None
    return ConstructionReport(
        graph=g,
        matching_size=m,
        coloring=coloring,
        colors_used=coloring.color_count,
        rainbow_free_certified=certified,
        pattern=pattern,
    )


def extremal_coloring_regular(g: Graph, m: int) -> ConstructionReport:
    """Distinct colors on every edge at the first m-2 Y-vertices, one shared
    color everywhere else: k(m-2)+1 colors on a k-regular bipartite graph.

    Any rainbow matching can use at most one edge per distinguished Y-vertex
    plus one shared-color edge, so none reaches size m.
    """
    if g.bipartition is None:
        raise ValueError("regular construction requires a bipartite graph")
    x_side, y_side = g.bipartition
    degrees = g.degrees()
    active = [degrees[v] for v in range(g.vertex_count)]
    distinct = set(active)
    if len(distinct) != 1:
        raise ValueError(f"graph is not regular: degrees {sorted(distinct)}")
    n = len(y_side)
    if not 2 <= m <= n:
        raise ValueError(f"constraint 2 <= m <= |Y| violated: m={m}, |Y|={n}")
    chosen_y = set(sorted(y_side)[: m - 2])
    assignment = []
    next_color = 0
    for u, v in g.edges:
        if u in chosen_y or v in chosen_y:
            next_color += 1
            assignment.append(next_color)
        else:
            assignment.append(0)
    shared = next_color + 1
    assignment = tuple(shared if c == 0 else c for c in assignment)
    coloring = Coloring(assignment, shared)
    return _report(g, m, coloring, "regular_star")


def extremal_coloring_path_simple(n: int, m: int) -> ConstructionReport:
    """Colors 1..2m-4 on the first edges of the path, one shared color on the
    rest: 2m-3 colors with no rainbow m-matching."""
    if not 2 <= m <= (n + 1) // 2:
        raise ValueError(f"constraint 2 <= m <= ceil(n/2) violated: m={m}, n={n}")
    g = make_path(n)
    total = 2 * m - 3
    assignment = tuple(min(i, total) for i in range(1, n + 1))
    coloring = Coloring(assignment, total)
    return _report(g, m, coloring, "path_prefix")


def _tight_assignment(n: int, m: int) -> tuple[int, ...]:
    # p leading blocks of three edges colored (2i, 2i-1, 2i), then fresh
    # colors 2p+1.. on the remaining n-3p edges; 2m-2 colors in total.
    p = n - (2 * m - 2)
    assignment = [0] * n
    for i in range(1, p + 1):
        assignment[3 * i - 3] = 2 * i
        assignment[3 * i - 2] = 2 * i - 1
        assignment[3 * i - 1] = 2 * i
    for j in range(1, n - 3 * p + 1):
        assignment[3 * p + j - 1] = 2 * p + j
    return tuple(assignment)


def extremal_coloring_path_tight(n: int, m: int) -> ConstructionReport:
    """The 2m-2 color pattern for short paths (n <= 3m-3): paired colors on
    each leading block of three edges, fresh colors on the tail.  A rainbow
    matching can pick at most one edge from each paired block, which caps it
    below m."""
    if not 2 <= m <= (n + 1) // 2:
        raise ValueError(f"constraint 2 <= m <= ceil(n/2) violated: m={m}, n={n}")
    if n > 3 * m - 3:
        raise ValueError(
            f"tight pattern applies only for n <= 3m-3 (got n={n}, m={m}); "
            "use extremal_coloring_path_simple for longer paths"
        )
    g = make_path(n)
    coloring = Coloring(_tight_assignment(n, m), 2 * m - 2)
    return _report(g, m, coloring, "path_tight")


def extremal_coloring_cycle_tight(n: int, m: int) -> ConstructionReport:
    """The path-tight pattern wrapped around a cycle.  This adaptation is not
    known to be rainbow-free in general; the report records the certification
    outcome and callers must consult it rather than assume freeness.

    Any n between 2m-2 and 3m-3 is accepted (the pattern is well formed
    there), including cycles too short to hold an m-matching at all, where
    freeness is trivial.
    """
    if m < 2:
        raise ValueError(f"constraint m >= 2 violated: m={m}")
    if n < 2 * m - 2:
        raise ValueError(f"tight pattern needs n >= 2m-2 (got n={n}, m={m})")
    if n > 3 * m - 3:
        raise ValueError(
            f"tight pattern applies only for n <= 3m-3 (got n={n}, m={m})"
        )
    g = make_cycle(n)
    coloring = Coloring(_tight_assignment(n, m), 2 * m - 2)
    return _report(g, m, coloring, "cycle_tight_adapted")
