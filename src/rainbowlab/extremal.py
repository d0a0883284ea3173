"""Exact anti-Ramsey style computations and closed-form evaluators.

ext_exact computes the largest edge count of a subgraph with no matching of
size m.  rb_exact computes the rainbow number rb(G, m) = f(G, m) + 1, where
f(G, m) is the largest number of colors in a surjective edge-coloring of G
with no rainbow m-matching; the search enumerates canonical restricted-growth
colorings with two prunes (a rainbow m-matching among the colored edges, and
a bound on new colors that forward-checks which uncolored edges can still
open one) and returns the lexicographically smallest extremal coloring.

The closed-form evaluators cover k-regular bipartite graphs, paths, cycles,
and complete bipartite graphs; each validates its stated parameter range and
names the violated constraint on rejection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .colorings import Coloring
from .errors import BudgetExceededError
from .graphs import Graph
from .rainbow import _independence_masks, find_rainbow_matching, max_matching_size

__all__ = [
    "ExtResult",
    "RbResult",
    "CycleFormula",
    "DISPUTED_CYCLE_CASES",
    "DEFAULT_EDGE_BUDGET",
    "ext_exact",
    "ext_formula_regular",
    "rb_exact",
    "rb_bounds_regular",
    "rb_formula_regular",
    "rb_formula_path",
    "rb_formula_cycle",
    "rb_formula_complete_bipartite",
]

DEFAULT_EDGE_BUDGET = 16
NONBIPARTITE_EXT_MAX_EDGES = 18
TIMEOUT_CHECK_INTERVAL = 4096

# The one known cell where the two-branch cycle formula disagrees with the
# exhaustive oracle: on the 4-cycle with m = 2, coloring opposite edges alike
# is rainbow-free with two colors, so the oracle gives 3 while the formula
# gives 2.
DISPUTED_CYCLE_CASES = frozenset({(4, 2)})


@dataclass(frozen=True)
class ExtResult:
    """Largest m-matching-free edge subset: its size, one attaining subset,
    and which search produced it."""

    value: int
    witness_edges: frozenset[int]
    method: str  # "cover_based" | "branch_and_bound"


@dataclass(frozen=True)
class RbResult:
    f_value: int
    rb_value: int
    extremal_coloring: Coloring | None
    colorings_examined: int
    elapsed_ms: float


class CycleFormula(NamedTuple):
    """Cycle formula value plus an advisory flag for the disputed cell."""

    value: int
    disputed: bool


# --- ext --------------------------------------------------------------------


def _exists_matching(avail: int, need: int, indep: list[int]) -> bool:
    """Is there a matching of `need` edges inside the bitmask `avail`?"""
    if need == 0:
        return True
    while avail:
        low = avail & -avail
        j = low.bit_length() - 1
        avail ^= low
        if _exists_matching(avail & indep[j], need - 1, indep):
            return True
    return False


def ext_exact(g: Graph, m: int) -> ExtResult:
    """Maximum number of edges of a subgraph of g with no matching of size m.

    Bipartite graphs are solved through the cover identity: an edge set has
    no m-matching exactly when some m-1 vertices cover it, so the answer is
    the best edge count over all (m-1)-vertex subsets.  Non-bipartite graphs
    fall back to branch and bound over edge subsets with an exact matching
    feasibility test, and are refused above NONBIPARTITE_EXT_MAX_EDGES edges.
    """
    if m < 1:
        raise ValueError(f"matching size must be at least 1, got m={m} (m=0 is vacuous)")
    if m == 1:
        return ExtResult(0, frozenset(), "cover_based")
    if g.bipartition is not None:
        return _ext_cover_based(g, m)
    if g.edge_count > NONBIPARTITE_EXT_MAX_EDGES:
        raise BudgetExceededError(
            f"non-bipartite ext search is limited to {NONBIPARTITE_EXT_MAX_EDGES} edges, "
            f"got {g.edge_count}"
        )
    return _ext_branch_and_bound(g, m)


def _ext_cover_based(g: Graph, m: int) -> ExtResult:
    cover_size = m - 1
    if cover_size >= g.vertex_count:
        return ExtResult(g.edge_count, frozenset(range(1, g.edge_count + 1)), "cover_based")
    best_value = -1
    best_edges: frozenset[int] = frozenset()
    for subset in combinations(range(g.vertex_count), cover_size):
        chosen = set(subset)
        incident = [i for i, (u, v) in enumerate(g.edges, start=1) if u in chosen or v in chosen]
        if len(incident) > best_value:
            best_value = len(incident)
            best_edges = frozenset(incident)
    return ExtResult(best_value, best_edges, "cover_based")


def _ext_branch_and_bound(g: Graph, m: int) -> ExtResult:
    vmasks = g.edge_vertex_masks()
    indep = _independence_masks(vmasks)
    edge_count = g.edge_count
    best_value = 0
    best_mask = 0

    def bb(i: int, chosen_mask: int, chosen_count: int):
        nonlocal best_value, best_mask
        if chosen_count + (edge_count - i) <= best_value:
            return
        if i == edge_count:
            best_value = chosen_count
            best_mask = chosen_mask
            return
        # include edge i unless it completes an m-matching among chosen edges
        if not _exists_matching(chosen_mask & indep[i], m - 1, indep):
            bb(i + 1, chosen_mask | (1 << i), chosen_count + 1)
        bb(i + 1, chosen_mask, chosen_count)

    bb(0, 0, 0)
    witness = frozenset(j + 1 for j in range(edge_count) if best_mask >> j & 1)
    return ExtResult(best_value, witness, "branch_and_bound")


def ext_formula_regular(n: int, k: int, m: int) -> int:
    """Closed form k*(m-1) for k-regular bipartite graphs on n+n vertices."""
    if k < 1:
        raise ValueError(f"constraint k >= 1 violated: k={k}")
    if k > n:
        raise ValueError(f"constraint k <= n violated: k={k}, n={n}")
    if not 2 <= m <= n:
        raise ValueError(f"constraint 2 <= m <= n violated: m={m}, n={n}")
    return k * (m - 1)


# --- rb exact search ---------------------------------------------------------


def _exists_rainbow(avail: int, need: int, indep: list[int], colors: list[int],
                    color_masks: list[int]) -> bool:
    """Is there a rainbow matching of `need` edges inside the bitmask `avail`?
    Edges in avail are already colored; chosen edges exclude their own color
    class and non-disjoint edges from the remaining pool."""
    if need == 0:
        return True
    while avail:
        low = avail & -avail
        j = low.bit_length() - 1
        avail ^= low
        if _exists_rainbow(avail & indep[j] & ~color_masks[colors[j]],
                           need - 1, indep, colors, color_masks):
            return True
    return False


def _search(edge_count: int, indep: list[int], m: int, deadline: float | None):
    """Exhaust the canonical colorings; return the best rainbow-free color
    count, its lexicographically smallest assignment, and the number of search
    nodes visited.

    Prune (a): a partial coloring that already shows a rainbow m-matching can
    never become rainbow-free (colors of colored edges are final), so the
    branch dies the moment edge i's color completes one.
    Prune (b), by forward checking: an uncolored edge j is closed once some
    rainbow (m-1)-matching among the colored edges avoids j's endpoints, since
    a new color on j would complete a rainbow m-matching.  Closed edges can
    only reuse colors, so with best t* found, a node whose colors-so-far plus
    open uncolored edges cannot exceed t* is hopeless.  The closed set only
    grows along a branch, and after edge i is colored only matchings through
    i are new, so only the open edges disjoint from i are re-tested.
    """
    colors = [0] * edge_count
    color_masks = [0] * (edge_count + 2)
    best_t = 0
    best_assignment: tuple[int, ...] | None = None
    nodes = 0

    def assign(i: int, t: int, colored: int, closed: int):
        nonlocal best_t, best_assignment, nodes
        nodes += 1
        # checked at the first node too, so small searches honour the deadline
        if deadline is not None and nodes % TIMEOUT_CHECK_INTERVAL == 1:
            if time.monotonic() >= deadline:
                raise BudgetExceededError("rainbow-number search exceeded its time budget")
        if i == edge_count:
            if t > best_t:
                best_t = t
                best_assignment = tuple(colors)
            return
        if t + (edge_count - i) - (closed >> i).bit_count() <= best_t:
            return
        bit = 1 << i
        # open uncolored edges disjoint from edge i
        recheck = indep[i] & ~closed & -(bit << 1)
        for c in range(1, t + 2):
            avail = colored & indep[i] & ~color_masks[c]
            colors[i] = c
            if _exists_rainbow(avail, m - 1, indep, colors, color_masks):
                continue
            color_masks[c] |= bit
            child_closed = closed
            pending = recheck
            while pending:
                low = pending & -pending
                pending ^= low
                if _exists_rainbow(avail & indep[low.bit_length() - 1], m - 2, indep,
                                   colors, color_masks):
                    child_closed |= low
            assign(i + 1, t if c <= t else c, colored | bit, child_closed)
            color_masks[c] &= ~bit
        colors[i] = 0

    assign(0, 0, 0, 0)
    return best_t, best_assignment, nodes


def rb_exact(g: Graph, m: int, *, edge_budget: int = DEFAULT_EDGE_BUDGET,
             timeout_ms: float | None = None) -> RbResult:
    """Exact rainbow number of m-matchings in g by exhaustive canonical search.

    f is the maximum color count over rainbow-free surjective colorings and
    rb = f + 1.  The search space is the set of restricted-growth strings
    over the edge list, so color permutations are never revisited.  A branch
    dies when its colored edges hold a rainbow m-matching, or when its colors
    plus its uncolored edges that can still take a new color (no rainbow
    (m-1)-matching among colored edges avoids them) cannot beat the best
    count found.  Graphs with more than edge_budget edges are refused
    outright rather than approximated; raise the budget explicitly to accept
    the runtime risk.
    """
    if m < 1:
        raise ValueError(f"matching size must be positive, got {m}")
    if g.edge_count == 0:
        raise ValueError("rainbow numbers are undefined on graphs with no edges")
    if g.edge_count > edge_budget:
        raise BudgetExceededError(
            f"graph has {g.edge_count} edges, above the search budget of {edge_budget}; "
            "re-run with a larger explicit budget to accept the runtime risk"
        )
    start = time.perf_counter()
    deadline = time.monotonic() + timeout_ms / 1000.0 if timeout_ms is not None else None
    nu = max_matching_size(g)
    if m > nu:
        raise ValueError(
            f"no coloring of this graph contains a rainbow {m}-matching "
            f"(matching number is {nu}); the rainbow number is undefined"
        )
    if m == 1:
        # Any edge of any coloring is a rainbow 1-matching, so no coloring is
        # rainbow-free and rb = 1 with no extremal coloring to exhibit.
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return RbResult(0, 1, None, 0, elapsed_ms)
    indep = _independence_masks(g.edge_vertex_masks())
    best_t, best_assignment, nodes = _search(g.edge_count, indep, m, deadline)
    assert best_assignment is not None and best_t >= 1  # monochromatic leaf always survives
    extremal = Coloring(best_assignment, best_t)
    if find_rainbow_matching(g, extremal, m) is not None:
        raise AssertionError("search returned a coloring that is not rainbow-free")
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return RbResult(best_t, best_t + 1, extremal, nodes, elapsed_ms)


# --- closed forms -------------------------------------------------------------


def rb_bounds_regular(n: int, k: int, m: int) -> tuple[int, int]:
    """Lower and upper bounds (k(m-2)+2, k(m-1)+1) for k-regular bipartite
    graphs with sides of size n."""
    if m == 1:
        raise ValueError(
            "constraint m >= 2 violated: m=1 is the degenerate case rb(G, one edge) = 1"
        )
    if k < 1:
        raise ValueError(f"constraint k >= 1 violated: k={k}")
    if k > n:
        raise ValueError(f"constraint k <= n violated: k={k}, n={n}")
    if not 2 <= m <= n:
        raise ValueError(f"constraint 2 <= m <= n violated: m={m}, n={n}")
    return k * (m - 2) + 2, k * (m - 1) + 1


def rb_formula_regular(n: int, k: int, m: int) -> int | None:
    """Exact value k(m-2)+2 for k >= 3 and n > 3(m-1); None where the formula
    makes no claim."""
    if m < 2:
        raise ValueError(
            "constraint m >= 2 violated: m=1 is the degenerate case rb(G, one edge) = 1"
        )
    if k > n:
        raise ValueError(f"constraint k <= n violated: k={k}, n={n}")
    if k < 3:
        return None
    if n <= 3 * (m - 1):
        return None
    return k * (m - 2) + 2


def rb_formula_path(n: int, m: int) -> int:
    """Exact rainbow number of m-matchings in the path with n edges."""
    if not 2 <= m <= (n + 1) // 2:
        raise ValueError(f"constraint 2 <= m <= ceil(n/2) violated: m={m}, n={n}")
    return 2 * m - 1 if n <= 3 * m - 3 else 2 * m - 2


def rb_formula_cycle(n: int, m: int) -> CycleFormula:
    """Two-branch cycle value, flagged on the cell where the exhaustive oracle
    is known to disagree (see DISPUTED_CYCLE_CASES)."""
    if not 2 <= m <= n // 2:
        raise ValueError(f"constraint 2 <= m <= floor(n/2) violated: m={m}, n={n}")
    value = 2 * m - 1 if n <= 3 * m - 3 else 2 * m - 2
    return CycleFormula(value, (n, m) in DISPUTED_CYCLE_CASES)


def rb_formula_complete_bipartite(n: int, m: int) -> int:
    """Exact value n(m-2)+2 for the complete bipartite graph K_{n,n}."""
    if n < 3:
        raise ValueError(f"constraint n >= 3 violated: n={n}")
    if not 2 <= m <= n:
        raise ValueError(f"constraint 2 <= m <= n violated: m={m}, n={n}")
    return n * (m - 2) + 2
