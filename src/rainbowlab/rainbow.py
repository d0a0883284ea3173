"""Deciding whether an edge-colored graph contains a rainbow matching.

The decision procedure is an exact backtracking search over edges in index
order, pruned by the memoised exact matching number of the edges still
available (_matching_number, which ext_exact's branch and bound shares).  The
brute-force oracles it is cross-checked against live with the tests, in
tests/helpers.py.

Vertex sets are manipulated as bitmasks throughout; the graphs this package
targets have at most a few dozen edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colorings import Coloring
from .graphs import Graph
from .matching import maximum_matching

__all__ = [
    "RainbowWitness",
    "find_rainbow_matching",
    "max_matching_size",
]


@dataclass(frozen=True)
class RainbowWitness:
    """m pairwise disjoint edges with pairwise distinct colors."""

    edges: tuple[int, ...]
    colors: tuple[int, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.colors):
            raise ValueError("witness edges and colors must align")
        if len(set(self.colors)) != len(self.colors):
            raise ValueError("witness colors must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.edges)

    def verify(self, g: Graph, coloring: Coloring) -> bool:
        """Re-check the witness against its host graph and coloring."""
        touched: set[int] = set()
        for i, c in zip(self.edges, self.colors):
            u, v = g.edge(i)
            if u in touched or v in touched:
                return False
            if coloring.color_of(i) != c:
                return False
            touched.update((u, v))
        return len(set(self.colors)) == len(self.colors)


def _independence_masks(vmasks: list[int]) -> list[int]:
    """indep[i] is the bitmask of edges sharing no vertex with edge i."""
    edge_count = len(vmasks)
    indep = [0] * edge_count
    for i in range(edge_count):
        for j in range(edge_count):
            if i != j and not vmasks[i] & vmasks[j]:
                indep[i] |= 1 << j
    return indep


def _matching_number(active: int, indep: list[int], memo: dict[int, int]) -> int:
    """Exact maximum matching size of the edges in the bitmask `active`.
    Branches on the lowest-index edge; exponential but fine at this package's
    scale.  `memo` maps edge bitmasks to their matching number and may be
    shared by calls over the same graph."""
    if not active:
        return 0
    if active in memo:
        return memo[active]
    low = active & -active
    best = max(_matching_number(active ^ low, indep, memo),  # skip the lowest edge
               1 + _matching_number(active & indep[low.bit_length() - 1], indep, memo))
    memo[active] = best
    return best


def max_matching_size(g: Graph) -> int:
    """Matching number of any graph: augmenting paths when bipartite, exact
    branching otherwise."""
    if g.bipartition is not None:
        return maximum_matching(g).size
    indep = _independence_masks(g.edge_vertex_masks())
    return _matching_number((1 << g.edge_count) - 1, indep, {})


def find_rainbow_matching(g: Graph, coloring: Coloring, m: int) -> RainbowWitness | None:
    """Exact decision: a rainbow matching of size m, or None if there is none.

    Backtracks over edges in ascending index order, skipping edges that touch
    a used vertex or repeat a used color.  Two admissible prunes cut the
    tree: the maximum matching size of the still-available edges, and the
    number of still-available distinct colors.  The returned witness is the
    lexicographically smallest edge-index sequence, so results are stable
    across runs.
    """
    if m < 1:
        raise ValueError(f"matching size must be positive, got {m}")
    if coloring.edge_count != g.edge_count:
        raise ValueError(
            f"coloring covers {coloring.edge_count} edges but graph has {g.edge_count}"
        )
    if m > max_matching_size(g):
        return None
    vmasks = g.edge_vertex_masks()
    colors = coloring.assignment
    edge_count = g.edge_count
    indep = _independence_masks(vmasks)
    matching_memo: dict[int, int] = {}

    def available_matching_bound(start: int, used_vertices: int) -> int:
        active = 0
        for j in range(start, edge_count):
            if not vmasks[j] & used_vertices:
                active |= 1 << j
        return _matching_number(active, indep, matching_memo)

    chosen: list[int] = []

    def search(start: int, used_vertices: int, used_colors: frozenset[int]) -> bool:
        if len(chosen) == m:
            return True
        need = m - len(chosen)
        remaining_colors = {
            colors[j]
            for j in range(start, edge_count)
            if colors[j] not in used_colors and not vmasks[j] & used_vertices
        }
        if len(remaining_colors) < need:
            return False
        if available_matching_bound(start, used_vertices) < need:
            return False
        for j in range(start, edge_count):
            if vmasks[j] & used_vertices or colors[j] in used_colors:
                continue
            chosen.append(j)
            if search(j + 1, used_vertices | vmasks[j], used_colors | {colors[j]}):
                return True
            chosen.pop()
        return False

    if search(0, 0, frozenset()):
        edges = tuple(j + 1 for j in chosen)
        return RainbowWitness(edges, tuple(colors[j] for j in chosen))
    return None
