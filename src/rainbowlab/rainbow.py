"""Deciding whether an edge-colored graph contains a rainbow matching.

The decision procedure is an exact backtracking search over edges in index
order.  Edge sets are int bitmasks in Graph's encoding (bit j is edge j + 1):
Graph.disjoint[j] holds the edges sharing no vertex with edge j + 1, and one
mask per color holds that color's edges.  Each exhausted subproblem is
refuted once, and nodes are pruned by the color count and, on a bipartite
graph, a side-color cover (_side_cover).  rb_exact's search kernels
(extremal._closable and extremal._rainbow_matching) walk the same bitmasks
without these prunes, because they run millions of times per search on few
edges.
_matching_number is the package's one matching-number routine, for
max_matching_size and ext_exact's branch and bound.  The brute-force oracles
the search is cross-checked against live with the tests, in tests/helpers.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colorings import Coloring
from .graphs import Graph

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
        """Re-check the witness against its host graph and coloring.  An edge
        index outside either of them fails the check."""
        touched: set[int] = set()
        for i, c in zip(self.edges, self.colors):
            if not 1 <= i <= min(g.edge_count, coloring.edge_count):
                return False
            u, v = g.edges[i - 1]
            if u in touched or v in touched:
                return False
            if coloring.assignment[i - 1] != c:
                return False
            touched.update((u, v))
        return True


def _matching_number(active: int, disjoint: tuple[int, ...], memo: dict[int, int]) -> int:
    """Exact maximum matching size of the edges in the bitmask `active`.
    Branches on the lowest-index edge; exponential but fine at this package's
    scale.  `memo` maps edge bitmasks to their matching number; ext_exact's
    branch and bound shares one across its calls on a graph."""
    if not active:
        return 0
    if active in memo:
        return memo[active]
    low = active & -active
    best = max(_matching_number(active ^ low, disjoint, memo),  # skip the lowest edge
               1 + _matching_number(active & disjoint[low.bit_length() - 1], disjoint, memo))
    memo[active] = best
    return best


def max_matching_size(g: Graph) -> int:
    """Matching number of any graph, bipartite or not, by _matching_number over
    all of its edges."""
    return _matching_number((1 << g.edge_count) - 1, g.disjoint, {})


def _side_cover(avail: int, side: list[int], colors: list[int], color_masks: list[int]) -> int:
    """An upper bound on a rainbow matching in bitmask `avail`; `side` holds the
    incidence masks of one side S of a bipartite graph.  S-vertices with two or
    more avail colors, plus the colors on the other S-vertices, cover each avail
    edge's (S-vertex, color) pair, and no element covers two matching edges."""
    mixed, single = 0, set()
    for incident in side:
        edges = avail & incident
        if edges:
            c = colors[(edges & -edges).bit_length() - 1]
            if edges & ~color_masks[c]:
                mixed += 1
            else:
                single.add(c)
    return mixed + len(single)


def find_rainbow_matching(g: Graph, coloring: Coloring, m: int) -> RainbowWitness | None:
    """Exact decision: a rainbow matching of size m, or None if there is none.

    Backtracks over edges in ascending index order.  A node's `avail` bitmask
    holds the later edges that share no vertex with a chosen edge and repeat
    no chosen color, so its answer depends on (avail, need) alone and an
    exhausted pair is refuted for good.  Admissible prunes, cheapest first: the
    colors in avail and each side's _side_cover.
    The tree is thus a subtree of the one without refutation or _side_cover,
    and the witness is the lexicographically smallest edge-index sequence.
    """
    if m < 1:
        raise ValueError(f"matching size must be positive, got {m}")
    if coloring.edge_count != g.edge_count:
        raise ValueError(
            f"coloring covers {coloring.edge_count} edges but graph has {g.edge_count}"
        )
    colors = coloring.assignment
    disjoint = g.disjoint
    color_masks = [0] * (coloring.color_count + 1)
    for j, c in enumerate(colors):
        color_masks[c] |= 1 << j
    sides = [[g.incidence[v] for v in side] for side in g.bipartition or ()]
    refuted: set[tuple[int, int]] = set()
    chosen: list[int] = []

    def search(avail: int, need: int) -> bool:
        if need == 0:
            return True
        if (avail, need) in refuted:
            return False
        # distinct colors in avail, counted up to need
        rest, distinct = avail, 0
        while rest and distinct < need:
            rest &= ~color_masks[colors[(rest & -rest).bit_length() - 1]]
            distinct += 1
        if distinct < need or any(_side_cover(avail, s, colors, color_masks) < need for s in sides):
            return False
        refuted.add((avail, need))  # a True below ends the whole search
        while avail:
            low = avail & -avail
            j = low.bit_length() - 1
            avail ^= low
            chosen.append(j)
            if search(avail & disjoint[j] & ~color_masks[colors[j]], need - 1):
                return True
            chosen.pop()
        return False

    if search((1 << g.edge_count) - 1, m):
        return RainbowWitness(tuple(j + 1 for j in chosen), tuple(colors[j] for j in chosen))
    return None
