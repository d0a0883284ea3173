"""Maximum matching of a bipartite graph by augmenting paths.

The search is deterministic: it scans free X vertices in increasing index
order and tries neighbors in edge-index order, so repeated runs on the same
graph return the same matching.  It requires a bipartite graph and raises
NonBipartiteError when ``g.bipartition`` is None, which happens exactly when
the graph has an odd cycle (a Graph built without sides gets its canonical
2-coloring); the desk-scale exact matching number of general graphs lives in
rainbow.py instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonBipartiteError
from .graphs import Graph

__all__ = [
    "Matching",
    "maximum_matching",
]


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges, stored as 1-based edge indices."""

    edges: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.edges)


def _require_bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]]:
    if g.bipartition is None:
        raise NonBipartiteError("operation requires a bipartite graph; this one has an odd cycle")
    return g.bipartition


def _augment(x: int, adj, partner: dict[int, int], visited: set[int]) -> bool:
    for y, _ in adj[x]:
        if y in visited:
            continue
        visited.add(y)
        if y not in partner or _augment(partner[y], adj, partner, visited):
            partner[y] = x
            partner[x] = y
            return True
    return False


def _matching_pairs(g: Graph) -> dict[int, int]:
    """Partner map of a maximum matching grown by augmenting paths from X in
    index order."""
    x_side, _ = _require_bipartition(g)
    adj = g.adjacency()
    partner: dict[int, int] = {}
    for x in sorted(x_side):
        if x not in partner:
            _augment(x, adj, partner, set())
    return partner


def _pairs_to_matching(g: Graph, partner: dict[int, int]) -> Matching:
    index = {}
    for i, (u, v) in enumerate(g.edges, start=1):
        index[(u, v)] = i
    picked = set()
    for u, v in partner.items():
        key = (u, v) if (u, v) in index else (v, u)
        picked.add(index[key])
    return Matching(frozenset(picked))


def maximum_matching(g: Graph) -> Matching:
    """Maximum matching of a bipartite graph via augmenting-path search."""
    return _pairs_to_matching(g, _matching_pairs(g))
