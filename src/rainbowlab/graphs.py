"""Graph representation, family builders, vertex identification, and file I/O.

Edges are stored in a fixed order and addressed 1-based (edge ``i`` is
``edges[i - 1]``), because every construction and certificate in this package
is defined in terms of the i-th edge of a path, cycle, or regular bipartite
graph.  Graphs are immutable after construction and safe to share between
workers.
"""

from __future__ import annotations

import random
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, TextIO

__all__ = [
    "Graph",
    "Identification",
    "make_path",
    "make_cycle",
    "make_complete_bipartite",
    "make_circulant_regular_bipartite",
    "make_random_regular_bipartite",
    "identify_vertices",
    "parse_graph",
    "format_graph",
    "load_graph",
    "save_graph",
]

RANDOM_REGULAR_MAX_ATTEMPTS = 200


@dataclass(frozen=True)
class Graph:
    """A finite simple graph with an ordered edge list.

    vertex_count: vertices are 0 .. vertex_count - 1.
    edges: ordered pairs; the pair at position i - 1 is edge i (1-based).
    bipartition: (X, Y) with X and Y disjoint, covering all vertices, and
        every edge crossing between them.  When omitted it is derived as the
        canonical BFS 2-coloring (lowest vertex of each component in X), so
        None means exactly that the graph has an odd cycle.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    bipartition: tuple[frozenset[int], frozenset[int]] | None = None

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError(f"vertex_count must be non-negative, got {self.vertex_count}")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of vertex range")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
        if self.bipartition is None:
            object.__setattr__(self, "bipartition", _two_color(self.vertex_count, self.edges))
        else:
            x_side, y_side = self.bipartition
            if x_side & y_side:
                raise ValueError("bipartition sides overlap")
            if x_side | y_side != set(range(self.vertex_count)):
                raise ValueError("bipartition does not cover all vertices")
            for u, v in self.edges:
                if (u in x_side) == (v in x_side):
                    raise ValueError(f"edge ({u}, {v}) does not cross the bipartition")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge(self, index: int) -> tuple[int, int]:
        """The endpoints of edge ``index`` (1-based)."""
        if not 1 <= index <= len(self.edges):
            raise IndexError(f"edge index {index} out of range 1..{len(self.edges)}")
        return self.edges[index - 1]

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbors(self, v: int) -> set[int]:
        out = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (neighbor, edge_index) in edge-index order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(self.edges, start=1):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return adj

    def edge_vertex_masks(self) -> list[int]:
        """Bitmask of the two endpoints of each edge, in edge order."""
        return [(1 << u) | (1 << v) for u, v in self.edges]


@dataclass(frozen=True)
class Identification:
    """Result of merging two vertices: the new graph, where each old vertex
    went, and the id of the merged vertex."""

    graph: Graph
    vertex_map: dict[int, int] = field(hash=False)
    merged_vertex: int = 0


def make_path(n: int) -> Graph:
    """Path with n edges on vertices 0..n; edge i joins vertices i-1 and i."""
    if n < 1:
        raise ValueError(f"path needs at least one edge, got n={n}")
    edges = tuple((i, i + 1) for i in range(n))
    evens = frozenset(range(0, n + 1, 2))
    odds = frozenset(range(1, n + 1, 2))
    return Graph(n + 1, edges, (evens, odds))


def make_cycle(n: int) -> Graph:
    """Cycle with n edges on vertices 0..n-1; bipartite exactly when n is even."""
    if n < 3:
        raise ValueError(f"cycle needs at least three edges, got n={n}")
    edges = tuple((i, (i + 1) % n) for i in range(n))
    if n % 2 == 0:
        bipartition = (frozenset(range(0, n, 2)), frozenset(range(1, n, 2)))
    else:
        bipartition = None
    return Graph(n, edges, bipartition)


def _bipartite_sides(n: int) -> tuple[frozenset[int], frozenset[int]]:
    return frozenset(range(n)), frozenset(range(n, 2 * n))


def make_complete_bipartite(n: int) -> Graph:
    """K_{n,n} with X = 0..n-1 and Y = n..2n-1; edges in x-major order."""
    if n < 1:
        raise ValueError(f"side size must be positive, got n={n}")
    edges = tuple((x, n + y) for x in range(n) for y in range(n))
    return Graph(2 * n, edges, _bipartite_sides(n))


def make_circulant_regular_bipartite(n: int, k: int) -> Graph:
    """Deterministic k-regular bipartite graph: x_i adjacent to y_{(i+j) mod n}."""
    if not 1 <= k <= n:
        raise ValueError(f"regularity requires 1 <= k <= n, got k={k}, n={n}")
    edges = tuple((x, n + (x + j) % n) for x in range(n) for j in range(k))
    return Graph(2 * n, edges, _bipartite_sides(n))


def _disjoint_permutation(rng: random.Random, n: int, used: list[set[int]],
                          budget: list[int]) -> list[int] | None:
    """A random permutation avoiding every (x, perm[x]) already in `used`,
    grown position by position with backtracking on collisions.  One always
    exists while fewer than n permutations are taken (Hall), but the search
    is capped by `budget` so a pathological seed cannot spin forever."""
    taken = [False] * n
    perm = [-1] * n

    def place(x: int) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            return False
        candidates = [y for y in range(n) if not taken[y] and y not in used[x]]
        rng.shuffle(candidates)
        for y in candidates:
            perm[x] = y
            taken[y] = True
            if x + 1 == n or place(x + 1):
                return True
            taken[y] = False
        perm[x] = -1
        return False

    return perm if place(0) else None


def make_random_regular_bipartite(n: int, k: int, seed: int) -> Graph:
    """Seeded k-regular bipartite graph built by superposing k permutations.

    Each permutation of 0..n-1 contributes the edges x -> y_perm[x]; a draw
    that would repeat an edge is retried by backtracking.  If the bounded
    retry budget runs out the builder falls back to the circulant
    construction and emits a warning.
    """
    if not 1 <= k <= n:
        raise ValueError(f"regularity requires 1 <= k <= n, got k={k}, n={n}")
    rng = random.Random(seed)
    used: list[set[int]] = [set() for _ in range(n)]
    budget = [RANDOM_REGULAR_MAX_ATTEMPTS * n]
    for _ in range(k):
        perm = _disjoint_permutation(rng, n, used, budget)
        if perm is None:
            warnings.warn(
                f"random regular bipartite generation (n={n}, k={k}, seed={seed}) "
                "exhausted its retry budget; falling back to circulant",
                stacklevel=2,
            )
            return make_circulant_regular_bipartite(n, k)
        for x in range(n):
            used[x].add(perm[x])
    edges = tuple((x, n + y) for x in range(n) for y in sorted(used[x]))
    return Graph(2 * n, edges, _bipartite_sides(n))


def _two_color(vertex_count: int, edges: Iterable[tuple[int, int]]):
    """BFS 2-coloring; returns (X, Y) with the lowest vertex of each component in X,
    or None when some cycle is odd."""
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [-1] * vertex_count
    for start in range(vertex_count):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    return (
        frozenset(v for v in range(vertex_count) if side[v] == 0),
        frozenset(v for v in range(vertex_count) if side[v] == 1),
    )


def identify_vertices(g: Graph, u: int, v: int) -> Identification:
    """Merge two non-adjacent vertices with disjoint neighborhoods into one.

    The merged vertex takes the id min(u, v); ids above max(u, v) shift down
    by one.  Edge order is preserved: edge i of g is edge i of the result.
    The result is built without sides, so Graph derives its bipartiteness
    afresh (merging may break or create it).
    """
    if u == v:
        raise ValueError("cannot identify a vertex with itself")
    for a in (u, v):
        if not 0 <= a < g.vertex_count:
            raise ValueError(f"vertex {a} out of range")
    nu, nv = g.neighbors(u), g.neighbors(v)
    if v in nu:
        raise ValueError(f"vertices {u} and {v} are adjacent; merging would create a loop")
    common = nu & nv
    if common:
        raise ValueError(
            f"vertices {u} and {v} share neighbors {sorted(common)}; "
            "merging would create a multi-edge"
        )
    keep, drop = (u, v) if u < v else (v, u)

    def relabel(w: int) -> int:
        if w == drop:
            return keep
        return w - 1 if w > drop else w

    vertex_map = {w: relabel(w) for w in range(g.vertex_count)}
    new_edges = tuple((relabel(a), relabel(b)) for a, b in g.edges)
    merged = Graph(g.vertex_count - 1, new_edges)
    return Identification(merged, vertex_map, relabel(keep))


# --- file format ------------------------------------------------------------
#
#   graph <vertex_count> <edge_count>        (general header)
#   bipartite <|X|> <|Y|> <edge_count>       (X ids 0..|X|-1, Y ids |X|..)
#   u v                                      (one edge per line, 0-based ids)
#
# Blank lines and '#' comments are ignored; edge index = 1 + position among
# edge lines.
#
# The bipartite header can only express contiguous sides.  Every other graph
# is written with the general header: a non-bipartite one (bipartition None),
# or one whose bipartition is the canonical BFS 2-coloring (paths and even
# cycles split by vertex parity, graphs built without sides).  Loading a
# general header builds the Graph without sides, so Graph derives that same
# 2-coloring, or None for an odd cycle, and the round trip is the identity on
# (vertex_count, ordered edge list, bipartition).


def format_graph(g: Graph, *, comment: str | None = None) -> str:
    lines: list[str] = []
    if comment:
        for piece in comment.splitlines():
            lines.append(f"# {piece}")
    if g.bipartition is not None:
        x_side, y_side = g.bipartition
        nx, ny = len(x_side), len(y_side)
        if x_side == frozenset(range(nx)) and y_side == frozenset(range(nx, nx + ny)):
            lines.append(f"bipartite {nx} {ny} {g.edge_count}")
        elif g.bipartition == _two_color(g.vertex_count, g.edges):
            lines.append(f"graph {g.vertex_count} {g.edge_count}")
        else:
            raise ValueError(
                "this bipartition is neither contiguous nor the canonical 2-coloring, "
                "so no graph file can reproduce it; relabel the graph or drop the "
                "bipartition before saving"
            )
    else:
        lines.append(f"graph {g.vertex_count} {g.edge_count}")
    for a, b in g.edges:
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    header: list[str] | None = None
    edges: list[tuple[int, int]] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            header = line.split()
            if header[0] not in ("graph", "bipartite") or len(header) != (
                3 if header[0] == "graph" else 4
            ):
                raise ValueError(f"bad graph header: {raw_line!r}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {raw_line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if header is None:
        raise ValueError("empty graph file")
    if header[0] == "graph":
        vertex_count, edge_count = int(header[1]), int(header[2])
        bipartition = None  # Graph derives the canonical 2-coloring
    else:
        nx, ny, edge_count = int(header[1]), int(header[2]), int(header[3])
        vertex_count = nx + ny
        bipartition = (frozenset(range(nx)), frozenset(range(nx, nx + ny)))
    if len(edges) != edge_count:
        raise ValueError(f"header declares {edge_count} edges, file has {len(edges)}")
    return Graph(vertex_count, tuple(edges), bipartition)  # validates ranges, simplicity


def save_graph(g: Graph, path, *, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g, comment=comment))


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())
