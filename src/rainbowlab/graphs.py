"""Graph representation, family builders, vertex identification, and file I/O.

Edges are stored in a fixed order and addressed 1-based (edge ``i`` is
``edges[i - 1]``), because every construction and certificate in this package
is defined in terms of the i-th edge of a path, cycle, or regular bipartite
graph.  Graphs are immutable after construction.  Graph is also the one place
that encodes edge sets as int bitmasks (bit j is edge j + 1): every exact
search in the package reads its ``incidence`` and ``disjoint`` masks.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

__all__ = [
    "Graph",
    "make_path",
    "make_cycle",
    "make_complete_bipartite",
    "make_circulant_regular_bipartite",
    "make_random_regular_bipartite",
    "FAMILIES",
    "make_family",
    "identify_vertices",
    "parse_graph",
    "format_graph",
    "load_graph",
    "save_graph",
]


@dataclass(frozen=True)
class Graph:
    """A finite simple graph with an ordered edge list.

    vertex_count: vertices are 0 .. vertex_count - 1.
    edges: ordered pairs; the pair at position i - 1 is edge i (1-based).
    bipartition: derived, never passed: the canonical BFS 2-coloring (X, Y)
        with the lowest vertex of each component in X, or None exactly when
        the graph has an odd cycle.
    incidence, disjoint: derived edge bitmasks, bit j standing for edge j + 1,
        built on first use and ignored by equality and repr.  incidence[v]
        holds the edges at vertex v; disjoint[j] the edges sharing no vertex
        with edge j + 1.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    bipartition: tuple[frozenset[int], frozenset[int]] | None = field(init=False)

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
        object.__setattr__(self, "bipartition", _two_color(self.vertex_count, self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        masks = [0] * self.vertex_count
        for j, (u, v) in enumerate(self.edges):
            masks[u] |= 1 << j
            masks[v] |= 1 << j
        return tuple(masks)

    @cached_property
    def disjoint(self) -> tuple[int, ...]:
        every, incidence = (1 << len(self.edges)) - 1, self.incidence
        return tuple(every & ~(incidence[u] | incidence[v]) for u, v in self.edges)

    def degrees(self) -> list[int]:
        return [mask.bit_count() for mask in self.incidence]


def make_path(n: int) -> Graph:
    """Path with n edges on vertices 0..n; edge i joins vertices i-1 and i."""
    if n < 1:
        raise ValueError(f"path needs at least one edge, got n={n}")
    edges = tuple((i, i + 1) for i in range(n))
    return Graph(n + 1, edges)


def make_cycle(n: int) -> Graph:
    """Cycle with n edges on vertices 0..n-1; bipartite exactly when n is even."""
    if n < 3:
        raise ValueError(f"cycle needs at least three edges, got n={n}")
    edges = tuple((i, (i + 1) % n) for i in range(n))
    return Graph(n, edges)


def make_complete_bipartite(n: int) -> Graph:
    """K_{n,n} with X = 0..n-1 and Y = n..2n-1; edges in x-major order."""
    if n < 1:
        raise ValueError(f"side size must be positive, got n={n}")
    edges = tuple((x, n + y) for x in range(n) for y in range(n))
    return Graph(2 * n, edges)


def make_circulant_regular_bipartite(n: int, k: int) -> Graph:
    """Deterministic k-regular bipartite graph: x_i adjacent to y_{(i+j) mod n}."""
    if not 1 <= k <= n:
        raise ValueError(f"regularity requires 1 <= k <= n, got k={k}, n={n}")
    edges = tuple((x, n + (x + j) % n) for x in range(n) for j in range(k))
    return Graph(2 * n, edges)


def make_random_regular_bipartite(n: int, k: int, seed: int) -> Graph:
    """Seeded k-regular bipartite graph: the union of k disjoint perfect matchings.

    Each round joins x = 0..n-1 in turn to a random y that is still free and
    not yet adjacent to x.  When no such y is left, x takes one by Kuhn's
    augmenting path over its unused pairs.  After r rounds the unused pairs
    form an (n-r)-regular bipartite graph, which has a perfect matching
    (Hall), so the path always exists and every n, k with 1 <= k <= n builds.
    """
    if not 1 <= k <= n:
        raise ValueError(f"regularity requires 1 <= k <= n, got k={k}, n={n}")
    rng = random.Random(seed)
    used: list[set[int]] = [set() for _ in range(n)]

    def augment(x: int, seen: set[int]) -> bool:
        for y in range(n):
            if y not in used[x] and y not in seen:
                seen.add(y)
                if owner[y] < 0 or augment(owner[y], seen):
                    owner[y] = x
                    return True
        return False

    for _ in range(k):
        owner = [-1] * n  # owner[y]: the x that this round's matching joins to y
        for x in range(n):
            candidates = [y for y in range(n) if owner[y] < 0 and y not in used[x]]
            if candidates:
                rng.shuffle(candidates)
                owner[candidates[0]] = x
            elif not augment(x, set()):
                raise AssertionError(f"no augmenting path from x={x}, against Hall's theorem")
        for y, x in enumerate(owner):
            used[x].add(y)
    edges = tuple((x, n + y) for x in range(n) for y in sorted(used[x]))
    return Graph(2 * n, edges)


FAMILIES = ("path", "cycle", "complete_bipartite", "circulant", "random_regular")


def make_family(family: str, n: int, k: int | None = None, seed: int = 0) -> Graph:
    """The graph of a named family.  circulant and random_regular take n and k
    (random_regular also the seed); the others take n alone.  The builders
    are called by their names in this module, so a wrapper installed on it
    sees every call."""
    if family not in FAMILIES:
        raise ValueError(f"unknown graph family {family!r}; known: {', '.join(FAMILIES)}")
    regular = family in ("circulant", "random_regular")
    if regular and k is None:
        raise ValueError(f"family {family!r} needs both n and k")
    if not regular and k is not None:
        raise ValueError(f"family {family!r} takes only n")
    if family == "path":
        return make_path(n)
    if family == "cycle":
        return make_cycle(n)
    if family == "complete_bipartite":
        return make_complete_bipartite(n)
    if family == "circulant":
        return make_circulant_regular_bipartite(n, k)
    return make_random_regular_bipartite(n, k, seed)


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


def identify_vertices(g: Graph, u: int, v: int) -> Graph:
    """Merge two non-adjacent vertices with disjoint neighborhoods into one.

    The merged vertex takes the id min(u, v); ids above max(u, v) shift down
    by one.  Edge order is preserved: edge i of g is edge i of the result.
    Graph derives the result's bipartition afresh (merging may break or
    create bipartiteness) and rejects the merges that leave it non-simple:
    adjacent u and v give a self-loop, a shared neighbor a duplicate edge,
    and either raises ValueError.
    """
    if u == v:
        raise ValueError("cannot identify a vertex with itself")
    for a in (u, v):
        if not 0 <= a < g.vertex_count:
            raise ValueError(f"vertex {a} out of range")
    keep, drop = (u, v) if u < v else (v, u)

    def relabel(w: int) -> int:
        if w == drop:
            return keep
        return w - 1 if w > drop else w

    new_edges = tuple((relabel(a), relabel(b)) for a, b in g.edges)
    return Graph(g.vertex_count - 1, new_edges)


# --- line files ---------------------------------------------------------------
#
# Graph and coloring files and the verify allowlist share one syntax, read by
# _read_line_file and _data_lines and written by _format_lines: '#' starts a
# comment, blank lines are skipped, and each other line is one record.  A graph file:
#
#   graph <vertex_count> <edge_count>        (general header)
#   bipartite <|X|> <|Y|> <edge_count>       (X ids 0..|X|-1, Y ids |X|..)
#   u v                                      (one edge per line, 0-based ids)
#
# Edge index = 1 + position among edge lines.  A bipartite header is checked
# (every edge crosses its split), but Graph derives the sides, so the round trip
# is the identity on (vertex_count, ordered edge list, bipartition), and
# format_graph writes the bipartite header exactly when the derived X is 0..|X|-1.


def _data_lines(text: str):
    """(raw line, fields) for each line of a line file that holds a record."""
    for raw_line in text.splitlines():
        # most lines carry no comment; skipping their '#' split is a measurable share of a parse
        fields = (raw_line.split("#", 1)[0] if "#" in raw_line else raw_line).split()
        if fields:
            yield raw_line, fields


def _ints(raw_line: str, fields: list[str]) -> tuple[int, ...]:
    """The fields as integers; a field that is not one is reported with its line."""
    try:
        return tuple(map(int, fields))
    except ValueError:
        raise ValueError(f"non-integer field in line {raw_line!r}") from None


def _read_line_file(path, parse):
    """parse(text) of the file at path; a ValueError is re-raised naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _format_lines(lines: list[str], comment: str | None) -> str:
    """A line file: one '# ' line per line of `comment`, then `lines`."""
    if comment:
        lines = [f"# {piece}" for piece in comment.splitlines()] + lines
    return "\n".join(lines) + "\n"


def format_graph(g: Graph, *, comment: str | None = None) -> str:
    sides = g.bipartition
    if sides is not None and sides[0] == frozenset(range(len(sides[0]))):
        header = f"bipartite {len(sides[0])} {len(sides[1])} {g.edge_count}"
    else:
        header = f"graph {g.vertex_count} {g.edge_count}"
    return _format_lines([header] + [f"{a} {b}" for a, b in g.edges], comment)


def parse_graph(text: str) -> Graph:
    lines = _data_lines(text)
    raw_line, header = next(lines, (None, None))
    if header is None:
        raise ValueError("empty graph file")
    if len(header) != {"graph": 3, "bipartite": 4}.get(header[0]):
        raise ValueError(f"bad graph header: {raw_line!r}")
    *sides, edge_count = _ints(raw_line, header[1:])
    edges: list[tuple[int, int]] = []
    for raw_line, fields in lines:
        try:
            u, v = fields
            edges.append((int(u), int(v)))
        except ValueError:
            raise ValueError(f"bad edge line: {raw_line!r}") from None
    if header[0] == "bipartite":
        nx, ny = sides
        if nx < 0 or ny < 0:
            raise ValueError(f"bipartite side sizes must be non-negative, got {nx} and {ny}")
        for u, v in edges:
            if (u < nx) == (v < nx):
                raise ValueError(f"edge ({u}, {v}) does not cross the bipartite header's split")
    if len(edges) != edge_count:
        raise ValueError(f"header declares {edge_count} edges, file has {len(edges)}")
    return Graph(sum(sides), tuple(edges))  # validates ranges, simplicity


def save_graph(g: Graph, path, *, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g, comment=comment))


def load_graph(path) -> Graph:
    return _read_line_file(path, parse_graph)
