"""Graph ingestion and the combinatorial conditions imposed on input graphs.

Graphs are simple, undirected, with ordered string vertex labels; the order
of vertices and edges in the input file is significant so that every derived
object (bases, orderings, reports) is deterministic.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Optional


class GraphError(ValueError):
    pass


class Graph:
    """A simple undirected graph with an optional bipartition (X-side, Y-side)."""

    __slots__ = ("vertices", "edges", "bipartition", "_index", "_adj")

    def __init__(self, vertices, edges, bipartition=None):
        self.vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise GraphError("duplicate vertex labels")
        norm = []
        seen = set()
        for e in edges:
            u, v = e
            if u not in self._index or v not in self._index:
                raise GraphError(f"edge {e!r} uses an undeclared vertex")
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            key = frozenset((u, v))
            if key in seen:
                raise GraphError(f"duplicate edge {e!r}")
            seen.add(key)
            if self._index[u] > self._index[v]:
                u, v = v, u
            norm.append((u, v))
        self.edges = tuple(norm)
        self._adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            self._adj[u].append(v)
            self._adj[v].append(u)
        if bipartition is not None:
            xs, ys = tuple(bipartition[0]), tuple(bipartition[1])
            if sorted(xs + ys) != sorted(self.vertices):
                raise GraphError("bipartition does not partition the vertex set")
            xset = set(xs)
            for u, v in self.edges:
                if (u in xset) == (v in xset):
                    raise GraphError(f"edge {u}-{v} does not cross the declared bipartition")
            self.bipartition = (xs, ys)
        else:
            self.bipartition = self._two_coloring()

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def e(self) -> int:
        return len(self.edges)

    def neighbors(self, v):
        return tuple(self._adj[v])

    def degree(self, v) -> int:
        return len(self._adj[v])

    def components(self, removed=()):
        """Connected components of the graph without the removed vertices, by
        breadth-first search from each first unseen vertex in declared order.
        Each is a dict mapping a vertex to the parity (0 or 1) of its
        distance from that start vertex."""
        comps = []
        removed = set(removed)
        seen = set(removed)
        for start in self.vertices:
            if start in seen:
                continue
            comp = {start: 0}
            queue = [start]
            for u in queue:  # the queue grows while it is walked
                for w in self._adj[u]:
                    if w not in comp and w not in removed:
                        comp[w] = 1 - comp[u]
                        queue.append(w)
            seen.update(comp)
            comps.append(comp)
        return comps

    def _two_coloring(self):
        """(X-side, Y-side) in declared vertex order from the component
        parities, or None when an edge joins two vertices of equal parity."""
        color = {v: c for comp in self.components() for v, c in comp.items()}
        if any(color[u] == color[v] for u, v in self.edges):
            return None
        return (
            tuple(v for v in self.vertices if color[v] == 0),
            tuple(v for v in self.vertices if color[v] == 1),
        )

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def is_bipartite(self) -> bool:
        return self.bipartition is not None

    def to_json(self) -> dict:
        obj = {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]}
        if self.bipartition is not None:
            obj["bipartition"] = [list(self.bipartition[0]), list(self.bipartition[1])]
        return obj

    def __repr__(self):
        return f"Graph(n={self.n}, e={self.e})"


def parse_graph(obj: dict) -> Graph:
    """The graph of an object as ``Graph.to_json`` writes it."""
    get = obj.get if isinstance(obj, dict) else {}.get
    vertices, edges, sides = get("vertices"), get("edges"), get("bipartition")
    if not (
        _labels(vertices) and isinstance(edges, list) and all(_labels(e, 2) for e in edges)
        and (sides is None or isinstance(sides, list) and len(sides) == 2)
        and all(map(_labels, sides or ()))
    ):
        raise GraphError(
            "malformed graph object: it needs string vertex labels, edges as label pairs "
            "and no bipartition or one of two label lists"
        )
    return Graph(vertices, edges, sides)


def _labels(value, size=None) -> bool:
    """value is a list of string labels, of the size when given."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value) and (
        size in (None, len(value))
    )


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphError(f"graph file is not valid JSON: {exc}") from exc
        except RecursionError as exc:  # the decoder recurses once per nesting level
            raise GraphError("graph file is nested too deeply to read") from exc
    return parse_graph(obj)


@dataclass
class ConditionReport:
    """Combinatorial necessary conditions for non-free totally reflexive modules."""

    connected: bool
    bipartite: bool
    edge_count_ok: bool  # e == 2n - 4
    triangle_free: bool
    leaf_free: bool
    tree: bool  # e == n - 1 (and connected)
    build_order: Optional[tuple] = None
    disconnecting_pair: Optional[tuple] = None
    failures: tuple = field(default_factory=tuple)

    @property
    def all_necessary_hold(self) -> bool:
        return self.edge_count_ok and self.triangle_free and self.leaf_free

    def to_json(self) -> dict:
        return {
            "connected": self.connected,
            "bipartite": self.bipartite,
            "edge_count_ok": self.edge_count_ok,
            "triangle_free": self.triangle_free,
            "leaf_free": self.leaf_free,
            "tree": self.tree,
            "build_order": list(self.build_order) if self.build_order else None,
            "disconnecting_pair": list(self.disconnecting_pair) if self.disconnecting_pair else None,
            "failures": list(self.failures),
        }


def has_triangle(g: Graph) -> bool:
    for u, v in g.edges:
        common = set(g.neighbors(u)) & set(g.neighbors(v))
        if common:
            return True
    return False


def necessary_conditions(g: Graph) -> ConditionReport:
    if not g.is_connected():
        raise GraphError("graph must be connected")
    tri_free = not has_triangle(g)
    leaf_free = all(g.degree(v) != 1 for v in g.vertices)
    report = ConditionReport(
        connected=True,
        bipartite=g.is_bipartite(),
        edge_count_ok=(g.e == 2 * g.n - 4),
        triangle_free=tri_free,
        leaf_free=leaf_free,
        tree=(g.e == g.n - 1),
        build_order=build_order(g),
        disconnecting_pair=disconnecting_pair(g) if g.is_bipartite() else None,
    )
    failures = []
    if not report.edge_count_ok:
        failures.append("edge count differs from 2n-4")
    if not report.triangle_free:
        failures.append("graph contains a 3-cycle")
    if not report.leaf_free:
        failures.append("graph has a leaf")
    report.failures = tuple(failures)
    return report


def is_valid_build_order(g: Graph, order) -> bool:
    """Checker: every vertex from the third on has >= 2 earlier neighbors."""
    if sorted(order) != sorted(g.vertices):
        return False
    placed = set()
    for i, v in enumerate(order):
        if i >= 2:
            back = sum(1 for w in g.neighbors(v) if w in placed)
            if back < 2:
                return False
        placed.add(v)
    return True


def build_order(g: Graph):
    """An ordering where each vertex past the second sees >= 2 earlier ones.

    Start pairs are tried in declared order.  Placing a vertex never lowers
    another vertex's count of placed neighbours, so a vertex that becomes
    admissible stays admissible, and appending any admissible vertex keeps
    every vertex that could still be placed placeable.  Hence from a start
    pair, repeatedly appending the first admissible vertex in declared order
    either places every vertex, giving the first ordering a backtracking
    search would find, or gets stuck, and then no ordering starts with that
    pair (in either order: the tail depends only on the placed set).  Costs
    O((n + e) log n) per start pair, with no recursion.  Returns None when no
    ordering exists (e.g. for trees, where the last leaf has a single back
    edge).
    """
    if not g.is_connected():
        raise GraphError("graph must be connected")
    n = g.n
    if n <= 2:
        return tuple(g.vertices)
    verts = g.vertices
    for a in range(n):
        for b in range(a + 1, n):
            back = dict.fromkeys(verts, 0)
            back[verts[a]] = back[verts[b]] = 2  # the start pair goes first
            ready = [a, b]  # heap of declared indices of admissible, unplaced vertices
            order, placed = [], set()
            while ready:
                v = verts[heapq.heappop(ready)]
                placed.add(v)
                order.append(v)
                for w in g.neighbors(v):
                    if w not in placed:
                        back[w] += 1
                        if back[w] == 2:
                            heapq.heappush(ready, g._index[w])
            if len(order) == n:
                return tuple(order)
    return None


def disconnecting_pair(g: Graph):
    """First cross pair (x_i, y_j), in declared order, whose removal disconnects.

    Removal leaving at most one vertex counts as connected.
    """
    if not g.is_bipartite():
        raise GraphError("graph must be bipartite")
    xs, ys = g.bipartition
    for x in xs:
        for y in ys:
            if len(g.components(removed=(x, y))) > 1:
                return (x, y)
    return None
