import json
import time
from random import Random

import pytest

from totref import Graph, GraphError, build_order, disconnecting_pair, is_valid_build_order
from totref.graphs import has_triangle, load_graph, necessary_conditions, parse_graph

from conftest import random_bipartite_connected, to_networkx


def test_parse_and_counts(c4, ten_vertex_g):
    assert (c4.n, c4.e) == (4, 4)
    assert (ten_vertex_g.n, ten_vertex_g.e) == (10, 16)
    assert ten_vertex_g.is_bipartite() and ten_vertex_g.is_connected()


def test_load_graph_round_trip(tmp_path, ten_vertex_g):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(ten_vertex_g.to_json()))
    g = load_graph(path)
    assert g.vertices == ten_vertex_g.vertices
    assert g.edges == ten_vertex_g.edges
    assert g.bipartition == ten_vertex_g.bipartition


def test_parse_errors():
    with pytest.raises(GraphError):
        parse_graph({"vertices": ["a"], "edges": [["a", "b"]]})  # undeclared vertex
    with pytest.raises(GraphError):
        parse_graph({"vertices": ["a", "b"], "edges": [["a", "a"]]})  # self loop
    with pytest.raises(GraphError):
        parse_graph({"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]})  # duplicate
    with pytest.raises(GraphError):
        parse_graph({"vertices": [["a"], "b"], "edges": []})  # unhashable vertex label
    with pytest.raises(GraphError):
        parse_graph({"vertices": ["a"], "edges": [[["a"], "a"]]})  # unhashable edge label
    with pytest.raises(GraphError):
        parse_graph(
            {
                "vertices": ["a", "b", "c"],
                "edges": [["a", "b"]],
                "bipartition": [["a", "b"], ["c"]],
            }
        )  # edge inside one side


def test_bipartition_autodetection(c4):
    g = Graph(c4.vertices, c4.edges)  # no declared bipartition
    assert g.bipartition is not None
    xs, ys = g.bipartition
    assert set(xs) == {"x1", "x2"} and set(ys) == {"y1", "y2"}
    # odd cycle is not bipartite
    c5 = Graph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    assert c5.bipartition is None


def test_necessary_conditions_ten_vertex(ten_vertex_g):
    rep = necessary_conditions(ten_vertex_g)
    assert rep.edge_count_ok  # 16 == 2*10 - 4
    assert rep.triangle_free and rep.leaf_free and not rep.tree
    assert rep.all_necessary_hold
    # an ordering would force WLP and hence exact zero divisors on the
    # canonical reduction, contradicting the disconnecting pair: none exists
    assert rep.build_order is None
    assert rep.disconnecting_pair == ("x5", "y5")


def test_necessary_conditions_path_and_cycle(c4, path4):
    rep = necessary_conditions(path4)
    assert rep.tree and not rep.edge_count_ok  # e = 3 != 4 = 2n - 4
    # n = 3 is the degenerate boundary: e = n - 1 = 2n - 4 = 2
    p3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    rep3 = necessary_conditions(p3)
    assert rep3.tree and rep3.edge_count_ok
    repc = necessary_conditions(c4)
    assert repc.edge_count_ok and repc.triangle_free and repc.leaf_free


def test_disconnected_precondition():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(GraphError):
        necessary_conditions(g)


def test_triangle_against_networkx():
    import networkx as nx

    rng = Random(23)
    for _ in range(30):
        n = rng.randrange(3, 9)
        verts = [f"v{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.append((verts[i], verts[j]))
        g = Graph(verts, edges)
        expected = any(nx.triangles(to_networkx(g)).values())
        assert has_triangle(g) == expected


def test_tree_flag_matches_cycle_detection():
    import networkx as nx

    rng = Random(31)
    for _ in range(25):
        g = random_bipartite_connected(rng, 4, 9, edge_count=rng.randrange(3, 12))
        G = to_networkx(g)
        is_tree = nx.is_tree(G)
        assert (g.e == g.n - 1) == is_tree


def test_build_order_c4_and_trees(c4, path4):
    order = build_order(c4)
    assert order is not None and is_valid_build_order(c4, order)
    # trees on >= 4 vertices cannot work: positions 3..n would need 2(n-2) > n-1 edges
    assert build_order(path4) is None
    star = Graph(["c", "a", "b", "d"], [("c", "a"), ("c", "b"), ("c", "d")])
    assert build_order(star) is None
    # the 3-path is the boundary case: its middle vertex can come last
    p3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    order3 = build_order(p3)
    assert order3 is not None and is_valid_build_order(p3, order3)


def test_build_order_ten_vertex_has_none(ten_vertex_g):
    # e = 2n-4 plus an ordering would give WLP (hence exact zero divisors on
    # the canonical reduction), which this graph provably lacks
    assert build_order(ten_vertex_g) is None


def test_build_order_checker_rejects_bad_orders(c4):
    # both y's see both x's, so this ordering is admissible
    assert is_valid_build_order(c4, ("x1", "x2", "y1", "y2"))
    # third vertex with a single earlier neighbor fails
    path = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    assert not is_valid_build_order(path, ("a", "b", "c", "d"))
    assert not is_valid_build_order(c4, ("x1", "x2", "y1"))  # not a permutation


def test_build_order_closure_on_random_graphs():
    rng = Random(41)
    for _ in range(15):
        g = random_bipartite_connected(rng, 4, 9)
        order = build_order(g)
        if order is not None:
            assert is_valid_build_order(g, order)


def backtracking_build_order(g):
    """Oracle: backtracking over all start pairs, extending with the first
    admissible vertex in declared order at each step (factorial worst case)."""
    n = g.n
    if n <= 2:
        return tuple(g.vertices)
    verts = g.vertices

    def extend(order, placed):
        if len(order) == n:
            return order
        for v in verts:
            if v in placed:
                continue
            back = sum(1 for w in g.neighbors(v) if w in placed)
            if back >= 2:
                placed.add(v)
                order.append(v)
                got = extend(order, placed)
                if got is not None:
                    return got
                order.pop()
                placed.remove(v)
        return None

    for i, v1 in enumerate(verts):
        for v2 in verts[i + 1 :]:
            got = extend([v1, v2], {v1, v2})
            if got is not None:
                return tuple(got)
            got = extend([v2, v1], {v1, v2})
            if got is not None:
                return tuple(got)
    return None


def _random_connected_graph(rng, n):
    """A random connected graph on n shuffled vertices: a random tree plus
    extra edges, so leaves, triangles and dense parts all occur."""
    verts = [f"v{i}" for i in range(n)]
    rng.shuffle(verts)
    edges = {frozenset((verts[i], verts[rng.randrange(i)])) for i in range(1, n)}
    pairs = [frozenset((a, b)) for i, a in enumerate(verts) for b in verts[i + 1 :]]
    edges |= set(rng.sample(pairs, rng.randrange(0, len(pairs) // 2 + 1)))
    edges = [tuple(sorted(e)) for e in edges]
    rng.shuffle(edges)
    return Graph(verts, edges)


def test_build_order_matches_backtracking_oracle():
    rng = Random(77)
    graphs = [random_bipartite_connected(rng, 4, 9) for _ in range(30)]
    graphs += [_random_connected_graph(rng, rng.randrange(1, 10)) for _ in range(60)]
    found = 0
    for g in graphs:
        order = build_order(g)
        assert order == backtracking_build_order(g)
        if order is not None:
            found += 1
            assert is_valid_build_order(g, order)
    assert 0 < found < len(graphs)


def _k2m(m, leaf=False):
    verts = ["u1", "u2"] + [f"w{j}" for j in range(1, m + 1)]
    edges = [(u, f"w{j}") for u in ("u1", "u2") for j in range(1, m + 1)]
    if leaf:
        verts.append("leaf")
        edges.append(("w1", "leaf"))
    return Graph(verts, edges)


def test_build_order_k2m_with_leaf_is_fast():
    # no ordering exists; backtracking took about a second at m = 8, x8 per vertex
    g = _k2m(28, leaf=True)
    start = time.perf_counter()
    assert build_order(g) is None
    assert time.perf_counter() - start < 0.5


def test_build_order_has_no_recursion_limit():
    # a recursive search needs one frame per placed vertex: RecursionError here
    g = _k2m(1100)
    order = build_order(g)
    assert order is not None and is_valid_build_order(g, order)


def test_disconnecting_pair_ten_vertex_first_in_lex_order(ten_vertex_g):
    import networkx as nx

    assert disconnecting_pair(ten_vertex_g) == ("x5", "y5")
    # oracle: exhaustive scan with networkx connectivity
    xs, ys = ten_vertex_g.bipartition
    found = []
    for x in xs:
        for y in ys:
            G = to_networkx(ten_vertex_g)
            G.remove_nodes_from((x, y))
            if len(G) > 1 and not nx.is_connected(G):
                found.append((x, y))
    assert found == [("x5", "y5")]


def test_disconnecting_pair_and_partition_match_networkx():
    """The first cross pair in declared order whose removal disconnects, and
    the CLI's partition from it (the component of the first remaining vertex
    in declared order, then the rest), against networkx on random bipartite
    graphs with shuffled declared orders, sparse ones among them."""
    import networkx as nx

    from totref.cli import _partition_from_pair

    rng = Random(26)
    pairs = 0
    for _ in range(60):
        g0 = random_bipartite_connected(rng, 4, 12, edge_count=rng.randrange(3, 16))
        xs, ys, verts, edges = (list(t) for t in (*g0.bipartition, g0.vertices, g0.edges))
        for t in (xs, ys, verts, edges):
            rng.shuffle(t)
        g = Graph(verts, edges, bipartition=(xs, ys))
        without = lambda pair: to_networkx(g).subgraph(v for v in verts if v not in pair)
        cuts = [
            (x, y) for x in xs for y in ys
            if len(without((x, y))) > 1 and not nx.is_connected(without((x, y)))
        ]
        expected = cuts[0] if cuts else None
        assert disconnecting_pair(g) == expected
        if expected is None:
            continue
        pairs += 1
        rest = [v for v in verts if v not in expected]
        first = nx.node_connected_component(without(expected), rest[0])
        assert _partition_from_pair(g, expected) == (
            [v for v in rest if v in first], [v for v in rest if v not in first]
        )
    assert pairs >= 10


def test_disconnecting_pair_c4_and_star(c4):
    assert disconnecting_pair(c4) is None
    star = Graph(["c", "a", "b", "d"], [("c", "a"), ("c", "b"), ("c", "d")])
    assert star.is_bipartite()
    pair = disconnecting_pair(star)
    # removing the hub and one leaf separates the two remaining leaves
    assert pair is not None and "c" in pair


def test_disconnecting_pair_requires_bipartite():
    c5 = Graph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    with pytest.raises(GraphError):
        disconnecting_pair(c5)
