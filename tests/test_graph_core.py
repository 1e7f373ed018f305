import copy
import itertools
import pickle
import random
import sys
from fractions import Fraction

import pytest

from combinlab.graph_core import (
    DfsRecord,
    Digraph,
    Graph,
    NotEulerianError,
    bfs_forest,
    connected_components,
    dfs,
    euler_cycle,
    fleury_euler_cycle,
    format_graph_text,
    parse_graph_text,
    scc_kosaraju,
)


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def test_graph_invariants():
    from combinlab.paths_mst import WeightedDigraph, WeightedGraph

    g = Graph(4, [(1, 2), (2, 3)])
    assert g.degree(2) == 2
    assert g.adjacency_matrix()[0][1] == 1
    assert [row[0] for row in g.incidence_matrix()] == [1, 1, 0, 0]
    d = Digraph(3, [(3, 1), (1, 2), [3, 1], (3, 2)])  # a repeat keeps the first
    assert d.arcs == ((3, 1), (1, 2), (3, 2)) and d.adj == {1: (2,), 2: (), 3: (1, 2)}
    # Each class, on each single-fault input, with the one-line message.
    builders = [
        (Graph, "edge"),
        (Digraph, "arc"),
        (lambda n, links: WeightedGraph(n, dict.fromkeys(links, 1)), "edge"),
        (lambda n, links: WeightedDigraph(n, dict.fromkeys(links, 1)), "arc"),
    ]
    for build, what in builders:
        faults = [
            (3, [(1.0, 2)], f"{what} (1.0,2) needs int vertices"),
            (3, [(1, "2")], f"{what} (1,'2') needs int vertices"),
            (3, [(True, 2)], f"{what} (True,2) needs int vertices"),
            (3, [(1, 2), (2, None)], f"{what} (2,None) needs int vertices"),
            (3.0, [], "vertex count must be an int, got 3.0"),
            ("3", [(1, 2)], "vertex count must be an int, got '3'"),
            (-1, [], "vertex count must be >= 0"),
            (3, [(1, 4)], f"{what} (1,4) out of range"),
            (3, [(0, 2)], f"{what} (0,2) out of range"),
            (3, [(2, 2)], "self-loops not allowed"),
        ]
        if what == "edge":
            faults.append((3, [(1, 3), (1, 2), (3, 1)], "parallel edge (1, 3)"))
        if build in (Graph, Digraph):  # links the weighted classes' dict keys cannot hold
            faults.append((3, [([1], 2)], f"{what} ([1],2) needs int vertices"))
            faults.append((3, [(1, 2), (1.0, 2)], f"{what} (1.0,2) needs int vertices"))
        for n, links, message in faults:
            with pytest.raises(ValueError) as raised:
                build(n, links)
            assert str(raised.value) == message


def test_digraph_transpose_involution():
    d = Digraph(4, [(1, 2), (3, 1), (2, 4)])
    tt = d.transpose().transpose()
    assert set(tt.arcs) == set(d.arcs)


def test_digraph_transpose_matches_building_the_reversed_digraph():
    from combinlab.paths_mst import WeightedDigraph

    rng = random.Random(5)
    cases = [Digraph(0, []), Digraph(3, []), WeightedDigraph(3, {(2, 1): 4, (1, 3): 1})]
    for _ in range(200):
        n = rng.randint(1, 9)
        arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                if u != v and rng.random() < 0.3]
        rng.shuffle(arcs)
        cases.append(Digraph(n, arcs))
    for d in cases:
        t = d.transpose()
        built = Digraph(d.n, [(v, u) for u, v in d.arcs])
        assert type(t) is Digraph
        assert (t.n, t.arcs, t.adj) == (built.n, built.arcs, built.adj)
        assert list(t.adj) == list(built.adj)


def test_bfs_empty_graph_and_path():
    forest = bfs_forest(Graph(3, []))
    assert len(forest.trees) == 3
    forest = bfs_forest(Graph(3, [(1, 2), (2, 3)]))
    assert forest.trees[0][1] == [(1, 2), (2, 3)]
    assert len(forest.trees) == 1


def test_bfs_k5_single_tree():
    forest = bfs_forest(complete_graph(5))
    assert len(forest.trees) == 1
    assert len(forest.trees[0][1]) == 4


def test_connected_components():
    assert connected_components(Graph(4, [])) == [[1], [2], [3], [4]]
    two_triangles = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert connected_components(two_triangles) == [[1, 2, 3], [4, 5, 6]]
    assert connected_components(complete_graph(5)) == [[1, 2, 3, 4, 5]]


def check_euler(g, walk):
    if not g.edges:
        assert walk == []
        return
    assert walk[0] == walk[-1]
    used = set()
    for u, v in zip(walk, walk[1:]):
        assert g.has_edge(u, v)
        key = (min(u, v), max(u, v))
        assert key not in used
        used.add(key)
    assert len(used) == len(g.edges)


def test_euler_k5():
    g = complete_graph(5)
    walk = euler_cycle(g)
    assert len(walk) == 11
    check_euler(g, walk)


def test_euler_rejects_odd_degree():
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(NotEulerianError) as info:
        euler_cycle(g)
    assert info.value.reason == "OddDegree"


def test_euler_rejects_disconnected():
    g = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    with pytest.raises(NotEulerianError) as info:
        euler_cycle(g)
    assert info.value.reason == "Disconnected"


def test_euler_single_vertex_empty():
    assert euler_cycle(Graph(1, [])) == []
    # isolated vertices do not block an Euler cycle elsewhere
    g = Graph(4, [(1, 2), (2, 3), (1, 3)])
    check_euler(g, euler_cycle(g))


def test_euler_matches_fleury_on_random_graphs():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(1, 8)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.5
        ]
        g = Graph(n, edges)
        try:
            walk = euler_cycle(g)
            verdict = True
        except NotEulerianError:
            verdict = False
        try:
            walk2 = fleury_euler_cycle(g)
            verdict2 = True
        except NotEulerianError:
            verdict2 = False
        assert verdict == verdict2
        if verdict:
            check_euler(g, walk)
            check_euler(g, walk2)


def test_dfs_single_vertex_timestamps():
    rec = dfs(Graph(1, []))
    assert rec.discovery[1] == 1 and rec.finish[1] == 2


def test_dfs_chain_finish_order():
    d = Digraph(3, [(1, 2), (2, 3)])
    rec = dfs(d)
    assert rec.finish[3] < rec.finish[2] < rec.finish[1]


def test_dfs_parenthesis_property():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 9)
        arcs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < 0.3
        ]
        rec = dfs(Digraph(n, arcs))
        stamps = sorted(
            list(rec.discovery.values()) + list(rec.finish.values())
        )
        assert stamps == list(range(1, 2 * n + 1))
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                iu = (rec.discovery[u], rec.finish[u])
                iv = (rec.discovery[v], rec.finish[v])
                disjoint = iu[1] < iv[0] or iv[1] < iu[0]
                nested = (iu[0] < iv[0] and iv[1] < iu[1]) or (
                    iv[0] < iu[0] and iu[1] < iv[1]
                )
                assert disjoint or nested or u == v


def reference_dfs(g, order=None) -> DfsRecord:
    """dfs as it was before the shared walk: the record's dicts and lists
    filled inside the loop."""
    n = g.n
    order = list(range(1, n + 1) if order is None else order)
    rec = DfsRecord({}, {}, {v: None for v in range(1, n + 1)}, [], [])
    discovery, finish, parent = rec.discovery, rec.finish, rec.parent
    time = 0
    for root in order:
        if root in discovery:
            continue
        rec.roots.append(root)
        time += 1
        discovery[root] = time
        stack = [(root, iter(g.neighbors(root)))]
        while stack:
            u, pending = stack[-1]
            for v in pending:
                if v not in discovery:
                    parent[v] = u
                    rec.forest_edges.append((u, v))
                    time += 1
                    discovery[v] = time
                    stack.append((v, iter(g.neighbors(v))))
                    break
            else:
                stack.pop()
                time += 1
                finish[u] = time
    return rec


def reference_scc(g: Digraph) -> list[list[int]]:
    """scc_kosaraju as it was before the shared walk, on reference_dfs."""
    by_finish = list(reversed(reference_dfs(g).finish))
    second = reference_dfs(g.transpose(), order=by_finish)
    blocks: list[list[int]] = []
    for v in second.discovery:
        if second.parent[v] is None:
            blocks.append([])
        blocks[-1].append(v)
    return [sorted(block) for block in blocks]


def test_dfs_and_scc_match_their_record_based_references():
    rng = random.Random(23)
    cases = [Graph(0, []), Digraph(0, []), Graph(1, []), Digraph(3, [])]
    for _ in range(400):
        n = rng.randint(1, 12)
        p = rng.choice((0.1, 0.25, 0.5))
        pairs = itertools.permutations(range(1, n + 1), 2)
        links = [(u, v) for u, v in pairs if rng.random() < p]
        rng.shuffle(links)
        cases.append(Digraph(n, links))
        cases.append(Graph(n, [(u, v) for u, v in links if u < v]))
    for n in (50, 200, 400):  # long paths and many small components
        links = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(2 * n)}
        cases.append(Digraph(n, [(u, v) for u, v in links if u != v]))
    for g in cases:
        orders = [None, rng.sample(range(1, g.n + 1), g.n)]
        for order in orders:
            got, want = dfs(g, order), reference_dfs(g, order)
            for field in DfsRecord.__slots__:  # equal values in the same key order
                a, b = getattr(got, field), getattr(want, field)
                assert a == b and list(a) == list(b), field
        if isinstance(g, Digraph):
            assert scc_kosaraju(g) == reference_scc(g)


def test_graphs_are_values():
    from combinlab.paths_mst import WeightedDigraph, WeightedGraph

    g = Graph(3, [(2, 1), (2, 3)])
    assert g == Graph(3, [(1, 2), (3, 2)]) and hash(g) == hash(Graph(3, [(1, 2), (2, 3)]))
    assert repr(g) == "Graph(3, [(1, 2), (2, 3)])"
    assert g != Graph(3, [(2, 3), (1, 2)])  # edge order shows in the text format
    assert g != Graph(4, [(1, 2), (2, 3)]) and g != Digraph(3, [(1, 2), (2, 3)])
    d = Digraph(3, [(3, 1), (1, 2)])
    assert d == Digraph(3, [(3, 1), (1, 2), (3, 1)]) and d.transpose().transpose() == d
    assert repr(d) == "Digraph(3, [(3, 1), (1, 2)])"
    wg = WeightedGraph(3, {(2, 1): 4, (2, 3): Fraction(1, 2)})
    assert wg == WeightedGraph(3, {(1, 2): 4, (3, 2): Fraction(1, 2)})
    assert hash(wg) == hash(WeightedGraph(3, {(1, 2): 4, (2, 3): Fraction(1, 2)}))
    assert wg != WeightedGraph(3, {(1, 2): 4, (2, 3): 1}) and wg != g
    assert repr(wg) == "WeightedGraph(3, {(1, 2): 4, (2, 3): Fraction(1, 2)})"
    wd = WeightedDigraph(2, {(2, 1): 7})
    assert wd == WeightedDigraph(2, {(2, 1): 7}) and wd != WeightedDigraph(2, {(2, 1): 8})
    assert wd != Digraph(2, [(2, 1)]) and repr(wd) == "WeightedDigraph(2, {(2, 1): 7})"
    for x in (g, d, wg, wd):
        for again in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert again == x and hash(again) == hash(x) and not again != x
    assert len({g, Graph(3, [(1, 2), (2, 3)]), d, wg}) == 3


def brute_scc(d: Digraph) -> list[list[int]]:
    n = d.n
    reach = [[False] * (n + 1) for _ in range(n + 1)]
    for v in range(1, n + 1):
        stack = [v]
        seen = {v}
        while stack:
            u = stack.pop()
            for w in d.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        for w in seen:
            reach[v][w] = True
    comps = []
    assigned = set()
    for v in range(1, n + 1):
        if v in assigned:
            continue
        block = [w for w in range(1, n + 1) if reach[v][w] and reach[w][v]]
        assigned.update(block)
        comps.append(sorted(block))
    return comps


def test_scc_simple_cases():
    assert scc_kosaraju(Digraph(2, [(1, 2), (2, 1)])) == [[1, 2]]
    assert scc_kosaraju(Digraph(3, [(1, 2), (2, 3)])) == [[1], [2], [3]]
    comps = scc_kosaraju(Digraph(4, [(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)]))
    assert comps == [[1, 2], [3, 4]]


def test_scc_condensation_acyclic_and_matches_bruteforce():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 8)
        arcs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < 0.3
        ]
        d = Digraph(n, arcs)
        comps = scc_kosaraju(d)
        assert sorted(map(tuple, comps)) == sorted(map(tuple, brute_scc(d)))
        # condensation emitted sources-first: arcs never point to an
        # earlier component
        index = {}
        for ci, block in enumerate(comps):
            for v in block:
                index[v] = ci
        for u, v in d.arcs:
            assert index[u] <= index[v]


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_dfs_and_scc_on_100k_vertices_leave_recursion_limit_alone(monkeypatch, closed):
    n = 100_000
    limit = sys.getrecursionlimit()

    def refuse(_):
        raise AssertionError("sys.setrecursionlimit called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    d = Digraph(n, [(v, v + 1) for v in range(1, n)] + ([(n, 1)] if closed else []))
    rec = dfs(d)
    assert rec.roots == [1]
    assert rec.discovery[n] == n and rec.finish[n] == n + 1 and rec.finish[1] == 2 * n
    assert rec.parent[n] == n - 1
    blocks = [list(range(1, n + 1))] if closed else [[v] for v in range(1, n + 1)]
    assert scc_kosaraju(d) == blocks
    assert sys.getrecursionlimit() == limit


def test_text_format_roundtrip():
    g = parse_graph_text("# comment\np 5 2\ne 1 2\ne 4 5\n")
    assert isinstance(g, Graph) and g.edges == ((1, 2), (4, 5))
    d = parse_graph_text("pd 3 2\na 1 2\na 3 1\n")
    assert isinstance(d, Digraph) and set(d.arcs) == {(1, 2), (3, 1)}
    text = format_graph_text(g)
    assert parse_graph_text(text).edges == g.edges

    wd = parse_graph_text("pd 3 2\na 1 2 5\na 2 3 1/2\n")
    from fractions import Fraction

    assert wd.weight[(2, 3)] == Fraction(1, 2)


def test_text_format_errors():
    with pytest.raises(ValueError):
        parse_graph_text("")
    with pytest.raises(ValueError):
        parse_graph_text("p 2 1\ne 1 2 3\ne 2 1\n")
    with pytest.raises(ValueError):
        parse_graph_text("p 2 2\ne 1 2\n")
