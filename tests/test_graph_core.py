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
    _check_eulerian,
    bfs_forest,
    connected_components,
    dfs,
    euler_cycle,
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
    assert d.adjacency_matrix() == [[0, 1, 0], [0, 0, 0], [1, 1, 0]]
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


def eulerian_oracle(n, edges) -> bool:
    """Euler's criterion, sharing no code with graph_core: every degree is
    even, and the vertices that hold edges form one component by a
    union-find of their own."""
    parent = list(range(n + 1))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    degree = [0] * (n + 1)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
        parent[root(u)] = root(v)
    if any(d % 2 for d in degree):
        return False
    return len({root(v) for v in range(1, n + 1) if degree[v]}) <= 1


def test_euler_verdict_matches_degree_oracle_on_random_graphs():
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
        except NotEulerianError:
            assert not eulerian_oracle(n, edges)
        else:
            assert eulerian_oracle(n, edges)
            check_euler(g, walk)


def splicing_euler_cycle(g: Graph) -> list[int]:
    """The cycle-splicing construction that euler_cycle replaced, kept as
    the reference: walk from the lowest vertex with an edge, then splice a
    walk in at the first cycle vertex with an unused edge until none is
    left."""
    _check_eulerian(g)
    if not g.edges:
        return []

    unused = {v: list(g.neighbors(v)) for v in range(1, g.n + 1)}
    used = set()

    def walk_cycle(start: int) -> list[int]:
        path = [start]
        v = start
        while True:
            while unused[v] and (min(v, unused[v][0]), max(v, unused[v][0])) in used:
                unused[v].pop(0)
            if not unused[v]:
                break
            w = unused[v].pop(0)
            used.add((min(v, w), max(v, w)))
            path.append(w)
            v = w
        assert path[0] == path[-1]
        return path

    start = min(v for v in range(1, g.n + 1) if g.degree(v) > 0)
    cycle = walk_cycle(start)
    at = 0
    while len(used) < len(g.edges):
        at = next(
            i
            for i, v in enumerate(cycle[at:], at)
            if any((min(v, w), max(v, w)) not in used for w in g.neighbors(v))
        )
        side = walk_cycle(cycle[at])
        cycle = cycle[:at] + side + cycle[at + 1 :]
    return cycle


def euler_outcome(find, g):
    """The cycle `find` returns on g, or its NotEulerianError's reason and
    vertex."""
    try:
        return find(g)
    except NotEulerianError as err:
        return (err.reason, err.vertex)


def graph_dp_like_eulerian(n, rng):
    """A Hamiltonian cycle on a shuffled 1..n plus edge-disjoint short
    cycles, the shape of the benchmark's Euler inputs."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {frozenset(e) for e in zip(order, order[1:] + order[:1])}
    for _ in range(n):
        ring = rng.sample(range(1, n + 1), rng.randint(3, 6))
        links = {frozenset(e) for e in zip(ring, ring[1:] + ring[:1])}
        if not links & edges:
            edges |= links
    return Graph(n, sorted(tuple(sorted(e)) for e in edges))


def test_euler_cycle_matches_splicing_reference():
    cases = 0
    for n in range(6):  # every graph with n <= 5
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
            assert euler_outcome(euler_cycle, g) == euler_outcome(splicing_euler_cycle, g), g
            cases += 1
    rng = random.Random(1873)
    for trial in range(2000):
        n = rng.randint(1, 14)
        if trial % 2 or n < 3:
            density = rng.choice((0.2, 0.5, 0.8))
            edges = {p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < density}
        else:  # symmetric differences of random cycles have even degrees
            edges = set()
            for _ in range(rng.randint(1, 4)):
                ring = rng.sample(range(1, n + 1), rng.randint(3, n))
                edges ^= {tuple(sorted(e)) for e in zip(ring, ring[1:] + ring[:1])}
        g = Graph(n, sorted(edges))
        assert euler_outcome(euler_cycle, g) == euler_outcome(splicing_euler_cycle, g), g
        cases += 1
    for n in (100, 150, 200, 300):
        g = graph_dp_like_eulerian(n, rng)
        walk = euler_cycle(g)
        check_euler(g, walk)
        assert walk == splicing_euler_cycle(g), n
        cases += 1
    # a windmill: 2000 triangles sharing vertex 1
    windmill = Graph(4001, [e for t in range(2000) for e in
                            ((1, 2 * t + 2), (1, 2 * t + 3), (2 * t + 2, 2 * t + 3))])
    assert euler_cycle(windmill) == splicing_euler_cycle(windmill)
    assert cases == 1 + 1 + 2 + 8 + 64 + 1024 + 2000 + 4


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
