import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest

from combinlab.approx import _complete_weighted_graph, random_metric_instance
from combinlab.graph_core import Digraph, Graph, dfs
from combinlab.paths_mst import (
    INF,
    WeightedDigraph,
    WeightedGraph,
    dijkstra,
    floyd_warshall,
    kruskal,
    max_spanning_tree,
    prim,
    reconstruct_path,
    transitive_closure,
    undirected_shortest_path,
)


def test_dijkstra_single_arc():
    g = WeightedDigraph(2, {(1, 2): 5})
    res = dijkstra(g, 1)
    assert res.dist[2] == 5
    assert res.path_to(2) == [1, 2]


def test_dijkstra_triangle():
    g = WeightedDigraph(3, {(1, 2): 1, (2, 3): 1, (1, 3): 3})
    res = dijkstra(g, 1)
    assert res.dist[3] == 2
    assert res.path_to(3) == [1, 2, 3]


def test_dijkstra_unreachable_and_negative():
    g = WeightedDigraph(3, {(1, 2): 1})
    res = dijkstra(g, 1)
    assert res.dist[3] == INF
    with pytest.raises(ValueError):
        res.path_to(3)
    with pytest.raises(ValueError):
        dijkstra(WeightedDigraph(2, {(1, 2): -1}), 1)


def test_floyd_negative_cycle_flags():
    g = WeightedDigraph(2, {(1, 2): -1, (2, 1): -1})
    t = floyd_warshall(g)
    assert t.d(1, 1) < 0
    assert 1 in t.negative_cycle_vertices


def test_floyd_matches_dijkstra_and_path():
    g = WeightedDigraph(3, {(1, 2): 1, (2, 3): 1, (1, 3): 3})
    t = floyd_warshall(g)
    assert t.d(1, 3) == 2
    assert reconstruct_path(t, 1, 3) == [1, 2, 3]
    single = floyd_warshall(WeightedDigraph(1, {}))
    assert single.d(1, 1) == 0
    assert single.negative_cycle_vertices == set()


def test_reconstruct_path_guards():
    g = WeightedDigraph(3, {(1, 2): 1})
    t = floyd_warshall(g)
    with pytest.raises(ValueError):
        reconstruct_path(t, 1, 3)
    neg = floyd_warshall(WeightedDigraph(3, {(1, 2): -2, (2, 1): 1, (2, 3): 1}))
    with pytest.raises(ValueError):
        reconstruct_path(neg, 1, 3)
    assert reconstruct_path(t, 2, 2) == [2]
    # 1 <-> 2 is a cycle of weight -1; 4 leads into it and 3 out of it, so
    # the path 4 -> 1 -> 2 -> 3 runs through it though neither end is flagged
    neg = floyd_warshall(WeightedDigraph(4, {(1, 2): -2, (2, 1): 1, (2, 3): 1, (4, 1): 1}))
    assert neg.negative_cycle_vertices == {1, 2}
    for i, j, message in [
        (1, 1, "endpoint lies on a negative cycle"),
        (0, 1, "vertex out of range"),
        (2, 5, "vertex out of range"),
        (4, 3, "path range touches a negative cycle"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            reconstruct_path(neg, i, j)


def random_weighted_digraph(rng, n, lo=0, hi=9):
    arcs = {}
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and rng.random() < 0.4:
                arcs[(u, v)] = rng.randint(lo, hi)
    return WeightedDigraph(n, arcs)


def test_dijkstra_equals_floyd_rows_random():
    rng = random.Random(4)
    for _ in range(200):
        g = random_weighted_digraph(rng, rng.randint(1, 8))
        t = floyd_warshall(g)
        for s in range(1, g.n + 1):
            res = dijkstra(g, s)
            for v in range(1, g.n + 1):
                if s == v:
                    continue
                assert res.dist[v] == t.d(s, v)


def test_transitive_closure_cases():
    chain = Digraph(3, [(1, 2), (2, 3)])
    t = transitive_closure(chain)
    assert t[1][3] == 1
    empty = transitive_closure(Digraph(3, []))
    for i in range(1, 4):
        for j in range(1, 4):
            assert empty[i][j] == (1 if i == j else 0)


def test_transitive_closure_matches_dfs_reachability():
    rng = random.Random(8)
    for _ in range(50):
        n = 6
        arcs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < 0.3
        ]
        d = Digraph(n, arcs)
        t = transitive_closure(d)
        for s in range(1, n + 1):
            seen = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for w in d.neighbors(u):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            for v in range(1, n + 1):
                assert t[s][v] == (1 if v in seen else 0)
        # idempotence: closing the closure changes nothing
        closure_arcs = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and t[i][j]
        ]
        t2 = transitive_closure(Digraph(n, closure_arcs))
        assert t2 == t


def test_undirected_shortest_path_mirrors_dijkstra():
    g = WeightedGraph(3, {(1, 2): 1, (2, 3): 1, (1, 3): 3})
    dist, path = undirected_shortest_path(g, 1, 3)
    assert dist == 2 and path == [1, 2, 3]
    lonely = WeightedGraph(2, {})
    dist, path = undirected_shortest_path(lonely, 1, 2)
    assert dist == INF and path is None


def spanning_tree_weights(g: WeightedGraph):
    n = g.n
    for subset in itertools.combinations(g.edges, n - 1):
        label = {v: v for v in range(1, n + 1)}
        ok = True
        for u, v in subset:
            ru = label[u]
            rv = label[v]
            if ru == rv:
                ok = False
                break
            for x in label:
                if label[x] == rv:
                    label[x] = ru
        if ok:
            yield sum(g.weight[e] for e in subset)


def test_mst_triangle():
    g = WeightedGraph(3, {(1, 2): 1, (2, 3): 2, (1, 3): 3})
    assert prim(g).total_weight == 3
    assert kruskal(g).total_weight == 3
    assert min(spanning_tree_weights(g)) == 3
    assert max_spanning_tree(g).total_weight == 5


def test_mst_path_graph_is_itself():
    g = WeightedGraph(4, {(1, 2): 4, (2, 3): 1, (3, 4): 7})
    assert sorted(prim(g).edges) == [(1, 2), (2, 3), (3, 4)]


def test_mst_disconnected_raises():
    g = WeightedGraph(4, {(1, 2): 1, (3, 4): 1})
    with pytest.raises(ValueError):
        prim(g)
    with pytest.raises(ValueError):
        kruskal(g)


def test_prim_kruskal_agree_and_match_bruteforce():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(2, 7)
        edges = {}
        weights = rng.sample(range(1, 100), n * (n - 1) // 2)
        idx = 0
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.7:
                    edges[(u, v)] = weights[idx]
                idx += 1
        g = WeightedGraph(n, edges)
        try:
            p = prim(g)
        except ValueError:
            continue  # disconnected draw
        k = kruskal(g)
        assert p.total_weight == k.total_weight == min(spanning_tree_weights(g))
        # distinct weights: the minimum spanning tree is unique
        assert p.edge_set() == k.edge_set()
        assert len(p.edges) == n - 1
        assert max_spanning_tree(g).total_weight == max(spanning_tree_weights(g))


def test_prim_square_with_diagonal():
    g = WeightedGraph(
        4, {(1, 2): 1, (2, 3): 2, (3, 4): 3, (1, 4): 4, (1, 3): 5}
    )
    assert prim(g).edge_set() == kruskal(g).edge_set()


def test_fraction_weights_supported():
    g = WeightedGraph(3, {(1, 2): Fraction(1, 3), (2, 3): Fraction(1, 2), (1, 3): 1})
    assert prim(g).total_weight == Fraction(5, 6)
    res = dijkstra(g.to_digraph(), 1)
    assert res.dist[3] == Fraction(5, 6)


def reference_prim(g: WeightedGraph):
    """prim as it was before it relaxed only the picked vertex's
    neighbours: every outside vertex asks g.w after each pick."""
    n = g.n
    if n == 0:
        raise ValueError("graph not connected")
    in_tree = {1}
    anchor, beta = {}, {}
    for u in range(2, n + 1):
        beta[u] = g.w(u, 1) if 1 in g.adj[u] else INF
        anchor[u] = 1 if 1 in g.adj[u] else None
    edges, total, trace = [], 0, [(1, None, 0)]
    while len(in_tree) < n:
        outside = [u for u in range(1, n + 1) if u not in in_tree]
        pick = min(outside, key=lambda u: (beta[u], u))
        if beta[pick] is INF or beta[pick] == INF:
            raise ValueError("graph not connected")
        edges.append((min(pick, anchor[pick]), max(pick, anchor[pick])))
        total = total + beta[pick]
        trace.append((pick, anchor[pick], beta[pick]))
        in_tree.add(pick)
        for u in outside:
            if u == pick:
                continue
            w = g.w(u, pick)
            if w != INF and (beta[u] == INF or beta[u] > w):
                beta[u] = w
                anchor[u] = pick
    return edges, total, trace


def test_prim_matches_all_outside_reference():
    # Few distinct weights, so ties between labels are common; Fraction
    # weights mix with ints; sparse draws are often disconnected.
    rng = random.Random(31)
    cases = [WeightedGraph(0, {}), WeightedGraph(1, {}), WeightedGraph(3, {(2, 3): 1})]
    for _ in range(600):
        n = rng.randint(1, 12)
        p = rng.choice((0.15, 0.4, 0.8))
        pool = (1, 2, 3, Fraction(1, 2), Fraction(5, 2)) if rng.random() < 0.5 else (1, 2)
        cases.append(WeightedGraph(n, {e: rng.choice(pool) for e in itertools.combinations(
            range(1, n + 1), 2) if rng.random() < p}))
    disconnected = 0
    for g in cases:
        try:
            want = reference_prim(g)
        except ValueError as exc:
            assert str(exc) == "graph not connected"
            with pytest.raises(ValueError, match="^graph not connected$"):
                prim(g)
            disconnected += 1
            continue
        got = prim(g)
        assert (got.edges, got.total_weight, got.prim_trace) == want
        types = [type(got.total_weight)] + [type(w) for _, _, w in got.prim_trace]
        assert types == [type(want[1])] + [type(w) for _, _, w in want[2]]
    assert 50 < disconnected < len(cases) - 300


def array_dijkstra(g: WeightedDigraph, source: int, target=None):
    """dijkstra as it was before its heap: every round rescans all
    vertices for the least temporary label."""
    dist = {v: INF for v in range(1, g.n + 1)}
    pred = {v: None for v in range(1, g.n + 1)}
    dist[source] = 0
    permanent = set()
    current = source
    while True:
        permanent.add(current)
        if target is not None and current == target:
            break
        for v in g.neighbors(current):
            if v in permanent:
                continue
            cand = dist[current] + g.weight[(current, v)]
            if cand < dist[v]:
                dist[v] = cand
                pred[v] = current
        pending = [v for v in range(1, g.n + 1) if v not in permanent and dist[v] != INF]
        if not pending:
            break
        current = min(pending, key=lambda v: (dist[v], v))
    return dist, pred


def array_prim(g: WeightedGraph):
    """prim as it was before its heap: each pick takes the least (beta, u)
    over every outside vertex."""
    n = g.n
    if n == 0:
        raise ValueError("graph not connected")
    beta = {u: INF for u in range(2, n + 1)}
    anchor = {u: None for u in range(2, n + 1)}
    edges, total, trace = [], 0, [(1, None, 0)]
    pick = 1
    while True:
        for u in g.adj[pick]:
            if u in beta:
                w = g.weight[(u, pick) if u < pick else (pick, u)]
                if w < beta[u]:
                    beta[u] = w
                    anchor[u] = pick
        if not beta:
            return edges, total, trace
        pick = min(beta, key=lambda u: (beta[u], u))
        best = beta.pop(pick)
        if best == INF:
            raise ValueError("graph not connected")
        near = anchor[pick]
        edges.append((min(pick, near), max(pick, near)))
        total = total + best
        trace.append((pick, near, best))


def sweep_weight(rng, kind):
    if kind == "ties":
        return rng.randint(0, 2)  # zero arcs and many equal labels
    if kind == "huge":
        return rng.randint(0, 10**12)
    return rng.choice((0, 1, 2, 3, Fraction(1, 2), Fraction(5, 2), Fraction(4, 2)))


def sweep_cases(rng, link):
    """Seeded weighted (di)graphs with n = 1..14 for the heap sweeps:
    `link(n)` lists the candidate links, each kept with a drawn density."""
    for n in range(1, 15):
        for kind in ("ties", "huge", "fraction"):
            for p in (0.15, 0.4, 0.9):
                yield n, {e: sweep_weight(rng, kind) for e in link(n) if rng.random() < p}


def graph_dp_sized(rng, n, links, connected):
    """A graph-dp-sized instance: `links` random links on 1..n, the path
    1-2-...-n first when `connected`, weights 1..1000."""
    chosen = {(u, u + 1) for u in range(1, n)} if connected else set()
    while len(chosen) < links:
        u, v = rng.sample(range(1, n + 1), 2)
        chosen.add((min(u, v), max(u, v)) if connected else (u, v))
    return n, {e: rng.randint(1, 1000) for e in sorted(chosen)}


def test_dijkstra_heap_matches_array_reference():
    rng = random.Random(27)

    def arcs(n):
        return [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]

    unreachable = 0
    for n, weights in sweep_cases(rng, arcs):
        g = WeightedDigraph(n, weights)
        for s in range(1, n + 1):
            for t in (None, *range(1, n + 1)):
                res = dijkstra(g, s, t)
                want = array_dijkstra(g, s, t)
                assert repr((res.dist, res.pred)) == repr(want)
            unreachable += INF in res.dist.values()
    assert unreachable > 100
    for n in (100, 200, 300):
        g = WeightedDigraph(*graph_dp_sized(rng, n, 4 * n, False))
        for s in (1, n // 2, n):
            for t in (None, 1, n // 3, n):
                res = dijkstra(g, s, t)
                assert repr((res.dist, res.pred)) == repr(array_dijkstra(g, s, t))


def prim_cases(rng):
    for n, weights in sweep_cases(rng, lambda n: itertools.combinations(range(1, n + 1), 2)):
        yield WeightedGraph(n, weights)
    yield WeightedGraph(0, {})
    for n in (100, 200, 300):
        yield WeightedGraph(*graph_dp_sized(rng, n, 3 * n, True))
        n, weights = graph_dp_sized(rng, n, 3 * n, True)
        del weights[(n // 2, n // 2 + 1)]  # two halves, unless a random edge joins them
        yield WeightedGraph(n, weights)
    for n in range(3, 17):  # the complete graphs of double tree and Christofides
        for seed in range(3):
            yield _complete_weighted_graph(random_metric_instance(n, seed).matrix)


def test_prim_heap_matches_array_reference():
    disconnected = 0
    for g in prim_cases(random.Random(28)):
        try:
            want = array_prim(g)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                prim(g)
            disconnected += 1
            continue
        got = prim(g)
        assert repr((got.edges, got.total_weight, got.prim_trace)) == repr(want)
    assert 30 < disconnected < 100


def test_max_spanning_tree_matches_the_negated_graph():
    # Kruskal over (-w, e) order is Kruskal on the weight-negated graph.
    for g in prim_cases(random.Random(29)):
        try:
            neg = kruskal(WeightedGraph(g.n, {e: -w for e, w in g.weight.items()}))
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                max_spanning_tree(g)
            continue
        got = max_spanning_tree(g)
        want_total = sum(g.weight[e] for e in neg.edges)
        assert repr((got.edges, got.total_weight)) == repr((neg.edges, want_total))


def test_float_weights_rejected():
    for build in (WeightedGraph, WeightedDigraph):
        with pytest.raises(ValueError, match="^weights must be exact ints or fractions$"):
            build(2, {(1, 2): 0.5})
        with pytest.raises(ValueError, match="needs int vertices$"):
            build(2, {(1.0, 2): 1})


def reference_floyd_warshall(g):
    """Floyd-Warshall as first written: D^(k) from full copies of both
    D^(k-1) matrices, taken every round."""
    n = g.n
    dist = [[INF] * (n + 1) for _ in range(n + 1)]
    succ = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][i] = 0
    for (u, v), w in g.weight.items():
        dist[u][v] = w
        succ[u][v] = v
    for k in range(1, n + 1):
        prev = [row[:] for row in dist]
        prev_succ = [row[:] for row in succ]
        for i in range(1, n + 1):
            dik = prev[i][k]
            if dik == INF:
                continue
            for j in range(1, n + 1):
                dkj = prev[k][j]
                if dkj == INF:
                    continue
                cand = dik + dkj
                if cand < prev[i][j]:
                    dist[i][j] = cand
                    succ[i][j] = prev_succ[i][k]
    return dist, succ, {i for i in range(1, n + 1) if dist[i][i] < 0}


def test_floyd_matches_full_snapshot_reference():
    rng = random.Random(62)
    with_cycles = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        arcs = {}
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if u != v and rng.random() < 0.3:
                    w = rng.randint(-4, 12)
                    arcs[(u, v)] = w if rng.random() < 0.7 else Fraction(w, rng.randint(1, 3))
        g = WeightedDigraph(n, arcs)
        t = floyd_warshall(g)
        want = reference_floyd_warshall(g)
        assert repr((t.dist, t.succ, t.negative_cycle_vertices)) == repr(want)
        with_cycles += bool(want[2])
    assert 50 < with_cycles < 250  # digraphs with and without negative cycles


def test_floyd_packed_rows_match_full_snapshot_reference():
    # Every weight an int >= 0: the packed rows, from fields of three bits
    # to fields wider than 64 bits (weights of 10**40 and more), must give
    # the reference's tables, types included.
    rng = random.Random(19)
    cases = [(0, {}), (1, {}), (2, {}), (2, {(1, 2): 0}), (2, {(1, 2): 0, (2, 1): 0}),
             (2, {(2, 1): 10**40}), (3, {(1, 2): 5, (2, 1): 0})]
    for _ in range(120):
        n = rng.randint(3, 60)
        density = rng.choice((0.02, 0.1, 0.5, 1.0))
        top = rng.choice((0, 1, 9, 2**31, 10**40, 10**45))
        arcs = {(u, v): rng.randint(0, top) for u in range(1, n + 1) for v in range(1, n + 1)
                if u != v and rng.random() < density}
        cases.append((n, arcs))
    unreachable = 0
    for n, arcs in cases:
        g = WeightedDigraph(n, arcs)
        t = floyd_warshall(g)
        want = reference_floyd_warshall(g)
        assert repr((t.dist, t.succ, t.negative_cycle_vertices)) == repr(want)
        assert all(type(d) is int or d is INF for row in t.dist for d in row)
        assert all(type(s) is int for row in t.succ for s in row)
        assert type(t.negative_cycle_vertices) is set
        unreachable += any(d is INF for row in t.dist[1:] for d in row[1:])
    assert 20 < unreachable < len(cases)  # sparse and strongly connected digraphs


def width_digraph(rng, n, w, blocks):
    """Int weights >= 0 whose packed fields are w bits wide: the heaviest
    arc is M, with (M * n + 1).bit_length() == w - 2.  With `blocks`,
    arcs stay inside runs of 10 vertices, each a path plus random chords,
    so the list loop stays cheap at n = 300."""
    heavy = (1 << w - 3) // n + 1
    arcs = {}
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            near = (u - 1) // 10 == (v - 1) // 10
            if u != v and (not blocks or near) and (v == u + 1 or rng.random() < 0.3):
                arcs[(u, v)] = rng.randint(heavy // 2, heavy)
    arcs[(1, 2)] = heavy
    assert (max(arcs.values()) * n + 1).bit_length() + 2 == w
    return arcs


@pytest.mark.parametrize("w", (32, 33, 64, 65))
def test_floyd_field_widths_match_the_list_loop(w):
    # Fields of exactly 32 and 64 bits need no spread; 33 spreads to 64,
    # and 65 to whole bytes, read with int.from_bytes.  One weight made an
    # equal Fraction sends the same digraph to the list loop.
    rng = random.Random(w)
    for n, blocks in ((2, False), (3, False), (17, False), (40, False), (300, True)):
        arcs = width_digraph(rng, n, w, blocks)
        t = floyd_warshall(WeightedDigraph(n, arcs))
        arcs[(1, 2)] = Fraction(arcs[(1, 2)])
        want = floyd_warshall(WeightedDigraph(n, arcs))
        assert (t.dist, t.succ, t.negative_cycle_vertices) == (want.dist, want.succ, set())
        assert all(type(d) is int or d is INF for row in t.dist for d in row)
        assert all(type(s) is int for row in t.succ for s in row)
        assert any(type(d) is Fraction for row in want.dist for d in row)
    for n in (0, 1):
        t = floyd_warshall(WeightedDigraph(n, {}))
        assert repr((t.dist, t.succ, t.negative_cycle_vertices)) == repr(
            reference_floyd_warshall(WeightedDigraph(n, {})))


def test_floyd_scales():
    # An acyclic digraph on 200 vertices with negative arcs: row k reaches
    # only later vertices, so most of each row stays INF.  Copying both
    # matrices every round and scanning every column took about 0.24 s of
    # process CPU on a 2-CPU Linux host under Python 3.11, the row-k
    # update about 0.02 s.
    rng = random.Random(200)
    n = 200
    arcs = {
        (u, v): rng.randint(-20, 60)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < 0.1
    }
    g = WeightedDigraph(n, arcs)
    start = time.process_time()
    t = floyd_warshall(g)
    elapsed = time.process_time() - start
    assert not t.negative_cycle_vertices
    assert all(t.d(j, i) == INF for i in range(1, n + 1) for j in range(i + 1, n + 1))
    assert elapsed < 0.1


def pin_digraph(n, kind):
    """Seeded weighted digraph for the pins below.  `kind` picks the
    weights: "zero" draws from 0..2, "negative" shifts non-negative
    weights by vertex potentials (negative arcs, no negative cycle),
    "fraction" draws p/q with negative arcs and cycles, "negcycle" draws
    integers from -4..12, and "positive" draws 1..100 and adds a cycle
    through every vertex, so the digraph is strongly connected."""
    rng = random.Random(f"{kind}-{n}")
    density = min(0.5, 4 / n)
    potential = [rng.randint(0, 20) for _ in range(n + 1)]
    arcs = {}
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u == v or rng.random() >= density:
                continue
            if kind == "zero":
                arcs[(u, v)] = rng.randint(0, 2)
            elif kind == "negative":
                arcs[(u, v)] = rng.randint(0, 5) + potential[u] - potential[v]
            elif kind == "fraction":
                arcs[(u, v)] = Fraction(rng.randint(-3, 12), rng.randint(1, 4))
            elif kind == "positive":
                arcs[(u, v)] = rng.randint(1, 100)
            else:
                arcs[(u, v)] = rng.randint(-4, 12)
    if kind == "positive":
        for u in range(1, n + 1):
            arcs.setdefault((u, u % n + 1), rng.randint(1, 100))
    return WeightedDigraph(n, arcs)


def table_digest(*tables) -> str:
    return hashlib.sha256(repr(tables).encode()).hexdigest()


def floyd_digest(g) -> str:
    t = floyd_warshall(g)
    return table_digest(t.dist, t.succ, sorted(t.negative_cycle_vertices))


# sha256 of (dist, succ, flagged vertices) and of the closure matrix,
# recorded before Floyd-Warshall and the closure stopped copying matrices;
# the row-k rewrite must not move them.  Fraction weights stop at n = 30:
# their negative cycles make n = 120 take seconds.  The "zero" pins and
# ("positive", 200), recorded from the row-k list loop, hold the packed
# rows that int weights >= 0 now take to the same tables.
FLOYD_TABLES = {
    ("fraction", 1): "bcb6aa4da0f4281fb6abd7c6118064ba2831ea735c246550880e9ac18f4bc7e0",
    ("fraction", 2): "705f0e3ba7e24948b0482faf6b1ff1e9af884fde807102ab32c5ce69f8e01832",
    ("fraction", 5): "c7247269cafba570f8f0ab14b0b596b01df3a2058770f41e7241956670a31c5a",
    ("fraction", 30): "c0f67811d64fa9779fefb2430bada5b8be07c5aca6657292f01f4707c4fb451f",
    ("negative", 1): "bcb6aa4da0f4281fb6abd7c6118064ba2831ea735c246550880e9ac18f4bc7e0",
    ("negative", 2): "4583c7689797a813703389f03853ac14b0581204f0874f07b716c9c6d1c2228e",
    ("negative", 5): "1c8a1d41180ee7ce5ba1fcd5c2b2e7b00db0e358550e13aa9494f5cb058464e1",
    ("negative", 30): "a5e442728e4a0e7ed4815e59623f52c1fa56ddeacd5405c8d05d1368cd5b62b5",
    ("negative", 120): "fae22e2bf6efa36a1795535c6991ee47dc8b60e49611f64d250ad3d919e894c2",
    ("negcycle", 1): "bcb6aa4da0f4281fb6abd7c6118064ba2831ea735c246550880e9ac18f4bc7e0",
    ("negcycle", 2): "0ff9ed33cc7d6191002abfbb0e2f89eb1b06ac81d8086dd2a5f83148bc9ef204",
    ("negcycle", 5): "7d026b40deb6f1de7b31b8741e9ba8c8576aa7247d381461a5ee464788f331f7",
    ("negcycle", 30): "a0ab015f08bdfc918b011c2d504c212f9fce875f6762927429c1243f56b2ae36",
    ("negcycle", 120): "b591c13c985104f5b3bb3d7998c3dcd75dfb2514bc0cbc231447140d8d7e2ec2",
    ("positive", 200): "2e3da7ad61057e3e98cea218c900e30f3ff32bb21a6279f2b18212190f193d73",
    ("zero", 1): "bcb6aa4da0f4281fb6abd7c6118064ba2831ea735c246550880e9ac18f4bc7e0",
    ("zero", 2): "f14d96d53209b78ce720da83619e41984e55018d58af890dc167c31eb38c28bd",
    ("zero", 5): "62ab59a4b15d2fb83bb5ebb31e40feaf90bdb1a826a4e74bc8a51b842f79b9fc",
    ("zero", 30): "324664a130352a0e450009686c61af1a853a5bdc5e4367051347ebd2fa04a149",
    ("zero", 120): "570c95e6b8fddd2c448c9fea5e21c7497ff0103ef6041f49eadf104cbbe26b68",
}

CLOSURE_TABLES = {
    ("fraction", 1): "70be5b38cd309b8b3ccf413b5d4dd0c1905a72cc914aabfeb1cfe5bfb4c5325a",
    ("fraction", 2): "4acdd8cd2cfe4ba80fb756e3978169c345f3ceddcb1b7b49a3beeed45b68e900",
    ("fraction", 5): "3596c88313f5411381b8ada7ca7c441c731783effa4d8814e7d892fefb7e6172",
    ("fraction", 30): "a1aa97591188058b082a661f10910edd34691fe31f2f6645b800ce251790b4ba",
    ("fraction", 120): "df66e5af35539a94148f155314ba4f1cfd2fdefbf5f8614daa9726b9856ec891",
    ("negative", 1): "70be5b38cd309b8b3ccf413b5d4dd0c1905a72cc914aabfeb1cfe5bfb4c5325a",
    ("negative", 2): "d964f638e9d7d568ada863319264658a619fe693fd8fa3d9336ff347e3031d79",
    ("negative", 5): "9cde4105498f72417ebf90e80d4ca53cb79ea91af096ae556da4165b91d134e1",
    ("negative", 30): "d1ddc5ba9668a540c890989cc5a3166a4859f516015b29c3fcbb6e6e188bc090",
    ("negative", 120): "3e73d9f2d34427f8c229ebb80a4f852c2638f628298c0707589fc07d2e70082a",
    ("negcycle", 1): "70be5b38cd309b8b3ccf413b5d4dd0c1905a72cc914aabfeb1cfe5bfb4c5325a",
    ("negcycle", 2): "f07a3e7b8fbc4d280595b9aa68665c06ecc31982a519b9ad12bbae75378a0420",
    ("negcycle", 5): "3596c88313f5411381b8ada7ca7c441c731783effa4d8814e7d892fefb7e6172",
    ("negcycle", 30): "0b0db752b3c3c868ad83e43a2d4389278e5a41864e6966792d6166587129287d",
    ("negcycle", 120): "785d262cb95dee2bcefcc91b46dffbff84f4f58048eefbe73390a08ef12b96c4",
    ("zero", 1): "70be5b38cd309b8b3ccf413b5d4dd0c1905a72cc914aabfeb1cfe5bfb4c5325a",
    ("zero", 2): "4acdd8cd2cfe4ba80fb756e3978169c345f3ceddcb1b7b49a3beeed45b68e900",
    ("zero", 5): "a3b95770e0125f997a4e888bd64b841e15a9f86400771fdd3248b9863286c031",
    ("zero", 30): "10119282d529a067696989712300be7e322b51b121cdea5d04d85ae8fca0fb22",
    ("zero", 120): "4100b1f05a658df9a19aec9ad2987accc1f6f7a76332b8155ce324e7c7bb0c47",
}


@pytest.mark.parametrize("case", sorted(FLOYD_TABLES), ids="{0[0]}-{0[1]}".format)
def test_floyd_tables_pinned(case):
    kind, n = case
    assert floyd_digest(pin_digraph(n, kind)) == FLOYD_TABLES[case]


@pytest.mark.parametrize("case", sorted(CLOSURE_TABLES), ids="{0[0]}-{0[1]}".format)
def test_closure_tables_pinned(case):
    kind, n = case
    assert table_digest(transitive_closure(pin_digraph(n, kind))) == CLOSURE_TABLES[case]
