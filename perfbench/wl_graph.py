"""graph-dp: a few large graph, 2-SAT and DP instances per round.

Graph and 2-SAT jobs parse their input from text (the shared graph
format, DIMACS).  The work is traversal and table filling in graph_core,
paths_mst, dp and complexity.twosat_solve, with no comparator and no
brute force.  Floyd-Warshall and closure stay at n <= 200 (n = 400 takes
seconds per job).
"""

from __future__ import annotations

from combinlab import complexity as cx
from combinlab import dp
from combinlab import graph_core as gc
from combinlab import paths_mst as pm

import refs
from jobs import LEVELS, Job, rng_for, size_at
from refs import expect

RSS = "self"
PROBE = "loop"

GRAPH_N = (100, 300)
APSP_N = (100, 200)
TWOSAT_VARS = (500, 4000)
ROUND = ("scc", "dfs", "bfs", "components", "euler", "dijkstra", "prim", "kruskal",
         "maxst", "floyd", "closure", "twosat-1", "twosat-2", "chain", "lcs",
         "knapsack", "allocate")
DISTINCT = len(ROUND) * LEVELS  # one full size cycle, about 6 s per pass


def make_job(seed: int, index: int, ctx) -> Job:
    rnd, slot = divmod(index, len(ROUND))
    kind = ROUND[slot]
    return _MAKERS[kind](kind, rng_for(seed, index), rnd, slot)


# --- seeded inputs, written as text by the benchmark itself -------------------


def _arcs(rng, n, out_degree):
    arcs = set()
    while len(arcs) < out_degree * n:
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v:
            arcs.add((u, v))
    return sorted(arcs)


def _connected_edges(rng, n, extra):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _even_edges(rng, n):
    """A Hamiltonian cycle plus edge-disjoint short cycles: every degree is
    even and the graph is connected."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i - 1], order[i]))) for i in range(n)}
    for _ in range(n // 2):
        cyc = rng.sample(range(1, n + 1), rng.randint(3, 8))
        new = {tuple(sorted((cyc[i - 1], cyc[i]))) for i in range(len(cyc))}
        if not new & edges:
            edges |= new
    return sorted(edges)


def _text(n, links, directed, weights=None):
    tag = "a" if directed else "e"
    lines = [f"{'pd' if directed else 'p'} {n} {len(links)}"]
    for u, v in links:
        lines.append(f"{tag} {u} {v}" + (f" {weights[(u, v)]}" if weights else ""))
    return "\n".join(lines) + "\n"


def _graph_job(kind, text, span, fn, check):
    def run(tr):
        g = tr.call("graph_core.parse", gc.parse_graph_text, text)
        return {"view": _view(tr.call(span, fn, g))}

    return Job(kind, text, run, lambda o: check(o["view"]))


def _view(x):
    """JSON-able, order-preserving form of a solver result."""
    if isinstance(x, gc.DfsRecord):
        return {"d": x.discovery, "f": x.finish, "p": x.parent, "roots": x.roots}
    if isinstance(x, gc.BfsForest):
        return {"trees": x.trees, "order": x.order}
    if isinstance(x, pm.DijkstraResult):
        return {"dist": x.dist, "pred": x.pred}
    if isinstance(x, pm.MstResult):
        return {"edges": x.edges, "total": x.total_weight}
    if isinstance(x, pm.FloydTables):
        return {"dist": x.dist, "succ": x.succ}
    return x


# --- graph jobs -----------------------------------------------------------------


def _scc(kind, rng, rnd, slot):
    n = size_at(*GRAPH_N, rnd, slot)
    arcs = _arcs(rng, n, 2)

    def check(comps):
        expect({frozenset(c) for c in comps} == refs.scc_partition(n, arcs), "scc partition")
        where = {v: i for i, c in enumerate(comps) for v in c}
        expect(all(where[u] <= where[v] for u, v in arcs), "scc not in condensation order")

    return _graph_job(kind, _text(n, arcs, True), "graph_core.scc", gc.scc_kosaraju, check)


def _dfs(kind, rng, rnd, slot):
    n = size_at(*GRAPH_N, rnd, slot)
    edges = _connected_edges(rng, n, n)
    edge_set = set(edges)

    def check(v):
        d, f, parent = v["d"], v["f"], v["p"]
        expect(sorted(list(d.values()) + list(f.values())) == list(range(1, 2 * n + 1)),
               "dfs stamps are not 1..2n")
        for u, w in edges:  # undirected DFS has tree and back edges only
            a, b = (u, w) if d[u] < d[w] else (w, u)
            expect(d[b] < f[a] and f[b] < f[a], f"dfs intervals of edge {(u, w)} do not nest")
        for w, u in parent.items():
            if u is not None:
                expect(d[u] < d[w] and (min(u, w), max(u, w)) in edge_set, "dfs parent")

    return _graph_job(kind, _text(n, edges, False), "graph_core.traverse", gc.dfs, check)


def _bfs(kind, rng, rnd, slot):
    n = size_at(*GRAPH_N, rnd, slot)
    edges = _connected_edges(rng, n, n // 2)[: n + n // 4]  # a few components
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    def check(v):
        expect(sorted(v["order"]) == list(range(1, n + 1)), "bfs order is not a permutation")
        for root, tree in v["trees"]:
            dist = refs.bfs_dist(adj, root)
            depth = {root: 0}
            for a, b in tree:
                expect(b in adj.get(a, ()), "bfs tree edge not in graph")
                depth[b] = depth[a] + 1
            expect(depth == dist, "bfs tree depths are not distances")

    return _graph_job(kind, _text(n, edges, False), "graph_core.traverse", gc.bfs_forest, check)


def _components(kind, rng, rnd, slot):
    n = size_at(*GRAPH_N, rnd, slot)
    edges = sorted(set(_connected_edges(rng, n, 0)[: n - n // 10]))

    def check(comps):
        expect(comps == sorted(sorted(b) for b in refs.components(n, edges)), "components")

    return _graph_job(kind, _text(n, edges, False), "graph_core.traverse",
                      gc.connected_components, check)


def _euler(kind, rng, rnd, slot):
    n = size_at(*GRAPH_N, rnd, slot)
    edges = _even_edges(rng, n)
    return _graph_job(kind, _text(n, edges, False), "graph_core.traverse", gc.euler_cycle,
                      lambda walk: refs.check_euler_walk(edges, walk))


def _dijkstra(kind, rng, rnd, slot):
    n = size_at(*GRAPH_N, rnd, slot)
    arcs = _arcs(rng, n, 4)
    w = {a: rng.randint(1, 100) for a in arcs}

    def check(v):
        want = refs.dijkstra_dist(w, 1)
        expect({x: d for x, d in v["dist"].items() if d != pm.INF} == want, "dijkstra distances")

    return _graph_job(kind, _text(n, arcs, True, w), "paths_mst.sssp",
                      lambda g: pm.dijkstra(g, 1), check)


def _mst(fn, maximize):
    def make(kind, rng, rnd, slot):
        n = size_at(*GRAPH_N, rnd, slot)
        edges = _connected_edges(rng, n, 2 * n)
        w = {e: rng.randint(1, 1000) for e in edges}

        def check(v):
            refs.check_spanning_tree(n, w, v["edges"], v["total"])
            expect(v["total"] == refs.mst_weight(n, w, maximize), f"{kind} weight")

        return _graph_job(kind, _text(n, edges, False, w), "paths_mst.mst", fn, check)

    return make


def _floyd(kind, rng, rnd, slot):
    n = size_at(*APSP_N, rnd, slot)
    arcs = _arcs(rng, n, 4)
    w = {a: rng.randint(1, 100) for a in arcs}
    text = _text(n, arcs, True, w)

    def run(tr):
        g = tr.call("graph_core.parse", gc.parse_graph_text, text)
        t = tr.call("paths_mst.apsp", pm.floyd_warshall, g)
        return {"view": _view(t), "graph": g}

    def check(o):
        dist = o["view"]["dist"]
        expect(not any(dist[i][i] < 0 for i in range(1, n + 1)), "negative cycle flagged")
        for s in (1, n // 2, n):
            want = refs.dijkstra_dist(w, s)
            got = {x: dist[s][x] for x in range(1, n + 1) if dist[s][x] != pm.INF}
            lab = pm.dijkstra(o["graph"], s).dist
            expect(got == want, "floyd row differs from the reference Dijkstra")
            expect(all(lab[x] == dist[s][x] for x in range(1, n + 1)),
                   "floyd row differs from the lab's Dijkstra")

    return Job(kind, text, run, check)


def _closure(kind, rng, rnd, slot):
    n = size_at(*APSP_N, rnd, slot)
    arcs = _arcs(rng, n, 1)
    succ: dict[int, list[int]] = {}
    for u, v in arcs:
        succ.setdefault(u, []).append(v)

    def check(t):
        for i in range(1, n + 1):
            expect({j for j in range(1, n + 1) if t[i][j]} == refs.reach(succ, i), "closure row")

    return _graph_job(kind, _text(n, arcs, True), "paths_mst.apsp", pm.transitive_closure, check)


# --- 2-SAT --------------------------------------------------------------------------


def _twosat(kind, rng, rnd, slot):
    nv = size_at(*TWOSAT_VARS, rnd, slot)
    ratio = int(kind[-1])
    clauses = []
    for _ in range(ratio * nv):
        a, b = rng.sample(range(1, nv + 1), 2)
        clauses.append((a * rng.choice((1, -1)), b * rng.choice((1, -1))))
    text = f"p cnf {nv} {len(clauses)}\n" + "".join(f"{a} {b} 0\n" for a, b in clauses)

    def run(tr):
        f = tr.call("complexity.parse", cx.parse_dimacs, text)
        res = tr.call("complexity.twosat", cx.twosat_solve, f)
        return {"view": [res.satisfiable, res.assignment, res.conflict_var]}

    def check(o):
        sat, assignment, conflict = o["view"]
        if sat:
            expect(refs.cnf_satisfied(clauses, assignment), "2-SAT assignment falsifies a clause")
        else:
            expect(refs.twosat_conflict_holds(clauses, conflict), "2-SAT conflict not proven")

    return Job(kind, text, run, check)


# --- dynamic programming ---------------------------------------------------------------


def _chain(kind, rng, rnd, slot):
    m = size_at(100, 200, rnd, slot)
    dims = [rng.randint(2, 60) for _ in range(m + 1)]

    def run(tr):
        cost, expr, _ = tr.call("dp.chain", dp.matrix_chain, dims)
        return {"view": [cost, expr]}

    def check(o):
        cost, expr = o["view"]
        expect(refs.chain_cost(expr, dims) == cost, "chain cost differs from its expression")
        left_to_right = sum(dims[0] * dims[k] * dims[k + 1] for k in range(1, m))
        expect(cost <= left_to_right, "chain cost above the left-to-right order")

    return Job(kind, repr(dims), run, check)


def _lcs(kind, rng, rnd, slot):
    size = size_at(300, 600, rnd, slot)
    x = "".join(rng.choice("ACGT") for _ in range(size))
    y = "".join(rng.choice("ACGT") for _ in range(size))

    def run(tr):
        length, seq, _ = tr.call("dp.lcs", dp.lcs, x, y)
        return {"view": [length, "".join(seq)]}

    def check(o):
        length, seq = o["view"]
        expect(len(seq) == length == refs.lcs_length(x, y), "lcs length")
        expect(refs.is_subsequence(seq, x) and refs.is_subsequence(seq, y), "lcs not common")

    return Job(kind, x + "/" + y, run, check)


def _knapsack(kind, rng, rnd, slot):
    """Eight instances per job: the Pareto sweep's time varies a few-fold
    with the instance (a coefficient of variation near 0.3 at fixed n),
    and the sum of eight varies less from seed to seed."""
    n = size_at(30, 45, rnd, slot)
    instances = []
    for _ in range(8):
        values = [rng.randint(1, 300) for _ in range(n)]
        volumes = [rng.randint(1, 50) for _ in range(n)]
        instances.append((values, volumes, sum(volumes) // 2))

    def run(tr):
        return {"view": [[sorted(chosen), value] for chosen, value in (
            tr.call("dp.knapsack", dp.knapsack_pareto, *inst) for inst in instances)]}

    def check(o):
        for (values, volumes, cap), (chosen, value) in zip(instances, o["view"]):
            expect(sum(volumes[i - 1] for i in chosen) <= cap, "knapsack over capacity")
            expect(sum(values[i - 1] for i in chosen) == value, "knapsack value")
            expect(value == refs.knapsack_best(values, volumes, cap), "knapsack not optimal")

    return Job(kind, repr(instances), run, check)


def _allocate(kind, rng, rnd, slot):
    tasks = size_at(6, 12, rnd, slot)
    b = 20
    costs, profits = [], []
    for _ in range(tasks):
        steps = [0] + sorted(rng.randint(1, 40) for _ in range(b))
        costs.append(steps)
        profits.append([0] + sorted(rng.randint(1, 500) for _ in range(b)))
    budget = 15 * tasks

    def solve(costs, profits, budget):
        return dp.allocate(dp.AllocationInstance.from_lists(costs, profits, budget))

    def run(tr):
        value, plan = tr.call("dp.alloc", solve, costs, profits, budget)
        return {"view": [value, plan]}

    def check(o):
        value, plan = o["view"]
        expect(sum(c[x] for c, x in zip(costs, plan)) <= budget, "allocation over budget")
        expect(sum(p[x] for p, x in zip(profits, plan)) == value, "allocation value")
        expect(value == refs.allocation_best(costs, profits, budget), "allocation not optimal")

    return Job(kind, repr((costs, profits, budget)), run, check)


_MAKERS = {
    "scc": _scc,
    "dfs": _dfs,
    "bfs": _bfs,
    "components": _components,
    "euler": _euler,
    "dijkstra": _dijkstra,
    "prim": _mst(pm.prim, False),
    "kruskal": _mst(pm.kruskal, False),
    "maxst": _mst(pm.max_spanning_tree, True),
    "floyd": _floyd,
    "closure": _closure,
    "twosat-1": _twosat,
    "twosat-2": _twosat,
    "chain": _chain,
    "lcs": _lcs,
    "knapsack": _knapsack,
    "allocate": _allocate,
}
