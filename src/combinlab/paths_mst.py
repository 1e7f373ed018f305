"""Shortest paths, transitive closure, and minimum spanning trees.

Weights are exact integers or fractions; the +infinity sentinel is the
distinct IEEE infinity object (comparisons against exact numbers stay
exact, addition saturates), never a large surrogate number.
"""

from __future__ import annotations

from fractions import Fraction

from .graph_core import Digraph, Graph
from .intmath import _Record, exact_int, field_reader, refuse_floats

INF = float("inf")


class WeightedDigraph(Digraph):
    """Digraph with exactly one exact weight per arc."""

    def __init__(self, n: int, arc_weights: dict):
        refuse_floats(arc_weights.values(), "weights")
        super().__init__(n, arc_weights)
        self.weight = dict(zip(self.arcs, arc_weights.values()))

    def _key(self) -> tuple:
        return (self.n, self.arcs, tuple([self.weight[a] for a in self.arcs]))

    def __repr__(self):
        return f"WeightedDigraph({self.n}, {self.weight!r})"

    def w(self, u: int, v: int):
        return self.weight.get((u, v), INF)


class WeightedGraph(Graph):
    """Undirected graph with exactly one exact weight per edge."""

    def __init__(self, n: int, edge_weights: dict):
        refuse_floats(edge_weights.values(), "weights")
        super().__init__(n, edge_weights)
        self.weight = dict(zip(self.edges, edge_weights.values()))

    def _key(self) -> tuple:
        return (self.n, self.edges, tuple([self.weight[e] for e in self.edges]))

    def __repr__(self):
        return f"WeightedGraph({self.n}, {self.weight!r})"

    def w(self, u: int, v: int):
        return self.weight.get((min(u, v), max(u, v)), INF)

    def to_digraph(self) -> WeightedDigraph:
        """Replace each edge {u, v} by the two arcs (u, v) and (v, u)."""
        arcs = {}
        for (u, v), w in self.weight.items():
            arcs[(u, v)] = w
            arcs[(v, u)] = w
        return WeightedDigraph(self.n, arcs)


class DijkstraResult(_Record):
    __slots__ = ("source", "dist", "pred")  # dist: vertex -> exact distance or INF

    def path_to(self, v: int) -> list[int]:
        if self.dist[v] is INF or self.dist[v] == INF:
            raise ValueError(f"vertex {v} unreachable from {self.source}")
        path = [v]
        while path[-1] != self.source:
            path.append(self.pred[path[-1]])
        return list(reversed(path))


def dijkstra(g: WeightedDigraph, source: int, target: int | None = None) -> DijkstraResult:
    """Single-source shortest paths, with a binary heap of temporary labels.

    Temporary labels shrink via min(l(x), l(p) + d(p, x)); the smallest
    temporary label (ties to the smallest vertex) becomes permanent each
    round.  All weights must be >= 0.  Each strict decrease pushes the
    pair (label, vertex); a pair whose vertex is already permanent is
    stale and skipped (lazy deletion).  A vertex's live pair sorts before
    its stale ones, so the pair popped is the array version's least
    (label, vertex).
    """
    from heapq import heappop, heappush  # here, not at import: approx loads paths_mst

    if any(w < 0 for w in g.weight.values()):
        raise ValueError("Dijkstra requires non-negative weights")
    if not 1 <= exact_int(source, "source") <= g.n:
        raise ValueError("source out of range")
    if target is not None and not 1 <= exact_int(target, "target") <= g.n:
        raise ValueError("target out of range")
    dist = {v: INF for v in range(1, g.n + 1)}
    pred: dict[int, int | None] = {v: None for v in range(1, g.n + 1)}
    dist[source] = 0
    weight = g.weight
    permanent = set()
    heap = [(0, source)]
    while heap:
        label, current = heappop(heap)
        if current in permanent:
            continue
        permanent.add(current)
        if target is not None and current == target:
            break
        for v in g.adj[current]:
            if v in permanent:
                continue
            cand = label + weight[(current, v)]
            if cand < dist[v]:
                dist[v] = cand
                pred[v] = current
                heappush(heap, (cand, v))
    return DijkstraResult(source, dist, pred)


class FloydTables(_Record):
    """All-pairs distance matrix, successor matrix (0 = none), and the
    vertices flagged on negative cycles.  Matrices are 1-based maps."""

    # dist is (n+1) x (n+1), row/col 0 unused
    __slots__ = ("n", "dist", "succ", "negative_cycle_vertices")

    def d(self, i: int, j: int):
        return self.dist[i][j]


def floyd_warshall(g: WeightedDigraph) -> FloydTables:
    """All-pairs shortest paths with successor tracking.

    d(i,i) starts at 0; after the run, vertices with d(i,i) < 0 are
    reported as lying on negative cycles (not raised).  When every weight
    is an int >= 0 the tables come from `_floyd_packed`, which gives the
    same tables.
    """
    if all(type(w) is int and w >= 0 for w in g.weight.values()):
        return _floyd_packed(g)
    n = g.n
    dist = [[INF] * (n + 1) for _ in range(n + 1)]
    succ = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][i] = 0
    for (u, v), w in g.weight.items():
        dist[u][v] = w
        succ[u][v] = v
    for k in range(1, n + 1):
        # D^(k) from D^(k-1), updated in place.  Row i reads only itself and
        # row k, and reads d(i,k) and succ(i,k) before writing; so row k,
        # the one row read after it may change, is the only snapshot taken.
        # With a negative cycle through k, reading row k live would diverge
        # from the recurrence.  Row 0 and column 0 are all INF and drop out.
        row_k = [(j, d) for j, d in enumerate(dist[k]) if d != INF]
        for di, si in zip(dist, succ):
            dik = di[k]
            if dik == INF:
                continue
            sik = si[k]
            for j, dkj in row_k:
                cand = dik + dkj
                if cand < di[j]:
                    di[j] = cand
                    si[j] = sik
    flagged = {i for i in range(1, n + 1) if dist[i][i] < 0}
    return FloydTables(n, dist, succ, flagged)


def _floyd_packed(g: WeightedDigraph) -> FloydTables:
    """floyd_warshall for weights that are all ints >= 0, on packed rows
    (broadword arithmetic, Knuth TAOCP 4A 7.1.3).

    Row i of the distances is one int with a w-bit field per column j,
    at bit j * w, holding d(i,j), or `far` for INF.  No distance reaches
    far, nor n (so the successor rows, packed the same way, fit), and a
    candidate d(i,k) + d(k,j) stays below 2 * far, so it fits under each
    field's top bit, the guard.  Round k adds d(i,k) to every field of
    row k at once, with the guard bits set; subtracting row i clears the
    guard exactly where the candidate is strictly smaller, and those
    fields of row i take the candidate and of its successor row succ(i,k).
    Row k is the snapshot, as in the list loop: an int does not change.
    The finished rows are read back field by field by `field_reader`."""
    n = g.n
    far = max(max(g.weight.values(), default=0), 1) * n + 1  # above every distance and vertex
    w = far.bit_length() + 2
    top = w - 1  # the guard bit's place in a field
    field = (1 << w) - 1
    ones = int("1".zfill(w) * (n + 1), 2)  # 1 in every field
    guard = ones << top
    rows = [far * ones] * (n + 1)
    succ_rows = [0] * (n + 1)
    for i in range(1, n + 1):
        rows[i] -= far << i * w
    for (u, v), d in g.weight.items():
        rows[u] -= (far - d) << v * w
        succ_rows[u] |= v << v * w
    fill = [v * ones for v in range(n + 1)]  # v in every field
    for k in range(1, n + 1):
        row_k = rows[k] | guard
        at = k * w
        for i, ri in enumerate(rows):
            dik = ri >> at & field
            if dik == far:
                continue
            cand = row_k + dik * ones
            kept = (cand - ri) & guard  # the guard bits of fields where cand >= d(i,j)
            if kept != guard:
                marked = kept ^ guard
                mask = marked - (marked >> top)  # the value bits of the marked fields
                rows[i] = ri ^ (ri ^ cand) & mask
                si = succ_rows[i]
                succ_rows[i] = si ^ (si ^ fill[si >> at & field]) & mask
    read = field_reader(n + 1, w)
    dist = [[INF if d == far else d for d in read(r)] for r in rows]
    succ = [read(r) for r in succ_rows]
    return FloydTables(n, dist, succ, set())


def reconstruct_path(t: FloydTables, i: int, j: int) -> list[int]:
    """Shortest path i -> j from the successor matrix.

    Refuses pairs touching a negative cycle (endpoints flagged, or some
    flagged k with finite d(i,k) and d(k,j)).
    """
    if not (1 <= exact_int(i, "i") <= t.n and 1 <= exact_int(j, "j") <= t.n):
        raise ValueError("vertex out of range")
    if i == j:
        if i in t.negative_cycle_vertices:
            raise ValueError("endpoint lies on a negative cycle")
        return [i]
    if t.succ[i][j] == 0:
        raise ValueError(f"no path from {i} to {j}")
    if i in t.negative_cycle_vertices or j in t.negative_cycle_vertices:
        raise ValueError("endpoint lies on a negative cycle")
    for k in t.negative_cycle_vertices:
        if t.dist[i][k] != INF and t.dist[k][j] != INF:
            raise ValueError("path range touches a negative cycle")
    path = [i]
    guard = 0
    while path[-1] != j:
        path.append(t.succ[path[-1]][j])
        guard += 1
        if guard > t.n:
            raise ValueError("successor matrix is cyclic")
    return path


def transitive_closure(g: Digraph) -> list[list[int]]:
    """Boolean reachability closure, reflexive by convention.

    closure[i][j] (1-based) is 1 iff i == j or a directed path i -> j
    exists.  Row/col 0 unused.
    """
    n = g.n
    t = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        t[i][i] = 1
    for u, v in g.arcs:
        t[u][v] = 1
    for k in range(1, n + 1):
        # Round k leaves row k as it is (t[k][k] = 1), so its set columns,
        # taken once, serve every row; row 0 is all zeros.
        cols = [j for j in range(1, n + 1) if t[k][j]]
        for row in t:
            if row[k]:
                for j in cols:
                    row[j] = 1
    return t


def undirected_shortest_path(g: WeightedGraph, u: int, v: int):
    """Shortest path in an undirected graph via the doubled digraph."""
    res = dijkstra(g.to_digraph(), u, target=v)
    return res.dist[v], (res.path_to(v) if res.dist[v] != INF else None)


class MstResult(_Record):
    __slots__ = ("edges", "total_weight", "prim_trace")  # prim_trace: None unless made by prim

    def edge_set(self) -> frozenset:
        return frozenset(self.edges)


def prim(g: WeightedGraph) -> MstResult:
    """Minimum spanning tree with (anchor, best-distance) labels.

    After a vertex v joins the tree, each outside neighbour u of v
    refreshes its label via: if beta(u) > d(u, v) then beta(u) = d(u, v),
    anchor = v; no other label can change.  Each such drop pushes (beta(u),
    u) on a binary heap (Johnson 1977); pairs of vertices already in the
    tree are skipped, so the pair picked is the least (beta(u), u) outside.
    """
    from heapq import heappop, heappush  # here, not at import: approx loads paths_mst

    n = g.n
    if n == 0:
        raise ValueError("graph not connected")
    weight = g.weight
    beta: dict[int, object] = {u: INF for u in range(2, n + 1)}  # the outside vertices
    anchor: dict[int, int] = {}
    heap = []
    edges = []
    total = 0
    trace = [(1, None, 0)]
    pick = 1
    while True:
        for u in g.adj[pick]:
            if u in beta:
                w = weight[(u, pick) if u < pick else (pick, u)]
                if w < beta[u]:  # INF exceeds every exact weight
                    beta[u] = w
                    anchor[u] = pick
                    heappush(heap, (w, u))
        if not beta:
            return MstResult(edges, total, trace)
        while True:
            if not heap:  # every outside label is INF
                raise ValueError("graph not connected")
            pick = heappop(heap)[1]
            if pick in beta:
                break
        best = beta.pop(pick)
        near = anchor[pick]
        edges.append((min(pick, near), max(pick, near)))
        total = total + best
        trace.append((pick, near, best))


def kruskal(g: WeightedGraph) -> MstResult:
    """Minimum spanning tree by edges in stable (weight, u, v) order with
    union-find (path halving) for the cycle test."""
    return _kruskal(g, sorted(g.edges, key=lambda e: (g.weight[e], e)))


def max_spanning_tree(g: WeightedGraph) -> MstResult:
    """Maximum spanning tree: Kruskal over the edges in (-weight, u, v)
    order, the order of the weight-negated graph."""
    return _kruskal(g, sorted(g.edges, key=lambda e: (-g.weight[e], e)))


def _kruskal(g: WeightedGraph, ordered) -> MstResult:
    """Kruskal's loop over the edges of g in the given order."""
    if g.n == 0:
        raise ValueError("graph not connected")
    parent = list(range(g.n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    total = 0
    for u, v in ordered:
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        parent[rv] = ru
        edges.append((u, v))
        total = total + g.weight[(u, v)]
    if len(edges) != g.n - 1:
        raise ValueError("graph not connected")
    return MstResult(edges, total, prim_trace=None)
