"""Graph representations, traversals, Euler cycles and strong components.

Vertices are 1..n.  Graphs are immutable after construction; every graph
class builds through one checking pass (int vertices in 1..n, no
self-loops), and undirected graphs also refuse parallel edges and assert
the handshake lemma.

The shared text format is::

    p <n> <m>          # undirected header, then m lines
    e <u> <v> [w]
    pd <n> <m>         # directed header, then m lines
    a <u> <v> [w]

with 1-based vertices, '#' comments, and weights as exact decimal
integers or p/q rationals.
"""

from __future__ import annotations

from fractions import Fraction


class NotEulerianError(ValueError):
    """Graph has no Euler cycle; .reason is 'OddDegree' or 'Disconnected'."""

    def __init__(self, reason: str, vertex: int | None = None):
        self.reason = reason
        self.vertex = vertex
        detail = f"odd degree at {vertex}" if reason == "OddDegree" else "disconnected"
        super().__init__(f"not Eulerian: {detail}")


def _checked_heads(n: int, links, what: str, both_ways: bool) -> dict[int, tuple[int, ...]]:
    """The one checking pass behind every graph class.  n must be an int
    >= 0 and each link (u, v) must join two different int vertices in
    1..n.  Returns each vertex's heads in increasing order: v for every
    link (u, v), and u as well when `both_ways`."""
    if type(n) is not int:
        raise ValueError(f"vertex count must be an int, got {n!r}")
    if n < 0:
        raise ValueError("vertex count must be >= 0")
    heads: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in links:
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"{what} ({u!r},{v!r}) needs int vertices")
        if not (0 < u <= n and 0 < v <= n):
            raise ValueError(f"{what} ({u},{v}) out of range")
        if u == v:
            raise ValueError("self-loops not allowed")
        heads[u].append(v)
        if both_ways:
            heads[v].append(u)
    return {v: tuple(sorted(heads[v])) for v in range(1, n + 1)}


def _first_repeat(items):
    """The first item equal to an earlier one."""
    seen = set()
    for x in items:
        if x in seen:
            return x
        seen.add(x)


class Graph:
    """Undirected simple graph on vertices 1..n."""

    def __init__(self, n: int, edges):
        edges = list(edges)
        self.n = n
        self.adj = _checked_heads(n, edges, "edge", True)
        self.edges = tuple([(u, v) if u < v else (v, u) for u, v in edges])
        if len(set(self.edges)) < len(self.edges):
            raise ValueError(f"parallel edge {_first_repeat(self.edges)}")
        degrees = [len(self.adj[v]) for v in range(1, n + 1)]
        assert sum(degrees) == 2 * len(self.edges)
        assert sum(1 for d in degrees if d % 2) % 2 == 0

    def _key(self) -> tuple:
        return (self.n, self.edges)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def __repr__(self):
        return f"{type(self).__name__}({self.n}, {list(self.edges)!r})"

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int):
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def adjacency_matrix(self) -> list[list[int]]:
        mat = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            mat[u - 1][v - 1] = mat[v - 1][u - 1] = 1
        return mat

    def incidence_matrix(self) -> list[list[int]]:
        mat = [[0] * len(self.edges) for _ in range(self.n)]
        for j, (u, v) in enumerate(self.edges):
            mat[u - 1][j] = mat[v - 1][j] = 1
        return mat

    def complement(self) -> "Graph":
        edges = [
            (u, v)
            for u in range(1, self.n + 1)
            for v in range(u + 1, self.n + 1)
            if v not in self.adj[u]
        ]
        return Graph(self.n, edges)


class Digraph:
    """Directed graph on vertices 1..n without self-loops; a repeated arc
    is dropped, the first occurrence kept."""

    def __init__(self, n: int, arcs):
        # Every arc is checked before repeats go, so (1.0, 2) after (1, 2)
        # is refused, not dropped as equal to it.
        arcs = list(map(tuple, arcs))
        self.n = n
        self.adj = _checked_heads(n, arcs, "arc", False)
        self.arcs = tuple(dict.fromkeys(arcs))
        if len(self.arcs) < len(arcs):  # the repeats' heads go as well
            self.adj = {v: tuple(dict.fromkeys(heads)) for v, heads in self.adj.items()}

    def _key(self) -> tuple:
        return (self.n, self.arcs)

    __eq__ = Graph.__eq__
    __hash__ = Graph.__hash__

    def __repr__(self):
        return f"{type(self).__name__}({self.n}, {list(self.arcs)!r})"

    def neighbors(self, v: int):
        return self.adj[v]

    def transpose(self) -> "Digraph":
        """Every arc reversed, in the same arc order."""
        return Digraph(self.n, [(v, u) for u, v in self.arcs])

    def adjacency_matrix(self) -> list[list[int]]:
        mat = [[0] * self.n for _ in range(self.n)]
        for u, v in self.arcs:
            mat[u - 1][v - 1] = 1
        return mat


def _reversed_heads(adj: dict) -> dict[int, list[int]]:
    """For each vertex of a digraph's adjacency `adj`, the tails of the arcs
    into it; scanning the tails in increasing order leaves each list
    sorted."""
    tails: dict[int, list[int]] = {v: [] for v in adj}
    for u, ws in adj.items():
        for w in ws:
            tails[w].append(u)
    return tails


class BfsForest:
    """Breadth-first forest: one (root, tree edges) entry per component,
    plus the global visitation order."""

    __slots__ = ("trees", "order")

    def __init__(self, trees: list[tuple[int, list[tuple[int, int]]]], order: list[int]):
        self.trees = trees
        self.order = order


def bfs_forest(g: Graph) -> BfsForest:
    visited = set()
    trees = []
    order = []
    for s in range(1, g.n + 1):
        if s in visited:
            continue
        visited.add(s)
        order.append(s)
        queue = [s]
        tree_edges = []
        for v in queue:  # also visits what the loop appends
            for w in g.neighbors(v):
                if w not in visited:
                    visited.add(w)
                    order.append(w)
                    queue.append(w)
                    tree_edges.append((v, w))
        trees.append((s, tree_edges))
    return BfsForest(trees, order)


def connected_components(g: Graph) -> list[list[int]]:
    forest = bfs_forest(g)
    comps = []
    for root, edges in forest.trees:
        block = {root}
        for u, v in edges:
            block.add(u)
            block.add(v)
        comps.append(sorted(block))
    return sorted(comps, key=lambda b: b[0])


def _check_eulerian(g: Graph) -> None:
    """Raise NotEulerianError unless every degree is even and the vertices
    of positive degree lie in one component."""
    for v in range(1, g.n + 1):
        if g.degree(v) % 2:
            raise NotEulerianError("OddDegree", v)
    comps = connected_components(g)
    if sum(1 for c in comps if any(g.degree(v) > 0 for v in c)) > 1:
        raise NotEulerianError("Disconnected")


def euler_cycle(g: Graph) -> list[int]:
    """Closed walk using every edge exactly once: Hierholzer's (1873)
    walk, read forward in one pass over an explicit stack.

    The cycle is read one vertex at a time from the lowest vertex with an
    edge.  A vertex read with an unused edge first lays a closed walk from
    it, taking the lowest unused edge at each step; with every degree even
    that walk can only stop back at the vertex, all of whose edges are then
    used, and it is read next, before the rest.  So each walk is spliced in
    at the first vertex of the cycle so far that still has an unused edge.
    Each edge is looked at twice, so the pass costs O(n + m).

    Isolated vertices are ignored; a graph with no edges yields [].
    Raises NotEulerianError with the violated condition otherwise.
    """
    _check_eulerian(g)
    if not g.edges:
        return []
    heads = {v: iter(ws) for v, ws in g.adj.items()}  # lowest head first
    used = set()  # (w, u) once edge uw is crossed from u; u's iterator is past w
    cycle = []
    todo = [min(v for v in range(1, g.n + 1) if g.degree(v) > 0)]  # to read, next last
    while todo:
        v = todo.pop()
        cycle.append(v)
        walk = []
        u = v
        while True:
            for w in heads[u]:
                if (u, w) not in used:
                    break
            else:
                break
            used.add((w, u))
            walk.append(w)
            u = w
        todo += reversed(walk)
    return cycle


def fleury_euler_cycle(g: Graph) -> list[int]:
    """Euler cycle by Fleury's rule: never cross a bridge of the remaining
    positive-degree graph unless there is no alternative.  Used as a
    cross-check for euler_cycle."""
    _check_eulerian(g)
    if not g.edges:
        return []

    adj = {v: set(g.neighbors(v)) for v in range(1, g.n + 1)}

    def component_count(vertices) -> int:
        _, parent = _walk(adj, vertices)
        return sum(1 for u in parent.values() if u is None)

    def is_bridge(u: int, v: int) -> bool:
        # Vertices already spent are ignored, but an endpoint stranded by
        # this very removal counts as a component of its own.
        active = {x for x in adj if adj[x]}
        before = component_count(active)
        adj[u].discard(v)
        adj[v].discard(u)
        after = component_count(active)
        adj[u].add(v)
        adj[v].add(u)
        return after > before

    v = min(w for w in adj if adj[w])
    cycle = [v]
    remaining = len(g.edges)
    while remaining:
        choices = sorted(adj[v])
        nxt = None
        for w in choices:
            if len(choices) == 1 or not is_bridge(v, w):
                nxt = w
                break
        if nxt is None:
            nxt = choices[0]
        adj[v].discard(nxt)
        adj[nxt].discard(v)
        cycle.append(nxt)
        v = nxt
        remaining -= 1
    return cycle


class DfsRecord:
    """Per-vertex discovery/finish stamps, parents, and the DFS forest."""

    __slots__ = ("discovery", "finish", "parent", "forest_edges", "roots")

    def __init__(self, discovery: dict[int, int], finish: dict[int, int],
                 parent: dict[int, int | None], forest_edges: list[tuple[int, int]],
                 roots: list[int]):
        self.discovery = discovery
        self.finish = finish
        self.parent = parent
        self.forest_edges = forest_edges
        self.roots = roots


def _walk(adj, order) -> tuple[list[int], dict[int, int | None]]:
    """The depth-first walk behind dfs and scc_kosaraju.  Each vertex of
    `order` not yet seen roots a tree, whose vertices are entered in the
    order of the adjacency lists `adj[v]`.  Returns the events in time
    order, +v on entering v and -v on leaving it, and each seen vertex's
    parent (None for a root) in the order the vertices were entered.  The
    walk keeps an explicit stack of (vertex, neighbour iterator) pairs, so
    its Python recursion depth does not grow with the graph."""
    parent: dict[int, int | None] = {}
    stamps: list[int] = []
    for root in order:
        if root in parent:
            continue
        parent[root] = None
        stamps.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            u, pending = stack[-1]
            for v in pending:
                if v not in parent:
                    parent[v] = u
                    stamps.append(v)
                    stack.append((v, iter(adj[v])))
                    break
            else:
                stack.pop()
                stamps.append(-u)
    return stamps, parent


def dfs(g, order=None) -> DfsRecord:
    """Depth-first search over a Graph or Digraph.

    `order` is the outer-loop vertex permutation (default ascending).
    Timestamps are 1..2n with the usual nesting property.
    """
    n = g.n
    order = list(range(1, n + 1) if order is None else order)
    if sorted(order) != list(range(1, n + 1)) or any(type(v) is not int for v in order):
        raise ValueError("order must be a permutation of 1..n")
    stamps, parent = _walk(g.adj, order)
    discovery: dict[int, int] = {}
    finish: dict[int, int] = {}
    for time, v in enumerate(stamps, 1):
        if v > 0:
            discovery[v] = time
        else:
            finish[-v] = time
    return DfsRecord(
        discovery,
        finish,
        {v: parent[v] for v in range(1, n + 1)},
        [(u, v) for v, u in parent.items() if u is not None],
        [v for v, u in parent.items() if u is None],
    )


def scc_kosaraju(g: Digraph) -> list[list[int]]:
    """Strongly connected components via two depth-first walks.

    The second walk scans vertices by decreasing first-walk finish time on
    the transposed graph, and each of its trees is one component;
    components come out in condensation order (sources of the
    condensation first).
    """
    stamps, _ = _walk(g.adj, range(1, g.n + 1))
    by_finish = [-v for v in reversed(stamps) if v < 0]
    _, parent = _walk(_reversed_heads(g.adj), by_finish)  # the transpose
    blocks: list[list[int]] = []
    for v, u in parent.items():  # entered tree by tree
        if u is None:
            blocks.append([])
        blocks[-1].append(v)
    return [sorted(block) for block in blocks]


# --- shared text format -------------------------------------------------


def exact_fraction(value, what: str) -> Fraction:
    """Fraction(value) for an int, a Fraction or a token such as "3/2": the
    one reading of a rational token, here and in the matrix, bin-size and
    eps inputs.  A zero denominator ("1/0") is a ValueError like any other
    bad token."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"bad {what} {value!r}: zero denominator") from None


def _parse_weight(tok: str):
    return exact_fraction(tok, "weight") if "/" in tok else int(tok)


def parse_graph_text(text: str):
    """Parse the shared text format; returns Graph, Digraph,
    WeightedGraph or WeightedDigraph depending on header and weights."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty graph text")
    header = lines[0].split()
    if header[0] not in ("p", "pd") or len(header) != 3:
        raise ValueError("bad header, expected 'p <n> <m>' or 'pd <n> <m>'")
    directed = header[0] == "pd"
    n, m = int(header[1]), int(header[2])
    tag = "a" if directed else "e"
    edges = []
    weights = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] != tag:
            raise ValueError(f"expected '{tag}' line, got: {ln}")
        if len(parts) not in (3, 4):
            raise ValueError(f"bad edge line: {ln}")
        u, v = int(parts[1]), int(parts[2])
        edges.append((u, v))
        weights.append(_parse_weight(parts[3]) if len(parts) == 4 else None)
    if len(edges) != m:
        raise ValueError(f"header promises {m} edges, found {len(edges)}")
    has_weights = [w is not None for w in weights]
    if any(has_weights) and not all(has_weights):
        raise ValueError("either all or no edges may carry weights")
    if all(has_weights) and edges:
        from .paths_mst import WeightedDigraph, WeightedGraph

        pairs = dict(zip(edges, weights))
        if len(pairs) < len(edges):  # a weight map keeps one weight per link
            link = "arc" if directed else "edge"
            raise ValueError(f"repeated {link} {_first_repeat(edges)} in a weighted graph")
        return (WeightedDigraph if directed else WeightedGraph)(n, pairs)
    return Digraph(n, edges) if directed else Graph(n, edges)


def format_graph_text(g) -> str:
    """Serialize a graph's structure back into the shared text format."""
    directed = isinstance(g, Digraph)
    links = g.arcs if directed else g.edges
    out = [("pd" if directed else "p") + f" {g.n} {len(links)}"]
    tag = "a" if directed else "e"
    out.extend(f"{tag} {u} {v}" for u, v in links)
    return "\n".join(out) + "\n"
