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
integers or p/q rationals.  In full:

* Lines are those of `str.splitlines` (so "\\r\\n", "\\x0b" and "\\x0c" end
  a line too), each stripped of whitespace.  Blank lines and lines whose
  first character is then '#' are skipped, before the header as well as
  after it; a '#' later in a line is part of a token.
* Tokens are the runs between whitespace, as `str.split` cuts them.
* The first line left is the header: exactly three tokens, `p` or `pd`,
  then n and m as `int()` reads them (a sign, '_' between digits and
  Unicode digits are accepted).  An n above HEADER_VERTEX_CAP is refused
  with InstanceTooLargeError before anything is allocated.
* Every later line is the tag (`e` after `p`, `a` after `pd`), u and v
  as `int()` reads them, and an optional weight w: a token with a '/' is
  a p/q rational (`fractions.Fraction`, a zero denominator refused), any
  other an int.
* Either every line carries a weight or none does; a weighted body gives
  WeightedGraph or WeightedDigraph, in which a link may not repeat.
* There must be exactly m lines after the header.
"""

from __future__ import annotations

from fractions import Fraction

from .intmath import InstanceTooLargeError, _Record

# The largest vertex count a graph header may declare: the graph allocates a
# list per vertex before it reads an edge.  perfbench's largest graphs have
# 300 vertices.
HEADER_VERTEX_CAP = 10**6


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


class _GraphBase:
    """Value semantics shared by Graph and Digraph: two graphs are equal
    when they have the same class and the same `_key()`, whose second
    entry is the edge or arc tuple."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def __repr__(self):
        return f"{type(self).__name__}({self.n}, {list(self._key()[1])!r})"

    def neighbors(self, v: int):
        return self.adj[v]

    def adjacency_matrix(self) -> list[list[int]]:
        mat = [[0] * self.n for _ in range(self.n)]
        for u, heads in self.adj.items():
            for v in heads:
                mat[u - 1][v - 1] = 1
        return mat


class Graph(_GraphBase):
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

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

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


class Digraph(_GraphBase):
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

    def transpose(self) -> "Digraph":
        """Every arc reversed, in the same arc order."""
        return Digraph(self.n, [(v, u) for u, v in self.arcs])


class BfsForest(_Record):
    """Breadth-first forest: one (root, tree edges) entry per component,
    plus the global visitation order."""

    __slots__ = ("trees", "order")


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


class DfsRecord(_Record):
    """Per-vertex discovery/finish stamps, parents, and the DFS forest."""

    __slots__ = ("discovery", "finish", "parent", "forest_edges", "roots")


def _walk(adj, order) -> tuple[list[int], dict[int, int | None]]:
    """The depth-first walk behind dfs and the first pass of _scc_labels
    (scc_kosaraju, complexity.twosat_solve).  Each vertex of `order` not
    yet seen roots a tree, whose vertices are entered in the order of the
    adjacency lists `adj[v]` (`adj` a dict or a list indexed by vertex).
    Returns the events in time order, +v on entering v and -v on leaving
    it, and each seen vertex's parent (None for a root) in the order the
    vertices were entered.  The walk keeps an explicit stack of (vertex,
    neighbour iterator) pairs, so its Python recursion depth does not grow
    with the graph."""
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


def _scc_labels(adj, tails, n: int) -> tuple[list[int], int]:
    """Kosaraju's two passes (Sharir 1981) over vertices 1..n: label[v] is
    the index of v's strong component, sources of the condensation first,
    and the count of components comes with it.

    `adj[v]` lists v's heads in ascending order and `tails[v]` the tails of
    the arcs into v, in any order; a repeated arc may appear in both.  The
    first pass is the depth-first _walk in vertex order, whose finish order
    fixes the labels.  The second floods `tails` from each unlabelled
    vertex in decreasing finish order; each flood is exactly one component,
    whatever order it reaches its vertices in.
    """
    stamps, _ = _walk(adj, range(1, n + 1))
    label = [-1] * (n + 1)
    count = 0
    for root in reversed(stamps):
        if root > 0 or label[-root] >= 0:
            continue
        label[-root] = count
        flood = [-root]
        for v in flood:  # also floods what the loop appends
            for u in tails[v]:
                if label[u] < 0:
                    label[u] = count
                    flood.append(u)
        count += 1
    return label, count


def scc_kosaraju(g: Digraph) -> list[list[int]]:
    """Strongly connected components by Kosaraju's two passes, in
    condensation order (sources of the condensation first), each block in
    increasing vertex order: the vertices 1..n bucketed by their
    _scc_labels label."""
    n = g.n
    tails: list[list[int]] = [[] for _ in range(n + 1)]  # the transpose
    for u, heads in g.adj.items():
        for v in heads:
            tails[v].append(u)
    label, count = _scc_labels(g.adj, tails, n)
    blocks: list[list[int]] = [[] for _ in range(count)]
    for v in range(1, n + 1):
        blocks[label[v]].append(v)
    return blocks


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


def parse_matrix(text: str) -> list[list]:
    """Square whitespace grid of integers and p/q rationals."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    try:
        matrix = [[exact_fraction(tok, "entry") if "/" in tok else int(tok) for tok in row]
                  for row in rows]
    except ValueError as exc:
        raise ValueError(f"bad matrix: {exc}") from None
    if any(len(r) != len(matrix) for r in matrix):
        raise ValueError("matrix must be square")
    return matrix


def _parse_weight(tok: str):
    return exact_fraction(tok, "weight") if "/" in tok else int(tok)


def _columns(body: str, tag: str, count: int):
    """(links, weights or None) of a body of `count` lines, each led by a
    newline and holding the same number `width` of tokens, 3 or 4, the tag
    first; None if a line does not, or if a token does not read.

    The checks suffice without a split per line: once every token outside
    column 0 has read as a number, none of them starts with a letter,
    while each of the `count` lines starts with the tag's.  So every
    line's first token lies in column 0, at one of the `count` multiples
    of `width` below `width * count`, and each line holds `width` tokens."""
    tokens = body.split()
    width = len(tokens) // count if count else 3
    if (width not in (3, 4) or len(tokens) != width * count
            or body.count("\n" + tag) != count or tokens[::width].count(tag) != count):
        return None
    try:
        links = list(zip(map(int, tokens[1::width]), map(int, tokens[2::width])))
        if width == 3:
            return links, None
        return links, list(map(_parse_weight if "/" in body else int, tokens[3::4]))
    except ValueError:
        return None


def _raise_first_error(lines, tag: str, m: int):
    """Raise the first error a line-by-line reading meets: per line its
    tag, its width, its vertices and its weight, then the edge count, then
    mixed weights.  Called only on a body `_columns` refused, so when
    every line reads on its own, the lines differ in width."""
    for ln in lines:
        parts = ln.split()
        if parts[0] != tag:
            raise ValueError(f"expected '{tag}' line, got: {ln}")
        if len(parts) not in (3, 4):
            raise ValueError(f"bad edge line: {ln}")
        int(parts[1]), int(parts[2])
        if len(parts) == 4:
            _parse_weight(parts[3])
    if len(lines) != m:
        raise ValueError(f"header promises {m} edges, found {len(lines)}")
    raise ValueError("either all or no edges may carry weights")


def parse_graph_text(text: str):
    """Parse the shared text format; returns Graph, Digraph,
    WeightedGraph or WeightedDigraph depending on header and weights.  The
    body is read as token columns; a body that does not read that way goes
    through `_raise_first_error`."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    if not lines:
        raise ValueError("empty graph text")
    header = lines[0].split()
    if header[0] not in ("p", "pd") or len(header) != 3:
        raise ValueError("bad header, expected 'p <n> <m>' or 'pd <n> <m>'")
    directed = header[0] == "pd"
    n, m = int(header[1]), int(header[2])
    if n > HEADER_VERTEX_CAP:
        raise InstanceTooLargeError(f"header declares {n} vertices, more than {HEADER_VERTEX_CAP}")
    tag = "a" if directed else "e"
    lines[0] = ""  # so the join puts a newline before every body line
    columns = _columns("\n".join(lines), tag, len(lines) - 1)
    if columns is None:
        _raise_first_error(lines[1:], tag, m)
    edges, weights = columns
    if len(edges) != m:
        raise ValueError(f"header promises {m} edges, found {len(edges)}")
    if weights is not None:
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
