"""Approximation algorithms with checked ratio guarantees and the
instance generators that expose their failure modes.

Guarantees implemented here:

* vc_matching_2approx       cover <= 2 * optimum
* set_cover_greedy          cover <= H(max set size) * optimum
* tsp_double_tree           tour <= 2 * optimum (metric instances)
* tsp_christofides          tour <= 3/2 * optimum (metric instances)
* max_cut_local_search      optimum <= 2 * cut
* knapsack_fptas            value >= optimum / (1 + eps)
* bin_pack_first_fit        bins <= ceil(2 * total size) and <= 2 * optimum

vc_degree_greedy has no guarantee; vc_greedy_counterexample builds the
family on which its ratio grows like H(n) - 1.

The exact optima the ratios are checked against live in `exact`, with
their caps; this module re-exports them, as `approx.*_optimum`.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exact import bin_pack_optimum, knapsack_optimum, max_cut_optimum, set_cover_optimum
from .exact import _check_square, _unit_sizes
from .exact import tour_length, tsp_optimum, vertex_cover_optimum  # the optima are re-exported
from .graph_core import Graph, exact_fraction
from .intmath import InstanceTooLargeError, exact_int, refuse_floats
from .paths_mst import WeightedGraph, prim


def digest_of(payload) -> str:
    import hashlib  # here, not at import: the gen families load approx and never digest

    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _encode(x):
    return f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else x


def make_report(algorithm, n, heuristic, optimal, bound, payload, seed=None, maximize=False) -> dict:
    """Heuristic value against the (optional) brute-force optimum, as a
    JSON-ready dict with Fractions written "p/q".  The ratio is >= 1 when
    the optimum is given; `payload` is the instance, kept as its digest."""
    ratio = None
    if optimal is not None:
        if maximize:
            ratio = Fraction(optimal) / Fraction(heuristic) if heuristic else None
        else:
            ratio = Fraction(heuristic) / Fraction(optimal) if optimal else None
    return {
        "algorithm": algorithm,
        "n": n,
        "heuristic": _encode(heuristic),
        "optimal": _encode(optimal),
        "ratio": _encode(ratio),
        "bound": _encode(bound),
        "digest": digest_of(payload),
        "seed": seed,
    }


# --- vertex cover ---------------------------------------------------------


def vc_matching_2approx(g: Graph) -> set[int]:
    """Take both endpoints of a maximal matching; at most 2x optimal."""
    cover: set[int] = set()
    for u, v in g.edges:
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    return cover


def vc_degree_greedy(g: Graph) -> set[int]:
    """Repeatedly take a maximum-degree vertex.  No ratio guarantee: on
    vc_greedy_counterexample graphs the error grows like H(n) - 1."""
    alive = {v: set(g.neighbors(v)) for v in range(1, g.n + 1)}
    cover: set[int] = set()
    while any(alive.values()):
        v = max(alive, key=lambda x: (len(alive[x]), -x))
        cover.add(v)
        for w in alive[v]:
            alive[w].discard(v)
        alive[v] = set()
    return cover


def vc_greedy_counterexample(n: int) -> Graph:
    """Bipartite family with n core vertices and, for each k = 1..n,
    floor(n/k) gadgets adjacent to k distinct cores (disjointly per k).

    Gadgets get the lowest indices (largest level first) so degree ties
    favour them; the pendant k = 1 level pins the optimum at exactly n,
    while degree greedy picks every gadget: sum floor(n/k) vertices.
    """
    if exact_int(n, "n") < 2:
        raise ValueError("needs n >= 2")
    gadget_count = sum(n // k for k in range(1, n + 1))
    core_base = gadget_count  # cores are gadget_count+1 .. gadget_count+n
    edges = []
    gid = 0
    for k in range(n, 0, -1):
        for block in range(n // k):
            gid += 1
            for c in range(block * k + 1, block * k + k + 1):
                edges.append((gid, core_base + c))
    return Graph(gadget_count + n, edges)


# --- set cover --------------------------------------------------------------


def set_cover_greedy(universe, family) -> list[int]:
    """Pick the set covering the most uncovered elements (ties to the
    lowest index); within H(max |A_i|) of optimal."""
    family = [frozenset(s) for s in family]
    uncovered = set(universe)
    reachable = set().union(*family) if family else set()
    if uncovered - reachable:
        raise ValueError("family does not cover the universe")
    chosen: list[int] = []
    while uncovered:
        best = max(
            range(1, len(family) + 1),
            key=lambda i: (len(family[i - 1] & uncovered), -i),
        )
        gain = family[best - 1] & uncovered  # not empty: the family covers the universe
        chosen.append(best)
        uncovered -= gain
    return chosen


# --- metric TSP -------------------------------------------------------------


class MetricTspInstance:
    """Symmetric non-negative matrix with zero diagonal satisfying the
    triangle inequality on every triple (checked at construction)."""

    def __init__(self, matrix):
        m = [list(row) for row in matrix]
        refuse_floats((x for row in m for x in row), "matrix")
        _check_square(m)
        n = len(m)
        for i in range(n):
            if m[i][i] != 0:
                raise ValueError("diagonal must be zero")
            for j in range(n):
                if m[i][j] != m[j][i]:
                    raise ValueError("matrix must be symmetric")
                if m[i][j] < 0:
                    raise ValueError("distances must be non-negative")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if m[i][j] > m[i][k] + m[k][j]:
                        raise ValueError("triangle inequality violated")
        self.matrix = tuple(tuple(row) for row in m)
        self.n = n

    def tour_length(self, tour) -> object:
        return tour_length(self.matrix, tour)


def _complete_weighted_graph(matrix) -> WeightedGraph:
    n = len(matrix)
    return WeightedGraph(
        n,
        {
            (u, v): matrix[u - 1][v - 1]
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
        },
    )


def _euler_walk_multigraph(n: int, multi_edges) -> list[int]:
    """Euler walk over a connected even-degree multigraph (edge list with
    repetitions allowed)."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in multi_edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort(reverse=True)
    start = next(v for v in range(1, n + 1) if adj[v])
    stack = [start]
    walk = []
    while stack:
        v = stack[-1]
        if adj[v]:
            w = adj[v].pop()
            adj[w].remove(v)
            stack.append(w)
        else:
            walk.append(stack.pop())
    return walk[::-1]


def _tree_tour(inst, added) -> list[int]:
    """Prim's tree on the complete graph of `inst` plus the edges
    `added(matrix, tree_edges)` returns, walked as an Euler walk and
    shortcut to the first visit of each vertex."""
    matrix = inst.matrix if isinstance(inst, MetricTspInstance) else inst
    n = len(matrix)
    if n < 3:
        raise ValueError("needs n >= 3")
    tree = list(prim(_complete_weighted_graph(matrix)).edges)
    walk = _euler_walk_multigraph(n, tree + added(matrix, tree))
    tour = list(dict.fromkeys(walk))  # each vertex where the walk first reaches it
    assert len(tour) == n
    return tour


def tsp_double_tree(inst) -> list[int]:
    """Double the minimum spanning tree, walk it, shortcut repeats.
    Within 2x optimal on metric instances."""
    return _tree_tour(inst, lambda matrix, tree: tree)


def min_perfect_matching_exact(vertices, weight) -> list[tuple[int, int]]:
    """Minimum-weight perfect matching by subset DP (even count <= 20).

    Each pair's weight is asked once; a float is refused.  A set of
    vertices, as a bit mask, pairs its lowest vertex with each other one in
    turn and keeps the strictly lightest pairing, so ties go to the lowest
    partner.  The masks this pairing reaches from the full set are listed
    breadth-first and solved in reverse list order, so a mask's rests,
    two vertices smaller and listed later, are solved before it."""
    vs = list(vertices)
    k = len(vs)
    if k % 2 or k > 20:
        raise ValueError("needs an even vertex count of at most 20")
    if not vs:
        return []
    weights = [[weight(u, v) if a < b else 0 for b, v in enumerate(vs)] for a, u in enumerate(vs)]
    refuse_floats((w for row in weights for w in row), "weights")
    full = (1 << k) - 1
    best: dict[int, object] = {0: 0}  # its keys are the masks listed so far
    masks = [full]
    for mask in masks:  # also visits what the loop appends
        rest = sub = mask & (mask - 1)  # without its lowest vertex
        while sub:
            low = sub & -sub
            sub ^= low
            left = rest ^ low
            if left not in best:
                best[left] = None
                masks.append(left)
    choice: dict[int, tuple[int, int]] = {}
    for mask in reversed(masks):
        first = (mask & -mask).bit_length() - 1
        row = weights[first]
        rest = sub = mask & (mask - 1)
        top = None
        while sub:
            low = sub & -sub
            sub ^= low
            second = low.bit_length() - 1
            cand = row[second] + best[rest ^ low]
            if top is None or cand < top:
                top, choice[mask] = cand, (first, second)
        best[mask] = top
    pairs = []
    mask = full
    while mask:
        a, b = choice[mask]
        pairs.append((vs[a], vs[b]))
        mask ^= 1 << a | 1 << b
    return pairs


def tsp_christofides(inst) -> list[int]:
    """Tree plus minimum matching on its odd-degree vertices, Euler walk,
    shortcut: within 3/2 of optimal on metric instances."""
    return _tree_tour(inst, _odd_matching)


def _odd_matching(matrix, tree) -> list[tuple[int, int]]:
    degree = {v: 0 for v in range(1, len(matrix) + 1)}
    for u, v in tree:
        degree[u] += 1
        degree[v] += 1
    odd = [v for v in degree if degree[v] % 2]
    if len(odd) > 20:
        raise InstanceTooLargeError("odd-degree set larger than 20; use tsp_double_tree instead")
    return min_perfect_matching_exact(odd, lambda a, b: matrix[a - 1][b - 1])


def tsp_gap_instance(g: Graph, eps) -> list[list[object]]:
    """Inapproximability feed: unit cost on edges, (1+eps)|V|+1 elsewhere.
    The optimum is |V| exactly when g is Hamiltonian and exceeds
    (1+eps)|V| otherwise.  Deliberately non-metric in general."""
    refuse_floats((eps,), "eps")
    eps = exact_fraction(eps, "eps")
    if eps < 0:
        raise ValueError("needs eps >= 0")
    n = g.n
    far = (1 + eps) * n + 1
    far = int(far) if far.denominator == 1 else far
    return [
        [
            0 if i == j else (1 if g.has_edge(i, j) else far)
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]


def random_metric_instance(n: int, seed: int) -> MetricTspInstance:
    """Random integer points under the L1 metric: the triangle inequality
    holds automatically and all arithmetic stays exact."""
    import random  # here, not at import: the approx commands load approx and never generate

    rng = random.Random(seed)
    pts = [(rng.randint(0, 50), rng.randint(0, 50)) for _ in range(n)]
    matrix = [
        [abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts] for a in pts
    ]
    return MetricTspInstance(matrix)


# --- max cut ----------------------------------------------------------------


def max_cut_local_search(g: Graph) -> tuple[set[int], int]:
    """Single-vertex moves until locally optimal (first improving move,
    ascending vertex index).  The optimum is at most twice the result."""
    side = {v: False for v in range(1, g.n + 1)}

    def cut_size() -> int:
        return sum(1 for u, v in g.edges if side[u] != side[v])

    current = cut_size()
    improved = True
    while improved:
        improved = False
        for v in range(1, g.n + 1):
            gain = 0
            for w in g.neighbors(v):
                gain += -1 if side[v] != side[w] else 1
            if gain > 0:
                side[v] = not side[v]
                current += gain
                improved = True
                break
    chosen = {v for v in side if side[v]}
    assert current == cut_size()
    return chosen, current


# --- knapsack FPTAS ----------------------------------------------------------


def knapsack_fptas(values, volumes, capacity, eps) -> tuple[set[int], int]:
    """(1+eps)-approximate knapsack by zeroing the low b bits of the
    values and solving the truncated instance exactly.

    b is the largest integer with 2**b <= c0 * eps / (n * (1 + eps)); the
    returned set's true value is at least OPT / (1 + eps).
    """
    from .dp import knapsack_pareto

    values = list(values)
    volumes = list(volumes)
    refuse_floats((*values, *volumes, capacity, eps), "values, volumes, capacity and eps")
    if not all(isinstance(c, int) for c in values):  # the truncation shifts bits
        raise ValueError("values must be ints")
    # The bound chain needs c0 <= OPT, so c0 ranges over items that fit.
    fitting = [c for c, v in zip(values, volumes) if v <= capacity]
    b = fptas_truncation_bits(fitting, eps)
    scaled = [c >> b for c in values]
    chosen, _ = knapsack_pareto(scaled, volumes, capacity)
    return chosen, sum(values[i - 1] for i in chosen)


def fptas_truncation_bits(values, eps) -> int:
    """Largest b >= 0 with 2**b <= c0 * eps / (n * (1 + eps)), floored at
    zero; computed with exact arithmetic.  For eps = p/q that bound is
    c0 * p / (n * (p + q)), and since 2**b is an integer b is the bit
    length of its floor, less one."""
    values = list(values)
    refuse_floats((*values, eps), "values and eps")
    eps = exact_fraction(eps, "eps")
    if eps <= 0:
        raise ValueError("needs eps > 0")
    n = len(values)
    c0 = max(values, default=0)
    if not n or c0 <= 0:
        return 0
    p, q = eps.numerator, eps.denominator
    return max(0, (c0 * p // (n * (p + q))).bit_length() - 1)


# --- bin packing --------------------------------------------------------------


def bin_pack_first_fit(sizes) -> list[int]:
    """First-fit packing into unit bins; returns the bin index (1-based)
    per item.  Uses at most ceil(2 * sum sizes) bins and at most twice
    the optimal count."""
    sizes = _unit_sizes(sizes)
    rooms: list[Fraction] = []  # remaining capacity per open bin
    assignment = []
    for s in sizes:
        placed = None
        for idx, room in enumerate(rooms):
            if s <= room:
                placed = idx
                break
        if placed is None:
            rooms.append(Fraction(1))
            placed = len(rooms) - 1
        rooms[placed] -= s
        assignment.append(placed + 1)
    return assignment
