"""Independent references the benchmark checks program outputs against.

Nothing here imports combinlab: a check must never let the code under
test judge itself.  Every function is plain, obviously-correct Python
sized for the benchmark's inputs, not for speed.
"""

from __future__ import annotations

import heapq
from collections import deque
from fractions import Fraction


class CheckFailed(AssertionError):
    """A program output disagreed with its reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# --- closed forms and budgets -------------------------------------------------


def ceil_log2(x: int) -> int:
    """Smallest c with 2**c >= x, for integers x >= 1."""
    return (x - 1).bit_length()


def info_bound(n: int) -> int:
    """ceil(log2 n!)."""
    f = 1
    for k in range(2, n + 1):
        f *= k
    return ceil_log2(f)


def a_of(n: int) -> int:
    """A(n) = n*ceil(log2 n) - 2**ceil(log2 n) + 1, binary insertion sort."""
    if n <= 1:
        return 0
    c = ceil_log2(n)
    return n * c - 2**c + 1


def f_of(n: int) -> int:
    """F(n) = sum_{k=2..n} ceil(log2 3k/4), merge insertion; the summand
    is ceil_log2(3k) - 2 because 2**c >= 3k/4 iff 2**(c+2) >= 3k."""
    return sum(ceil_log2(3 * k) - 2 for k in range(2, n + 1))


def b_of(n: int) -> int:
    """B(n): total cost p + q - 1 of repeatedly merging the two shortest
    runs, summed with a heap.  Huffman's merge total does not depend on
    how ties are broken, so any heap order gives the schedule's sum."""
    heap = [1] * n
    total = 0
    while len(heap) > 1:
        p = heapq.heappop(heap)
        q = heapq.heappop(heap)
        total += p + q - 1
        heapq.heappush(heap, p + q)
    return total


def ceil_log3(x: int) -> int:
    c, p = 0, 1
    while p < x:
        p *= 3
        c += 1
    return c


def bitonic_budget(n: int) -> int:
    """k with fib(k) <= n < fib(k+1), fib(0) = fib(1) = 1."""
    fibs = [1, 1]
    while fibs[-1] <= n:
        fibs.append(fibs[-1] + fibs[-2])
    return len(fibs) - 2


# --- CNF ---------------------------------------------------------------------


def cnf_satisfied(clauses, assignment) -> bool:
    """assignment[v - 1] is the truth value of variable v."""
    return all(any(bool(assignment[abs(l) - 1]) == (l > 0) for l in c) for c in clauses)


def cnf_brute_sat(num_vars: int, clauses) -> bool:
    for mask in range(1 << num_vars):
        if cnf_satisfied(clauses, [(mask >> i) & 1 for i in range(num_vars)]):
            return True
    return False


def twosat_conflict_holds(clauses, x: int) -> bool:
    """True when x -> not x and not x -> x both hold in the implication
    graph, which proves the 2-CNF unsatisfiable."""
    succ: dict[int, list[int]] = {}
    for c in clauses:
        a, b = (c[0], c[1]) if len(c) == 2 else (c[0], c[0])
        succ.setdefault(-a, []).append(b)
        succ.setdefault(-b, []).append(a)
    return -x in reach(succ, x) and x in reach(succ, -x)


# --- graphs ------------------------------------------------------------------


def reach(succ, start) -> set:
    seen = {start}
    todo = [start]
    while todo:
        u = todo.pop()
        for w in succ.get(u, ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def scc_partition(n: int, arcs) -> set[frozenset]:
    """Strong components by mutual reachability."""
    succ: dict[int, list[int]] = {}
    for u, v in arcs:
        succ.setdefault(u, []).append(v)
    reach_of = {v: reach(succ, v) for v in range(1, n + 1)}
    return {
        frozenset(w for w in reach_of[v] if v in reach_of[w]) for v in range(1, n + 1)
    }


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n + 1))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def mst_weight(n: int, weights: dict, maximize: bool = False):
    """Kruskal with union-find; None when the graph is disconnected."""
    uf = UnionFind(n)
    total, used = 0, 0
    for (u, v), w in sorted(weights.items(), key=lambda kv: kv[1], reverse=maximize):
        if uf.union(u, v):
            total += w
            used += 1
    return total if used == n - 1 else None


def check_spanning_tree(n: int, weights: dict, edges, total) -> None:
    uf = UnionFind(n)
    expect(len(edges) == n - 1, "tree edge count")
    for u, v in edges:
        key = (min(u, v), max(u, v))
        expect(key in weights, "tree edge not in graph")
        expect(uf.union(u, v), "tree has a cycle")
    expect(sum(weights[(min(u, v), max(u, v))] for u, v in edges) == total, "tree weight")


def components(n: int, edges) -> set[frozenset]:
    uf = UnionFind(n)
    for u, v in edges:
        uf.union(u, v)
    blocks: dict[int, set] = {}
    for v in range(1, n + 1):
        blocks.setdefault(uf.find(v), set()).add(v)
    return {frozenset(b) for b in blocks.values()}


def bfs_dist(adj, s: int) -> dict[int, int]:
    dist = {s: 0}
    q = deque([s])
    while q:
        u = q.popleft()
        for w in adj.get(u, ()):
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def dijkstra_dist(arc_weights: dict, s: int) -> dict[int, object]:
    """Heap Dijkstra; unreachable vertices are absent."""
    succ: dict[int, list] = {}
    for (u, v), w in arc_weights.items():
        succ.setdefault(u, []).append((v, w))
    dist = {s: 0}
    heap = [(0, s)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in succ.get(u, ()):
            if v not in dist or d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def check_euler_walk(edges, walk) -> None:
    expect(walk[0] == walk[-1], "walk not closed")
    used = sorted((min(u, v), max(u, v)) for u, v in zip(walk, walk[1:]))
    expect(used == sorted(edges), "walk does not use every edge exactly once")


# --- dynamic programming -------------------------------------------------------


def lcs_length(x, y) -> int:
    prev = [0] * (len(y) + 1)
    for a in x:
        cur = [0]
        for j, b in enumerate(y, start=1):
            cur.append(prev[j - 1] + 1 if a == b else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def is_subsequence(sub, seq) -> bool:
    it = iter(seq)
    return all(ch in it for ch in sub)


def knapsack_best(values, volumes, capacity) -> int:
    best = [0] * (capacity + 1)
    for c, v in zip(values, volumes):
        for room in range(capacity, v - 1, -1):
            if best[room - v] + c > best[room]:
                best[room] = best[room - v] + c
    return best[capacity]


def allocation_best(costs, profits, budget) -> int:
    best = {0: 0}
    for cost, profit in zip(costs, profits):
        nxt: dict[int, int] = {}
        for spent, value in best.items():
            for c, p in zip(cost, profit):
                if spent + c <= budget and nxt.get(spent + c, -1) < value + p:
                    nxt[spent + c] = value + p
        best = nxt
    return max(best.values())


def chain_cost(expr: str, dims) -> int:
    """Cost of a fully parenthesized product such as ((A1A2)A3); raises
    CheckFailed unless it multiplies A1..An once each, in order."""
    stack: list = []
    cost = 0
    i, n = 0, len(dims) - 1
    nxt = 1
    while i < len(expr):
        ch = expr[i]
        if ch == "(":
            stack.append("(")
            i += 1
        elif ch == "A":
            j = i + 1
            while j < len(expr) and expr[j].isdigit():
                j += 1
            k = int(expr[i + 1 : j])
            expect(k == nxt, "matrices out of order")
            nxt += 1
            stack.append((dims[k - 1], dims[k]))
            i = j
        else:
            expect(ch == ")" and len(stack) >= 3, "malformed parenthesization")
            right, left, opener = stack.pop(), stack.pop(), stack.pop()
            expect(opener == "(" and left[1] == right[0], "malformed parenthesization")
            cost += left[0] * left[1] * right[1]
            stack.append((left[0], right[1]))
            i += 1
    expect(nxt == n + 1 and len(stack) == 1, "product incomplete")
    return cost


def ratio(heuristic, optimum, maximize: bool) -> Fraction:
    """Heuristic cost over optimum, >= 1 whichever way the problem points."""
    worse, better = (optimum, heuristic) if maximize else (heuristic, optimum)
    return Fraction(worse) / Fraction(better)
