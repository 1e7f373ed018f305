"""Every capped brute-force search, its cap, and the exact optima that
approx's ratio checks use.  complexity's `search` methods and the optima
below call these searches; nothing here reads a problem class.  Each
returns the first witness of an enumeration, exactly and without
recursion:

* `_halves` (the subset sums of each half, in itertools.product order)
  and `_most_fitting`: the knapsacks, partition and knapsack_optimum.
  SAT and 3-SAT AND truth tables in their decider, under a cap here.
* `_first_union` (bit masks by size, then in combinations order): set
  cover and set_cover_optimum through `_first_cover`, and representatives.
* `_depth_first` (one explicit-stack walk): coloring, exact cover, ILP,
  Hamiltonicity (`_ham_backtrack`) and bin_pack_optimum.
* `_held_karp`: TSP and tsp_optimum.  `_most_independent`: clique,
  independent set and vertex cover (witnesses by `_first_independent`)
  and vertex_cover_optimum.  max_cut_optimum walks a Gray code.

Above its cap in `_DEFAULT_CAPS` a search raises InstanceTooLargeError;
COMBINLAB_ORACLE_LIMIT overrides every cap with one integer.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .graph_core import Graph, exact_fraction
from .intmath import InstanceTooLargeError, refuse_floats

# The subset searches keep the 20-variable / 20-element caps: SAT's truth
# tables and the knapsacks' and partition's halves decide a no-instance
# at 20 in a few ms, and the caps stay where they were until a measured
# family sets new ones.  Backtracking deciders (coloring, hamiltonicity,
# exact cover) and Held-Karp afford slightly larger instances, which the
# reduction targets need.
_DEFAULT_CAPS = {
    "bool_vars": 20,
    "coloring_vertices": 24,
    "ham_vertices": 16,
    "tsp_cities": 16,  # _held_karp, with tsp_optimum
    "elements": 20,
    "exact_cover_sets": 40,
    "box_width": 3,  # ILP: hi - lo per variable
    "set_cover_sets": 21,  # _first_cover, for any universe size
    "vertex_cover_vertices": 44,  # _most_independent: the graph deciders and optimum
    "max_cut_vertices": 20,
    "knapsack_items": 20,
}


def _within_cap(size: int, cap_key: str) -> None:
    override = os.environ.get("COMBINLAB_ORACLE_LIMIT")
    if size > (int(override) if override else _DEFAULT_CAPS[cap_key]):
        raise InstanceTooLargeError("instance too large for oracle")


def _depth_first(root, children, accept):
    """The first state, in depth-first preorder from root, that accept
    takes, or None.  children(state) lists a state's successors in the
    order to try them.  The walk keeps its own stack, so its depth is not
    the interpreter's."""
    stack = [root]
    while stack:
        state = stack.pop()
        if accept(state):
            return state
        stack.extend(reversed(children(state)))
    return None


def _adjacency_bits(g: Graph) -> list[int]:
    """Neighbours of vertex v + 1 as the bit mask at index v."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return adj


def _most_independent(adj, alive: int, goal: int | None = None) -> int:
    """The size of a largest independent set inside the bit mask `alive`,
    with adj from _adjacency_bits.  The search keeps its own stack of
    (alive vertices, set size) nodes.  A node first takes every vertex of
    degree 0 or 1 into the set (some maximum set holds it) and drops its
    neighbour; it ends once its set plus all alive vertices cannot beat
    the best; otherwise it branches on a maximum-degree vertex: left out,
    or taken with its neighbours dropped (Chen, Kanj & Jia 2001).

    With a `goal` the search only asks whether a `goal`-set exists: it
    starts as if a (goal - 1)-set were known and returns at the first set
    larger than that, so the result is >= goal exactly when one exists."""
    best, stack = (0 if goal is None else goal - 1), [(alive, 0)]
    while stack:
        alive, size = stack.pop()
        taken = True
        while taken:
            taken, top, top_degree = False, 0, 0
            rest = alive
            while rest:
                low = rest & -rest
                rest ^= low
                if alive & low:
                    near = adj[low.bit_length() - 1] & alive
                    degree = near.bit_count()
                    if degree <= 1:
                        alive &= ~(low | near)
                        size += 1
                        taken = True
                    elif degree > top_degree:
                        top, top_degree = low, degree
        if not alive:
            if size > best:
                best = size
                if goal is not None:
                    return best
        elif size + alive.bit_count() > best:
            stack.append((alive & ~top & ~adj[top.bit_length() - 1], size + 1))
            stack.append((alive & ~top, size))  # left out: tried first
    return best


def _first_independent(adj, alive: int, need: int, take: bool) -> set[int]:
    """The independent `need`-set inside `alive`, which must hold one, that
    a walk in vertex order picks by self-reduction (Schnorr 1976): it takes
    each vertex if `take`, else leaves it out, whenever the vertices left
    still hold an independent set of the size needed."""
    chosen = set()
    while need:
        low = alive & -alive
        alive ^= low
        later = alive & ~adj[low.bit_length() - 1]  # left if the vertex is taken
        # make the preferred choice if what it leaves can still complete the set
        left, wanted = (later, need - 1) if take else (alive, need)
        if (_most_independent(adj, left, wanted) >= wanted) == take:
            chosen.add(low.bit_length())
            alive, need = later, need - 1
    return chosen


def _halves(numbers) -> list[list]:
    """The sums of every subset of numbers[:n // 2] and of numbers[n // 2:],
    each list indexed by the subset's 0/1 vector read as a binary number
    whose first item is the most significant bit: itertools.product order
    (Horowitz & Sahni 1974 split the search this way)."""
    h, out = len(numbers) // 2, []
    for half in (numbers[:h], numbers[h:]):
        sums = [0]
        for x in half:
            sums = [t for s in sums for t in (s, s + x)]
        out.append(sums)
    return out


def _most_fitting(rooms, volumes, keys) -> list:
    """For each room, the largest key among the items whose volume is at
    most the room, or None: one sweep over both, sorted by size."""
    order = sorted(range(len(volumes)), key=volumes.__getitem__)
    most, best, j = [None] * len(rooms), None, 0
    for a in sorted(range(len(rooms)), key=rooms.__getitem__):
        while j < len(order) and volumes[order[j]] <= rooms[a]:
            key = keys[order[j]]
            if best is None or key > best:
                best = key
            j += 1
        most[a] = best
    return most


def _bits(x: int, width: int) -> list[int]:
    """x as a 0/1 list of `width` digits, most significant first."""
    return [x >> i & 1 for i in range(width - 1, -1, -1)]


def _first_union(masks, full: int, most: int, disjoint: bool = False):
    """The positions of the first tuple of at most `most` masks, by size
    and then in combinations order, whose union is `full` (with `disjoint`,
    of masks that do not overlap), or None.  Each size is a `_depth_first`
    walk that cuts a prefix once it overlaps or once the masks after it
    cannot complete the union, so no tuple it skips could have come first."""
    n = len(masks)
    after = [0] * (n + 1)  # after[i]: the union of masks[i:]
    for i in range(n - 1, -1, -1):
        after[i] = after[i + 1] | masks[i]
    for size in range(min(most, n) + 1):
        def children(state):  # the positions taken and their union
            taken, union = state
            if len(taken) == size:
                return ()
            start = taken[-1] + 1 if taken else 0
            return [(taken + (i,), union | masks[i]) for i in range(start, n - size + len(taken) + 1)
                    if not (disjoint and union & masks[i]) and not full & ~(union | after[i])]

        found = _depth_first(((), 0), children, lambda state: len(state[0]) == size and state[1] == full)
        if found is not None:
            return found[0]
    return None


def _first_cover(universe, family, most):
    """The indices, from 1, of the first subfamily of at most `most` sets,
    by size and then in combinations order, whose union holds the
    universe; None if none does.  Each set is a bit mask over the
    universe, so elements outside it are ignored."""
    _within_cap(len(family), "set_cover_sets")
    bit = {x: 1 << i for i, x in enumerate(set(universe))}
    masks = [sum(bit.get(x, 0) for x in set(s)) for s in family]  # distinct bits: the sum is the union
    found = _first_union(masks, (1 << len(bit)) - 1, most)
    return None if found is None else {i + 1 for i in found}


def _ham_backtrack(g):
    """The first Hamiltonian cycle from vertex 1, by neighbour order."""
    _within_cap(g.n, "ham_vertices")
    n, adj = g.n, g.adj
    if n == 0:
        return []

    into_first = {u for u in range(1, n + 1) if 1 in adj[u]}

    def children(path):  # none once no way back to vertex 1 is left open
        if len(path) < n and into_first.issubset(path):
            return ()
        return [path + (v,) for v in adj[path[-1]] if v not in path]

    found = _depth_first(
        (1,), children, lambda path: len(path) == n and path[0] in adj[path[-1]]
    )
    return list(found) if found is not None else None


def _held_karp(matrix, limit=None):
    """The lexicographically first tour from city 1 of length at most
    `limit`, or of a shortest tour's length when `limit` is None; None if
    no tour fits (Held & Karp 1962).  With n <= 1 the tour is the empty
    one or city 1 alone, which fits any limit >= 0.  Fractions are searched as integers,
    scaled by their least common denominator, and so is the limit.
    cost[S][k] is the shortest path from city k + 2 through the cities S
    (bit j for city j + 2) back to city 1.  The walk takes the lowest city
    k whose length + step + cost[left][k] fits.  Its callers refuse float
    entries first."""
    if len(matrix) <= 1:
        return list(range(1, len(matrix) + 1)) if limit is None or 0 <= limit else None
    weights, scale = matrix, 1
    if not all(type(x) is int for row in matrix for x in row):
        exact = [[Fraction(x) for x in row] for row in matrix]
        scale = math.lcm(*(x.denominator for row in exact for x in row))
        weights = [[int(x * scale) for x in row] for row in exact]
    m = len(matrix) - 1
    out = [row[1:] for row in weights[1:]]  # out[j][k]: city j + 2 to city k + 2
    cost: list[list] = [[]] * (1 << m)
    members: list[list[int]] = [[]] * (1 << m)  # members[S]: the bits of S, ascending
    for j in range(m):  # one city left: straight back to city 1
        cost[1 << j] = [None] * m
        cost[1 << j][j] = weights[j + 1][0]
        members[1 << j] = [j]
    for mask in range(3, 1 << m):
        rest = mask & (mask - 1)  # mask without its lowest bit
        if not rest:
            continue
        inside = members[mask] = members[mask ^ rest] + members[rest]
        row = [None] * m
        for j in inside:
            sub, step = cost[mask ^ (1 << j)], out[j]
            row[j] = min([step[k] + sub[k] for k in inside if k != j])
        cost[mask] = row
    tour, length, left, step = [1], 0, (1 << m) - 1, weights[0][1:]
    limit = min(step[k] + cost[left][k] for k in range(m)) if limit is None else limit * scale
    while left:
        j = next((k for k in range(m) if left >> k & 1 and length + step[k] + cost[left][k] <= limit), None)
        if j is None:
            return None
        tour.append(j + 2)
        length, step, left = length + step[j], out[j], left ^ 1 << j
    return tour


def _check_square(matrix) -> None:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")


def tour_length(matrix, tour) -> object:
    n = len(matrix)
    return sum(matrix[tour[i] - 1][tour[(i + 1) % n] - 1] for i in range(n))


# --- desk-scale optima for ratio checks ------------------------------------------


def vertex_cover_optimum(g: Graph) -> int:
    """Fewest vertices touching every edge: n less the most independent."""
    _within_cap(g.n, "vertex_cover_vertices")
    return g.n - _most_independent(_adjacency_bits(g), (1 << g.n) - 1)


def set_cover_optimum(universe, family) -> int:
    """Fewest sets covering the universe: the size of the first cover
    _first_cover finds, by increasing size."""
    cover = _first_cover(universe, family, len(family))
    if cover is None:
        raise ValueError("family does not cover the universe")
    return len(cover)


def tsp_optimum(matrix) -> object:
    """Shortest tour from city 1: _held_karp's lexicographically first
    tour within the shortest length, whose length is summed along it, so
    the value and its type are those of trying every tour in order."""
    _within_cap(len(matrix), "tsp_cities")
    refuse_floats((x for row in matrix for x in row), "matrix")
    _check_square(matrix)
    return tour_length(matrix, _held_karp(matrix))


def max_cut_optimum(g: Graph) -> int:
    """Most edges across a 2-colouring.  Vertex n keeps side 0 and a
    Gray-code walk visits every colouring of the others, flipping one
    vertex a step; the cut changes by its degree less twice the
    neighbours it had across."""
    _within_cap(g.n, "max_cut_vertices")
    adj = _adjacency_bits(g)
    degree = [a.bit_count() for a in adj]
    side = cut = best = 0
    for step in range(1, 1 << max(g.n - 1, 0)):
        low = step & -step
        v = low.bit_length() - 1
        across = (adj[v] & side).bit_count()
        if side & low:
            across = degree[v] - across
        cut += degree[v] - 2 * across
        side ^= low
        if cut > best:
            best = cut
    return best


def knapsack_optimum(values, volumes, capacity) -> int:
    """Largest value of a subset within the capacity, 0 if none fits, by
    meet in the middle over _halves.  Fractions are searched as integers:
    the values scaled by their least common denominator, the volumes and
    the capacity by theirs.  The result has the type the Gray-code walk
    over every subset this search replaced gave.  That walk adds item i
    first at step 2**i and keeps the first step that reaches the best
    value, so the result is a Fraction when a value among the items up to
    the least top of a best subset (see _knapsack_best) is."""
    if len(values) != len(volumes):
        raise ValueError("values and volumes must align")
    _within_cap(len(values), "knapsack_items")
    numbers = (*values, *volumes, capacity)
    refuse_floats(numbers, "values, volumes and capacity")
    if not any(isinstance(x, Fraction) for x in numbers) or not all(
            isinstance(x, (int, Fraction)) for x in numbers):
        return _knapsack_best(values, volumes, capacity)[0]
    value_scale = math.lcm(*(Fraction(x).denominator for x in values))
    room_scale = math.lcm(*(Fraction(x).denominator for x in (*volumes, capacity)))
    best, top = _knapsack_best([int(x * value_scale) for x in values],
                               [int(x * room_scale) for x in volumes],
                               int(capacity * room_scale))
    if not top:
        return 0
    if any(isinstance(x, Fraction) for x in values[:top]):
        return Fraction(best, value_scale)
    return best // value_scale


def _knapsack_best(values, volumes, capacity) -> tuple:
    """(value, top): the best value above 0 of a subset within the
    capacity, and the least top of the subsets that reach it, where a
    subset's top is one past its highest item; (0, 0) when no subset beats
    0.  Each first-half subset takes, of the second-half subsets that fit
    the room it leaves, the one with the largest (value, -top), the empty
    one's top being 0, so ties go to the lower top."""
    n, h = len(values), len(values) // 2
    (vol1, vol2), (val1, val2) = _halves(volumes), _halves(values)
    # in product order the first item is the high bit, so the lowest set bit is the top item
    keys = [(v, (b & -b).bit_length() - 1 - n if b else 0) for b, v in enumerate(val2)]
    best, top = 0, 0
    for a, fit in enumerate(_most_fitting([capacity - w for w in vol1], vol2, keys)):
        if fit is not None:
            value, last = fit[0] + val1[a], -fit[1] or (h + 1 - (a & -a).bit_length() if a else 0)
            if (value, -last) > (best, -top):
                best, top = value, last
    return best, top


def _unit_sizes(sizes) -> list[Fraction]:
    """The item sizes as Fractions, each checked to lie in [0, 1]."""
    refuse_floats(sizes, "sizes")
    sizes = [exact_fraction(s, "size") for s in sizes]
    if any(s < 0 or s > 1 for s in sizes):
        raise ValueError("sizes must lie in [0, 1]")
    return sizes


def bin_pack_optimum(sizes) -> int:
    """Fewest unit bins, by depth-first search over the bin each item
    joins: each open bin it fits, one bin per distinct room left, then a
    new bin; a branch stops once it holds as many bins as the best found,
    and the search ends once the best meets the lower bound ceil(sum of
    sizes), at least one bin for any item.  The walk is _depth_first, so
    its depth is not the interpreter's."""
    sizes = _unit_sizes(sizes)
    best = len(sizes)
    lower = max(1, math.ceil(sum(sizes))) if sizes else 0

    def children(state):  # the items placed and the room left in each open bin
        placed, bins = state
        if len(bins) >= best or placed == len(sizes):
            return ()
        s, seen, out = sizes[placed], set(), []
        for idx, room in enumerate(bins):
            if s <= room and room not in seen:
                seen.add(room)
                out.append((placed + 1, bins[:idx] + (room - s,) + bins[idx + 1:]))
        return out + [(placed + 1, bins + (1 - s,))]

    def accept(state):  # records a better leaf; done once the best meets the bound
        nonlocal best
        placed, bins = state
        if placed == len(sizes) and len(bins) < best:
            best = len(bins)
        return best <= lower

    _depth_first((0, ()), children, accept)
    return best
