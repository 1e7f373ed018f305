import inspect
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from combinlab.dp import (
    AllocationInstance,
    allocate,
    count_parenthesizations,
    dimension_product_weight,
    dump_allocation_json,
    dump_knapsack_json,
    greedy_knapsack_by_density,
    knapsack_pareto,
    lcs,
    load_allocation_json,
    load_knapsack_json,
    matrix_chain,
    polygon_triangulation,
    triangle_area_weight,
)

CAP85_VALUES = [160, 250, 180, 30]
CAP85_VOLUMES = [40, 50, 40, 20]


def brute_knapsack(values, volumes, capacity):
    n = len(values)
    best = (0, set())
    for mask in range(1 << n):
        vol = val = 0
        chosen = set()
        for i in range(n):
            if mask >> i & 1:
                vol += volumes[i]
                val += values[i]
                chosen.add(i + 1)
        if vol <= capacity and val > best[0]:
            best = (val, chosen)
    return best


def brute_allocate(inst):
    n, b, k = inst.n_tasks, inst.b, inst.budget
    best = -1
    for plan in itertools.product(range(b + 1), repeat=n):
        cost = sum(inst.costs[i][plan[i]] for i in range(n))
        if cost <= k:
            best = max(best, sum(inst.profits[i][plan[i]] for i in range(n)))
    return best


def test_allocate_single_task():
    inst = AllocationInstance.from_lists([[0, 1, 2, 3]], [[0, 4, 5, 9]], 2)
    value, plan = allocate(inst)
    assert value == 5 and plan == [2]


def test_allocate_linear_special_case():
    # P_i(x) = i*x with budget 3: put everything on task 2.
    inst = AllocationInstance.simple_split([[0, 1, 2, 3], [0, 2, 4, 6]], 3)
    value, plan = allocate(inst)
    assert value == 6
    assert plan == [0, 3]


def test_allocate_matches_bruteforce_random():
    rng = random.Random(2)
    for _ in range(60):
        n, b = rng.randint(1, 3), 3
        costs, profits = [], []
        for _ in range(n):
            steps = sorted(rng.randint(0, 3) for _ in range(b))
            costs.append([0] + [s + i for i, s in enumerate(sorted(steps))])
            profits.append([0] + sorted(rng.randint(0, 8) for _ in range(b)))
        inst = AllocationInstance.from_lists(costs, profits, rng.randint(0, 5))
        value, plan = allocate(inst)
        assert value == brute_allocate(inst)
        assert sum(inst.costs[i][plan[i]] for i in range(n)) <= inst.budget
        assert sum(inst.profits[i][plan[i]] for i in range(n)) == value


def test_allocation_validation():
    with pytest.raises(ValueError):
        AllocationInstance.from_lists([[1, 2]], [[0, 1]], 1)  # c(0) != 0
    with pytest.raises(ValueError):
        AllocationInstance.from_lists([[0, 2, 1]], [[0, 1, 1]], 1)  # not monotone


def test_knapsack_capacity85_instance():
    chosen, value = knapsack_pareto(CAP85_VALUES, CAP85_VOLUMES, 85)
    assert value == 340 and chosen == {1, 3}
    greedy_set, greedy_value = greedy_knapsack_by_density(
        CAP85_VALUES, CAP85_VOLUMES, 85
    )
    assert greedy_value == 280 and greedy_set == {2, 4}


def test_knapsack_zero_capacity():
    chosen, value = knapsack_pareto([5, 6], [1, 1], 0)
    assert value == 0 and chosen == set()


def test_knapsack_matches_bruteforce():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 10)
        values = [rng.randint(0, 30) for _ in range(n)]
        volumes = [rng.randint(0, 15) for _ in range(n)]
        cap = rng.randint(0, 40)
        chosen, value = knapsack_pareto(values, volumes, cap)
        assert value == brute_knapsack(values, volumes, cap)[0]
        assert sum(volumes[i - 1] for i in chosen) <= cap
        assert sum(values[i - 1] for i in chosen) == value
        gset, gval = greedy_knapsack_by_density(values, volumes, cap)
        assert gval <= value
        assert sum(volumes[i - 1] for i in gset) <= cap


def brute_lcs(x, y):
    best = 0
    for r in range(len(x) + 1):
        for combo in itertools.combinations(range(len(x)), r):
            sub = [x[i] for i in combo]
            it = iter(y)
            if all(ch in it for ch in sub):
                best = max(best, r)
    return best


def test_lcs_short_strings():
    length, seq, tables = lcs("AAB", "BAA")
    assert length == 2 and seq == ["A", "A"]
    assert tables.lengths[3][3] == 2


def test_lcs_empty():
    length, seq, _ = lcs("", "ABC")
    assert length == 0 and seq == []


def test_lcs_matches_bruteforce():
    rng = random.Random(21)
    for _ in range(60):
        x = "".join(rng.choice("AB") for _ in range(rng.randint(0, 8)))
        y = "".join(rng.choice("AB") for _ in range(rng.randint(0, 8)))
        length, seq, _ = lcs(x, y)
        assert length == brute_lcs(x, y)
        assert len(seq) == length
        for s, hay in ((seq, x), (seq, y)):
            it = iter(hay)
            assert all(ch in it for ch in s)


def brute_chain(p):
    n = len(p) - 1

    def cost(i, j):
        if i == j:
            return 0
        return min(
            cost(i, k) + cost(k + 1, j) + p[i - 1] * p[k] * p[j]
            for k in range(i, j)
        )

    return cost(1, n)


def test_matrix_chain_three_matrices():
    cost, expr, tables = matrix_chain([10, 100, 5, 50])
    assert cost == 7500
    assert expr == "((A1A2)A3)"
    assert tables.splits[1][3] == 2


def test_matrix_chain_single():
    cost, expr, _ = matrix_chain([3, 7])
    assert cost == 0 and expr == "A1"


def test_matrix_chain_matches_enumeration():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 6)
        p = [rng.randint(1, 9) for _ in range(n + 1)]
        cost, expr, _ = matrix_chain(p)
        assert cost == brute_chain(p)
        assert expr.count("(") == (n - 1 if n > 1 else 0)


def test_count_parenthesizations():
    assert count_parenthesizations(1) == 1
    assert count_parenthesizations(4) == 5
    assert count_parenthesizations(6) == 42
    assert count_parenthesizations(12) >= 2**4
    for n in range(1, 15):
        assert count_parenthesizations(n) >= 2 ** (-((-n) // 3) - 1)


def test_triangulation_triangle():
    w = dimension_product_weight([2, 3, 4])
    cost, diagonals = polygon_triangulation(w, 3)
    assert diagonals == []
    assert cost == 2 * 3 * 4


def test_triangulation_equals_matrix_chain():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 6)
        p = [rng.randint(1, 9) for _ in range(n + 1)]
        chain_cost, _, _ = matrix_chain(p)
        tri_cost, diagonals = polygon_triangulation(
            dimension_product_weight(p), n + 1
        )
        assert tri_cost == chain_cost
        assert len(diagonals) == max(0, (n + 1) - 3)


def test_triangulation_area_weight_constant():
    # Convex polygon: every triangulation sums to the full area.
    coords = [(0, 0), (4, 0), (6, 3), (3, 6), (0, 4)]
    w = triangle_area_weight(coords)
    cost, diagonals = polygon_triangulation(w, 5)
    shoelace = 0
    for (x1, y1), (x2, y2) in zip(coords, coords[1:] + coords[:1]):
        shoelace += x1 * y2 - x2 * y1
    assert cost == abs(Fraction(shoelace, 2))
    assert len(diagonals) == 2


def test_json_roundtrip():
    text = dump_knapsack_json(CAP85_VALUES, CAP85_VOLUMES, 85)
    values, volumes, cap = load_knapsack_json(text)
    assert (values, volumes, cap) == (CAP85_VALUES, CAP85_VOLUMES, 85)

    inst = AllocationInstance.simple_split([[0, 1], [0, 2]], 1)
    again = load_allocation_json(dump_allocation_json(inst))
    assert again == inst


def test_chain_and_triangulation_recursion_stays_shallow():
    # Decreasing dimensions make the optimal product nest to the right,
    # (A1(A2(...(A248A249)...))), a split tree 248 levels deep.
    dims = list(range(250, 0, -1))
    n = len(dims) - 1
    cost = dims[n] * sum(dims[k - 1] * dims[k] for k in range(1, n))
    expr = "".join(f"(A{i}" for i in range(1, n)) + f"A{n}" + ")" * (n - 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        start = time.process_time()
        chain_cost, chain_expr, _ = matrix_chain(dims)
        chain_s = time.process_time() - start
        start = time.process_time()
        poly_cost, diagonals = polygon_triangulation(dimension_product_weight(dims), len(dims))
        poly_s = time.process_time() - start
    finally:
        sys.setrecursionlimit(limit)
    assert (chain_cost, chain_expr) == (cost, expr)
    assert poly_cost == cost and len(diagonals) == len(dims) - 3
    assert chain_s < 1 and poly_s < 1
