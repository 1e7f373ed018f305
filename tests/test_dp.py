import copy
import hashlib
import inspect
import itertools
import json
import pickle
import random
import sys
import time
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

import pytest

import combinlab.dp as dp
from combinlab.dp import (
    _cell_width,
    _knapsack_sweep,
    _knapsack_table,
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
    for costs, profits, budget in (([[0, 1.5]], [[0, 2]], 2), ([[0, 1]], [[0, 2.0]], 2), ([[0, 1]], [[0, 2]], 2.0)):
        with pytest.raises(ValueError, match="^tables and budget must be exact ints or fractions$"):
            AllocationInstance.from_lists(costs, profits, budget)
    for costs, budget in (([[0, Fraction(1)]], 2), ([[0, 1]], Fraction(2))):
        with pytest.raises(ValueError, match="^costs and budget must be integers$"):
            AllocationInstance.from_lists(costs, [[0, 2]], budget)
    assert allocate(AllocationInstance.from_lists([[0, 1]], [[0, Fraction(5, 2)]], 2)) == (Fraction(5, 2), [1])


def test_allocation_instance_is_an_immutable_value():
    inst = AllocationInstance.from_lists([[0, 1, 2]], [[0, 3, 4]], 2)
    same = AllocationInstance(((0, 1, 2),), ((0, 3, 4),), 2)
    assert inst == same and hash(inst) == hash(same) and len({inst, same}) == 1
    assert inst != AllocationInstance(((0, 1, 2),), ((0, 3, 4),), 1)
    with pytest.raises(AttributeError):
        inst.budget = -1
    with pytest.raises(AttributeError):
        del inst.costs
    assert inst.budget == 2
    assert repr(inst) == "AllocationInstance(costs=((0, 1, 2),), profits=((0, 3, 4),), budget=2)"
    with pytest.raises(ValueError):  # budget below 0
        AllocationInstance(((0, 1, 2),), ((0, 3, 4),), -1)
    for again in (copy.copy(inst), copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
        assert again == inst


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


def test_knapsack_refuses_negative_capacity():
    # Not even the empty set fits a negative capacity.
    with pytest.raises(ValueError, match="capacity"):
        knapsack_pareto([1, 2], [1, 1], -1)
    with pytest.raises(ValueError, match="capacity"):
        load_knapsack_json('{"values": [1, 2], "volumes": [1, 1], "capacity": -1}')


# One state of the reference sweep: its items, total value and volume.
Entry = namedtuple("Entry", "items value volume")


def reference_prune(entries):
    """The frontier's prune as first written: one full sort by (volume,
    -value, sorted items), then keep each entry whose value beats all
    before it."""
    ordered = sorted(entries, key=lambda e: (e.volume, -e.value, sorted(e.items)))
    kept = []
    for e in ordered:
        if not kept or e.value > kept[-1].value:
            kept.append(e)
    return kept


def quadratic_dominated_pair(states) -> bool:
    """The frontier's self-check as first written: compare every ordered pair."""
    return any(
        a is not b and a.value >= b.value and a.volume <= b.volume
        for a in states
        for b in states
    )


def reference_sweep(values, volumes, capacity):
    """knapsack_pareto as it was before items became ascending tuples:
    frozenset items, each frontier pruned by reference_prune's full sort.
    Yields each item's merged list and the frontier pruned from it."""
    states = [Entry(frozenset(), 0, 0)]
    for k in range(1, len(values) + 1):
        extended = [
            Entry(e.items | {k}, e.value + values[k - 1], e.volume + volumes[k - 1])
            for e in states
            if e.volume + volumes[k - 1] <= capacity
        ]
        merged = states + extended
        states = reference_prune(merged)
        yield merged, states


def reference_knapsack_pareto(values, volumes, capacity):
    """The reference sweep's chosen set and value, and the count of the
    exact (volume, value) ties its prunes met."""
    states, ties = [Entry(frozenset(), 0, 0)], 0
    for merged, states in reference_sweep(values, volumes, capacity):
        ties += len(merged) - len({(e.volume, e.value) for e in merged})
    return set(states[-1].items), states[-1].value, ties


def test_prune_matches_sort_reference_and_quadratic_check():
    # A state of the last frontier is also the answer at a capacity of its
    # own volume, as no state of more volume takes part in pruning those of
    # less.  So each state the reference's full sort kept is checked end to
    # end, and with it every tie the sweep's merge settled on the way.
    rng = random.Random(17)
    instances = [inst for kind in sorted(KNAPSACK_CHOICES) for inst in pin_knapsacks(kind)]
    for _ in range(60):
        n = rng.randint(1, 12)
        values = [rng.randint(0, 30) for _ in range(n)]
        volumes = [rng.randint(0, 15) for _ in range(n)]
        instances.append((values, volumes, rng.randint(0, 60)))
    dominated = 0
    for values, volumes, capacity in instances:
        for merged, frontier in reference_sweep(values, volumes, capacity):
            dominated += quadratic_dominated_pair(merged)
            assert not quadratic_dominated_pair(frontier)
        for e in frontier:
            assert knapsack_pareto(values, volumes, e.volume) == (set(e.items), e.value)
        chosen, value, _ = reference_knapsack_pareto(values, volumes, capacity)
        assert knapsack_pareto(values, volumes, capacity) == (chosen, value)
    assert dominated > 500  # the unpruned lists do hold dominated pairs


def test_knapsack_matches_frozenset_reference():
    rng = random.Random(29)
    instances = [inst for kind in sorted(KNAPSACK_CHOICES) for inst in pin_knapsacks(kind)]
    for _ in range(200):
        n = rng.randint(0, 12)
        values = [rng.randint(0, 4) for _ in range(n)]
        volumes = [rng.randint(0, 3) for _ in range(n)]
        instances.append((values, volumes, rng.randint(0, sum(volumes) + 1)))
    ties = 0
    for values, volumes, capacity in instances:
        chosen, value, met = reference_knapsack_pareto(values, volumes, capacity)
        assert knapsack_pareto(values, volumes, capacity) == (chosen, value)
        ties += met
    assert ties > 1000  # the tie rule decided many of them


def test_knapsack_pareto_scales():
    # Values track volumes, so most states stay on the Pareto frontier.  With
    # the all-pairs self-check and a full sort per item these 60 items took
    # about 1.25 s of process CPU on a 2-CPU Linux host under Python 3.11,
    # with the consecutive-pair check and a hand-written merge of state
    # records about 0.11 s (0.023 s on a later, quieter run), and with the
    # states as tuples that sorted() merges 0.014 s (least of 5 calls).  The
    # int instance now runs on the packed table, 0.0003 s; the same instance
    # with a Fraction capacity keeps the sweep, 0.021 s (least of 5 calls).
    rng = random.Random(60)
    volumes = [rng.randint(1, 50) for _ in range(60)]
    values = [16 * v + rng.randint(0, 15) for v in volumes]
    capacity = sum(volumes) // 2
    answers = []
    for cap in (capacity, Fraction(capacity)):
        start = time.process_time()
        chosen, value = knapsack_pareto(values, volumes, cap)
        elapsed = time.process_time() - start
        assert sum(volumes[i - 1] for i in chosen) <= capacity
        assert sum(values[i - 1] for i in chosen) == value == 11373
        assert elapsed < 0.5
        answers.append((chosen, value))
    assert answers[0] == answers[1]


def brute_lcs(x, y):
    best = 0
    for r in range(len(x) + 1):
        for combo in itertools.combinations(range(len(x)), r):
            sub = [x[i] for i in combo]
            it = iter(y)
            if all(ch in it for ch in sub):
                best = max(best, r)
    return best


def reference_lcs(x, y):
    """lcs as a cell-by-cell table: every cell compared by == and read and
    written through both full tables."""
    x, y = list(x), list(y)
    n, m = len(x), len(y)
    c = [[0] * (m + 1) for _ in range(n + 1)]
    b = [[None] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if x[i - 1] == y[j - 1]:
                c[i][j] = c[i - 1][j - 1] + 1
                b[i][j] = "Diag"
            elif c[i - 1][j] >= c[i][j - 1]:
                c[i][j] = c[i - 1][j]
                b[i][j] = "Up"
            else:
                c[i][j] = c[i][j - 1]
                b[i][j] = "Left"
    out = []
    i, j = n, m
    while i > 0 and j > 0:
        if b[i][j] == "Diag":
            out.append(x[i - 1])
            i, j = i - 1, j - 1
        elif b[i][j] == "Up":
            i -= 1
        else:
            j -= 1
    out.reverse()
    return c[n][m], out, c, b


def test_lcs_matches_index_based_reference():
    rng = random.Random(41)
    cases = [("", ""), ("", "AB"), ("AB", ""), ("A", "A"), ("ABCBDAB", "BDCABA")]
    for _ in range(300):
        alphabet = rng.choice(("AB", "ACGT", "ABCDEFGHIJ"))
        x, y = ("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30))) for _ in "xy")
        cases.append((x, y))
        cases.append(([ord(ch) % 3 for ch in x], tuple(ord(ch) % 3 for ch in y)))
    # rows of 63-65, 127-129 and about 300 bits carry across machine words
    for size in (63, 64, 65, 127, 128, 129, 299, 300):
        for alphabet in (2, 4, 26):
            x, y = ([rng.randrange(alphabet) for _ in range(size + rng.randint(-2, 2))] for _ in "xy")
            cases.append((x, tuple(y)))
            cases.append(([(v, v % 2) for v in y], tuple((v, v % 2) for v in x)))
    cases.append(([0] * 129, (0,) * 65))
    cases.append(([1] * 64, (0,) * 300))
    for x, y in cases:
        length, seq, tables = lcs(x, y)
        assert (length, seq, tables.lengths, tables.arrows) == reference_lcs(x, y)


def test_lcs_matches_by_equality_not_identity():
    nan = float("nan")
    set_one = {1}
    cases = [
        # a dict would find the one nan object by identity; nan != nan
        ([nan, 1], [nan, 1], (1, [1])),
        ([nan, nan], [nan], (0, [])),
        ([(nan,), 2], [(nan,), 2], (2, [(nan,), 2])),  # tuples holding one nan are equal
        # unhashable items compare by ==, with each other and with hashable ones
        ([[1], [2]], [[2]], (1, [[2]])),
        ([[1], 2, [1]], [[1], 2], (2, [[1], 2])),
        ([{1}, 3], [frozenset({1}), 3], (2, [{1}, 3])),
        ([frozenset({1}), 3], [{1}, 3], (2, [frozenset({1}), 3])),
        ([1, 2.0, True], [1.0, 2, 1], (3, [1, 2.0, True])),
    ]
    for x, y, want in cases:
        length, seq, tables = lcs(x, y)
        assert (length, seq, tables.lengths, tables.arrows) == reference_lcs(x, y)
        assert (length, seq) == want


def test_lcs_5000_by_5000_is_fast():
    rng = random.Random(43)
    x, y = ("".join(rng.choice("ACGT") for _ in range(5000)) for _ in "xy")
    start = time.process_time()
    length, seq, _ = lcs(x, y)
    elapsed = time.process_time() - start
    assert len(seq) == length
    for s, hay in ((seq, x), (seq, y)):
        it = iter(hay)
        assert all(ch in it for ch in s)
    assert elapsed < 0.5


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


def reference_chain(p):
    """The textbook O(n^3) fill (Godbole 1973; CLRS 15.2), diagonal by
    diagonal, the first minimum winning ties; returns (cost, expression,
    costs, splits)."""
    n = len(p) - 1
    m = [[0] * (n + 1) for _ in range(n + 1)]
    s = [[0] * (n + 1) for _ in range(n + 1)]
    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            row, outer = m[i], p[i - 1] * p[j]
            best, arg = row[i] + m[i + 1][j] + outer * p[i], i
            for k in range(i + 1, j):
                q = row[k] + m[k + 1][j] + outer * p[k]
                if q < best:
                    best, arg = q, k
            row[j] = best
            s[i][j] = arg

    def render(i, j):
        return f"A{i}" if i == j else f"({render(i, s[i][j])}{render(s[i][j] + 1, j)})"

    return m[1][n], render(1, n), m, s


def chain_sweep():
    """Seeded dimension vectors for n = 1..30: ints from 1..1, 1..3 (many
    tied splits), 1..60 and 1..10**20, then all-Fraction and mixed
    Fraction/int vectors (some Fractions with denominator 1)."""
    rng = random.Random("chain-sweep")

    def fraction(hi):
        den = rng.choice((1, 2, 3, 4, 6, 7, 12))
        return Fraction(rng.randint(den, den * hi), den)

    for n in range(1, 31):
        for hi in (1, 3, 60, 10**20):
            for _ in range(3):
                yield [rng.randint(1, hi) for _ in range(n + 1)]
        for hi in (3, 60):
            for _ in range(3):
                yield [fraction(hi) for _ in range(n + 1)]
                yield [fraction(hi) if rng.random() < 0.3 else rng.randint(1, hi) for _ in range(n + 1)]


def test_matrix_chain_matches_reference_loop():
    for dims in chain_sweep():
        cost, expr, tables = matrix_chain(dims)
        want_cost, want_expr, want_costs, want_splits = reference_chain(dims)
        assert (cost, expr, tables.costs, tables.splits) == (want_cost, want_expr, want_costs, want_splits), dims
        assert type(cost) is type(want_cost)
        assert [list(map(type, row)) for row in tables.costs] == [list(map(type, row)) for row in want_costs], dims


def test_matrix_chain_400_matrices_is_fast():
    # Process CPU on a 2-CPU Xeon under CPython 3.11: about 0.15-0.3 s on
    # packed rows, 1.2-1.7 s for the diagonal-by-diagonal loop.
    rng = random.Random(400)
    dims = [rng.randint(2, 60) for _ in range(401)]
    start = time.process_time()
    matrix_chain(dims)
    assert time.process_time() - start < 0.8


def test_matrix_chain_three_matrices():
    cost, expr, tables = matrix_chain([10, 100, 5, 50])
    assert cost == 7500
    assert expr == "((A1A2)A3)"
    assert tables.splits[1][3] == 2


def test_matrix_chain_single():
    cost, expr, _ = matrix_chain([3, 7])
    assert cost == 0 and expr == "A1"


def test_matrix_chain_refuses_floats():
    for dims in ([1.5, 2], [1.5, 2.5, 3], [2, 3.0, 4]):
        with pytest.raises(ValueError, match="integers or fractions"):
            matrix_chain(dims)
    cost, _, _ = matrix_chain([Fraction(3, 2), 2, Fraction(5, 2)])
    assert cost == Fraction(15, 2)


def test_knapsack_pareto_refuses_floats():
    for values, volumes, capacity in (([1.5, 2], [1, 2], 3), ([1, 2], [1, 2.0], 3), ([1, 2], [1, 2], 3.0)):
        with pytest.raises(ValueError, match="must be exact ints or fractions"):
            knapsack_pareto(values, volumes, capacity)
    assert knapsack_pareto([Fraction(3, 2), 2], [1, 2], 3) == ({1, 2}, Fraction(7, 2))
    for values, volumes in (([5, 6, 7], [1, 2]), ([5], [1, 2])):
        with pytest.raises(ValueError, match="^values and volumes must align$"):
            knapsack_pareto(values, volumes, 10)


def test_knapsack_entry_points_refuse_the_same_inputs():
    for values, volumes, capacity, message in (
        ([5], [-1], 1, "^inputs must be non-negative$"),
        ([-5], [1], 1, "^inputs must be non-negative$"),
        ([5], [1], -1, "^capacity must be >= 0$"),
        ([5], [1, 2], 1, "^values and volumes must align$"),
        ([5], [1.0], 1, "must be exact ints or fractions$"),
    ):
        for solve in (knapsack_pareto, greedy_knapsack_by_density):
            with pytest.raises(ValueError, match=message):
                solve(values, volumes, capacity)


def test_greedy_knapsack_by_density_refuses_floats():
    for values, volumes, capacity in (([1.5, 2], [1, 2], 3), ([1, 2], [1, 2.0], 3), ([1, 2], [1, 0], 3.5)):
        with pytest.raises(ValueError, match="must be exact ints or fractions"):
            greedy_knapsack_by_density(values, volumes, capacity)
    assert greedy_knapsack_by_density([Fraction(3, 2), 2], [1, 2], Fraction(7, 2)) == ({1, 2}, Fraction(7, 2))
    for values, volumes in (([5, 6, 7], [1, 2]), ([5], [1, 2])):
        with pytest.raises(ValueError, match="^values and volumes must align$"):
            greedy_knapsack_by_density(values, volumes, 10)


def test_polygon_triangulation_refuses_float_weights():
    with pytest.raises(ValueError, match="^triangle weights must be exact ints or fractions$"):
        polygon_triangulation(lambda i, k, j: 0.5, 5)
    assert polygon_triangulation(lambda i, k, j: Fraction(1, 2), 5)[0] == Fraction(3, 2)


def test_triangle_area_weight_refuses_float_coordinates():
    with pytest.raises(ValueError, match="^coordinates must be exact ints or fractions$"):
        triangle_area_weight([(0, 0), (1.5, 0), (0, 1)])
    assert triangle_area_weight([(0, 0), (Fraction(3, 2), 0), (0, 1)])(0, 1, 2) == Fraction(3, 4)


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


def pin_digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def pin_dims(kind, n):
    """Seeded dimension vector for n matrices; "ties" draws from 1..3 and
    "equal" repeats one value, so many splits cost the same."""
    rng = random.Random(f"chain-{kind}-{n}")
    if kind == "equal":
        return [5] * (n + 1)
    return [rng.randint(1, 3 if kind == "ties" else 60) for _ in range(n + 1)]


def pin_knapsacks(kind):
    """Thirty seeded tie-heavy knapsack instances of 1..14 items: free
    (many zero volumes and values), flat (one value for all items), twins
    (one value and one volume for all items) and empty (capacity 0)."""
    rng = random.Random(f"knapsack-{kind}")
    out = []
    for _ in range(30):
        n = rng.randint(1, 14)
        if kind == "free":
            values = [rng.choice((0, 0, 1, 2, 5)) for _ in range(n)]
            volumes = [rng.choice((0, 0, 0, 1, 3)) for _ in range(n)]
        elif kind == "flat":
            values = [7] * n
            volumes = [rng.randint(0, 4) for _ in range(n)]
        elif kind == "twins":
            values, volumes = [3] * n, [2] * n
        else:
            values = [rng.randint(0, 9) for _ in range(n)]
            volumes = [rng.choice((0, 0, 1, 2)) for _ in range(n)]
        capacity = 0 if kind == "empty" else rng.randint(0, sum(volumes) + 1)
        out.append((values, volumes, capacity))
    return out


# sha256 of the full tables and of the chosen item sets, recorded before
# the chain loop was hoisted and the Pareto sweep merged its lists; the
# rewrite must not move them.
CHAIN_TABLES = {
    ("equal", 1): "0bca226368cdf64f77add4b21fef6b299c6c0058745a6c7dfb21b3684a230ce8",
    ("equal", 2): "264149f2039457a989468744cf7b0f4e4334909cbc382360a52b068912959535",
    ("equal", 3): "c72f8344d6ea7939e87eae7efd7b9aea843a446a963abc81777f8dc394e110d5",
    ("equal", 10): "362f68cf6270c914ae1fb60e95ea0a96e114f9ea1908664374985bebfb82c4c3",
    ("equal", 60): "aee8ec7b2fd4b30be09f5addfc8ee3c0643b7e25755f3e564d5a5cab7a8189a9",
    ("equal", 150): "15e66ddacc92d5fc224fa1af345387029840bda01d496c8b5f052b512ea5ce2a",
    ("random", 1): "0bca226368cdf64f77add4b21fef6b299c6c0058745a6c7dfb21b3684a230ce8",
    ("random", 2): "51d691fe56bfacb910e0c56b5850e477bcadf00f1e320d23f55303598625179e",
    ("random", 3): "4f06ab7066ba07693e6228be25b8fe3d26e245416537439aa8f56ad87ab9b81a",
    ("random", 10): "4eb8c5288837a1e90e29e0bc3ec97cccc75b0074a08d08bd3b56730ceab9d07f",
    ("random", 60): "11521d98cd155fe90c0f954c0a6c69f1afa7fd91237de9ba45b84d9e9270abfc",
    ("random", 150): "c9900cf9ee2b0e13f168e23c7a62aa707ff7f94bb94307fc3429f8ed31976952",
    ("ties", 1): "0bca226368cdf64f77add4b21fef6b299c6c0058745a6c7dfb21b3684a230ce8",
    ("ties", 2): "fc61e69de82a466049fcd2445e3b713f983ab114f19e9a85769ab7e66b27ab59",
    ("ties", 3): "97b1b721a8539a97e3099381c945766ec73738e4770f389b19ec2dcceee76faa",
    ("ties", 10): "996a0b3de2b8f077cbdb35fe05b3a712c69377b29b707ea17c9f937227246019",
    ("ties", 60): "cc914a7921d1191bafc1608045ac6f8fef0402450e9d7bea9825962ee263ca8a",
    ("ties", 150): "fc5ed29fb2b3defb392809b02b5ac5e9f0ce81b8bc282e073980c7e502c6e20a",
}

KNAPSACK_CHOICES = {
    "empty": "376f093fcb080860724afa8c169c96bc3d79c570dcc0e39eb05c77067c386c45",
    "flat": "c8eca54f3a4fd41a8a59f906441db50d28bd025a7b00d5e11b28ec6dc0f67026",
    "free": "17cdec752955ea450c11273ae1409f090aaa779bce81d25dd789bc6a2a07397e",
    "twins": "4ad05355374767c2e3efd7a83ab3f335b94179a119fb6860b14577156e18ce51",
}


@pytest.mark.parametrize("case", sorted(CHAIN_TABLES), ids="{0[0]}-{0[1]}".format)
def test_chain_tables_pinned(case):
    cost, expr, tables = matrix_chain(pin_dims(*case))
    assert pin_digest((cost, expr, tables.costs, tables.splits)) == CHAIN_TABLES[case]


@pytest.mark.parametrize("kind", sorted(KNAPSACK_CHOICES))
def test_knapsack_choices_pinned(kind):
    choices = []
    for values, volumes, capacity in pin_knapsacks(kind):
        chosen, value = knapsack_pareto(values, volumes, capacity)
        choices.append((sorted(chosen), value))
    assert pin_digest(choices) == KNAPSACK_CHOICES[kind]


def tie_heavy_knapsacks(rng, count):
    """Seeded instances of 0..14 items with many (0, 0) items, many items
    heavier than the capacity, and many capacities of 0."""
    out = [([], [], 0), ([], [], 5), ([4, 0, 2], [1, 0, 3], 0)]
    for _ in range(count):
        n = rng.randint(0, 14)
        values = [rng.choice((0, 0, 1, 2, 5, rng.randint(0, 40))) for _ in range(n)]
        volumes = [rng.choice((0, 0, 1, 3, rng.randint(0, 30))) for _ in range(n)]
        out.append((values, volumes, rng.choice((0, rng.randint(0, sum(volumes) // 2 + 1)))))
    return out


def assert_table_matches_sweep(values, volumes, capacity):
    want = _knapsack_sweep(values, volumes, capacity)
    assert _knapsack_table(values, volumes, capacity) == want
    assert knapsack_pareto(values, volumes, capacity) == want


@pytest.mark.parametrize("kind", sorted(KNAPSACK_CHOICES))
def test_knapsack_table_matches_the_sweep_on_the_pinned_kinds(kind):
    for values, volumes, capacity in pin_knapsacks(kind):
        assert_table_matches_sweep(values, volumes, capacity)


def test_knapsack_table_matches_the_sweep_on_zero_and_heavy_items():
    instances = tie_heavy_knapsacks(random.Random(43), 1500)
    for values, volumes, capacity in instances:
        assert_table_matches_sweep(values, volumes, capacity)
    zero = sum(c == v == 0 for values, volumes, _ in instances for c, v in zip(values, volumes))
    heavy = sum(v > cap for values, volumes, cap in instances for v in volumes)
    assert zero > 1000 and heavy > 1000
    assert sum(not values for values, _, _ in instances) > 50
    assert sum(cap == 0 for _, _, cap in instances) > 500


@pytest.mark.parametrize("width", (16, 32, 64, 72))
def test_knapsack_table_matches_the_sweep_at_each_field_width(width):
    # Each value is a digit 0..9 shifted up, so ties stay as common as
    # with the digits, plus a little noise; one item of 2^(width - 3)
    # lifts the value sum past the next narrower width.
    rng = random.Random(width)
    for values, volumes, capacity in tie_heavy_knapsacks(rng, 150):
        values = [(c % 10 << width - 9) + rng.randint(0, 3) * (c > 5) for c in values] + [1 << width - 3]
        volumes = volumes + [rng.randint(0, 4)]
        assert _cell_width(sum(values) + 1) == width
        assert_table_matches_sweep(values, volumes, capacity)


def test_knapsack_pareto_takes_the_table_only_for_small_int_tables(monkeypatch):
    ran = []
    for name in ("_knapsack_table", "_knapsack_sweep"):
        path = getattr(dp, name)
        monkeypatch.setattr(dp, name, lambda *args, path=path: ran.append(path.__name__) or path(*args))
    rng = random.Random(45)
    volumes = [rng.randint(1, 50) for _ in range(40)]
    values = [rng.randint(1, 300) for _ in range(40)]
    capacity = sum(volumes) // 2
    want = knapsack_pareto(values, volumes, capacity)
    assert ran == ["_knapsack_table"]
    everything = (set(range(1, 41)), sum(values))
    for args, answer in (
        ((values, volumes, Fraction(capacity)), want),
        (([Fraction(c) for c in values], volumes, capacity), want),
        ((values, [Decimal(v) for v in volumes], capacity), want),
        (([True] * 40, volumes, capacity), None),
        ((values, volumes, 10**20), everything),
    ):
        ran.clear()
        got = knapsack_pareto(*args)
        assert ran == ["_knapsack_sweep"]
        assert answer is None or got == answer
    ran.clear()
    assert knapsack_pareto([True] * 40, volumes, capacity) == knapsack_pareto([1] * 40, volumes, capacity)
    assert ran == ["_knapsack_sweep", "_knapsack_table"]

