import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from combinlab.approx import (
    MetricTspInstance,
    bin_pack_first_fit,
    bin_pack_optimum,
    fptas_truncation_bits,
    knapsack_fptas,
    knapsack_optimum,
    make_report,
    max_cut_local_search,
    max_cut_optimum,
    min_perfect_matching_exact,
    random_metric_instance,
    set_cover_greedy,
    set_cover_optimum,
    tour_length,
    tsp_christofides,
    tsp_double_tree,
    tsp_gap_instance,
    tsp_optimum,
    vc_degree_greedy,
    vc_greedy_counterexample,
    vc_matching_2approx,
    vertex_cover_optimum,
)
from combinlab.complexity import InstanceTooLargeError
from combinlab.graph_core import Graph
from combinlab.intmath import harmonic


def is_cover(g, cover):
    return all(u in cover or v in cover for u, v in g.edges)


def random_graph(rng, n, p=0.5):
    return Graph(
        n,
        [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < p
        ],
    )


def test_vc_matching_examples():
    path = Graph(3, [(1, 2), (2, 3)])
    cover = vc_matching_2approx(path)
    assert is_cover(path, cover) and len(cover) == 2
    assert vertex_cover_optimum(path) == 1

    assert vc_matching_2approx(Graph(4, [])) == set()

    matching = Graph(6, [(1, 2), (3, 4), (5, 6)])
    cover = vc_matching_2approx(matching)
    assert len(cover) == 6 and vertex_cover_optimum(matching) == 3


def test_vc_matching_ratio_random():
    rng = random.Random(1)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9))
        cover = vc_matching_2approx(g)
        assert is_cover(g, cover)
        assert len(cover) <= 2 * vertex_cover_optimum(g)


def test_vc_degree_greedy_star():
    star = Graph(6, [(1, i) for i in range(2, 7)])
    assert vc_degree_greedy(star) == {1}


def test_vc_counterexample_family():
    g = vc_greedy_counterexample(2)
    gadgets = g.n - 2
    assert gadgets == sum(2 // k for k in range(1, 3))
    cover = {g.n - 1, g.n}  # the two cores
    assert is_cover(g, cover)

    for n in (2, 6, 10):
        g = vc_greedy_counterexample(n)
        cores = set(range(g.n - n + 1, g.n + 1))
        assert is_cover(g, cores)

    g6 = vc_greedy_counterexample(6)
    greedy = vc_degree_greedy(g6)
    assert is_cover(g6, greedy)
    ratio = Fraction(len(greedy), 6)
    assert ratio >= harmonic(6) - 1
    assert ratio > Fraction(14, 10)


def test_vc_counterexample_ratio_grows():
    ratios = []
    for n in (6, 12, 18, 24, 30):
        g = vc_greedy_counterexample(n)
        greedy = vc_degree_greedy(g)
        assert is_cover(g, greedy)
        assert len(greedy) == sum(n // k for k in range(1, n + 1))
        ratios.append(Fraction(len(greedy), n))
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_set_cover_greedy_cases():
    # disjoint family: greedy is optimal
    fam = [frozenset({1, 2}), frozenset({3}), frozenset({4, 5})]
    chosen = set_cover_greedy({1, 2, 3, 4, 5}, fam)
    assert len(chosen) == 3

    fam = [frozenset({1, 2, 3}), frozenset({1, 2}), frozenset({3})]
    assert set_cover_greedy({1, 2, 3}, fam) == [1]

    with pytest.raises(ValueError):
        set_cover_greedy({1, 2}, [frozenset({1})])


def test_set_cover_greedy_ratio_random():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 8)
        universe = set(range(1, n + 1))
        m = rng.randint(1, 8)
        family = [
            frozenset(x for x in universe if rng.random() < 0.5) or frozenset({1})
            for _ in range(m)
        ]
        family.append(frozenset(universe))  # guarantee coverage
        chosen = set_cover_greedy(universe, family)
        covered = set().union(*(family[i - 1] for i in chosen))
        assert covered == universe
        opt = set_cover_optimum(universe, family)
        biggest = max(len(s) for s in family)
        assert Fraction(len(chosen)) <= harmonic(biggest) * opt


def check_tour(tour, n):
    assert sorted(tour) == list(range(1, n + 1))


def test_double_tree_equilateral():
    inst = MetricTspInstance([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    tour = tsp_double_tree(inst)
    check_tour(tour, 3)
    assert inst.tour_length(tour) == 3


def test_double_tree_square():
    inst = MetricTspInstance(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    )
    tour = tsp_double_tree(inst)
    check_tour(tour, 4)
    assert inst.tour_length(tour) <= 2 * tsp_optimum(inst.matrix)


def test_metric_validation():
    with pytest.raises(ValueError):
        MetricTspInstance([[0, 5], [5, 1]])
    with pytest.raises(ValueError):
        MetricTspInstance([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        MetricTspInstance([[0, 10, 1], [10, 0, 1], [1, 1, 0]])
    with pytest.raises(ValueError, match="^matrix must be square$"):
        MetricTspInstance([[0], [1, 0]])
    with pytest.raises(ValueError, match="^distances must be non-negative$"):
        MetricTspInstance([[0, -1], [-1, 0]])


@pytest.mark.parametrize("tour", [tsp_double_tree, tsp_christofides])
def test_tours_need_three_cities(tour):
    with pytest.raises(ValueError, match="^needs n >= 3$"):
        tour(MetricTspInstance([[0, 1], [1, 0]]))


def test_christofides_refuses_more_than_20_odd_vertices():
    # A star: the hub is 1 from each of 21 leaves, the leaves 2 apart, so the
    # spanning tree is the star and all 22 of its vertices have odd degree.
    n = 22
    star = [[0 if i == j else 1 if 0 in (i, j) else 2 for j in range(n)] for i in range(n)]
    with pytest.raises(ValueError, match="^odd-degree set larger than 20"):
        tsp_christofides(MetricTspInstance(star))
    check_tour(tsp_double_tree(star), n)


def test_metric_tsp_instance_refuses_floats():
    with pytest.raises(ValueError, match="^matrix must be exact ints or fractions$"):
        MetricTspInstance([[0, 1.5, 1], [1.5, 0, 1], [1, 1, 0]])
    half = Fraction(3, 2)
    inst = MetricTspInstance([[0, half, 1], [half, 0, 1], [1, 1, 0]])
    assert inst.tour_length([1, 2, 3]) == Fraction(7, 2)


def test_matching_exact_small():
    assert min_perfect_matching_exact([1, 2], lambda a, b: 7) == [(1, 2)]
    weights = {(1, 2): 10, (3, 4): 10, (1, 3): 1, (2, 4): 1, (1, 4): 5, (2, 3): 5}

    def w(a, b):
        return weights[(min(a, b), max(a, b))]

    pairs = min_perfect_matching_exact([1, 2, 3, 4], w)
    assert sum(w(a, b) for a, b in pairs) == 2
    with pytest.raises(ValueError):
        min_perfect_matching_exact([1, 2, 3], lambda a, b: 1)


def test_matching_exact_matches_enumeration():
    rng = random.Random(3)
    for _ in range(20):
        vs = list(range(1, 9))
        table = {}
        for a, b in itertools.combinations(vs, 2):
            table[(a, b)] = rng.randint(1, 50)

        def w(a, b):
            return table[(min(a, b), max(a, b))]

        pairs = min_perfect_matching_exact(vs, w)
        got = sum(w(a, b) for a, b in pairs)

        def all_matchings(rest):
            if not rest:
                yield 0
                return
            first = rest[0]
            for i in range(1, len(rest)):
                for tail in all_matchings(rest[1:i] + rest[i + 1 :]):
                    yield w(first, rest[i]) + tail

        assert got == min(all_matchings(vs))


def test_christofides_small_and_ratio():
    inst = MetricTspInstance([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    tour = tsp_christofides(inst)
    check_tour(tour, 3)
    assert inst.tour_length(tour) == 3

    rng = random.Random(5)
    for trial in range(120):
        n = rng.randint(4, 9)
        inst = random_metric_instance(n, seed=1000 + trial)
        opt = tsp_optimum(inst.matrix)
        ch = inst.tour_length(tsp_christofides(inst))
        dt = inst.tour_length(tsp_double_tree(inst))
        if opt:
            assert 2 * ch <= 3 * opt, (trial, ch, opt)
            assert dt <= 2 * opt


def test_christofides_beats_double_tree_somewhere():
    # 5-city L1 metric found by a seed scan: the doubled tree pays 192
    # while the matching route pays 174.
    inst = random_metric_instance(5, seed=1)
    dt = inst.tour_length(tsp_double_tree(inst))
    ch = inst.tour_length(tsp_christofides(inst))
    assert ch < dt


def test_fptas_huge_eps_still_feasible():
    chosen, value = knapsack_fptas(CAP85_VALUES, CAP85_VOLUMES, 85, 10**6)
    assert sum(CAP85_VOLUMES[i - 1] for i in chosen) <= 85
    assert value * (1 + 10**6) >= 340  # vacuous bound still holds


def test_merge_lower_bound_sandwich():
    from math import comb

    from combinlab.intmath import ceil_log2
    from combinlab.sorting import merge_runs
    from combinlab.oracles import counting_comparator

    def merge_lower_bound(m, n):  # information bound ceil(log2 C(m+n, n))
        return ceil_log2(comb(m + n, n))

    assert merge_lower_bound(1, 7) == 3  # reported optimum, not reached
    x, y = [2, 4, 6], [1, 3, 5]
    items = x + y
    cmp = counting_comparator(items)
    merge_runs([0, 1, 2], [3, 4, 5], cmp)
    assert merge_lower_bound(3, 3) <= cmp.count <= 5


def test_gap_instance_values():
    cycle = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    matrix = tsp_gap_instance(cycle, 1)
    assert tsp_optimum(matrix) == 5

    path = Graph(4, [(1, 2), (2, 3), (3, 4)])
    matrix = tsp_gap_instance(path, 1)
    assert tsp_optimum(matrix) >= (1 + 1) * 4 + 1 + 3

    # a non-edge plus eps*|V| >= 1 breaks the triangle inequality
    with pytest.raises(ValueError):
        MetricTspInstance(tsp_gap_instance(path, 1))


def test_max_cut_cases():
    k2 = Graph(2, [(1, 2)])
    _, cut = max_cut_local_search(k2)
    assert cut == 1 == max_cut_optimum(k2)

    k3 = Graph(3, [(1, 2), (2, 3), (1, 3)])
    _, cut = max_cut_local_search(k3)
    assert cut == 2 == max_cut_optimum(k3)


def test_max_cut_ratio_random():
    rng = random.Random(11)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 10))
        chosen, cut = max_cut_local_search(g)
        recount = sum(
            1 for u, v in g.edges if (u in chosen) != (v in chosen)
        )
        assert recount == cut
        assert max_cut_optimum(g) <= 2 * max(cut, 1) or not g.edges
        # local optimality: no single-vertex move improves
        for v in range(1, g.n + 1):
            flipped = chosen ^ {v}
            flip_cut = sum(
                1 for a, b in g.edges if (a in flipped) != (b in flipped)
            )
            assert flip_cut <= cut


CAP85_VALUES = [160, 250, 180, 30]
CAP85_VOLUMES = [40, 50, 40, 20]


def reference_truncation_bits(values, eps):
    """The bit count as first written: one Fraction test per bit."""
    eps = Fraction(eps)
    n = len(values)
    c0 = max(values, default=0)
    b = 0
    if n and c0:
        while Fraction(2 ** (b + 1)) * n * (1 + eps) <= c0 * eps:
            b += 1
    return b


def test_fptas_b_formula():
    assert fptas_truncation_bits([250, 1, 1, 1], Fraction(1, 2)) == 4
    epsilons = [Fraction(p, q) for p in (1, 2, 3, 7, 50) for q in (1, 2, 3, 10, 99)]
    for c0 in [*range(-3, 70), 255, 256, 257, 10**6, 2**40 + 1, Fraction(1001, 3)]:
        for n in range(0, 6):
            values = [c0] + [1] * (n - 1) if n else []
            for eps in epsilons:
                assert fptas_truncation_bits(values, eps) == reference_truncation_bits(values, eps)
    for eps in (0, -2, Fraction(-1, 3)):
        with pytest.raises(ValueError, match="^needs eps > 0$"):
            fptas_truncation_bits([1], eps)
    for args in (([1.0], 1), ([1], 0.5)):
        with pytest.raises(ValueError, match="must be exact ints or fractions$"):
            fptas_truncation_bits(*args)


def test_fptas_capacity85_instance():
    chosen, value = knapsack_fptas(CAP85_VALUES, CAP85_VOLUMES, 85, Fraction(1, 2))
    assert sum(CAP85_VOLUMES[i - 1] for i in chosen) <= 85
    assert 3 * value >= 2 * 340  # value >= OPT / 1.5


def test_fptas_ratio_random():
    rng = random.Random(13)
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
        for _ in range(60):
            n = rng.randint(1, 10)
            values = [rng.randint(1, 300) for _ in range(n)]
            volumes = [rng.randint(1, 20) for _ in range(n)]
            cap = rng.randint(0, 60)
            chosen, value = knapsack_fptas(values, volumes, cap, eps)
            assert sum(volumes[i - 1] for i in chosen) <= cap
            opt = knapsack_optimum(values, volumes, cap)
            assert value * (1 + eps) >= opt, (values, volumes, cap, eps)


def test_bin_pack_examples():
    assignment = bin_pack_first_fit(["0.6", "0.6", "0.6"])
    assert len(set(assignment)) == 3 == bin_pack_optimum(["0.6", "0.6", "0.6"])

    assignment = bin_pack_first_fit(["0.5", "0.5", "0.5", "0.5"])
    assert len(set(assignment)) == 2

    with pytest.raises(ValueError):
        bin_pack_first_fit(["1.5"])


@pytest.mark.parametrize("pack", [bin_pack_first_fit, bin_pack_optimum])
def test_bin_packing_refuses_a_zero_denominator(pack):
    with pytest.raises(ValueError, match="^bad size '1/0': zero denominator$"):
        pack(["1/2", "1/0"])


def test_eps_with_a_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="^bad eps '1/0': zero denominator$"):
        knapsack_fptas([1, 2], [1, 2], 3, "1/0")


def test_knapsack_optimum_refuses_floats():
    with pytest.raises(ValueError, match="must be exact ints or fractions"):
        knapsack_optimum([1.5, 2], [1, 2], 3)
    assert knapsack_optimum([Fraction(3, 2), 2], [1, 2], 3) == Fraction(7, 2)
    for values, volumes in (([5, 6, 7], [1, 2]), ([5], [1, 2])):
        with pytest.raises(ValueError, match="^values and volumes must align$"):
            knapsack_optimum(values, volumes, 10)


def test_tsp_optimum_refuses_floats():
    for matrix in ([[0, 1.5, 2], [1.5, 0, 1], [2, 1, 0]], [[0.0]]):
        with pytest.raises(ValueError, match="^matrix must be exact ints or fractions$"):
            tsp_optimum(matrix)
    assert tsp_optimum([[0, Fraction(3, 2), 2], [Fraction(3, 2), 0, 1], [2, 1, 0]]) == Fraction(9, 2)


def test_knapsack_fptas_refuses_floats():
    for args in (([1, 2], [1, 2], 3, 0.5), ([1, 2], [1.0, 2], 3, Fraction(1, 2))):
        with pytest.raises(ValueError, match="must be exact ints or fractions"):
            knapsack_fptas(*args)
    assert knapsack_fptas([1, 2], [1, 2], 3, Fraction(1, 2)) == ({1, 2}, 3)


def test_knapsack_fptas_refuses_fraction_values():
    # the truncation shifts the values' low bits away, which needs ints
    with pytest.raises(ValueError, match="^values must be ints$"):
        knapsack_fptas([Fraction(1, 2), 3], [1, 1], 1, 1)
    assert knapsack_fptas([1, 3], [Fraction(1, 2), 1], Fraction(3, 2), 1) == ({1, 2}, 4)


@pytest.mark.parametrize("pack", [bin_pack_first_fit, bin_pack_optimum])
def test_bin_packing_refuses_float_sizes(pack):
    with pytest.raises(ValueError, match="sizes must be exact ints or fractions"):
        pack([0.5, 0.25])
    assert pack([Fraction(1, 2), Fraction(1, 4), "1/4"]) == pack(["1/2", "1/4", "1/4"])


@pytest.mark.parametrize("pack", [bin_pack_first_fit, bin_pack_optimum])
def test_bin_packing_refuses_sizes_outside_the_unit_interval(pack):
    for sizes in ([2], [Fraction(1, 2), Fraction(3, 2)], ["-1/4"]):
        with pytest.raises(ValueError, match=r"^sizes must lie in \[0, 1\]$"):
            pack(sizes)


def test_distance_matrices_must_be_square():
    for matrix in ([[0, 1, 2], [1, 0, 1]], [[0, 1], [1, 0, 5]]):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            tsp_optimum(matrix)
    # the symmetry loop would read the short last row past its end
    with pytest.raises(ValueError, match="^matrix must be square$"):
        MetricTspInstance([[0, 1, 5], [1, 0, 1], [5]])
    assert tsp_optimum([[Fraction(3, 2)]]) == Fraction(3, 2)


def recursive_bin_pack_optimum(sizes) -> int:
    """The recursive search that bin_pack_optimum replaced, kept as the
    reference: same branching order and pruning."""
    sizes = [Fraction(s) for s in sizes]
    if not sizes:
        return 0
    bins: list[Fraction] = []

    best = [len(sizes)]

    def place(i: int):
        if len(bins) >= best[0]:
            return
        if i == len(sizes):
            best[0] = min(best[0], len(bins))
            return
        s = sizes[i]
        tried = set()
        for idx in range(len(bins)):
            room = bins[idx]
            if s <= room and room not in tried:
                tried.add(room)
                bins[idx] = room - s
                place(i + 1)
                bins[idx] = room
        bins.append(Fraction(1) - s)
        place(i + 1)
        bins.pop()

    place(0)
    return best[0]


def test_bin_pack_optimum_matches_recursive_reference():
    rng = random.Random(10)
    cases = [[], ["0"], ["1"], ["1/2", "1/2"]]
    # criterion 10's instances, then tenths as in the benchmark's desk jobs,
    # where many bins share a room
    cases += [
        [Fraction(rng.randint(0, 100), 100) for _ in range(rng.randint(1, 9))]
        for _ in range(300)
    ]
    cases += [
        [f"{rng.randint(1, 9)}/10" for _ in range(rng.randint(6, 10))]
        for _ in range(100)
    ]
    for sizes in cases:
        assert bin_pack_optimum(sizes) == recursive_bin_pack_optimum(sizes), sizes


def test_bin_pack_optimum_deeper_than_the_recursion_limit():
    assert bin_pack_optimum([1] * 1200) == 1200
    assert bin_pack_optimum([0] * 1200) == 1


def test_bin_pack_optimum_stops_at_its_lower_bound():
    # The first leaf already holds ceil(sum of sizes) bins; a search that
    # went on past it took about 4x longer for every two more halves.
    start = time.process_time()
    assert bin_pack_optimum(["1/2"] * 40) == 20
    assert time.process_time() - start < 1.0


def test_bin_pack_half_full_and_ratio():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 10)
        sizes = [Fraction(rng.randint(0, 100), 100) for _ in range(n)]
        assignment = bin_pack_first_fit(sizes)
        bins = max(assignment)
        fill = {}
        for s, b in zip(sizes, assignment):
            fill[b] = fill.get(b, Fraction(0)) + s
        assert all(v <= 1 for v in fill.values())
        # at most one bin less than half full
        assert sum(1 for v in fill.values() if v < Fraction(1, 2)) <= 1
        total = sum(sizes)
        assert bins <= max(1, -((-2 * total) // 1))
        assert bins <= 2 * bin_pack_optimum(sizes)


def test_report_json_is_deterministic():
    r1 = make_report("vc", 5, 4, 2, 2, {"edges": [1, 2]}, seed=7)
    r2 = make_report("vc", 5, 4, 2, 2, {"edges": [1, 2]}, seed=7)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["ratio"] == "2/1"


# --- the enumerations the exact optima replaced, kept as references ---------


def reference_vertex_cover_optimum(g) -> int:
    for k in range(0, g.n + 1):
        for combo in itertools.combinations(range(1, g.n + 1), k):
            vs = set(combo)
            if all(u in vs or v in vs for u, v in g.edges):
                return k
    return g.n


def reference_tsp_optimum(matrix):
    n = len(matrix)
    best = None
    for perm in itertools.permutations(range(2, n + 1)):
        length = tour_length(matrix, [1, *perm])
        if best is None or length < best:
            best = length
    return best


def reference_set_cover_optimum(universe, family) -> int:
    universe = set(universe)
    m = len(family)
    for k in range(0, m + 1):
        for combo in itertools.combinations(range(m), k):
            covered = set().union(*(family[i] for i in combo)) if combo else set()
            if covered >= universe:
                return k
    raise ValueError("family does not cover the universe")


def reference_max_cut_optimum(g) -> int:
    best = 0
    for mask in range(1 << (g.n - 1)) if g.n else [0]:
        side = {v: bool(mask >> (v - 1) & 1) for v in range(1, g.n + 1)}
        best = max(best, sum(1 for u, v in g.edges if side[u] != side[v]))
    return best


def reference_knapsack_optimum(values, volumes, capacity):
    n = len(values)
    best = 0
    for mask in range(1 << n):
        vol = val = 0
        for i in range(n):
            if mask >> i & 1:
                vol += volumes[i]
                val += values[i]
        if vol <= capacity:
            best = max(best, val)
    return best


def small_graphs(rng, sizes, per_size):
    """Edgeless graphs and random ones of several densities per size."""
    for n in sizes:
        yield Graph(n, [])
        for trial in range(per_size):
            yield random_graph(rng, n, (0.15, 0.3, 0.5, 0.8)[trial % 4])


def test_vertex_cover_optimum_matches_reference():
    rng = random.Random(21)
    graphs = [*small_graphs(rng, range(0, 12), 8), *small_graphs(rng, (12, 13, 14), 3)]
    graphs.append(petersen())
    for g in graphs:
        assert vertex_cover_optimum(g) == reference_vertex_cover_optimum(g), (g.n, g.edges)


def test_max_cut_optimum_matches_reference():
    rng = random.Random(22)
    for g in [*small_graphs(rng, range(0, 12), 8), *small_graphs(rng, (12, 13, 14), 3)]:
        assert max_cut_optimum(g) == reference_max_cut_optimum(g), (g.n, g.edges)


def test_set_cover_optimum_matches_reference():
    # Elements 0 and n + 1 lie outside the universe; some families miss
    # part of it.
    rng = random.Random(26)
    for _ in range(300):
        n = rng.randint(0, 10)
        p = rng.choice((0.2, 0.4, 0.6))
        family = [[x for x in range(0, n + 2) if rng.random() < p] for _ in range(rng.randint(0, 14))]
        universe = list(range(1, n + 1))
        try:
            want = reference_set_cover_optimum(universe, family)
        except ValueError:
            with pytest.raises(ValueError, match="does not cover"):
                set_cover_optimum(universe, family)
        else:
            assert set_cover_optimum(universe, family) == want, (universe, family)


def tsp_matrices(rng):
    """Asymmetric, non-metric, zero and Fraction-weighted matrices, and
    gap instances, from 0 cities up to 9."""
    yield []
    yield [[0]]
    yield [[Fraction(3, 2)]]
    yield [[0, 3], [5, 0]]
    yield [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for n in range(2, 10):
        for trial in range(4 if n < 9 else 1):
            kind = trial % 4
            if kind == 0:  # asymmetric integers
                m = [[0 if i == j else rng.randint(0, 20) for j in range(n)] for i in range(n)]
            elif kind == 1:  # symmetric, far from metric
                m = [[0] * n for _ in range(n)]
                for i, j in itertools.combinations(range(n), 2):
                    m[i][j] = m[j][i] = rng.choice((0, 1, 100, rng.randint(0, 9)))
            elif kind == 2:  # asymmetric, Fractions among integers
                m = [[0 if i == j else rng.choice((rng.randint(0, 5), Fraction(rng.randint(0, 9), rng.randint(1, 4))))
                      for j in range(n)] for i in range(n)]
            else:
                m = [list(r) for r in random_metric_instance(n, seed=rng.randint(0, 10**6)).matrix]
            yield m
    for n in range(3, 9):
        g = random_graph(rng, n, 0.6)
        yield tsp_gap_instance(g, 1)
        yield tsp_gap_instance(g, Fraction(1, 3))


def test_tsp_optimum_matches_reference():
    for m in tsp_matrices(random.Random(23)):
        got, want = tsp_optimum(m), reference_tsp_optimum(m)
        # the same value and the same type: "p/q" reports print the type
        assert (got, type(got)) == (want, type(want)), m


def knapsack_instances(rng):
    yield [], [], 0
    yield [], [], -1
    yield [4], [2], 0
    yield [4, 7], [2, 3], -1
    yield [0, 0, 5], [0, 3, 0], 0
    yield [Fraction(1, 2), 3, Fraction(7, 3)], [Fraction(2, 3), 1, 1], Fraction(5, 3)
    for n in range(1, 15):
        for trial in range(6 if n < 12 else 2):
            values = [rng.randint(0, 300) for _ in range(n)]
            volumes = [rng.randint(0, 50) for _ in range(n)]
            if trial % 3 == 2:
                values = [Fraction(v, rng.randint(1, 7)) for v in values]
                volumes = [Fraction(v, rng.randint(1, 7)) for v in volumes]
            cap = rng.choice((0, -1, sum(volumes) // 2, sum(volumes)))
            yield values, volumes, cap


def test_knapsack_optimum_matches_reference():
    for values, volumes, cap in knapsack_instances(random.Random(24)):
        assert knapsack_optimum(values, volumes, cap) == reference_knapsack_optimum(
            values, volumes, cap), (values, volumes, cap)


def fraction_walk_knapsack_optimum(values, volumes, capacity):
    """knapsack_optimum's Gray-code walk on the numbers as given, as it ran
    before Fractions were scaled to integers: the reference for the type
    of the result, which is that of the running sum at the best step."""
    best = vol = val = chosen = 0
    for step in range(1, 1 << len(values)):
        low = step & -step
        i = low.bit_length() - 1
        chosen ^= low
        if chosen & low:
            vol += volumes[i]
            val += values[i]
        else:
            vol -= volumes[i]
            val -= values[i]
        if vol <= capacity and val > best:
            best = val
    return best


def fraction_knapsacks(rng):
    yield [Fraction(1, 2), 3, Fraction(7, 3)], [Fraction(2, 3), 1, 1], Fraction(5, 3)
    # the walk adds item 0 first and removes it at step 3, leaving 3 as Fraction(3)
    yield [Fraction(1, 2), 3], [1, 1], 1
    yield [3, Fraction(1, 2)], [1, 1], 1
    yield [Fraction(4, 2), 1], [5, 1], 4
    for n in range(1, 13):
        for trial in range(8):
            values = [rng.randint(0, 60) for _ in range(n)]
            volumes = [rng.randint(0, 20) for _ in range(n)]
            if trial % 4 != 1:  # Fraction values at some positions
                values = [Fraction(v, rng.randint(1, 5)) if rng.random() < 0.4 else v
                          for v in values]
            if trial % 4 != 0:  # Fraction volumes at some positions
                volumes = [Fraction(v, rng.randint(1, 5)) if rng.random() < 0.4 else v
                           for v in volumes]
            cap = rng.choice((0, -1, sum(volumes) // 2, Fraction(sum(volumes), 3), Fraction(1, 3)))
            yield values, volumes, cap


def test_knapsack_optimum_on_fractions_keeps_value_and_type():
    for values, volumes, cap in fraction_knapsacks(random.Random(31)):
        got = knapsack_optimum(values, volumes, cap)
        want = fraction_walk_knapsack_optimum(values, volumes, cap)
        assert (got, type(got)) == (want, type(want)), (values, volumes, cap)
        assert got == reference_knapsack_optimum(values, volumes, cap)


def test_knapsack_optimum_ties_keep_the_type_of_the_walks_first_best_step():
    # Values of 0-3, some of them Fractions equal to ints, tie often across
    # the two halves; the walk's first best subset has the lowest top item.
    cases = [([2, 1, Fraction(2)], [1, 1, 1], 1), ([Fraction(2), 1, 2], [1, 1, 1], 1)]
    rng = random.Random(47)
    for n in range(1, 11):
        for _ in range(40):
            values = [rng.randint(0, 3) for _ in range(n)]
            values = [Fraction(v) if rng.random() < 0.3 else v for v in values]
            volumes = [rng.randint(0, 3) for _ in range(n)]
            cases.append((values, volumes, rng.randint(0, 2 * n)))
    for values, volumes, cap in cases:
        got = knapsack_optimum(values, volumes, cap)
        want = fraction_walk_knapsack_optimum(values, volumes, cap)
        assert (got, type(got)) == (want, type(want)), (values, volumes, cap)


def test_knapsack_optimum_on_fractions_at_the_cap():
    # Walking the Fractions themselves took 5.5 s here; as scaled integers
    # they cost what 20 integer items do.
    values = [Fraction(7 * i + 3, i % 6 + 1) for i in range(20)]
    volumes = [Fraction(5 * i + 2, i % 4 + 2) for i in range(20)]
    cap = sum(volumes) / 2
    start = time.process_time()
    got = knapsack_optimum(values, volumes, cap)
    assert time.process_time() - start < 2.0
    # the same instance in integers, values times 60 and volumes times 30
    scaled = knapsack_optimum([int(v * 60) for v in values], [int(w * 30) for w in volumes],
                              int(cap * 30))
    assert (got, type(got)) == (Fraction(scaled, 60), Fraction)


def test_knapsack_optimum_at_the_cap_is_quick():
    # Values from the Gray-code walk over all 2**20 subsets, which took
    # about 0.26 s of CPU each here; meet in the middle takes about 2 ms.
    # In the last, the first best step adds a Fraction value, item 17 or later.
    cases = [
        ([7 * i % 23 + 1 for i in range(20)], [5 * i % 17 + 1 for i in range(20)], 60, 108),
        ([(-1) ** i * (3 * i % 11) for i in range(20)], [i % 7 - 2 for i in range(20)], 9, 50),
        ([Fraction(3 * i % 13 + 1, i % 3 + 1) if i > 15 else 3 * i % 13 + 1 for i in range(20)],
         [2 * i % 9 + 1 for i in range(20)], 20, Fraction(35)),
    ]
    start = time.process_time()
    for values, volumes, cap, want in cases:
        got = knapsack_optimum(values, volumes, cap)
        assert (got, type(got)) == (want, type(want))
    assert time.process_time() - start < 0.1


def test_knapsack_optimum_without_room_is_zero():
    assert knapsack_optimum([5, 6], [1, 2], 0) == 0
    assert knapsack_optimum([5, 6], [1, 2], -3) == 0
    assert knapsack_optimum([5, 6], [0, 2], 0) == 5


def cycle(n):
    return Graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])


def complete(n):
    return Graph(n, list(itertools.combinations(range(1, n + 1), 2)))


def petersen():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    inner = [(5 + i, 5 + (i + 1) % 5 + 1) for i in range(1, 6)]
    return Graph(10, outer + inner + [(i, i + 5) for i in range(1, 6)])


def test_vertex_cover_optimum_closed_forms():
    # Up to the 44-vertex cap, where no enumeration could follow.
    for n in range(3, 45):
        assert vertex_cover_optimum(cycle(n)) == -(-n // 2)
        assert vertex_cover_optimum(complete(n)) == n - 1
    for a, b in ((1, 1), (2, 5), (4, 4), (3, 9), (6, 8), (10, 11), (7, 30), (22, 22)):
        assert vertex_cover_optimum(complete_bipartite(a, b)) == min(a, b)
    assert vertex_cover_optimum(petersen()) == 6


def test_optima_at_their_caps():
    line = [[abs(i - j) for j in range(16)] for i in range(16)]
    assert tsp_optimum(line) == 30
    assert knapsack_optimum(list(range(1, 21)), list(range(1, 21)), 50) == 50
    assert max_cut_optimum(complete_bipartite(10, 10)) == 100
    assert max_cut_optimum(cycle(19)) == 18
    family = [frozenset({i}) for i in range(19)] + [frozenset(range(10)), frozenset(range(10, 19))]
    assert set_cover_optimum(range(19), family) == 2


def test_optima_refuse_instances_above_their_caps():
    with pytest.raises(InstanceTooLargeError):
        tsp_optimum([[0] * 17 for _ in range(17)])
    with pytest.raises(InstanceTooLargeError):
        knapsack_optimum([1] * 21, [1] * 21, 5)
    with pytest.raises(InstanceTooLargeError):
        max_cut_optimum(Graph(21, []))
    with pytest.raises(InstanceTooLargeError):
        vertex_cover_optimum(Graph(45, []))
    with pytest.raises(InstanceTooLargeError):
        set_cover_optimum({1}, [frozenset({1})] * 22)


def test_oracle_limit_overrides_the_optimum_caps(monkeypatch):
    monkeypatch.setenv("COMBINLAB_ORACLE_LIMIT", "3")
    for optimum, args in (
        (tsp_optimum, ([[0] * 4 for _ in range(4)],)),
        (knapsack_optimum, ([1] * 4, [1] * 4, 2)),
        (max_cut_optimum, (cycle(4),)),
        (vertex_cover_optimum, (cycle(4),)),
        (set_cover_optimum, ({1}, [frozenset({1})] * 4)),
    ):
        with pytest.raises(InstanceTooLargeError):
            optimum(*args)
    assert knapsack_optimum([1] * 3, [1] * 3, 2) == 2
    monkeypatch.setenv("COMBINLAB_ORACLE_LIMIT", "45")
    assert vertex_cover_optimum(Graph(45, [])) == 0


def recursive_min_perfect_matching(vertices, weight):
    """The recursive subset DP that min_perfect_matching_exact replaced,
    kept as the reference: same masks, same strict < tie-break."""
    vs = list(vertices)
    if not vs:
        return []
    full = (1 << len(vs)) - 1
    memo = {0: 0}
    choice = {}

    def solve(mask):
        if mask in memo:
            return memo[mask]
        first = (mask & -mask).bit_length() - 1
        best = best_pair = None
        rest = mask & ~(1 << first)
        sub = rest
        while sub:
            second = (sub & -sub).bit_length() - 1
            sub &= sub - 1
            cand = weight(vs[first], vs[second]) + solve(rest & ~(1 << second))
            if best is None or cand < best:
                best, best_pair = cand, (first, second)
        memo[mask] = best
        choice[mask] = best_pair
        return best

    solve(full)
    pairs = []
    mask = full
    while mask:
        a, b = choice[mask]
        pairs.append((vs[a], vs[b]))
        mask &= ~(1 << a) & ~(1 << b)
    return pairs


def test_matching_exact_matches_recursive_reference():
    # Weights 0..3 make ties common, so the pairs pin the tie-break too.
    rng = random.Random(25)
    sizes = [2 * rng.randint(0, 7) for _ in range(300)] + [20]
    for n in sizes:
        vs = rng.sample(range(1, 40), n)
        table = {frozenset(e): rng.randint(0, 3) for e in itertools.combinations(vs, 2)}

        def w(a, b):
            return table[frozenset((a, b))]

        assert min_perfect_matching_exact(vs, w) == recursive_min_perfect_matching(vs, w), n
