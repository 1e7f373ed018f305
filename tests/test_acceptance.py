"""Acceptance suite: one test per criterion, each printing a PASS line.

Every bound is pinned exactly as specified; run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import json
import random
from fractions import Fraction

from combinlab import approx as ax
from combinlab import complexity as cx
from combinlab import dp
from combinlab import graph_core as gc
from combinlab import paths_mst as pm
from combinlab import search_games as sg
from combinlab import sorting as srt
from combinlab import tournament as trn
from combinlab.cli import main as cli_main
from combinlab.intmath import ceil_log2, ceil_log3, fib_upto, harmonic
from combinlab.oracles import (
    adversary_certify,
    adversary_merge,
    adversary_set_equality,
    counting_comparator,
)


def report(num, text):
    print(f"[acceptance] criterion {num}: PASS - {text}")


# --- criterion 1: search-game exactness --------------------------------------


def test_criterion_1_search_games():
    for n in range(1, 13):
        bound = ceil_log2(n)
        for hot in range(1, n + 1):
            calls = [0]

            def tester(subset, hot=hot, calls=calls):
                calls[0] += 1
                return hot in subset

            assert sg.find_radioactive(n, tester) == hot
            assert calls[0] <= bound

    for n in range(1, 13):
        bound = ceil_log3(2 * n + 1)
        worlds = [sg.ALL_GENUINE] + [
            sg.CoinVerdict(i, bias)
            for i in range(1, n + 1)
            for bias in (sg.HEAVIER, sg.LIGHTER)
        ]
        for world in worlds:
            oracle = sg.BalanceOracle(n, world)
            assert sg.find_counterfeit(n, oracle.weigh) == world
            assert oracle.count <= bound

    fibs = fib_upto(40)
    for n in range(3, 13):
        k = max(i for i in range(len(fibs)) if fibs[i] <= n)
        for peak in range(1, n + 1):
            values = list(range(1, peak + 1)) + list(
                range(peak - 1, peak - 1 - (n - peak), -1)
            )
            probes = [0]

            def probe(i, values=values, probes=probes):
                probes[0] += 1
                return values[i - 1]

            idx, val = sg.bitonic_max(n, probe)
            assert values[idx - 1] == max(values)
            assert probes[0] <= k

    class World:
        def __init__(self, honest, strategy):
            self.honest = honest
            self.strategy = strategy
            self.count = 0

        def __call__(self, asker, subject):
            self.count += 1
            truth = self.honest[subject]
            if self.honest[asker]:
                return truth
            if self.strategy == "liars":
                return not truth
            if self.strategy == "truthful":
                return truth
            return (asker + subject) % 2 == 0

    for n in range(3, 13):
        bound = -((-3 * (n - 1)) // 2)
        for strategy in ("liars", "truthful", "mixed"):
            for bits in itertools.product([True, False], repeat=n):
                if 2 * sum(bits) <= n:
                    continue
                world = World({i + 1: bits[i] for i in range(n)}, strategy)
                labels = sg.classify_group(n, world)
                assert labels == world.honest
                assert world.count <= bound
    report(1, "radioactive/counterfeit/bitonic/group bounds exact on all worlds, n <= 12")


# --- criterion 2: adversary tightness -----------------------------------------


def test_criterion_2_adversary_tightness():
    for n in [*range(1, 13), 20, 30, 40]:
        adv = adversary_set_equality(n)
        assert sg.sets_equal(n, adv.probe) is True
        assert adv.count == n * (n + 1) // 2
        pairing = adversary_certify(adv)
        for (i, j) in adv.yes_cells:
            assert pairing[i] == j
        for (i, j) in adv.no_cells:
            assert pairing[i] != j

    for n in range(1, 65):
        adv = adversary_merge(n, n)
        merged = srt.merge_runs(adv.xs, adv.ys, adv)
        assert adv.count == 2 * n - 1
        xs, ys = adversary_certify(adv)
        value = dict(zip(adv.xs + adv.ys, xs + ys))
        assert [value[t] for t in merged] == sorted(value[t] for t in merged)
        for u, v, answer in adv.transcript:
            assert (value[u] < value[v]) == answer

    from combinlab.oracles import adversary_whoiswho

    for n in range(3, 13):
        adv = adversary_whoiswho(n)
        labels = sg.classify_group(n, adv.ask)
        world = adversary_certify(adv)
        assert labels == world
        for asker, subject, answer in adv.transcript:
            if world[asker]:
                assert answer == world[subject]
    report(2, "set-equality = n(n+1)/2 (n<=12), merge = 2n-1 (n<=64), transcripts certified")


# --- criterion 3: tournament budgets ------------------------------------------


def _check_tournament_ops(items, ranks):
    n = len(items)
    cmp = counting_comparator(items)
    assert trn.tournament_max(items, cmp)[0] == ranks[0]
    assert cmp.count == n - 1

    if n >= 2:
        cmp = counting_comparator(items)
        hi, lo = trn.max_and_min(items, cmp)
        assert (hi, lo) == (ranks[0], ranks[-1])
        assert cmp.count <= -((-3 * n) // 2) - 2

        cmp = counting_comparator(items)
        assert list(trn.top_two(items, cmp)) == ranks[:2]
        assert cmp.count <= n - 2 + ceil_log2(n)

    if n >= 3:
        cmp = counting_comparator(items)
        assert list(trn.top_three(items, cmp)) == ranks[:3]
        assert cmp.count <= n + 2 * ceil_log2(n) - 3


def test_criterion_3_tournament_budgets():
    for n in range(1, 9):
        for perm in itertools.permutations(range(n)):
            items = list(perm)
            ranks = sorted(range(n), key=lambda i: -items[i])
            _check_tournament_ops(items, ranks)
            for t in range(1, n + 1):
                cmp = counting_comparator(items)
                assert trn.select_t_tournament(items, t, cmp) == ranks[t - 1]
                assert cmp.count <= n - t + (t - 1) * ceil_log2(n + 2 - t)

    rng = random.Random(2024)
    sizes = [16, 32, 64, 128, 256, 512]
    for trial in range(1000):
        n = sizes[trial % len(sizes)]
        items = rng.sample(range(10 * n), n)
        ranks = sorted(range(n), key=lambda i: -items[i])
        _check_tournament_ops(items, ranks)
        t = rng.randint(1, n)
        cmp = counting_comparator(items)
        assert trn.select_t_tournament(items, t, cmp) == ranks[t - 1]
        assert cmp.count <= n - t + (t - 1) * ceil_log2(n + 2 - t)

    for n in (33, 40, 64, 100, 333, 1024, 1500, 2000):
        items = rng.sample(range(10 * n), n)
        ranks = sorted(range(n), key=lambda i: -items[i])
        for t in (1, n // 2, n):
            cmp = counting_comparator(items)
            assert trn.select_t_linear(items, t, cmp) == ranks[t - 1]
            assert cmp.count <= 15 * n - 163, (n, t, cmp.count)
    report(3, "max/maxmin/top2/top3/select budgets hold, outputs match sort oracle")


# --- criterion 4: sorting counts -----------------------------------------------


def test_criterion_4_sorting_counts():
    rng = random.Random(7)
    for n in range(1, 201):
        expected = srt.sort_budgets(n).a_n
        items = rng.sample(range(10 * n), n)
        cmp = counting_comparator(items)
        assert srt.insertion_sort(items, cmp) == sorted(items)
        assert cmp.count == expected

    assert srt.sort_budgets(5).f_n == 7
    assert srt.sort_budgets(10).f_n == 22

    for n in range(1, 8):
        bound = srt.sort_budgets(n).f_n
        for perm in itertools.permutations(range(n)):
            cmp = counting_comparator(list(perm))
            assert srt.merge_insertion_sort(list(perm), cmp) == sorted(perm)
            assert cmp.count <= bound
    for n in (8, 9, 10, 64, 200, 500):
        bound = srt.sort_budgets(n).f_n
        for _ in range(40 if n <= 10 else 5):
            items = rng.sample(range(10 * n), n)
            cmp = counting_comparator(items)
            assert srt.merge_insertion_sort(items, cmp) == sorted(items)
            assert cmp.count <= bound

    # B(10) = 25 via the adversarial rank assignment over the merge plan
    from tests.test_sorting import worst_case_input

    items = worst_case_input(10)
    cmp = counting_comparator(items)
    assert srt.merge_sort_grouped(items, cmp) == sorted(items)
    assert cmp.count == 25 == srt.grouped_merge_budget(10)

    for n in range(1, 65):
        b = srt.sort_budgets(n)
        assert b.f_n >= b.info_lower
    report(4, "A(n) exact to n=200, F bounds with F(5)=7/F(10)=22, B(10)=25, F >= log2 n!")


# --- criterion 5: graph oracle equivalence -------------------------------------


def _bitmask_scc_partition(n, arcs):
    reach = [1 << i for i in range(n)]
    for u, v in arcs:
        reach[u - 1] |= 1 << (v - 1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            r = reach[i]
            acc = r
            m = r
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= reach[j]
            if acc != r:
                reach[i] = acc
                changed = True
    blocks = []
    assigned = 0
    for i in range(n):
        if assigned >> i & 1:
            continue
        members = [
            j + 1
            for j in range(n)
            if (reach[i] >> j & 1) and (reach[j] >> i & 1)
        ] or [i + 1]
        if i + 1 not in members:
            members.append(i + 1)
        for m_ in members:
            assigned |= 1 << (m_ - 1)
        blocks.append(sorted(members))
    return sorted(map(tuple, blocks))


def test_criterion_5_graph_oracles():
    # SCC: exhaustive over every digraph with n <= 5
    for n in range(1, 6):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        for mask in range(1 << len(pairs)):
            arcs = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            got = sorted(map(tuple, gc.scc_kosaraju(gc.Digraph(n, arcs))))
            assert got == _bitmask_scc_partition(n, arcs)

    rng = random.Random(55)
    for _ in range(200):
        n = rng.randint(6, 30)
        arcs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < 0.08
        ]
        d = gc.Digraph(n, arcs)
        got = sorted(map(tuple, gc.scc_kosaraju(d)))
        assert got == _bitmask_scc_partition(n, arcs)

    # Euler: splicing vs Fleury verdicts on 10^3 random graphs
    for trial in range(1000):
        n = rng.randint(1, 8)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.5
        ]
        g = gc.Graph(n, edges)
        try:
            walk = gc.euler_cycle(g)
            ok1 = True
        except gc.NotEulerianError:
            ok1 = False
        try:
            gc.fleury_euler_cycle(g)
            ok2 = True
        except gc.NotEulerianError:
            ok2 = False
        assert ok1 == ok2
        if ok1 and edges:
            used = set()
            for u, v in zip(walk, walk[1:]):
                key = (min(u, v), max(u, v))
                assert g.has_edge(u, v) and key not in used
                used.add(key)
            assert len(used) == len(edges) and walk[0] == walk[-1]

    # dijkstra rows == floyd rows on 10^3 non-negative digraphs
    for trial in range(1000):
        n = rng.randint(1, 8) if trial < 970 else rng.randint(9, 30)
        arcs = {
            (u, v): rng.randint(0, 9)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < 0.4
        }
        g = pm.WeightedDigraph(n, arcs)
        tables = pm.floyd_warshall(g)
        for s in range(1, n + 1):
            res = pm.dijkstra(g, s)
            for v in range(1, n + 1):
                if v != s:
                    assert res.dist[v] == tables.d(s, v)

    # floyd negative-cycle flags == independent recurrence, n <= 6; and
    # every vertex on a negative simple cycle is flagged
    for _ in range(400):
        n = rng.randint(1, 6)
        arcs = {
            (u, v): rng.randint(-3, 9)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < 0.45
        }
        g = pm.WeightedDigraph(n, arcs)
        flags = pm.floyd_warshall(g).negative_cycle_vertices
        assert flags == _recurrence_negative_vertices(g)
        for v in _vertices_on_negative_simple_cycles(g):
            assert v in flags
    report(5, "SCC exhaustive n<=5 + random n<=30, Euler vs Fleury, dijkstra=floyd, floyd flags")


def _recurrence_negative_vertices(g):
    """Top-down memoized evaluation of the d^(k)(i,j) recurrence, written
    independently of the iterative production code."""
    n = g.n
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def d(k, i, j):
        if k == 0:
            if i == j:
                return 0
            return g.weight.get((i, j), pm.INF)
        best = d(k - 1, i, j)
        left = d(k - 1, i, k)
        right = d(k - 1, k, j)
        if left != pm.INF and right != pm.INF:
            cand = left + right
            if cand < best:
                best = cand
        return best

    return {i for i in range(1, n + 1) if d(n, i, i) < 0}


def _vertices_on_negative_simple_cycles(g):
    n = g.n
    flagged = set()
    for size in range(2, n + 1):
        for combo in itertools.permutations(range(1, n + 1), size):
            if combo[0] != min(combo):
                continue
            cycle = list(combo) + [combo[0]]
            total = 0
            ok = True
            for a, b in zip(cycle, cycle[1:]):
                if (a, b) not in g.weight:
                    ok = False
                    break
                total += g.weight[(a, b)]
            if ok and total < 0:
                flagged.update(combo)
    return flagged


# --- criterion 6: MST ------------------------------------------------------------


def test_criterion_6_mst():
    rng = random.Random(66)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 7)
        weights = rng.sample(range(1, 200), n * (n - 1) // 2)
        idx = 0
        edges = {}
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.75:
                    edges[(u, v)] = weights[idx]
                idx += 1
        g = pm.WeightedGraph(n, edges)
        try:
            p = pm.prim(g)
        except ValueError:
            continue
        checked += 1
        k = pm.kruskal(g)
        best = None
        for subset in itertools.combinations(g.edges, n - 1):
            label = {v: v for v in range(1, n + 1)}
            ok = True
            for u, v in subset:
                ru, rv = label[u], label[v]
                if ru == rv:
                    ok = False
                    break
                for x in label:
                    if label[x] == rv:
                        label[x] = ru
            if ok:
                w = sum(g.weight[e] for e in subset)
                best = w if best is None or w < best else best
        assert p.total_weight == k.total_weight == best
        assert p.edge_set() == k.edge_set()  # distinct weights: unique MST
    report(6, "prim/kruskal equal brute-force minimum and agree, n <= 7")


# --- criterion 7: DP oracle equivalence ------------------------------------------


def test_criterion_7_dp():
    chosen, value = dp.knapsack_pareto([160, 250, 180, 30], [40, 50, 40, 20], 85)
    assert value == 340 and chosen == {1, 3}
    _, greedy_value = dp.greedy_knapsack_by_density(
        [160, 250, 180, 30], [40, 50, 40, 20], 85
    )
    assert greedy_value == 280

    cost, _, _ = dp.matrix_chain([10, 100, 5, 50])
    assert cost == 7500

    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(1, 9)
        values = [rng.randint(0, 25) for _ in range(n)]
        volumes = [rng.randint(0, 12) for _ in range(n)]
        cap = rng.randint(0, 30)
        _, got = dp.knapsack_pareto(values, volumes, cap)
        best = 0
        for mask in range(1 << n):
            vol = val = 0
            for i in range(n):
                if mask >> i & 1:
                    vol += volumes[i]
                    val += values[i]
            if vol <= cap:
                best = max(best, val)
        assert got == best

    for _ in range(40):
        x = "".join(rng.choice("ABC") for _ in range(rng.randint(0, 7)))
        y = "".join(rng.choice("ABC") for _ in range(rng.randint(0, 7)))
        length, seq, _ = dp.lcs(x, y)
        best = 0
        for r in range(len(x) + 1):
            for combo in itertools.combinations(range(len(x)), r):
                sub = [x[i] for i in combo]
                it = iter(y)
                if all(ch in it for ch in sub):
                    best = max(best, r)
        assert length == best

    def chain_costs(p, i, j):
        if i == j:
            return {0}
        out = set()
        for k in range(i, j):
            for a in chain_costs(p, i, k):
                for b in chain_costs(p, k + 1, j):
                    out.add(a + b + p[i - 1] * p[k] * p[j])
        return out

    for _ in range(25):
        n = rng.randint(1, 5)
        p = [rng.randint(1, 8) for _ in range(n + 1)]
        cost, _, _ = dp.matrix_chain(p)
        assert cost == min(chain_costs(tuple(p), 1, n))

    for _ in range(25):
        n_tasks, b = rng.randint(1, 3), 3
        costs, profits = [], []
        for _ in range(n_tasks):
            costs.append([0] + sorted(rng.randint(1, 4) for _ in range(b)))
            profits.append([0] + sorted(rng.randint(0, 9) for _ in range(b)))
        inst = dp.AllocationInstance.from_lists(costs, profits, rng.randint(0, 6))
        value, plan = dp.allocate(inst)
        best = max(
            sum(inst.profits[i][x[i]] for i in range(n_tasks))
            for x in itertools.product(range(b + 1), repeat=n_tasks)
            if sum(inst.costs[i][x[i]] for i in range(n_tasks)) <= inst.budget
        )
        assert value == best

    for _ in range(20):
        n = rng.randint(2, 6)
        p = [rng.randint(1, 9) for _ in range(n + 1)]
        chain_cost, _, _ = dp.matrix_chain(p)
        tri_cost, diagonals = dp.polygon_triangulation(
            dp.dimension_product_weight(p), n + 1
        )
        assert tri_cost == chain_cost
        assert len(diagonals) == max(0, n - 2)
    report(7, "knapsack/lcs/chain/allocate/triangulation equal enumeration; pinned values hold")


# --- criterion 8: reductions -------------------------------------------------------


def _equiv(red):
    src = cx.brute_force_decide(red.source)
    tgt = cx.brute_force_decide(red.target)
    assert (src is None) == (tgt is None), (red.source, red.target)
    if src is not None:
        assert cx.verify_witness(red.target, red.forward(src))
        assert cx.verify_witness(red.source, red.backward(tgt))


def test_criterion_8_reductions():
    # SAT sources: every clause-set over 3 vars with <= 3 clauses would be
    # ~3000 formulas; a seeded systematic slice keeps this under the time
    # budget while covering every clause width.
    literals = [v for x in (1, 2, 3) for v in (x, -x)]
    pool = [
        c
        for w in (1, 2, 3)
        for c in itertools.combinations(literals, w)
        if not any(-l in c for l in c)
    ]
    rng = random.Random(88)
    formulas = [cx.cnf(3, [c]) for c in pool]
    for r in (2, 3):
        for _ in range(120):
            formulas.append(cx.cnf(3, [rng.choice(pool) for _ in range(r)]))
    for f in formulas:
        _equiv(cx.sat_to_3sat(f))
        _equiv(cx.sat_to_clique(f))

    three_pool = [
        c for c in itertools.combinations(literals, 3) if not any(-l in c for l in c)
    ]
    for r in (1, 2):
        for _ in range(25):
            f = cx.cnf(3, [rng.choice(three_pool) for _ in range(r)])
            _equiv(cx.threesat_to_coloring(f))
    unsat8 = cx.cnf(3, [(s1, s2, s3) for s1 in (1, -1) for s2 in (2, -2) for s3 in (3, -3)])
    red = cx.threesat_to_coloring(unsat8)
    assert cx.brute_force_decide(red.source) is None
    assert cx.brute_force_decide(red.target) is None

    # graphs n <= 5 exhaustive for the complement/cover chain
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = gc.Graph(n, edges)
            for k in range(1, n + 1):
                _equiv(cx.apply_simple_reduction("CliqueToIS", cx.Clique(g, k)))
                _equiv(cx.apply_simple_reduction("ISToVC", cx.IndependentSet(g, k)))
                if edges:
                    _equiv(
                        cx.apply_simple_reduction("VCToSetCover", cx.VertexCover(g, k))
                    )
    rng5 = random.Random(5)
    for _ in range(40):
        pairs = list(itertools.combinations(range(1, 6), 2))
        edges = [e for e in pairs if rng5.random() < 0.5]
        g = gc.Graph(5, edges)
        k = rng5.randint(1, 5)
        _equiv(cx.apply_simple_reduction("CliqueToIS", cx.Clique(g, k)))
        _equiv(cx.apply_simple_reduction("ISToVC", cx.IndependentSet(g, k)))
        if edges:
            _equiv(cx.apply_simple_reduction("VCToSetCover", cx.VertexCover(g, k)))

    # vertex cover -> hamiltonian circuit (targets capped at 16 vertices)
    ham_cases = [
        (gc.Graph(3, [(1, 2), (1, 3), (2, 3)]), 2),
        (gc.Graph(2, [(1, 2)]), 1),
        (gc.Graph(3, [(1, 2), (1, 3), (2, 3)]), 1),
        (gc.Graph(4, [(1, 2), (3, 4)]), 2),
        (gc.Graph(4, [(1, 2), (2, 3), (3, 4)]), 2),
        (gc.Graph(4, [(1, 2), (2, 3)]), 1),
        (gc.Graph(5, [(1, 2), (3, 4)]), 3),
        (gc.Graph(4, [(1, 2), (1, 3), (1, 4)]), 1),
    ]
    for g, k in ham_cases:
        _equiv(cx.vc_to_ham_circuit(cx.VertexCover(g, k)))

    # set systems with n, m <= 4, exhaustive over subset families
    universe = (1, 2, 3)
    subsets3 = [
        frozenset(c)
        for r in (1, 2, 3)
        for c in itertools.combinations(universe, r)
    ]
    count = 0
    for m in (1, 2, 3, 4):
        for family in itertools.combinations(subsets3, m):
            if set().union(*family) != set(universe):
                continue
            inst = cx.ExactCover(universe, tuple(family))
            _equiv(cx.exact_cover_to_knapsack01(inst))
            _equiv(cx.apply_simple_reduction("ExactCoverToRepresentatives", inst))
            count += 1
    assert count > 50
    u4 = (1, 2, 3, 4)
    subsets4 = [
        frozenset(c) for r in (1, 2, 3, 4) for c in itertools.combinations(u4, r)
    ]
    for _ in range(60):
        m = rng.randint(1, 4)
        family = tuple(rng.sample(subsets4, m))
        if set().union(*family) != set(u4):
            continue
        inst = cx.ExactCover(u4, family)
        _equiv(cx.exact_cover_to_knapsack01(inst))
        _equiv(cx.apply_simple_reduction("ExactCoverToRepresentatives", inst))

    # coloring -> exact cover on graphs n <= 4
    for _ in range(30):
        n = rng.randint(1, 4)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = [e for e in pairs if rng.random() < 0.5]
        k = rng.randint(1, 3)
        _equiv(
            cx.apply_simple_reduction(
                "ColoringToExactCover", cx.Coloring(gc.Graph(n, edges), k)
            )
        )

    # knapsack n <= 5, values <= 10: all multisets for n <= 3 with every
    # target, larger n with systematic targets
    for n in (1, 2, 3):
        for values in itertools.combinations_with_replacement(range(1, 11), n):
            for b in range(0, sum(values) + 1, max(1, sum(values) // 6)):
                inst = cx.Knapsack01(tuple(values), b)
                _equiv(cx.apply_simple_reduction("Knapsack01ToPartition", inst))
        # ILP route is slower; sample the same space
    for n in (4, 5):
        for values in itertools.combinations_with_replacement(range(1, 11), n):
            if rng.random() > 0.12:
                continue
            total = sum(values)
            for b in {0, total // 3, total // 2, total}:
                inst = cx.Knapsack01(tuple(values), b)
                _equiv(cx.apply_simple_reduction("Knapsack01ToPartition", inst))
    for _ in range(40):
        n = rng.randint(1, 5)
        values = tuple(rng.randint(1, 10) for _ in range(n))
        b = rng.randint(0, sum(values))
        _equiv(
            cx.apply_simple_reduction("Knapsack01ToIlp", cx.Knapsack01(values, b))
        )

    # set cover -> ILP
    for _ in range(25):
        m = rng.randint(1, 4)
        family = tuple(rng.sample(subsets3, m))
        if set().union(*family) != set(universe):
            continue
        k = rng.randint(1, m)
        _equiv(
            cx.apply_simple_reduction(
                "SetCoverToIlp", cx.SetCover(universe, family, k)
            )
        )

    # hamiltonian chain: circuit -> cycle -> tsp (-> ilp on 4 cities)
    for n in (2, 3):
        arcs_all = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        for mask in range(1 << len(arcs_all)):
            arcs = [arcs_all[i] for i in range(len(arcs_all)) if mask >> i & 1]
            d = gc.Digraph(n, arcs)
            red = cx.apply_simple_reduction("HamCircuitToHamCycle", cx.HamCircuit(d))
            _equiv(red)
    for _ in range(25):
        n = rng.randint(2, 5)
        arcs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < 0.5
        ]
        d = gc.Digraph(n, arcs)
        red = cx.apply_simple_reduction("HamCircuitToHamCycle", cx.HamCircuit(d))
        _equiv(red)
        red2 = cx.apply_simple_reduction("HamCycleToTsp", red.target)
        _equiv(red2)
    for _ in range(8):
        matrix = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                matrix[i][j] = matrix[j][i] = rng.randint(1, 5)
        inst = cx.Tsp(tuple(tuple(r) for r in matrix), rng.randint(4, 14))
        _equiv(cx.apply_simple_reduction("TspToIlp", inst))
    report(8, "all reductions decision-equivalent with witness round-trips at desk scale")


# --- criterion 9: 2-SAT ---------------------------------------------------------


def _reachable(d, start):
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in d.neighbors(u):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_criterion_9_twosat():
    def brute(f):
        for bits in itertools.product([False, True], repeat=f.num_vars):
            if f.evaluate(list(bits)):
                return list(bits)
        return None

    # exhaustive: every clause set over 2 variables
    lits2 = [1, -1, 2, -2]
    pool2 = [(l,) for l in lits2] + list(itertools.combinations(lits2, 2))
    for r in range(0, 5):
        for subset in itertools.combinations(pool2, r):
            f = cx.cnf(2, list(subset))
            res = cx.twosat_solve(f)
            assert res.satisfiable == (brute(f) is not None)
            if res.satisfiable:
                assert f.evaluate(res.assignment)

    rng = random.Random(99)
    checked_unsat = 0
    for _ in range(10000):
        n = rng.randint(1, 12)
        lits = [v for x in range(1, n + 1) for v in (x, -x)]
        pool = [(l,) for l in lits] + list(itertools.combinations(lits, 2))
        f = cx.cnf(n, [rng.choice(pool) for _ in range(rng.randint(0, 3 * n))])
        res = cx.twosat_solve(f)
        if n <= 9:
            assert res.satisfiable == (brute(f) is not None)
        if res.satisfiable:
            assert f.evaluate(res.assignment)
        else:
            checked_unsat += 1
            g = cx.implication_graph(f)
            x = res.conflict_var
            pos, neg = n + x, x
            assert neg in _reachable(g, pos) and pos in _reachable(g, neg)
            comps = cx.scc_kosaraju(g)
            block = next(b for b in comps if pos in b)
            assert neg in block
    assert checked_unsat > 100
    report(9, "2-SAT agrees with brute force; UNSAT certificates co-strongly-connected")


# --- criterion 10: approximation ratios -------------------------------------------


def test_criterion_10_ratios():
    rng = random.Random(1010)

    for trial in range(500):
        n = 4 + trial % 7  # 4..10
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        g = gc.Graph(n, [e for e in pairs if rng.random() < 0.5])
        cover = ax.vc_matching_2approx(g)
        assert all(u in cover or v in cover for u, v in g.edges)
        assert len(cover) <= 2 * ax.vertex_cover_optimum(g)

        chosen, cut = ax.max_cut_local_search(g)
        assert ax.max_cut_optimum(g) <= 2 * cut or not g.edges

    for trial in range(500):
        n = 5 + trial % 5  # 5..9
        inst = ax.random_metric_instance(n, seed=5000 + trial)
        opt = ax.tsp_optimum(inst.matrix)
        dt = inst.tour_length(ax.tsp_double_tree(inst))
        ch = inst.tour_length(ax.tsp_christofides(inst))
        if opt == 0:
            assert dt == 0 and ch == 0
        else:
            assert dt <= 2 * opt
            assert 2 * ch <= 3 * opt

    for trial in range(500):
        n = rng.randint(1, 8)
        universe = set(range(1, n + 1))
        family = [
            frozenset(x for x in universe if rng.random() < 0.5) or frozenset({1})
            for _ in range(rng.randint(1, 8))
        ]
        family.append(frozenset(universe))
        chosen = ax.set_cover_greedy(universe, family)
        opt = ax.set_cover_optimum(universe, family)
        biggest = max(len(s) for s in family)
        assert Fraction(len(chosen)) <= harmonic(biggest) * opt

    for trial in range(500):
        n = rng.randint(1, 9)
        sizes = [Fraction(rng.randint(0, 100), 100) for _ in range(n)]
        assignment = ax.bin_pack_first_fit(sizes)
        bins = max(assignment, default=0)
        total = sum(sizes)
        assert bins <= max(1, -((-2 * total) // 1))
        assert bins <= 2 * ax.bin_pack_optimum(sizes)

    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
        for trial in range(170):
            n = rng.randint(1, 10)
            values = [rng.randint(1, 200) for _ in range(n)]
            volumes = [rng.randint(1, 15) for _ in range(n)]
            cap = rng.randint(0, 45)
            chosen, value = ax.knapsack_fptas(values, volumes, cap, eps)
            assert sum(volumes[i - 1] for i in chosen) <= cap
            opt = ax.knapsack_optimum(values, volumes, cap)
            assert value * (1 + eps) >= opt
    report(10, "ratio guarantees hold on 500-instance suites with zero violations")


# --- criterion 11: negative demonstrations ----------------------------------------


def test_criterion_11_negative_demonstrations():
    ratios = []
    for n in (6, 12, 18, 24, 30):
        g = ax.vc_greedy_counterexample(n)
        greedy = ax.vc_degree_greedy(g)
        assert all(u in greedy or v in greedy for u, v in g.edges)
        # optimum is exactly n: the pendant level forces n disjoint edges
        # and the core side covers everything
        ratios.append(Fraction(len(greedy), n))
    assert ratios[0] > Fraction(14, 10)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))

    rng = random.Random(1)  # frozen seed: ratio 5.0 > 2
    n = 7
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < 0.5
    ]
    matrix = ax.tsp_gap_instance(gc.Graph(n, edges), 1)
    tour = ax.tsp_double_tree(matrix)
    heur = ax.tour_length(matrix, tour)
    opt = ax.tsp_optimum(matrix)
    assert Fraction(heur, opt) > 2
    report(11, "greedy-VC ratio exceeds 1.4 at n=6 and grows; double-tree >2 on gap instance")


# --- criterion 12: determinism -----------------------------------------------------


def test_criterion_12_bench_determinism(capsys):
    def run(argv):
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 0
        return captured.out

    for suite in ("sorting", "selection", "approx"):
        argv = ["bench", suite, "--n-max", "8", "--trials", "4", "--seed", "42",
                "--format", "json"]
        first = run(argv)
        second = run(argv)
        assert first == second
        json.loads(first)
    report(12, "bench suites byte-identical across reruns with the same seed")
