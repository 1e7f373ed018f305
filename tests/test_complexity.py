import copy
import itertools
import pickle
import random
import re
import time
from fractions import Fraction

import pytest

from combinlab.complexity import (
    PROBLEMS,
    CnfFormula,
    Clique,
    Coloring,
    ExactCover,
    HamCircuit,
    HamCycle,
    Ilp,
    IndependentSet,
    InstanceTooLargeError,
    Knapsack01,
    KnapsackDecision,
    Partition,
    ReductionOutput,
    Representatives,
    Sat,
    SetCover,
    ThreeSat,
    Tsp,
    TwoSatResult,
    VertexCover,
    WitnessFormatError,
    apply_simple_reduction,
    brute_force_decide,
    cnf,
    exact_cover_to_knapsack01,
    _implications,
    format_dimacs,
    parse_dimacs,
    sat_to_3sat,
    sat_to_clique,
    scc_kosaraju,
    threesat_to_coloring,
    twosat_solve,
    vc_to_ham_circuit,
)
from combinlab.exact import _depth_first
from combinlab.approx import random_metric_instance, tsp_optimum
from combinlab.graph_core import Digraph, Graph, _scc_labels, _walk


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def test_verify_witness_basics():
    f = cnf(2, [(1, 2)])
    assert verify(Sat(f), [True, False])
    assert not verify(Sat(f), [False, False])
    assert verify(Clique(complete_graph(3), 3), {1, 2, 3})
    assert verify(Partition((1, 2, 3)), {3})
    with pytest.raises(WitnessFormatError):
        verify(Sat(f), [True])


def verify(p, w):
    from combinlab.complexity import verify_witness

    return verify_witness(p, w)


def test_brute_force_basics():
    assert brute_force_decide(Sat(cnf(1, [(1,), (-1,)]))) is None
    cycle = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    tour = brute_force_decide(HamCycle(cycle))
    assert tour is not None and verify(HamCycle(cycle), tour)
    rng = random.Random(0)
    matrix = [[0 if i == j else rng.randint(1, 9) for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(4):
            matrix[j][i] = matrix[i][j]
    best = min(
        sum(matrix[t[i] - 1][t[(i + 1) % 4] - 1] for i in range(4))
        for t in ([1, *p] for p in itertools.permutations([2, 3, 4]))
    )
    inst = Tsp(tuple(tuple(r) for r in matrix), best)
    w = brute_force_decide(inst)
    assert w is not None and verify(inst, w)
    assert brute_force_decide(Tsp(tuple(tuple(r) for r in matrix), best - 1)) is None


def test_brute_force_on_empty_instances():
    # the oracle finds what verify accepts, down to zero vertices and zero width
    for problem in (HamCycle(Graph(0, [])), HamCircuit(Digraph(0, [])), Tsp((), 0)):
        assert brute_force_decide(problem) == [] and verify(problem, [])
    assert brute_force_decide(Tsp((), -1)) is None
    assert brute_force_decide(Ilp(((),), ("==",), (3,), ())) is None
    assert brute_force_decide(Ilp(((),), ("<=",), (3,), ())) == []


def test_brute_force_caps():
    with pytest.raises(InstanceTooLargeError):
        brute_force_decide(Sat(cnf(21, [(1,)])))
    # clique, independent set and vertex cover share vertex_cover_vertices: 44
    assert brute_force_decide(Clique(complete_graph(13), 2)) == {1, 2}
    for problem in (Clique(complete_graph(45), 2), IndependentSet(Graph(45, []), 1),
                    VertexCover(Graph(45, []), 0)):
        with pytest.raises(InstanceTooLargeError):
            brute_force_decide(problem)
    with pytest.raises(InstanceTooLargeError):  # before the 4.5 M-edge complement is built
        brute_force_decide(Clique(Graph(3000, []), 1))
    with pytest.raises(InstanceTooLargeError):  # set_cover_sets: 21 sets
        brute_force_decide(SetCover((1,), (frozenset({1}),) * 22, 1))
    wide = tuple(range(40))  # any universe size
    assert brute_force_decide(SetCover(wide, (frozenset(wide[:20]), frozenset(wide[20:])), 2)) == {1, 2}


def test_oracle_cap_env_override(monkeypatch):
    wide_box = Ilp(((1,),), ("==",), (4,), ((0, 4),))
    with pytest.raises(InstanceTooLargeError):
        brute_force_decide(wide_box)
    monkeypatch.setenv("COMBINLAB_ORACLE_LIMIT", "25")
    assert brute_force_decide(Sat(cnf(21, [(1,)]))) is not None
    assert brute_force_decide(wide_box) == [4]
    with pytest.raises(InstanceTooLargeError):  # 5**10 points: the fixed space guard
        brute_force_decide(Ilp((), (), (), ((0, 4),) * 10))


def all_small_formulas(num_vars, max_clauses, max_width=3):
    literals = [v for x in range(1, num_vars + 1) for v in (x, -x)]
    pool = []
    for width in range(1, max_width + 1):
        for combo in itertools.combinations(literals, width):
            if any(-l in combo for l in combo):
                continue
            pool.append(combo)
    rng = random.Random(77)
    for r in range(1, max_clauses + 1):
        for _ in range(60):
            yield cnf(num_vars, [rng.choice(pool) for _ in range(r)])


def roundtrip_check(red, bidirectional=True):
    src_w = brute_force_decide(red.source)
    tgt_w = brute_force_decide(red.target)
    assert (src_w is None) == (tgt_w is None), (red.source, red.target)
    if src_w is not None:
        moved = red.forward(src_w)
        assert verify(red.target, moved)
        if bidirectional:
            back = red.backward(tgt_w)
            assert verify(red.source, back)


def test_sat_to_3sat_shapes():
    red = sat_to_3sat(cnf(1, [(1,)]))
    assert len(red.target.formula.clauses) == 4
    assert red.target.formula.num_vars == 3

    red = sat_to_3sat(cnf(4, [(1, 2, 3, 4)]))
    assert len(red.target.formula.clauses) == 2
    assert red.target.formula.num_vars == 5
    assert red.target.formula.is_three_cnf


def test_sat_to_3sat_exhaustive_equivalence():
    for f in all_small_formulas(3, 3):
        red = sat_to_3sat(f)
        assert red.target.formula.is_three_cnf
        roundtrip_check(red)


def test_sat_to_clique():
    f = cnf(2, [(1, 2), (-1, 2)])
    red = sat_to_clique(f)
    assert red.target.graph.n == 4 and red.target.k == 2
    roundtrip_check(red)
    unsat = cnf(1, [(1,), (-1,)])
    red = sat_to_clique(unsat)
    assert brute_force_decide(red.target) is None
    # duplicated literals inside a clause collapse to one vertex
    dup = sat_to_clique(cnf(1, [(1, 1)]))
    assert dup.target.graph.n == 1
    for f in all_small_formulas(3, 3):
        red = sat_to_clique(f)
        assert red.target.graph.n <= f.num_vars * len(f.clauses)
        roundtrip_check(red)


def test_knapsack_decision_problem():
    from combinlab.complexity import KnapsackDecision

    inst = KnapsackDecision((160, 250, 180, 30), (40, 50, 40, 20), 85, 340)
    w = brute_force_decide(inst)
    assert w is not None and verify(inst, w)
    assert brute_force_decide(
        KnapsackDecision((160, 250, 180, 30), (40, 50, 40, 20), 85, 341)
    ) is None


def all_small_3cnf(num_vars, max_clauses):
    literals = [v for x in range(1, num_vars + 1) for v in (x, -x)]
    pool = [
        c
        for c in itertools.combinations(literals, 3)
        if not any(-l in c for l in c)
    ]
    rng = random.Random(13)
    for r in range(1, max_clauses + 1):
        for _ in range(25):
            yield cnf(num_vars, [rng.choice(pool) for _ in range(r)])


def test_threesat_to_coloring():
    for f in all_small_3cnf(3, 2):
        red = threesat_to_coloring(f)
        n = max(f.num_vars, 4)
        assert red.target.graph.n == 3 * n + len(f.clauses)
        src_w = brute_force_decide(red.source)
        # Coloring oracle on 3n + r vertices is feasible at this size.
        tgt_w = brute_force_decide(red.target)
        assert (src_w is None) == (tgt_w is None)
        if src_w is not None:
            assert verify(red.target, red.forward(src_w))
            assert verify(red.source, red.backward(tgt_w))


def all_set_systems(n_elems, max_sets):
    universe = tuple(range(1, n_elems + 1))
    subsets = [
        frozenset(c)
        for r in range(1, n_elems + 1)
        for c in itertools.combinations(universe, r)
    ]
    rng = random.Random(5)
    for m in range(1, max_sets + 1):
        for _ in range(40):
            family = tuple(rng.choice(subsets) for _ in range(m))
            if set().union(*family) == set(universe):
                yield ExactCover(universe, family)


def test_exact_cover_to_knapsack_digit_encoding():
    inst = ExactCover((1, 2), (frozenset({1}), frozenset({2}), frozenset({1, 2})))
    red = exact_cover_to_knapsack01(inst)
    assert red.target.numbers == (4, 1, 5)
    assert red.target.target == 5
    assert verify(red.target, [1, 1, 0])
    assert verify(red.target, [0, 0, 1])

    singleton = ExactCover((1, 2), (frozenset({1, 2}),))
    red = exact_cover_to_knapsack01(singleton)
    assert red.target.numbers == (red.target.target,)


def test_exact_cover_to_knapsack_equivalence():
    for inst in all_set_systems(4, 4):
        roundtrip_check(exact_cover_to_knapsack01(inst))


def test_vc_to_ham_circuit_examples():
    red = vc_to_ham_circuit(VertexCover(complete_graph(3), 2))
    assert red.target.digraph.n == 4 * 3 + 2
    circuit = brute_force_decide(red.target)
    assert circuit is not None
    cover = red.backward(circuit)
    assert verify(red.source, cover)

    single = vc_to_ham_circuit(VertexCover(Graph(2, [(1, 2)]), 1))
    assert brute_force_decide(single.target) is not None

    triangle_k1 = vc_to_ham_circuit(VertexCover(complete_graph(3), 1))
    assert brute_force_decide(triangle_k1.target) is None


@pytest.mark.parametrize("g, k, message", [
    (Graph(2, []), 1, "needs at least one edge"),
    (Graph(2, [(1, 2)]), 3, "k larger than the vertex count"),
    (Graph(2, [(1, 2)]), 0, "needs k >= 1"),
])
def test_vc_to_ham_circuit_refusals(g, k, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        vc_to_ham_circuit(VertexCover(g, k))


def test_vc_to_ham_circuit_equivalence_small():
    rng = random.Random(3)
    graphs = []
    for n in (2, 3, 4):
        for _ in range(8):
            edges = [
                (u, v)
                for u in range(1, n + 1)
                for v in range(u + 1, n + 1)
                if rng.random() < 0.6
            ]
            if 1 <= len(edges) <= 3:
                graphs.append(Graph(n, edges))
    for g in graphs:
        for k in range(1, g.n + 1):
            red = vc_to_ham_circuit(VertexCover(g, k))
            roundtrip_check(red)


def tiny_graphs(max_n, rng, count, p=0.5):
    for _ in range(count):
        n = rng.randint(1, max_n)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < p
        ]
        yield Graph(n, edges)


def test_clique_is_vc_chain():
    red = apply_simple_reduction("CliqueToIS", Clique(complete_graph(3), 3))
    assert red.target.graph.edges == ()
    assert verify(red.target, red.forward({1, 2, 3}))

    rng = random.Random(31)
    for g in tiny_graphs(5, rng, 40):
        for k in range(1, g.n + 1):
            red = apply_simple_reduction("CliqueToIS", Clique(g, k))
            roundtrip_check(red)
            red2 = apply_simple_reduction("ISToVC", IndependentSet(g, k))
            roundtrip_check(red2)


def test_coloring_to_exact_cover():
    rng = random.Random(41)
    for g in tiny_graphs(4, rng, 25):
        for k in (1, 2, 3):
            red = apply_simple_reduction("ColoringToExactCover", Coloring(g, k))
            roundtrip_check(red)


def test_exact_cover_to_representatives():
    for inst in all_set_systems(4, 4):
        red = apply_simple_reduction("ExactCoverToRepresentatives", inst)
        roundtrip_check(red)


def test_knapsack_to_partition_example():
    red = apply_simple_reduction("Knapsack01ToPartition", Knapsack01((1, 2), 2))
    assert red.target.numbers == (1, 2, 4, 3)
    w = red.forward([0, 1])
    assert verify(red.target, w)
    side = {red.target.numbers[i - 1] for i in w}
    assert side in ({2, 3}, {1, 4})


def test_knapsack_to_partition_exhaustive():
    rng = random.Random(71)
    seen = set()
    for n in range(1, 6):
        for values in itertools.combinations_with_replacement(range(1, 11), n):
            if rng.random() < (0.15 if n >= 4 else 1.0):
                b = rng.randint(0, sum(values))
                key = (values, b)
                if key in seen:
                    continue
                seen.add(key)
                red = apply_simple_reduction(
                    "Knapsack01ToPartition", Knapsack01(tuple(values), b)
                )
                roundtrip_check(red)


def test_vc_to_set_cover():
    rng = random.Random(51)
    for g in tiny_graphs(5, rng, 40):
        if not g.edges:
            continue
        for k in range(1, g.n + 1):
            red = apply_simple_reduction("VCToSetCover", VertexCover(g, k))
            roundtrip_check(red)


def test_ham_circuit_to_ham_cycle_and_tsp():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(2, 5)
        arcs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < 0.5
        ]
        d = Digraph(n, arcs)
        red = apply_simple_reduction("HamCircuitToHamCycle", HamCircuit(d))
        roundtrip_check(red)
        red2 = apply_simple_reduction("HamCycleToTsp", red.target)
        roundtrip_check(red2)
        # gadget matrices keep the triangle inequality
        m = red2.target.matrix
        p = len(m)
        for i in range(p):
            for j in range(p):
                for k in range(p):
                    if i != j and j != k and i != k:
                        assert m[i][j] <= m[i][k] + m[k][j]


def test_ilp_reductions():
    red = apply_simple_reduction("Knapsack01ToIlp", Knapsack01((2, 3, 5), 8))
    roundtrip_check(red)
    red = apply_simple_reduction("Knapsack01ToIlp", Knapsack01((2, 2), 3))
    assert brute_force_decide(red.target) is None

    inst = SetCover((1, 2, 3), (frozenset({1, 2}), frozenset({3}), frozenset({1})), 2)
    red = apply_simple_reduction("SetCoverToIlp", inst)
    roundtrip_check(red)

    rng = random.Random(81)
    for _ in range(10):
        matrix = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                matrix[i][j] = matrix[j][i] = rng.randint(1, 5)
        inst = Tsp(tuple(tuple(r) for r in matrix), rng.randint(4, 16))
        red = apply_simple_reduction("TspToIlp", inst)
        roundtrip_check(red)


def test_reduction_tag_mismatch():
    with pytest.raises(TypeError):
        apply_simple_reduction("CliqueToIS", Partition((1, 2)))
    with pytest.raises(ValueError):
        apply_simple_reduction("NoSuchKind", Partition((1, 2)))


def brute_force_sat2(f):
    for bits in itertools.product([False, True], repeat=f.num_vars):
        if f.evaluate(list(bits)):
            return list(bits)
    return None


def test_twosat_examples():
    res = twosat_solve(cnf(2, [(1, 2), (-1, 2)]))
    assert res.satisfiable and res.assignment[1] is True

    res = twosat_solve(cnf(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)]))
    assert not res.satisfiable and res.conflict_var == 1

    res = twosat_solve(cnf(3, []))
    assert res.satisfiable and res.assignment == [False, False, False]


def test_twosat_skew_symmetry():
    f = cnf(3, [(1, -2), (2, 3), (-1, 3)])
    g = implication_graph(f)
    n = f.num_vars

    def negate(v):
        return v - n if v > n else v + n

    arcs = set(g.arcs)
    for u, v in arcs:
        assert (negate(v), negate(u)) in arcs


def test_twosat_unsat_certificate_structural():
    f = cnf(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])
    res = twosat_solve(f)
    comps = scc_kosaraju(implication_graph(f))
    x = res.conflict_var
    block = next(b for b in comps if x in b)
    assert f.num_vars + x in block


def implication_graph(f):
    """The literal digraph that twosat_solve decides on, as a checked
    Digraph: the arcs of _implications in clause order, a repeated arc kept
    at its first occurrence."""
    return Digraph(2 * f.num_vars, _implications(f))


def all_two_clauses(num_vars):
    literals = [v for x in range(1, num_vars + 1) for v in (x, -x)]
    pool = [(l,) for l in literals]
    pool += [c for c in itertools.combinations(literals, 2)]
    return pool


def test_twosat_exhaustive_small():
    # every clause set over 2 variables, all sizes
    pool2 = all_two_clauses(2)
    for r in range(0, len(pool2) + 1):
        for subset in itertools.combinations(pool2, r):
            f = cnf(2, list(subset))
            res = twosat_solve(f)
            brute = brute_force_sat2(f)
            assert res.satisfiable == (brute is not None)
            if res.satisfiable:
                assert f.evaluate(res.assignment)
            if r > 4:
                break  # keep the full sweep for small sizes only


def test_twosat_random_agreement():
    rng = random.Random(93)
    for _ in range(4000):
        n = rng.randint(1, 12)
        pool = all_two_clauses(n)
        f = cnf(n, [rng.choice(pool) for _ in range(rng.randint(0, 3 * n))])
        res = twosat_solve(f)
        brute = brute_force_sat2(f) if n <= 10 else None
        if n <= 10:
            assert res.satisfiable == (brute is not None)
        if res.satisfiable:
            assert f.evaluate(res.assignment)
        else:
            comps = scc_kosaraju(implication_graph(f))
            x = res.conflict_var
            block = next(b for b in comps if x in b)
            assert n + x in block


def test_implication_graph_matches_the_checking_constructor():
    # The arcs come in clause order, a repeat kept at its first
    # occurrence; the adjacency must equal that of the sorted-arc Digraph.
    rng = random.Random(57)
    formulas = [cnf(0, []), cnf(1, [(1,)]), cnf(1, [(-1,)]), cnf(1, [(1, -1)]), cnf(2, [(2, 2)])]
    for _ in range(300):
        n = rng.randint(1, 9)
        pool = all_two_clauses(n)
        formulas.append(cnf(n, [rng.choice(pool) for _ in range(rng.randint(0, 3 * n))]))
    for f in formulas:
        n = f.num_vars
        arcs = []
        for clause in f.clauses:
            a, b = clause[0], clause[-1]
            arcs += [(n + h if h > 0 else -h, n + t if t > 0 else -t)
                     for h, t in ((-a, b), (-b, a)) if h != t]
        arcs = list(dict.fromkeys(arcs))
        g, built = implication_graph(f), Digraph(2 * n, sorted(arcs))
        assert type(g) is Digraph and g.arcs == tuple(arcs) and g == Digraph(2 * n, arcs)
        assert g.adj == built.adj and list(g.adj) == list(built.adj)
    assert implication_graph(cnf(1, [(1,)])).adj == {1: (2,), 2: ()}
    assert twosat_solve(cnf(0, [])) == TwoSatResult(True, [], None)
    assert twosat_solve(cnf(2, [(-2,), (1, 2)])) == TwoSatResult(True, [True, False], None)
    assert twosat_solve(cnf(2, [(2,), (-2, -1), (1,)])) == TwoSatResult(False, None, 1)


def test_twosat_rejects_wide_clause():
    with pytest.raises(ValueError):
        twosat_solve(cnf(3, [(1, 2, 3)]))


def reference_scc(g):
    """scc_kosaraju as it was before _scc_labels: a second _walk over the
    transpose's sorted tails in decreasing finish order, one block a tree."""
    stamps, _ = _walk(g.adj, range(1, g.n + 1))
    by_finish = [-v for v in reversed(stamps) if v < 0]
    tails = {v: [] for v in g.adj}
    for u, heads in g.adj.items():
        for v in heads:
            tails[v].append(u)
    _, parent = _walk(tails, by_finish)
    blocks = []
    for v, u in parent.items():  # entered tree by tree
        if u is None:
            blocks.append([])
        blocks[-1].append(v)
    return [sorted(block) for block in blocks]


def reference_twosat(f):
    """twosat_solve as it was before _scc_labels: reference_scc on the
    implication_graph Digraph, read through a component-index dict."""
    n = f.num_vars
    comp_index = {v: i for i, block in enumerate(reference_scc(implication_graph(f)))
                  for v in block}
    for x in range(1, n + 1):
        if comp_index[n + x] == comp_index[x]:
            return TwoSatResult(False, None, x)
    return TwoSatResult(True, [comp_index[n + x] > comp_index[x] for x in range(1, n + 1)], None)


def test_twosat_matches_the_digraph_reference():
    rng = random.Random(2601)
    formulas = []
    for n in range(13):
        literals = [s * x for x in range(1, n + 1) for s in (1, -1)]
        for _ in range(60 if n else 1):
            clauses = []
            for _ in range(rng.randint(0, 3 * n)):
                a, b = rng.choice(literals), rng.choice(literals)
                kind = rng.random()  # units, (a, a) and (a, -a) clauses too
                clauses.append((a,) if kind < 0.1 else (a, a) if kind < 0.2
                               else (a, -a) if kind < 0.3 else (a, b))
            clauses += rng.sample(clauses, len(clauses) // 4)  # repeated clauses
            rng.shuffle(clauses)
            formulas.append(cnf(n, clauses))
    for i in range(20):  # graph-dp's sizes and clause ratios
        n = rng.randint(500, 4000)
        literals = [s * x for x in range(1, n + 1) for s in (1, -1)]
        formulas.append(cnf(n, [(rng.choice(literals), rng.choice(literals))
                                for _ in range((1 + i % 2) * n)]))
    results = [twosat_solve(f) for f in formulas]
    assert results == [reference_twosat(f) for f in formulas]
    assert {r.satisfiable for r in results} == {True, False}


def test_scc_kosaraju_matches_the_two_walk_reference():
    rng = random.Random(2602)
    cases = []
    for n in range(5):  # every digraph with n <= 4
        pairs = list(itertools.permutations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            cases.append((n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]))
    for _ in range(300):
        n = rng.randint(5, 300)
        arcs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 3 * n))]
        arcs = [(u, v) for u, v in arcs if u != v]
        arcs += rng.choices(arcs, k=len(arcs) // 3) if arcs else []  # repeated arcs
        rng.shuffle(arcs)
        cases.append((n, arcs))
    for n, arcs in cases:
        g = Digraph(n, arcs)
        want = reference_scc(g)
        assert scc_kosaraju(g) == want
        # _scc_labels itself, as twosat_solve calls it: repeated heads,
        # sorted, and the tails with repeats in any order.
        heads, tails = [[] for _ in range(n + 1)], [[] for _ in range(n + 1)]
        for u, v in arcs:
            heads[u].append(v)
            tails[v].append(u)
        for vs in heads:
            vs.sort()
        for vs in tails:
            rng.shuffle(vs)
        label, count = _scc_labels(heads, tails, n)
        assert count == len(want)
        assert all(label[v] == i for i, block in enumerate(want) for v in block)


def test_dimacs_roundtrip():
    f = cnf(3, [(1, -2), (2, 3), (-1,)])
    again = parse_dimacs(format_dimacs(f))
    assert again == f
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 1 1\n1\n")  # missing 0 terminator


def token_loop_parse_dimacs(text):
    """parse_dimacs as it was before it parsed the literals in one pass:
    one int() and one test per token."""
    num_vars = None
    clauses = []
    current = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line}")
            num_vars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    if current:
        raise ValueError("clause not 0-terminated")
    return CnfFormula(num_vars, tuple(clauses))


def test_parse_dimacs_matches_token_loop_reference():
    # Clauses of one width and of mixed widths, spanning lines or sharing
    # them, with comments, % lines and blank lines; and texts with one
    # fault each, which must keep their messages.
    faults = [None, "token", "float", "header", "no header", "unterminated", "empty", "range"]
    rng = random.Random(93)
    seen = set()
    for trial in range(600):
        nv = rng.randint(1, 9)
        widths = [rng.randint(1, 3)] if rng.random() < 0.5 else [1, 2, 3, 4]
        clauses = [[rng.choice((1, -1)) * rng.randint(1, nv) for _ in range(rng.choice(widths))]
                   for _ in range(rng.randint(0, 12))]
        fault = faults[trial % len(faults)]
        if fault == "empty" and clauses:
            clauses[rng.randrange(len(clauses))] = []
        if fault == "range" and clauses:
            clauses[-1][0] = nv + 1
        tokens = [str(x) for c in clauses for x in (*c, 0)]
        if fault in ("token", "float") and tokens:
            tokens[rng.randrange(len(tokens))] = "x" if fault == "token" else "1.5"
        if fault == "unterminated":
            tokens.append(str(rng.randint(1, nv)))
        lines, i = [], 0
        while i < len(tokens):
            step = rng.randint(1, 5)
            lines.append(" ".join(tokens[i:i + step]))
            i += step
        for extra in ("c a comment", "% end", "", "  c indented comment"):
            if rng.random() < 0.3:
                lines.insert(rng.randint(0, len(lines)), extra)
        header = {"header": "p dnf 3 1", "no header": None}.get(fault, f"p cnf {nv} {len(clauses)}")
        if header is not None:
            lines.insert(rng.randint(0, min(1, len(lines))), header)
        text = "\n".join(lines) + "\n"
        try:
            want = token_loop_parse_dimacs(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                parse_dimacs(text)
            assert str(raised.value) == str(exc), text
            seen.add(str(exc).split(":")[0].split(" ")[0])
        else:
            got = parse_dimacs(text)
            assert got == want and type(got.clauses) is tuple
            assert all(type(c) is tuple for c in got.clauses)
            seen.add("ok")
    assert seen == {"ok", "invalid", "bad", "missing", "clause", "empty", "literal"}


# --- the recursive searches the shared walk and Held-Karp replaced, kept ---
# as references.  They keep the old answers on empty instances, which
# test_brute_force_on_empty_instances covers instead, so every sweep below
# starts at one vertex, city or column.


def recursive_coloring(g, k):
    if k < 1:
        return None if g.n else {}
    order = sorted(range(1, g.n + 1), key=lambda v: (-g.degree(v), v))
    coloring = {}

    def extend(pos):
        if pos == len(order):
            return dict(coloring)
        v = order[pos]
        used = {coloring[w] for w in g.neighbors(v) if w in coloring}
        for c in range(1, k + 1):
            if c not in used:
                coloring[v] = c
                found = extend(pos + 1)
                if found:
                    return found
                del coloring[v]
        return None

    return extend(0)


def recursive_exact_cover(universe, family):
    containing = {}
    for idx, s in enumerate(family, start=1):
        for a in s:
            containing.setdefault(a, []).append(idx)
    position = {a: i for i, a in enumerate(universe)}
    chosen = []

    def extend(uncovered):
        if not uncovered:
            return set(chosen)
        a = min(uncovered, key=lambda x: (len(containing.get(x, ())), position[x]))
        for idx in containing.get(a, ()):
            s = family[idx - 1]
            if s <= uncovered:
                chosen.append(idx)
                found = extend(uncovered - s)
                if found is not None:
                    return found
                chosen.pop()
        return None

    return extend(frozenset(universe))


def recursive_tsp(matrix, limit):
    n = len(matrix)
    if n == 1:
        return [1] if 0 <= limit else None
    cheapest = min(matrix[i][j] for i in range(n) for j in range(n) if i != j)
    optimistic = cheapest >= 0
    tour = [1]
    seen = {1}

    def extend(partial):
        if optimistic and partial + (n - len(tour) + 1) * cheapest > limit:
            return False
        if len(tour) == n:
            return partial + matrix[tour[-1] - 1][0] <= limit
        for v in range(2, n + 1):
            if v in seen:
                continue
            seen.add(v)
            tour.append(v)
            if extend(partial + matrix[tour[-2] - 1][v - 1]):
                return True
            tour.pop()
            seen.remove(v)
        return False

    return list(tour) if extend(0) else None


def recursive_ilp(rows, relations, rhs, bounds):
    width, nrows = len(bounds), len(rows)
    suffix_lo = [[0] * (width + 1) for _ in range(nrows)]
    suffix_hi = [[0] * (width + 1) for _ in range(nrows)]
    for r in range(nrows):
        for p in range(width - 1, -1, -1):
            terms = (rows[r][p] * bounds[p][0], rows[r][p] * bounds[p][1])
            suffix_lo[r][p] = suffix_lo[r][p + 1] + min(terms)
            suffix_hi[r][p] = suffix_hi[r][p + 1] + max(terms)
    partial = [0] * nrows
    x = [0] * width

    def feasible(pos):
        for r in range(nrows):
            lo, hi = partial[r] + suffix_lo[r][pos], partial[r] + suffix_hi[r][pos]
            rel, b = relations[r], rhs[r]
            if rel == "<=" and lo > b or rel == ">=" and hi < b or rel == "==" and not lo <= b <= hi:
                return False
        return True

    def extend(pos):
        if pos == width:
            return list(x)
        for val in range(bounds[pos][0], bounds[pos][1] + 1):
            x[pos] = val
            for r in range(nrows):
                partial[r] += rows[r][pos] * val
            if feasible(pos + 1):
                found = extend(pos + 1)
                if found:
                    return found
            for r in range(nrows):
                partial[r] -= rows[r][pos] * val
        x[pos] = 0
        return None

    return extend(0)


def recursive_ham(g):
    n = g.n
    if n == 0:
        return None
    path = [1]
    seen = {1}

    def extend():
        if len(path) == n:
            return path[0] in g.adj[path[-1]]
        for v in g.neighbors(path[-1]):
            if v not in seen:
                seen.add(v)
                path.append(v)
                if extend():
                    return True
                path.pop()
                seen.remove(v)
        return False

    return list(path) if extend() else None


def random_graph(rng, n, p, directed=False):
    pairs = itertools.permutations if directed else itertools.combinations
    edges = [e for e in pairs(range(1, n + 1), 2) if rng.random() < p]
    return (Digraph if directed else Graph)(n, edges)


def coloring_cases(rng):
    for n in range(1, 25):
        for _ in range(3):
            g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
            for k in (0, 1, 2, 3, 4):
                yield Coloring(g, k), recursive_coloring(g, k)


def exact_cover_cases(rng):
    for m in range(1, 41, 3):
        for _ in range(6):
            universe = tuple(range(1, rng.randint(2, 16)))
            family = [set(rng.sample(universe, min(len(universe), rng.randint(1, 4)))) for _ in range(m)]
            if rng.random() < 0.5:  # plant a partition
                shuffled = rng.sample(universe, len(universe))
                cuts = sorted(rng.sample(range(1, len(universe)), min(3, len(universe) - 1)))
                family += [set(shuffled[i:j]) for i, j in zip([0, *cuts], [*cuts, len(universe)])]
            for a in set(universe).difference(*family):
                rng.choice(family).add(a)
            family = tuple(frozenset(s) for s in rng.sample(family, min(40, len(family))))
            if frozenset().union(*family) == frozenset(universe):
                yield ExactCover(universe, family), recursive_exact_cover(universe, family)


def tsp_cases(rng):
    for n in range(1, 17):
        for _ in range(2):
            lo = rng.choice([0, 1, -2]) if n <= 7 else 5
            m = [[0 if i == j else rng.randint(lo, lo + 4) for j in range(n)] for i in range(n)]
            matrix = tuple(tuple(r) for r in m)
            best = tsp_optimum(matrix)
            for limit in (best, best - 1):
                yield Tsp(matrix, limit), recursive_tsp(matrix, limit)


def ilp_cases(rng):
    for width in range(1, 9):
        for _ in range(15):
            bounds = tuple((lo, lo + rng.randint(0, 3)) for lo in (rng.randint(0, 2) for _ in range(width)))
            point = [rng.randint(lo, hi) for lo, hi in bounds]
            rows = tuple(tuple(rng.randint(-3, 3) for _ in range(width)) for _ in range(rng.randint(1, 3)))
            relations = tuple(rng.choice(["<=", "==", ">="]) for _ in rows)
            # rows through a point of the box, some of them moved off it
            rhs = tuple(sum(a * x for a, x in zip(row, point)) + rng.choice([0, 0, 0, -1, 2]) for row in rows)
            yield Ilp(rows, relations, rhs, bounds), recursive_ilp(rows, relations, rhs, bounds)


def ham_cases(rng):
    for n in range(1, 17):
        for p in (0.2, 0.35, 0.6):
            g = random_graph(rng, n, p)
            yield HamCycle(g), recursive_ham(g)
            d = random_graph(rng, n, p, directed=True)
            yield HamCircuit(d), recursive_ham(d)


@pytest.mark.parametrize("cases", [coloring_cases, exact_cover_cases, tsp_cases, ilp_cases, ham_cases])
def test_brute_force_witness_matches_recursive_reference(cases):
    found = missing = 0
    for problem, want in cases(random.Random(2024)):
        got = brute_force_decide(problem)
        assert type(got) is type(want) and got == want, problem
        if isinstance(want, dict):
            assert list(got.items()) == list(want.items())
        if want is None:
            missing += 1
        else:
            found += 1
            assert verify(problem, got)
    assert found and missing


def every_row_ilp_search(ilp):
    """Ilp.search as it was before a child rechecked only the rows its
    column touches: every child checks every row, and the root none."""
    width = len(ilp.bounds)
    rows = [list(r) for r in ilp.rows]
    nrows = len(rows)
    suffix_lo = [[0] * (width + 1) for _ in range(nrows)]
    suffix_hi = [[0] * (width + 1) for _ in range(nrows)]
    for r in range(nrows):
        for p in range(width - 1, -1, -1):
            a = rows[r][p]
            blo, bhi = ilp.bounds[p]
            suffix_lo[r][p] = suffix_lo[r][p + 1] + min(a * blo, a * bhi)
            suffix_hi[r][p] = suffix_hi[r][p + 1] + max(a * blo, a * bhi)

    def feasible(pos, sums):
        for r, (s, rel, b) in enumerate(zip(sums, ilp.relations, ilp.rhs)):
            lo, hi = s + suffix_lo[r][pos], s + suffix_hi[r][pos]
            if rel == "<=" and lo > b or rel == ">=" and hi < b or rel == "==" and not lo <= b <= hi:
                return False
        return True

    def children(state):
        x, sums = state
        pos = len(x)
        if pos == width:
            return ()
        blo, bhi = ilp.bounds[pos]
        column = [row[pos] for row in rows]
        out = []
        for val in range(blo, bhi + 1):
            moved = tuple(s + a * val for s, a in zip(sums, column))
            if feasible(pos + 1, moved):
                out.append((x + (val,), moved))
        return out

    def accept(state):
        return len(state[0]) == width and ilp.verify(list(state[0]))

    found = _depth_first(((), (0,) * nrows), children, accept)
    return list(found[0]) if found is not None else None


def test_ilp_search_matches_every_row_reference():
    # Zero width, rows with no nonzero coefficient that fail at the root,
    # and sparse rows of each relation with negative coefficients.
    cases = [
        Ilp((), (), (), ()),
        Ilp(((),), ("==",), (3,), ()),
        Ilp(((),), (">=",), (0,), ()),
        Ilp(((0, 0, 0), (1, 1, 0)), ("==", "<="), (1, 2), ((0, 2),) * 3),
        Ilp(((1, -1, 0), (0, 0, 0)), (">=", "<="), (0, -1), ((0, 2),) * 3),
        Ilp(((1, 1, 0), (0, 0, 0)), ("<=", ">="), (2, 0), ((0, 2),) * 3),
    ]
    rng = random.Random(19)
    for _ in range(400):
        width = rng.randint(1, 7)
        bounds = tuple((lo, lo + rng.randint(0, 3)) for lo in (rng.randint(0, 2) for _ in range(width)))
        point = [rng.randint(lo, hi) for lo, hi in bounds]
        rows = tuple(tuple(rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(width))
                     for _ in range(rng.randint(1, 4)))
        relations = tuple(rng.choice(["<=", "==", ">="]) for _ in rows)
        rhs = tuple(sum(a * x for a, x in zip(row, point)) + rng.choice([0, 0, 0, -1, 2]) for row in rows)
        cases.append(Ilp(rows, relations, rhs, bounds))
    found = 0
    for ilp in cases:
        want = every_row_ilp_search(ilp)
        assert ilp.search() == want, ilp
        found += want is not None
    assert [ilp.search() for ilp in cases[:6]] == [[], None, [], None, None, [0, 0, 0]]
    assert 100 < found < len(cases) - 50
    # No column touches an all-zero row, so only the root check can refuse
    # it; without that check the search would walk all 4**10 points.
    start = time.process_time()
    assert Ilp(((0,) * 10, (1,) * 10), ("==", "<="), (1, 40), ((0, 3),) * 10).search() is None
    assert time.process_time() - start < 0.5


def test_tsp_decides_a_sixteen_city_no_instance_quickly():
    # The backtracking decider Held-Karp replaced took about 12 s of CPU here.
    matrix = random_metric_instance(16, 7).matrix
    start = time.process_time()
    assert brute_force_decide(Tsp(matrix, tsp_optimum(matrix) - 1)) is None
    assert time.process_time() - start < 2.0


# --- the enumerations the shared walks replaced, kept as references ---


def first_verified(problem, items, sizes):
    for r in sizes:
        for combo in itertools.combinations(items, r):
            if problem.verify(set(combo)):
                return set(combo)
    return None


def first_subset(items, most, accept):
    """complexity._first_subset as it was before the bit-mask walk replaced
    it: the first tuple of at most `most` items, by size and then in
    combinations order, that accept takes, or None."""
    sizes = range(min(most, len(items)) + 1)
    subsets = itertools.chain.from_iterable(itertools.combinations(items, r) for r in sizes)
    return next(filter(accept, subsets), None)


def reference_representatives(problem):
    """Representatives.search as it was: `verify` on each subset's set."""
    found = first_subset(problem.universe, len(problem.universe), lambda c: problem.verify(set(c)))
    return None if found is None else set(found)


def first_product(problem, n, values):
    """The first vector over `values`, in itertools.product order, that
    verify accepts: (False, True) for the CNF problems, (0, 1) for the
    knapsacks."""
    for bits in itertools.product(values, repeat=n):
        if problem.verify(list(bits)):
            return list(bits)
    return None


def random_clause(rng, n, width):  # duplicate and complementary literals come up
    return [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(width)]


def subset_search_cases(rng):
    yield Sat(cnf(0, [])), []
    yield ThreeSat(cnf(0, [])), []
    yield Sat(cnf(2, [(1, 1, -2), (2, -2), (-1, -1)])), [False, False]
    for problem in (Sat(cnf(6, [])), ThreeSat(cnf(7, [])),  # no clauses
                    ThreeSat(cnf(7, [(2, 2, 2), (-2, 5, -5), (-4, -4, 2)])),
                    Sat(cnf(5, [(3,), (-3,)])),  # 1, 2, 4 and 5 in no clause
                    Sat(cnf(9, [(9, -9), (-8, -8), (8, 7, 1), (-7, -1)]))):
        yield problem, first_product(problem, problem.formula.num_vars, (False, True))
    for problem in (Knapsack01((), 0), Knapsack01((), -1), Knapsack01((0, 0, 0), 0),
                    Knapsack01((-3, 0, 5, -2), -5), Knapsack01((-3, 0, 5, -2), 0)):
        yield problem, first_product(problem, len(problem.numbers), (0, 1))
    for problem in (KnapsackDecision((), (), 0, 0), KnapsackDecision((), (), -1, 0),
                    KnapsackDecision((0, -2, 3), (0, 0, -1), -1, 0),
                    KnapsackDecision((4, -1, 4), (-2, 3, -2), -3, 7)):
        yield problem, first_product(problem, len(problem.values), (0, 1))
    for numbers in ((), (0,), (0, 0, 0), (1, 1, 1, 1), (2, 1, 1, 2, 3, 3), (3, 1, 2, 2, 1, 3, 0),
                    (-2, 2, 0, -1, 1), (5, -5, 4, -4, 3, -3), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)):
        problem = Partition(numbers)  # ties within one size: the first in combinations order
        yield problem, first_verified(problem, range(1, len(numbers) + 1), range(len(numbers) + 1))
    for n in range(1, 10):
        for m in (0, 1, n, 3 * n, 5 * n) * 3:
            sat = Sat(cnf(n, [random_clause(rng, n, rng.randint(1, 4)) for _ in range(m)]))
            three = ThreeSat(cnf(n, [random_clause(rng, n, 3) for _ in range(m)]))
            for problem in (sat, three):
                yield problem, first_product(problem, n, (False, True))
    for n in range(0, 10):
        for _ in range(6):
            numbers = tuple(rng.randint(-4, 9) for _ in range(n))  # negatives and zeros
            for target in (rng.randint(-6, 20), sum(numbers), 0):
                problem = Knapsack01(numbers, target)
                yield problem, first_product(problem, n, (0, 1))
            values, volumes = (tuple(rng.randint(-3, 9) for _ in range(n)) for _ in range(2))
            for capacity, goal in ((rng.randint(-2, 20), rng.randint(-2, 25)), (0, 0), (-1, 1)):
                problem = KnapsackDecision(values, volumes, capacity, goal)
                yield problem, first_product(problem, n, (0, 1))
            for problem in (Partition(numbers), Partition(tuple(map(abs, numbers))),
                            Partition(numbers + (1,))):  # the last has an odd total as often as not
                yield problem, first_verified(problem, range(1, len(problem.numbers) + 1),
                                              range(len(problem.numbers) + 1))
    for size in range(0, 9):
        for _ in range(40):
            odd = [True, 1.0, "x"] if rng.random() < 0.3 else []  # True and 1.0 equal 1 in a set
            universe = tuple(rng.choice([rng.randint(1, size + 2)] * 6 + odd)  # duplicate entries
                             for _ in range(size))
            pool = [*range(1, size + 3), "x", *odd[:2]]  # elements outside the universe
            family = tuple(frozenset(rng.sample(pool, rng.randint(0, min(4, len(pool)))))
                           for _ in range(rng.randint(0, 6)))  # sometimes an empty family
            problem = Representatives(universe, family)
            yield problem, reference_representatives(problem)


def test_subset_walks_match_the_enumerations():
    found = missing = 0
    for problem, want in subset_search_cases(random.Random(2026)):
        got = brute_force_decide(problem)
        assert type(got) is type(want) and got == want, problem
        if isinstance(want, list):
            assert list(map(type, got)) == list(map(type, want)), problem
        found += want is not None
        missing += want is None
    assert found and missing


def pigeonhole(pigeons, holes):
    """PHP(p, h): variable (i - 1) * holes + j puts pigeon i in hole j;
    each pigeon sits somewhere and no hole holds two (Haken 1985)."""
    var = lambda i, j: i * holes + j + 1
    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    clauses += [[-var(i, j), -var(k, j)] for j in range(holes)
                for i, k in itertools.combinations(range(pigeons), 2)]
    return cnf(pigeons * holes, clauses)


def random_three_cnf(rng, n, m):
    return cnf(n, [[rng.choice((1, -1)) * v for v in rng.sample(range(1, n + 1), 3)] for _ in range(m)])


# Even numbers never sum to 1, an odd total has no halves, 20 items of value
# equal to volume never reach a value above their capacity, sums of even
# numbers never reach the odd half 381, five pigeons do not fit in four
# holes, and 120 random 3-clauses over 20 variables leave no model.
@pytest.mark.parametrize("problem", [
    Knapsack01(tuple(range(2, 42, 2)), 1), Partition((*range(1, 20), 21)),
    KnapsackDecision(tuple(range(1, 21)), tuple(range(1, 21)), 50, 51),
    Partition((*range(4, 80, 4), 2)), Sat(pigeonhole(5, 4)),
    ThreeSat(random_three_cnf(random.Random(20), 20, 120)),
    # an odd cycle of pairs, which no set of elements hits once each
    Representatives(tuple(range(1, 21)), tuple(frozenset({i, i % 19 + 1}) for i in range(1, 20))),
], ids=["knapsack01", "partition", "knapsack-decision", "partition-even-total", "sat-php-5-4",
        "3sat-random-20x120", "representatives-odd-cycle"])
def test_twenty_item_no_instances_decide_quickly(problem):
    # Trying each of the 2**20 vectors or subsets took 0.9-11.6 s of CPU
    # here (representatives: 2.6 s); the halves, truth tables and the
    # bit-mask walk take a few ms.
    start = time.process_time()
    assert brute_force_decide(problem) is None
    assert time.process_time() - start < 0.25


def between(t, u):
    """The CNF of t <= x <= u, with x, t and u read as binary numbers
    whose variable 1 is the most significant bit: its first model is t,
    and it has none when t > u.  x > u fails at each 0 of u unless x left
    u at some earlier variable, and x < t at each 1 of t likewise."""
    def differs(bits):  # the literal x_v != bits_v, for each v
        return [v if not bit else -v for v, bit in enumerate(bits, 1)]

    above, below = differs(t), differs(u)
    return cnf(len(t), [[v, *above[:v - 1]] for v, bit in enumerate(t, 1) if bit]
               + [[-v, *below[:v - 1]] for v, bit in enumerate(u, 1) if not bit])


def test_sat_walks_the_leading_variables_past_sixteen():
    # Above 16 variables the tables cover the last 16 and the leading
    # variables are walked in product order, where a reference
    # enumeration is too slow for the suite.
    rng = random.Random(17)
    for n in (17, 18, 20):
        for _ in range(6):
            t, u = ([rng.random() < 0.5 for _ in range(n)] for _ in range(2))
            assert brute_force_decide(Sat(between(t, u))) == (t if t <= u else None)
            low, high = sorted((t, u))
            assert brute_force_decide(Sat(between(low, high))) == low


def test_sat_tables_do_not_grow_with_the_oracle_limit(monkeypatch):
    # One table over all 24 variables would hold 2**24 bits (2 MB); the
    # search keeps its tables over the last 16.
    import tracemalloc

    monkeypatch.setenv("COMBINLAB_ORACLE_LIMIT", "24")
    tracemalloc.start()
    try:
        assert brute_force_decide(Sat(pigeonhole(6, 4))) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_independent_set_goal_decides_as_the_optimum_does():
    from combinlab.exact import _adjacency_bits, _most_independent

    rng = random.Random(61)
    for n, p in itertools.product(range(0, 13), [0, 0.3, 0.6, 1]):
        g = random_graph(rng, n, p)
        adj, alive = _adjacency_bits(g), (1 << n) - 1
        most = _most_independent(adj, alive)
        for goal in range(-1, n + 2):
            got = _most_independent(adj, alive, goal)
            assert (got >= goal) == (most >= goal)
            assert got <= most or got < goal  # a size reached is a set found


def cover_cases(rng):
    for n, p in itertools.product(range(0, 13), [0, 0.2, 0.4, 0.7, 1]):
        g = random_graph(rng, n, p)
        for k in range(-1, n + 2):
            yield VertexCover(g, k), first_verified(VertexCover(g, k), range(1, n + 1), range(min(k, n) + 1))
            for problem in (Clique(g, k), IndependentSet(g, k)):  # exactly max(k, 0) vertices
                yield problem, first_verified(problem, range(1, n + 1), [max(k, 0)])
    for m in [*range(0, 22)] * 4:
        universe = tuple(range(1, rng.randint(1, 12))) if m else ()
        pool = [*universe, 99, "x"]  # some sets hold elements outside the universe
        family = [set(rng.sample(pool, rng.randint(1, min(5, len(pool))))) for _ in range(m)]
        for a in set(universe).difference(*family):
            rng.choice(family).add(a)
        family = tuple(frozenset(s) for s in family)
        for k in range(-1, m + 2):
            problem = SetCover(universe, family, k)
            yield problem, first_verified(problem, range(1, m + 1), range(min(k, m) + 1))


def test_cover_walk_matches_the_subfamily_enumeration():
    found = missing = 0
    for problem, want in cover_cases(random.Random(2024)):
        got = brute_force_decide(problem)
        assert type(got) is type(want) and got == want, problem
        found += want is not None
        missing += want is None
    assert found and missing


@pytest.mark.parametrize("c", [4, 8, 11])  # 16 to 44 vertices, the cap
def test_graph_deciders_on_disjoint_k4s(c):
    # Closed forms where the enumeration cannot reach: the first smallest
    # cover is the first three vertices of each K4, the first independent
    # c-set the first vertex of each, and the first 4-clique {1, 2, 3, 4};
    # one step past each optimum there is no witness.
    g = Graph(4 * c, [(4 * b + i, 4 * b + j) for b in range(c) for i in range(1, 5) for j in range(i + 1, 5)])
    assert brute_force_decide(VertexCover(g, 3 * c)) == {4 * b + i for b in range(c) for i in (1, 2, 3)}
    assert brute_force_decide(IndependentSet(g, c)) == set(range(1, 4 * c, 4))
    assert brute_force_decide(Clique(g, 4)) == {1, 2, 3, 4}
    for problem in (VertexCover(g, 3 * c - 1), IndependentSet(g, c + 1), Clique(g, 5)):
        assert brute_force_decide(problem) is None


def test_negative_k_decides_as_verify_does():
    g = Graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    for problem in (Clique(g, -1), IndependentSet(g, -1), Clique(Graph(0, []), -2)):
        assert brute_force_decide(problem) == set() and verify(problem, set())
    assert brute_force_decide(VertexCover(g, -1)) is None


def test_set_cover_ignores_elements_outside_the_universe():
    problem = SetCover((1,), (frozenset({1, 2}),), 1)
    assert verify(problem, {1})
    assert brute_force_decide(problem) == {1}


# --- value semantics of the problem and result classes ---


G3 = Graph(3, [(1, 2), (2, 3)])
D2 = Digraph(2, [(1, 2), (2, 1)])
F3 = cnf(3, [(1, -2, 3)])

# kind -> (one instance's fields in their order, a field and another value for it)
VALUES = {
    "sat": ({"formula": F3}, ("formula", cnf(3, [(1,)]))),
    "3sat": ({"formula": F3}, ("formula", cnf(3, [(1, 2, 3)]))),
    "clique": ({"graph": G3, "k": 2}, ("k", 3)),
    "independent-set": ({"graph": G3, "k": 2}, ("graph", Graph(3, []))),
    "vertex-cover": ({"graph": G3, "k": 1}, ("k", 2)),
    "coloring": ({"graph": G3, "k": 2}, ("k", 3)),
    "exact-cover": ({"universe": (1, 2), "family": (frozenset({1}), frozenset({2}))},
                    ("family", (frozenset({1, 2}),))),
    "representatives": ({"universe": (1, 2), "family": (frozenset({1, 2}),)}, ("universe", (2, 1))),
    "set-cover": ({"universe": (1, 2), "family": (frozenset({1, 2}),), "k": 1}, ("k", 0)),
    "knapsack01": ({"numbers": (3, 5), "target": 8}, ("target", 5)),
    "knapsack-decision": ({"values": (3, 4), "volumes": (2, 5), "capacity": 6, "goal": 4},
                          ("goal", 7)),
    "partition": ({"numbers": (1, 2, 3)}, ("numbers", (1, 2))),
    "ham-circuit": ({"digraph": D2}, ("digraph", Digraph(2, []))),
    "ham-cycle": ({"graph": G3}, ("graph", Graph(3, []))),
    "tsp": ({"matrix": ((0, 1), (1, 0)), "limit": 2}, ("limit", 3)),
    "ilp": ({"rows": ((1, 1),), "relations": ("<=",), "rhs": (1,), "bounds": ((0, 1), (0, 1))},
            ("rhs", (2,))),
}


def test_value_table_covers_every_problem():
    assert set(VALUES) == set(PROBLEMS)


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_problem_value_semantics(kind):
    cls = PROBLEMS[kind]
    fields, (name, other) = VALUES[kind]
    p = cls(*fields.values())
    assert repr(p) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    same = cls(**fields)
    assert p == same and not p != same and hash(p) == hash(same)
    assert [getattr(same, k) for k in fields] == list(fields.values())
    changed = cls(**{**fields, name: other})
    assert p != changed and not p == changed
    assert p != tuple(fields.values()) and p != "x"
    for attr in (name, "extra"):
        with pytest.raises(AttributeError):
            setattr(p, attr, other)
    with pytest.raises(AttributeError):
        delattr(p, name)
    assert getattr(p, name) == fields[name]
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, extra=1)
    with pytest.raises(TypeError):
        cls(*list(fields.values())[:-1])
    assert copy.copy(p) == p
    for again in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(again) is cls
        assert [getattr(again, k) for k in fields] == list(fields.values())
        assert again == p and hash(again) == hash(p)


def test_problems_of_different_kinds_differ():
    assert Clique(G3, 2) != IndependentSet(G3, 2)
    assert not Clique(G3, 2) == IndependentSet(G3, 2)
    assert Sat(F3) != ThreeSat(F3)
    assert Coloring(G3, 2) != VertexCover(G3, 2)


def test_cnf_formula_value_semantics():
    f = CnfFormula(3, ((1, -2, 3),))
    assert repr(f) == "CnfFormula(num_vars=3, clauses=((1, -2, 3),))"
    same = CnfFormula(num_vars=3, clauses=((1, -2, 3),))
    assert f == same == F3 and hash(f) == hash(same)
    assert f != CnfFormula(3, ((1, 2, 3),)) and f != CnfFormula(4, ((1, -2, 3),))
    assert f != (3, ((1, -2, 3),))
    for attr in ("num_vars", "extra"):
        with pytest.raises(AttributeError):
            setattr(f, attr, 4)
    with pytest.raises(AttributeError):
        del f.clauses
    for again in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert again == f and hash(again) == hash(f)


def test_construction_errors():
    with pytest.raises(ValueError, match="^empty clause$"):
        CnfFormula(2, ((1,), ()))
    with pytest.raises(ValueError, match="^literal 3 out of range$"):
        CnfFormula(2, ((1, 3),))
    with pytest.raises(ValueError, match="^literal 0 out of range$"):
        CnfFormula(num_vars=2, clauses=((0,),))
    with pytest.raises(ValueError, match="^num_vars must be >= 0$"):  # the search would shift by it
        cnf(-3, [])
    for lit in (1.0, True, Fraction(1)):  # the 2-SAT graph indexes by literal
        with pytest.raises(ValueError, match=re.escape(f"literal {lit!r} is not an integer")):
            cnf(2, [(2, lit)])
    with pytest.raises(ValueError, match="^not a 3-CNF formula$"):
        ThreeSat(cnf(2, [(1, 2)]))
    with pytest.raises(ValueError, match="^not a 3-CNF formula$"):
        ThreeSat(formula=cnf(3, [(1, 2, 3), (1,)]))
    with pytest.raises(ValueError, match="^rows, relations and rhs must align$"):
        Ilp(((1,), (1,)), ("<=",), (1, 1), ((0, 1),))
    with pytest.raises(ValueError, match="^rows, relations and rhs must align$"):
        Ilp(rows=((1,),), relations=("<=",), rhs=(), bounds=((0, 1),))
    for values, volumes in (((5, 6, 7), (1, 2)), ((5,), (1, 2))):
        with pytest.raises(ValueError, match="^values and volumes must align$"):
            KnapsackDecision(values, volumes, 10, 12)
    with pytest.raises(ValueError, match="^row width must match bound count$"):
        Ilp(((1, 1),), ("<=",), (1,), ((0, 1),))
    with pytest.raises(ValueError, match="^bad relation <$"):
        Ilp(((1,),), ("<",), (1,), ((0, 1),))
    with pytest.raises(ValueError, match="^matrix must be square$"):
        Tsp(((0, 1), (1,)), 2)
    with pytest.raises(ValueError, match="^diagonal must be zero$"):
        Tsp(((1,),), 2)
    for matrix, limit in ((((0, 1.5, 2), (1.5, 0, 1), (2, 1, 0)), 5), (((0, 1), (1, 0)), 2.5)):
        with pytest.raises(ValueError, match="^matrix and limit must be exact ints or fractions$"):
            Tsp(matrix, limit)
    with pytest.raises(ValueError, match="^family must cover the universe exactly$"):
        ExactCover((1,), (frozenset({1, 2}),))
    with pytest.raises(ValueError, match="^family does not cover the universe$"):
        SetCover((1, 2), (frozenset({1}),), 1)


def test_result_value_semantics():
    red = ReductionOutput(Sat(F3), ThreeSat(F3), abs, len)
    assert repr(red) == (
        f"ReductionOutput(source={Sat(F3)!r}, target={ThreeSat(F3)!r}, "
        "forward=<built-in function abs>, backward=<built-in function len>)"
    )
    same = ReductionOutput(source=Sat(F3), target=ThreeSat(F3), forward=abs, backward=len)
    assert red == same and not red != same
    assert red != ReductionOutput(Sat(F3), ThreeSat(F3), len, abs)
    res = TwoSatResult(True, [True, False], None)
    assert repr(res) == "TwoSatResult(satisfiable=True, assignment=[True, False], conflict_var=None)"
    assert res == TwoSatResult(satisfiable=True, assignment=[True, False], conflict_var=None)
    assert res != TwoSatResult(False, None, 1) and res != (True, [True, False], None)
    assert twosat_solve(cnf(1, [(1,), (-1,)])) == TwoSatResult(False, None, 1)
    for value in (red, res):
        with pytest.raises(TypeError):
            hash(value)
        for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert again == value and type(again) is type(value)
    red.target = Sat(F3)  # results are mutable
    res.assignment = None
    assert red.target == Sat(F3) and res == TwoSatResult(True, None, None)
    with pytest.raises(TypeError):
        TwoSatResult(True, None)
