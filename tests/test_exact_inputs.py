"""Every public entry point that takes a number refuses a float."""

from fractions import Fraction

import combinlab as cl
from combinlab import complexity as cx
from combinlab.oracles import EQUAL

HALF = Fraction(1, 2)
ARCS = cl.WeightedDigraph(2, {(1, 2): 1})
EDGES = cl.WeightedGraph(2, {(1, 2): 1})


def triangle(x):
    return [[0, x, 1], [x, 0, 1], [1, 1, 0]]


# export -> (call, exact number): call(number) must run, and call(float(number))
# must raise ValueError.  The number goes where the export takes a quantity,
# a count, a rank or a vertex.
FLOAT_CALLS = {
    "QueryCounter": (lambda x: cl.QueryCounter(x), 0),
    "adversary_merge": (lambda x: cl.adversary_merge(x, 2), 2),
    "adversary_set_equality": (lambda x: cl.adversary_set_equality(x), 2),
    "adversary_whoiswho": (lambda x: cl.adversary_whoiswho(x), 3),
    "bitonic_max": (lambda x: cl.bitonic_max(x, lambda i: [1, 3, 2][i - 1]), 3),
    "classify_group": (lambda x: cl.classify_group(x, lambda i, j: True), 3),
    "find_counterfeit": (lambda x: cl.find_counterfeit(x, lambda left, right: EQUAL), 3),
    "find_radioactive": (lambda x: cl.find_radioactive(x, lambda s: 1 in s), 3),
    "sets_equal": (lambda x: cl.sets_equal(x, lambda i, j: i == j), 2),
    "select_t_linear": (lambda x: cl.select_t_linear([3, 1, 2], x), 2),
    "select_t_tournament": (lambda x: cl.select_t_tournament([3, 1, 2], x), 2),
    "sort_budgets": (lambda x: cl.sort_budgets(x), 4),
    "Digraph": (lambda x: cl.Digraph(2, [(x, 2)]), 1),
    "Graph": (lambda x: cl.Graph(2, [(1, x)]), 2),
    "dfs": (lambda x: cl.dfs(cl.Graph(2, [(1, 2)]), [x, 2]), 1),
    "parse_graph_text": (lambda x: cl.parse_graph_text(f"p 2 1\ne 1 2 {x}\n"), HALF),
    "WeightedDigraph": (lambda x: cl.WeightedDigraph(2, {(1, 2): x}), HALF),
    "WeightedGraph": (lambda x: cl.WeightedGraph(2, {(1, 2): x}), HALF),
    "dijkstra": (lambda x: cl.dijkstra(ARCS, x), 1),
    "reconstruct_path": (lambda x: cl.reconstruct_path(cl.floyd_warshall(ARCS), x, 2), 1),
    "undirected_shortest_path": (lambda x: cl.undirected_shortest_path(EDGES, 1, x), 2),
    "AllocationInstance": (lambda x: cl.AllocationInstance.from_lists([[0, 1]], [[0, x]], 1), HALF),
    "count_parenthesizations": (lambda x: cl.count_parenthesizations(x), 3),
    "greedy_knapsack_by_density": (lambda x: cl.greedy_knapsack_by_density([x], [1], 1), HALF),
    "knapsack_pareto": (lambda x: cl.knapsack_pareto([1], [x], 1), HALF),
    "matrix_chain": (lambda x: cl.matrix_chain([1, x, 3]), 2),
    "polygon_triangulation": (lambda x: cl.polygon_triangulation(lambda i, k, j: x, 5), HALF),
    "CnfFormula": (lambda x: cl.CnfFormula(x, ((1,),)), 1),
    "cnf": (lambda x: cl.cnf(1, [[x]]), 1),
    "verify_witness": (lambda x: cl.verify_witness(cx.Partition((1, 1)), [x]), 1),
    "MetricTspInstance": (lambda x: cl.MetricTspInstance(triangle(x)), HALF),
    "bin_pack_first_fit": (lambda x: cl.bin_pack_first_fit([x]), HALF),
    "knapsack_fptas": (lambda x: cl.knapsack_fptas([1], [1], 1, x), HALF),
    "min_perfect_matching_exact": (lambda x: cl.min_perfect_matching_exact([1, 2], lambda a, b: x), HALF),
    "tsp_christofides": (lambda x: cl.tsp_christofides(triangle(x)), HALF),
    "tsp_double_tree": (lambda x: cl.tsp_double_tree(triangle(x)), HALF),
    "tsp_gap_instance": (lambda x: cl.tsp_gap_instance(cl.Graph(3, []), x), HALF),
    "vc_greedy_counterexample": (lambda x: cl.vc_greedy_counterexample(x), 3),
}

COMPARED = "orders or compares its items only; no arithmetic touches them"
GRAPH = "takes only a graph, whose class refuses float vertices and weights when built"
RECORD = "takes only a problem record; the records that hold numbers refuse floats (RECORDS)"

# export -> why it takes no number of its own
EXEMPT = {
    "CountingComparator": COMPARED,
    "counting_comparator": COMPARED,
    "max_and_min": COMPARED,
    "top_three": COMPARED,
    "top_two": COMPARED,
    "tournament_max": COMPARED,
    "binary_insert": COMPARED,
    "insertion_sort": COMPARED,
    "merge_insertion_sort": COMPARED,
    "merge_runs": COMPARED,
    "merge_sort_grouped": COMPARED,
    "lcs": COMPARED,
    "set_cover_greedy": "its elements are labels, only hashed and compared for equality",
    "adversary_certify": "takes only an adversary, whose factory refuses float sizes",
    "allocate": "takes only an AllocationInstance, which refuses floats when built",
    "bfs_forest": GRAPH,
    "connected_components": GRAPH,
    "euler_cycle": GRAPH,
    "fleury_euler_cycle": GRAPH,
    "scc_kosaraju": GRAPH,
    "floyd_warshall": GRAPH,
    "kruskal": GRAPH,
    "max_spanning_tree": GRAPH,
    "prim": GRAPH,
    "transitive_closure": GRAPH,
    "max_cut_local_search": GRAPH,
    "vc_degree_greedy": GRAPH,
    "vc_matching_2approx": GRAPH,
    "apply_simple_reduction": RECORD,
    "brute_force_decide": RECORD,
    "exact_cover_to_knapsack01": RECORD,
    "sat_to_3sat": RECORD,
    "sat_to_clique": RECORD,
    "threesat_to_coloring": RECORD,
    "twosat_solve": RECORD,
    "vc_to_ham_circuit": RECORD,
}

# The problem records that hold numbers or counts, which brute_force_decide,
# verify_witness and apply_simple_reduction take: (make, exact number).
RECORDS = {
    "Knapsack01": (lambda x: cx.Knapsack01((x, 1), 1), 1),
    "KnapsackDecision": (lambda x: cx.KnapsackDecision((1,), (1,), x, 1), 1),
    "Partition": (lambda x: cx.Partition((x, 1)), 1),
    "Ilp": (lambda x: cx.Ilp(((1,),), ("<=",), (x,), ((0, 1),)), 1),
    "Tsp": (lambda x: cx.Tsp(tuple(map(tuple, triangle(1))), x), 3),
    "Clique": (lambda x: cx.Clique(cl.Graph(2, [(1, 2)]), x), 2),
    "Coloring": (lambda x: cx.Coloring(cl.Graph(2, [(1, 2)]), x), 2),
    "SetCover": (lambda x: cx.SetCover((1,), (frozenset({1}),), x), 1),
}


def test_every_export_that_takes_a_number_refuses_a_float():
    assert not set(FLOAT_CALLS) & set(EXEMPT)
    assert sorted(FLOAT_CALLS.keys() | EXEMPT.keys()) == sorted(cl.__all__)  # each export classified
    calls = {**FLOAT_CALLS, **RECORDS}
    refused = []
    for name, (call, exact) in calls.items():
        call(exact)
        try:
            call(float(exact))
        except ValueError:
            refused.append(name)
    assert refused == list(calls)
