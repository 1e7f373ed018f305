"""combinlab: a combinatorial-algorithms laboratory.

Query-optimal search games, comparison sorting and selection with exact
worst-case counts, classic graph and DP algorithms, an NP-reduction
compiler with witness transport, a polynomial 2-SAT solver, and
approximation algorithms with checked ratio guarantees.

The public names below are attributes of the package, but a module is
imported only when one of its names is first read (PEP 562), so
`import combinlab.sorting` or a `combinlab sort` call does not pay for
the NP layer.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names the package re-exports from it
_EXPORTS = {
    "oracles": (
        "CountingComparator",
        "QueryCounter",
        "adversary_certify",
        "adversary_merge",
        "adversary_set_equality",
        "adversary_whoiswho",
        "counting_comparator",
    ),
    "search_games": (
        "bitonic_max",
        "classify_group",
        "find_counterfeit",
        "find_radioactive",
        "sets_equal",
    ),
    "tournament": (
        "max_and_min",
        "select_t_linear",
        "select_t_tournament",
        "top_three",
        "top_two",
        "tournament_max",
    ),
    "sorting": (
        "binary_insert",
        "insertion_sort",
        "merge_insertion_sort",
        "merge_runs",
        "merge_sort_grouped",
        "sort_budgets",
    ),
    "graph_core": (
        "Digraph",
        "Graph",
        "bfs_forest",
        "connected_components",
        "dfs",
        "euler_cycle",
        "fleury_euler_cycle",
        "parse_graph_text",
        "scc_kosaraju",
    ),
    "paths_mst": (
        "WeightedDigraph",
        "WeightedGraph",
        "dijkstra",
        "floyd_warshall",
        "kruskal",
        "max_spanning_tree",
        "prim",
        "reconstruct_path",
        "transitive_closure",
        "undirected_shortest_path",
    ),
    "dp": (
        "AllocationInstance",
        "allocate",
        "count_parenthesizations",
        "greedy_knapsack_by_density",
        "knapsack_pareto",
        "lcs",
        "matrix_chain",
        "polygon_triangulation",
    ),
    "complexity": (
        "CnfFormula",
        "apply_simple_reduction",
        "brute_force_decide",
        "cnf",
        "exact_cover_to_knapsack01",
        "sat_to_3sat",
        "sat_to_clique",
        "threesat_to_coloring",
        "twosat_solve",
        "vc_to_ham_circuit",
        "verify_witness",
    ),
    "approx": (
        "MetricTspInstance",
        "bin_pack_first_fit",
        "knapsack_fptas",
        "max_cut_local_search",
        "min_perfect_matching_exact",
        "set_cover_greedy",
        "tsp_christofides",
        "tsp_double_tree",
        "tsp_gap_instance",
        "vc_degree_greedy",
        "vc_greedy_counterexample",
        "vc_matching_2approx",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
