"""What importing the package and running a command loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import combinlab

# The package's public names, module by module, as they were when
# __init__ still imported every module.
PUBLIC = {
    "oracles": {
        "CountingComparator", "QueryCounter", "adversary_certify", "adversary_merge",
        "adversary_set_equality", "adversary_whoiswho", "counting_comparator",
    },
    "search_games": {
        "bitonic_max", "classify_group", "find_counterfeit", "find_radioactive", "sets_equal",
    },
    "tournament": {
        "max_and_min", "select_t_linear", "select_t_tournament", "top_three", "top_two",
        "tournament_max",
    },
    "sorting": {
        "binary_insert", "insertion_sort", "merge_insertion_sort", "merge_runs",
        "merge_sort_grouped", "sort_budgets",
    },
    "graph_core": {
        "Digraph", "Graph", "bfs_forest", "connected_components", "dfs", "euler_cycle",
        "fleury_euler_cycle", "parse_graph_text", "scc_kosaraju",
    },
    "paths_mst": {
        "WeightedDigraph", "WeightedGraph", "dijkstra", "floyd_warshall", "kruskal",
        "max_spanning_tree", "prim", "reconstruct_path", "transitive_closure",
        "undirected_shortest_path",
    },
    "dp": {
        "AllocationInstance", "allocate", "count_parenthesizations",
        "greedy_knapsack_by_density", "knapsack_pareto", "lcs", "matrix_chain",
        "polygon_triangulation",
    },
    "complexity": {
        "CnfFormula", "apply_simple_reduction", "brute_force_decide", "cnf",
        "exact_cover_to_knapsack01", "sat_to_3sat", "sat_to_clique", "threesat_to_coloring",
        "twosat_solve", "vc_to_ham_circuit", "verify_witness",
    },
    "approx": {
        "MetricTspInstance", "bin_pack_first_fit", "knapsack_fptas", "max_cut_local_search",
        "min_perfect_matching_exact", "set_cover_greedy", "tsp_christofides",
        "tsp_double_tree", "tsp_gap_instance", "vc_degree_greedy", "vc_greedy_counterexample",
        "vc_matching_2approx",
    },
}

SRC = str(Path(combinlab.__file__).parents[1])


def child(code, *args):
    """Run `code` in a fresh interpreter on this checkout's sources and
    return its stdout parsed as JSON."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout)


def test_all_is_the_public_name_set_and_each_name_resolves_to_its_module():
    names = [name for group in PUBLIC.values() for name in group]
    assert sorted(combinlab.__all__) == sorted(names)
    for module, group in PUBLIC.items():
        mod = importlib.import_module(f"combinlab.{module}")
        for name in group:
            assert getattr(combinlab, name) is getattr(mod, name), name
    assert set(combinlab.__all__) <= set(dir(combinlab))
    assert combinlab.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        getattr(combinlab, "no_such_name")


def test_importing_the_package_imports_no_module_until_a_name_is_read():
    loaded = child(
        "import json, sys\n"
        "import combinlab\n"
        "before = sorted(m for m in sys.modules if m.startswith('combinlab.'))\n"
        "combinlab.dfs\n"
        "after = sorted(m for m in sys.modules if m.startswith('combinlab.'))\n"
        "from combinlab import *\n"
        "print(json.dumps([before, after, sorted(k for k in dir() if not k.startswith('_'))]))\n"
    )
    before, after, star = loaded
    assert before == []
    assert after == ["combinlab.graph_core", "combinlab.intmath"]
    assert set(combinlab.__all__) <= set(star)


# Imports the comma-separated modules of the first argument, then runs
# cli.main on the other arguments and prints the modules the call added, so
# that what the host's site hooks load is not counted.  It drops random
# first, which 3.11's site hooks load, so that a call importing it shows.
CALL = """
import contextlib, importlib, io, json, sys
for name in filter(None, sys.argv[1].split(",")):
    importlib.import_module(name)
sys.modules.pop("random", None)
before = set(sys.modules)
from combinlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


@pytest.mark.parametrize("call", [
    "solve dfs d.txt",
    "solve scc d.txt --format json",
    "sort mergeinsertion nums.txt --count",
    "select nums.txt --t 2 --algorithm linear",
    "gen numbers --n 5",
    "bench sorting --n-max 6",
])
def test_light_commands_import_neither_the_np_layer_nor_dataclasses(tmp_path, call):
    (tmp_path / "d.txt").write_text("pd 4 4\na 1 2\na 2 1\na 2 3\na 3 4\n")
    (tmp_path / "nums.txt").write_text("5 3 9 1 4 8\n")
    argv = [str(tmp_path / tok) if tok.endswith(".txt") else tok for tok in call.split()]
    code, added = child(CALL, "", *argv)
    assert code == 0
    assert "combinlab.cli" in added
    assert {"combinlab.complexity", "combinlab.approx", "dataclasses"} & set(added) == set()
    if not call.startswith("solve "):  # graph_core reads p/q weights with fractions
        assert {"fractions", "decimal"} & set(added) == set()


# What each NP command may load, leaving out the modules whose names start
# with an underscore (__future__ and the C accelerators, which differ
# between builds of one Python version), so a new import on the path fails.
NP_PATH = {"argparse", "combinlab", "combinlab.cli", "combinlab.complexity", "combinlab.exact",
           "combinlab.graph_core", "combinlab.intmath", "decimal", "fractions", "gettext",
           "locale", "numbers", "shutil"}
# The optima live in exact, and the set-system and matrix loaders in intmath
# and graph_core, so no approx call loads an NP problem: complexity is not on
# its path.
APPROX_PATH = NP_PATH - {"combinlab.complexity"} | {"combinlab.approx", "combinlab.paths_mst", "hashlib"}
NP_CALLS = {
    "reduce sat-clique f.cnf --oracle": NP_PATH,
    "reduce sat-3sat f.cnf --oracle": NP_PATH,
    "verify vertex-cover g.txt w.json --k 2": NP_PATH,
    "twosat f.cnf": NP_PATH,
    "approx vc-matching g.txt --oracle": APPROX_PATH,
    "approx maxcut g.txt --oracle": APPROX_PATH,
    "approx binpack s.txt --oracle": APPROX_PATH,
    "approx knapsack-fptas k.json --oracle": APPROX_PATH | {"combinlab.dp"},
    "approx setcover c.json --oracle": APPROX_PATH,
    # The tours' spanning tree is prim's, which imports heapq when it runs.
    "approx tsp-christofides m.txt --oracle": APPROX_PATH | {"heapq"},
}


@pytest.mark.parametrize("call", NP_CALLS)
def test_np_commands_import_complexity_without_dataclasses(tmp_path, call):
    (tmp_path / "f.cnf").write_text("p cnf 2 2\n1 -2 0\n2 0\n")
    (tmp_path / "g.txt").write_text("p 3 2\ne 1 2\ne 2 3\n")
    (tmp_path / "w.json").write_text("[1, 3]\n")
    (tmp_path / "k.json").write_text('{"values": [3, 4, 5], "volumes": [2, 3, 4], "capacity": 5}\n')
    (tmp_path / "s.txt").write_text("1/2 1/3 2/3 1/2\n")
    (tmp_path / "c.json").write_text('{"universe": [1, 2, 3], "family": [[1, 2], [2, 3], [3]]}\n')
    (tmp_path / "m.txt").write_text("0 1 1 2\n1 0 2 1\n1 2 0 1\n2 1 1 0\n")
    argv = [str(tmp_path / tok) if "." in tok else tok for tok in call.split()]
    # The pin's stdlib modules are imported before the snapshot, so they are
    # loaded whatever the interpreter's start-up loads (3.11's site hooks
    # bring in shutil, a clean 3.10 or 3.12 start does not), and the call
    # may add only the pinned combinlab modules: a new stdlib import on the
    # path, such as dataclasses or random, still shows.
    own = {m for m in NP_CALLS[call] if m.partition(".")[0] == "combinlab"}
    code, added = child(CALL, ",".join(sorted(NP_CALLS[call] - own)), *argv)
    assert code == 0
    assert {m for m in added if not m.startswith("_")} == own  # no dataclasses


@pytest.mark.parametrize("call", ["gen metric --n 4", "gen gap --n 5 --eps 1/2", "gen counterexample --n 3"])
def test_gen_loads_approx_but_not_hashlib(call):
    # approx.digest_of imports hashlib on its first call, which no gen family
    # makes; each family seeds a random.Random
    code, added = child(CALL, "", *call.split())
    assert code == 0
    assert {"combinlab.approx", "random"} <= set(added)
    assert "hashlib" not in added


def test_solve_knapsack_loads_neither_graph_core_nor_paths_mst(tmp_path):
    # The knapsack table reads its packed row with intmath's cell reader,
    # which Floyd-Warshall shares, so solving a knapsack needs no graph code.
    (tmp_path / "k.json").write_text('{"values": [3, 4, 5], "volumes": [2, 3, 4], "capacity": 5}\n')
    stdlib = "argparse,decimal,fractions,gettext,json,locale,numbers,shutil"
    code, added = child(CALL, stdlib, "solve", "knapsack", str(tmp_path / "k.json"))
    assert code == 0
    assert {m for m in added if not m.startswith("_")} == {
        "combinlab", "combinlab.cli", "combinlab.dp", "combinlab.intmath"}
