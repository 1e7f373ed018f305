"""Command-line front end.

Subcommands: solve, sort, select, reduce, verify, twosat, approx, bench,
gen.  Exit codes: 0 success, 1 negative decision (UNSAT / not Eulerian /
no cover / witness rejected), 2 input error, 3 size-limit error.

JSON output is deterministic: the same seed and flags produce
byte-identical bytes.  Instance file dialects are documented in the
README (graphs in the shared text format, CNF in DIMACS, set systems and
ILP in JSON, TSP matrices as whitespace grids).

Each command imports the modules it runs when it runs, and no table here
refers into another module, so a call pays the import of its own layers
only: `sort` never loads the NP layer.
"""

from __future__ import annotations

import argparse
import json
import sys

from .intmath import InstanceTooLargeError, _json_value, ceil_log2, ceil_log3, harmonic, parse_numbers

OK, NEGATIVE, INPUT_ERROR, TOO_LARGE = 0, 1, 2, 3


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def _emit(payload, fmt: str) -> None:
    if isinstance(payload, str):
        print(payload, end="")
    elif fmt == "json":
        print(json.dumps(payload, sort_keys=True, default=_json_default))
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")


def _json_default(x):
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    from fractions import Fraction  # loaded already wherever a Fraction was made

    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise TypeError(f"cannot encode {type(x)!r}")


# --- solve ------------------------------------------------------------------

_ANY_GRAPH = (("Graph", "Digraph"), None)
_UNDIRECTED = (("Graph",), "an undirected graph")
_WEIGHTED_DIGRAPH = (("WeightedDigraph",), "a weighted digraph")
_WEIGHTED_GRAPH = (("WeightedGraph",), "a weighted undirected graph")

# solve name -> (public names of the graph classes the problem accepts, how
# its error names them); (None, None) for the problems that read a file of
# their own.  The names resolve through the package, which imports
# paths_mst for the weighted classes only.
_SOLVE_INPUT = {
    "euler": _UNDIRECTED,
    "components": _UNDIRECTED,
    "bfs": _ANY_GRAPH,
    "dfs": _ANY_GRAPH,
    "scc": (("Digraph",), "a directed graph (pd header)"),
    "closure": (("Digraph",), "a directed graph"),
    "dijkstra": _WEIGHTED_DIGRAPH,
    "floyd": _WEIGHTED_DIGRAPH,
    "shortest": _WEIGHTED_GRAPH,
    "prim": _WEIGHTED_GRAPH,
    "kruskal": _WEIGHTED_GRAPH,
    "maxst": _WEIGHTED_GRAPH,
    "knapsack": (None, None),
    "allocate": (None, None),
    "chain": (None, None),
    "lcs": (None, None),
}

_SPANNING_TREES = {"prim": "prim", "kruskal": "kruskal", "maxst": "max_spanning_tree"}


def _graph_for(name, text, needs):
    """The graph in `text`, refused with `<name> needs <description>`
    unless it is of a class that `needs` names, a (public class names,
    description) pair as in `_SOLVE_INPUT`."""
    from .graph_core import parse_graph_text

    g = parse_graph_text(text)
    names, description = needs
    package = sys.modules[__package__]
    if not isinstance(g, tuple(getattr(package, cls) for cls in names)):
        raise ValueError(f"{name} needs {description}")
    return g


def cmd_solve(args):
    problem = args.problem
    if problem not in _SOLVE_INPUT:
        raise ValueError(f"unknown solve problem {problem!r}")
    needs = _SOLVE_INPUT[problem]
    text = _read(args.file)
    if needs[0] is None:
        return _solve_dp(problem, text)
    from . import graph_core as gc

    g = _graph_for(problem, text, needs)
    if problem == "euler":
        try:
            walk = gc.euler_cycle(g)
        except gc.NotEulerianError as exc:
            return {"eulerian": False, "reason": exc.reason, "vertex": exc.vertex}, NEGATIVE
        return {"eulerian": True, "cycle": walk, "edges": len(g.edges)}, OK
    if problem in ("components", "scc"):
        comps = gc.connected_components(g) if problem == "components" else gc.scc_kosaraju(g)
        return {"count": len(comps), "components": comps}, OK
    if problem == "bfs":
        forest = gc.bfs_forest(g)
        trees = [{"root": r, "edges": e} for r, e in forest.trees]
        return {"order": forest.order, "trees": trees}, OK
    if problem == "dfs":
        rec = gc.dfs(g)
        return {"discovery": rec.discovery, "finish": rec.finish, "roots": rec.roots}, OK
    return _solve_paths_mst(problem, g, args)


def _solve_paths_mst(problem, g, args):
    from . import paths_mst as pm

    target = args.target
    unreachable = {"reachable": False, "target": target}, NEGATIVE  # dijkstra, shortest
    if problem == "dijkstra":
        res = pm.dijkstra(g, args.source, target=target)
        out = {"source": args.source, "dist": {str(v): d for v, d in res.dist.items()}}
        if target is not None:
            if res.dist[target] == pm.INF:
                return unreachable
            out["path"] = res.path_to(target)
        return out, OK
    if problem == "floyd":
        t = pm.floyd_warshall(g)
        return {
            "dist": [row[1:] for row in t.dist[1:]],
            "successor": [row[1:] for row in t.succ[1:]],
            "negative_cycle_vertices": sorted(t.negative_cycle_vertices),
        }, OK
    if problem == "closure":
        return {"closure": [row[1:] for row in pm.transitive_closure(g)[1:]]}, OK
    if problem == "shortest":
        if target is None:
            raise ValueError("shortest needs --target")
        dist, path = pm.undirected_shortest_path(g, args.source, target)
        return unreachable if path is None else ({"distance": dist, "path": path}, OK)
    try:  # a spanning tree
        res = getattr(pm, _SPANNING_TREES[problem])(g)
    except ValueError as exc:
        return {"connected": False, "error": str(exc)}, NEGATIVE
    return {"edges": res.edges, "weight": res.total_weight}, OK


def _solve_dp(problem, text):
    from . import dp

    if problem == "knapsack":
        chosen, value = dp.knapsack_pareto(*dp.load_knapsack_json(text))
        return {"items": sorted(chosen), "value": value}, OK
    if problem == "allocate":
        value, plan = dp.allocate(dp.load_allocation_json(text))
        return {"value": value, "plan": plan}, OK
    if problem == "chain":
        cost, expr, _ = dp.matrix_chain(parse_numbers(text))
        return {"cost": cost, "parenthesization": expr}, OK
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]  # lcs
    if len(lines) < 2:
        raise ValueError("lcs input needs two lines")
    length, seq, _ = dp.lcs(lines[0], lines[1])
    return {"length": length, "subsequence": "".join(seq)}, OK


# --- sort / select -------------------------------------------------------------


# sort algorithm -> (sorting function, field of its SortBudget)
_SORTERS = {
    "insertion": ("insertion_sort", "a_n"),
    "merge": ("merge_sort_grouped", "b_n"),
    "mergeinsertion": ("merge_insertion_sort", "f_n"),
}


def _distinct_keys(path: str, command: str) -> list[int]:
    items = parse_numbers(_read(path))
    if len(items) != len(set(items)):
        raise ValueError(f"{command} input keys must be pairwise distinct")
    return items


def cmd_sort(args):
    from . import sorting as srt
    from .oracles import counting_comparator

    items = _distinct_keys(args.file, "sort")
    if args.count and len(items) > srt.BUDGET_CAP:
        raise ValueError(f"--count takes at most {srt.BUDGET_CAP} keys, got {len(items)}")
    sorter, budget = _SORTERS[args.algorithm]
    cmp = counting_comparator(items)
    payload = {"sorted": getattr(srt, sorter)(items, cmp)}
    if args.count:
        payload["comparisons"] = cmp.count
        if items:
            payload["budget"] = getattr(srt.sort_budgets(len(items)), budget)
    return payload, OK


def cmd_select(args):
    from . import tournament as trn
    from .oracles import counting_comparator

    items = _distinct_keys(args.file, "select")
    cmp = counting_comparator(items)
    fn = trn.select_t_linear if args.algorithm == "linear" else trn.select_t_tournament
    idx = fn(items, args.t, cmp)
    payload = {"t": args.t, "index": idx + 1, "value": items[idx]}
    if args.count:
        payload["comparisons"] = cmp.count
    return payload, OK


# --- reduce / verify ------------------------------------------------------------


class _ReductionKinds:
    """The choices of `reduce`: the names in complexity.REDUCTIONS, sorted,
    read when argparse first checks or lists them, so that no other command
    imports complexity."""

    def __contains__(self, kind):
        from .complexity import REDUCTIONS

        return kind in REDUCTIONS

    def __iter__(self):
        from .complexity import REDUCTIONS

        return iter(sorted(REDUCTIONS))


def cmd_reduce(args):
    from . import complexity as cx

    _, source, run = cx.REDUCTIONS[args.kind]
    red = run(source.load(_read(args.file), args.k, args.limit))
    payload = {"kind": args.kind, "target": red.target.describe()}

    def record(w, move, judge, keys):  # w, move(w) and judge's verdict on move(w)
        moved = move(w)
        values = (_encode_witness(w), _encode_witness(moved), cx.verify_witness(judge, moved))
        return dict(zip(keys, values))

    if args.witness:
        w = red.source.witness(_json_value(_read(args.witness)))
        cx.verify_witness(red.source, w)  # a malformed witness raises here
        payload["witness"] = record(w, red.forward, red.target, ("source", "target", "target_accepts"))
    if args.oracle:
        src_w = cx.brute_force_decide(red.source)
        tgt_w = cx.brute_force_decide(red.target)
        table = {
            "source_decision": src_w is not None,
            "target_decision": tgt_w is not None,
        }
        if src_w is not None:
            table["forward"] = record(src_w, red.forward, red.target,
                                      ("source_witness", "target_witness", "target_accepts"))
        if tgt_w is not None:
            table["backward"] = record(tgt_w, red.backward, red.source,
                                       ("target_witness", "source_witness", "source_accepts"))
        payload["oracle"] = table
    return payload, OK


def _encode_witness(w):
    if isinstance(w, (set, frozenset)):
        return sorted(w)
    if isinstance(w, dict):
        return {str(k): v for k, v in w.items()}
    return w


def cmd_verify(args):
    from . import complexity as cx

    if args.problem not in cx.PROBLEMS:
        raise ValueError(f"unknown problem kind {args.problem!r}")
    problem = cx.PROBLEMS[args.problem].load(_read(args.instance), args.k, args.limit)
    w = _json_value(_read(args.witness))
    try:
        accepted = cx.verify_witness(problem, problem.witness(w))
    except cx.WitnessFormatError as exc:
        raise ValueError(f"malformed witness: {exc}") from exc
    return {"accepted": accepted}, OK if accepted else NEGATIVE


def cmd_twosat(args):
    from . import complexity as cx

    res = cx.twosat_solve(cx.parse_dimacs(_read(args.file)))
    if res.satisfiable:
        return {"satisfiable": True, "assignment": [int(b) for b in res.assignment]}, OK
    return {"satisfiable": False, "conflict_variable": res.conflict_var}, NEGATIVE


# --- approx -----------------------------------------------------------------


def _vertex_cover(name, heuristic, bound):
    def solve(ax, text, eps):
        g = _graph_for(name, text, _UNDIRECTED)
        cover = getattr(ax, heuristic)(g)
        return (g.n, len(cover), lambda: ax.vertex_cover_optimum(g), bound,
                {"edges": sorted(g.edges)}, {"cover": sorted(cover)})

    return solve


def _set_cover(ax, text, eps):
    from .intmath import parse_set_system

    universe, family, _ = parse_set_system(text)
    chosen = ax.set_cover_greedy(universe, family)
    biggest = max((len(s) for s in family), default=0)
    return (len(universe), len(chosen), lambda: ax.set_cover_optimum(universe, family),
            harmonic(max(1, biggest)), {"family": [sorted(map(str, s)) for s in family]},
            {"chosen": chosen})


def _tsp(heuristic, bound):
    """bound: an int, or a "p/q" string read as a Fraction when the call runs."""
    def solve(ax, text, eps):
        from fractions import Fraction

        from .graph_core import parse_matrix

        inst = ax.MetricTspInstance(parse_matrix(text))
        tour = getattr(ax, heuristic)(inst)
        ratio = Fraction(bound) if isinstance(bound, str) else bound
        return (inst.n, inst.tour_length(tour), lambda: ax.tsp_optimum(inst.matrix), ratio,
                {"matrix": [list(r) for r in inst.matrix]}, {"tour": tour})

    return solve


def _max_cut(ax, text, eps):
    g = _graph_for("maxcut", text, _UNDIRECTED)
    side, cut = ax.max_cut_local_search(g)
    return (g.n, cut, lambda: ax.max_cut_optimum(g), 2,
            {"edges": sorted(g.edges)}, {"cut_side": sorted(side)})


def _knapsack_fptas(ax, text, eps):
    from .dp import load_knapsack_json
    from .graph_core import exact_fraction

    values, volumes, cap = load_knapsack_json(text)
    eps = exact_fraction(eps, "eps")  # only this algorithm reads --eps
    chosen, value = ax.knapsack_fptas(values, volumes, cap, eps)
    return (len(values), value, lambda: ax.knapsack_optimum(values, volumes, cap), 1 + eps,
            {"values": values, "volumes": volumes, "capacity": cap},
            {"items": sorted(chosen), "eps": str(eps)})


def _bin_pack(ax, text, eps):
    sizes = text.split()
    assignment = ax.bin_pack_first_fit(sizes)
    return (len(sizes), max(assignment, default=0), lambda: ax.bin_pack_optimum(sizes), 2,
            {"sizes": sizes}, {"assignment": assignment})


# CLI name -> (report name, maximize, solve).  solve(ax, text, eps) gets
# the approx module and returns the instance size, the heuristic's value, a
# thunk for the optimum, the ratio bound, the instance for the digest, and
# the output keys of this algorithm.  Heuristics are named by their
# function in approx.
_APPROX = {
    "vc-matching": ("vc_matching", False, _vertex_cover("vc-matching", "vc_matching_2approx", 2)),
    "vc-greedy": ("vc_greedy", False, _vertex_cover("vc-greedy", "vc_degree_greedy", None)),
    "setcover": ("set_cover_greedy", False, _set_cover),
    "tsp-doubletree": ("tsp_doubletree", False, _tsp("tsp_double_tree", 2)),
    "tsp-christofides": ("tsp_christofides", False, _tsp("tsp_christofides", "3/2")),
    "maxcut": ("max_cut_local_search", True, _max_cut),
    "knapsack-fptas": ("knapsack_fptas", True, _knapsack_fptas),
    "binpack": ("bin_pack_first_fit", False, _bin_pack),
}


def cmd_approx(args):
    from . import approx as ax

    name, maximize, solve = _APPROX[args.algorithm]
    n, value, optimum, bound, instance, extra = solve(ax, _read(args.file), args.eps)
    opt = optimum() if args.oracle else None
    report = ax.make_report(name, n, value, opt, bound, instance, maximize=maximize)
    return {**report, **extra}, OK


# --- bench -------------------------------------------------------------------


def _bench_sorting(args):
    import random

    from . import sorting as srt
    from .oracles import counting_comparator

    rng = random.Random(args.seed)
    rows = []
    for n in range(1, args.n_max + 1):
        budgets = srt.sort_budgets(n)
        measured = 0
        for _ in range(args.trials):
            items = list(range(n))
            rng.shuffle(items)
            cmp = counting_comparator(items)
            srt.merge_insertion_sort(items, cmp)
            measured = max(measured, cmp.count)
        rows.append(
            {
                "n": n,
                "info_lower": budgets.info_lower,
                "bound": budgets.f_n,
                "measured": measured,
                "within_bound": measured <= budgets.f_n,
            }
        )
    return {"suite": "sorting", "seed": args.seed, "rows": rows}


def _bench_selection(args):
    import random

    from .oracles import counting_comparator
    from .tournament import select_t_tournament

    rng = random.Random(args.seed)
    rows = []
    for n in range(2, args.n_max + 1, max(1, args.n_max // 16)):
        t = max(1, n // 2)
        bound = n - t + (t - 1) * ceil_log2(n + 2 - t)
        measured = 0
        for _ in range(args.trials):
            items = rng.sample(range(10 * n), n)
            cmp = counting_comparator(items)
            select_t_tournament(items, t, cmp)
            measured = max(measured, cmp.count)
        rows.append(
            {"n": n, "t": t, "bound": bound, "measured": measured,
             "within_bound": measured <= bound}
        )
    return {"suite": "selection", "seed": args.seed, "rows": rows}


def _bench_search(args):
    from . import search_games as sg

    rows = []
    for n in range(1, args.n_max + 1):
        ball_bound = ceil_log2(n)
        worst_ball = 0
        for hot in range(1, n + 1):
            calls = 0

            def tester(subset, hot=hot):
                nonlocal calls
                calls += 1
                return hot in subset

            assert sg.find_radioactive(n, tester) == hot
            worst_ball = max(worst_ball, calls)
        coin_bound = ceil_log3(2 * n + 1)
        worst_coin = 0
        for world in _coin_worlds(n):
            oracle = sg.BalanceOracle(n, world)
            assert sg.find_counterfeit(n, oracle.weigh) == world
            worst_coin = max(worst_coin, oracle.count)
        rows.append(
            {
                "n": n,
                "ball_bound": ball_bound,
                "ball_measured": worst_ball,
                "coin_bound": coin_bound,
                "coin_measured": worst_coin,
                "within_bound": worst_ball <= ball_bound and worst_coin <= coin_bound,
            }
        )
    return {"suite": "search", "seed": args.seed, "rows": rows}


def _coin_worlds(n):
    from . import search_games as sg

    yield sg.ALL_GENUINE
    for i in range(1, n + 1):
        yield sg.CoinVerdict(i, sg.HEAVIER)
        yield sg.CoinVerdict(i, sg.LIGHTER)


def _bench_approx(args):
    from fractions import Fraction

    from . import approx as ax

    rows = []
    for trial in range(args.trials):
        seed = args.seed * 1000 + trial
        n = 5 + (trial % 4)
        inst = ax.random_metric_instance(n, seed)
        opt = ax.tsp_optimum(inst.matrix)
        for name, fn, bound in (
            ("tsp_double_tree", ax.tsp_double_tree, 2),
            ("tsp_christofides", ax.tsp_christofides, Fraction(3, 2)),
        ):
            length = inst.tour_length(fn(inst))
            rows.append(ax.make_report(
                name, n, length, opt, bound,
                {"matrix": [list(r) for r in inst.matrix]}, seed=seed,
            ))
    rows.sort(key=lambda r: (r["algorithm"], r["seed"], r["n"]))
    return {"suite": "approx", "seed": args.seed, "rows": rows}


_BENCHES = {
    "sorting": _bench_sorting,
    "selection": _bench_selection,
    "search": _bench_search,
    "approx": _bench_approx,
}


def cmd_bench(args):
    payload = _BENCHES[args.suite](args)
    rows = payload["rows"]
    code = NEGATIVE if any(r.get("within_bound") is False for r in rows) else OK
    if args.format == "text":  # a header of column names, then one line per row
        lines = [sorted(rows[0])] if rows else []
        lines += [[str(row[c]) for c in lines[0]] for row in rows]
        payload = "".join("\t".join(line) + "\n" for line in lines)
    return payload, code


# --- gen ---------------------------------------------------------------------


def _random_edges(rng, n, density, directed=False):
    """Each pair u < v (each ordered pair u != v if directed), kept with
    probability `density`."""
    return [
        (u, v)
        for u in range(1, n + 1)
        for v in range(1 if directed else u + 1, n + 1)
        if u != v and rng.random() < density
    ]


def _matrix_text(matrix) -> str:
    return "".join(" ".join(str(x) for x in row) + "\n" for row in matrix)


def cmd_gen(args):
    import random

    rng = random.Random(args.seed)
    fam, n = args.family, args.n
    if fam == "numbers":
        return " ".join(str(x) for x in rng.sample(range(10 * n), n)) + "\n", OK
    if fam == "knapsack":
        from .dp import dump_knapsack_json

        values = [rng.randint(1, 300) for _ in range(n)]
        volumes = [rng.randint(1, 50) for _ in range(n)]
        return dump_knapsack_json(values, volumes, max(1, sum(volumes) // 2)) + "\n", OK
    from . import graph_core as gc

    if fam == "graph":
        return gc.format_graph_text(gc.Graph(n, _random_edges(rng, n, args.density))), OK
    if fam == "digraph":
        return gc.format_graph_text(gc.Digraph(n, _random_edges(rng, n, args.density, True))), OK
    from . import approx as ax

    if fam == "metric":
        return _matrix_text(ax.random_metric_instance(n, args.seed).matrix), OK
    if fam == "gap":
        g = gc.Graph(n, _random_edges(rng, n, args.density))
        return _matrix_text(ax.tsp_gap_instance(g, args.eps)), OK
    # "counterexample", the last of the parser's choices
    return gc.format_graph_text(ax.vc_greedy_counterexample(n)), OK


# --- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combinlab",
        description="Combinatorial algorithms laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("solve", help="run a graph/DP/search solver on a file")
    p.add_argument("problem")
    p.add_argument("file")
    p.add_argument("--source", type=int, default=1)
    p.add_argument("--target", type=int, default=None)
    add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sort", help="sort a number file with a counted algorithm")
    p.add_argument("algorithm", choices=sorted(_SORTERS))
    p.add_argument("file")
    p.add_argument("--count", action="store_true")
    add_common(p)
    p.set_defaults(fn=cmd_sort)

    p = sub.add_parser("select", help="select the t-th largest")
    p.add_argument("file")
    p.add_argument("--t", type=int, required=True)
    p.add_argument(
        "--algorithm", choices=("tournament", "linear"), default="tournament"
    )
    p.add_argument("--count", action="store_true")
    add_common(p)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("reduce", help="compile an instance into another problem")
    # set after add_argument, which would read the choices at once to check
    # the metavar
    p.add_argument("kind").choices = _ReductionKinds()
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--witness", default=None, help="JSON witness to transport")
    p.add_argument("--oracle", action="store_true")
    add_common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("verify", help="check a witness against an instance")
    p.add_argument("problem")
    p.add_argument("instance")
    p.add_argument("witness")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("twosat", help="solve a DIMACS 2-CNF file")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(fn=cmd_twosat)

    p = sub.add_parser("approx", help="run an approximation algorithm")
    p.add_argument("algorithm", choices=tuple(_APPROX))
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--eps", default="1/2")
    add_common(p)
    p.set_defaults(fn=cmd_approx)

    p = sub.add_parser("bench", help="run a bound-vs-measured suite")
    p.add_argument("suite", choices=sorted(_BENCHES))
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument(
        "family",
        choices=(
            "graph",
            "digraph",
            "metric",
            "gap",
            "knapsack",
            "numbers",
            "counterexample",
        ),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--eps", default="1")
    add_common(p)
    p.set_defaults(fn=cmd_gen)

    return parser


def main(argv=None) -> int:
    """Run one command: the only place that writes its result to stdout
    and maps its errors to exit codes, with one `error:` line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.fn(args)
        _emit(payload, args.format)
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return TOO_LARGE
    except (ValueError, KeyError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
