"""np-desk: thousands of desk-scale NP instances.

Each reduction job builds a seeded source instance, runs one of the 16
reductions, decides source and target with brute_force_decide, and
transports witnesses both ways.  Each approximation job runs a
heuristic and the lab's brute-force optimum.  Tiny SCC and 2-SAT jobs
exercise graph_core at the opposite size to graph-dp.  Every instance
stays inside the default oracle caps.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from combinlab import approx as ax
from combinlab import complexity as cx
from combinlab import graph_core as gc

import refs
from jobs import LEVELS, Job, rng_for, size_at
from refs import expect

RSS = "self"
PROBE = "loop"

REDUCTIONS = ("sat-3sat", "sat-clique", "3sat-coloring", "exactcover-knapsack",
              "vc-hamcircuit", "clique-is", "is-vc", "coloring-exactcover",
              "exactcover-representatives", "knapsack-partition", "vc-setcover",
              "hamcircuit-hamcycle", "hamcycle-tsp", "knapsack-ilp", "setcover-ilp",
              "tsp-ilp")
APPROX = ("tsp-christofides", "tsp-doubletree", "vertex-cover", "knapsack-fptas",
          "max-cut", "set-cover", "bin-packing")
ROUND = REDUCTIONS + APPROX + ("scc", "twosat")
DISTINCT = 2 * len(ROUND) * LEVELS  # two contents per size


def make_job(seed: int, index: int, ctx) -> Job:
    """Instance sizes, whose cost grows exponentially under brute force,
    follow the seed-independent schedule; the seed picks the contents."""
    rnd, slot = divmod(index, len(ROUND))
    kind = ROUND[slot]
    rng = rng_for(seed, index)

    def size(lo, hi):
        return size_at(lo, hi, rnd, slot)

    if kind in REDUCTIONS:
        return _reduction_job(kind, rng, size)
    return _OTHER[kind](kind, rng, size)


# --- seeded source instances ---------------------------------------------------------


def _clauses(rng, nv, nc, wmin, wmax):
    out = []
    for _ in range(nc):
        vs = rng.sample(range(1, nv + 1), rng.randint(wmin, min(wmax, nv)))
        out.append(tuple(v * rng.choice((1, -1)) for v in vs))
    return out


def _edges(rng, n, p, cap=None):
    edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
    if not edges:
        edges = [(1, 2)]
    return edges[:cap] if cap else edges


def _set_system(rng, u, m):
    universe = tuple(range(1, u + 1))
    family = [frozenset(rng.sample(universe, rng.randint(1, u))) for _ in range(m)]
    missing = set(universe) - set().union(*family)
    if missing:
        family.append(frozenset(missing))
    return universe, tuple(family)


def _source(kind, rng, size):
    """(recipe, build): `recipe` describes the instance; build(tr) makes it,
    constructing graphs through graph_core."""
    if kind in ("sat-3sat", "sat-clique", "3sat-coloring"):
        if kind == "sat-3sat":
            nv, clauses = 4, _clauses(rng, 4, size(2, 4), 1, 4)
        elif kind == "sat-clique":
            nv = size(3, 5)
            clauses = _clauses(rng, nv, size(2, 4), 1, 3)
        else:
            nv = size(3, 4)
            clauses = _clauses(rng, nv, size(1, 3), 3, 3)
        problem = cx.Sat if kind != "3sat-coloring" else cx.ThreeSat
        return (nv, clauses), lambda tr: problem(cx.cnf(nv, clauses))
    if kind in ("exactcover-knapsack", "exactcover-representatives"):
        universe, family = _set_system(rng, size(3, 5), size(3, 6))
        return (universe, family), lambda tr: cx.ExactCover(universe, family)
    if kind == "setcover-ilp":
        universe, family = _set_system(rng, size(3, 5), size(3, 6))
        k = rng.randint(1, len(family))
        return (universe, family, k), lambda tr: cx.SetCover(universe, family, k)
    if kind == "vc-hamcircuit":
        n = size(3, 5)
        edges = rng.sample(list(itertools.combinations(range(1, n + 1), 2)), size(1, 3))
        k = rng.randint(1, 3)
        build = _graph(n, edges)
        return (n, edges, k), lambda tr: cx.VertexCover(build(tr), k)
    if kind in ("clique-is", "is-vc"):
        n = size(5, 9)
        edges, k = _edges(rng, n, 0.5), rng.randint(2, 4)
        problem = cx.Clique if kind == "clique-is" else cx.IndependentSet
        build = _graph(n, edges)
        return (n, edges, k), lambda tr: problem(build(tr), k)
    if kind == "coloring-exactcover":
        n = size(3, 4)
        edges, k = _edges(rng, n, 0.5), rng.randint(1, 3)
        build = _graph(n, edges)
        return (n, edges, k), lambda tr: cx.Coloring(build(tr), k)
    if kind == "vc-setcover":
        n = size(4, 8)
        edges, k = _edges(rng, n, 0.4, cap=16), rng.randint(1, n)
        build = _graph(n, edges)
        return (n, edges, k), lambda tr: cx.VertexCover(build(tr), k)
    if kind in ("knapsack-partition", "knapsack-ilp"):
        numbers = tuple(rng.randint(1, 20) for _ in range(size(3, 6)))
        target = rng.randint(0, sum(numbers))
        return (numbers, target), lambda tr: cx.Knapsack01(numbers, target)
    if kind == "hamcircuit-hamcycle":
        n = size(3, 5)
        arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                if u != v and rng.random() < 0.5]
        return (n, arcs), lambda tr: cx.HamCircuit(tr.call("graph_core.build", gc.Digraph, n, arcs))
    if kind == "hamcycle-tsp":
        n = size(4, 8)
        edges = _edges(rng, n, 0.5)
        build = _graph(n, edges)
        return (n, edges), lambda tr: cx.HamCycle(build(tr))
    if kind == "tsp-ilp":
        n = size(3, 4)
        matrix = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            matrix[i][j] = matrix[j][i] = rng.randint(1, 9)
        limit = rng.randint(2 * n, 6 * n)
        rows = tuple(tuple(r) for r in matrix)
        return (rows, limit), lambda tr: cx.Tsp(rows, limit)
    raise ValueError(kind)


_REDUCE = {
    "sat-3sat": lambda p: cx.sat_to_3sat(p.formula),
    "sat-clique": lambda p: cx.sat_to_clique(p.formula),
    "3sat-coloring": lambda p: cx.threesat_to_coloring(p.formula),
    "exactcover-knapsack": cx.exact_cover_to_knapsack01,
    "vc-hamcircuit": cx.vc_to_ham_circuit,
}
_SIMPLE = {
    "clique-is": "CliqueToIS",
    "is-vc": "ISToVC",
    "coloring-exactcover": "ColoringToExactCover",
    "exactcover-representatives": "ExactCoverToRepresentatives",
    "knapsack-partition": "Knapsack01ToPartition",
    "vc-setcover": "VCToSetCover",
    "hamcircuit-hamcycle": "HamCircuitToHamCycle",
    "hamcycle-tsp": "HamCycleToTsp",
    "knapsack-ilp": "Knapsack01ToIlp",
    "setcover-ilp": "SetCoverToIlp",
    "tsp-ilp": "TspToIlp",
}


def _reducer(kind):
    if kind in _REDUCE:
        return _REDUCE[kind]
    name = _SIMPLE[kind]
    return lambda p: cx.apply_simple_reduction(name, p)


def instance_size(p) -> int:
    """Benchmark-side size of a problem instance: variables plus literal
    occurrences, vertices plus edges, elements plus memberships, numbers,
    matrix cells, or ILP coefficients."""
    if hasattr(p, "formula"):
        return p.formula.num_vars + sum(len(c) for c in p.formula.clauses)
    if hasattr(p, "graph"):
        return p.graph.n + len(p.graph.edges)
    if hasattr(p, "digraph"):
        return p.digraph.n + len(p.digraph.arcs)
    if hasattr(p, "family"):
        return len(p.universe) + sum(len(s) for s in p.family)
    if hasattr(p, "numbers"):
        return len(p.numbers)
    if hasattr(p, "matrix"):
        return len(p.matrix) ** 2
    return len(p.rows) * len(p.bounds)


def _plain(w):
    if isinstance(w, (set, frozenset)):
        return sorted(w)
    if isinstance(w, dict):
        return sorted(w.items())
    return w


def _reduction_job(kind, rng, size):
    recipe, build = _source(kind, rng, size)
    reduce = _reducer(kind)

    def run(tr):
        red = tr.call("complexity.reduce", reduce, build(tr))
        src_w = tr.call("complexity.decide", cx.brute_force_decide, red.source)
        tgt_w = tr.call("complexity.decide", cx.brute_force_decide, red.target)
        moved = back = None
        if src_w is not None:
            moved = tr.call("complexity.transport", red.forward, src_w)
            fwd_ok = tr.call("complexity.verify", cx.verify_witness, red.target, moved)
        if tgt_w is not None:
            back = tr.call("complexity.transport", red.backward, tgt_w)
            back_ok = tr.call("complexity.verify", cx.verify_witness, red.source, back)
        return {
            "view": [_plain(src_w), _plain(tgt_w), _plain(moved), _plain(back)],
            "decide_calls": 2,
            "target_size": instance_size(red.target),
            "accepted": (src_w is None or fwd_ok, tgt_w is None or back_ok),
        }

    def check(o):
        src_w, tgt_w, _moved, back = o["view"]
        expect((src_w is None) == (tgt_w is None), f"{kind}: source and target decisions differ")
        expect(all(o["accepted"]), f"{kind}: a transported witness was rejected")
        if kind.startswith(("sat", "3sat")):  # judge SAT sources by the benchmark's evaluator
            nv, clauses = recipe
            if src_w is None:
                expect(not refs.cnf_brute_sat(nv, clauses), f"{kind}: satisfiable source missed")
            else:
                expect(refs.cnf_satisfied(clauses, src_w) and refs.cnf_satisfied(clauses, back),
                       f"{kind}: witness falsifies a clause")

    return Job(kind, repr(recipe), run, check)


# --- approximation jobs ---------------------------------------------------------------


def _approx_job(kind, recipe, build, heuristic, optimum, value_of, feasible, bound, maximize):
    """build(tr) makes the instance x inside the job; heuristic(x) and
    optimum(x) run under approx spans; value_of(result) is the heuristic's
    objective and feasible(result) checks the solution itself."""
    def run(tr):
        x = build(tr)
        result = tr.call("approx.heuristic", heuristic, x)
        opt = tr.call("approx.optimum", optimum, x)
        value = value_of(result)
        return {"view": [_plain(result), opt], "result": result, "value": value, "opt": opt,
                "ratio": refs.ratio(value, opt, maximize)}

    def check(o):
        feasible(o["result"])
        worse, better = (o["opt"], o["value"]) if maximize else (o["value"], o["opt"])
        expect(better <= worse, f"{kind}: heuristic beats the optimum")
        expect(o["ratio"] <= bound, f"{kind}: ratio {o['ratio']} above its bound {bound}")

    return Job(kind, repr(recipe), run, check)


def _graph(n, edges):
    return lambda tr: tr.call("graph_core.build", gc.Graph, n, edges)


def _given(x):
    return lambda tr: x


def _tsp(kind, rng, size):
    matrix = _metric_matrix(rng, 8)
    fn, bound = ((ax.tsp_christofides, Fraction(3, 2)) if kind == "tsp-christofides"
                 else (ax.tsp_double_tree, 2))

    def feasible(tour):
        expect(sorted(tour) == list(range(1, 9)), f"{kind}: tour is not a permutation")

    return _approx_job(
        kind, matrix, _given(matrix), lambda m: fn(ax.MetricTspInstance(m)), ax.tsp_optimum,
        lambda tour: sum(matrix[a - 1][b - 1] for a, b in zip(tour, tour[1:] + tour[:1])),
        feasible, bound, False)


def _metric_matrix(rng, n):
    pts = rng.sample([(x, y) for x in range(51) for y in range(51)], n)
    return [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts] for a in pts]


def _vertex_cover(kind, rng, size):
    n = size(10, 14)
    edges = _edges(rng, n, 0.3)

    def feasible(cover):
        expect(all(u in cover or v in cover for u, v in edges), "vertex cover misses an edge")

    return _approx_job(kind, (n, edges), _graph(n, edges), ax.vc_matching_2approx,
                       ax.vertex_cover_optimum, len, feasible, 2, False)


def _fptas(kind, rng, size):
    n = size(10, 14)
    values = [rng.randint(1, 300) for _ in range(n)]
    volumes = [rng.randint(1, 50) for _ in range(n)]
    cap = sum(volumes) // 2
    eps = Fraction(1, 2)

    def feasible(result):
        chosen, value = result
        expect(sum(volumes[i - 1] for i in chosen) <= cap, "fptas over capacity")
        expect(sum(values[i - 1] for i in chosen) == value, "fptas value")

    return _approx_job(kind, (values, volumes, cap), _given((values, volumes, cap)),
                       lambda x: ax.knapsack_fptas(*x, eps), lambda x: ax.knapsack_optimum(*x),
                       lambda result: result[1], feasible, 1 + eps, True)


def _max_cut(kind, rng, size):
    n = size(8, 12)
    edges = _edges(rng, n, 0.5)

    def feasible(result):
        side, cut = result
        expect(sum((u in side) != (v in side) for u, v in edges) == cut, "max-cut size")

    return _approx_job(kind, (n, edges), _graph(n, edges), ax.max_cut_local_search,
                       ax.max_cut_optimum, lambda result: result[1], feasible, 2, True)


def _set_cover(kind, rng, size):
    universe, family = _set_system(rng, size(8, 12), size(6, 10))
    bound = sum(Fraction(1, k) for k in range(1, max(len(s) for s in family) + 1))

    def feasible(chosen):
        expect(set().union(*(family[i - 1] for i in chosen)) == set(universe),
               "set cover misses an element")

    return _approx_job(kind, (universe, family), _given((universe, family)),
                       lambda x: ax.set_cover_greedy(*x), lambda x: ax.set_cover_optimum(*x),
                       len, feasible, bound, False)


def _bin_packing(kind, rng, size):
    sizes = [f"{rng.randint(1, 9)}/10" for _ in range(size(6, 10))]

    def feasible(assignment):
        load: dict[int, Fraction] = {}
        for s, b in zip(sizes, assignment):
            load[b] = load.get(b, 0) + Fraction(s)
        expect(len(assignment) == len(sizes) and max(load.values()) <= 1, "bin over capacity")

    return _approx_job(kind, sizes, _given(sizes), ax.bin_pack_first_fit, ax.bin_pack_optimum,
                       max, feasible, 2, False)


# --- tiny graph jobs ---------------------------------------------------------------


def _scc(kind, rng, size):
    n = size(5, 8)
    arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
            if u != v and rng.random() < 0.3]

    def run(tr):
        d = tr.call("graph_core.build", gc.Digraph, n, arcs)
        return {"view": tr.call("graph_core.scc", gc.scc_kosaraju, d)}

    def check(o):
        comps = o["view"]
        expect({frozenset(c) for c in comps} == refs.scc_partition(n, arcs), "scc partition")
        where = {v: i for i, c in enumerate(comps) for v in c}
        expect(all(where[u] <= where[v] for u, v in arcs), "scc not in condensation order")

    return Job(kind, repr((n, arcs)), run, check)


def _twosat(kind, rng, size):
    nv = size(3, 6)
    clauses = _clauses(rng, nv, size(2, 10), 1, 2)
    text = f"p cnf {nv} {len(clauses)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in clauses)

    def run(tr):
        f = tr.call("complexity.parse", cx.parse_dimacs, text)
        res = tr.call("complexity.twosat", cx.twosat_solve, f)
        return {"view": [res.satisfiable, res.assignment, res.conflict_var]}

    def check(o):
        sat, assignment, _ = o["view"]
        if sat:
            expect(refs.cnf_satisfied(clauses, assignment), "2-SAT assignment falsifies a clause")
        else:
            expect(not refs.cnf_brute_sat(nv, clauses), "2-SAT called a satisfiable formula UNSAT")

    return Job(kind, text, run, check)


_OTHER = {
    "tsp-christofides": _tsp,
    "tsp-doubletree": _tsp,
    "vertex-cover": _vertex_cover,
    "knapsack-fptas": _fptas,
    "max-cut": _max_cut,
    "set-cover": _set_cover,
    "bin-packing": _bin_packing,
    "scc": _scc,
    "twosat": _twosat,
}
