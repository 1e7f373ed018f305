"""cli-calls: the combinlab command as a subprocess on small files.

One call at a time (a closed loop with one client).  Interpreter start,
import, argparse, the loaders and the JSON emit dominate; the in-process
workloads pay these once, so without this workload the cli layer and the
import would go unmeasured.  Every call's exit code must be the expected
0 or 1, and its JSON output is checked against the benchmark's
references.  Traced runs also time cli.main in-process on the same argv.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from combinlab import cli

import refs
from jobs import Job, rng_for
from refs import expect

RSS = "children"
PROBE = "start"  # jobs are whole processes; see cpu.py

ROUND = ("euler", "euler-odd", "scc", "dijkstra", "kruskal", "knapsack", "sort-insertion",
         "sort-merge", "sort-mergeinsertion", "select-linear", "select-tournament", "reduce",
         "verify-accept", "verify-reject", "twosat-sat", "twosat-unsat", "approx-tsp",
         "approx-vc", "bench", "gen")
DISTINCT = 40  # about 5 s per pass
REDUCE_KINDS = ("sat-clique", "sat-3sat", "clique-is", "knapsack-partition", "vc-setcover")


def make_job(seed: int, index: int, ctx) -> Job:
    rnd, slot = divmod(index, len(ROUND))
    kind = ROUND[slot]
    rng = rng_for(seed, index)
    files = {}  # path -> (name, text)

    def put(name, text):
        path = str(Path(ctx.workdir) / f"{index}-{name}")
        Path(path).write_text(text, encoding="utf-8")
        files[path] = (name, text)
        return path

    argv, expect_code, check = _CALLS[kind](kind, rng, rnd, seed, put)
    key = json.dumps([files.get(a, a) for a in argv])

    def run(tr):
        code, out = tr.call("cli.process", _call, argv)
        view = json.loads(out) if "--format" in argv else out
        return {"view": [code, view], "queries": _comparisons(view)}

    def checked(o):
        code, view = o["view"]
        expect(code == expect_code, f"{kind}: exit code {code}, expected {expect_code}")
        check(view)

    def aside(tracer, job_id):
        code = tracer.aside(job_id, "cli.main", _main_quietly, argv)
        expect(code == expect_code, f"{kind}: in-process exit code {code}, expected {expect_code}")

    return Job(kind, key, run, checked, aside)


def _call(argv):
    proc = subprocess.run([sys.executable, "-m", "combinlab.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def _main_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _comparisons(view):
    return view.get("comparisons", 0) if isinstance(view, dict) else 0


def _graph_text(n, links, directed=False, weights=None):
    tag = "a" if directed else "e"
    lines = [f"{'pd' if directed else 'p'} {n} {len(links)}"]
    lines += [f"{tag} {u} {v}" + (f" {weights[(u, v)]}" if weights else "") for u, v in links]
    return "\n".join(lines) + "\n"


def _random_edges(rng, n, p):
    edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
    return edges or [(1, 2)]


# Each maker returns (argv, expected exit code, check(view)).


def _euler(kind, rng, rnd, seed, put):
    n = rng.randint(10, 30)
    order = rng.sample(range(1, n + 1), n)
    edges = sorted({tuple(sorted((order[i - 1], order[i]))) for i in range(n)})
    if kind == "euler-odd":  # a Hamiltonian path: both ends have odd degree
        edges = sorted(tuple(sorted((order[i - 1], order[i]))) for i in range(1, n))
        return (["solve", "euler", put("g.txt", _graph_text(n, edges)), "--format", "json"], 1,
                lambda v: expect(v["eulerian"] is False and v["reason"] == "OddDegree",
                                 "odd graph called Eulerian"))
    return (["solve", "euler", put("g.txt", _graph_text(n, edges)), "--format", "json"], 0,
            lambda v: refs.check_euler_walk(edges, v["cycle"]))


def _scc(kind, rng, rnd, seed, put):
    n = rng.randint(10, 30)
    arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
            if u != v and rng.random() < 2 / n]
    if not arcs:
        arcs = [(1, 2)]

    def check(v):
        expect({frozenset(c) for c in v["components"]} == refs.scc_partition(n, arcs), "scc")

    return (["solve", "scc", put("d.txt", _graph_text(n, arcs, True)), "--format", "json"], 0,
            check)


def _dijkstra(kind, rng, rnd, seed, put):
    n = rng.randint(10, 30)
    arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
            if u != v and rng.random() < 3 / n] or [(1, 2)]
    w = {a: rng.randint(1, 50) for a in arcs}

    def check(v):
        got = {int(x): d for x, d in v["dist"].items() if d != float("inf")}
        expect(got == refs.dijkstra_dist(w, 1), "dijkstra distances")

    return (["solve", "dijkstra", put("w.txt", _graph_text(n, arcs, True, w)), "--source", "1",
             "--format", "json"], 0, check)


def _kruskal(kind, rng, rnd, seed, put):
    n = rng.randint(10, 30)
    order = rng.sample(range(1, n + 1), n)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    edges |= set(_random_edges(rng, n, 0.2))
    w = {e: rng.randint(1, 100) for e in sorted(edges)}

    def check(v):
        refs.check_spanning_tree(n, w, v["edges"], v["weight"])
        expect(v["weight"] == refs.mst_weight(n, w), "kruskal weight")

    return (["solve", "kruskal", put("w.txt", _graph_text(n, sorted(edges), False, w)),
             "--format", "json"], 0, check)


def _knapsack(kind, rng, rnd, seed, put):
    n = rng.randint(8, 15)
    values = [rng.randint(1, 300) for _ in range(n)]
    volumes = [rng.randint(1, 50) for _ in range(n)]
    cap = sum(volumes) // 2
    text = json.dumps({"values": values, "volumes": volumes, "capacity": cap})

    def check(v):
        expect(sum(volumes[i - 1] for i in v["items"]) <= cap, "knapsack over capacity")
        expect(v["value"] == sum(values[i - 1] for i in v["items"]), "knapsack value")
        expect(v["value"] == refs.knapsack_best(values, volumes, cap), "knapsack not optimal")

    return ["solve", "knapsack", put("k.json", text), "--format", "json"], 0, check


def _sort(kind, rng, rnd, seed, put):
    algorithm = kind.split("-")[1]
    n = rng.randint(50, 200)
    items = rng.sample(range(10 * n), n)
    budget = {"insertion": refs.a_of, "merge": refs.b_of, "mergeinsertion": refs.f_of}[algorithm]

    def check(v):
        expect(v["sorted"] == sorted(items), f"sort {algorithm} output not sorted")
        expect(v["comparisons"] <= budget(n) and v["budget"] == budget(n),
               f"sort {algorithm} budget")

    return (["sort", algorithm, put("nums.txt", " ".join(map(str, items))), "--count",
             "--format", "json"], 0, check)


def _select(kind, rng, rnd, seed, put):
    algorithm = kind.split("-")[1]
    n = rng.randint(50, 200)
    t = n // 2
    items = rng.sample(range(10 * n), n)

    def check(v):
        expect(v["value"] == sorted(items)[n - t] == items[v["index"] - 1], "select value")

    return (["select", put("nums.txt", " ".join(map(str, items))), "--t", str(t),
             "--algorithm", algorithm, "--count", "--format", "json"], 0, check)


def _reduce(kind, rng, rnd, seed, put):
    red = REDUCE_KINDS[rnd % len(REDUCE_KINDS)]
    extra = []
    if red.startswith("sat"):
        nv = rng.randint(3, 4)
        clauses = [[v * rng.choice((1, -1))
                    for v in rng.sample(range(1, nv + 1), rng.randint(1, 3))]
                   for _ in range(rng.randint(2, 4))]
        path = put("f.cnf", f"p cnf {nv} {len(clauses)}\n"
                   + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses))
    elif red == "knapsack-partition":
        numbers = [rng.randint(1, 20) for _ in range(rng.randint(3, 6))]
        path = put("k.json", json.dumps({"numbers": numbers,
                                         "target": rng.randint(0, sum(numbers))}))
    else:
        n = rng.randint(5, 8)
        path = put("g.txt", _graph_text(n, _random_edges(rng, n, 0.4)))
        extra = ["--k", str(rng.randint(2, 4))]

    def check(v):
        table = v["oracle"]
        expect(table["source_decision"] == table["target_decision"], f"{red}: decisions differ")
        if table["source_decision"]:
            expect(table["forward"]["target_accepts"] and table["backward"]["source_accepts"],
                   f"{red}: transported witness rejected")

    return ["reduce", red, path, *extra, "--oracle", "--format", "json"], 0, check


def _verify(kind, rng, rnd, seed, put):
    n = rng.randint(5, 10)
    edges = _random_edges(rng, n, 0.4)
    if kind == "verify-accept":
        witness, code = sorted({u for u, _ in edges}), 0
    else:
        witness, code = [], 1
    return (["verify", "vertex-cover", put("g.txt", _graph_text(n, edges)),
             put("w.json", json.dumps(witness)), "--k", str(n), "--format", "json"], code,
            lambda v: expect(v["accepted"] is (code == 0), "verify verdict"))


def _twosat(kind, rng, rnd, seed, put):
    nv = rng.randint(5, 30)
    if kind == "twosat-sat":  # clauses all satisfied by a planted assignment
        plant = [rng.random() < 0.5 for _ in range(nv)]
        clauses = []
        while len(clauses) < nv:
            a, b = (v * rng.choice((1, -1)) for v in rng.sample(range(1, nv + 1), 2))
            if refs.cnf_satisfied([(a, b)], plant):
                clauses.append((a, b))
        code = 0
    else:  # x1 and not x1, plus noise
        clauses = [(1, 1), (-1, -1)] + [
            tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, nv + 1), 2))
            for _ in range(nv)]
        code = 1
    text = f"p cnf {nv} {len(clauses)}\n" + "".join(f"{a} {b} 0\n" for a, b in clauses)

    def check(v):
        if code == 0:
            expect(refs.cnf_satisfied(clauses, v["assignment"]), "2-SAT assignment")
        else:
            expect(refs.twosat_conflict_holds(clauses, v["conflict_variable"]),
                   "2-SAT conflict not proven")

    return ["twosat", put("f.cnf", text), "--format", "json"], code, check


def _approx(kind, rng, rnd, seed, put):
    if kind == "approx-tsp":
        pts = rng.sample([(x, y) for x in range(51) for y in range(51)], 7)
        matrix = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts] for a in pts]
        path = put("m.txt", "\n".join(" ".join(map(str, r)) for r in matrix) + "\n")
        argv, bound = ["approx", "tsp-christofides", path], Fraction(3, 2)
    else:
        n = rng.randint(8, 12)
        path = put("g.txt", _graph_text(n, _random_edges(rng, n, 0.3)))
        argv, bound = ["approx", "vc-matching", path], 2

    def check(v):
        expect(Fraction(v["ratio"]) <= bound, f"{kind}: ratio above its bound")

    return [*argv, "--oracle", "--format", "json"], 0, check


def _bench(kind, rng, rnd, seed, put):
    def check(v):
        for row in v["rows"]:
            expect(row["within_bound"] and row["bound"] == refs.f_of(row["n"]),
                   "bench sorting row out of bound")

    return (["bench", "sorting", "--n-max", "12", "--trials", "2", "--seed",
             str(seed * 1000 + rnd), "--format", "json"], 0, check)


def _gen(kind, rng, rnd, seed, put):
    n = rng.randint(20, 80)

    def check(text):
        nums = [int(tok) for tok in text.split()]
        expect(len(nums) == len(set(nums)) == n, "gen numbers")

    return ["gen", "numbers", "--n", str(n), "--seed", str(seed * 1000 + rnd)], 0, check


_CALLS = {
    "euler": _euler,
    "euler-odd": _euler,
    "scc": _scc,
    "dijkstra": _dijkstra,
    "kruskal": _kruskal,
    "knapsack": _knapsack,
    "sort-insertion": _sort,
    "sort-merge": _sort,
    "sort-mergeinsertion": _sort,
    "select-linear": _select,
    "select-tournament": _select,
    "reduce": _reduce,
    "verify-accept": _verify,
    "verify-reject": _verify,
    "twosat-sat": _twosat,
    "twosat-unsat": _twosat,
    "approx-tsp": _approx,
    "approx-vc": _approx,
    "bench": _bench,
    "gen": _gen,
}
