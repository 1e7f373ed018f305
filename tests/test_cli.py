import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import combinlab
from combinlab import cli
from combinlab.cli import main

K5 = "p 5 10\n" + "\n".join(
    f"e {u} {v}" for u in range(1, 6) for v in range(u + 1, 6)
) + "\n"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_euler_k5(tmp_path, capsys):
    path = tmp_path / "k5.g"
    path.write_text(K5)
    code, out, _ = run(capsys, ["solve", "euler", str(path), "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["eulerian"] is True
    assert len(data["cycle"]) == 11


def test_solve_euler_negative(tmp_path, capsys):
    path = tmp_path / "p.g"
    path.write_text("p 2 1\ne 1 2\n")
    code, out, _ = run(capsys, ["solve", "euler", str(path), "--format", "json"])
    assert code == 1
    assert json.loads(out)["reason"] == "OddDegree"


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, ["solve", "euler", "/nonexistent.g"])
    assert code == 2 and "error" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_sort_with_count(tmp_path, capsys):
    path = tmp_path / "nums.txt"
    path.write_text("5 3 9 1 4 8 2\n")
    code, out, _ = run(
        capsys, ["sort", "mergeinsertion", str(path), "--count", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["sorted"] == [1, 2, 3, 4, 5, 8, 9]
    assert data["comparisons"] <= data["budget"]


def test_sort_count_refuses_over_cap_before_sorting(tmp_path, capsys, monkeypatch):
    def must_not_sort(items, cmp):
        raise AssertionError("sorted before checking the --count cap")

    monkeypatch.setitem(cli._SORTERS, "insertion", must_not_sort)
    path = tmp_path / "nums.txt"
    path.write_text(" ".join(str(x) for x in range(12000)))
    code, out, err = run(capsys, ["sort", "insertion", str(path), "--count"])
    assert (code, out, err) == (2, "", "error: --count takes at most 10000 keys, got 12000\n")


def test_select_linear(tmp_path, capsys):
    path = tmp_path / "nums.txt"
    path.write_text(" ".join(str(x) for x in range(50, 0, -1)))
    code, out, _ = run(
        capsys,
        ["select", str(path), "--t", "3", "--algorithm", "linear", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["value"] == 48


def test_twosat_sat_and_unsat(tmp_path, capsys):
    sat = tmp_path / "sat.cnf"
    sat.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    code, out, _ = run(capsys, ["twosat", str(sat), "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["satisfiable"] is True
    assert data["assignment"][1] == 1

    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run(capsys, ["twosat", str(unsat), "--format", "json"])
    assert code == 1
    assert json.loads(out)["conflict_variable"] == 1


def test_reduce_with_oracle_and_witness_roundtrip(tmp_path, capsys):
    cnf_path = tmp_path / "f.cnf"
    cnf_path.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    code, out, _ = run(
        capsys,
        ["reduce", "sat-clique", str(cnf_path), "--oracle", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["oracle"]["source_decision"] is True
    assert data["oracle"]["target_decision"] is True
    assert data["oracle"]["forward"]["target_accepts"] is True
    assert data["oracle"]["backward"]["source_accepts"] is True


def test_reduce_knapsack_partition(tmp_path, capsys):
    src = tmp_path / "k.json"
    src.write_text('{"numbers": [1, 2], "target": 2}')
    wit = tmp_path / "w.json"
    wit.write_text("[0, 1]")
    code, out, _ = run(
        capsys,
        [
            "reduce",
            "knapsack-partition",
            str(src),
            "--witness",
            str(wit),
            "--format",
            "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["target"]["numbers"] == [1, 2, 4, 3]
    assert data["witness"]["target_accepts"] is True


def test_verify_vertex_cover(tmp_path, capsys):
    g = tmp_path / "g.g"
    g.write_text("p 3 2\ne 1 2\ne 2 3\n")
    w = tmp_path / "w.json"
    w.write_text("[2]")
    code, out, _ = run(
        capsys,
        ["verify", "vertex-cover", str(g), str(w), "--k", "1", "--format", "json"],
    )
    assert code == 0 and json.loads(out)["accepted"] is True

    w.write_text("[3]")
    code, out, _ = run(
        capsys,
        ["verify", "vertex-cover", str(g), str(w), "--k", "1", "--format", "json"],
    )
    assert code == 1 and json.loads(out)["accepted"] is False


def test_verify_accepts_solver_output(tmp_path, capsys):
    # witnesses produced by reduce --oracle pass verify
    sc = tmp_path / "sc.json"
    sc.write_text('{"universe": [1, 2, 3], "family": [[1, 2], [3], [1]], "k": 2}')
    code, out, _ = run(
        capsys, ["reduce", "setcover-ilp", str(sc), "--oracle", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["oracle"]["forward"]["target_accepts"] is True


def test_approx_oracle_report(tmp_path, capsys):
    g = tmp_path / "g.g"
    g.write_text("p 3 2\ne 1 2\ne 2 3\n")
    code, out, _ = run(
        capsys, ["approx", "vc-matching", str(g), "--oracle", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["heuristic"] == 2 and data["optimal"] == 1
    assert data["ratio"] == "2/1" or data["ratio"] == 2


def test_approx_binpack(tmp_path, capsys):
    f = tmp_path / "sizes.txt"
    f.write_text("0.5 0.5 0.5 0.5\n")
    code, out, _ = run(
        capsys, ["approx", "binpack", str(f), "--oracle", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["heuristic"] == 2 and data["optimal"] == 2


def test_approx_binpack_oracle_deeper_than_the_recursion_limit(tmp_path, capsys):
    f = tmp_path / "units.txt"
    f.write_text("1 " * 1200)
    code, out, err = run(
        capsys, ["approx", "binpack", str(f), "--oracle", "--format", "json"]
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["optimal"] == 1200


def test_approx_binpack_oracle_stops_at_the_lower_bound(tmp_path, capsys):
    f = tmp_path / "halves.txt"
    f.write_text("1/2 " * 40)
    code, out, err = run(
        capsys, ["approx", "binpack", str(f), "--oracle", "--format", "json"]
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["optimal"] == 20


def test_approx_tsp_oracle_exits_3_above_the_city_cap(tmp_path, capsys):
    for n, want in ((17, 3), (14, 0)):
        _, matrix, _ = run(capsys, ["gen", "metric", "--n", str(n), "--seed", "1"])
        f = tmp_path / f"m{n}.txt"
        f.write_text(matrix)
        code, out, err = run(
            capsys, ["approx", "tsp-christofides", str(f), "--oracle", "--format", "json"]
        )
        assert code == want
        if want:
            assert (out, err) == ("", "error: instance too large for oracle\n")
        else:
            data = json.loads(out)
            assert err == "" and data["optimal"] <= data["heuristic"]


def test_approx_christofides_exits_3_above_20_odd_vertices(tmp_path, capsys):
    _, matrix, _ = run(capsys, ["gen", "metric", "--n", "60", "--seed", "1"])
    f = tmp_path / "m60.txt"
    f.write_text(matrix)
    code, out, err = run(capsys, ["approx", "tsp-christofides", str(f), "--format", "json"])
    assert (code, out) == (3, "")
    assert err == "error: odd-degree set larger than 20; use tsp_double_tree instead\n"


def test_bench_deterministic(capsys):
    code1, out1, _ = run(
        capsys, ["bench", "sorting", "--n-max", "10", "--seed", "5", "--format", "json"]
    )
    code2, out2, _ = run(
        capsys, ["bench", "sorting", "--n-max", "10", "--seed", "5", "--format", "json"]
    )
    assert code1 == code2 == 0
    assert out1 == out2
    rows = json.loads(out1)["rows"]
    assert all(r["measured"] <= r["bound"] for r in rows)
    assert all(r["info_lower"] <= r["bound"] for r in rows)


def test_bench_search_suite(capsys):
    code, out, _ = run(
        capsys, ["bench", "search", "--n-max", "6", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(r["within_bound"] for r in rows)


def test_gen_deterministic_and_parsable(capsys, tmp_path):
    code1, out1, _ = run(capsys, ["gen", "graph", "--n", "8", "--seed", "3"])
    code2, out2, _ = run(capsys, ["gen", "graph", "--n", "8", "--seed", "3"])
    assert code1 == code2 == 0 and out1 == out2
    from combinlab.graph_core import parse_graph_text

    g = parse_graph_text(out1)
    assert g.n == 8

    code, out, _ = run(capsys, ["gen", "metric", "--n", "5", "--seed", "1"])
    assert code == 0
    from combinlab.approx import MetricTspInstance

    MetricTspInstance([[int(x) for x in row.split()] for row in out.splitlines()])


def test_reduce_lists_the_kinds_of_the_reduction_table(capsys):
    from combinlab.complexity import REDUCTIONS

    with pytest.raises(SystemExit) as exc:
        main(["reduce", "no-such-kind", "f.cnf"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    kinds = sorted(REDUCTIONS)
    assert "{" + ",".join(kinds) + "}" in err  # the usage line
    assert "(choose from " + ", ".join(map(repr, kinds)) + ")" in err


def test_size_limit_exit_code(tmp_path, capsys):
    big = tmp_path / "big.cnf"
    clauses = "\n".join(f"{i} 0" for i in range(1, 25))
    big.write_text(f"p cnf 24 24\n{clauses}\n")
    code, out, err = run(
        capsys, ["reduce", "sat-clique", str(big), "--oracle", "--format", "json"]
    )
    assert code == 3


# --- golden outputs for every problem kind and reduction -------------------

GOLDEN_FILES = {
    "f.cnf": "p cnf 3 3\n1 0\n-1 2 0\n-2 3 1 -3 0\n",
    "f3.cnf": "p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n",
    "unsat.cnf": "p cnf 1 2\n1 0\n-1 0\n",
    "tri.g": "p 4 4\ne 1 2\ne 1 3\ne 2 3\ne 3 4\n",
    "path.g": "p 3 2\ne 1 2\ne 2 3\n",
    "sq.g": "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n",
    "cyc.d": "pd 3 3\na 1 2\na 2 3\na 3 1\n",
    "ec.json": '{"universe": [1, 2, 3], "family": [[1], [2, 3], [1, 2], [3]]}',
    "sc.json": '{"universe": [1, 2, 3], "family": [[1, 2], [3], [1]], "k": 2}',
    "rep.json": '{"universe": [1, 2, 3], "family": [[1, 2], [2, 3]]}',
    "k01.json": '{"numbers": [1, 2, 3], "target": 4}',
    "k0.json": '{"numbers": [], "target": 3}',
    "p0.g": "p 0 0\n",
    "pd0.d": "pd 0 0\n",
    "m0.txt": "",
    "kd.json": '{"values": [3, 4, 5], "volumes": [2, 3, 4], "capacity": 5, "goal": 7}',
    "nums.txt": "1 2 3\n",
    "m.txt": "0 1 2\n1 0 1\n2 1 0\n",
    "ilp.json": '{"rows": [[1, 1]], "relations": ["=="], "rhs": [2], "bounds": [[0, 2], [0, 2]]}',
    # four strong components; 7 is reachable from both DFS roots, 1 and 5
    "scc.d": "pd 7 10\na 1 2\na 2 1\na 2 3\na 3 4\na 4 3\na 4 7\na 5 6\na 6 5\na 6 7\na 5 3\n",
    # two components with edges, and the isolated vertex 7
    "two.g": "p 7 5\ne 1 2\ne 1 3\ne 2 4\ne 3 4\ne 5 6\n",
    # triangle 1-2-3 with triangles 2-4-5 and 3-6-7 hung on it
    "euler.g": "p 7 9\ne 1 2\ne 2 3\ne 1 3\ne 2 4\ne 4 5\ne 2 5\ne 3 6\ne 6 7\ne 3 7\n",
    "w.g": "p 5 7\ne 1 2 1\ne 1 3 1\ne 2 3 1\ne 2 4 2\ne 3 4 2\ne 4 5 1/2\ne 3 5 2\n",
    "dims.txt": "9 8 7 6 5 4 3 2\n",
    # a metric matrix with p/q distances: a square of side 1/2 and its centre
    "pq.txt": "0 1/2 1 1/2 3/4\n1/2 0 1/2 1 3/4\n1 1/2 0 1/2 3/4\n1/2 1 1/2 0 3/4\n3/4 3/4 3/4 3/4 0\n",
    "nonmetric.txt": "0 1 5\n1 0 1\n5 1 0\n",
    "ks.json": '{"values": [60, 100, 120, 30], "volumes": [10, 20, 30, 5], "capacity": 50}',
    "sizes.txt": "1/2 1/3 0.25 2/3 1/6 0.5\n",
    "big.txt": "1/2 2\n",
    "one.json": '{"universe": [1, 2], "family": [[1, 2]]}',
    "uncov.json": '{"universe": [1, 2, 3], "family": [[1], [2]]}',
    # the one set also holds 2, which is outside the universe
    "outside.json": '{"universe": [1], "family": [[1, 2]], "k": 1}',
    # the cycle 1 -> 2 -> 3 -> 1 weighs -1
    "negcyc.d": "pd 3 3\na 1 2 1\na 2 3 -3\na 3 1 1\n",
    # from 1, vertex 3 is reachable and vertex 4 is not
    "wd.d": "pd 4 3\na 1 2 1\na 2 3 2\na 4 1 1/2\n",
    # two weighted components, {1, 2} and {3, 4}
    "split.g": "p 4 2\ne 1 2 3\ne 3 4 1/2\n",
    # every degree is even, but the two triangles are apart
    "twotri.g": "p 6 6\ne 1 2\ne 2 3\ne 1 3\ne 4 5\ne 5 6\ne 4 6\n",
    "alloc.json": '{"costs": [[0, 1, 2], [0, 2, 3]], "profits": [[0, 3, 4], [0, 4, 6]], "budget": 3}',
    "lcs.txt": "ABCBDAB\nBDCABA\n",
    "keys.txt": "5 3 9 1 4 8 2 7 6\n",
    "dup.txt": "1 2 1\n",
    "sat2.cnf": "p cnf 2 2\n1 2 0\n-1 2 0\n",
}


def golden_argv(tmp_path, call, files=GOLDEN_FILES):
    """Names in `files` become paths; an inline JSON witness ([...] or
    {...}) is written to a file of its own."""
    argv = []
    for i, tok in enumerate(call.split()):
        if tok in files:
            (tmp_path / tok).write_text(files[tok])
            tok = str(tmp_path / tok)
        elif tok[0] in "[{":
            (tmp_path / f"w{i}.json").write_text(tok)
            tok = str(tmp_path / f"w{i}.json")
        argv.append(tok)
    return argv


# (exit code, sha256 of stdout) per call: reduce --oracle and reduce
# --witness for one source instance of each reduction, verify with an
# accepted and a rejected witness for each problem kind, the
# missing-parameter errors, every `solve` problem with its negative answers
# and graph-type errors, `sort` and `select` with each algorithm, `twosat`,
# every `approx` algorithm with and without --oracle and every `bench`
# suite, each in JSON and text format, and every `gen` family with and
# without --format, which it ignores.  An entry with a
# third element also pins stderr: the input errors, and --eps on an
# algorithm that does not read it.
GOLDEN = {
    "reduce sat-3sat f.cnf --oracle --format json": (0, "c5abb86d7e1a913ad0fa0d40f6c19d1e61b31e2e49bdd2a4603c7cb47b362c1a"),
    "reduce sat-3sat f.cnf --oracle --format text": (0, "ff6b1ea91a6e3dc9eb7a904896a9e7a24d9fb56d84a3140ccf4aefae31489e11"),
    "reduce sat-3sat f.cnf --witness [1,1,0] --format json": (0, "3bcc7a49d3210374e9fc0d973df377f7f7d6a9a4f55f65e981a7f598444ad75f"),
    "reduce sat-3sat f.cnf --witness [1,1,0] --format text": (0, "2113a44979c57fa69fd2fb7d6907263f5a9923cc44763a6fcf5cd2aa4b8e6f14"),
    "reduce sat-clique f.cnf --oracle --format json": (0, "bdc9cd1e561378c054db23f27056002b9cd83fd7c55639fe411b4f5038221d09"),
    "reduce sat-clique f.cnf --oracle --format text": (0, "bb0708519622d3ff463b8f5bb5f32cadffc746ab7bd942952249bff0623f4491"),
    "reduce sat-clique f.cnf --witness [1,1,0] --format json": (0, "75b0b89b76c58a4ba05833a74f4e1bf829b033e3c76aa22eba0682015cfaedb3"),
    "reduce sat-clique f.cnf --witness [1,1,0] --format text": (0, "788005d12e4e060cd96e15efd95fe61ef5c2dca2d09c5364b85c9a5e9479450b"),
    "reduce 3sat-coloring f3.cnf --oracle --format json": (0, "0f1e27c5d1aba94c138edb7f86ea09a0cfa4533cd23453cd4c956b5c62afab53"),
    "reduce 3sat-coloring f3.cnf --oracle --format text": (0, "a9bf6752eba6b1813f514579c2d821f3b4195f4ec61500c68f3b1878c73cb4cc"),
    "reduce 3sat-coloring f3.cnf --witness [1,1,0] --format json": (0, "bed18867160fe051d6479ee06043748571a14356ebb58b6ae27c618a050f3a21"),
    "reduce 3sat-coloring f3.cnf --witness [1,1,0] --format text": (0, "a9273d0f50d757b8890ec796ce5cd97296e2f7319ca4f2570fad7fce19be9563"),
    "reduce exactcover-knapsack ec.json --oracle --format json": (0, "599b878d3a224fe3699ee58e633245c31ca66f06be896e4f13c3eab18653eee5"),
    "reduce exactcover-knapsack ec.json --oracle --format text": (0, "cac682b9d62aa63a0a9e9b48b24e38a986718f36a5e92ad3dee105fbbc28c1da"),
    "reduce exactcover-knapsack ec.json --witness [1,2] --format json": (0, "876b26406b7998b5c9beaae51904e3d2e4fe02f2f21ea7ffe9529b90cd5d137f"),
    "reduce exactcover-knapsack ec.json --witness [1,2] --format text": (0, "9fb6cfaed6eb4d6c28a6f6a2c6facd7abc98a5d19e50b380b0ba2f6290ef3f18"),
    "reduce vc-hamcircuit path.g --k 1 --oracle --format json": (0, "6e2ba1b2cb213781ca3f4da496a0916a415c4fd839d1a1f5c4b17881b7f1e5c3"),
    "reduce vc-hamcircuit path.g --k 1 --oracle --format text": (0, "619f688abf84ba800cf427caea3062c0c3a9713d1c282f956486f54e7981604d"),
    "reduce vc-hamcircuit path.g --k 1 --witness [2] --format json": (0, "59419a992b053e01455f0ce04378f3b68fcbc75deedbd3d81677a6fbbe757a2b"),
    "reduce vc-hamcircuit path.g --k 1 --witness [2] --format text": (0, "464b5adb20603da365c24a6ff112ed8531834ed093f462a8c8f1ab7b7e2227a5"),
    "reduce clique-is tri.g --k 3 --oracle --format json": (0, "2c93d0fcdfbf9ccb056210fc0b13b4bef08a1f608d84b3222bab70f0abc6726b"),
    "reduce clique-is tri.g --k 3 --oracle --format text": (0, "66b42d5a8a86986ab2e1dc8ae2b7a7ad4a631d0079733b9c0f5e4d3e657bf365"),
    "reduce clique-is tri.g --k 3 --witness [1,2,3] --format json": (0, "da69659f36ff5b138841ad372cd7be9f1e40397e4b5f8d29abc9dd4bf4e51fe1"),
    "reduce clique-is tri.g --k 3 --witness [1,2,3] --format text": (0, "14457be8a167e9909480850335a94f8b6d4c591cd4e7f88b104668e31df17e57"),
    "reduce is-vc tri.g --k 2 --oracle --format json": (0, "e6fb005323fc2c329672e1fa752b3a06d1685a13b086b59af48d4271d873c1f4"),
    "reduce is-vc tri.g --k 2 --oracle --format text": (0, "74eecc07dae8dd0928618eaff701a41fdcf9c7e764a500baca77fca8c7ed0c93"),
    "reduce is-vc tri.g --k 2 --witness [1,4] --format json": (0, "f7b29be41a738b033e22f0dfc19e3b2fb78525b6ef5c7a8a46c634a4ecc65bae"),
    "reduce is-vc tri.g --k 2 --witness [1,4] --format text": (0, "1352d31f1d2c7823a427a36c2c34366362ef8525bb917ffb9b6121a02f6bf24a"),
    "reduce coloring-exactcover path.g --k 2 --oracle --format json": (0, "d89d4161da5ab622c1253ae30a71ca9efea66de9a063da1325d3e6dfe45d02cd"),
    "reduce coloring-exactcover path.g --k 2 --oracle --format text": (0, "987c78f1bddefb566b4b4dfab182f2cbc709b07922ff6c7b966fc586678284ef"),
    "reduce coloring-exactcover path.g --k 3 --oracle --format json": (0, "6f36921e99b81c7ac2f298f81f6a644a818a8e15d392c0f2f7c6063d5d6e5465"),
    "reduce coloring-exactcover path.g --k 3 --oracle --format text": (0, "4ed0b1f54ef37ab311f7df5cc8fcd19003a331283d0babe0396496a770017b2d"),
    'reduce coloring-exactcover path.g --k 2 --witness {"1":1,"2":2,"3":1} --format json': (0, '0fa674c317bf7c048c7e457fb47f102819a72b03b05c2f4ba849e5a4918a6181'),
    'reduce coloring-exactcover path.g --k 2 --witness {"1":1,"2":2,"3":1} --format text': (0, '3e072412489a4f84edd1aff64ed551fb3eabc861f07fc0e711e9ca6c4fe05ddf'),
    "reduce exactcover-representatives ec.json --oracle --format json": (0, "7ad51fabfbc355c6db092b3b73b97d1bfc1588d4a4b05a78d9906e4978164bee"),
    "reduce exactcover-representatives ec.json --oracle --format text": (0, "15cd2778a9721a75b66e9c6ae1e01a88c5fa15206498821eba8778d24ef5bbfb"),
    "reduce exactcover-representatives ec.json --witness [1,2] --format json": (0, "01e95a318d1cd05d6dfd4ce3cf64a17e03a1d150d0f6b1aa0890709c84242fea"),
    "reduce exactcover-representatives ec.json --witness [1,2] --format text": (0, "a8eec65aa3e3f22b4843d80be111cc8b7bfd775adf9d41eb52fb089963712c38"),
    "reduce knapsack-partition k01.json --oracle --format json": (0, "b537fd6ecb0a6e620d6609161e781a50d2c667e9876308902e496d2e0694ff45"),
    "reduce knapsack-partition k01.json --oracle --format text": (0, "f37ca2484face4871b3af4be965c71cdeaf637230759045272b31006620adbaa"),
    "reduce knapsack-partition k01.json --witness [1,0,1] --format json": (0, "74e6783d70495ab95d90228b999b7bd474ae4dfd1d4d9f7e2d56e096cc4d5298"),
    "reduce knapsack-partition k01.json --witness [1,0,1] --format text": (0, "9d49a1399a5878839c30f36b7a445c7065522b474288f0d3bc02f98ab964c278"),
    "reduce vc-setcover path.g --k 1 --oracle --format json": (0, "9e738b38d64de2f379ba84d9f4f935e74a467eee1706bc3dafc24dae343b0ddf"),
    "reduce vc-setcover path.g --k 1 --oracle --format text": (0, "d98a0a8c074a0c4a926bc83a35471465942d6d69e43b82d617160e0edd39031d"),
    "reduce vc-setcover path.g --k 1 --witness [2] --format json": (0, "2ac87e59877a32e7baa71236b15e8d38bf36418e6babdfae8378151ea0a1d9a4"),
    "reduce vc-setcover path.g --k 1 --witness [2] --format text": (0, "3d82395aa6881b14b5d828571af1918e2e38acf92b2f6c72a4ce4596dd6aabfc"),
    "reduce hamcircuit-hamcycle cyc.d --oracle --format json": (0, "6238b689c0603496dc8fc9d46b29eb2f875f42580a17a0a8e0f2baee377f3ee9"),
    "reduce hamcircuit-hamcycle cyc.d --oracle --format text": (0, "30d06bea31af5c006694a5d823cfdaf7346f3660b61d9d136b77447754cc400c"),
    "reduce hamcircuit-hamcycle cyc.d --witness [1,2,3] --format json": (0, "c486cf0bc7f90f99ce4765af09fee935a92fdc966dea419ff14b07b097bb303e"),
    "reduce hamcircuit-hamcycle cyc.d --witness [1,2,3] --format text": (0, "393cf63b89043ad2023e38fe485aa8f0f411cfb37ade0d77d41ff48764b454bc"),
    "reduce hamcycle-tsp sq.g --oracle --format json": (0, "f0b651955f433f36089c2261bcfb1eb4990405ff40e82bf2792b52bcead52d0f"),
    "reduce hamcycle-tsp sq.g --oracle --format text": (0, "ea100d30ed761395929936e5901d51cfca82d1242f9cb64daca13ddebf6f792e"),
    "reduce hamcycle-tsp sq.g --witness [1,2,3,4] --format json": (0, "75333340eb0089772a6df892988087a1e077e8b4424afe88c66d5467fd70c7a5"),
    "reduce hamcycle-tsp sq.g --witness [1,2,3,4] --format text": (0, "b0422caa1db584d8fe8d6525914f547fe4ad58ffc19360ece35c04a3b3a73922"),
    "reduce knapsack-ilp k01.json --oracle --format json": (0, "0dee3b878f3e833e9cc4d7471bd6e1d5b178db5ea5ad1c38c833f51f82fd495e"),
    "reduce knapsack-ilp k01.json --oracle --format text": (0, "ae9d508588c18d848bfcf1912ee5c7d12b7c14edbecfbd270b4e76d932559aa5"),
    "reduce knapsack-ilp k01.json --witness [1,0,1] --format json": (0, "ba017170522b9d0d54036533f46fd6b04de077ee433623864a7d8571ef1d61a6"),
    "reduce knapsack-ilp k01.json --witness [1,0,1] --format text": (0, "e2db08edb2f257c3896cd4eb102cd5152c53462d1d9e83c83b7c78ea31d492d2"),
    # zero-width and zero-vertex instances: the oracle finds what verify accepts
    "reduce knapsack-ilp k0.json --oracle --format json": (0, "c82df45f2c47c578d71f070e2fa5552c6a28ce01aa5f24651563d48518e1784d"),
    "reduce knapsack-ilp k0.json --oracle --format text": (0, "c82174fe72f955faab0ccc5e4560102e22c2870285e99432b1ff4728c9d54c78"),
    "reduce hamcycle-tsp p0.g --oracle --format json": (0, "9493ec230e2353a982a97d816862191fb16003c58e4ee6ac53b06a9178c62d14"),
    "reduce hamcycle-tsp p0.g --oracle --format text": (0, "23c5dcfcb932c8c60c05e8669b06c62c2afc26bc8bcf624265bc4580d41e3b98"),
    "reduce hamcircuit-hamcycle pd0.d --oracle --format json": (0, "69306c7947c2e676ebc3fefa4acca3d5eb3493c4831306705baa3797daa9aa35"),
    "reduce hamcircuit-hamcycle pd0.d --oracle --format text": (0, "2979cab4d9cdadf433b943d845607c7f15a989c65ed4af6875be2073c9d76a7e"),
    "reduce tsp-ilp m0.txt --limit 0 --oracle --format json": (0, "ede24006ec8c1ad7697d842b43db3ed2a4497704f28e9949a67829d91941ad76"),
    "reduce tsp-ilp m0.txt --limit 0 --oracle --format text": (0, "83067cc703a2ef0ba351344462e68e0f687b8f289e9ddeae3a22e36ffda3405d"),
    "reduce setcover-ilp sc.json --oracle --format json": (0, "24598f85c7a513b6d2d715daf690315d59bdf70f2c3932b198a16997d11db5cd"),
    "reduce setcover-ilp sc.json --oracle --format text": (0, "6469b840c8b4c4792ad5507033c3e895bf03a9b7928b30bb0287a0f5a92579af"),
    "reduce setcover-ilp sc.json --witness [1,2] --format json": (0, "1d723f0753a33adaee6adf8066fed3cba95c5c68c6292b95a5748359e0203216"),
    "reduce setcover-ilp sc.json --witness [1,2] --format text": (0, "62ec4b4076ced9fae30a41215ab0c64f043597e0bddbf341af04c624b2b58056"),
    "reduce setcover-ilp outside.json --oracle --format json": (0, "187dfb1cb223cfafad092c32668d72543d7d7b937c39148b861738a443ef233b"),
    "reduce setcover-ilp outside.json --oracle --format text": (0, "36b2fa4beee3738729f0e75c2fbf6de7cb34e4e280a48f84a09b26b57a866840"),
    "reduce tsp-ilp m.txt --limit 4 --oracle --format json": (0, "0c5fbbd4fc3c6ecf6280a2edc4ae5c5c43627f0fc23122f07d7cd57e41334657"),
    "reduce tsp-ilp m.txt --limit 4 --oracle --format text": (0, "8b5e4d09aa33c69cbf05c1be76bda3a624165501955b3b383d9e9c2ac945c415"),
    "reduce tsp-ilp m.txt --limit 4 --witness [1,2,3] --format json": (0, "43f0bc814e54590a9105bde69787b26f2b27d87ed59af0028ee03ad13763a4f0"),
    "reduce tsp-ilp m.txt --limit 4 --witness [1,2,3] --format text": (0, "7fe13d5dc21fa1dd57ecf3cc4468ed3234b8ba19f7902ad671c2b4e1c7a015c9"),
    "reduce sat-clique unsat.cnf --oracle --format json": (0, "db7ad0ecafcd714866e214ced0202fcb095a34a18d213a5a291840def0b9a3d6"),
    "reduce sat-clique unsat.cnf --oracle --format text": (0, "78bcc6e2b25dea3156d556233dce66ac939066b6f5ee7e44ecde6007985a8660"),
    "reduce clique-is tri.g --k 4 --oracle --format json": (0, "887f249df60feef8a380f4637c8f218cc84c2180fb3e252f6223fe8440764f81"),
    "reduce clique-is tri.g --k 4 --oracle --format text": (0, "e2bea55debb825d78b844147731996a711b6684174c668dd3dedcd3dd3cdbb51"),
    "reduce is-vc tri.g --k 2 --witness [1,2,3] --format json": (0, "6da3e26e02d17ac72d6c6f430f375ee04b013218d8fa68e900d0ab9424f237c7"),
    "reduce is-vc tri.g --k 2 --witness [1,2,3] --format text": (0, "772f34d66e926bf6082f9293cd86cb56b091a236da66a26f1437735981cbfbc2"),
    # a negative k asks for at least no vertices, which the empty set gives
    "reduce clique-is tri.g --k -1 --oracle --format json": (0, "9384d285e0d2e5fb731768756f69c0d08b136b0cad4063345662a90def1c94bc"),
    "reduce clique-is tri.g --k -1 --oracle --format text": (0, "44ff1557b91dcca8e0260f4c85f34a88cc1a1aef6b829512aeb7303c7d37b70c"),
    "reduce is-vc tri.g --k -1 --oracle --format json": (0, "3fb797c22b3ff5aa2621a844eb0ae1160c9f3533b6145855a0066b0d8007b5e0"),
    "reduce is-vc tri.g --k -1 --oracle --format text": (0, "5adc9e8b3532d63b7abb85f0a77e10f4f3000c2fbacd0ed85b21b2a0096bbdb7"),
    "verify sat f.cnf [1,1,0] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify sat f.cnf [1,1,0] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify sat f.cnf [0,0,0] --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify sat f.cnf [0,0,0] --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify 3sat f3.cnf [1,1,0] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify 3sat f3.cnf [1,1,0] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify 3sat f3.cnf [1,0,0] --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify 3sat f3.cnf [1,0,0] --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify clique tri.g --k 3 [1,2,3] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify clique tri.g --k 3 [1,2,3] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify clique tri.g --k 3 [2,3,4] --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify clique tri.g --k 3 [2,3,4] --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify independent-set tri.g --k 2 [1,4] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify independent-set tri.g --k 2 [1,4] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify independent-set tri.g --k 2 [1,2] --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify independent-set tri.g --k 2 [1,2] --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify vertex-cover path.g --k 1 [2] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify vertex-cover path.g --k 1 [2] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify vertex-cover path.g --k 1 [1] --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify vertex-cover path.g --k 1 [1] --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    'verify coloring path.g --k 2 {"1":1,"2":2,"3":1} --format json': (0, 'ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee'),
    'verify coloring path.g --k 2 {"1":1,"2":2,"3":1} --format text': (0, 'ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc'),
    'verify coloring path.g --k 2 {"1":1,"2":1,"3":1} --format json': (1, '3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3'),
    'verify coloring path.g --k 2 {"1":1,"2":1,"3":1} --format text': (1, '1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39'),
    "verify exact-cover ec.json [1,2] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify exact-cover ec.json [1,2] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify exact-cover ec.json [1,3] --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify exact-cover ec.json [1,3] --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify set-cover sc.json [1,2] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify set-cover sc.json [1,2] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify set-cover sc.json [1] --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify set-cover sc.json [1] --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify set-cover outside.json [1] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify set-cover outside.json [1] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify representatives rep.json [2] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify representatives rep.json [2] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify representatives rep.json [1,2] --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify representatives rep.json [1,2] --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify knapsack01 k01.json [1,0,1] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify knapsack01 k01.json [1,0,1] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify knapsack01 k01.json [1,1,1] --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify knapsack01 k01.json [1,1,1] --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify knapsack-decision kd.json [1,1,0] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify knapsack-decision kd.json [1,1,0] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify knapsack-decision kd.json [0,0,1] --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify knapsack-decision kd.json [0,0,1] --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify partition nums.txt [3] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify partition nums.txt [3] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify partition nums.txt [1] --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify partition nums.txt [1] --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify ham-circuit cyc.d [1,2,3] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify ham-circuit cyc.d [1,2,3] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify ham-circuit cyc.d [1,3,2] --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify ham-circuit cyc.d [1,3,2] --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify ham-cycle sq.g [1,2,3,4] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify ham-cycle sq.g [1,2,3,4] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify ham-cycle sq.g [1,3,2,4] --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify ham-cycle sq.g [1,3,2,4] --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify tsp m.txt --limit 4 [1,2,3] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify tsp m.txt --limit 4 [1,2,3] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify tsp m.txt --limit 4 [1,3,2,1] --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify tsp m.txt --limit 4 [1,3,2,1] --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify ilp ilp.json [1,1] --format json": (0, "ac1493cdfbb3763e43f1accfce43b45e29e5e9286b3a5a65300b13b36170acee"),
    "verify ilp ilp.json [1,1] --format text": (0, "ea63e1125f5576d6ffcc6ecd41977fbb45bf4fb453f76dc0bc67ad37e4929ecc"),
    "verify ilp ilp.json [0,1] --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify ilp ilp.json [0,1] --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify set-cover sc.json [1,2] --k 1 --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify set-cover sc.json [1,2] --k 1 --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify tsp m.txt [1,2,3] --limit 3 --format json": (1, "3dd07d58d67d6815dc0c1e31bca3c4e9fece166d8235596b48a1ebdb3b6ab5a3"),
    "verify tsp m.txt [1,2,3] --limit 3 --format text": (1, "1c03bef5500e1800be5993089fbbb400fe194409095045380e37ae802d6fef39"),
    "verify sat f.cnf [1] --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify sat f.cnf [1] --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify clique tri.g [1,2,3] --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify clique tri.g [1,2,3] --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "reduce clique-is tri.g --oracle --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "reduce clique-is tri.g --oracle --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify tsp m.txt [1,2,3] --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify tsp m.txt [1,2,3] --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "reduce tsp-ilp m.txt --oracle --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "reduce tsp-ilp m.txt --oracle --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify ham-circuit sq.g [1,2,3,4] --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify ham-circuit sq.g [1,2,3,4] --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "reduce hamcircuit-hamcycle sq.g --oracle --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "reduce hamcircuit-hamcycle sq.g --oracle --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify set-cover ec.json [1,2] --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify set-cover ec.json [1,2] --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify no-such-kind tri.g [1] --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify no-such-kind tri.g [1] --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "solve dfs scc.d --format json": (0, "f9246823778e96c5be0bff43a3403886444e1f52d5d04c8d62e7e7f9a7f4f0e2"),
    "solve dfs scc.d --format text": (0, "6aa8f1831d18074ae35fe8b4a7bba17fe7e91d740ec7a45e4d7a3b35688b8842"),
    "solve dfs two.g --format json": (0, "e62c2414d4e8c827ebf5591f33e27307a471a344174cacf5d6d08263171aefbc"),
    "solve dfs two.g --format text": (0, "ab0c4d727e17a240ebfb2cf0ec5a4d5f4b4c06544e3f42d83c58121546e54cec"),
    "solve scc scc.d --format json": (0, "69044cecb5048469b0bbb58fc1e13b61bed232d5fc3c93e0f9069dee90db0ab0"),
    "solve scc scc.d --format text": (0, "8666302e19d1b2e88e661e5d002fae75348e2251f10ddd2a2da7f121057eafdc"),
    "solve bfs two.g --format json": (0, "1cc74a4680166bc47ead37ebdbf929c9a762d965623dd20af193f634620cfecf"),
    "solve bfs two.g --format text": (0, "f93a90959f56c6cfe8f8ab2d008d5cb21622199715c241e7960218ee78285044"),
    "solve components two.g --format json": (0, "080d682fb752508d0dc09d145c4e4ede60e5a11668d715306294741c9ade12ef"),
    "solve components two.g --format text": (0, "b4844fef9fe6b1ff8776e44b683ed1962c14dd9cbdcc64bca105c6388e8e2908"),
    "solve euler euler.g --format json": (0, "9973bd7f60559d67dfc870112ffb9b6563fb2c134839d5be072f7e88ad6ad856"),
    "solve euler euler.g --format text": (0, "8df06a0910976978ae4c8c27e619d29caf27fee65ab216d67ee1744e8163c7b5"),
    "solve kruskal w.g --format json": (0, "d03c2f187d7fbd7820640deecda3ab0a071ed7b7ba85e3fbe393d7700d356303"),
    "solve kruskal w.g --format text": (0, "5b67c5af0b534c1c09ae1442e8fa0b912529a4aa2fc97d47ccf37c297d859f03"),
    "solve maxst w.g --format json": (0, "b1df6e696a7167996e897615566affeb4b4d161f00e4e55cd798e99a63656988"),
    "solve maxst w.g --format text": (0, "fe4035311be756c5705db1558a978877b5fbef743f217c154adc9640b1b15422"),
    "solve chain dims.txt --format json": (0, "93abc55942a84025a9b5f6e2a0bc138acd5d456dea428ea3883878273c2d361e"),
    "solve chain dims.txt --format text": (0, "05359e427f7e3c76a6edb38d5d87d7d7673bca089f3cdced67952a1d40ffcc26"),
    "approx vc-matching tri.g --format json": (0, "550991f4c74c0c3ee70b1ff32eb6e373a7e835f1bccc09dfff91c21945ebf23d"),
    "approx vc-matching tri.g --format text": (0, "3846c0a73c95cf949e416cc07dd768dbed06545a6f04a1635989475cdbb17eb5"),
    "approx vc-matching tri.g --oracle --format json": (0, "79aca88071df2db3d040f808a8690f0c7ce6e52925e8c03e7cc9eb5eac4c7d23"),
    "approx vc-matching tri.g --oracle --format text": (0, "a2fda576ad4e5cbba5d804d3a79eaeb697c3965fd7512a1f00a61660c3642cc0"),
    "approx vc-greedy tri.g --format json": (0, "5c0bd04b84369776deb6ef187a2152084e08a97e695867ee4d69df75a1f89410"),
    "approx vc-greedy tri.g --format text": (0, "c733a2d6717d85bcabf9030372685a05f02fd874ccc40144fab48554e9d5e21c"),
    "approx vc-greedy tri.g --oracle --format json": (0, "3ded6c0d6c7dba2279d0eb6d12edac311052501cb04c2f8a14f9aec479d4b2b6"),
    "approx vc-greedy tri.g --oracle --format text": (0, "47bc6075e241ce3908b699942f0e4d4e433677e6f4d3ae686b607e8a67339a68"),
    "approx maxcut tri.g --format json": (0, "4c5e5e581e80327b8c6acacbbc4a3ee27ee0108b3f60381b5a53aadb3b860119"),
    "approx maxcut tri.g --format text": (0, "32c12d6e96bfd8f8341f466277cff2c6b5fae21e0c6cc18f2ffec5f97d36cfb6"),
    "approx maxcut tri.g --oracle --format json": (0, "2c997c746b30ad1d2ed8a61463890e5914e6a666a6164a4c3eb109171fcbbb0d"),
    "approx maxcut tri.g --oracle --format text": (0, "ae0fcecafe27718abb4b9ee25af01dab80bdbf7c80dcf6adeae0dda03e28e3a7"),
    "approx setcover sc.json --format json": (0, "85e9e0fab30f7c8c303a9c9854788b982dd106ac2537fdb2417bd2376b9922d4"),
    "approx setcover sc.json --format text": (0, "a65ccc91dfe72dc8b8d8416664410f8c257f3446477912e949528695e70755dd"),
    "approx setcover sc.json --oracle --format json": (0, "bae1194345607a20294c18737a40666c4030d624e36152068ef5270bde960b1d"),
    "approx setcover sc.json --oracle --format text": (0, "537d80cbe2799648cc594fed4c8124fa3b3bf5008eabdb35112a4ed44cedf7d0"),
    "approx setcover one.json --format json": (0, "7c86ef9b88029e64cdfbd538911c79e182b996f3b82a51600cdc4193ddf7f057"),
    "approx setcover one.json --format text": (0, "6d25fb591d371e24bd16981a26ac1d6424e1a8d9a4fd5ddb08241aca20cadd59"),
    "approx setcover one.json --oracle --format json": (0, "c1450824bee7464f1889f0a7b7333c371a0ad5a9f03a0dd9320a4a65ab5d9f40"),
    "approx setcover one.json --oracle --format text": (0, "971db10034eec1e6d3fb3432fa2aefb1ad9c379538d85321778b3ace357e7e56"),
    "approx tsp-doubletree pq.txt --format json": (0, "3a92d5e5bbd324e4062a65e639504c546042947ed9a68f51a5025b7877c1ba63"),
    "approx tsp-doubletree pq.txt --format text": (0, "8655d61327b97b34c458adbf09b7dd6244142b8a50956abfd249e4ec4cec7366"),
    "approx tsp-doubletree pq.txt --oracle --format json": (0, "0e12126e121fd736d6b0aea8a05d674d13c55c9dc8df33555e78287fbc159c6b"),
    "approx tsp-doubletree pq.txt --oracle --format text": (0, "2620fe04f5239f556ece0fedd88b5d8b0a059cace57f1b3f9a59051fce26f0f7"),
    "approx tsp-christofides pq.txt --format json": (0, "8b48d7d78145847d6b3bc96c0baed21b415a6d7bb61b4e9ae206f389463debc5"),
    "approx tsp-christofides pq.txt --format text": (0, "cb8963394c933c80a0cfd976cd8b28e4d60bfdcf3e8a6d1fed4c6b799540eebf"),
    "approx tsp-christofides pq.txt --oracle --format json": (0, "ad57a83c4caa239b4a676e50afe7ab927c5d08c8c1276c35393a378b613862f1"),
    "approx tsp-christofides pq.txt --oracle --format text": (0, "d89d747cda32a2719a495b48f7170bd75467615f8e4ebdd99c89fcbc2b662791"),
    "approx knapsack-fptas ks.json --format json": (0, "64c3916ba00503904c2bdefefdd231b59f5ba74a5c1b5b41387b68b5aac69809"),
    "approx knapsack-fptas ks.json --format text": (0, "e3dcdda924c6db5661e8101f8959ca9d745be64fb023a4f27a64862802bf5a75"),
    "approx knapsack-fptas ks.json --oracle --format json": (0, "a81091cf3661331a487cad34a5aae7d21a293569c178c5a662039c28e503e366"),
    "approx knapsack-fptas ks.json --oracle --format text": (0, "e2cc084b0b0b95ad9d38090957563ff86b39d6dda88ebb5927cadfa6dae8d5ac"),
    "approx binpack sizes.txt --format json": (0, "412444edf5035b6ef996040e7e14656283b42f017b110df7fa5bcb4e65c5e468"),
    "approx binpack sizes.txt --format text": (0, "c3b6ca45b06225d6a6c80459bce2405f79a51eeeee43a975da617b880f542f5e"),
    "approx binpack sizes.txt --oracle --format json": (0, "7e0f4553a21173f0454c1a368cfb32f461c7b7d5323d6972d0782e2390b9ae88"),
    "approx binpack sizes.txt --oracle --format text": (0, "e0816077cbc51854def1dff3e02e1bb43c64529d0a5e5a449d5d410b7dcce10f"),
    "approx knapsack-fptas ks.json --eps 1/10 --oracle --format json": (0, "38302e0916c651814b812e7124d4d2373e58d34c64ff40a13f3f6b16393e5d3b"),
    "bench approx --seed 3 --format json": (0, "322432cde1895d3abf9b1ea652d2365c21a6fa0d1478d41b6565801a7a31ceaf"),
    # bench approx ignores --n-max: the same bytes as without it
    "bench approx --seed 3 --n-max 40 --format json": (0, "322432cde1895d3abf9b1ea652d2365c21a6fa0d1478d41b6565801a7a31ceaf"),
    "approx knapsack-fptas ks.json --eps 1/10 --oracle --format text": (0, "d476d823c5205c26b468bd7cebe38b88bec570ba708ef2fc30e55c6879d91ba6"),
    "bench approx --seed 3 --format text": (0, "7aee8b8225fea8efc4c6dcb89f4e7ac4398d0b8f7d766af76611202594380260"),
    "approx vc-matching tri.g --eps abc --format json": (0, "550991f4c74c0c3ee70b1ff32eb6e373a7e835f1bccc09dfff91c21945ebf23d", ""),
    "approx vc-matching tri.g --eps abc --format text": (0, "3846c0a73c95cf949e416cc07dd768dbed06545a6f04a1635989475cdbb17eb5", ""),
    "approx setcover uncov.json --oracle --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: family does not cover the universe\n"),
    "approx setcover uncov.json --oracle --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: family does not cover the universe\n"),
    "approx tsp-christofides nonmetric.txt --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: triangle inequality violated\n"),
    "approx tsp-christofides nonmetric.txt --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: triangle inequality violated\n"),
    "approx knapsack-fptas ks.json --eps 0 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: needs eps > 0\n"),
    "approx knapsack-fptas ks.json --eps 0 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: needs eps > 0\n"),
    "approx binpack big.txt --oracle --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: sizes must lie in [0, 1]\n"),
    "approx binpack big.txt --oracle --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: sizes must lie in [0, 1]\n"),
    "solve floyd negcyc.d --format json": (0, "14d3e39c1f1469a1922d0b45ba4904b16948d210a72a60302eda1cec60efe06d"),
    "solve floyd negcyc.d --format text": (0, "7813ecf99f49d06f7c957d6dffa1e7773697d506ad30797e09f33d29e4b37aec"),
    "solve floyd wd.d --format json": (0, "bb93f4ada86a8144560bae52938350a5b4459a3396bd4b7182232fde2b8a827f"),
    "solve floyd wd.d --format text": (0, "4e598e6d4c65cb0baf1c3cce943c62d63f99d956f2647791e8fe83d9f0ed8fab"),
    "solve closure scc.d --format json": (0, "ce56f06f75cdcc1cdf58e7f660a9a7443972c6728303010ec8c183ff9dcf82e8"),
    "solve closure scc.d --format text": (0, "bb68dc33f705e52a3f4c633c66b8dd5a0c44b96ce168d467c7698c3c86573625"),
    "solve dijkstra wd.d --format json": (0, "2c704aad393dbdbe767bf1d16c01b4e8e8907afbe081d5a49de6077d7fc5657d"),
    "solve dijkstra wd.d --format text": (0, "6aaeb788c98d130fc19c848a3cc803f31e8a9ec59ef2fb40821f99bdb620605b"),
    "solve dijkstra wd.d --target 3 --format json": (0, "aa89306497cef1f024160fbf72533f975f038469646e7bbc99a5b529b4052e6d"),
    "solve dijkstra wd.d --target 3 --format text": (0, "f5d38350ebe7a4e23be03db1618a83e6fc366f70ec8f204968a9d97a95f8c475"),
    "solve dijkstra wd.d --target 4 --format json": (1, "83be4be7f4c9788cdb200bef9981e6fd3c9895e13668c1e418c30e5a6c1519b7"),
    "solve dijkstra wd.d --target 4 --format text": (1, "2ba713f20919031a43cd893f7d46271a880eb8dc0a39de0b4a8e058211fe6d3c"),
    "solve shortest w.g --target 5 --format json": (0, "bfc2fb83475a1f220baf87354ad8cf6c685d7445deecba4b1bb3e5cb450b6793"),
    "solve shortest w.g --target 5 --format text": (0, "f8128072dfdb2bf59ab7786296f7e8e08fe0346620c51632c672e51471ed3454"),
    "solve shortest split.g --target 3 --format json": (1, "0021468c712e88d46a821f26497b857ba591c62baec6700567cacaaf1e8524d5"),
    "solve shortest split.g --target 3 --format text": (1, "6300dc3b45065760a17a94801932b4a3fa50d7fd0e08f711da7282cb76738418"),
    "solve shortest w.g --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: shortest needs --target\n'),
    "solve shortest w.g --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: shortest needs --target\n'),
    "solve prim w.g --format json": (0, "41c8f2fbab9483975c0615389c85e152d8368c115d54b99fecb92fe24a631cd6"),
    "solve prim w.g --format text": (0, "fb191bbc2ec6564d59e75343c4e5aa746b645f0c6d979c8503e0b1006670ac37"),
    "solve prim split.g --format json": (1, "bca731f9e1b952a6266a6c65c32441edc85dad7e54006a0e5cdf70eedd544500"),
    "solve prim split.g --format text": (1, "a300f304e8284bd5a08c0a497dd15765f2e3258fdc4374aafa647a57fdd128bd"),
    "solve kruskal split.g --format json": (1, "bca731f9e1b952a6266a6c65c32441edc85dad7e54006a0e5cdf70eedd544500"),
    "solve kruskal split.g --format text": (1, "a300f304e8284bd5a08c0a497dd15765f2e3258fdc4374aafa647a57fdd128bd"),
    "solve maxst split.g --format json": (1, "bca731f9e1b952a6266a6c65c32441edc85dad7e54006a0e5cdf70eedd544500"),
    "solve maxst split.g --format text": (1, "a300f304e8284bd5a08c0a497dd15765f2e3258fdc4374aafa647a57fdd128bd"),
    "solve knapsack ks.json --format json": (0, "d2dc601ba527fa9c63f56f6680b3caf2f456c54120f3b24c420a65a7ec8df01d"),
    "solve knapsack ks.json --format text": (0, "6f43bb0414ebcb6d56f987e9574cb5824bec8296e033ba76e6b85d03c5627567"),
    "solve allocate alloc.json --format json": (0, "b14c161b3e6515419b222cad098eff81f5c1b29bd1b490d714a7861641c8f8e3"),
    "solve allocate alloc.json --format text": (0, "8160eb7aa997c1cd7d8875bc2fa64f1feb9587a92a599559e34404056fb5347b"),
    "solve lcs lcs.txt --format json": (0, "c4a807c4761bcd5b2569617d3c95a31e29808eef5e2a258f5253191b5fcf2d3a"),
    "solve lcs lcs.txt --format text": (0, "3ade544f2f893da5ee173540f8d0dbd058605962f49baec932d5cce3db0fe239"),
    "solve lcs nums.txt --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: lcs input needs two lines\n'),
    "solve lcs nums.txt --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: lcs input needs two lines\n'),
    "solve euler path.g --format json": (1, "1e735a50c82040c01543ae2672dab34dccb6dd3788d580cc6c7a9759fdc263ee"),
    "solve euler path.g --format text": (1, "4c199f1e588345f2528a52279ddc5b1ef4f985394246467c9599682a4d3fc046"),
    "solve euler twotri.g --format json": (1, "c80f3e50da4b59d7f9327e40d283fb2896f57d28f52e2559d856a6a4fa8fcb6f"),
    "solve euler twotri.g --format text": (1, "d51522d3880dca37f7e024799e2f6f80009ba3fe4cdd985c035f77876bbfb60a"),
    "solve scc two.g --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: scc needs a directed graph (pd header)\n'),
    "solve scc two.g --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: scc needs a directed graph (pd header)\n'),
    "solve closure two.g --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: closure needs a directed graph\n'),
    "solve closure two.g --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: closure needs a directed graph\n'),
    "solve dijkstra w.g --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: dijkstra needs a weighted digraph\n'),
    "solve dijkstra w.g --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: dijkstra needs a weighted digraph\n'),
    "solve dijkstra cyc.d --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: dijkstra needs a weighted digraph\n'),
    "solve dijkstra cyc.d --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: dijkstra needs a weighted digraph\n'),
    "solve floyd w.g --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: floyd needs a weighted digraph\n'),
    "solve floyd w.g --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: floyd needs a weighted digraph\n'),
    "solve shortest wd.d --target 2 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: shortest needs a weighted undirected graph\n'),
    "solve shortest wd.d --target 2 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: shortest needs a weighted undirected graph\n'),
    "solve shortest path.g --target 2 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: shortest needs a weighted undirected graph\n'),
    "solve shortest path.g --target 2 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: shortest needs a weighted undirected graph\n'),
    "solve prim wd.d --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: prim needs a weighted undirected graph\n'),
    "solve prim wd.d --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: prim needs a weighted undirected graph\n'),
    "solve kruskal path.g --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: kruskal needs a weighted undirected graph\n'),
    "solve kruskal path.g --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: kruskal needs a weighted undirected graph\n'),
    "solve maxst wd.d --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: maxst needs a weighted undirected graph\n'),
    "solve maxst wd.d --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: maxst needs a weighted undirected graph\n'),
    "solve nosuch missing.g --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: unknown solve problem 'nosuch'\n"),
    "solve nosuch missing.g --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: unknown solve problem 'nosuch'\n"),
    "solve euler missing.g --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: [Errno 2] No such file or directory: 'missing.g'\n"),
    "solve euler missing.g --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: [Errno 2] No such file or directory: 'missing.g'\n"),
    "sort insertion keys.txt --format json": (0, "661ee30427fa9af4070d5d96f759dd5f98f82cba989c0eb1388758babb9a8e72"),
    "sort insertion keys.txt --format text": (0, "ad2ea4b7dbe7c21bc3be040c7212265ec1fd88fe7ad151f2c07f9b3725a5cbac"),
    "sort insertion keys.txt --count --format json": (0, "6b959c5078523b943f66c77d9a760f7786a4594bfd0709cfe96242db784c2036"),
    "sort insertion keys.txt --count --format text": (0, "98f022e516ba51f8f474c1fc3e12d09fc500938677069a1a6755007b793f6dfb"),
    "sort merge keys.txt --format json": (0, "661ee30427fa9af4070d5d96f759dd5f98f82cba989c0eb1388758babb9a8e72"),
    "sort merge keys.txt --format text": (0, "ad2ea4b7dbe7c21bc3be040c7212265ec1fd88fe7ad151f2c07f9b3725a5cbac"),
    "sort merge keys.txt --count --format json": (0, "1708b6cf0d60da6aed767286b30f54d42793369b7d11f39d5fcea0eeace55414"),
    "sort merge keys.txt --count --format text": (0, "c3b4ecbf3ca8e09e12a6c0681bec96d9b3e2fd4654b73c900ed53c72a13c8ef1"),
    "sort mergeinsertion keys.txt --format json": (0, "661ee30427fa9af4070d5d96f759dd5f98f82cba989c0eb1388758babb9a8e72"),
    "sort mergeinsertion keys.txt --format text": (0, "ad2ea4b7dbe7c21bc3be040c7212265ec1fd88fe7ad151f2c07f9b3725a5cbac"),
    "sort mergeinsertion keys.txt --count --format json": (0, "ad0ca43b67982d347db9f73f4d695b65ea2e5eb39416e8f6b335d3c299df99a6"),
    "sort mergeinsertion keys.txt --count --format text": (0, "9fd92572e135a10d72fa2124d40db3e3a14d61045008013eeb43711e37618c9a"),
    "sort merge dup.txt --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: sort input keys must be pairwise distinct\n'),
    "sort merge dup.txt --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: sort input keys must be pairwise distinct\n'),
    "select keys.txt --t 3 --format json": (0, "6c51772e800abaa0b69b6f49025ae9bfb2e4252f09b5da89f31e2d45de8001e1"),
    "select keys.txt --t 3 --format text": (0, "1df11bf60dc00352887146f2325224ad7f7567e0b75d59abe2a9baa25059ce43"),
    "select keys.txt --t 3 --count --format json": (0, "6a364a1c2335009f1e551bee4c898bafc3669f835b4ac0421954c1717f9b9d39"),
    "select keys.txt --t 3 --count --format text": (0, "f7fd601f07ebce05e030a1449d0d3bae27592906ae584966c9d83bbeff04f6f0"),
    "select keys.txt --t 3 --algorithm linear --format json": (0, "6c51772e800abaa0b69b6f49025ae9bfb2e4252f09b5da89f31e2d45de8001e1"),
    "select keys.txt --t 3 --algorithm linear --format text": (0, "1df11bf60dc00352887146f2325224ad7f7567e0b75d59abe2a9baa25059ce43"),
    "select keys.txt --t 3 --algorithm linear --count --format json": (0, "9cfe7fa05e1eac8556ab2bad0d2481995dbd86c1dec1966162b6137d865aa05d"),
    "select keys.txt --t 3 --algorithm linear --count --format text": (0, "301625ae771b9c10585cb5ee5326449a9825b83b82662e6740eccaef40e5c034"),
    "select keys.txt --t 10 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: t out of range\n'),
    "select keys.txt --t 10 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: t out of range\n'),
    "select dup.txt --t 1 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: select input keys must be pairwise distinct\n'),
    "select dup.txt --t 1 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: select input keys must be pairwise distinct\n'),
    "twosat sat2.cnf --format json": (0, "22bbca7e086cb565f20443b105738ec3f03620e3d0c6ec8c0bf2847b6eae39ff"),
    "twosat sat2.cnf --format text": (0, "f56224d8813b2ea1fc3dacc021e7d2e17936fdd99ca423bd51303f617a81d8d4"),
    "twosat unsat.cnf --format json": (1, "5c701020f5e6023bab196c1cc59a3cc815529fc19147d31791879df3f0a9c080"),
    "twosat unsat.cnf --format text": (1, "9260930c92e96a157651f9dc9e27db2278111a47a3841dd76e7f866d7d055639"),
    "bench sorting --n-max 8 --trials 3 --seed 2 --format json": (0, "2fc98267a03249c08e6b1b2f1cc38b9ac0430e7b4e8a0ce502fc3eaec7f51eba"),
    "bench sorting --n-max 8 --trials 3 --seed 2 --format text": (0, "ffd17f78da2310c9964e875bc030e7d4a2938bdca7f606b4abb584badbf408ed"),
    "bench selection --n-max 20 --trials 3 --seed 2 --format json": (0, "cb125ad158454cc7c8008ca048ece858c10bd33829ebf1755801d9b7a1393c2f"),
    "bench selection --n-max 20 --trials 3 --seed 2 --format text": (0, "ca6692ed24a817b86be5b2f02966d796ef2ff56f6c06052b6bc937814155c7fe"),
    "bench search --n-max 5 --format json": (0, "ab659bfa9ce52034abbedee3a6e53de48e99257a952787958056db88c303ef32"),
    "bench search --n-max 5 --format text": (0, "1393c69e53ea8375df01f336b34d04b6abbae9790b69e55da406b49af2667ef3"),
    "gen graph --n 6 --seed 1": (0, "aaf696fe955c1588de618aa13c99c821ea7ffa21f2876975964370c35f8b83bb"),
    "gen digraph --n 5 --seed 1 --density 0.4": (0, "ce4b931985e9b8c41bf173e054de590ec9e04b8cb1fcfda0e1ee2d8848d325aa"),
    "gen metric --n 4 --seed 2": (0, "7d978ffb2b1dfd1577d07987c35ede8d78613137e2e39e86ee3553250429d564"),
    "gen gap --n 5 --seed 1 --eps 1/2": (0, "86c3e91e06169c4fa0f3b7adfc8aa4e342253b032c7446b11c48c1ac2d037258"),
    "gen knapsack --n 4 --seed 1": (0, "4c15f17ef34fee38f700c2e61f839112fdf1216a0c5228c21bad2997099fb04a"),
    "gen numbers --n 6 --seed 1": (0, "31fd53355bf5b3e924f4d75026b535096ae104c7cfbef1960db2427d230eb665"),
    "gen counterexample --n 3": (0, "8b95e80cf1a60dbcccec48ccc6f25bf714410a78f1c4978eb8c8bdc54f1dce37"),
    "gen graph --n 6 --seed 1 --format json": (0, "aaf696fe955c1588de618aa13c99c821ea7ffa21f2876975964370c35f8b83bb"),
    "gen graph --n 6 --seed 1 --format text": (0, "aaf696fe955c1588de618aa13c99c821ea7ffa21f2876975964370c35f8b83bb"),
    "gen digraph --n 5 --seed 1 --density 0.4 --format json": (0, "ce4b931985e9b8c41bf173e054de590ec9e04b8cb1fcfda0e1ee2d8848d325aa"),
    "gen digraph --n 5 --seed 1 --density 0.4 --format text": (0, "ce4b931985e9b8c41bf173e054de590ec9e04b8cb1fcfda0e1ee2d8848d325aa"),
    "gen metric --n 4 --seed 2 --format json": (0, "7d978ffb2b1dfd1577d07987c35ede8d78613137e2e39e86ee3553250429d564"),
    "gen metric --n 4 --seed 2 --format text": (0, "7d978ffb2b1dfd1577d07987c35ede8d78613137e2e39e86ee3553250429d564"),
    "gen gap --n 5 --seed 1 --eps 1/2 --format json": (0, "86c3e91e06169c4fa0f3b7adfc8aa4e342253b032c7446b11c48c1ac2d037258"),
    "gen gap --n 5 --seed 1 --eps 1/2 --format text": (0, "86c3e91e06169c4fa0f3b7adfc8aa4e342253b032c7446b11c48c1ac2d037258"),
    "gen knapsack --n 4 --seed 1 --format json": (0, "4c15f17ef34fee38f700c2e61f839112fdf1216a0c5228c21bad2997099fb04a"),
    "gen knapsack --n 4 --seed 1 --format text": (0, "4c15f17ef34fee38f700c2e61f839112fdf1216a0c5228c21bad2997099fb04a"),
    "gen numbers --n 6 --seed 1 --format json": (0, "31fd53355bf5b3e924f4d75026b535096ae104c7cfbef1960db2427d230eb665"),
    "gen numbers --n 6 --seed 1 --format text": (0, "31fd53355bf5b3e924f4d75026b535096ae104c7cfbef1960db2427d230eb665"),
    "gen counterexample --n 3 --format json": (0, "8b95e80cf1a60dbcccec48ccc6f25bf714410a78f1c4978eb8c8bdc54f1dce37"),
    "gen counterexample --n 3 --format text": (0, "8b95e80cf1a60dbcccec48ccc6f25bf714410a78f1c4978eb8c8bdc54f1dce37"),
}


@pytest.mark.parametrize("call", sorted(GOLDEN))
def test_golden_outputs(tmp_path, capsys, call):
    code, out, err = run(capsys, golden_argv(tmp_path, call))
    expected = GOLDEN[call]
    got = (code, hashlib.sha256(out.encode()).hexdigest(), err)
    assert got[: len(expected)] == expected


# Runs each call of a JSON list [[call, argv], ...] on stdin through
# cli.main and prints {call: [exit code, stdout sha256, stderr]}.
GOLDEN_CHILD = """
import contextlib, hashlib, io, json, sys
from combinlab.cli import main
got = {}
for call, argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    got[call] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()]
json.dump(got, sys.stdout)
"""


@pytest.mark.parametrize("seed", ["1", "2"])
def test_golden_outputs_under_other_hash_seeds(tmp_path, seed):
    # Every golden pin again, in one child process per hash seed, so that
    # no output may follow set or dict-of-str iteration order.  Each call
    # gets a directory of its own, since inline witnesses share file names.
    calls = []
    for i, call in enumerate(sorted(GOLDEN)):
        (tmp_path / str(i)).mkdir()
        calls.append([call, golden_argv(tmp_path / str(i), call)])
    src = str(Path(combinlab.__file__).parents[1])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", GOLDEN_CHILD], input=json.dumps(calls),
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    got = json.loads(proc.stdout)
    for call, expected in GOLDEN.items():
        assert tuple(got[call][: len(expected)]) == expected, call


@pytest.mark.parametrize("k", ["2", "3"])
def test_exact_cover_ties_do_not_follow_the_hash_seed(tmp_path, k):
    # The coloring gadget's elements are string-tagged tuples, whose set
    # iteration order follows the hash seed; the exact-cover search breaks
    # its ties by universe position instead.  Breaking them in set order,
    # k = 3 gave five outputs over these six seeds.
    argv = golden_argv(tmp_path, f"reduce coloring-exactcover path.g --k {k} --oracle --format json")
    src = str(Path(combinlab.__file__).parents[1])
    outs = set()
    for seed in range(6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "combinlab.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        outs.add(proc.stdout)
    assert len(outs) == 1


MALFORMED_FILES = {
    **GOLDEN_FILES,
    "list.json": "[1, 2]",
    "str-values.json": '{"values": ["a"], "volumes": [1], "capacity": 3}',
    "float-values.json": '{"values": [1.5], "volumes": [1], "capacity": 3}',
    "negative-capacity.json": '{"values": [1, 2], "volumes": [1, 1], "capacity": -1}',
    "str-numbers.json": '{"numbers": "abc", "target": 1}',
    "int-family.json": '{"universe": [1], "family": 5}',
    "int-rows.json": '{"rows": 5, "relations": [], "rhs": [], "bounds": []}',
    "list-elements.json": '{"universe": [[1], [2]], "family": [[[1]], [[2]]]}',
    "zero-den.g": "p 3 2\ne 1 2 1\ne 2 3 1/0\n",
    "zero-den.d": "pd 3 2\na 1 2 1\na 2 3 1/0\n",
    "zero-den-sizes.txt": "1/2 1/0\n",
    "w.d": "pd 3 2\na 1 2 1\na 2 3 2\n",
    "repeat.g": "p 2 2\ne 1 2 5\ne 1 2 7\n",
    "flipped.g": "p 2 2\ne 1 2 5\ne 2 1 7\n",
    "repeat.d": "pd 2 2\na 1 2 5\na 1 2 7\n",
    "misaligned-kd.json": '{"values": [5, 6, 7], "volumes": [1, 2], "capacity": 10, "goal": 12}',
    "deep.json": "[" * 10**5 + "]" * 10**5,
    "banana.cnf": "p cnf 2 banana\n1 -2 0\n",
    "negative-count.cnf": "p cnf 2 -1\n1 -2 0\n",
    "negative-vars.cnf": "p cnf -3 0\n",
}


TARGET_OUT_OF_RANGE = [
    "solve dijkstra w.d --target 9",
    "solve dijkstra w.d --target 0",
    "solve shortest w.g --target 9",
    "solve shortest w.g --target 0",
]


def assert_input_error(tmp_path, capsys, call):
    code, out, err = run(capsys, golden_argv(tmp_path, call, MALFORMED_FILES))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


# kd.json is a knapsack-decision instance: it has no "numbers" key.
MISSING_KEY = {
    "verify knapsack01 kd.json [1]": "error: instance is missing the key 'numbers'\n",
    "reduce knapsack-partition kd.json": "error: instance is missing the key 'numbers'\n",
    "reduce knapsack-ilp kd.json": "error: instance is missing the key 'numbers'\n",
    "solve knapsack k01.json": "error: instance is missing the key 'capacity'\n",
}

# A weight map holds one weight per link, so a weighted file may not repeat one.
REPEATED_LINK = {
    "solve prim repeat.g": "error: repeated edge (1, 2) in a weighted graph\n",
    "solve prim flipped.g": "error: parallel edge (1, 2)\n",
    "solve dijkstra repeat.d": "error: repeated arc (1, 2) in a weighted graph\n",
}

# A rational token with a zero denominator is bad input like any other.
ZERO_DENOMINATOR = {
    "approx binpack zero-den-sizes.txt": "error: bad size '1/0': zero denominator\n",
    "approx knapsack-fptas ks.json --eps 1/0": "error: bad eps '1/0': zero denominator\n",
    "gen gap --n 4 --eps 1/0": "error: bad eps '1/0': zero denominator\n",
}

# Each item has one value and one volume.
MISALIGNED = {
    "verify knapsack-decision misaligned-kd.json [1,1,1]": "error: values and volumes must align\n",
}

# JSON nested deeper than json's decoder recurses, as an instance or a witness.
TOO_DEEP = {
    "verify sat f.cnf deep.json": "error: JSON nested too deeply\n",
    "solve knapsack deep.json": "error: JSON nested too deeply\n",
    "reduce is-vc tri.g --k 1 --witness deep.json": "error: JSON nested too deeply\n",
}

# A DIMACS header's clause count must be an int >= 0 (it need not match).
BAD_CLAUSE_COUNT = {
    "twosat banana.cnf": "error: bad DIMACS header: p cnf 2 banana\n",
    "reduce sat-3sat negative-count.cnf": "error: bad DIMACS header: p cnf 2 -1\n",
    "twosat negative-vars.cnf": "error: bad DIMACS header: p cnf -3 0\n",
}

# Euler cycles, connected components, the NP problems on graphs but
# ham-circuit, and the vertex-cover and max-cut heuristics are defined on
# undirected graphs; ham-circuit, the other way round, needs a digraph.
UNDIRECTED_ONLY = {
    "solve euler cyc.d": "error: euler needs an undirected graph\n",
    "solve components cyc.d": "error: components needs an undirected graph\n",
    "reduce clique-is cyc.d --k 1": "error: clique needs an undirected graph\n",
    "reduce is-vc cyc.d --k 1": "error: independent-set needs an undirected graph\n",
    "reduce vc-setcover cyc.d --k 1": "error: vertex-cover needs an undirected graph\n",
    "reduce vc-hamcircuit cyc.d --k 1": "error: vertex-cover needs an undirected graph\n",
    "reduce coloring-exactcover cyc.d --k 2": "error: coloring needs an undirected graph\n",
    "reduce hamcycle-tsp cyc.d": "error: ham-cycle needs an undirected graph\n",
    "verify clique cyc.d [1] --k 1": "error: clique needs an undirected graph\n",
    "verify independent-set cyc.d [1] --k 1": "error: independent-set needs an undirected graph\n",
    "verify vertex-cover cyc.d [1] --k 1": "error: vertex-cover needs an undirected graph\n",
    'verify coloring cyc.d {"1":1,"2":2,"3":3} --k 3': "error: coloring needs an undirected graph\n",
    "verify ham-cycle cyc.d [1,2,3]": "error: ham-cycle needs an undirected graph\n",
    "approx vc-matching cyc.d": "error: vc-matching needs an undirected graph\n",
    "approx vc-greedy cyc.d": "error: vc-greedy needs an undirected graph\n",
    "approx maxcut cyc.d": "error: maxcut needs an undirected graph\n",
    "reduce hamcircuit-hamcycle sq.g": "error: ham-circuit needs a digraph\n",
}


@pytest.mark.parametrize(
    "call",
    [
        "solve knapsack list.json",
        "approx knapsack-fptas list.json",
        "solve allocate list.json",
        "solve knapsack str-values.json",
        "solve knapsack float-values.json",
        "solve knapsack negative-capacity.json",
        "approx knapsack-fptas negative-capacity.json",
        "reduce knapsack-partition str-numbers.json",
        "reduce exactcover-knapsack int-family.json",
        "verify knapsack01 list.json [1]",
        "verify ilp int-rows.json [1]",
        "verify exact-cover list-elements.json [1]",
        "solve euler zero-den.g",
        "solve kruskal zero-den.g",
        "solve dijkstra zero-den.d",
        *TARGET_OUT_OF_RANGE,
        *MISSING_KEY,
        *UNDIRECTED_ONLY,
        *REPEATED_LINK,
        *ZERO_DENOMINATOR,
        *MISALIGNED,
        *TOO_DEEP,
        *BAD_CLAUSE_COUNT,
    ],
)
def test_malformed_instance_exits_2(tmp_path, capsys, call):
    err = assert_input_error(tmp_path, capsys, call)
    expected = {**MISSING_KEY, **UNDIRECTED_ONLY, **REPEATED_LINK, **ZERO_DENOMINATOR, **MISALIGNED,
                **TOO_DEEP, **BAD_CLAUSE_COUNT}.get(call)
    if expected is not None:
        assert err == expected


@pytest.mark.parametrize("call", TARGET_OUT_OF_RANGE)
def test_target_out_of_range_is_named(tmp_path, capsys, call):
    code, out, err = run(capsys, golden_argv(tmp_path, call, MALFORMED_FILES))
    assert (code, out, err) == (2, "", "error: target out of range\n")


@pytest.mark.parametrize(
    "call",
    [
        "verify partition nums.txt [[1]]",
        "verify set-cover sc.json [[1]] --k 1",
        "reduce vc-setcover path.g --k 1 --witness [[1]]",
        "verify ham-cycle sq.g [1,2,3,\"a\"]",
        "reduce hamcircuit-hamcycle cyc.d --witness [1,2,\"a\"]",
        'reduce coloring-exactcover path.g --k 2 --witness {"1":1,"2":2,"3":[]}',
        'reduce coloring-exactcover path.g --k 2 --witness {"1":1,"2":2,"3":3}',
    ],
)
def test_malformed_witness_exits_2(tmp_path, capsys, call):
    assert_input_error(tmp_path, capsys, call)


@pytest.mark.parametrize(
    "call",
    [
        "reduce sat-clique f.cnf --witness [1,0,0]",
        "reduce 3sat-coloring f3.cnf --witness [1,0,0]",
    ],
)
def test_unsatisfying_witness_is_not_transported(tmp_path, capsys, call):
    assert_input_error(tmp_path, capsys, call)


# --- token-level fuzzing ----------------------------------------------------

# One call per loader and then some: graph text, DIMACS, JSON instances,
# inline witnesses (written to files), bin-size and number lists, matrices.
FUZZ_CALLS = [
    "solve euler euler.g",
    "solve dijkstra wd.d --target 3",
    "solve prim w.g",
    "solve floyd negcyc.d",
    "solve scc scc.d",
    "approx vc-matching tri.g --oracle",
    "approx maxcut tri.g --oracle",
    "reduce clique-is tri.g --k 3 --witness [1,2,3] --oracle",
    "reduce hamcycle-tsp sq.g --witness [1,2,3,4] --oracle",
    'reduce coloring-exactcover path.g --k 2 --witness {"1":1,"2":2,"3":1}',
    "twosat sat2.cnf",
    "reduce sat-clique f.cnf --witness [1,1,0] --oracle",
    "verify 3sat f3.cnf [1,1,0]",
    "solve knapsack ks.json",
    "approx knapsack-fptas ks.json --eps 1/10 --oracle",
    "solve allocate alloc.json",
    "approx setcover sc.json --oracle",
    "reduce exactcover-knapsack ec.json --witness [1,2] --oracle",
    "reduce knapsack-partition k01.json --witness [1,0,1] --oracle",
    "verify ilp ilp.json [2,0]",
    "approx binpack sizes.txt --oracle",
    "approx tsp-christofides pq.txt --oracle",
    "reduce tsp-ilp m.txt --limit 4 --witness [1,2,3] --oracle",
    "sort mergeinsertion keys.txt --count",
    "select keys.txt --t 3 --algorithm linear",
    "solve chain dims.txt",
]

# Small values only: a count such as `p 99999 4` is a slow input, not a fault.
FUZZ_POOL = ["-1", "0", "1/0", "3/2", "x", "[]", "{}", "null", "true", "2", '"a"']
FUZZ_TOKENS = re.compile(r'"[^"]*"|[\[\]{}:,]|[^\s\[\]{}:,"]+|\s+')


def mutate_tokens(rng, text):
    """Replace, delete or duplicate one to three tokens of `text`: JSON
    strings and punctuation, or runs of other non-blank characters."""
    pieces = FUZZ_TOKENS.findall(text)
    tokens = [i for i, piece in enumerate(pieces) if not piece.isspace()]
    if not tokens:
        return rng.choice(FUZZ_POOL)
    for _ in range(rng.randint(1, 3)):
        i = rng.choice(tokens)
        op = rng.randrange(3)
        if op == 0:
            pieces[i] = rng.choice(FUZZ_POOL)
        elif op == 1:
            pieces[i] = ""
        else:
            pieces[i] = f"{pieces[i]} {pieces[i]}"
    return "".join(pieces)


def test_token_fuzz_exits_with_a_code_and_never_a_traceback(tmp_path, capsys):
    # Each mutation rewrites one input of one call.
    rng = random.Random(1)
    calls = []
    for call in FUZZ_CALLS:
        argv, inputs = [], []
        for tok in call.split():
            if tok in GOLDEN_FILES or tok[0] in "[{":
                inputs.append(GOLDEN_FILES.get(tok, tok))
                tok = str(tmp_path / f"in{len(inputs) - 1}")
            argv.append(tok)
        calls.append((argv, inputs))
    codes = set()
    for _ in range(1000):
        argv, inputs = rng.choice(calls)
        texts = list(inputs)
        j = rng.randrange(len(texts))
        texts[j] = mutate_tokens(rng, texts[j])
        for k, text in enumerate(texts):
            (tmp_path / f"in{k}").write_text(text)
        code = main(argv)  # an exception escaping here fails the test
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, texts)
        if code >= 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, texts, err)
        codes.add(code)
    assert codes >= {0, 2}
