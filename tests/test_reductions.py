"""The reductions that build their targets from one list, each against the
builder it replaced, kept here as a reference: equal target records and
equal forward/backward results on seeded sources and witnesses.  Also the
shared check of set-shaped witnesses."""

import itertools
import random
from fractions import Fraction

import pytest

from combinlab.complexity import (
    Clique,
    CnfFormula,
    Coloring,
    ExactCover,
    Ilp,
    IndependentSet,
    Knapsack01,
    Partition,
    ReductionOutput,
    Representatives,
    Sat,
    SetCover,
    ThreeSat,
    Tsp,
    VertexCover,
    WitnessFormatError,
    apply_simple_reduction,
    brute_force_decide,
    cnf,
    sat_to_3sat,
    verify_witness,
)
from combinlab.complexity import _as_assignment, _member_set
from combinlab.graph_core import Graph

# --- the reference builders: each appends to parallel lists ------------------


def reference_sat_to_3sat(f):
    if not f.clauses:
        raise ValueError("needs at least one clause")
    clauses = []
    next_var = f.num_vars + 1
    plans = []
    for clause in f.clauses:
        lits = list(clause)
        if len(lits) == 1:
            z, w = next_var, next_var + 1
            next_var += 2
            x = lits[0]
            clauses.extend([(x, z, w), (x, z, -w), (x, -z, w), (x, -z, -w)])
            plans.append({"kind": "unit", "fresh": [z, w]})
        elif len(lits) == 2:
            w = next_var
            next_var += 1
            x, y = lits
            clauses.extend([(x, y, w), (x, y, -w)])
            plans.append({"kind": "pair", "fresh": [w]})
        elif len(lits) == 3:
            clauses.append(tuple(lits))
            plans.append({"kind": "triple", "fresh": []})
        else:
            chain = []
            rest = lits
            while len(rest) > 3:
                w = next_var
                next_var += 1
                clauses.append((rest[0], rest[1], w))
                chain.append(w)
                rest = [-w] + rest[2:]
            clauses.append(tuple(rest))
            plans.append({"kind": "chain", "fresh": chain, "lits": lits})
    target = CnfFormula(next_var - 1, tuple(clauses))

    def forward(assignment):
        ext = list(_as_assignment(assignment, f.num_vars))

        def sat_lit(l):
            return ext[abs(l) - 1] == (l > 0)

        for plan in plans:
            if plan["kind"] in ("unit", "pair"):
                ext.extend([False] * len(plan["fresh"]))
            elif plan["kind"] == "chain":
                lits = plan["lits"]
                for pos in range(len(plan["fresh"])):
                    ext.append(not any(sat_lit(l) for l in lits[: 2 + pos]))
        return ext

    def backward(assignment):
        return _as_assignment(assignment, target.num_vars)[: f.num_vars]

    return ReductionOutput(Sat(f), ThreeSat(target), forward, backward)


def reference_coloring_to_exact_cover(problem):
    g, k = problem.graph, problem.k
    universe = tuple(
        [("v", v) for v in range(1, g.n + 1)]
        + [("slot", i, e) for i in range(1, k + 1) for e in g.edges]
    )
    family = []
    labels = []
    for v in range(1, g.n + 1):
        for i in range(1, k + 1):
            members = {("v", v)} | {("slot", i, e) for e in g.edges if v in e}
            family.append(frozenset(members))
            labels.append(("S", v, i))
    for e in g.edges:
        for i in range(1, k + 1):
            family.append(frozenset({("slot", i, e)}))
            labels.append(("T", e, i))
    target = ExactCover(universe, tuple(family))
    index_of = {lab: idx + 1 for idx, lab in enumerate(labels)}

    def forward(coloring):
        if not all(isinstance(c, int) and 1 <= c <= k for c in coloring.values()):
            raise ValueError(f"colours must be integers in 1..{k}")
        chosen = {index_of[("S", v, coloring[v])] for v in range(1, g.n + 1)}
        covered = set()
        for idx in chosen:
            covered |= target.family[idx - 1]
        for e in g.edges:
            for i in range(1, k + 1):
                if ("slot", i, e) not in covered:
                    chosen.add(index_of[("T", e, i)])
        return chosen

    def backward(subfamily):
        colors = {}
        for idx in _member_set(subfamily, "index", len(family)):
            lab = labels[idx - 1]
            if lab[0] == "S":
                _, v, i = lab
                colors[v] = i
        return colors

    return ReductionOutput(problem, target, forward, backward)


def reference_knapsack01_to_ilp(problem):
    n = len(problem.numbers)
    rows = [tuple(problem.numbers)]
    relations = ["=="]
    rhs = [problem.target]
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        rows.append(tuple(unit))
        relations.append("<=")
        rhs.append(1)
    target = Ilp(tuple(rows), tuple(relations), tuple(rhs), tuple((0, 1) for _ in range(n)))

    def forward(x):
        return [int(b) for b in _as_assignment(x, n)]

    def backward(x):
        return [int(b) for b in x]

    return ReductionOutput(problem, target, forward, backward)


def reference_set_cover_to_ilp(problem):
    m = len(problem.family)
    k_eff = min(problem.k, m)
    rows = []
    relations = []
    rhs = []
    for a in problem.universe:
        rows.append(tuple(1 if a in s else 0 for s in problem.family))
        relations.append(">=")
        rhs.append(1)
    rows.append(tuple([1] * m))
    relations.append("==")
    rhs.append(k_eff)
    for i in range(m):
        unit = [0] * m
        unit[i] = 1
        rows.append(tuple(unit))
        relations.append("<=")
        rhs.append(1)
    target = Ilp(tuple(rows), tuple(relations), tuple(rhs), tuple((0, 1) for _ in range(m)))

    def forward(idxs):
        chosen = set(_member_set(idxs, "index", m))
        for i in range(1, m + 1):
            if len(chosen) >= k_eff:
                break
            chosen.add(i)
        return [1 if i in chosen else 0 for i in range(1, m + 1)]

    def backward(x):
        return {i + 1 for i, b in enumerate(x) if b}

    return ReductionOutput(problem, target, forward, backward)


def reference_tsp_to_ilp(problem):
    n = len(problem.matrix)
    arc_vars = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    u_vars = list(range(2, n + 1))
    width = len(arc_vars) + len(u_vars)
    col = {("x", i, j): idx for idx, (i, j) in enumerate(arc_vars)}
    for idx, i in enumerate(u_vars):
        col[("u", i)] = len(arc_vars) + idx
    rows = []
    relations = []
    rhs = []

    def row_of(entries):
        r = [0] * width
        for key, coef in entries:
            r[col[key]] = coef
        return tuple(r)

    rows.append(row_of([(("x", i, j), problem.matrix[i - 1][j - 1]) for (i, j) in arc_vars]))
    relations.append("<=")
    rhs.append(problem.limit)
    for i in range(1, n + 1):
        rows.append(row_of([(("x", i, j), 1) for j in range(1, n + 1) if j != i]))
        relations.append("==")
        rhs.append(1)
    for j in range(1, n + 1):
        rows.append(row_of([(("x", i, j), 1) for i in range(1, n + 1) if i != j]))
        relations.append("==")
        rhs.append(1)
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            if i == j:
                continue
            rows.append(row_of([(("u", i), 1), (("u", j), -1), (("x", i, j), n)]))
            relations.append("<=")
            rhs.append(n - 1)
    for (i, j) in arc_vars:
        rows.append(row_of([(("x", i, j), 1)]))
        relations.append("<=")
        rhs.append(1)
    bounds = tuple([(0, 1)] * len(arc_vars) + [(0, n - 1)] * len(u_vars))
    target = Ilp(tuple(rows), tuple(relations), tuple(rhs), bounds)

    def forward(tour):
        seq = list(tour)
        at = seq.index(1) if seq else 0
        seq = seq[at:] + seq[:at]
        x = [0] * width
        for a, b in zip(seq, seq[1:] + seq[:1]):
            x[col[("x", a, b)]] = 1
        for rank, city in enumerate(seq):
            if city != 1:
                x[col[("u", city)]] = rank
        return x

    def backward(x):
        succ = {}
        for (i, j) in arc_vars:
            if x[col[("x", i, j)]]:
                succ[i] = j
        tour = [1] if n else []
        while len(tour) < n:
            tour.append(succ[tour[-1]])
        return tour

    return ReductionOutput(problem, target, forward, backward)


# --- seeded sources -----------------------------------------------------------


def sat_sources(rng):
    """Clauses of 1, 2, 3, 5, 6 and 8 literals over up to 6 variables,
    duplicate and complementary literals included."""
    for _ in range(120):
        n = rng.randint(1, 6)
        widths = [rng.choice((1, 2, 3, 5, 6, 8)) for _ in range(rng.randint(1, 5))]
        clauses = [tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(w)) for w in widths]
        yield Sat(cnf(n, clauses))
    yield Sat(cnf(5, [(1, 2, 3, 4, 5)]))
    yield Sat(cnf(1, [(1,), (-1,)]))


def coloring_sources(rng):
    yield Coloring(Graph(0, []), 1)
    yield Coloring(Graph(4, []), 1)  # edgeless
    yield Coloring(Graph(4, []), 3)
    yield Coloring(Graph(3, [(1, 2), (2, 3)]), 1)
    for _ in range(40):
        n = rng.randint(1, 5)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.5]
        yield Coloring(Graph(n, edges), rng.randint(1, 3))


def knapsack_sources(rng):
    yield Knapsack01((), 0)
    yield Knapsack01((), 3)
    for _ in range(30):
        numbers = tuple(rng.randint(-3, 12) for _ in range(rng.randint(1, 7)))
        yield Knapsack01(numbers, rng.randint(0, sum(map(abs, numbers))))


def set_cover_sources(rng):
    yield SetCover((), (), 0)  # an empty universe
    yield SetCover((), (frozenset({1}), frozenset()), 1)
    yield SetCover((), (frozenset({"a"}),), 3)
    for _ in range(40):
        universe = tuple(range(1, rng.randint(1, 5) + 1))
        family = [frozenset(a for a in universe if rng.random() < 0.5) for _ in range(rng.randint(0, 5))]
        family.append(frozenset(universe))  # so the family covers the universe
        rng.shuffle(family)
        m = len(family)
        k = rng.choice((-2, -1, 0, 1, m - 1, m, m + 1, m + 3))  # k <= 0 and k > m among them
        yield SetCover(universe, tuple(family), k)


def tsp_sources(rng):
    for n in (0, 1, 2, 3, 4, 5, 5, 5):
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    matrix[i][j] = rng.choice((rng.randint(1, 9), Fraction(rng.randint(1, 9), 2)))
        yield Tsp(tuple(map(tuple, matrix)), rng.randint(0, 5 * max(n, 1)))


# --- seeded witnesses ---------------------------------------------------------


def assignments(rng, n, count=12):
    return [[rng.random() < 0.5 for _ in range(n)] for _ in range(count)] + [[1, 0] * (n // 2) + [1] * (n % 2)]


def sat_witnesses(rng, red):
    n = red.source.formula.num_vars
    every = itertools.product((False, True), repeat=n) if n <= 6 else ()
    return [list(a) for a in every], assignments(rng, red.target.formula.num_vars)


def coloring_witnesses(rng, red):
    g, k = red.source.graph, red.source.k
    colorings = [{v: rng.randint(1, k) for v in range(1, g.n + 1)} for _ in range(12)]
    m = len(red.target.family)
    subfamilies = [{i for i in range(1, m + 1) if rng.random() < 0.3} for _ in range(12)]
    subfamilies += [red.forward(c) for c in colorings]
    found = brute_force_decide(red.target) if m <= 40 else None  # the exact cover cap
    return colorings, subfamilies + ([found] if found is not None else [])


def knapsack_witnesses(rng, red):
    n = len(red.source.numbers)
    return assignments(rng, n), assignments(rng, n)


def set_cover_witnesses(rng, red):
    m = len(red.source.family)
    idxs = [[i for i in range(1, m + 1) if rng.random() < 0.5] for _ in range(12)]
    return idxs, assignments(rng, m)


def tsp_witnesses(rng, red):
    n = len(red.source.matrix)
    tours = []
    for _ in range(12):
        tour = list(range(1, n + 1))
        rng.shuffle(tour)
        tours.append(tour)
    xs = [red.forward(t) for t in tours] if n != 1 else []  # one city has no arc to leave by
    found = brute_force_decide(red.target) if n <= 3 else None
    return tours, xs + ([found] if found is not None else [])


def outcome(fn, w):
    """The result of one witness map, with the order of a set or dict, or
    the error it raises."""
    try:
        got = fn(w)
    except (ValueError, KeyError, TypeError) as exc:
        return type(exc), str(exc)
    if isinstance(got, dict):
        return "dict", list(got.items())
    if isinstance(got, set):
        return "set", list(got)
    return "value", repr(got)


CASES = {
    "sat-3sat": (sat_sources, reference_sat_to_3sat, lambda p: sat_to_3sat(p.formula), sat_witnesses),
    "coloring-exactcover": (coloring_sources, reference_coloring_to_exact_cover, "ColoringToExactCover",
                            coloring_witnesses),
    "knapsack-ilp": (knapsack_sources, reference_knapsack01_to_ilp, "Knapsack01ToIlp", knapsack_witnesses),
    "setcover-ilp": (set_cover_sources, reference_set_cover_to_ilp, "SetCoverToIlp", set_cover_witnesses),
    "tsp-ilp": (tsp_sources, reference_tsp_to_ilp, "TspToIlp", tsp_witnesses),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rewritten_builders_match_their_references(case):
    sources, reference, reduce, witnesses = CASES[case]
    rng = random.Random(2801)
    count = 0
    for source in sources(rng):
        ref = reference(source.formula if isinstance(source, Sat) else source)
        red = reduce(source) if callable(reduce) else apply_simple_reduction(reduce, source)
        assert red.source == ref.source
        assert type(red.target) is type(ref.target) and red.target == ref.target
        if isinstance(red.target, ExactCover):  # a frozenset's repr follows its hash order
            assert red.target.describe() == ref.target.describe()
            assert red.target.universe == ref.target.universe
        else:
            assert repr(red.target) == repr(ref.target)
        forwards, backwards = witnesses(rng, red)
        for w in forwards:
            assert outcome(red.forward, w) == outcome(ref.forward, w), (source, w)
        for w in backwards:
            assert outcome(red.backward, w) == outcome(ref.backward, w), (source, w)
        count += 1
    assert count >= 8


def test_sat_to_3sat_clause_widths():
    """Widths 1, 2 and 3 pad to 4, 2 and 1 triples; width w > 3 chains
    into w - 2 triples over w - 3 fresh variables."""
    for width, triples, fresh in ((1, 4, 2), (2, 2, 1), (3, 1, 0), (5, 3, 2), (7, 5, 4)):
        f = cnf(7, [tuple(range(1, width + 1))])
        target = sat_to_3sat(f).target.formula
        assert (len(target.clauses), target.num_vars) == (triples, 7 + fresh)
    assert sat_to_3sat(cnf(5, [(1, 2, 3, 4, 5)])).target.formula.clauses == ((1, 2, 6), (-6, 3, 7), (-7, 4, 5))
    with pytest.raises(ValueError):
        sat_to_3sat(cnf(1, []))


def test_ilp_targets_end_with_one_at_most_one_row_per_binary_column():
    red = apply_simple_reduction("TspToIlp", Tsp(((0, 1, 2), (1, 0, 1), (2, 1, 0)), 4))
    arcs = 6
    tail = red.target.rows[-arcs:]
    assert [row.index(1) for row in tail] == list(range(arcs))
    assert all(sum(row) == 1 for row in tail)
    assert red.target.relations[-arcs:] == ("<=",) * arcs and red.target.rhs[-arcs:] == (1,) * arcs
    assert red.target.bounds == ((0, 1),) * arcs + ((0, 2),) * 2


# --- set-shaped witnesses -----------------------------------------------------

G = Graph(2, [(1, 2)])
FAMILY = (frozenset({1}), frozenset({2}))

# problem -> the message of a member outside it
SET_SHAPED = [
    (Clique(G, 1), "vertex out of range"),
    (IndependentSet(G, 1), "vertex out of range"),
    (VertexCover(G, 1), "vertex out of range"),
    (ExactCover((1, 2), FAMILY), "index out of range"),
    (SetCover((1, 2), FAMILY, 1), "index out of range"),
    (Representatives((1, 2), (frozenset({1}),)), "representative outside the universe"),
    (Partition((1, 1)), "index out of range"),
]


@pytest.mark.parametrize("problem, message", SET_SHAPED, ids=[type(p).__name__ for p, _ in SET_SHAPED])
@pytest.mark.parametrize("w", [[[1]], [{1: 2}], ([1], 1), [1, set()]], ids=["list", "dict", "tuple", "set"])
def test_unhashable_members_are_malformed_witnesses(problem, message, w):
    with pytest.raises(WitnessFormatError, match=f"^{message}$"):
        verify_witness(problem, w)


@pytest.mark.parametrize("problem, message", SET_SHAPED, ids=[type(p).__name__ for p, _ in SET_SHAPED])
def test_set_shaped_witness_messages(problem, message):
    with pytest.raises(WitnessFormatError, match=f"^{message}$"):
        verify_witness(problem, [3])
    with pytest.raises(WitnessFormatError, match="^expected "):
        verify_witness(problem, 1)
    assert verify_witness(problem, [1]) in (True, False)
