"""NP problems, one `Problem` class each (loader, description, witness
decoder, verifier and desk-scale brute-force oracle), a reduction compiler
with bidirectional witness maps registered in `REDUCTIONS`, and the
polynomial 2-SAT solver.

SAT, 3-SAT, both knapsacks and partition return the first witness of an
enumeration without trying each candidate.  SAT and 3-SAT AND the
clauses' truth tables, held as big integers over the last <= 16
variables, in itertools.product order.  The knapsacks, partition and
approx.knapsack_optimum meet in the middle over `_halves`, the subset
sums of each half of the items in product order; knapsack decision and
the optimum pair each first-half subset with the second halves that fit
it in one sweep, `_most_fitting`.  `_first_subset` (subsets by size, then
in combinations order) serves set cover (`_first_cover`'s bit-mask union,
shared with approx.set_cover_optimum) and representatives (`verify`).
The searches with predicates of their own check their witness once with
`verify`.  The backtracking oracles (coloring, exact cover, ILP,
Hamiltonicity) and approx.bin_pack_optimum share one explicit-stack walk,
`_depth_first`, over immutable states.  TSP and approx.tsp_optimum share
`_held_karp`; the graph deciders and approx.vertex_cover_optimum share
`_most_independent`.

Literals are DIMACS-style signed integers (+v / -v); a clause is a tuple
of literals; assignments are lists of booleans indexed from variable 1.
CNF input/output uses the DIMACS cnf format.  Set systems and ILP ride in
JSON, graphs in the shared text format.
"""

from __future__ import annotations

import itertools
import math
import os
from collections.abc import Callable
from fractions import Fraction

from .graph_core import (
    Digraph,
    Graph,
    exact_fraction,
    format_graph_text,
    parse_graph_text,
    scc_kosaraju,
)
from .intmath import (  # InstanceTooLargeError and parse_numbers are re-exported
    InstanceTooLargeError,
    _FrozenRecord,
    _Record,
    exact_int,
    exact_int_rows,
    exact_ints,
    json_object,
    parse_numbers,
    refuse_floats,
)


class WitnessFormatError(ValueError):
    """Witness shape does not match the problem (distinct from False)."""


# --- CNF ------------------------------------------------------------------


class CnfFormula(_FrozenRecord):
    __slots__ = ("num_vars", "clauses")
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def _check(self):
        exact_int(self.num_vars, "num_vars")
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if type(lit) is not int:
                    raise ValueError(f"literal {lit!r} is not an integer")
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")

    @property
    def is_three_cnf(self) -> bool:
        return all(len(c) == 3 for c in self.clauses)

    def evaluate(self, assignment: list[bool]) -> bool:
        return all(
            any(assignment[abs(l) - 1] == (l > 0) for l in clause)
            for clause in self.clauses
        )


def cnf(num_vars: int, clauses) -> CnfFormula:
    return CnfFormula(num_vars, tuple(tuple(c) for c in clauses))


def parse_dimacs(text: str) -> CnfFormula:
    """The formula of a DIMACS CNF text.  Lines starting with c or % are
    skipped.  A clause ends at a 0 and may span lines."""
    num_vars = None
    body = []
    for line in map(str.strip, text.splitlines()):
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line}")
            num_vars = int(parts[2])
        else:
            body.append(line)
    lits = list(map(int, " ".join(body).split()))
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    if lits and lits[-1] != 0:
        raise ValueError("clause not 0-terminated")
    clauses = []
    start = 0
    for _ in range(lits.count(0)):
        end = lits.index(0, start)
        clauses.append(tuple(lits[start:end]))
        start = end + 1
    return CnfFormula(num_vars, tuple(clauses))


def format_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for clause in f.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> list[list]:
    """Square whitespace grid of integers and p/q rationals."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    try:
        matrix = [[exact_fraction(tok, "entry") if "/" in tok else int(tok) for tok in row]
                  for row in rows]
    except ValueError as exc:
        raise ValueError(f"bad matrix: {exc}") from None
    if any(len(r) != len(matrix) for r in matrix):
        raise ValueError("matrix must be square")
    return matrix


def parse_set_system(text: str):
    """(universe, family, k or None) from {"universe", "family", "k"} JSON."""
    data = json_object(text)
    universe, family, k = data["universe"], data["family"], data.get("k")
    sets = [universe, *family] if isinstance(family, list) else [family]
    if not all(isinstance(s, list) for s in sets):
        raise ValueError("universe and family sets must be JSON lists")
    if any(isinstance(a, (list, dict)) for s in sets for a in s):
        raise ValueError("set elements must be numbers or strings")
    if k is not None:
        exact_int(k, "k")
    return tuple(universe), tuple(frozenset(s) for s in family), k


# --- problems ---------------------------------------------------------------


PROBLEMS: dict[str, type] = {}  # CLI kind -> problem class


class Problem(_FrozenRecord):
    """One NP decision problem, an immutable record of its instance.  A
    subclass holds all of its problem's facts: `kind`, its CLI name;
    load(text, k, limit), from an instance file and the CLI's --k /
    --limit; describe(); witness(json_value), the decoder; verify(w), which
    raises WitnessFormatError on a malformed witness; and search(), the
    first verifying witness or None."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "kind" in vars(cls):
            PROBLEMS[cls.kind] = cls

    def witness(self, w):
        return w


class _SetWitness(Problem):
    __slots__ = ()

    def witness(self, w):  # JSON lists arrive as sets
        if not isinstance(w, list):
            return w
        if any(isinstance(x, (list, dict)) for x in w):
            raise WitnessFormatError("set members must be numbers or strings")
        return set(w)


class _Cnf(Problem):
    __slots__ = ("formula",)
    formula: CnfFormula

    @classmethod
    def load(cls, text, k, limit):
        return cls(parse_dimacs(text))

    def describe(self):
        return {"dimacs": format_dimacs(self.formula)}

    def verify(self, w):
        return self.formula.evaluate(_as_assignment(w, self.formula.num_vars))

    def search(self):
        """The first model in itertools.product order, by truth tables
        (Knuth, TAOCP 4A, 7.1.3): bit a of a literal's table is its value
        in the a-th vector over the last k <= 16 variables, so no table
        grows with the cap.  The leading variables are walked in product
        order, each prefix setting their literals' tables to all ones or
        to 0, so a clause the prefix satisfies clears no model.  The
        formula's table is the AND of its clauses' ORs, and its lowest set
        bit is the first model under the prefix."""
        n = self.formula.num_vars
        _within_cap(n, "bool_vars")
        k = min(n, 16)
        lead, width = n - k, 1 << k
        full, table = (1 << width) - 1, {}
        for v in range(lead + 1, n + 1):  # period: the run of equal values
            period = 1 << (n - v)
            x, span = ((1 << period) - 1) << period, 2 * period
            while span < width:
                x |= x << span
                span *= 2
            table[v], table[-v] = x, full ^ x
        for q in range(1 << lead):
            prefix = [q >> (lead - v) & 1 == 1 for v in range(1, lead + 1)]
            for v, value in enumerate(prefix, 1):
                table[v], table[-v] = (full, 0) if value else (0, full)
            models = full
            for clause in self.formula.clauses:
                either = 0
                for l in clause:
                    either |= table[l]
                models &= either
                if not models:
                    break
            if models:
                a = (models & -models).bit_length() - 1
                return _verified(self, prefix + [a >> (k - j) & 1 == 1 for j in range(1, k + 1)])
        return None


class Sat(_Cnf):
    kind = "sat"
    __slots__ = ()


class ThreeSat(_Cnf):
    kind = "3sat"
    __slots__ = ()

    def _check(self):
        if not self.formula.is_three_cnf:
            raise ValueError("not a 3-CNF formula")


class _GraphK(_SetWitness):
    __slots__ = ("graph", "k")
    graph: Graph
    k: int

    def _check(self):
        exact_int(self.k, "k")

    @classmethod
    def load(cls, text, k, limit):
        if k is None:
            raise ValueError(f"{cls.kind} needs --k")
        return cls(parse_graph_text(text), k)

    def describe(self):
        return {"graph": format_graph_text(self.graph), "k": self.k}


class Clique(_GraphK):
    kind = "clique"
    __slots__ = ()

    def verify(self, w):
        vs = _as_vertex_set(w, self.graph.n)
        if len(vs) < self.k:
            return False
        return all(
            self.graph.has_edge(u, v) for u, v in itertools.combinations(vs, 2)
        )

    def search(self):
        """The first k-clique: an independent set of the complement, which
        is built only under the cap."""
        _within_cap(self.graph.n, "vertex_cover_vertices")
        return IndependentSet(self.graph.complement(), self.k).search()


class IndependentSet(_GraphK):
    kind = "independent-set"
    __slots__ = ()

    def verify(self, w):
        vs = _as_vertex_set(w, self.graph.n)
        if len(vs) < self.k:
            return False
        return not any(
            self.graph.has_edge(u, v) for u, v in itertools.combinations(vs, 2)
        )

    def search(self):
        """The first independent max(k, 0)-set in combinations order, or None."""
        _within_cap(self.graph.n, "vertex_cover_vertices")
        adj, alive, need = _adjacency_bits(self.graph), (1 << self.graph.n) - 1, max(self.k, 0)
        enough = _most_independent(adj, alive, need) >= need
        return _first_independent(adj, alive, need, take=True) if enough else None


class VertexCover(_GraphK):
    kind = "vertex-cover"
    __slots__ = ()

    def verify(self, w):
        vs = _as_vertex_set(w, self.graph.n)
        if len(vs) > self.k:
            return False
        return all(u in vs or v in vs for u, v in self.graph.edges)

    def search(self):
        """The first smallest cover in combinations order if it has at most
        k vertices, else None: the complement of a maximum independent set."""
        n = self.graph.n
        _within_cap(n, "vertex_cover_vertices")
        adj, alive = _adjacency_bits(self.graph), (1 << n) - 1
        most = _most_independent(adj, alive)
        if n - most > self.k:
            return None
        return set(range(1, n + 1)) - _first_independent(adj, alive, most, take=False)


class Coloring(_GraphK):
    kind = "coloring"
    __slots__ = ()

    def witness(self, w):
        return {int(k): v for k, v in w.items()} if isinstance(w, dict) else w

    def verify(self, w):
        g, k = self.graph, self.k
        if not isinstance(w, dict) or set(w) != set(range(1, g.n + 1)):
            raise WitnessFormatError("coloring must map every vertex")
        if not all(isinstance(c, int) and 1 <= c <= k for c in w.values()):
            return False
        return all(w[u] != w[v] for u, v in g.edges)

    def search(self):
        g, k = self.graph, self.k
        _within_cap(g.n, "coloring_vertices")
        # Colour high-degree vertices first: prunes dramatically better.
        order = sorted(range(1, g.n + 1), key=lambda v: (-g.degree(v), v))
        at = {v: i for i, v in enumerate(order)}
        # earlier[i]: the positions of order[i]'s neighbours coloured before it
        earlier = [[at[w] for w in g.neighbors(v) if at[w] < i] for i, v in enumerate(order)]

        def children(cols):  # the colours by position in `order`
            used = {cols[j] for j in earlier[len(cols)]}
            return [cols + (c,) for c in range(1, k + 1) if c not in used]

        found = _depth_first((), children, lambda cols: len(cols) == len(order))
        return dict(zip(order, found)) if found is not None else None


class _SetFamily(_SetWitness):
    __slots__ = ("universe", "family")
    universe: tuple
    family: tuple[frozenset, ...]

    @classmethod
    def load(cls, text, k, limit):
        universe, family, _ = parse_set_system(text)
        return cls(universe, family)

    def describe(self):
        return {
            "universe": [str(a) for a in self.universe],
            "family": [sorted(str(a) for a in s) for s in self.family],
        }


class ExactCover(_SetFamily):
    kind = "exact-cover"
    __slots__ = ()

    def _check(self):
        cover = set().union(*self.family) if self.family else set()
        if set(self.universe) != cover:
            raise ValueError("family must cover the universe exactly")

    def verify(self, w):
        covered: list = []
        for i in _indices(w, len(self.family)):
            covered.extend(self.family[i - 1])
        return len(covered) == len(set(covered)) and set(covered) == set(self.universe)

    def search(self):
        _within_cap(len(self.family), "exact_cover_sets")
        containing: dict = {}
        for idx, s in enumerate(self.family, start=1):
            for a in s:
                containing.setdefault(a, []).append(idx)
        position = {a: i for i, a in enumerate(self.universe)}

        def children(state):  # the uncovered elements and the chosen indices
            uncovered, chosen = state
            # the element in fewest sets; ties go to the first in the
            # universe, not to set iteration order, which the hash seed sets
            a = min(uncovered, key=lambda x: (len(containing.get(x, ())), position[x]))
            return [
                (uncovered - self.family[idx - 1], chosen + (idx,))
                for idx in containing.get(a, ())
                if self.family[idx - 1] <= uncovered
            ]

        found = _depth_first((frozenset(self.universe), ()), children, lambda state: not state[0])
        return set(found[1]) if found is not None else None


class Representatives(_SetFamily):
    kind = "representatives"
    __slots__ = ()

    def verify(self, w):
        if not isinstance(w, (set, frozenset, list, tuple)):
            raise WitnessFormatError("expected an element collection")
        ws = set(w)
        if ws - set(self.universe):
            raise WitnessFormatError("representative outside the universe")
        return all(len(ws & s) == 1 for s in self.family)

    def search(self):
        _within_cap(len(self.universe), "elements")
        found = _first_subset(self.universe, len(self.universe), lambda c: self.verify(set(c)))
        return None if found is None else set(found)


class SetCover(_SetFamily):
    kind = "set-cover"
    __slots__ = ("k",)
    k: int

    def _check(self):
        exact_int(self.k, "k")
        if set(self.universe) - (set().union(*self.family) if self.family else set()):
            raise ValueError("family does not cover the universe")

    @classmethod
    def load(cls, text, k, limit):
        universe, family, file_k = parse_set_system(text)
        if k is None and file_k is None:
            raise ValueError("set-cover needs k")
        return cls(universe, family, k if k is not None else file_k)

    def describe(self):
        return {**super().describe(), "k": self.k}

    def verify(self, w):
        idxs = _indices(w, len(self.family))
        if len(idxs) > self.k:
            return False
        covered = set().union(*(self.family[i - 1] for i in idxs)) if idxs else set()
        return covered >= set(self.universe)

    def search(self):
        return _verified(self, _first_cover(self.universe, self.family, self.k))


class Knapsack01(Problem):
    kind = "knapsack01"
    __slots__ = ("numbers", "target")
    numbers: tuple[int, ...]
    target: int

    def _check(self):
        refuse_floats((*self.numbers, self.target), "numbers and target")

    @classmethod
    def load(cls, text, k, limit):
        data = json_object(text)
        return cls(
            exact_ints(data["numbers"], "numbers"),
            exact_int(data["target"], "target"),
        )

    def describe(self):
        return {"numbers": list(self.numbers), "target": self.target}

    def verify(self, w):
        x = _as_assignment(w, len(self.numbers))
        return sum(a for a, xi in zip(self.numbers, x) if xi) == self.target

    def search(self):
        """The first vector in product order: a dict from each second-half
        sum to its first vector, then a scan of the first half."""
        n = len(self.numbers)
        _within_cap(n, "bool_vars")
        first, second = _halves(self.numbers)
        where = dict(zip(reversed(second), range(len(second) - 1, -1, -1)))  # the first vector wins
        for a, s in enumerate(first):
            b = where.get(self.target - s)
            if b is not None:
                return _verified(self, _bits(a << (n - n // 2) | b, n))
        return None


class KnapsackDecision(Problem):
    kind = "knapsack-decision"
    __slots__ = ("values", "volumes", "capacity", "goal")
    values: tuple[int, ...]
    volumes: tuple[int, ...]
    capacity: int
    goal: int

    def _check(self):
        refuse_floats((*self.values, *self.volumes, self.capacity, self.goal),
                      "values, volumes, capacity and goal")

    @classmethod
    def load(cls, text, k, limit):
        data = json_object(text)
        return cls(
            exact_ints(data["values"], "values"),
            exact_ints(data["volumes"], "volumes"),
            exact_int(data["capacity"], "capacity"),
            exact_int(data["goal"], "goal"),
        )

    def verify(self, w):
        x = _as_assignment(w, len(self.values))
        vol = sum(v for v, xi in zip(self.volumes, x) if xi)
        val = sum(c for c, xi in zip(self.values, x) if xi)
        return vol <= self.capacity and val >= self.goal

    def search(self):
        """The first vector in product order: the first first-half vector
        whose room holds a second-half vector of the value still needed,
        then the first such second-half vector."""
        n = len(self.values)
        _within_cap(n, "bool_vars")
        (vol1, vol2), (val1, val2) = _halves(self.volumes), _halves(self.values)
        rooms = [self.capacity - w for w in vol1]
        most = _most_fitting(rooms, vol2, val2)
        a = next((a for a, m in enumerate(most) if m is not None and m >= self.goal - val1[a]), None)
        if a is None:
            return None
        need = self.goal - val1[a]
        b = next(b for b, w in enumerate(vol2) if w <= rooms[a] and val2[b] >= need)
        return _verified(self, _bits(a << (n - n // 2) | b, n))


class Partition(_SetWitness):
    kind = "partition"
    __slots__ = ("numbers",)
    numbers: tuple[int, ...]

    def _check(self):
        refuse_floats(self.numbers, "numbers")

    @classmethod
    def load(cls, text, k, limit):
        return cls(tuple(parse_numbers(text)))

    def describe(self):
        return {"numbers": list(self.numbers)}

    def verify(self, w):
        inside = sum(self.numbers[i - 1] for i in _indices(w, len(self.numbers)))
        return 2 * inside == sum(self.numbers)

    def search(self):
        """The first half-sum subset by size, then in combinations order.
        Among subsets of one size, combinations order is the reverse of
        product order, so the search keeps, per size, the last full
        vector: for each first-half vector, the last second-half vector of
        each size whose sum completes the half."""
        n, total = len(self.numbers), sum(self.numbers)
        _within_cap(n, "bool_vars")
        if total % 2:  # no halves; the sums below are compared with total // 2
            return None
        first, second = _halves(self.numbers)
        by_sum: dict = {}  # second-half sum -> {size: its last vector}
        for b, s in enumerate(second):
            by_sum.setdefault(s, {})[b.bit_count()] = b
        shift, last = n - n // 2, {}  # size -> its last full vector
        for a, s in enumerate(first):
            for size, b in by_sum.get(total // 2 - s, {}).items():
                last[a.bit_count() + size] = a << shift | b
        if not last:
            return None
        x = last[min(last)]
        return _verified(self, {i for i in range(1, n + 1) if x >> (n - i) & 1})


class HamCircuit(Problem):
    kind = "ham-circuit"
    __slots__ = ("digraph",)
    digraph: Digraph

    @classmethod
    def load(cls, text, k, limit):
        g = parse_graph_text(text)
        if not isinstance(g, Digraph):
            raise ValueError("ham-circuit needs a digraph")
        return cls(g)

    def describe(self):
        return {"digraph": format_graph_text(self.digraph)}

    def verify(self, w):
        return _check_ham_sequence(w, self.digraph)

    def search(self):
        _within_cap(self.digraph.n, "ham_vertices")
        return _ham_backtrack(self.digraph)


class HamCycle(Problem):
    kind = "ham-cycle"
    __slots__ = ("graph",)
    graph: Graph

    @classmethod
    def load(cls, text, k, limit):
        return cls(parse_graph_text(text))

    def describe(self):
        return {"graph": format_graph_text(self.graph)}

    def verify(self, w):
        return _check_ham_sequence(w, self.graph)

    def search(self):
        _within_cap(self.graph.n, "ham_vertices")
        return _ham_backtrack(self.graph)


class Tsp(Problem):
    kind = "tsp"
    __slots__ = ("matrix", "limit")
    matrix: tuple[tuple[object, ...], ...]
    limit: object

    def _check(self):
        n = len(self.matrix)
        for i, row in enumerate(self.matrix):
            if len(row) != n:
                raise ValueError("matrix must be square")
            if row[i] != 0:
                raise ValueError("diagonal must be zero")
        refuse_floats((self.limit, *itertools.chain.from_iterable(self.matrix)), "matrix and limit")

    @classmethod
    def load(cls, text, k, limit):
        if limit is None:
            raise ValueError("tsp needs --limit")
        return cls(tuple(tuple(r) for r in parse_matrix(text)), limit)

    def describe(self):
        return {"matrix": [list(r) for r in self.matrix], "limit": self.limit}

    def verify(self, w):
        n = len(self.matrix)
        _as_permutation(w, n)
        length = sum(
            self.matrix[w[i] - 1][w[(i + 1) % n] - 1] for i in range(n)
        )
        return length <= self.limit

    def search(self):
        n = len(self.matrix)
        _within_cap(n, "tsp_cities")
        if n <= 1:  # the empty tour, or city 1 alone
            return list(range(1, n + 1)) if 0 <= self.limit else None
        return _held_karp(self.matrix, lambda shortest, scale: self.limit * scale)


class Ilp(Problem):
    """Rows a_i x (rel_i) b_i over non-negative integer vectors; the
    brute-force oracle only searches the supplied box bounds."""

    kind = "ilp"
    __slots__ = ("rows", "relations", "rhs", "bounds")
    rows: tuple[tuple[int, ...], ...]
    relations: tuple[str, ...]  # '<=' / '==' / '>='
    rhs: tuple[int, ...]
    bounds: tuple[tuple[int, int], ...]

    def _check(self):
        if not (len(self.rows) == len(self.relations) == len(self.rhs)):
            raise ValueError("rows, relations and rhs must align")
        width = len(self.bounds)
        for row in self.rows:
            if len(row) != width:
                raise ValueError("row width must match bound count")
        for rel in self.relations:
            if rel not in ("<=", "==", ">="):
                raise ValueError(f"bad relation {rel}")
        refuse_floats(itertools.chain(*self.rows, self.rhs, *self.bounds), "rows, rhs and bounds")

    @classmethod
    def load(cls, text, k, limit):
        data = json_object(text)
        bounds = exact_int_rows(data["bounds"], "bounds")
        if any(len(b) != 2 for b in bounds):
            raise ValueError("bounds must be [lo, hi] pairs")
        if not isinstance(data["relations"], list):
            raise ValueError("relations must be a list")
        return cls(
            exact_int_rows(data["rows"], "rows"),
            tuple(data["relations"]),
            exact_ints(data["rhs"], "rhs"),
            bounds,
        )

    def describe(self):
        return {
            "rows": [list(r) for r in self.rows],
            "relations": list(self.relations),
            "rhs": list(self.rhs),
            "bounds": [list(b) for b in self.bounds],
        }

    def verify(self, w):
        if not isinstance(w, (list, tuple)) or len(w) != len(self.bounds):
            raise WitnessFormatError("solution width mismatch")
        if not all(isinstance(x, int) and x >= 0 for x in w):
            raise WitnessFormatError("solution must be non-negative integers")
        for row, rel, b in zip(self.rows, self.relations, self.rhs):
            lhs = sum(a * x for a, x in zip(row, w))
            if rel == "<=" and not lhs <= b:
                return False
            if rel == "==" and not lhs == b:
                return False
            if rel == ">=" and not lhs >= b:
                return False
        return True

    def search(self):
        _within_cap(max((hi - lo for lo, hi in self.bounds), default=0), "box_width")
        space = 1  # COMBINLAB_ORACLE_LIMIT does not lift this guard
        for lo, hi in self.bounds:
            space *= hi - lo + 1
            if space > 4_000_000:
                raise InstanceTooLargeError("instance too large for oracle")
        width = len(self.bounds)
        # suffix_lo[r][p] / suffix_hi[r][p]: extreme contribution of columns
        # p.. of row r given the box bounds, precomputed once.
        suffix_lo, suffix_hi = [], []
        for row in self.rows:
            lo, hi = [0] * (width + 1), [0] * (width + 1)
            for p in range(width - 1, -1, -1):
                a = row[p]
                blo, bhi = self.bounds[p]
                lo[p] = lo[p + 1] + min(a * blo, a * bhi)
                hi[p] = hi[p + 1] + max(a * blo, a * bhi)
            suffix_lo.append(lo)
            suffix_hi.append(hi)

        def fits(rel, b, lo, hi) -> bool:  # can the row's left side, in lo..hi, meet b?
            return not (rel == "<=" and lo > b or rel == ">=" and hi < b or rel == "==" and not lo <= b <= hi)

        # Every state has all rows able to hold.  A child changes only the
        # rows its column touches: a row with a 0 there keeps its sum and
        # its bounds, so only the touched rows are checked again.
        touched = [
            [(r, row[p], rel, b, suffix_lo[r][p + 1], suffix_hi[r][p + 1])
             for r, (row, rel, b) in enumerate(zip(self.rows, self.relations, self.rhs)) if row[p]]
            for p in range(width)
        ]

        def children(state):  # the values so far and each row's sum over them
            x, sums = state
            pos = len(x)
            if pos == width:
                return ()
            blo, bhi = self.bounds[pos]
            out = []
            for val in range(blo, bhi + 1):
                moved = list(sums)
                for r, a, rel, b, lo, hi in touched[pos]:
                    s = moved[r] = moved[r] + a * val
                    if not fits(rel, b, s + lo, s + hi):
                        break
                else:
                    out.append((x + (val,), moved))
            return out

        def accept(state):
            return len(state[0]) == width and self.verify(list(state[0]))

        if not all(fits(rel, b, lo[0], hi[0])
                   for rel, b, lo, hi in zip(self.relations, self.rhs, suffix_lo, suffix_hi)):
            return None
        found = _depth_first(((), [0] * len(self.rows)), children, accept)
        return list(found[0]) if found is not None else None


# --- witness checks and the brute-force oracle ---------------------------------


def _as_assignment(w, num_vars: int) -> list[bool]:
    if not isinstance(w, (list, tuple)) or len(w) != num_vars:
        raise WitnessFormatError("assignment must list one bool per variable")
    if not all(isinstance(b, (bool, int)) and b in (0, 1, True, False) for b in w):
        raise WitnessFormatError("assignment entries must be boolean")
    return [bool(b) for b in w]


def _as_vertex_set(w, n: int) -> set[int]:
    if not isinstance(w, (set, frozenset, list, tuple)):
        raise WitnessFormatError("expected a vertex collection")
    vs = set(w)
    if not all(isinstance(v, int) and 1 <= v <= n for v in vs):
        raise WitnessFormatError("vertex out of range")
    return vs


def verify_witness(problem, w) -> bool:
    """Polynomial witness check per problem; malformed witnesses raise
    WitnessFormatError rather than answering False."""
    if not isinstance(problem, Problem):
        raise TypeError(f"unknown problem type {type(problem)!r}")
    return problem.verify(w)


def _indices(w, m: int) -> set[int]:
    if not isinstance(w, (set, frozenset, list, tuple)):
        raise WitnessFormatError("expected a collection of indices")
    idxs = set(w)
    if not all(isinstance(i, int) and 1 <= i <= m for i in idxs):
        raise WitnessFormatError("index out of range")
    return idxs


def _as_permutation(w, n: int) -> list[int]:
    if not isinstance(w, (list, tuple)) or not all(isinstance(v, int) for v in w):
        raise WitnessFormatError("expected a list of integers")
    if sorted(w) != list(range(1, n + 1)):
        raise WitnessFormatError("expected a permutation of 1..n")
    return list(w)


def _check_ham_sequence(w, g) -> bool:
    seq = _as_permutation(w, g.n)
    for u, v in zip(seq, seq[1:] + seq[:1]):
        if v not in g.adj[u]:
            return False
    return True


# The subset searches keep the 20-variable / 20-element caps: SAT's truth
# tables and the knapsacks' and partition's halves decide a no-instance
# at 20 in a few ms, and the caps stay where they were until a measured
# family sets new ones.  Backtracking deciders (coloring, hamiltonicity,
# exact cover) and Held-Karp afford slightly larger instances, which the
# reduction targets need.
_DEFAULT_CAPS = {
    "bool_vars": 20,
    "coloring_vertices": 24,
    "ham_vertices": 16,
    "tsp_cities": 16,  # _held_karp, with approx.tsp_optimum
    "elements": 20,
    "exact_cover_sets": 40,
    "box_width": 3,  # ILP: hi - lo per variable
    "set_cover_sets": 21,  # _first_cover, for any universe size
    "vertex_cover_vertices": 44,  # _most_independent: the graph deciders and optimum
    # approx's other exact optima
    "max_cut_vertices": 20,
    "knapsack_items": 20,
}


def _within_cap(size: int, cap_key: str) -> None:
    override = os.environ.get("COMBINLAB_ORACLE_LIMIT")
    if size > (int(override) if override else _DEFAULT_CAPS[cap_key]):
        raise InstanceTooLargeError("instance too large for oracle")


def brute_force_decide(problem):
    """Exhaustively search for a verifying witness; None when none exists.

    Desk-scale only: instances beyond the caps raise
    InstanceTooLargeError.  The env var COMBINLAB_ORACLE_LIMIT overrides
    every cap with a single integer.
    """
    if not isinstance(problem, Problem):
        raise TypeError(f"unknown problem type {type(problem)!r}")
    return problem.search()


def _adjacency_bits(g: Graph) -> list[int]:
    """Neighbours of vertex v + 1 as the bit mask at index v."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return adj


def _most_independent(adj, alive: int, goal: int | None = None) -> int:
    """The size of a largest independent set inside the bit mask `alive`,
    with adj from _adjacency_bits.  The search keeps its own stack of
    (alive vertices, set size) nodes.  A node first takes every vertex of
    degree 0 or 1 into the set (some maximum set holds it) and drops its
    neighbour; it ends once its set plus all alive vertices cannot beat
    the best; otherwise it branches on a maximum-degree vertex: left out,
    or taken with its neighbours dropped (Chen, Kanj & Jia 2001).

    With a `goal` the search only asks whether a `goal`-set exists: it
    starts as if a (goal - 1)-set were known and returns at the first set
    larger than that, so the result is >= goal exactly when one exists."""
    best, stack = (0 if goal is None else goal - 1), [(alive, 0)]
    while stack:
        alive, size = stack.pop()
        taken = True
        while taken:
            taken, top, top_degree = False, 0, 0
            rest = alive
            while rest:
                low = rest & -rest
                rest ^= low
                if alive & low:
                    near = adj[low.bit_length() - 1] & alive
                    degree = near.bit_count()
                    if degree <= 1:
                        alive &= ~(low | near)
                        size += 1
                        taken = True
                    elif degree > top_degree:
                        top, top_degree = low, degree
        if not alive:
            if size > best:
                best = size
                if goal is not None:
                    return best
        elif size + alive.bit_count() > best:
            stack.append((alive & ~top & ~adj[top.bit_length() - 1], size + 1))
            stack.append((alive & ~top, size))  # left out: tried first
    return best


def _first_independent(adj, alive: int, need: int, take: bool) -> set[int]:
    """The independent `need`-set inside `alive`, which must hold one, that
    a walk in vertex order picks by self-reduction (Schnorr 1976): it takes
    each vertex if `take`, else leaves it out, whenever the vertices left
    still hold an independent set of the size needed."""
    chosen = set()
    while need:
        low = alive & -alive
        alive ^= low
        later = alive & ~adj[low.bit_length() - 1]  # left if the vertex is taken
        # make the preferred choice if what it leaves can still complete the set
        left, wanted = (later, need - 1) if take else (alive, need)
        if (_most_independent(adj, left, wanted) >= wanted) == take:
            chosen.add(low.bit_length())
            alive, need = later, need - 1
    return chosen


def _halves(numbers) -> list[list]:
    """The sums of every subset of numbers[:n // 2] and of numbers[n // 2:],
    each list indexed by the subset's 0/1 vector read as a binary number
    whose first item is the most significant bit: itertools.product order
    (Horowitz & Sahni 1974 split the search this way)."""
    h, out = len(numbers) // 2, []
    for half in (numbers[:h], numbers[h:]):
        sums = [0]
        for x in half:
            sums = [t for s in sums for t in (s, s + x)]
        out.append(sums)
    return out


def _most_fitting(rooms, volumes, keys) -> list:
    """For each room, the largest key among the items whose volume is at
    most the room, or None: one sweep over both, sorted by size."""
    order = sorted(range(len(volumes)), key=volumes.__getitem__)
    most, best, j = [None] * len(rooms), None, 0
    for a in sorted(range(len(rooms)), key=rooms.__getitem__):
        while j < len(order) and volumes[order[j]] <= rooms[a]:
            key = keys[order[j]]
            if best is None or key > best:
                best = key
            j += 1
        most[a] = best
    return most


def _bits(x: int, width: int) -> list[int]:
    """x as a 0/1 list of `width` digits, most significant first."""
    return [x >> i & 1 for i in range(width - 1, -1, -1)]


def _first_subset(items, most, accept):
    """The first tuple of at most `most` items, by size and then in
    combinations order, that accept takes, or None."""
    sizes = range(min(most, len(items)) + 1)
    subsets = itertools.chain.from_iterable(itertools.combinations(items, r) for r in sizes)
    return next(filter(accept, subsets), None)


def _verified(problem, found):
    """found, once problem.verify takes it."""
    if found is not None and not problem.verify(found):
        raise AssertionError(f"{problem.kind} search found a witness verify refuses")
    return found


def _ham_backtrack(g):
    """The first Hamiltonian cycle from vertex 1, by neighbour order."""
    n, adj = g.n, g.adj
    if n == 0:
        return []

    into_first = {u for u in range(1, n + 1) if 1 in adj[u]}

    def children(path):  # none once no way back to vertex 1 is left open
        if len(path) < n and into_first.issubset(path):
            return ()
        return [path + (v,) for v in adj[path[-1]] if v not in path]

    found = _depth_first(
        (1,), children, lambda path: len(path) == n and path[0] in adj[path[-1]]
    )
    return list(found) if found is not None else None


def _depth_first(root, children, accept):
    """The first state, in depth-first preorder from root, that accept
    takes, or None.  children(state) lists a state's successors in the
    order to try them.  The walk keeps its own stack, so its depth is not
    the interpreter's."""
    stack = [root]
    while stack:
        state = stack.pop()
        if accept(state):
            return state
        stack.extend(reversed(children(state)))
    return None


def _held_karp(matrix, bound):
    """The lexicographically first tour from city 1, over n >= 2 cities, of
    length at most bound(shortest, scale), or None (Held & Karp 1962).
    Fractions are searched as integers, scaled by their least common
    denominator `scale`, and so are the bound and `shortest`, a shortest
    tour's length.  cost[S][k] is the shortest path from city k + 2
    through the cities S (bit j for city j + 2) back to city 1.  The walk
    takes the lowest city k whose length + step + cost[left][k] fits.
    Its callers refuse float entries first."""
    weights, scale = matrix, 1
    if not all(type(x) is int for row in matrix for x in row):
        exact = [[Fraction(x) for x in row] for row in matrix]
        scale = math.lcm(*(x.denominator for row in exact for x in row))
        weights = [[int(x * scale) for x in row] for row in exact]
    m = len(matrix) - 1
    out = [row[1:] for row in weights[1:]]  # out[j][k]: city j + 2 to city k + 2
    cost: list[list] = [[]] * (1 << m)
    members: list[list[int]] = [[]] * (1 << m)  # members[S]: the bits of S, ascending
    for j in range(m):  # one city left: straight back to city 1
        cost[1 << j] = [None] * m
        cost[1 << j][j] = weights[j + 1][0]
        members[1 << j] = [j]
    for mask in range(3, 1 << m):
        rest = mask & (mask - 1)  # mask without its lowest bit
        if not rest:
            continue
        inside = members[mask] = members[mask ^ rest] + members[rest]
        row = [None] * m
        for j in inside:
            sub, step = cost[mask ^ (1 << j)], out[j]
            row[j] = min([step[k] + sub[k] for k in inside if k != j])
        cost[mask] = row
    tour, length, left, step = [1], 0, (1 << m) - 1, weights[0][1:]
    limit = bound(min(step[k] + cost[left][k] for k in range(m)), scale)
    while left:
        j = next((k for k in range(m) if left >> k & 1 and length + step[k] + cost[left][k] <= limit), None)
        if j is None:
            return None
        tour.append(j + 2)
        length, step, left = length + step[j], out[j], left ^ 1 << j
    return tour


def _first_cover(universe, family, most):
    """The indices, from 1, of the first subfamily of at most `most` sets,
    by size and then in combinations order, whose union holds the
    universe; None if none does.  Each set is a bit mask over the
    universe, so elements outside it are ignored."""
    _within_cap(len(family), "set_cover_sets")
    bit = {x: 1 << i for i, x in enumerate(set(universe))}
    masks = [sum(bit.get(x, 0) for x in set(s)) for s in family]  # distinct bits: the sum is the union
    full = (1 << len(bit)) - 1

    def covers(combo):
        covered = 0
        for i in combo:
            covered |= masks[i]
        return covered == full

    found = _first_subset(range(len(masks)), most, covers)
    return None if found is None else {i + 1 for i in found}


# --- reductions --------------------------------------------------------------


class ReductionOutput(_Record):
    """Transformed instance plus forward/backward witness transport."""

    __slots__ = ("source", "target", "forward", "backward")
    source: object
    target: object
    forward: Callable
    backward: Callable


def sat_to_3sat(f: CnfFormula) -> ReductionOutput:
    """Equisatisfiable exact-3-CNF via unit/pair padding and chain splits."""
    if not f.clauses:
        raise ValueError("needs at least one clause")
    clauses: list[tuple[int, int, int]] = []
    next_var = f.num_vars + 1
    plans: list[dict] = []
    for clause in f.clauses:
        lits = list(clause)
        if len(lits) == 1:
            z, w = next_var, next_var + 1
            next_var += 2
            x = lits[0]
            clauses.extend(
                [(x, z, w), (x, z, -w), (x, -z, w), (x, -z, -w)]
            )
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
        alpha = _as_assignment(assignment, f.num_vars)
        ext = list(alpha)

        def sat_lit(l):
            return ext[abs(l) - 1] == (l > 0)

        for plan in plans:
            if plan["kind"] in ("unit", "pair"):
                ext.extend([False] * len(plan["fresh"]))
            elif plan["kind"] == "chain":
                # Chain var true exactly when the remaining suffix must
                # carry the satisfaction.
                lits = plan["lits"]
                for pos in range(len(plan["fresh"])):
                    ext.append(not any(sat_lit(l) for l in lits[: 2 + pos]))
        return ext

    def backward(assignment):
        full = _as_assignment(assignment, target.num_vars)
        return full[: f.num_vars]

    return ReductionOutput(Sat(f), ThreeSat(target), forward, backward)


def sat_to_clique(f: CnfFormula) -> ReductionOutput:
    """Vertices are (literal, clause) occurrences; edges join compatible
    occurrences across clauses; k = clause count."""
    if not f.clauses:
        raise ValueError("needs at least one clause")
    occurrences: list[tuple[int, int]] = []  # (clause index, literal)
    for ci, clause in enumerate(f.clauses):
        for lit in dict.fromkeys(clause):  # dedupe, keep first occurrence
            occurrences.append((ci, lit))
    index = {occ: i + 1 for i, occ in enumerate(occurrences)}
    edges = []
    for a, b in itertools.combinations(occurrences, 2):
        if a[0] != b[0] and a[1] != -b[1]:
            edges.append((index[a], index[b]))
    g = Graph(len(occurrences), edges)
    target = Clique(g, len(f.clauses))

    def forward(assignment):
        alpha = _as_assignment(assignment, f.num_vars)
        chosen = set()
        for ci, clause in enumerate(f.clauses):
            lit = next((l for l in clause if alpha[abs(l) - 1] == (l > 0)), None)
            if lit is None:
                raise ValueError("witness does not satisfy the formula")
            chosen.add(index[(ci, lit)])
        return chosen

    def backward(vertex_set):
        alpha = [False] * f.num_vars
        for v in vertex_set:
            ci, lit = occurrences[v - 1]
            alpha[abs(lit) - 1] = lit > 0
        return alpha

    return ReductionOutput(Sat(f), target, forward, backward)


def threesat_to_coloring(f: CnfFormula) -> ReductionOutput:
    """3-CNF to (n+1)-colorability over 3n + r vertices (n padded >= 4)."""
    if not f.is_three_cnf:
        raise ValueError("input must be exact 3-CNF")
    n = max(f.num_vars, 4)
    r = len(f.clauses)
    # vertex ids: x_i -> i, not-x_i -> n+i, D_j -> 2n+j, v_i -> 2n+r+i
    def pos(i):
        return i

    def neg(i):
        return n + i

    def cl(j):
        return 2 * n + j

    def anchor(i):
        return 2 * n + r + i

    edges = set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            edges.add((anchor(i), anchor(j)))
        for j in range(1, n + 1):
            if i != j:
                edges.add((anchor(i), pos(j)))
                edges.add((anchor(i), neg(j)))
        edges.add((pos(i), neg(i)))
    for j, clause in enumerate(f.clauses, start=1):
        present = set(clause)
        for i in range(1, n + 1):
            if i not in present:
                edges.add((pos(i), cl(j)))
            if -i not in present:
                edges.add((neg(i), cl(j)))
    g = Graph(3 * n + r, sorted((min(u, v), max(u, v)) for u, v in edges))
    target = Coloring(g, n + 1)

    def forward(assignment):
        alpha = _as_assignment(assignment, f.num_vars)
        alpha = alpha + [False] * (n - f.num_vars)
        colors = {}
        for i in range(1, n + 1):
            colors[anchor(i)] = i
            colors[pos(i)] = i if alpha[i - 1] else n + 1
            colors[neg(i)] = n + 1 if alpha[i - 1] else i
        for j, clause in enumerate(f.clauses, start=1):
            lit = next((l for l in clause if alpha[abs(l) - 1] == (l > 0)), None)
            if lit is None:
                raise ValueError("witness does not satisfy the formula")
            colors[cl(j)] = abs(lit)
        return colors

    def backward(coloring):
        relabel = {coloring[anchor(i)]: i for i in range(1, n + 1)}
        spare = next(
            c for c in range(1, n + 2) if c not in relabel
        )
        relabel[spare] = n + 1
        alpha = [relabel[coloring[pos(i)]] == i for i in range(1, n + 1)]
        return alpha[: f.num_vars]

    return ReductionOutput(ThreeSat(f), target, forward, backward)


def exact_cover_to_knapsack01(problem: ExactCover) -> ReductionOutput:
    """Incidence rows read as base-(m+1) digits; exact subcovers are the
    0/1 solutions of sum z(h_i) x_i = 1 + (m+1) + ... + (m+1)^(n-1)."""
    universe = list(problem.universe)
    n, m = len(universe), len(problem.family)
    base = m + 1
    place = {a: base ** (n - 1 - idx) for idx, a in enumerate(universe)}
    numbers = tuple(sum(place[a] for a in s) for s in problem.family)
    total = sum(base**p for p in range(n))
    target = Knapsack01(numbers, total)

    def forward(subfamily):
        idxs = _indices(subfamily, m)
        return [1 if i in idxs else 0 for i in range(1, m + 1)]

    def backward(x):
        bits = _as_assignment(x, m)
        return {i + 1 for i, b in enumerate(bits) if b}

    return ReductionOutput(problem, target, forward, backward)


def vc_to_ham_circuit(problem: VertexCover) -> ReductionOutput:
    """Cover-driven Hamiltonian circuit digraph on 4q + k vertices.

    Edge chains per vertex follow the graph's stored edge order; selector
    vertices a_1..a_k enter each chain at its first edge and leave after
    the last.  k is clamped to the number of positive-degree vertices
    (covers never need isolated vertices).
    """
    g, k = problem.graph, problem.k
    if not g.edges:
        raise ValueError("needs at least one edge")
    if k > g.n:
        raise ValueError("k larger than the vertex count")
    if k < 1:
        raise ValueError("needs k >= 1")
    positive = [v for v in range(1, g.n + 1) if g.degree(v)]
    k_eff = min(k, len(positive))
    edge_order = {e: idx for idx, e in enumerate(g.edges)}
    incident = {
        v: sorted(
            ((min(v, w), max(v, w)) for w in g.neighbors(v)),
            key=lambda e: edge_order[e],
        )
        for v in positive
    }
    ids: dict = {}
    for v in positive:
        for e in incident[v]:
            for delta in (0, 1):
                ids[(v, e, delta)] = len(ids) + 1
    selectors = {i: len(ids) + i for i in range(1, k_eff + 1)}
    total = len(ids) + k_eff
    arcs = set()
    for v in positive:
        first, last = incident[v][0], incident[v][-1]
        for i in range(1, k_eff + 1):
            arcs.add((selectors[i], ids[(v, first, 0)]))
            arcs.add((ids[(v, last, 1)], selectors[i]))
        for e, nxt in zip(incident[v], incident[v][1:]):
            arcs.add((ids[(v, e, 1)], ids[(v, nxt, 0)]))
        for e in incident[v]:
            arcs.add((ids[(v, e, 0)], ids[(v, e, 1)]))
    for (u, v) in g.edges:
        e = (u, v)
        for delta in (0, 1):
            arcs.add((ids[(u, e, delta)], ids[(v, e, delta)]))
            arcs.add((ids[(v, e, delta)], ids[(u, e, delta)]))
    digraph = Digraph(total, sorted(arcs))
    target = HamCircuit(digraph)
    names = {num: key for key, num in ids.items()}

    def forward(cover):
        vs = _as_vertex_set(cover, g.n)
        chosen = sorted(v for v in vs if g.degree(v))
        for v in sorted(positive):
            if len(chosen) >= k_eff:
                break
            if v not in chosen:
                chosen.append(v)
        chosen = sorted(chosen[:k_eff])
        circuit: list[int] = []
        covered_by = {}
        for e in g.edges:
            owner = next((v for v in chosen if v in e), None)
            if owner is None:
                raise ValueError("witness is not a cover")
            covered_by[e] = owner
        for pos_i, v in enumerate(chosen, start=1):
            circuit.append(selectors[pos_i])
            for e in incident[v]:
                circuit.append(ids[(v, e, 0)])
                other = e[0] if e[1] == v else e[1]
                if covered_by[e] == v and other not in chosen and g.degree(other):
                    circuit.append(ids[(other, e, 0)])
                    circuit.append(ids[(other, e, 1)])
                circuit.append(ids[(v, e, 1)])
        return circuit

    def backward(circuit):
        if sorted(circuit) != list(range(1, total + 1)):
            raise WitnessFormatError("expected a permutation of digraph vertices")
        succ = {u: v for u, v in zip(circuit, circuit[1:] + circuit[:1])}
        cover = set()
        for i in range(1, k_eff + 1):
            entry = succ[selectors[i]]
            v, _, _ = names[entry]
            if v in cover:
                raise ValueError("selector successors must name distinct vertices")
            cover.add(v)
        return cover

    return ReductionOutput(problem, target, forward, backward)


def _clique_to_is(problem: Clique) -> ReductionOutput:
    target = IndependentSet(problem.graph.complement(), problem.k)
    identity = lambda w: set(w)
    return ReductionOutput(problem, target, identity, identity)


def _is_to_vc(problem: IndependentSet) -> ReductionOutput:
    g, k = problem.graph, problem.k
    target = VertexCover(g, g.n - k)

    def forward(ind_set):
        return set(range(1, g.n + 1)) - _as_vertex_set(ind_set, g.n)

    def backward(cover):
        return set(range(1, g.n + 1)) - _as_vertex_set(cover, g.n)

    return ReductionOutput(problem, target, forward, backward)


def _coloring_to_exact_cover(problem: Coloring) -> ReductionOutput:
    g, k = problem.graph, problem.k
    universe = tuple(
        [("v", v) for v in range(1, g.n + 1)]
        + [("slot", i, e) for i in range(1, k + 1) for e in g.edges]
    )
    family = []
    labels = []
    for v in range(1, g.n + 1):
        for i in range(1, k + 1):
            members = {("v", v)} | {
                ("slot", i, e) for e in g.edges if v in e
            }
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
        idxs = _indices(subfamily, len(family))
        colors = {}
        for idx in idxs:
            lab = labels[idx - 1]
            if lab[0] == "S":
                _, v, i = lab
                colors[v] = i
        return colors

    return ReductionOutput(problem, target, forward, backward)


def _exact_cover_to_representatives(problem: ExactCover) -> ReductionOutput:
    m = len(problem.family)
    universe = tuple(range(1, m + 1))
    family = tuple(
        frozenset(j for j in range(1, m + 1) if a in problem.family[j - 1])
        for a in problem.universe
    )
    target = Representatives(universe, family)

    def forward(subfamily):
        return set(_indices(subfamily, m))

    def backward(w):
        return set(w)

    return ReductionOutput(problem, target, forward, backward)


def _knapsack01_to_partition(problem: Knapsack01) -> ReductionOutput:
    a, b = list(problem.numbers), problem.target
    numbers = tuple(a + [2 * b, sum(a)])
    target = Partition(numbers)
    n = len(a)

    def forward(x):
        bits = _as_assignment(x, n)
        side = {i + 1 for i, bit in enumerate(bits) if bit}
        return side | {n + 2}  # put the sum element next to the chosen items

    def backward(idx_set):
        idxs = set(idx_set)
        if n + 2 not in idxs:
            idxs = set(range(1, n + 3)) - idxs
        return [1 if i in idxs else 0 for i in range(1, n + 1)]

    return ReductionOutput(problem, target, forward, backward)


def _vc_to_set_cover(problem: VertexCover) -> ReductionOutput:
    g, k = problem.graph, problem.k
    universe = tuple(g.edges)
    family = tuple(
        frozenset(e for e in g.edges if v in e) for v in range(1, g.n + 1)
    )
    target = SetCover(universe, family, min(k, g.n))

    def forward(cover):
        return set(_as_vertex_set(cover, g.n))

    def backward(idxs):
        return set(_indices(idxs, g.n))

    return ReductionOutput(problem, target, forward, backward)


def _ham_circuit_to_ham_cycle(problem: HamCircuit) -> ReductionOutput:
    d = problem.digraph
    p = d.n

    def vid(u, part):  # part in (1, 2, 3)
        return 3 * (u - 1) + part

    edges = []
    for u in range(1, p + 1):
        edges.append((vid(u, 1), vid(u, 2)))
        edges.append((vid(u, 2), vid(u, 3)))
    for u, v in d.arcs:
        edges.append((vid(u, 3), vid(v, 1)))
    target = HamCycle(Graph(3 * p, edges))

    def forward(circuit):
        seq = list(circuit)
        out = []
        for u in seq:
            out.extend([vid(u, 1), vid(u, 2), vid(u, 3)])
        return out

    def backward(cycle):
        seq = list(cycle)
        n3 = 3 * p
        if sorted(seq) != list(range(1, n3 + 1)):
            raise WitnessFormatError("expected a permutation")
        if not seq:  # the circuit of the empty digraph
            return []
        # Normalize direction so that each triple reads 1, 2, 3.
        start = next(i for i, v in enumerate(seq) if (v - 1) % 3 == 0)
        seq = seq[start:] + seq[:start]
        if (seq[1] - 1) % 3 != 1:
            seq = [seq[0]] + list(reversed(seq[1:]))
        return [(v - 1) // 3 + 1 for v in seq[::3]]

    return ReductionOutput(problem, target, forward, backward)


def _ham_cycle_to_tsp(problem: HamCycle) -> ReductionOutput:
    g = problem.graph
    p = g.n
    matrix = tuple(
        tuple(
            0 if i == j else (1 if g.has_edge(i, j) else 2)
            for j in range(1, p + 1)
        )
        for i in range(1, p + 1)
    )
    target = Tsp(matrix, p)

    def forward(cycle):
        seq = list(cycle)
        at = seq.index(1) if seq else 0
        return seq[at:] + seq[:at]

    def backward(tour):
        return list(tour)

    return ReductionOutput(problem, target, forward, backward)


def _knapsack01_to_ilp(problem: Knapsack01) -> ReductionOutput:
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


def _set_cover_to_ilp(problem: SetCover) -> ReductionOutput:
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
        chosen = set(_indices(idxs, m))
        for i in range(1, m + 1):
            if len(chosen) >= k_eff:
                break
            chosen.add(i)
        return [1 if i in chosen else 0 for i in range(1, m + 1)]

    def backward(x):
        return {i + 1 for i, b in enumerate(x) if b}

    return ReductionOutput(problem, target, forward, backward)


def _tsp_to_ilp(problem: Tsp) -> ReductionOutput:
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

    length_row = [
        (("x", i, j), problem.matrix[i - 1][j - 1]) for (i, j) in arc_vars
    ]
    rows.append(row_of(length_row))
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
            rows.append(
                row_of([(("u", i), 1), (("u", j), -1), (("x", i, j), n)])
            )
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


# CLI name -> (registry name, source problem, reduction of a source instance).
REDUCTIONS = {
    "sat-3sat": ("SatToThreeSat", Sat, lambda p: sat_to_3sat(p.formula)),
    "sat-clique": ("SatToClique", Sat, lambda p: sat_to_clique(p.formula)),
    "3sat-coloring": (
        "ThreeSatToColoring", ThreeSat, lambda p: threesat_to_coloring(p.formula)
    ),
    "exactcover-knapsack": (
        "ExactCoverToKnapsack01", ExactCover, exact_cover_to_knapsack01
    ),
    "vc-hamcircuit": ("VCToHamCircuit", VertexCover, vc_to_ham_circuit),
    "clique-is": ("CliqueToIS", Clique, _clique_to_is),
    "is-vc": ("ISToVC", IndependentSet, _is_to_vc),
    "coloring-exactcover": (
        "ColoringToExactCover", Coloring, _coloring_to_exact_cover
    ),
    "exactcover-representatives": (
        "ExactCoverToRepresentatives", ExactCover, _exact_cover_to_representatives
    ),
    "knapsack-partition": (
        "Knapsack01ToPartition", Knapsack01, _knapsack01_to_partition
    ),
    "vc-setcover": ("VCToSetCover", VertexCover, _vc_to_set_cover),
    "hamcircuit-hamcycle": (
        "HamCircuitToHamCycle", HamCircuit, _ham_circuit_to_ham_cycle
    ),
    "hamcycle-tsp": ("HamCycleToTsp", HamCycle, _ham_cycle_to_tsp),
    "knapsack-ilp": ("Knapsack01ToIlp", Knapsack01, _knapsack01_to_ilp),
    "setcover-ilp": ("SetCoverToIlp", SetCover, _set_cover_to_ilp),
    "tsp-ilp": ("TspToIlp", Tsp, _tsp_to_ilp),
}


def apply_simple_reduction(kind: str, problem) -> ReductionOutput:
    """Run the reduction whose registry name is `kind`; raises TypeError
    when the problem is not of the reduction's source type."""
    for name, source, fn in REDUCTIONS.values():
        if name == kind:
            if not isinstance(problem, source):
                raise TypeError(f"{name} expects a {source.__name__} instance")
            return fn(problem)
    raise ValueError(f"unknown reduction kind {kind!r}")


# --- 2-SAT -------------------------------------------------------------------


class TwoSatResult(_Record):
    __slots__ = ("satisfiable", "assignment", "conflict_var")
    satisfiable: bool
    assignment: list[bool] | None
    conflict_var: int | None


def implication_graph(f: CnfFormula) -> Digraph:
    """Literal digraph: vertex i is not-x_i, vertex n+i is x_i; every
    clause (a or b) contributes arcs not-a -> b and not-b -> a, in clause
    order with a repeated arc kept at its first occurrence."""
    n = f.num_vars
    node = [*range(n, 0, -1), 0, *range(n + 1, 2 * n + 1)]  # literal l at index n + l
    arcs = []
    for clause in f.clauses:
        if len(clause) > 2:
            raise ValueError("clause with more than 2 literals")
        a, b = clause[0], clause[-1]
        if a != -b:  # (x or not x) would give two self-loops
            arcs.append((node[n - a], node[n + b]))
            arcs.append((node[n - b], node[n + a]))
    return Digraph(2 * n, arcs)


def twosat_solve(f: CnfFormula) -> TwoSatResult:
    """Decide a <=2-CNF formula via strong components of the implication
    graph; UNSAT certificates name a variable co-located with its
    negation (checkable by scc_kosaraju)."""
    n = f.num_vars
    g = implication_graph(f)
    comps = scc_kosaraju(g)
    comp_index = {}
    for idx, block in enumerate(comps):
        for v in block:
            comp_index[v] = idx
    for x in range(1, n + 1):
        if comp_index[n + x] == comp_index[x]:
            return TwoSatResult(False, None, x)
    # Components are emitted sources-first, so "later" means closer to a
    # sink; a literal is true when its component follows its negation's.
    assignment = [comp_index[n + x] > comp_index[x] for x in range(1, n + 1)]
    return TwoSatResult(True, assignment, None)
