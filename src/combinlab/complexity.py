"""NP problems, one `Problem` class each (loader, description, witness
decoder, verifier, and a desk-scale brute-force oracle over a capped
search from `exact`), a reduction compiler with bidirectional witness
maps registered in `REDUCTIONS`, and the polynomial 2-SAT solver.

The 2-SAT solver (Aspvall, Plass & Tarjan 1979) reads the implication
arcs straight off the clauses, two a clause, into heads and tails lists
indexed by literal vertex, and numbers each literal's strong component
with graph_core's label-array Kosaraju, `_scc_labels`; no `Digraph` is
built.  `implication_graph` gives the same arcs, from the same
generator, as a `Digraph`.

Literals are DIMACS-style signed integers (+v / -v); a clause is a tuple
of literals; assignments are lists of booleans indexed from variable 1.
CNF input/output uses the DIMACS cnf format.  Set systems and ILP ride in
JSON, graphs in the shared text format.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

from .exact import _adjacency_bits, _bits, _check_square, _depth_first, _first_cover
from .exact import _first_independent, _first_union, _halves, _ham_backtrack, _held_karp
from .exact import _most_fitting, _most_independent, _within_cap, tour_length
from .graph_core import (
    Digraph,
    Graph,
    _scc_labels,
    format_graph_text,
    parse_graph_text,
    parse_matrix,
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
    parse_set_system,
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
        if exact_int(self.num_vars, "num_vars") < 0:
            raise ValueError("num_vars must be >= 0")
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


def _dimacs_header(line: str) -> int:
    """The variable count of a `p cnf <vars> <clauses>` line; both counts
    must be ints >= 0, and the clause count need not match the clauses read."""
    parts = line.split()
    if len(parts) == 4 and parts[1] == "cnf":
        num_vars = int(parts[2])
        try:
            if num_vars >= 0 and int(parts[3]) >= 0:
                return num_vars
        except ValueError:
            pass
    raise ValueError(f"bad DIMACS header: {line}")


def _dimacs_lines(text: str) -> tuple[int | None, str]:
    """The last header's variable count (None without one) and the other
    lines of `text` joined by spaces, skipping blank, c and % lines."""
    num_vars = None
    body = []
    for line in map(str.strip, text.splitlines()):
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            num_vars = _dimacs_header(line)
        else:
            body.append(line)
    return num_vars, " ".join(body)


def parse_dimacs(text: str) -> CnfFormula:
    """The formula of a DIMACS CNF text.

    Lines (`str.splitlines`, each stripped) that are blank or start with c
    or % are skipped.  A line starting with p is a header, `p cnf <vars>
    <clauses>`: four tokens, <vars> read by `int()` and <clauses> an int
    >= 0, else `bad DIMACS header: <line>`.  The clause count is not held
    to the clauses read.  A header may come anywhere, and the last one
    sets the variable count; a text without one is refused.  Every other
    token is a literal, read by `int()`; a clause ends at a 0 and may span
    lines, and the last one must end.

    When only the first line can be a header or a comment (no c, % or p
    after it), the rest is read as one token stream."""
    head, _, rest = text.partition("\n")
    if "c" in rest or "%" in rest or "p" in rest:
        num_vars, body = _dimacs_lines(text)
    else:
        num_vars, body = _dimacs_lines(head)
        body = f"{body} {rest}"
    lits = list(map(int, body.split()))
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    if lits and lits[-1] != 0:
        raise ValueError("clause not 0-terminated")
    clauses = lits.count(0)
    width = lits.index(0) if lits else 0
    if width and len(lits) == clauses * (width + 1) and lits[width::width + 1].count(0) == clauses:
        # every clause has `width` literals: read them as columns
        return CnfFormula(num_vars, tuple(zip(*[lits[i::width + 1] for i in range(width)])))
    it = iter(lits)
    return CnfFormula(num_vars, tuple([tuple(iter(it.__next__, 0)) for _ in range(clauses)]))


def format_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for clause in f.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


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

    def describe(self):
        """The instance as JSON values, one key per field: a graph as its
        text, a tuple (and each tuple inside it) as a list."""
        out = {}
        for name, value in zip(self._fields, self._values()):
            if isinstance(value, (Graph, Digraph)):
                value = format_graph_text(value)
            elif isinstance(value, tuple):
                value = [list(x) if isinstance(x, tuple) else x for x in value]
            out[name] = value
        return out

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
        if not isinstance(self.graph, Graph):
            raise ValueError(f"{self.kind} needs an undirected graph")

    @classmethod
    def load(cls, text, k, limit):
        if k is None:
            raise ValueError(f"{cls.kind} needs --k")
        return cls(parse_graph_text(text), k)

    def _pairwise(self, w, adjacent: bool) -> bool:
        """Whether w names at least k vertices, each two of them adjacent
        (or, with adjacent false, none)."""
        vs = _member_set(w, "vertex", self.graph.n)
        return len(vs) >= self.k and all(
            self.graph.has_edge(u, v) is adjacent for u, v in itertools.combinations(vs, 2)
        )


class Clique(_GraphK):
    kind = "clique"
    __slots__ = ()

    def verify(self, w):
        return self._pairwise(w, True)

    def search(self):
        """The first k-clique: an independent set of the complement, which
        is built only under the cap."""
        _within_cap(self.graph.n, "vertex_cover_vertices")
        return IndependentSet(self.graph.complement(), self.k).search()


class IndependentSet(_GraphK):
    kind = "independent-set"
    __slots__ = ()

    def verify(self, w):
        return self._pairwise(w, False)

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
        vs = _member_set(w, "vertex", self.graph.n)
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
        for i in _member_set(w, "index", len(self.family)):
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
        ws = _member_set(w, "element", self.universe)
        return all(len(ws & s) == 1 for s in self.family)

    def search(self):
        """The first subset of the entries, by size and then in combinations
        order, that `verify` takes.  It has no two equal entries (without one
        it would come sooner), so hits counted per entry agree with `verify`."""
        _within_cap(len(self.universe), "elements")
        hits = [sum(1 << j for j, s in enumerate(self.family) if a in s) for a in self.universe]
        found = _first_union(hits, (1 << len(self.family)) - 1, len(hits), disjoint=True)
        return None if found is None else {self.universe[i] for i in found}


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
        idxs = _member_set(w, "index", len(self.family))
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

    def verify(self, w):
        x = _as_assignment(w, len(self.numbers))
        return sum(a for a, xi in zip(self.numbers, x) if xi) == self.target

    def search(self):
        """The first vector in product order whose sum is the target, that
        is, at most the target and at least it."""
        return _verified(self, _first_fitting(self.numbers, self.numbers, self.target, self.target))


class KnapsackDecision(Problem):
    kind = "knapsack-decision"
    __slots__ = ("values", "volumes", "capacity", "goal")
    values: tuple[int, ...]
    volumes: tuple[int, ...]
    capacity: int
    goal: int

    def _check(self):
        if len(self.values) != len(self.volumes):
            raise ValueError("values and volumes must align")
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
        return _verified(self, _first_fitting(self.values, self.volumes, self.capacity, self.goal))


def _first_fitting(values, volumes, capacity, goal):
    """The first 0/1 vector in product order whose volume is at most
    capacity and whose value is at least goal, or None: the first
    first-half vector whose room holds a second-half vector of the value
    still needed, then the first such second-half vector."""
    n = len(values)
    _within_cap(n, "bool_vars")
    (vol1, vol2), (val1, val2) = _halves(volumes), _halves(values)
    rooms = [capacity - w for w in vol1]
    most = _most_fitting(rooms, vol2, val2)
    a = next((a for a, m in enumerate(most) if m is not None and m >= goal - val1[a]), None)
    if a is None:
        return None
    need = goal - val1[a]
    b = next(b for b, w in enumerate(vol2) if w <= rooms[a] and val2[b] >= need)
    return _bits(a << (n - n // 2) | b, n)


class Partition(_SetWitness):
    kind = "partition"
    __slots__ = ("numbers",)
    numbers: tuple[int, ...]

    def _check(self):
        refuse_floats(self.numbers, "numbers")

    @classmethod
    def load(cls, text, k, limit):
        return cls(tuple(parse_numbers(text)))

    def verify(self, w):
        inside = sum(self.numbers[i - 1] for i in _member_set(w, "index", len(self.numbers)))
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


class _Hamiltonian(Problem):
    """A Hamiltonian problem on its one field, a graph of its kind."""

    __slots__ = ()

    @classmethod
    def load(cls, text, k, limit):
        return cls(parse_graph_text(text))

    def verify(self, w):
        return _check_ham_sequence(w, *self._values())

    def search(self):
        return _ham_backtrack(*self._values())


class HamCircuit(_Hamiltonian):
    kind = "ham-circuit"
    __slots__ = ("digraph",)
    digraph: Digraph

    def _check(self):
        if not isinstance(self.digraph, Digraph):
            raise ValueError("ham-circuit needs a digraph")


class HamCycle(_Hamiltonian):
    kind = "ham-cycle"
    __slots__ = ("graph",)
    graph: Graph

    def _check(self):
        if not isinstance(self.graph, Graph):
            raise ValueError("ham-cycle needs an undirected graph")


class Tsp(Problem):
    kind = "tsp"
    __slots__ = ("matrix", "limit")
    matrix: tuple[tuple[object, ...], ...]
    limit: object

    def _check(self):
        _check_square(self.matrix)
        if any(row[i] != 0 for i, row in enumerate(self.matrix)):
            raise ValueError("diagonal must be zero")
        refuse_floats((self.limit, *itertools.chain.from_iterable(self.matrix)), "matrix and limit")

    @classmethod
    def load(cls, text, k, limit):
        if limit is None:
            raise ValueError("tsp needs --limit")
        return cls(tuple(tuple(r) for r in parse_matrix(text)), limit)

    def verify(self, w):
        _as_permutation(w, len(self.matrix))
        return tour_length(self.matrix, w) <= self.limit

    def search(self):
        _within_cap(len(self.matrix), "tsp_cities")
        return _held_karp(self.matrix, self.limit)


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


# set-shaped witness kind -> (what it must be, the error for a member outside)
_MEMBER_KINDS = {
    "vertex": ("a vertex collection", "vertex out of range"),
    "index": ("a collection of indices", "index out of range"),
    "element": ("an element collection", "representative outside the universe"),
}


def _member_set(w, kind: str, within) -> set:
    """The members of a set-shaped witness: a set, list or tuple of
    vertices or indices, ints in 1..within, or of elements of the universe
    `within`.  Another shape, or a member outside (an unhashable one is
    outside every instance), raises WitnessFormatError."""
    shape, outside = _MEMBER_KINDS[kind]
    if not isinstance(w, (set, frozenset, list, tuple)):
        raise WitnessFormatError(f"expected {shape}")
    try:
        ws = set(w)
    except TypeError:
        raise WitnessFormatError(outside) from None
    if kind == "element":
        if ws - set(within):
            raise WitnessFormatError(outside)
    elif not all(isinstance(x, int) and 1 <= x <= within for x in ws):
        raise WitnessFormatError(outside)
    return ws


def verify_witness(problem, w) -> bool:
    """Polynomial witness check per problem; malformed witnesses raise
    WitnessFormatError rather than answering False."""
    if not isinstance(problem, Problem):
        raise TypeError(f"unknown problem type {type(problem)!r}")
    return problem.verify(w)


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


def brute_force_decide(problem):
    """Exhaustively search for a verifying witness; None when none exists.
    Desk-scale only: above the caps in `exact` (which the env var
    COMBINLAB_ORACLE_LIMIT overrides) it raises InstanceTooLargeError."""
    if not isinstance(problem, Problem):
        raise TypeError(f"unknown problem type {type(problem)!r}")
    return problem.search()


def _verified(problem, found):
    """found, once problem.verify takes it."""
    if found is not None and not problem.verify(found):
        raise AssertionError(f"{problem.kind} search found a witness verify refuses")
    return found


# --- reductions --------------------------------------------------------------


class ReductionOutput(_Record):
    """Transformed instance plus forward/backward witness transport."""

    __slots__ = ("source", "target", "forward", "backward")
    source: object
    target: object
    forward: Callable
    backward: Callable


def sat_to_3sat(f: CnfFormula) -> ReductionOutput:
    """Equisatisfiable exact-3-CNF.  A clause of w <= 3 literals is padded
    with each sign pattern of 3 - w fresh variables, in product order; a
    longer one is split into a chain of triples, each fresh variable
    linking the clause's first literals to the rest."""
    if not f.clauses:
        raise ValueError("needs at least one clause")
    clauses: list[tuple[int, ...]] = []
    next_var = f.num_vars + 1
    plans: list[tuple[range, tuple | None]] = []  # (fresh variables, chain literals or None)
    for clause in map(tuple, f.clauses):
        fresh = range(next_var, next_var + abs(len(clause) - 3))
        next_var = fresh.stop
        if len(clause) > 3:  # (l1, l2, y1), (-y1, l3, y2), ..., (-y_last, l_w-1, l_w)
            clauses += zip((clause[0], *[-v for v in fresh]), clause[1:], (*fresh, clause[-1]))
            plans.append((fresh, clause))
        else:
            clauses += [clause + signs for signs in itertools.product(*[(v, -v) for v in fresh])]
            plans.append((fresh, None))
    target = CnfFormula(next_var - 1, tuple(clauses))

    def forward(assignment):
        alpha = _as_assignment(assignment, f.num_vars)
        ext = list(alpha)
        for fresh, lits in plans:
            if lits is None:
                ext += [False] * len(fresh)
            else:  # a chain variable is true exactly when the literals after it must satisfy the clause
                ext += [not any(alpha[abs(l) - 1] == (l > 0) for l in lits[: 2 + pos])
                        for pos in range(len(fresh))]
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
        idxs = _member_set(subfamily, "index", m)
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
        vs = _member_set(cover, "vertex", g.n)
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
        return set(range(1, g.n + 1)) - _member_set(ind_set, "vertex", g.n)

    def backward(cover):
        return set(range(1, g.n + 1)) - _member_set(cover, "vertex", g.n)

    return ReductionOutput(problem, target, forward, backward)


def _coloring_to_exact_cover(problem: Coloring) -> ReductionOutput:
    g, k = problem.graph, problem.k
    universe = tuple(
        [("v", v) for v in range(1, g.n + 1)]
        + [("slot", i, e) for i in range(1, k + 1) for e in g.edges]
    )
    # ("S", v, i): v takes colour i; ("T", e, i): neither end of e does
    sets = {
        ("S", v, i): frozenset({("v", v)} | {("slot", i, e) for e in g.edges if v in e})
        for v in range(1, g.n + 1) for i in range(1, k + 1)
    }
    sets.update({("T", e, i): frozenset({("slot", i, e)}) for e in g.edges for i in range(1, k + 1)})
    target = ExactCover(universe, tuple(sets.values()))
    labels = list(sets)
    index_of = {lab: idx for idx, lab in enumerate(labels, 1)}

    def forward(coloring):
        if not all(isinstance(c, int) and 1 <= c <= k for c in coloring.values()):
            raise ValueError(f"colours must be integers in 1..{k}")
        chosen = {index_of[("S", v, coloring[v])] for v in range(1, g.n + 1)}
        chosen.update(index_of[("T", e, i)] for e in g.edges for i in range(1, k + 1)
                      if i not in (coloring[e[0]], coloring[e[1]]))
        return chosen

    def backward(subfamily):
        picked = (labels[idx - 1] for idx in _member_set(subfamily, "index", len(labels)))
        return {v: i for kind, v, i in picked if kind == "S"}

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
        return _member_set(subfamily, "index", m)

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
        return _member_set(cover, "vertex", g.n)

    def backward(idxs):
        return _member_set(idxs, "index", g.n)

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


def _ilp(constraints, bounds) -> Ilp:
    """The Ilp of a list of (row, relation, rhs) triples over `bounds`."""
    return Ilp(*zip(*constraints), tuple(bounds))


def _at_most_one(count: int, width: int) -> list:
    """The constraints x_i <= 1 on the first `count` of `width` columns."""
    zeros = (0,) * width
    return [(zeros[:i] + (1,) + zeros[i + 1:], "<=", 1) for i in range(count)]


def _knapsack01_to_ilp(problem: Knapsack01) -> ReductionOutput:
    n = len(problem.numbers)
    target = _ilp([(tuple(problem.numbers), "==", problem.target), *_at_most_one(n, n)], ((0, 1),) * n)

    def forward(x):
        return [int(b) for b in _as_assignment(x, n)]

    def backward(x):
        return [int(b) for b in x]

    return ReductionOutput(problem, target, forward, backward)


def _set_cover_to_ilp(problem: SetCover) -> ReductionOutput:
    m = len(problem.family)
    k_eff = min(problem.k, m)
    target = _ilp(
        [*((tuple(1 if a in s else 0 for s in problem.family), ">=", 1) for a in problem.universe),
         ((1,) * m, "==", k_eff),
         *_at_most_one(m, m)],
        ((0, 1),) * m,
    )

    def forward(idxs):
        chosen = _member_set(idxs, "index", m)
        for i in range(1, m + 1):
            if len(chosen) >= k_eff:
                break
            chosen.add(i)
        return [1 if i in chosen else 0 for i in range(1, m + 1)]

    def backward(x):
        return {i + 1 for i, b in enumerate(x) if b}

    return ReductionOutput(problem, target, forward, backward)


def _tsp_to_ilp(problem: Tsp) -> ReductionOutput:
    """Miller-Tucker-Zemlin: an arc column x_ij per ordered pair, then a
    rank column u_i per city i >= 2."""
    n = len(problem.matrix)
    cities = range(1, n + 1)
    arc_vars = [(i, j) for i in cities for j in cities if i != j]
    u_vars = range(2, n + 1)
    width = len(arc_vars) + len(u_vars)
    col = {("x", i, j): idx for idx, (i, j) in enumerate(arc_vars)}
    col.update({("u", i): idx for idx, i in enumerate(u_vars, len(arc_vars))})

    def row_of(entries):
        r = [0] * width
        for key, coef in entries:
            r[col[key]] = coef
        return tuple(r)

    target = _ilp(
        [(row_of([(("x", i, j), problem.matrix[i - 1][j - 1]) for i, j in arc_vars]), "<=", problem.limit),
         *((row_of([(("x", i, j), 1) for j in cities if j != i]), "==", 1) for i in cities),
         *((row_of([(("x", i, j), 1) for i in cities if i != j]), "==", 1) for j in cities),
         *((row_of([(("u", i), 1), (("u", j), -1), (("x", i, j), n)]), "<=", n - 1)
           for i, j in arc_vars if i > 1 and j > 1),
         *_at_most_one(len(arc_vars), width)],
        ((0, 1),) * len(arc_vars) + ((0, n - 1),) * len(u_vars),
    )

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
        succ = {i: j for idx, (i, j) in enumerate(arc_vars) if x[idx]}
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


def _implications(f: CnfFormula):
    """The (tail, head) arcs of the literal digraph, in clause order:
    vertex i is not-x_i, vertex n+i is x_i, and every clause (a or b)
    gives not-a -> b and not-b -> a, a unit clause (a) the arc not-a -> a
    twice."""
    n = f.num_vars
    node = [*range(n, 0, -1), 0, *range(n + 1, 2 * n + 1)]  # literal l at index n + l
    for clause in f.clauses:
        if len(clause) > 2:
            raise ValueError("clause with more than 2 literals")
        a, b = clause[0], clause[-1]
        if a != -b:  # (x or not x) would give two self-loops
            yield node[n - a], node[n + b]
            yield node[n - b], node[n + a]


def implication_graph(f: CnfFormula) -> Digraph:
    """The literal digraph of `_implications`, its arcs in clause order
    with a repeated arc kept at its first occurrence."""
    return Digraph(2 * f.num_vars, _implications(f))


def twosat_solve(f: CnfFormula) -> TwoSatResult:
    """Decide a <=2-CNF formula by the strong components of its implication
    graph (Aspvall, Plass & Tarjan 1979).  The arcs of `_implications` go
    straight into heads and tails lists indexed by vertex, and
    graph_core._scc_labels numbers each literal's component.  An UNSAT
    certificate names the lowest variable in one component with its
    negation (checkable by scc_kosaraju on implication_graph)."""
    n = f.num_vars
    heads: list[list[int]] = [[] for _ in range(2 * n + 1)]
    tails: list[list[int]] = [[] for _ in range(2 * n + 1)]
    for u, v in _implications(f):
        heads[u].append(v)
        tails[v].append(u)
    for vs in heads:
        vs.sort()
    label, _ = _scc_labels(heads, tails, 2 * n)
    for x in range(1, n + 1):
        if label[n + x] == label[x]:
            return TwoSatResult(False, None, x)
    # Labels run sources-first, so "later" means closer to a sink; a
    # literal is true when its component follows its negation's.
    assignment = [label[n + x] > label[x] for x in range(1, n + 1)]
    return TwoSatResult(True, assignment, None)
