"""Instrumented query oracles and worst-case adversaries.

Every query-model algorithm in this package talks to an oracle object that
counts the queries it answers.  Adversaries are oracles that pick answers to
keep as many concrete inputs alive as possible; each one can certify itself
by producing a concrete input that reproduces its whole answer transcript.
"""

from __future__ import annotations

from .intmath import exact_int

LESS = "Less"
GREATER = "Greater"

# Balance outcomes (left pan vs right pan).
LEFT = "Left"
RIGHT = "Right"
EQUAL = "Equal"


class NonStrictOrderError(ValueError):
    """Two compared keys were equal and no index tie-break is enabled."""


class AdversarySoundnessError(AssertionError):
    """An adversary produced answers with no consistent concrete input."""


class QueryCounter:
    """Number of oracle queries answered so far."""

    __slots__ = ("count",)

    def __init__(self, count: int = 0):
        self.count = exact_int(count, "count")

    def tick(self) -> None:
        self.count += 1


class CostedOracle:
    """Base class: anything that answers queries and counts them."""

    def __init__(self) -> None:
        self.counter = QueryCounter()

    @property
    def count(self) -> int:
        return self.counter.count


class CountingComparator(CostedOracle):
    """Comparison oracle over the positions of an item sequence.

    compare(i, j) answers how items[i] relates to items[j] and charges one
    query.  Keys must be pairwise distinct unless tie_break is set, in which
    case equal keys are ordered by position.
    """

    def __init__(self, items, tie_break: bool = False):
        super().__init__()
        self.items = list(items)
        self.tie_break = tie_break

    def compare(self, i: int, j: int) -> str:
        return LESS if self.less(i, j) else GREATER

    def less(self, i: int, j: int) -> bool:
        self.counter.count += 1
        a, b = self.items[i], self.items[j]
        if a == b:
            if i == j or not self.tie_break:
                raise NonStrictOrderError(
                    "non-strict order: items[%d] == items[%d]" % (i, j)
                )
            return i < j
        return a < b


def counting_comparator(items, tie_break: bool = False) -> CountingComparator:
    return CountingComparator(items, tie_break=tie_break)


class AdversaryMerge(CostedOracle):
    """Worst-case oracle for merging two sorted runs of sizes m and n.

    Answers a_i < b_j exactly when i < j, which forces the interleaving
    b1 < a1 < b2 < a2 < ... and makes any correct merge of equal runs spend
    2n - 1 comparisons.  Run elements are the tokens ('a', i) and ('b', j),
    1-based.
    """

    def __init__(self, m: int, n: int):
        if exact_int(m, "m") < 1 or exact_int(n, "n") < 1:
            raise ValueError("run sizes must be >= 1")
        super().__init__()
        self.m = m
        self.n = n
        self.xs = [("a", i) for i in range(1, m + 1)]
        self.ys = [("b", j) for j in range(1, n + 1)]
        self.transcript: list[tuple[tuple, tuple, bool]] = []

    def _value(self, token) -> int:
        run, idx = token
        return 2 * idx if run == "a" else 2 * idx - 1

    def less(self, u, v) -> bool:
        if u[0] == v[0]:
            raise ValueError("adversary only answers cross-run comparisons")
        self.counter.tick()
        answer = self._value(u) < self._value(v)
        self.transcript.append((u, v, answer))
        return answer

    def certify(self):
        """Concrete run values consistent with every answer given so far."""
        xs = [self._value(t) for t in self.xs]
        ys = [self._value(t) for t in self.ys]
        for u, v, answer in self.transcript:
            if (self._value(u) < self._value(v)) != answer:
                raise AdversarySoundnessError("adversary broke soundness")
        return xs, ys


def adversary_merge(m: int, n: int) -> AdversaryMerge:
    return AdversaryMerge(m, n)


class AdversarySetEquality(CostedOracle):
    """Worst-case oracle for the set-equality probes "a_i == b_j?".

    Keeps an n x n admissibility table.  A probe is answered "no" whenever
    the table, with that cell also marked "no", still admits n independent
    admissible cells (a perfect matching); otherwise it answers "yes".  The
    forced branch corresponds to equal sets.  Repeated probes are answered
    from the table without recounting.

    One such matching is kept, starting as the identity, so a probe outside
    it is a "no" at once.  A probe inside it is a "no" exactly when the
    matching, less that cell, grows back by one augmenting path from row i
    to column j that avoids the cell (Berge 1957).
    """

    def __init__(self, n: int):
        if exact_int(n, "n") < 1:
            raise ValueError("needs n >= 1")
        super().__init__()
        self.n = n
        self.no_cells: set[tuple[int, int]] = set()
        self.yes_cells: set[tuple[int, int]] = set()
        self._row_of_col = {c: c for c in range(1, n + 1)}

    def _augment(self, root: int, row_of_col: dict[int, int]) -> bool:
        """Grow the column -> row matching by one path from the free row
        root to a free column over cells that are not "no"; False, leaving
        it as it was, when no such path exists.

        The search runs depth first on an explicit stack of [row, column
        iterator, chosen column] frames, trying columns in increasing order.
        """
        n = self.n
        blocked = self.no_cells
        seen: set[int] = set()
        stack = [[root, iter(range(1, n + 1)), None]]
        while stack:
            frame = stack[-1]
            i = frame[0]
            free = (c for c in frame[1] if (i, c) not in blocked and c not in seen)
            j = frame[2] = next(free, None)
            if j is None:
                stack.pop()
                continue
            seen.add(j)
            if j in row_of_col:
                stack.append([row_of_col[j], iter(range(1, n + 1)), None])
                continue
            for row, _, col in stack:  # augment along the path
                row_of_col[col] = row
            return True
        return False

    def _matching(self) -> dict[int, int] | None:
        """A perfect row -> column matching avoiding every "no" cell, built
        from scratch by Kuhn's augmenting paths; None when none exists."""
        row_of_col: dict[int, int] = {}
        for root in range(1, self.n + 1):
            if not self._augment(root, row_of_col):
                return None
        return {i: j for j, i in row_of_col.items()}

    def probe(self, i: int, j: int) -> bool:
        """Answer "is a_i equal to b_j?"; True means yes."""
        if not (1 <= exact_int(i, "i") <= self.n and 1 <= exact_int(j, "j") <= self.n):
            raise ValueError("probe out of range")
        if (i, j) in self.no_cells:
            return False
        if (i, j) in self.yes_cells:
            return True
        self.counter.tick()
        self.no_cells.add((i, j))
        row_of_col = self._row_of_col
        if row_of_col[j] != i:
            return False
        del row_of_col[j]
        if self._augment(i, row_of_col):
            return False
        row_of_col[j] = i
        self.no_cells.remove((i, j))
        self.yes_cells.add((i, j))
        return True

    def certify(self):
        """A pairing row -> column realizing A = B under all answers.

        The returned dict maps i to j meaning a_i = b_j; replaying the
        transcript against it reproduces every recorded answer.
        """
        pairing = self._matching()
        if pairing is None:
            raise AdversarySoundnessError("adversary broke soundness")
        for (i, j) in self.yes_cells:
            if pairing[i] != j:
                raise AdversarySoundnessError("adversary broke soundness")
        for (i, j) in self.no_cells:
            if pairing[i] == j:
                raise AdversarySoundnessError("adversary broke soundness")
        return pairing


def adversary_set_equality(n: int) -> AdversarySetEquality:
    return AdversarySetEquality(n)


class AdversaryWhoIsWho(CostedOracle):
    """Worst-case oracle for "is member j honest?" questions.

    The first ceil((n-1)/2) - 1 questions are answered "no"; their (asker,
    subject) pairs define a graph G whose connected components drive all
    later answers: a subject outside G is vouched for, a subject inside a
    component is denounced as long as that leaves another member of the
    component unqueried or vouched-for, and is vouched for otherwise.
    """

    def __init__(self, n: int):
        if exact_int(n, "n") < 3:
            raise ValueError("needs n >= 3")
        super().__init__()
        self.n = n
        self.k = -((-(n - 1)) // 2) - 1  # ceil((n-1)/2) - 1
        self.phase1_pairs: list[tuple[int, int]] = []
        self.resolved: dict[int, bool] = {}  # subject -> phase-2 answer
        self.transcript: list[tuple[int, int, bool]] = []
        self._components: list[set[int]] | None = None

    def _phase1_components(self) -> list[set[int]]:
        """Connected components of the phase-1 graph, cached until it grows."""
        if self._components is None:
            comps: list[set[int]] = []
            for (i, j) in self.phase1_pairs:
                hits = [c for c in comps if i in c or j in c]
                merged = {i, j}
                for c in hits:
                    merged |= c
                    comps.remove(c)
                comps.append(merged)
            self._components = comps
        return self._components

    def ask(self, asker: int, subject: int) -> bool:
        if asker == subject:
            raise ValueError("self-question not allowed")
        if not (1 <= asker <= self.n and 1 <= subject <= self.n):
            raise ValueError("member out of range")
        self.counter.tick()
        if len(self.phase1_pairs) < self.k:
            self.phase1_pairs.append((asker, subject))
            self._components = None
            self.transcript.append((asker, subject, False))
            return False
        answer = self._phase2_answer(subject)
        self.transcript.append((asker, subject, answer))
        return answer

    def _phase2_answer(self, subject: int) -> bool:
        comp = next((c for c in self._phase1_components() if subject in c), None)
        if comp is None:
            return True
        if subject in self.resolved:
            return self.resolved[subject]
        others_alive = any(
            v != subject and self.resolved.get(v, True) for v in comp
        )
        answer = not others_alive
        self.resolved[subject] = answer
        return answer

    def _honest_set(self) -> set[int]:
        honest = set(range(1, self.n + 1))
        for comp in self._phase1_components():
            honest -= comp
            vouched = [v for v in comp if self.resolved.get(v) is True]
            if vouched:
                honest.add(min(vouched))
            else:
                alive = [v for v in comp if v not in self.resolved]
                if not alive:
                    raise AdversarySoundnessError("adversary broke soundness")
                honest.add(min(alive))
        return honest

    def certify(self) -> dict[int, bool]:
        """A labeling (member -> honest?) consistent with the transcript.

        Honest members must have answered every recorded question
        truthfully; dishonest members may say anything.  The labeling keeps
        a strict honest majority.
        """
        honest = self._honest_set()
        if 2 * len(honest) <= self.n:
            raise AdversarySoundnessError("adversary broke soundness")
        for asker, subject, answer in self.transcript:
            if asker in honest and answer != (subject in honest):
                raise AdversarySoundnessError("adversary broke soundness")
        return {v: v in honest for v in range(1, self.n + 1)}


def adversary_whoiswho(n: int) -> AdversaryWhoIsWho:
    return AdversaryWhoIsWho(n)


def adversary_certify(adv):
    """Concrete input consistent with everything the adversary answered."""
    return adv.certify()
