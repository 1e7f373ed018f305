"""Selection by comparisons with exact budgets.

* tournament_max        exactly n - 1 comparisons
* max_and_min           at most ceil(3n/2) - 2
* top_two               at most n - 2 + ceil(log2 n)
* top_three             at most n + 2*ceil(log2 n) - 3
* select_t_tournament   at most n - t + (t-1)*ceil(log2(n+2-t))
* select_t_linear       at most 15n - 163 for n > 32 (groups of 7)

All functions speak to a counting comparator over item positions; byes in
knockout rounds go to the last entrant of an odd round so the counts are
reproducible.

select_t_linear (Blum, Floyd, Pratt, Rivest & Tarjan 1973) sorts each group
of 7 by merge insertion (Ford & Johnson 1959) without running it: it walks
merge insertion's decision tree over the positions 0..6, memoised in
`_GROUP_TREE` for the life of the process.  The tree is grown on demand, so
selections of up to 1024 items, which sort outright, never build any of it.
When a walk reaches a branch no group has taken yet, `_merge_insertion`
itself reruns over the positions with the walk's answers replayed, and the
rest of its path is added; so the charged `less` calls are merge
insertion's own, in its order, and `_merge_insertion` stays the one
definition of the algorithm.  Answers from a strict order reach one leaf
per order of the 7 handles, so the tree holds at most 7! = 5040 leaves.
Pads are never charged, so a group or base-case list that holds none is
compared by the wrapped comparator directly, not through the pad wrapper.
"""

from __future__ import annotations

from .intmath import exact_int
from .oracles import counting_comparator
from .sorting import _merge_insertion


class KnockoutTree:
    """Complete pairwise-elimination bracket over item positions."""

    __slots__ = ("champion", "victims")

    def __init__(self, champion: int, victims: dict[int, list[int]]):
        self.champion = champion
        self.victims = victims  # winner -> entrants it beat, by round

    @property
    def matches(self) -> int:
        return sum(len(v) for v in self.victims.values())


def _knockout(entrants: list[int], cmp) -> KnockoutTree:
    victims: dict[int, list[int]] = {e: [] for e in entrants}
    current = list(entrants)
    while len(current) > 1:
        nxt = []
        for i in range(0, len(current) - 1, 2):
            a, b = current[i], current[i + 1]
            if cmp.less(a, b):
                a, b = b, a
            victims[a].append(b)
            nxt.append(a)
        if len(current) % 2:
            nxt.append(current[-1])  # bye for the last entrant
        current = nxt
    return KnockoutTree(current[0], victims)


def _serial_max(entrants: list[int], cmp) -> int:
    best = entrants[0]
    for e in entrants[1:]:
        if cmp.less(best, e):
            best = e
    return best


def tournament_max(items, cmp=None) -> tuple[int, KnockoutTree]:
    """Position of the maximum via a cup tournament; exactly n - 1
    comparisons.  Returns (argmax, bracket)."""
    if cmp is None:
        cmp = counting_comparator(items)
    n = len(items)
    if n < 1:
        raise ValueError("needs n >= 1")
    tree = _knockout(list(range(n)), cmp)
    return tree.champion, tree


def max_and_min(items, cmp=None) -> tuple[int, int]:
    """Positions of maximum and minimum with <= ceil(3n/2) - 2
    comparisons: pair up, then scan winners for the max and losers for the
    min; at odd n the unpaired entrant joins both scans."""
    if cmp is None:
        cmp = counting_comparator(items)
    n = len(items)
    if n < 2:
        raise ValueError("needs n >= 2")
    winners, losers = [], []
    for i in range(0, n - 1, 2):
        a, b = i, i + 1
        if cmp.less(a, b):
            a, b = b, a
        winners.append(a)
        losers.append(b)
    if n % 2:
        winners.append(n - 1)
        losers.append(n - 1)
    best = _serial_max(winners, cmp)
    worst = losers[0]
    for e in losers[1:]:
        if cmp.less(e, worst):
            worst = e
    return best, worst


def top_two(items, cmp=None) -> tuple[int, int]:
    """First and second place with <= n - 2 + ceil(log2 n) comparisons.
    The runner-up is the best among the champion's victims."""
    if cmp is None:
        cmp = counting_comparator(items)
    n = len(items)
    if n < 2:
        raise ValueError("needs n >= 2")
    champion, tree = tournament_max(items, cmp)
    second = _serial_max(tree.victims[champion], cmp)
    return champion, second


def top_three(items, cmp=None) -> tuple[int, int, int]:
    """First, second and third places with <= n + 2*ceil(log2 n) - 3
    comparisons.

    Second place is decided by a serial mini-tournament over the
    champion's victims taken in the order they lost (so the winner's
    total victory count stays <= ceil(log2 n)); third place is the best
    among the runner-up's victims.
    """
    if cmp is None:
        cmp = counting_comparator(items)
    n = len(items)
    if n < 3:
        raise ValueError("needs n >= 3")
    champion, tree = tournament_max(items, cmp)
    contenders = tree.victims[champion]  # already in round order
    mini_victims: dict[int, list[int]] = {c: [] for c in contenders}
    second = contenders[0]
    for c in contenders[1:]:
        if cmp.less(second, c):
            mini_victims[c].append(second)
            second = c
        else:
            mini_victims[second].append(c)
    third_candidates = tree.victims[second] + mini_victims[second]
    third = _serial_max(third_candidates, cmp)
    return champion, second, third


class _Bracket:
    """Complete binary bracket supporting leaf replacement with partial
    replay; empty leaves act as byes."""

    def __init__(self, entrants: list[int], cmp):
        self.cmp = cmp
        size = 1
        while size < len(entrants):
            size *= 2
        self.size = size
        self.slots: list = list(entrants) + [None] * (size - len(entrants))
        node = self.node = [None] * size + self.slots
        less = cmp.less
        for v in range(size - 1, 0, -1):
            a, b = node[2 * v], node[2 * v + 1]
            node[v] = b if a is None else a if b is None else b if less(a, b) else a
        self.leaf_of = {e: size + i for i, e in enumerate(self.slots) if e is not None}

    @property
    def winner(self):
        return self.node[1]

    def replace(self, old, new) -> None:
        node = self.node
        less = self.cmp.less
        v = self.leaf_of.pop(old)
        node[v] = new
        if new is not None:
            self.leaf_of[new] = v
        v //= 2
        while v:
            a, b = node[2 * v], node[2 * v + 1]
            node[v] = b if a is None else a if b is None else b if less(a, b) else a
            v //= 2


def select_t_tournament(items, t: int, cmp=None) -> int:
    """Position of the t-th largest via a replacement tournament.

    Runs a knockout over the first n - t + 2 entrants, then t - 2 times
    replaces the current winner with a fresh entrant and replays its
    path, and finally retires the last winner without replacement; the
    surviving winner is the t-th largest.  Comparisons stay within
    n - t + (t-1)*ceil(log2(n+2-t)).
    """
    if cmp is None:
        cmp = counting_comparator(items)
    n = len(items)
    if not 1 <= exact_int(t, "t") <= n:
        raise ValueError("t out of range")
    if t == 1:
        return tournament_max(items, cmp)[0]
    m = n - t + 2
    bracket = _Bracket(list(range(m)), cmp)
    for fresh in range(m, n):
        bracket.replace(bracket.winner, fresh)
    bracket.replace(bracket.winner, None)
    return bracket.winner


# select_t_linear: groups of 7, median of medians, base case by sorting.

_BASE_CASE = 1 << 10


class _PadComparator:
    """Comparator over item positions and the pads that `pad()` hands out.

    Items are the positions 0, 1, 2, ...; pads are the negative ints -1,
    -2, ... drawn from one counter per selection, so a pad never repeats.
    Only item-item comparisons reach the wrapped comparator `items` and
    are charged; a pad compares below every item, and pads compare among
    themselves as ints, free of charge.
    """

    def __init__(self, cmp):
        self.items = cmp
        self._less = cmp.less
        self._pads = 0

    def pad(self) -> int:
        self._pads -= 1
        return self._pads

    def less(self, a, b) -> bool:
        if a >= 0 and b >= 0:
            return self._less(a, b)
        return a < b


# Merge insertion's decision tree over the positions 0..6 of a group.  An
# inner node [i, j, no, yes] asks less(group[i], group[j]); a leaf is the
# tuple of the 7 positions in descending order; None is a branch no group
# has reached yet.  Slot 0 holds the root.
_GROUP_TREE: list = [None]


class _Replay:
    """Comparator over the positions of one group: answers the first calls
    from `answers`, which were already charged, then asks `ask` about the
    group's handles and records each new call as (i, j, answer)."""

    __slots__ = ("answers", "group", "ask", "asked")

    def __init__(self, answers: list, group: list, ask):
        self.answers = answers[::-1]  # popped from the end, first answer first
        self.group = group
        self.ask = ask
        self.asked: list = []

    def less(self, i: int, j: int) -> bool:
        if self.answers:
            return self.answers.pop()
        answer = self.ask(self.group[i], self.group[j])
        self.asked.append((i, j, answer))
        return answer


def _sort_group(group: list, less) -> list:
    """Descending order of 7 distinct handles, making the `less` calls of
    `_merge_insertion(group, ...)` in the same order.

    Walks `_GROUP_TREE`; on reaching a branch not grown yet it reruns
    `_merge_insertion` over the positions, replaying the answers of the
    walk, and hangs the rest of that run's path below the branch.
    """
    parent, slot = _GROUP_TREE, 0
    node = parent[0]
    answers = []
    while type(node) is list:
        answer = less(group[node[0]], group[node[1]])
        answers.append(answer)
        parent, slot = node, 3 if answer else 2
        node = parent[slot]
    if node is None:
        replay = _Replay(answers, group, less)
        leaf = branch = tuple(_merge_insertion(list(range(7)), replay)[::-1])
        for i, j, answer in reversed(replay.asked):
            branch = [i, j, None, branch] if answer else [i, j, branch, None]
        parent[slot] = branch
        node = leaf
    return [group[p] for p in node]


def select_t_linear(items, t: int, cmp=None) -> int:
    """Position of the t-th largest in worst-case linear time.

    Sizes up to 1024 are sorted outright with merge-insertion sort; larger
    inputs are padded with bottom sentinels to 7*(2q+1) elements, split
    into groups of 7, partitioned around the median of the group medians,
    and recursed.  For n > 32 the comparison count stays <= 15n - 163.
    """
    if cmp is None:
        cmp = counting_comparator(items)
    n = len(items)
    if not 1 <= exact_int(t, "t") <= n:
        raise ValueError("t out of range")
    x, _, _ = _select_partition(list(range(n)), t, _PadComparator(cmp))
    return x


def _select_partition(handles: list, t: int, cmp: _PadComparator) -> tuple:
    """Return (t-th largest, handles greater than it, handles less).

    Handles are distinct item positions and pads.  A level pads its list
    with fresh pads from `cmp.pad()`, so pads inherited from the levels
    above never collide with its own and every sort sees distinct handles.
    Pads sit below every item, so the t-th largest is an item whenever the
    list holds at least t items.
    """
    n = len(handles)
    if n <= _BASE_CASE:
        # Pads are never charged, so a list without one can skip the wrapper.
        asc = _merge_insertion(handles, cmp.items if min(handles) >= 0 else cmp)
        x = asc[n - t]
        return x, asc[n - t + 1 :], asc[: n - t]

    padded = list(handles)
    while len(padded) % 7 or (len(padded) // 7) % 2 == 0:
        padded.append(cmp.pad())
    items_less, less = cmp.items.less, cmp.less
    groups = []
    for i in range(0, len(padded), 7):
        group = padded[i : i + 7]
        groups.append(_sort_group(group, items_less if min(group) >= 0 else less))
    medians = [g[3] for g in groups]
    q = (len(medians) - 1) // 2
    x, med_above, med_below = _select_partition(medians, q + 1, cmp)
    above = set(med_above)
    greater: list = []
    smaller: list = []
    for g in groups:
        median = g[3]
        if median == x:
            greater.extend(g[:3])
            smaller.extend(g[4:])
        elif median in above:
            greater.extend(g[:4])
            u, v, w = g[4], g[5], g[6]
            if cmp.less(x, v):
                greater.extend([u, v])
                (greater if cmp.less(x, w) else smaller).append(w)
            else:
                smaller.extend([v, w])
                (greater if cmp.less(x, u) else smaller).append(u)
        else:
            smaller.extend(g[3:])
            u, v, w = g[0], g[1], g[2]
            if cmp.less(v, x):
                smaller.extend([v, w])
                (greater if cmp.less(x, u) else smaller).append(u)
            else:
                greater.extend([u, v])
                (greater if cmp.less(x, w) else smaller).append(w)
    r = len(greater)
    if t == r + 1:
        return x, greater, smaller
    if t < r + 1:
        y, g2, s2 = _select_partition(greater, t, cmp)
        return y, g2, s2 + [x] + smaller
    y, g2, s2 = _select_partition(smaller, t - 1 - r, cmp)
    return y, g2 + [x] + greater, s2
