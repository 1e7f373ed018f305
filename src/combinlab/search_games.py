"""Query-optimal solvers for the classic search puzzles.

Each solver talks to a caller-supplied oracle and meets an exact worst-case
query bound:

* find_radioactive:  ceil(log2 n) group tests
* find_counterfeit:  ceil(log3 (2n+1)) weighings
* bitonic_max:       k probes where fib(k) <= n < fib(k+1), by Kiefer's (1953)
                     symmetric Fibonacci search; a tie keeps the known index
* sets_equal:        n(n+1)/2 equality probes
* classify_group:    ceil(3(n-1)/2) questions
"""

from __future__ import annotations

from .intmath import _FrozenRecord, ceil_div, coin_pool_size, exact_int, fib_upto
from .oracles import EQUAL, LEFT, RIGHT, CostedOracle


class InconsistentBalanceError(ValueError):
    """Balance answers ruled out every single-counterfeit world."""


class NotBitonicError(ValueError):
    """Probed values cannot belong to any strictly bitonic sequence."""


HEAVIER = "Heavier"
LIGHTER = "Lighter"


class CoinVerdict(_FrozenRecord):
    """Either all coins genuine, or coin `index` with the given bias.  An
    immutable value: verdicts compare and hash by their two fields."""

    __slots__ = ("index", "bias")
    index: int | None
    bias: str | None

    @property
    def all_genuine(self) -> bool:
        return self.index is None


ALL_GENUINE = CoinVerdict(None, None)


def find_radioactive(n: int, tester) -> int:
    """Locate the single radioactive ball among 1..n.

    tester(subset) answers whether the radioactive ball lies in the subset.
    Uses at most ceil(log2 n) tests by halving into parts of sizes
    ceil(|I|/2) and floor(|I|/2).  A tester inconsistent with the
    one-positive model makes the returned index arbitrary.
    """
    if exact_int(n, "n") < 1:
        raise ValueError("needs n >= 1")
    candidates = list(range(1, n + 1))
    while len(candidates) > 1:
        half = ceil_div(len(candidates), 2)
        first = candidates[:half]
        if tester(frozenset(first)):
            candidates = first
        else:
            candidates = candidates[half:]
    return candidates[0]


class BalanceOracle(CostedOracle):
    """Truthful scale for a fixed world; coin 0 is the known-genuine coin."""

    def __init__(self, n: int, verdict: CoinVerdict):
        super().__init__()
        self.n = n
        self.verdict = verdict

    def weigh(self, left, right) -> str:
        left, right = list(left), list(right)
        if len(left) != len(right):
            raise ValueError("pans must hold equally many coins")
        if set(left) & set(right):
            raise ValueError("a coin cannot sit on both pans")
        self.counter.tick()
        coin = self.verdict.index
        if coin is None:
            return EQUAL
        # Only the counterfeit weighs anything: +1 if heavy, -1 otherwise.
        d = left.count(coin) - right.count(coin)
        if self.verdict.bias != HEAVIER:
            d = -d
        return LEFT if d > 0 else RIGHT if d < 0 else EQUAL


GENUINE = 0  # index of the known-genuine coin available to the scheme


def find_counterfeit(n: int, balance) -> CoinVerdict:
    """Identify the at-most-one counterfeit among suspects 1..n.

    balance(left, right) compares two equal-sized groups of coin indices
    (0 is the extra known-genuine coin) and answers Left/Right/Equal.
    Uses at most ceil(log3 (2n+1)) weighings over the 2n+1 possible worlds.
    """
    if exact_int(n, "n") < 1:
        raise ValueError("needs n >= 1")
    levels = 0
    while coin_pool_size(levels) < n:
        levels += 1
    return _solve_pool(list(range(1, n + 1)), levels, balance)


def _solve_pool(suspects: list[int], k: int, balance) -> CoinVerdict:
    """At most one counterfeit among `suspects` (any bias); budget k, the
    least with coin_pool_size(k) >= len(suspects), so each round weighs m > 0."""
    while suspects:
        m = len(suspects) - coin_pool_size(k - 1)  # weighed now; the rest wait
        k -= 1
        half = m // 2
        if m % 2 == 0:
            left = suspects[:half]
            right = suspects[half:m]
        else:
            left = suspects[: half + 1]
            right = suspects[half + 1 : m] + [GENUINE]
        outcome = balance(left, right)
        if outcome == EQUAL:
            suspects = suspects[m:]
            continue
        pans = [c for c in left if c != GENUINE], [c for c in right if c != GENUINE]
        if outcome == LEFT:
            heavies, lights = pans
        else:
            lights, heavies = pans
        return _solve_signed(lights, heavies, k, balance)
    return ALL_GENUINE


def _solve_signed(lights: list[int], heavies: list[int], k: int, balance) -> CoinVerdict:
    """Exactly one counterfeit: light if among `lights`, heavy if among
    `heavies`; requires len(lights) + len(heavies) <= 3**k."""
    while True:
        m = len(lights) + len(heavies)
        if m == 0:
            raise InconsistentBalanceError("inconsistent balance")
        if m == 1:
            if lights:
                return CoinVerdict(lights[0], LIGHTER)
            return CoinVerdict(heavies[0], HEAVIER)
        assert k >= 1 and m <= 3 ** k
        third = 3 ** (k - 1)
        k -= 1
        lo = max(1, ceil_div(m - third, 2))
        x2, y2 = len(lights) // 2, len(heavies) // 2
        if x2 + y2 >= lo:
            # Symmetric weighing: each pan gets x' lights and y' heavies.
            xp = min(x2, third)
            yp = min(y2, third - xp)
            left = lights[:xp] + heavies[:yp]
            right = lights[xp : 2 * xp] + heavies[yp : 2 * yp]
            outcome = balance(left, right)
            if outcome == EQUAL:
                lights, heavies = lights[2 * xp :], heavies[2 * yp :]
            elif outcome == LEFT:
                lights, heavies = lights[xp : 2 * xp], heavies[:yp]
            else:
                lights, heavies = lights[:xp], heavies[yp : 2 * yp]
            continue
        # Only reachable with one light and one heavy suspect: borrow the
        # known-genuine coin to test the light suspect alone.
        outcome = balance([lights[0]], [GENUINE])
        if outcome == RIGHT:
            return CoinVerdict(lights[0], LIGHTER)
        if outcome != EQUAL:
            raise InconsistentBalanceError("inconsistent balance")
        lights = []


def bitonic_max(n: int, probe) -> tuple[int, object]:
    """Peak of a strictly bitonic sequence x_1..x_n via value probes.

    probe(i) returns x_i.  This is Kiefer's (1953) symmetric Fibonacci
    search.  With fib(k) <= n < fib(k+1), the sequence is padded to
    fib(k+1) - 1 entries, so the peak lies strictly between lo = 0 and
    hi = fib(k+1); the search keeps the best index probed inside, and each
    probe mirrors it in the window (lo + hi - known) and cuts the window
    at the worse of the two, down to one index.  So at most k probes are
    spent, and no index is probed twice.  Values compare by `>` alone: the
    search starts out knowing fib(k), so its first probe fib(k - 1) must
    beat fib(k), and every later tie goes to the known index.  Values that
    cannot belong to any bitonic sequence raise NotBitonicError.
    """
    if exact_int(n, "n") < 1:
        raise ValueError("needs n >= 1")
    memo: dict[int, object] = {}

    def value(i: int):
        # Indices beyond n are virtual padding, strictly below all real
        # values and strictly decreasing; they never touch the oracle.
        if i > n:
            return (0, -i)
        if i not in memo:
            memo[i] = (1, probe(i))
            _check_bitonic_consistency(memo)
        return memo[i]

    fibs = fib_upto(n + 1)  # ends with fib(k + 1) > n
    lo, hi, known = 0, fibs[-1], fibs[-2]
    while hi - lo > 2:
        mirror = lo + hi - known
        if value(mirror) > value(known):  # the peak is on the mirror's side
            lo, hi = (lo, known) if mirror < known else (known, hi)
            known = mirror
        elif mirror < known:
            lo = mirror
        else:
            hi = mirror
    flag, peak = value(known)
    if flag == 0:
        raise NotBitonicError("not bitonic")
    return known, peak


def _check_bitonic_consistency(memo: dict[int, object]) -> None:
    """Raise NotBitonicError unless the probed values, in index order, rise
    strictly and then fall strictly: the longest strictly rising prefix
    must reach the longest strictly falling suffix."""
    vals = [memo[i] for i in sorted(memo)]
    rise = 1
    while rise < len(vals) and vals[rise - 1] < vals[rise]:
        rise += 1
    fall = len(vals) - 1
    while fall > 0 and vals[fall - 1] > vals[fall]:
        fall -= 1
    if fall > rise:
        raise NotBitonicError("not bitonic")


def sets_equal(n: int, probe) -> bool:
    """Decide A = B for two n-element sets via probes "a_i == b_j?".

    Scans each a_i against the not-yet-matched elements of B in index
    order, removing matches; spends at most n(n+1)/2 probes.
    """
    if exact_int(n, "n") < 1:
        raise ValueError("needs n >= 1")
    remaining = list(range(1, n + 1))
    for i in range(1, n + 1):
        hit = None
        for j in remaining:
            if probe(i, j):
                hit = j
                break
        if hit is None:
            return False
        remaining.remove(hit)
    return True


def classify_group(n: int, ask) -> dict[int, bool]:
    """Label every member of a group with an honest strict majority.

    ask(i, j) poses "is member j honest?" to member i; honest members
    answer truthfully, dishonest ones arbitrarily.  Returns a complete
    member -> honest? map using at most ceil(3(n-1)/2) questions.
    """
    if exact_int(n, "n") < 3:
        raise ValueError("needs n >= 3")
    # Descend: each round questions about one chosen member.  A round
    # that cannot settle its asked members yet leaves a frame, and the
    # rest of the group (which keeps its honest majority) goes down one
    # level.  Frames are then settled innermost first, as the nested
    # rounds would be, so the questions come in the same order.
    labels: dict[int, bool] = {}
    frames = []
    group = list(range(1, n + 1))
    while True:
        m = len(group)
        if m <= 2:
            labels.update((v, True) for v in group)
            break
        chosen = group[0]
        yes_limit = (m - 1) // 2
        yes_sayers: list[int] = []
        no_sayers: list[int] = []
        for asker in group[1:]:
            if ask(asker, chosen):
                yes_sayers.append(asker)
            else:
                no_sayers.append(asker)
            if len(no_sayers) > len(yes_sayers) or len(yes_sayers) == yes_limit:
                break
        if len(yes_sayers) == yes_limit and len(no_sayers) <= len(yes_sayers):
            # The chosen member is necessarily honest; its answers settle
            # everyone not already exposed as a liar.
            labels[chosen] = True
            for v in no_sayers:
                labels[v] = False
            for v in group[1:]:
                if v not in labels:
                    labels[v] = ask(chosen, v)
            break
        # Stopped with j yes-sayers and j + 1 no-sayers: among them and
        # the chosen member at least j + 1 are dishonest, so the rest of
        # the group keeps its honest majority.
        remaining = group[1 + len(yes_sayers) + len(no_sayers) :]
        frames.append((chosen, yes_sayers, no_sayers, remaining))
        if len(yes_sayers) == yes_limit - 1:
            labels.update((v, True) for v in remaining)
            break
        group = remaining
    while frames:
        chosen, yes_sayers, no_sayers, remaining = frames.pop()
        helper = min(v for v in remaining if labels[v])
        labels[chosen] = ask(helper, chosen)
        # An honest chosen member exposes its no-sayers, a dishonest one
        # its yes-sayers; the helper settles the other side.
        exposed, unsure = yes_sayers, no_sayers
        if labels[chosen]:
            exposed, unsure = no_sayers, yes_sayers
        labels.update((v, False) for v in exposed)
        for v in unsure:
            labels[v] = ask(helper, v)
    return {v: labels[v] for v in range(1, n + 1)}
