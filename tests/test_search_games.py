import copy
import hashlib
import itertools
import json
import pickle
import random

import pytest

from combinlab.intmath import ceil_log2, ceil_log3, exact_int, fib_upto
from combinlab.oracles import CostedOracle, adversary_whoiswho
from combinlab.search_games import (
    ALL_GENUINE,
    HEAVIER,
    LIGHTER,
    BalanceOracle,
    CoinVerdict,
    NotBitonicError,
    bitonic_max,
    classify_group,
    find_counterfeit,
    find_radioactive,
    sets_equal,
)


class GroupTester(CostedOracle):
    def __init__(self, hot: int):
        super().__init__()
        self.hot = hot

    def __call__(self, subset) -> bool:
        self.counter.tick()
        return self.hot in subset


def test_radioactive_single_ball_needs_no_test():
    tester = GroupTester(1)
    assert find_radioactive(1, tester) == 1
    assert tester.count == 0


def test_radioactive_bounds_exhaustive():
    for n in range(1, 13):
        bound = ceil_log2(n)
        for hot in range(1, n + 1):
            tester = GroupTester(hot)
            assert find_radioactive(n, tester) == hot
            assert tester.count <= bound


def test_radioactive_n4_worst_two_tests():
    counts = []
    for hot in range(1, 5):
        tester = GroupTester(hot)
        find_radioactive(4, tester)
        counts.append(tester.count)
    assert max(counts) == 2


def test_radioactive_n100_bound():
    for hot in range(1, 101):
        tester = GroupTester(hot)
        assert find_radioactive(100, tester) == hot
        assert tester.count <= 7


def all_worlds(n):
    yield ALL_GENUINE
    for i in range(1, n + 1):
        yield CoinVerdict(i, HEAVIER)
        yield CoinVerdict(i, LIGHTER)


def test_coin_verdict_is_an_immutable_value():
    v = CoinVerdict(3, HEAVIER)
    assert v == CoinVerdict(3, HEAVIER) and hash(v) == hash(CoinVerdict(3, HEAVIER))
    assert v != CoinVerdict(3, LIGHTER) and v != ALL_GENUINE and v != (3, HEAVIER)
    assert len(set(all_worlds(5))) == 11
    # perfbench's sort-select workload hashes this repr into its input digest
    assert repr(v) == "CoinVerdict(index=3, bias='Heavier')"
    assert repr(ALL_GENUINE) == "CoinVerdict(index=None, bias=None)"
    with pytest.raises(AttributeError):
        v.index = 4
    with pytest.raises(AttributeError):
        del v.bias
    assert v.index == 3 and ALL_GENUINE.all_genuine
    for again in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert again == v


def test_counterfeit_n1_single_weighing():
    for world in all_worlds(1):
        oracle = BalanceOracle(1, world)
        assert find_counterfeit(1, oracle.weigh) == world
        assert oracle.count == 1


def test_counterfeit_all_worlds_within_bound():
    for n in range(1, 14):
        bound = ceil_log3(2 * n + 1)
        worst = 0
        for world in all_worlds(n):
            oracle = BalanceOracle(n, world)
            assert find_counterfeit(n, oracle.weigh) == world
            worst = max(worst, oracle.count)
        assert worst <= bound, (n, worst, bound)


def test_counterfeit_tightness_at_pool_sizes():
    for levels, n in ((1, 1), (2, 4), (3, 13)):
        counts = []
        for world in all_worlds(n):
            oracle = BalanceOracle(n, world)
            find_counterfeit(n, oracle.weigh)
            counts.append(oracle.count)
        assert max(counts) == levels


class PerCoinBalance(BalanceOracle):
    """Reference: the scale as first written, summing one weight per coin
    on each pan."""

    def _weight(self, coin):
        if self.verdict.all_genuine or coin != self.verdict.index:
            return 0
        return 1 if self.verdict.bias == HEAVIER else -1

    def weigh(self, left, right):
        left, right = list(left), list(right)
        if len(left) != len(right):
            raise ValueError("pans must hold equally many coins")
        if set(left) & set(right):
            raise ValueError("a coin cannot sit on both pans")
        self.counter.tick()
        d = sum(self._weight(c) for c in left) - sum(self._weight(c) for c in right)
        return "Left" if d > 0 else "Right" if d < 0 else "Equal"


def test_counted_weighing_matches_per_coin_reference():
    rng = random.Random(29)
    for n in range(1, 31):
        coins = list(range(n + 1))  # coin 0 is the known-genuine coin
        pans = [([0], [1]), ([1], [0]), ([], [])]
        for _ in range(12):
            size = rng.randint(1, (n + 1) // 2)
            picked = rng.sample(coins, 2 * size)
            left, right = picked[:size], picked[size:]
            pans.append((left, right))
            # a pan may hold one coin several times
            pans.append((left + left[:1], right + right[-1:]))
        for world in all_worlds(n):
            fast, ref = BalanceOracle(n, world), PerCoinBalance(n, world)
            for left, right in pans:
                assert fast.weigh(iter(left), tuple(right)) == ref.weigh(left, right), (world, left, right)
            assert find_counterfeit(n, fast.weigh) == find_counterfeit(n, ref.weigh) == world
            assert fast.count == ref.count
            for left, right in (([1], [1]), ([0, 1], [2])):
                with pytest.raises(ValueError):
                    fast.weigh(left, right)
            assert fast.count == ref.count


def test_counterfeit_inconsistent_oracle_raises():
    # For n = 9 the answers Right, Left, Left walk the solver into a state
    # where a lone light suspect outweighs the genuine coin: impossible.
    answers = iter(["Right", "Left", "Left"])

    def lying_balance(left, right):
        return next(answers)

    with pytest.raises(ValueError):
        find_counterfeit(9, lying_balance)


class Probe(CostedOracle):
    def __init__(self, values):
        super().__init__()
        self.values = values
        self.seen = set()

    def __call__(self, i: int):
        assert i not in self.seen, "index probed twice"
        self.seen.add(i)
        self.counter.tick()
        return self.values[i - 1]


def bitonic_sequence(n, peak):
    return list(range(1, peak + 1)) + list(range(peak - 1, peak - 1 - (n - peak), -1))


def test_bitonic_small():
    probe = Probe([7])
    assert bitonic_max(1, probe) == (1, 7)
    assert probe.count == 1

    probe = Probe([3, 9])
    assert bitonic_max(2, probe) == (2, 9)
    assert probe.count == 2


def test_bitonic_example_sequence():
    values = [1, 3, 5, 7, 6, 4, 2]
    probe = Probe(values)
    idx, val = bitonic_max(7, probe)
    assert (idx, val) == (4, 7)
    assert probe.count <= 4


def test_bitonic_exhaustive_bounds():
    fibs = fib_upto(20)
    for n in range(3, 13):
        k = max(i for i in range(len(fibs)) if fibs[i] <= n)
        worst = 0
        for peak in range(1, n + 1):
            values = bitonic_sequence(n, peak)
            probe = Probe(values)
            idx, val = bitonic_max(n, probe)
            assert values[idx - 1] == max(values)
            assert val == max(values)
            worst = max(worst, probe.count)
        assert worst <= k, (n, worst, k)


def test_bitonic_n5_worst_exactly_4():
    worst = 0
    for peak in range(1, 6):
        probe = Probe(bitonic_sequence(5, peak))
        bitonic_max(5, probe)
        worst = max(worst, probe.count)
    assert worst == 4


def test_bitonic_rejects_non_bitonic():
    # Rises to 9, falls to 2, rises again to 8: the probe pattern
    # (indices 3, 5, 6, 8) cannot belong to any bitonic sequence.
    with pytest.raises(NotBitonicError):
        bitonic_max(8, Probe([1, 2, 3, 4, 9, 3, 2, 8]))


# The search as it stood before the symmetric rewrite, kept as the reference
# for its probe sequences: window coordinates that flip at each wrong guess,
# a separate last step, and a consistency check that tries every cut.
def reference_bitonic_max(n: int, probe) -> tuple[int, object]:
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
            _reference_check_bitonic_consistency(memo)
        return memo[i]

    if n == 1:
        return 1, value(1)[1]
    if n == 2:
        v1, v2 = value(1), value(2)
        return (1, v1[1]) if v1 > v2 else (2, v2[1])

    fibs = fib_upto(n + 1)
    k = max(i for i in range(len(fibs)) if fibs[i] <= n)
    while len(fibs) <= k + 1:
        fibs.append(fibs[-1] + fibs[-2])
    total = fibs[k + 1] - 1  # virtual padded length

    def real_index(start: int, step: int, pos: int) -> int:
        return start + step * (pos - 1)

    v1 = value(fibs[k - 1])
    v2 = value(fibs[k])
    if v1 > v2:
        start, step, known_pos, known_val, param = 1, 1, fibs[k - 1], v1, k
    else:
        start, step, known_pos, known_val, param = total, -1, fibs[k - 1], v2, k

    while param > 3:
        q = fibs[param - 2]
        vq = value(real_index(start, step, q))
        if vq > known_val:
            known_pos, known_val, param = q, vq, param - 1
        else:
            # Reverse the window tail; the known element lands at the
            # position required one level down.
            end = real_index(start, step, fibs[param] - 1)
            start, step = end, -step
            known_pos, param = fibs[param - 2], param - 1
    # param == 3: two positions, the second one known.
    vfirst = value(real_index(start, step, 1))
    best_pos = 1 if vfirst > known_val else 2
    best_val = vfirst if vfirst > known_val else known_val
    idx = real_index(start, step, best_pos)
    if best_val[0] == 0:
        raise NotBitonicError("not bitonic")
    return idx, best_val[1]


def _reference_check_bitonic_consistency(memo: dict[int, object]) -> None:
    pairs = sorted(memo.items())
    vals = [v for _, v in pairs]
    m = len(vals)
    for cut in range(m + 1):
        head = vals[:cut]
        tail = vals[cut:]
        if all(head[t] < head[t + 1] for t in range(len(head) - 1)) and all(
            tail[t] > tail[t + 1] for t in range(len(tail) - 1)
        ):
            return
    raise NotBitonicError("not bitonic")


def probe_trace(search, values):
    """The result (or NotBitonicError) and every probed index, in order."""
    probed = []

    def probe(i):
        probed.append(i)
        return values[i - 1]

    try:
        result = search(len(values), probe)
    except NotBitonicError:
        result = NotBitonicError
    return result, probed


def test_bitonic_probes_match_reference_on_every_peak():
    for n in range(1, 121):
        for peak in range(1, n + 1):
            values = bitonic_sequence(n, peak)
            got = probe_trace(bitonic_max, values)
            assert got == probe_trace(reference_bitonic_max, values), (n, peak)
            assert got[0] == (peak, peak)


def test_bitonic_probes_match_reference_on_seeded_values():
    # Small values make ties and non-bitonic probe patterns common, so the
    # tie rule and the step that raises NotBitonicError are both exercised.
    rng = random.Random(23)
    outcomes = set()
    for _ in range(10_000):
        values = [rng.randrange(7) for _ in range(rng.randint(1, 40))]
        got = probe_trace(bitonic_max, values)
        assert got == probe_trace(reference_bitonic_max, values), values
        outcomes.add(got[0] is NotBitonicError)
    assert outcomes == {False, True}


class EqualityOracle(CostedOracle):
    def __init__(self, pairing):
        super().__init__()
        self.pairing = pairing  # i -> j meaning a_i == b_j

    def __call__(self, i, j):
        self.counter.tick()
        return self.pairing.get(i) == j


def test_sets_equal_disjoint_single():
    oracle = EqualityOracle({})
    assert sets_equal(1, oracle) is False
    assert oracle.count == 1


def test_sets_equal_identity_pairing():
    oracle = EqualityOracle({i: i for i in range(1, 5)})
    assert sets_equal(4, oracle) is True
    assert oracle.count <= 10


def test_sets_equal_all_pairings_bound():
    for n in range(1, 6):
        for perm in itertools.permutations(range(1, n + 1)):
            pairing = {i: perm[i - 1] for i in range(1, n + 1)}
            oracle = EqualityOracle(pairing)
            assert sets_equal(n, oracle) is True
            assert oracle.count <= n * (n + 1) // 2


class World(CostedOracle):
    """Fixed honesty labels; dishonest members answer per a strategy."""

    def __init__(self, honest: dict[int, bool], strategy: str):
        super().__init__()
        self.honest = honest
        self.strategy = strategy

    def __call__(self, asker, subject):
        self.counter.tick()
        truth = self.honest[subject]
        if self.honest[asker]:
            return truth
        if self.strategy == "liars":
            return not truth
        if self.strategy == "truthful":
            return truth
        return (asker + subject) % 2 == 0  # arbitrary but deterministic


def majority_worlds(n):
    for bits in itertools.product([True, False], repeat=n):
        if 2 * sum(bits) > n:
            yield {i + 1: bits[i] for i in range(n)}


def test_classify_group_all_honest_n3():
    world = World({1: True, 2: True, 3: True}, "liars")
    labels = classify_group(3, world)
    assert labels == world.honest
    assert world.count <= 3


def test_classify_group_examples():
    world = World({1: False, 2: True, 3: False, 4: True, 5: True}, "liars")
    labels = classify_group(5, world)
    assert labels == world.honest
    assert world.count <= 6

    for strategy in ("liars", "truthful", "mixed"):
        for honest in majority_worlds(4):
            world = World(honest, strategy)
            assert classify_group(4, world) == honest
            assert world.count <= 5


def test_classify_group_exhaustive_worlds():
    for n in range(3, 9):
        bound = -((-3 * (n - 1)) // 2)
        for strategy in ("liars", "truthful", "mixed"):
            for honest in majority_worlds(n):
                world = World(honest, strategy)
                labels = classify_group(n, world)
                assert labels == honest, (n, honest, strategy)
                assert world.count <= bound
                assert 2 * sum(labels.values()) > n


def classify_digest(worlds) -> str:
    """sha256 over the (asker, subject, answer) transcript and the labels of
    classify_group on each (n, ask) in `worlds`."""
    h = hashlib.sha256()
    for n, ask in worlds:
        transcript = []

        def logged(asker, subject):
            answer = ask(asker, subject)
            transcript.append((asker, subject, answer))
            return answer

        labels = classify_group(n, logged)
        h.update(json.dumps([n, transcript, sorted(labels.items())]).encode())
    return h.hexdigest()


def random_liars(n, rng):
    """A random honest majority whose liars answer by coin flip."""
    liars = set(rng.sample(range(1, n + 1), rng.randint(0, (n - 1) // 2)))

    def ask(asker, subject):
        return subject not in liars if asker not in liars else rng.random() < 0.5

    return ask


def test_classify_group_transcripts_pinned():
    adversary = classify_digest((n, adversary_whoiswho(n).ask) for n in range(3, 41))
    rng = random.Random(2024)
    liars = classify_digest((n, random_liars(n, rng)) for n in range(3, 41))
    assert (adversary, liars) == (
        "26836b0781d498601350bd9683c58d99e08d7839670de9554e597dba0c8826ca",
        "fd158eb1d3812769a0fa432d0e6227efa550545fa44b8aba2efd3eab80bd1f27",
    )


def test_classify_group_adversary_n2001():
    n = 2001
    adversary = adversary_whoiswho(n)
    labels = classify_group(n, adversary.ask)
    assert labels == adversary.certify()
    assert adversary.count <= -((-3 * (n - 1)) // 2)
