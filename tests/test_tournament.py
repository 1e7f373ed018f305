import hashlib
import itertools
import random

import pytest

from combinlab import tournament
from combinlab.intmath import ceil_log2
from combinlab.oracles import counting_comparator
from combinlab.tournament import (
    max_and_min,
    select_t_linear,
    select_t_tournament,
    top_three,
    top_two,
    tournament_max,
)


def ranks_desc(items):
    return sorted(range(len(items)), key=lambda i: -items[i])


def test_max_single_item_zero_comparisons():
    cmp = counting_comparator([9])
    idx, _ = tournament_max([9], cmp)
    assert idx == 0 and cmp.count == 0


def test_max_exact_count_n8():
    items = [5, 3, 8, 1, 7, 2, 6, 4]
    cmp = counting_comparator(items)
    idx, tree = tournament_max(items, cmp)
    assert items[idx] == 8
    assert cmp.count == 7
    assert tree.matches == 7


def test_max_matches_sort_oracle():
    rng = random.Random(11)
    for _ in range(50):
        items = rng.sample(range(1000), rng.randint(1, 40))
        cmp = counting_comparator(items)
        idx, tree = tournament_max(items, cmp)
        assert items[idx] == max(items)
        assert cmp.count == len(items) - 1
        # Champion's victim list is the only second-place candidate set.
        assert len(tree.victims[idx]) <= ceil_log2(len(items)) or len(items) == 1


def test_max_and_min_counts():
    for n, bound in ((2, 1), (7, 9), (8, 10)):
        items = list(range(n))
        random.Random(n).shuffle(items)
        cmp = counting_comparator(items)
        hi, lo = max_and_min(items, cmp)
        assert items[hi] == max(items) and items[lo] == min(items)
        assert cmp.count <= bound


def test_top_two_bounds():
    for n in (2, 6, 8):
        items = list(range(n))
        random.Random(n).shuffle(items)
        cmp = counting_comparator(items)
        first, second = top_two(items, cmp)
        order = ranks_desc(items)
        assert [first, second] == order[:2]
        assert cmp.count <= n - 2 + ceil_log2(n)


def test_top_three_bounds():
    for n in (3, 8, 16):
        items = list(range(n))
        random.Random(n).shuffle(items)
        cmp = counting_comparator(items)
        triple = top_three(items, cmp)
        assert list(triple) == ranks_desc(items)[:3]
        assert cmp.count <= n + 2 * ceil_log2(n) - 3


def test_exhaustive_small_permutations():
    for n in range(2, 7):
        bound_mm = -((-3 * n) // 2) - 2
        for perm in itertools.permutations(range(1, n + 1)):
            items = list(perm)
            order = ranks_desc(items)

            cmp = counting_comparator(items)
            assert tournament_max(items, cmp)[0] == order[0]
            assert cmp.count == n - 1

            cmp = counting_comparator(items)
            hi, lo = max_and_min(items, cmp)
            assert (hi, lo) == (order[0], order[-1])
            assert cmp.count <= bound_mm

            cmp = counting_comparator(items)
            assert list(top_two(items, cmp)) == order[:2]
            assert cmp.count <= n - 2 + ceil_log2(n)

            if n >= 3:
                cmp = counting_comparator(items)
                assert list(top_three(items, cmp)) == order[:3]
                assert cmp.count <= n + 2 * ceil_log2(n) - 3

            for t in range(1, n + 1):
                cmp = counting_comparator(items)
                assert select_t_tournament(items, t, cmp) == order[t - 1]
                assert cmp.count <= n - t + (t - 1) * ceil_log2(n + 2 - t)


def test_select_t_tournament_specifics():
    items = list(range(10))
    random.Random(3).shuffle(items)
    cmp = counting_comparator(items)
    idx = select_t_tournament(items, 3, cmp)
    assert items[idx] == sorted(items)[-3]
    assert cmp.count <= 10 - 3 + 2 * ceil_log2(9)

    items6 = [4, 2, 6, 1, 5, 3]
    cmp = counting_comparator(items6)
    assert items6[select_t_tournament(items6, 6, cmp)] == 1


def test_select_t_out_of_range():
    with pytest.raises(ValueError):
        select_t_tournament([1, 2, 3], 0)
    with pytest.raises(ValueError):
        select_t_linear([1, 2, 3], 4)


def test_select_t_linear_small_and_median():
    items = random.Random(5).sample(range(10000), 200)
    cmp = counting_comparator(items)
    idx = select_t_linear(items, 100, cmp)
    assert items[idx] == sorted(items, reverse=True)[99]

    items7 = [3, 9, 1, 7, 5, 8, 2]
    cmp = counting_comparator(items7)
    idx = select_t_linear(items7, 4, cmp)
    assert items7[idx] == sorted(items7, reverse=True)[3]
    assert cmp.count <= 13  # sorted base case


def test_select_t_linear_bound_and_correctness():
    rng = random.Random(19)
    for n in (33, 64, 500, 1100, 1500, 2000):
        items = rng.sample(range(10 * n), n)
        for t in (1, n // 3 + 1, n):
            cmp = counting_comparator(items)
            idx = select_t_linear(items, t, cmp)
            assert items[idx] == sorted(items, reverse=True)[t - 1]
            assert cmp.count <= 15 * n - 163, (n, t, cmp.count)


def test_select_t_linear_exhaustive_tiny():
    for n in range(1, 7):
        for perm in itertools.permutations(range(1, n + 1)):
            items = list(perm)
            for t in range(1, n + 1):
                idx = select_t_linear(items, t)
                assert items[idx] == n - t + 1



@pytest.mark.parametrize("n", (7176, 11247, 20000))
def test_select_t_linear_sorts_distinct_handles(monkeypatch, n):
    # Lists deep enough to be padded twice once held the same pad twice, and
    # merge insertion keys its bookkeeping on the handles themselves.  Groups
    # of 7 go to the decision-tree sorter, which is spied on as well.
    sorted_lists = []

    def spy_on(name):
        sort = getattr(tournament, name)

        def spy(handles, cmp):
            sorted_lists.append(list(handles))
            return sort(handles, cmp)

        monkeypatch.setattr(tournament, name, spy)

    spy_on("_merge_insertion")
    spy_on("_sort_group")
    items = random.Random(n).sample(range(10 * n), n)
    for t in sorted({1, (n + 1) // 2, n}):
        assert items[select_t_linear(items, t)] == sorted(items, reverse=True)[t - 1]
    assert len(sorted_lists) > 3 * n // 7
    assert [h for h in sorted_lists if len(set(h)) < len(h)] == []


class RecordingComparator:
    """Counting comparator that also logs every less(i, j) call in order."""

    def __init__(self, items):
        self.inner = counting_comparator(items)
        self.calls = []

    def less(self, i, j):
        self.calls.append((i, j))
        return self.inner.less(i, j)


def select_transcript(fn, n: int) -> str:
    """Select the largest, the median and the smallest of n seeded keys."""
    items = random.Random(n).sample(range(10 * n), n)
    calls, outs = [], []
    for t in sorted({1, (n + 1) // 2, n}):
        cmp = RecordingComparator(items)
        idx = fn(items, t, cmp)
        assert items[idx] == sorted(items, reverse=True)[t - 1]
        calls.append(cmp.calls)
        outs.append(idx)
    return hashlib.sha256(repr((calls, outs)).encode()).hexdigest()


# sha256 of the full less(i, j) sequence plus the output, recorded before the
# selection layer's bookkeeping was rewritten; the rewrite must not move them.
SELECT_TRANSCRIPTS = {
    ("select_t_linear", 1): "0fb8bbaa0641d107464afa9f2a2dc36271d4538b659f00eabf290b342748d8f0",
    ("select_t_linear", 2): "d6c5126054b5adf3b04d87e34291989b13c3dc4a5ab35d85a4b1c4e087857517",
    ("select_t_linear", 3): "8686b7f1ea200758876707e0fc0b7ee453bc8e622af1465e500facbf457c3598",
    ("select_t_linear", 7): "06cde3eac45bb62e4a1905f7eb9ae6a2b6ad3b6a2eb994b63271317ca971ee6a",
    ("select_t_linear", 8): "adba079c986c296799238ace29028d37dacd2182ec8759d49f957151d3d83d1e",
    ("select_t_linear", 100): "7b1974616f7feecdef8b3b42bdd0adb3bc0a9c2a9f9d8b87ee93de790b131daa",
    ("select_t_linear", 1023): "13b6b41820b48705c9fb4aa88cee08f385b714445fe477b0876a35be0b6fdafe",
    ("select_t_linear", 1024): "12ade10cd4ab76be4adee31178e9f880e0197123e7a3d636ab10a34607b5fa7e",
    ("select_t_linear", 1025): "e6c20abb5d24abae01147749fc18dfe93ef8d2a97618fb25b7a563299360c2bf",
    ("select_t_linear", 2999): "cdf36f9b9067cb9fa9faf27b9d2528d8fbe73a3dc981553cb69bd005ff8da082",
    ("select_t_linear", 3000): "b8ae7a376bf7285460b107d8fdb3edd0cd931198e929aacbfaa036631a74bf65",
    ("select_t_linear", 20000): "030fbcd40d55e251f78d691037ef2f79eca86031de55ab554068bbf5598e90ee",
    ("select_t_tournament", 1): "0fb8bbaa0641d107464afa9f2a2dc36271d4538b659f00eabf290b342748d8f0",
    ("select_t_tournament", 2): "d6c5126054b5adf3b04d87e34291989b13c3dc4a5ab35d85a4b1c4e087857517",
    ("select_t_tournament", 3): "09e0aadc2f897b344e24921d2be9c716705187f539a7c68fb5719bc27596b18f",
    ("select_t_tournament", 4): "a6516bf59597993286c2ec7d88b7b376161775813bb6e88d188d54913a968dfe",
    ("select_t_tournament", 5): "40019f9c9ea3559031d4d6729c7c3c02063d00d335e4269afcfc1a6b4ad4a17e",
    ("select_t_tournament", 100): "d01a562995c0323071ce32f0dff17ac056d942c33b01ec043b49c21d7e53fad2",
    ("select_t_tournament", 1001): "1dd923c1211e43d8f5b943ff52734d55c911f4293f41533798b92e4d4c34df32",
    ("select_t_tournament", 2999): "28dec27caa7ccf93b027377509495f2544d8ce06dda9b7c77d6a1b1c6c3d60e0",
    ("select_t_tournament", 3000): "863070eb1d7d982150f18a72e8b1d197cd3ad21278dae8eb778391ce61dd776a",
}

SELECTORS = {"select_t_linear": select_t_linear, "select_t_tournament": select_t_tournament}


@pytest.mark.parametrize("case", sorted(SELECT_TRANSCRIPTS), ids="{0[0]}-{0[1]}".format)
def test_selection_transcripts_pinned(case):
    name, n = case
    assert select_transcript(SELECTORS[name], n) == SELECT_TRANSCRIPTS[case]


class FullReadBracket(tournament._Bracket):
    """Reference: leaf replacement as first written, reading both children
    of every node on the path to the root."""

    def replace(self, old, new):
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


def test_bracket_replace_matches_full_read_reference(monkeypatch):
    cases = [(n, t) for n in range(1, 34) for t in range(1, n + 1)]
    cases += [(100, 50), (1000, 3), (1000, 998), (3000, 1500), (4097, 2049)]
    brackets = (tournament._Bracket, FullReadBracket)
    for n, t in cases:
        items = random.Random(n * 7 + t).sample(range(10 * n), n)
        runs = []
        for bracket in brackets:
            monkeypatch.setattr(tournament, "_Bracket", bracket)
            cmp = RecordingComparator(items)
            runs.append((select_t_tournament(items, t, cmp), cmp.calls))
        assert runs[0] == runs[1], (n, t)


def group_cases():
    """Every order of 7 items, and of 7 - k items followed by k pads."""
    for pads in range(7):
        for keys in itertools.permutations(range(7 - pads)):
            yield keys, list(range(7 - pads)) + list(range(-1, -1 - pads, -1))


def grown_leaves(tree) -> int:
    leaves, stack = 0, [tree[0]]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            leaves += 1
        elif node is not None:
            stack += node[2:]
    return leaves


def test_sort_group_replays_merge_insertion(monkeypatch):
    monkeypatch.setattr(tournament, "_GROUP_TREE", [None])
    for _ in range(2):  # growing the tree from empty, then walking the full one
        for keys, group in group_cases():
            want_cmp, got_cmp = RecordingComparator(keys), RecordingComparator(keys)
            want = tournament._merge_insertion(group, tournament._PadComparator(want_cmp))[::-1]
            # The selector hands a pad-free group the item comparator itself.
            less = got_cmp.less if min(group) >= 0 else tournament._PadComparator(got_cmp).less
            assert tournament._sort_group(group, less) == want
            assert got_cmp.calls == want_cmp.calls
            assert got_cmp.inner.count == want_cmp.inner.count
        assert grown_leaves(tournament._GROUP_TREE) == 5040
