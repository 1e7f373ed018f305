import hashlib
import itertools
import random
import time

import pytest

from combinlab.intmath import ceil_log2, ceil_log2_factorial, insertion_batch_bound
from combinlab.oracles import counting_comparator
from combinlab.sorting import (
    _merge_insertion,
    _shortest_merges,
    binary_insert,
    grouped_merge_budget,
    insertion_sort,
    merge_insertion_sort,
    merge_runs,
    merge_schedule,
    merge_sort_grouped,
    sort_budgets,
)


def test_binary_insert_exact_counts():
    cases = {1: 0, 4: 2, 5: 3}
    for k, expected in cases.items():
        run = list(range(0, 2 * (k - 1), 2))  # k - 1 sorted elements
        for x in range(-1, 2 * k, 2):
            items = run + [x]
            cmp = counting_comparator(items)
            out = binary_insert(list(range(k - 1)), k - 1, cmp)
            assert [items[h] for h in out] == sorted(items)
            assert cmp.count == expected, (k, x)


def test_insertion_sort_count_is_input_independent():
    for n in (1, 4, 10):
        expected = sort_budgets(n).a_n
        for seed in range(3):
            items = list(range(n))
            random.Random(seed).shuffle(items)
            cmp = counting_comparator(items)
            assert insertion_sort(items, cmp) == sorted(items)
            assert cmp.count == expected
    assert sort_budgets(10).a_n == 25
    assert sort_budgets(4).a_n == 5


def test_insertion_sort_exact_a_n_up_to_200():
    rng = random.Random(7)
    for n in range(1, 201):
        expected = sort_budgets(n).a_n
        items = rng.sample(range(5 * n), n)
        cmp = counting_comparator(items)
        assert insertion_sort(items, cmp) == sorted(items)
        assert cmp.count == expected


def test_merge_runs_simple():
    assert merge_runs([1], [2]) == [1, 2]
    out = merge_runs([1, 4, 6], [2, 3, 5])
    assert out == [1, 2, 3, 4, 5, 6]


def test_merge_runs_bound():
    rng = random.Random(1)
    for _ in range(100):
        pool = rng.sample(range(1000), rng.randint(2, 40))
        cut = rng.randint(1, len(pool) - 1)
        x = sorted(pool[:cut])
        y = sorted(pool[cut:])
        items = x + y
        cmp = counting_comparator(items)
        merged = merge_runs(list(range(len(x))), list(range(len(x), len(items))), cmp)
        assert [items[h] for h in merged] == sorted(items)
        assert cmp.count <= len(items) - 1


def worst_case_input(n: int) -> list:
    """Assign ranks top-down over the merge schedule so that every merge
    costs its full p + q - 1 comparisons."""
    if n == 0:
        return []
    sizes = {i: 1 for i in range(n)}
    children = {}
    next_id = n
    for a, b in merge_schedule(n):
        children[next_id] = (a, b)
        sizes[next_id] = sizes[a] + sizes[b]
        next_id += 1
    root = next_id - 1 if n > 1 else 0
    ranks: dict[int, list[int]] = {root: list(range(sizes[root]))}
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node not in children:
            order.append((node, ranks[node][0]))
            continue
        a, b = children[node]
        rs = ranks[node]
        # Largest rank goes left, second largest right: the final two
        # survivors then come from different runs.
        left = sorted([rs[-1]] + rs[: sizes[a] - 1])
        right = sorted([rs[-2]] + rs[sizes[a] - 1 : -2])
        ranks[a], ranks[b] = left, right
        stack.extend([a, b])
    order.sort()
    return [rank for _, rank in order]


def test_grouped_mergesort_worst_case_budget():
    for n in range(1, 40):
        items = worst_case_input(n)
        cmp = counting_comparator(items)
        assert merge_sort_grouped(items, cmp) == sorted(items)
        assert cmp.count == grouped_merge_budget(n), n


def test_grouped_mergesort_pinned_values():
    assert grouped_merge_budget(1) == 0
    assert grouped_merge_budget(8) == 17  # k*2^k - 2^k + 1 at k = 3
    assert grouped_merge_budget(10) == 25


def test_grouped_mergesort_random_within_budget():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 128)
        items = rng.sample(range(10 * n), n)
        cmp = counting_comparator(items)
        assert merge_sort_grouped(items, cmp) == sorted(items)
        assert cmp.count <= grouped_merge_budget(n)


def reference_merge_schedule(n: int) -> list[tuple[int, int]]:
    """The schedule as first written: sort every run by (size, id) at each
    merge and take the first two.  O(n^2 log n)."""
    sizes = {i: 1 for i in range(n)}
    plan: list[tuple[int, int]] = []
    next_id = n
    while len(sizes) > 1:
        a, b = sorted(sizes, key=lambda r: (sizes[r], r))[:2]
        plan.append((a, b))
        sizes[next_id] = sizes.pop(a) + sizes.pop(b)
        next_id += 1
    return plan


def reference_budget(n: int) -> int:
    """Sum of p + q - 1 over the reference schedule."""
    sizes = [1] * n  # indexed by run id
    total = 0
    for a, b in reference_merge_schedule(n):
        sizes.append(sizes[a] + sizes[b])
        total += sizes[-1] - 1
    return total


def test_merge_schedule_matches_reference():
    for n in range(601):
        assert merge_schedule(n) == reference_merge_schedule(n), n
    assert grouped_merge_budget(10**4) == reference_budget(10**4)


def test_schedule_and_budgets_scale():
    # With the sort-every-round schedule, merge_schedule(20000) alone takes
    # tens of seconds; process CPU time keeps other load on the host out.
    start = time.process_time()
    plan = merge_schedule(20000)
    budgets = sort_budgets(10**4)
    elapsed = time.process_time() - start
    assert len(plan) == 19999 and budgets.b_n == grouped_merge_budget(10**4)
    assert elapsed < 1


def loop_budgets(n: int) -> tuple[int, int]:
    """Reference: B(n) and F(n) as sort_budgets first computed them, by
    replaying the merge schedule and by one ceil(log2 3k/4) loop per k."""
    b_n = sum(size - 1 for _, _, size in _shortest_merges(n))
    f_n = 0
    for k in range(2, n + 1):
        c = 0
        while (4 << c) < 3 * k:
            c += 1
        f_n += c
    return b_n, f_n


def test_closed_form_budgets_match_loops():
    for n in [*range(1, 2001), 4095, 4096, 4097, 8191, 8192, 10**4]:
        b = sort_budgets(n)
        assert (b.b_n, b.f_n) == loop_budgets(n), n
        assert grouped_merge_budget(n) == b.b_n
    assert grouped_merge_budget(0) == 0


def test_merge_insertion_pinned_f_values():
    assert sort_budgets(5).f_n == 7
    assert sort_budgets(10).f_n == 22
    assert sort_budgets(1).f_n == 0


def test_batch_boundaries():
    assert insertion_batch_bound(2) == 3
    assert insertion_batch_bound(3) == 5
    assert insertion_batch_bound(4) == 11
    for k in range(1, 31):
        assert insertion_batch_bound(k) + insertion_batch_bound(k - 1) == 2**k


def test_merge_insertion_exhaustive_small():
    for n in range(1, 8):
        bound = sort_budgets(n).f_n
        for perm in itertools.permutations(range(n)):
            items = list(perm)
            cmp = counting_comparator(items)
            assert merge_insertion_sort(items, cmp) == sorted(items)
            assert cmp.count <= bound, (n, perm, cmp.count, bound)


def test_merge_insertion_random_bound():
    rng = random.Random(3)
    for n in (8, 9, 10, 50, 200, 500):
        bound = sort_budgets(n).f_n
        for _ in range(30 if n <= 10 else 5):
            items = rng.sample(range(10 * n), n)
            cmp = counting_comparator(items)
            assert merge_insertion_sort(items, cmp) == sorted(items)
            assert cmp.count <= bound, (n, cmp.count, bound)


def test_budgets_info_lower_chain():
    assert sort_budgets(3).info_lower == 3
    assert sort_budgets(5).info_lower == 7
    for n in range(1, 65):
        b = sort_budgets(n)
        assert b.info_lower <= b.f_n <= b.a_n


def test_ceil_log2_factorial_matches_loop_product():
    product = 1
    for n in range(1, 301):
        product *= n
        assert ceil_log2_factorial(n) == (product - 1).bit_length(), n


def test_all_sorts_agree_with_reference():
    rng = random.Random(40)
    for _ in range(60):
        n = rng.randint(1, 256)
        items = rng.sample(range(10**6), n)
        assert insertion_sort(items) == sorted(items)
        assert merge_sort_grouped(items) == sorted(items)
        assert merge_insertion_sort(items) == sorted(items)


class RecordingComparator:
    """Counting comparator that also logs every less(i, j) call in order."""

    def __init__(self, items):
        self.inner = counting_comparator(items)
        self.calls = []

    def less(self, i, j):
        self.calls.append((i, j))
        return self.inner.less(i, j)



class HandleComparator(RecordingComparator):
    """Comparator over arbitrary handles that maps each back to its position
    and logs the calls in positions."""

    def __init__(self, items, handles):
        super().__init__(items)
        self.position = {h: i for i, h in enumerate(handles)}

    def less(self, a, b):
        return super().less(self.position[a], self.position[b])


def test_merge_insertion_on_raw_handles_matches_positions():
    # select_t_linear sorts item positions and pads in place, with no
    # position comparator in between; that must cost the same comparisons.
    for n in range(41):
        for seed in range(5):
            rng = random.Random(100 * n + seed)
            items = rng.sample(range(10 * n + 1), n)
            handles = [("h", k) for k in rng.sample(range(1000), n)]
            by_position = RecordingComparator(items)
            want = merge_insertion_sort(items, by_position)
            by_handle = HandleComparator(items, handles)
            got = _merge_insertion(handles, by_handle)
            assert by_handle.calls == by_position.calls, (n, seed)
            assert [items[by_handle.position[h]] for h in got] == want


def transcript_digest(calls, output) -> str:
    return hashlib.sha256(repr((calls, output)).encode()).hexdigest()


def sort_transcript(fn, n: int) -> str:
    items = random.Random(n).sample(range(10 * n), n)
    cmp = RecordingComparator(items)
    out = fn(items, cmp)
    assert out == sorted(items)
    return transcript_digest(cmp.calls, out)


def binary_insert_transcript(m: int) -> str:
    """Insert a fresh key into a sorted run of m handles, at 20 seeded ranks."""
    calls, outs = [], []
    for seed in range(20):
        items = random.Random(1000 * m + seed).sample(range(10 * (m + 1)), m + 1)
        run = sorted(range(m), key=items.__getitem__)
        before = list(run)
        cmp = RecordingComparator(items)
        out = binary_insert(run, m, cmp)
        assert run == before and out is not run
        assert [items[h] for h in out] == sorted(items)
        calls.append(cmp.calls)
        outs.append(out)
    return transcript_digest(calls, outs)


# sha256 of the full less(i, j) sequence plus the output, recorded before the
# sorting layer's bookkeeping was rewritten; the rewrite must not move them.
SORT_TRANSCRIPTS = {
    ("insertion_sort", 0): "1391876e63685b7da0e6a923dc6c4c106590930a70cdf4665088614cae243c44",
    ("insertion_sort", 1): "bd49bb493686ca13d128fb108ab6e36e7c8a1f8d600a2571d625fa664cd272b8",
    ("insertion_sort", 2): "d64f11446370a06ede5545dcf9ece5fb88e57330432c2e6028bf52cb12344269",
    ("insertion_sort", 3): "e780cd38a5badd536a1d32dbc90c05a6bd704966c436cf1d9d8d4c186a50bc83",
    ("insertion_sort", 4): "e639aec24bfd4d4b5cd844bdb813ee6c8c43e532d7b2e3858a0b4429581b4bcd",
    ("insertion_sort", 5): "5ed0051fd7b31969c6ce889ae2778f043bb0cfd3af068d4261309c22bea4ecb3",
    ("insertion_sort", 10): "e604cd639d7d61bb503a480eaba7af0eb46ba3a7539e8e6b2647558b90489f14",
    ("insertion_sort", 21): "7cdad9a5bbec065f0bfa7bf3004ff55107eca88093fb6e42c844f887d0220825",
    ("insertion_sort", 64): "ed5e19677b8ebc3b40023fe01d5ec2d7869fc6896d6e03028774e35d2ba145be",
    ("insertion_sort", 255): "2906e60fb6046364ef782b39d52e5ee15fb18d16dd5da5f198893589be32792c",
    ("insertion_sort", 1000): "fda395edfd95ca91e59758fc8a2b79724bf50c6712e2ba4c868a521f5ec0238d",
    ("insertion_sort", 2999): "8b9f0d33fe9ee7eb85f087d0ffea7751d82819599f2a2893965a623f6be77b3a",
    ("insertion_sort", 3000): "32c6bef617c33caf4972e72b9e0bc53a021025e7cbc380c97b464bdfc430bc29",
    ("merge_sort_grouped", 0): "1391876e63685b7da0e6a923dc6c4c106590930a70cdf4665088614cae243c44",
    ("merge_sort_grouped", 1): "bd49bb493686ca13d128fb108ab6e36e7c8a1f8d600a2571d625fa664cd272b8",
    ("merge_sort_grouped", 2): "6ed0be6f08de41ba03e3674fa98129d6942f70ae961ead223db25f2a8e1bd569",
    ("merge_sort_grouped", 3): "dad85e7c2cf9f5190b4c1aa30558ea9d42a5350a5728eb6fc338eae8c6cb0815",
    ("merge_sort_grouped", 4): "c50fc784be5e4fd778aba715dc2f82d09a6bf1bd013780b59efe1ba3cd3b2fe3",
    ("merge_sort_grouped", 5): "d82ce783c4299899646e63810b6b50b6c8dac8733ae9980f14f08299154501f7",
    ("merge_sort_grouped", 10): "edd936c40b09a05848d0a04741be1af74becfb1896ac8bba67bbea9788f5acb7",
    ("merge_sort_grouped", 21): "f415d28cb74a64450cc828c0e78983b1f623d17e014964a28564f0fb522aa00b",
    ("merge_sort_grouped", 64): "f7523de3ad8008d7eab95dddd6a75dffd1d8fa9fba4377dfc4955277c1ead540",
    ("merge_sort_grouped", 255): "b671ca739021e671f6d66b5faa59de3cf32d55a65425146d594120d6d550cd9c",
    ("merge_sort_grouped", 1000): "5aca19d2757ec616cbdf9050ca4ef687157eba3ea1d3bba9666b24846c56b593",
    ("merge_sort_grouped", 2999): "550c917f633f68ca47a7ee8cb41e8fbf696f541ce265af50afec4d3eb577f66f",
    ("merge_sort_grouped", 3000): "bc38d002ddb8c488fd05ec4190206ad91d629efa7121d73f3c51831d06aed89b",
    ("merge_insertion_sort", 0): "1391876e63685b7da0e6a923dc6c4c106590930a70cdf4665088614cae243c44",
    ("merge_insertion_sort", 1): "bd49bb493686ca13d128fb108ab6e36e7c8a1f8d600a2571d625fa664cd272b8",
    ("merge_insertion_sort", 2): "6ed0be6f08de41ba03e3674fa98129d6942f70ae961ead223db25f2a8e1bd569",
    ("merge_insertion_sort", 3): "98e1db26ae7c8e5ffefaeaf7968d4f7385a0860f7e967c796842f58f56bb25a7",
    ("merge_insertion_sort", 4): "50d4ffbb159d51b1df4bfa2b4c4fea1a1c2e7ea923754ddb65bb38ad1b7fd70f",
    ("merge_insertion_sort", 5): "f03e0a2f4f186152cfaa674e30da2aecb4e4c48eb1f892086dcab168ba532672",
    ("merge_insertion_sort", 10): "0d770b5df0742fb22196d9e6e36410d446775e4918e0ca2673f8509a1bef51dd",
    ("merge_insertion_sort", 21): "0909fc900eaeee08c49f44c938c33976afccdb1b82f78ca2d45f0215e790fe3f",
    ("merge_insertion_sort", 64): "511b24346be968472b7eb28ba343a3f3e9a4786566dbc42d1cecd4d343794028",
    ("merge_insertion_sort", 255): "3d5fa74386eae2f4f5c715c20c29d4530f07ba528ae2bcbb49fad0e84e22b291",
    ("merge_insertion_sort", 1000): "5f56cd248d0512ea9c5d46b01b6f880ff3fec2ad4b8a2f52e21ccd04a4464be3",
    ("merge_insertion_sort", 2999): "62355d8f8011f93f93fa4580595152052755bc75f95c8e474c4199e1ba1eb0a2",
    ("merge_insertion_sort", 3000): "5fac1f33259eb3a1e7ceed8f7a4ed5ea597cfc4f6b80ccf0d0bb205c4e46cf2c",
    ("binary_insert", 0): "9cc0be6364de81729c54f9193817a2aacfd739c3679e948db4a614c55eea8ae1",
    ("binary_insert", 1): "848cb93ae24cf1c2b8b79aca042de517c5f682cdf8738b10c6e28f9df81d6825",
    ("binary_insert", 2): "6adc616e0735d43a62ee28bf01ba8888a64e441ebbd24005faac31218184ca46",
    ("binary_insert", 3): "75459b2fc0447487d47b80ac2009b1bc05ca1ffb262aa03baf7191476c3e038a",
    ("binary_insert", 4): "fd64a1293ff12775d5388cc6054a80f1854d72ea3fee0124ec538bca7b86ee96",
    ("binary_insert", 7): "5fb8fe56c009a924d69fcece755ae8da36c8351806f84ee7c4566e226c1e4928",
    ("binary_insert", 8): "f95da94c7c297c34f184de3b754a10703143c2f7e9ee8e16fb73ba6187064f72",
    ("binary_insert", 100): "559ad5b28300846fb5b48cc4c1a77d8c5f1cd1a405e7ac1e89c143abb608a8de",
    ("binary_insert", 1023): "357d730733b280b74709358e65d9e371a509a858b1149ba21123002f24a092e6",
    ("binary_insert", 1024): "bad75f864cd72b1a09fb7c23383676315cba8077e175f7f2e47a5a14c9c1e824",
    ("binary_insert", 2999): "b6b1968b66a0938c08a133e74026a243936589a6ad5dd662e398ca7c2e3988ac",
}

SORTERS = {
    "insertion_sort": insertion_sort,
    "merge_sort_grouped": merge_sort_grouped,
    "merge_insertion_sort": merge_insertion_sort,
}


@pytest.mark.parametrize("case", sorted(SORT_TRANSCRIPTS), ids="{0[0]}-{0[1]}".format)
def test_comparison_transcripts_pinned(case):
    name, n = case
    if name == "binary_insert":
        digest = binary_insert_transcript(n)
    else:
        digest = sort_transcript(SORTERS[name], n)
    assert digest == SORT_TRANSCRIPTS[case]
