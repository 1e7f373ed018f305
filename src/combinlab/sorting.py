"""Comparison sorting and merging with closed-form worst-case counts.

* binary_insert      exactly ceil(log2 k) comparisons into k slots
* insertion_sort     exactly A(n) = n*ceil(log2 n) - 2**ceil(log2 n) + 1
* merge_runs         at most m + n - 1 comparisons
* merge_sort_grouped worst case B(n): repeatedly merge the two shortest runs
* merge_insertion_sort  at most F(n) = sum_{k=2..n} ceil(log2 3k/4)

The counting comparator deliberately spends the full ceil(log2 k) budget on
every binary insertion (fixed decision-tree shape), which is what makes the
A(n) and F(n) bookkeeping input-independent.
"""

from __future__ import annotations

import heapq

from .intmath import _Record, ceil_log2, ceil_log2_factorial, exact_int
from .oracles import counting_comparator


class SortBudget(_Record):
    """Exact worst-case comparison counts for sorting n keys."""

    __slots__ = (
        "n",
        "info_lower",  # ceil(log2 n!)
        "a_n",  # binary insertion sort
        "b_n",  # grouped merge sort
        "f_n",  # merge insertion sort
    )


def binary_insert(run: list, x, cmp) -> list:
    """Insert x into the sorted run, spending exactly ceil(log2 k)
    comparisons where k = len(run) + 1 is the number of slots.

    Elements are whatever handles `cmp.less` understands.  Searches that
    finish early re-spend the leftover budget on already-decided
    comparisons so the count is the same on every path.  Returns a new
    list and leaves `run` unchanged.
    """
    out = list(run)
    _insert_below(out, len(out), x, cmp)
    return out


def _insert_below(chain: list, hi: int, x, cmp) -> None:
    """Insert x in place into the sorted prefix chain[:hi] with exactly
    ceil(log2(hi + 1)) comparisons, padding early finishes with x vs
    chain[0]."""
    budget = hi.bit_length()  # == ceil_log2(hi + 1)
    less = cmp.less
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        budget -= 1
        if less(x, chain[mid]):
            hi = mid
        else:
            lo = mid + 1
    for _ in range(budget):
        less(x, chain[0])
    chain.insert(lo, x)


def insertion_sort(items, cmp=None) -> list:
    """Sort by successive binary insertion; exactly A(n) comparisons on
    every input of size n."""
    if cmp is None:
        cmp = counting_comparator(items)
    handles = list(range(len(items)))
    run: list[int] = []
    for h in handles:
        _insert_below(run, len(run), h, cmp)
    return [items[h] for h in run]


def merge_runs(x: list, y: list, cmp=None) -> list:
    """Merge two sorted runs with at most len(x) + len(y) - 1 comparisons.

    With the default comparator, x and y are value runs; a caller-provided
    oracle (for instance the merge adversary) sees the run elements as-is.
    """
    if cmp is None:
        items = list(x) + list(y)
        cmp = counting_comparator(items)
        xs = list(range(len(x)))
        ys = list(range(len(x), len(x) + len(y)))
        merged = _merge(xs, ys, cmp)
        return [items[h] for h in merged]
    return _merge(list(x), list(y), cmp)


def _merge(xs: list, ys: list, cmp) -> list:
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        if cmp.less(xs[i], ys[j]):
            out.append(xs[i])
            i += 1
        else:
            out.append(ys[j])
            j += 1
    out.extend(xs[i:])
    out.extend(ys[j:])
    return out


def merge_lower_bound(m: int, n: int) -> int:
    """Information lower bound for merging runs of sizes m and n:
    ceil(log2 C(m+n, n)).  At m = 1 this equals ceil(log2(n+1)), which a
    linear merge does not reach."""
    from math import comb

    return ceil_log2(comb(m + n, n))


def merge_schedule(n: int) -> list[tuple[int, int]]:
    """Deterministic merge plan: repeatedly merge the two shortest runs.

    Runs are numbered 0..n-1 (singletons) and each merge appends a new run
    id; the returned pairs list the run ids merged at each step.  Ties are
    broken toward the earliest-created run.
    """
    return [(a, b) for a, b, _ in _shortest_merges(n)]


def _shortest_merges(n: int):
    """Yield (run a, run b, merged size) for each step of merge_schedule.

    A heap keyed on the unique (size, run id) pops the same two runs that
    sorting every run by that key would put first.
    """
    heap = [(1, i) for i in range(n)]  # sorted, hence already a heap
    next_id = n
    while len(heap) > 1:
        p, a = heapq.heappop(heap)
        q, b = heapq.heappop(heap)
        yield a, b, p + q
        heapq.heappush(heap, (p + q, next_id))
        next_id += 1


def merge_sort_grouped(items, cmp=None) -> list:
    """Mergesort whose phases repeatedly merge the two shortest runs.

    On power-of-two sizes this is the classic pairwise scheme with worst
    case k*2**k - 2**k + 1; in general the worst case B(n) is the sum of
    (len1 + len2 - 1) over the fixed merge schedule.
    """
    if cmp is None:
        cmp = counting_comparator(items)
    handles = list(range(len(items)))
    n = len(handles)
    if n == 0:
        return []
    runs: dict[int, list] = {i: [handles[i]] for i in range(n)}
    next_id = n
    for a, b in merge_schedule(n):
        runs[next_id] = _merge(runs.pop(a), runs.pop(b), cmp)
        next_id += 1
    (final,) = runs.values()
    return [items[h] for h in final]


def grouped_merge_budget(n: int) -> int:
    """Worst-case comparisons of merge_sort_grouped: every scheduled merge
    of runs sized p and q costs p + q - 1.

    Merging the two shortest runs builds an optimal (Huffman 1952) merge
    tree, whose total cost over n unit runs is n(k + 1) - 2**(k + 1) + 1
    with k = floor(log2 n).
    """
    if n < 2:
        return 0
    k = n.bit_length() - 1
    return n * (k + 1) - 2 ** (k + 1) + 1


def merge_insertion_sort(items, cmp=None) -> list:
    """Merge-insertion sort: pair, recursively sort pair winners, then
    batch-insert the pending elements at the batch boundaries
    t(k) = (2**(k+1) + (-1)**k) / 3, each batch in descending index order.

    Spends at most F(n) comparisons on every input.
    """
    if cmp is None:
        cmp = counting_comparator(items)
    handles = list(range(len(items)))
    order = _merge_insertion(handles, cmp)
    return [items[h] for h in order]


def _merge_insertion(handles: list, cmp) -> list:
    """Ascending order of distinct, hashable handles, spending the same
    `cmp.less` calls as merge_insertion_sort over their positions."""
    n = len(handles)
    if n <= 1:
        return list(handles)
    less = cmp.less
    winners = []
    loser_of = {}
    for i in range(0, n - 1, 2):
        a, b = handles[i], handles[i + 1]
        if less(a, b):
            a, b = b, a
        winners.append(a)
        loser_of[a] = b

    ordered_winners = _merge_insertion(winners, cmp)
    # Main chain starts as b1 < a1 < a2 < ... ; pending holds b2, b3, ...
    # (and, at odd n, the unpaired element labelled b_{floor(n/2)+1}).
    # caps[i] is the chain element pending[i] must stay below; the unpaired
    # element has no cap and searches the whole chain.
    chain = [loser_of[ordered_winners[0]]] + ordered_winners
    caps: list = ordered_winners[1:]
    pending = [loser_of[a] for a in caps]
    if n % 2:
        pending.append(handles[-1])
        caps.append(None)

    total = len(pending)  # pending[i] is b_{i+2}
    k = 2
    low = 1  # t(k-1), boundary of the previous batch
    while low < total + 1:
        high = (1 << k) - low  # t(k) = 2**k - t(k-1), insertion_batch_bound's recurrence
        for idx in range(min(high, total + 1), low, -1):
            cap = caps[idx - 2]
            # b_idx's cap a_idx stood at low + idx - 1 when this batch began, and
            # inserts only move it right, so the scan for it starts there.
            hi = len(chain) if cap is None else chain.index(cap, low + idx - 1)
            _insert_below(chain, hi, pending[idx - 2], cmp)
        low = high
        k += 1
    return chain


BUDGET_CAP = 10**4  # largest n sort_budgets accepts


def sort_budgets(n: int) -> SortBudget:
    """Exact values of ceil(log2 n!), A(n), B(n) and F(n)."""
    if not (1 <= exact_int(n, "n") <= BUDGET_CAP):
        raise ValueError("needs 1 <= n <= 10**4")
    if n == 1:
        return SortBudget(1, 0, 0, 0, 0)
    info = ceil_log2_factorial(n)
    c = ceil_log2(n)
    a_n = n * c - 2**c + 1
    return SortBudget(n, info, a_n, grouped_merge_budget(n), _merge_insertion_budget(n))


def _merge_insertion_budget(n: int) -> int:
    """F(n) = sum_{j=2..n} ceil(log2 3j/4) in O(log n) blocks: the summand
    is c exactly when 2**(c+1) < 3j <= 2**(c+2)."""
    total, c, lo = 0, 1, 2
    while lo <= n:
        hi = min(n, (1 << (c + 2)) // 3)
        total += c * (hi - lo + 1)
        c, lo = c + 1, hi + 1
    return total
