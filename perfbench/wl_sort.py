"""sort-select: counted comparison work on seeded distinct-key lists.

The sorting and tournament bookkeeping and the comparator do almost all
of the work; no graph or NP code runs.  A round is the ten jobs below;
the four search-game and adversary jobs are a small share of the time.
"""

from __future__ import annotations

from combinlab import search_games as sg
from combinlab import sorting as srt
from combinlab import tournament as trn
from combinlab.oracles import AdversaryMerge, AdversarySetEquality, CountingComparator

import refs
from jobs import Job, rng_for, size_at
from refs import expect
from tracing import SequenceProbe

RSS = "self"
PROBE = "loop"

SORT_N = (300, 3000)
SELECT_N = (2000, 20000)
ROUND = ("insertion_sort", "merge_sort_grouped", "merge_insertion_sort", "sort_budgets",
         "select_t_linear", "select_t_tournament", "counterfeit", "bitonic", "sets_equal",
         "adversary_merge")
DISTINCT = 70  # about 6 s per pass


def make_job(seed: int, index: int, ctx) -> Job:
    rnd, slot = divmod(index, len(ROUND))
    return _MAKERS[ROUND[slot]](rng_for(seed, index), rnd, slot)


def _sort_job(fn, budget_ok):
    def make(rng, rnd, slot):
        n = size_at(*SORT_N, rnd, slot)
        items = rng.sample(range(10 * n), n)

        def run(tr):
            cmp = tr.oracle(CountingComparator, items)
            out = tr.call("sorting.sort", fn, items, cmp)
            return {"view": out, "queries": cmp.count}

        def check(o):
            expect(o["view"] == sorted(items), f"{fn.__name__} output not sorted")
            expect(budget_ok(n, o["queries"]), f"{fn.__name__} over its comparison budget")

        return Job(fn.__name__, repr(items), run, check)

    return make


def _budgets(rng, rnd, slot):
    n = size_at(*SORT_N, rnd, slot)

    def run(tr):
        b = tr.call("sorting.budget", srt.sort_budgets, n)
        return {"view": [b.n, b.info_lower, b.a_n, b.b_n, b.f_n], "queries": 0}

    def check(o):
        want = [n, refs.info_bound(n), refs.a_of(n), refs.b_of(n), refs.f_of(n)]
        expect(o["view"] == want, "sort_budgets disagrees with the closed forms")

    return Job("sort_budgets", str(n), run, check)


def _select_job(fn, bound):
    def make(rng, rnd, slot):
        n = size_at(*SELECT_N, rnd, slot)
        t = n // 2
        items = rng.sample(range(10 * n), n)

        def run(tr):
            cmp = tr.oracle(CountingComparator, items)
            idx = tr.call("tournament.select", fn, items, t, cmp)
            return {"view": idx, "queries": cmp.count}

        def check(o):
            expect(items[o["view"]] == sorted(items)[n - t], f"{fn.__name__} wrong element")
            expect(o["queries"] <= bound(n, t), f"{fn.__name__} over its comparison budget")

        return Job(fn.__name__, repr(items), run, check)

    return make


def _counterfeit(rng, rnd, slot):
    n = size_at(20, 120, rnd, slot)
    worlds = [sg.ALL_GENUINE] + [
        sg.CoinVerdict(i, bias) for i in range(1, n + 1) for bias in (sg.HEAVIER, sg.LIGHTER)
    ]
    rng.shuffle(worlds)

    def run(tr):
        verdicts, counts = [], []
        for world in worlds:
            scale = tr.oracle(sg.BalanceOracle, n, world)
            verdicts.append(
                tr.call("search_games.counterfeit", sg.find_counterfeit, n, scale.weigh))
            counts.append(scale.count)
        return {"view": [[v.index, v.bias] for v in verdicts], "queries": sum(counts),
                "worst": max(counts), "verdicts": verdicts}

    def check(o):
        expect(o["verdicts"] == worlds, "find_counterfeit misidentified a world")
        expect(o["worst"] <= refs.ceil_log3(2 * n + 1), "find_counterfeit over its weighing budget")

    return Job("counterfeit", repr((n, worlds)), run, check)


def _bitonic(rng, rnd, slot):
    seqs = []
    for k in range(60):
        n = size_at(50, 2000, rnd, k)
        vals = rng.sample(range(10 * n), n)
        peak = max(vals)
        vals.remove(peak)
        left = rng.randint(0, n - 1)
        seqs.append(sorted(vals[:left]) + [peak] + sorted(vals[left:], reverse=True))

    def run(tr):
        found, counts = [], []
        for seq in seqs:
            probe = tr.oracle(SequenceProbe, seq)
            found.append(tr.call("search_games.bitonic", sg.bitonic_max, len(seq), probe.probe))
            counts.append(probe.count)
        return {"view": [list(f) for f in found], "queries": sum(counts), "counts": counts}

    def check(o):
        for seq, (idx, val), used in zip(seqs, o["view"], o["counts"]):
            expect(val == max(seq) and seq[idx - 1] == val, "bitonic_max missed the peak")
            expect(used <= refs.bitonic_budget(len(seq)), "bitonic_max over its probe budget")

    return Job("bitonic", repr([(len(s), s.index(max(s))) for s in seqs]), run, check)


def _sets_equal(rng, rnd, slot):
    n = size_at(6, 14, rnd, slot)

    def run(tr):
        adv = tr.oracle(AdversarySetEquality, n)
        equal = tr.call("search_games.sets_equal", sg.sets_equal, n, adv.probe)
        return {"view": equal, "queries": adv.count, "adversary": adv}

    def check(o):
        expect(o["view"] is True, "sets_equal rejected the forced-equal sets")
        expect(o["queries"] == n * (n + 1) // 2, "set-equality adversary not tight")
        pairing = o["adversary"].certify()
        expect(sorted(pairing) == sorted(pairing.values()) == list(range(1, n + 1)),
               "adversary certificate is not a pairing")

    return Job("sets_equal", str(n), run, check)


def _adversary_merge(rng, rnd, slot):
    n = size_at(200, 2000, rnd, slot)

    def run(tr):
        adv = tr.oracle(AdversaryMerge, n, n)
        merged = tr.call("sorting.merge", srt.merge_runs, adv.xs, adv.ys, adv)
        return {"view": merged, "queries": adv.count, "adversary": adv}

    def check(o):
        xs, ys = o["adversary"].certify()
        value = {("a", i + 1): v for i, v in enumerate(xs)}
        value.update({("b", j + 1): v for j, v in enumerate(ys)})
        seq = [value[tok] for tok in o["view"]]
        expect(len(seq) == 2 * n and seq == sorted(set(seq)), "adversary merge output out of order")
        expect(o["queries"] == 2 * n - 1, "merge adversary not tight")

    return Job("adversary_merge", str(n), run, check)


_MAKERS = {
    "insertion_sort": _sort_job(srt.insertion_sort, lambda n, c: c == refs.a_of(n)),
    "merge_sort_grouped": _sort_job(srt.merge_sort_grouped, lambda n, c: c <= refs.b_of(n)),
    "merge_insertion_sort": _sort_job(srt.merge_insertion_sort, lambda n, c: c <= refs.f_of(n)),
    "sort_budgets": _budgets,
    "select_t_linear": _select_job(
        trn.select_t_linear, lambda n, t: 15 * n - 163 if n > 32 else n * n),
    "select_t_tournament": _select_job(
        trn.select_t_tournament, lambda n, t: n - t + (t - 1) * refs.ceil_log2(n + 2 - t)),
    "counterfeit": _counterfeit,
    "bitonic": _bitonic,
    "sets_equal": _sets_equal,
    "adversary_merge": _adversary_merge,
}
