import itertools
import random

import pytest

from combinlab.oracles import (
    GREATER,
    LESS,
    AdversarySetEquality,
    AdversarySoundnessError,
    NonStrictOrderError,
    adversary_certify,
    adversary_merge,
    adversary_set_equality,
    adversary_whoiswho,
    counting_comparator,
)
from combinlab.graph_core import Graph, connected_components
from combinlab.search_games import classify_group, sets_equal
from combinlab.sorting import merge_runs


def test_counting_comparator_reads_order():
    cmp = counting_comparator([3, 1, 2])
    assert cmp.compare(0, 1) == GREATER
    assert cmp.count == 1
    assert cmp.compare(1, 2) == LESS
    assert cmp.count == 2


def test_counting_comparator_zero_calls():
    cmp = counting_comparator([5])
    assert cmp.count == 0


def test_counting_comparator_rejects_equal_keys():
    cmp = counting_comparator([4, 4])
    with pytest.raises(NonStrictOrderError):
        cmp.less(0, 1)


def test_counting_comparator_tie_break():
    cmp = counting_comparator([4, 4], tie_break=True)
    assert cmp.less(0, 1)
    assert not cmp.less(1, 0)


def test_adversary_merge_rule():
    adv = adversary_merge(3, 3)
    # a_1 vs b_1: i >= j, so a_1 > b_1.
    assert not adv.less(("a", 1), ("b", 1))
    assert adv.less(("a", 1), ("b", 2))
    assert adv.count == 2


def test_adversary_merge_forces_2n_minus_1():
    for n in range(1, 65):
        adv = adversary_merge(n, n)
        merged = merge_runs(adv.xs, adv.ys, adv)
        assert adv.count == 2 * n - 1
        xs, ys = adversary_certify(adv)
        values = {tok: val for tok, val in zip(adv.xs + adv.ys, xs + ys)}
        assert [values[t] for t in merged] == sorted(values[t] for t in merged)


def test_adversary_merge_certify_fresh():
    adv = adversary_merge(2, 2)
    xs, ys = adversary_certify(adv)
    ranked = sorted(adv.xs + adv.ys, key=lambda t: (xs + ys)[(adv.xs + adv.ys).index(t)])
    assert ranked == [("b", 1), ("a", 1), ("b", 2), ("a", 2)]


def test_adversary_set_equality_first_answers():
    adv = adversary_set_equality(2)
    assert adv.probe(1, 1) is False  # cells (1,2),(2,1) still form a matching
    adv1 = adversary_set_equality(1)
    assert adv1.probe(1, 1) is True  # a "no" would kill the only matching


def test_adversary_set_equality_idempotent_repeats():
    adv = adversary_set_equality(3)
    first = adv.probe(1, 1)
    count = adv.count
    assert adv.probe(1, 1) == first
    assert adv.count == count


def test_adversary_set_equality_forces_triangle_bound():
    for n in range(1, 13):
        adv = adversary_set_equality(n)
        assert sets_equal(n, adv.probe) is True
        assert adv.count == n * (n + 1) // 2
        pairing = adversary_certify(adv)
        assert sorted(pairing) == list(range(1, n + 1))
        assert sorted(pairing.values()) == list(range(1, n + 1))


class ScratchSetEquality(AdversarySetEquality):
    """Reference: the probe rule as first written, which rebuilds a whole
    perfect matching that also avoids the probed cell on every charged
    probe, instead of repairing the one matching kept."""

    def probe(self, i, j):
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError("probe out of range")
        if (i, j) in self.no_cells:
            return False
        if (i, j) in self.yes_cells:
            return True
        self.counter.tick()
        self.no_cells.add((i, j))
        if self._matching() is not None:
            return False
        self.no_cells.remove((i, j))
        self.yes_cells.add((i, j))
        return True


class RecursiveSetEquality(ScratchSetEquality):
    """Reference: the from-scratch adversary with Kuhn's matching written
    as the recursive try_row that the explicit-stack search replaced."""

    def _matching(self):
        n = self.n
        blocked = self.no_cells
        match_of_col = {}

        def try_row(i, seen):
            for j in range(1, n + 1):
                if (i, j) in blocked or j in seen:
                    continue
                seen.add(j)
                if j not in match_of_col or try_row(match_of_col[j], seen):
                    match_of_col[j] = i
                    return True
            return False

        for i in range(1, n + 1):
            if not try_row(i, set()):
                return None
        return {i: j for j, i in match_of_col.items()}


def with_no_cells(cls, n, cells):
    adv = cls(n)
    adv.no_cells = set(cells)
    return adv


def test_set_equality_matching_matches_recursive_reference():
    for n in range(1, 15):
        for seed in range(3 if n <= 10 else 1):
            rng = random.Random(1000 * n + seed)
            cells = list(itertools.product(range(1, n + 1), repeat=2))
            rng.shuffle(cells)
            adv, ref = AdversarySetEquality(n), RecursiveSetEquality(n)
            for step, (i, j) in enumerate(cells):
                assert adv.probe(i, j) == ref.probe(i, j), (n, seed, step)
                if step % 7 == 0 or step == len(cells) - 1:
                    # Same pairs in the same order.
                    assert list(adv.certify().items()) == list(ref.certify().items()), (n, step)
            assert adv.count == ref.count
            for extra in cells[:20]:  # one more "no" cell, which may leave no matching
                blocked = adv.no_cells | {extra}
                assert (with_no_cells(AdversarySetEquality, n, blocked)._matching()
                        == with_no_cells(RecursiveSetEquality, n, blocked)._matching())


def test_repaired_adversary_matches_from_scratch_rule():
    # Seeded probe sequences, repeats included, some cut short; sets_equal's
    # own probe order runs too.
    for n in range(1, 9):
        cells = list(itertools.product(range(1, n + 1), repeat=2))
        for seed in range(60):
            rng = random.Random(100 * n + seed)
            seq = [rng.choice(cells) for _ in range(rng.randint(1, 3 * n * n))]
            adv, ref = AdversarySetEquality(n), ScratchSetEquality(n)
            for step, (i, j) in enumerate(seq):
                assert adv.probe(i, j) is ref.probe(i, j), (n, seed, step)
                assert adv.count == ref.count
            assert (adv.no_cells, adv.yes_cells) == (ref.no_cells, ref.yes_cells)
            assert list(adv.certify().items()) == list(ref.certify().items())
        adv, ref = AdversarySetEquality(n), ScratchSetEquality(n)
        assert sets_equal(n, adv.probe) is sets_equal(n, ref.probe) is True
        assert (adv.count, adv.no_cells, adv.yes_cells) == (ref.count, ref.no_cells, ref.yes_cells)
        assert adv.certify() == ref.certify()


@pytest.mark.parametrize("i, j", [(1.5, 2), (True, 1), (1, True), (2, 2.0), ("1", 1),
                                  (0, 1), (1, 4), (-1, 2)])
def test_set_equality_probe_refuses_non_members(i, j):
    adv = adversary_set_equality(3)
    with pytest.raises(ValueError):
        adv.probe(i, j)
    assert adv.count == 0 and adv.no_cells == adv.yes_cells == set()


def test_adversary_whoiswho_first_answer_no():
    adv = adversary_whoiswho(5)  # ceil(4/2) - 1 = 1 leading "no"
    assert adv.ask(2, 1) is False
    assert adv.count == 1


def test_adversary_whoiswho_rejects_self_question():
    adv = adversary_whoiswho(4)
    with pytest.raises(ValueError):
        adv.ask(2, 2)


def test_adversary_whoiswho_forces_lower_bound():
    # The ceil(3(n-1)/2) lower bound is tight for odd n.  For even n the
    # counting argument would need a consistent world with exactly n/2
    # dishonest members, which the strict-majority precondition rules out;
    # the adversary then forces the odd bound one size down.
    for n in range(3, 16):
        adv = adversary_whoiswho(n)
        labels = classify_group(n, adv.ask)
        m = n if n % 2 else n - 1
        forced = -((-3 * (m - 1)) // 2)
        assert adv.count >= forced, (n, adv.count, forced)
        world = adversary_certify(adv)
        assert labels == world
        assert 2 * sum(world.values()) > n


def test_certified_world_replays_transcript():
    adv = adversary_whoiswho(7)
    classify_group(7, adv.ask)
    world = adversary_certify(adv)
    for asker, subject, answer in adv.transcript:
        if world[asker]:
            assert answer == world[subject]


def test_whoiswho_certify_majority_holds_midway():
    adv = adversary_whoiswho(9)
    adv.ask(2, 1)
    adv.ask(4, 3)
    world = adversary_certify(adv)
    assert 2 * sum(world.values()) > 9


def test_whoiswho_certifies_phase1_pairs_that_share_members():
    # classify_group's phase-1 pairs are disjoint.  Here about half of the
    # pairs reuse a member of an earlier one, so the phase-1 graph's
    # components merge, and random questions follow.
    merged = 0
    for n in range(3, 12):
        for seed in range(300):
            rng = random.Random(n * 1000 + seed)
            adv = adversary_whoiswho(n)
            members: list[int] = []
            edges = set()
            for _ in range(adv.k):
                a = rng.choice(members) if members and rng.random() < 0.5 else rng.randint(1, n)
                b = rng.choice([v for v in range(1, n + 1) if v != a])
                pair = [a, b]
                rng.shuffle(pair)
                assert adv.ask(*pair) is False
                members += pair
                edges.add((min(pair), max(pair)))
            for _ in range(rng.randint(0, 3 * n)):
                adv.ask(*rng.sample(range(1, n + 1), 2))
            comps = sorted(sorted(c) for c in adv._phase1_components())
            assert comps == [c for c in connected_components(Graph(n, edges)) if len(c) > 1]
            merged += len(comps) < adv.k
            world = adv.certify()
            assert 2 * sum(world.values()) > n
    assert merged > 0


def test_counter_only_counts_new_queries():
    adv = adversary_set_equality(4)
    seen = set()
    for i, j in itertools.product(range(1, 5), repeat=2):
        adv.probe(i, j)
        seen.add((i, j))
        assert adv.count == len(seen)
        adv.probe(i, j)
        assert adv.count == len(seen)


def test_certify_never_raises_after_algorithm_runs():
    for n in range(3, 10):
        adv = adversary_whoiswho(n)
        classify_group(n, adv.ask)
        try:
            adversary_certify(adv)
        except AdversarySoundnessError:  # pragma: no cover - must not happen
            pytest.fail("adversary broke soundness")
