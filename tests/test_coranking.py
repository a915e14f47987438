import math
import random

import pytest
from hypothesis import given, strategies as st

from sortbench.comparator import default_compare
from sortbench.coranking import co_rank, co_rank_by_merge, select_merged
from sortbench.instrumentation import SortStats, counting_comparator

from helpers import (
    TableComparator,
    changing_comparator,
    paper_co_rank,
    sorted_random_run,
    stable_merge_oracle,
)


def split_conditions_hold(j, k, a, b, compare=default_compare):
    """Literal check of the two split conditions, at most 2 comparisons."""
    na, nb = len(a), len(b)
    first = j == 0 or k == nb or compare(a[j - 1], b[k]) <= 0
    second = k == 0 or j == na or compare(b[k - 1], a[j]) < 0
    return first and second


def test_empty_prefix():
    assert co_rank(0, [1, 2], [0, 5]) == (0, 0)
    assert co_rank(0, [], []) == (0, 0)


def test_one_side_empty():
    assert co_rank(2, [10, 20, 30], []) == (2, 0)
    assert co_rank(3, [], [1, 2, 3]) == (0, 3)


def test_interleaved_example():
    a, b = [1, 3, 5, 7], [2, 4, 6, 8]
    # oracle first: count provenance of the first 4 stable-merged elements
    assert co_rank_by_merge(4, a, b) == (2, 2)
    assert co_rank(4, a, b) == (2, 2)


def test_all_equal_keys_split_stably():
    a, b = [5, 5], [5, 5]
    assert co_rank_by_merge(2, a, b) == (2, 0)
    assert co_rank(2, a, b) == (2, 0)
    assert split_conditions_hold(2, 0, a, b)


def test_rank_out_of_range():
    with pytest.raises(ValueError):
        co_rank(5, [1], [2, 3])
    with pytest.raises(ValueError):
        co_rank(-1, [1], [2, 3])
    with pytest.raises(ValueError):
        co_rank_by_merge(4, [1], [2])


def test_exhaustive_small_duplicate_heavy():
    rng = random.Random(7)
    for na in range(9):
        for nb in range(9):
            a = sorted(rng.randrange(4) for _ in range(na))
            b = sorted(rng.randrange(4) for _ in range(nb))
            for i in range(na + nb + 1):
                got = co_rank(i, a, b)
                assert got == co_rank_by_merge(i, a, b), (a, b, i)
                assert sum(got) == i
                assert split_conditions_hold(*got, a, b)


def test_split_is_unique_small():
    # exactly one (j, k) with j + k = i satisfies both conditions
    rng = random.Random(3)
    for _ in range(300):
        na, nb = rng.randrange(7), rng.randrange(7)
        a = sorted(rng.randrange(3) for _ in range(na))
        b = sorted(rng.randrange(3) for _ in range(nb))
        for i in range(na + nb + 1):
            satisfying = [
                (j, i - j)
                for j in range(max(0, i - nb), min(i, na) + 1)
                if split_conditions_hold(j, i - j, a, b)
            ]
            assert satisfying == [co_rank(i, a, b)], (a, b, i)


def test_split_preserves_stable_merge():
    # prefix-merge ++ suffix-merge must equal the whole stable merge
    rng = random.Random(11)
    key = lambda x, y: default_compare(x[0], y[0])
    for _ in range(200):
        na, nb = rng.randrange(8), rng.randrange(8)
        a = [(k, f"a{t}") for t, k in enumerate(sorted(rng.randrange(3) for _ in range(na)))]
        b = [(k, f"b{t}") for t, k in enumerate(sorted(rng.randrange(3) for _ in range(nb)))]
        whole = stable_merge_oracle(a, b, key)
        for i in range(na + nb + 1):
            j, k = co_rank(i, a, b, key)
            recombined = (
                stable_merge_oracle(a[:j], b[:k], key)
                + stable_merge_oracle(a[j:], b[k:], key)
            )
            assert recombined == whole, (a, b, i)


def test_comparison_budget_random():
    rng = random.Random(13)
    for _ in range(2000):
        na, nb = rng.randrange(65), rng.randrange(65)
        a = sorted(rng.randrange(6) for _ in range(na))
        b = sorted(rng.randrange(6) for _ in range(nb))
        i = rng.randrange(na + nb + 1)
        stats = SortStats()
        co_rank(i, a, b, counting_comparator(default_compare, stats))
        budget = 2 * (math.ceil(math.log2(na + nb + 1)) + 2)
        assert stats.comparisons <= budget, (na, nb, i, stats.comparisons)


def test_select_merged_examples():
    a, b = [1, 3], [2, 4]
    assert select_merged(0, a, b) == 1
    assert select_merged(1, a, b) == 2
    assert select_merged(3, a, b) == 4
    with pytest.raises(ValueError):
        select_merged(4, a, b)
    with pytest.raises(ValueError):
        select_merged(-1, a, b)


def test_select_merged_enumerates_stable_merge():
    rng = random.Random(17)
    key = lambda x, y: default_compare(x[0], y[0])
    for _ in range(100):
        na, nb = rng.randrange(9), rng.randrange(9)
        a = [(k, f"a{t}") for t, k in enumerate(sorted(rng.randrange(4) for _ in range(na)))]
        b = [(k, f"b{t}") for t, k in enumerate(sorted(rng.randrange(4) for _ in range(nb)))]
        merged = stable_merge_oracle(a, b, key)
        got = [select_merged(i, a, b, key) for i in range(na + nb)]
        assert got == merged


sorted_keys = st.lists(st.integers(min_value=0, max_value=5), max_size=24).map(sorted)


@given(sorted_keys, sorted_keys, st.data())
def test_matches_merge_oracle(a, b, data):
    i = data.draw(st.integers(min_value=0, max_value=len(a) + len(b)))
    assert co_rank(i, a, b) == co_rank_by_merge(i, a, b)


def test_contradictory_pair_terminates():
    # cmp says x succeeds y, yet y equals x: a search that asked this pair in
    # both orders would get contradicting answers and never settle the split
    answers = {("x", "y"): 1, ("y", "x"): 0}
    calls = []

    def compare(p, q):
        calls.append((p, q))
        if len(calls) > 8:
            raise RuntimeError("co_rank does not terminate")
        return answers[p, q]

    j, k = co_rank(1, ["x"], ["y"], compare)
    assert j + k == 1
    assert len(calls) <= 2 * (math.ceil(math.log2(3)) + 2)


@given(
    st.integers(min_value=0, max_value=48),
    st.integers(min_value=0, max_value=48),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_terminates_within_budget_for_any_comparator(na, nb, seed, data):
    # a deterministic comparator that is not an ordering still gets an
    # in-range split within the documented comparison budget
    i = data.draw(st.integers(min_value=0, max_value=na + nb))
    budget = 2 * (math.ceil(math.log2(na + nb + 1)) + 2)
    compare = TableComparator(na + nb, seed, cap=budget)
    j, k = co_rank(i, list(range(na)), list(range(na, na + nb)), compare)
    assert j + k == i
    assert 0 <= j <= na and 0 <= k <= nb


def tight_budget(i, na, nb):
    # one comparison per halving of the j range [max(0, i - nb), min(i, na)]
    return math.ceil(math.log2(min(i, na, nb, na + nb - i) + 1))


def test_tight_budget_exhaustive_small():
    rng = random.Random(19)
    for na in range(17):
        for nb in range(17):
            for _ in range(2):
                a = sorted(rng.randrange(4) for _ in range(na))
                b = sorted(rng.randrange(4) for _ in range(nb))
                for i in range(na + nb + 1):
                    stats = SortStats()
                    got = co_rank(i, a, b, counting_comparator(default_compare, stats))
                    assert got == co_rank_by_merge(i, a, b), (a, b, i)
                    assert stats.comparisons <= tight_budget(i, na, nb), (a, b, i)


def test_tight_budget_random():
    rng = random.Random(23)
    for _ in range(2000):
        na = round(2 ** rng.uniform(0, 14))
        nb = round(2 ** rng.uniform(0, 14))
        universe = rng.choice([None, 4, 1000])
        a = sorted_random_run(rng, na, universe)
        b = sorted_random_run(rng, nb, universe)
        i = rng.randrange(na + nb + 1)
        stats = SortStats()
        j, k = co_rank(i, a, b, counting_comparator(default_compare, stats))
        assert j + k == i and split_conditions_hold(j, k, a, b), (na, nb, i)
        assert stats.comparisons <= tight_budget(i, na, nb), (na, nb, i)


@given(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_terminates_within_tight_budget_when_answers_change(na, nb, seed, data):
    # termination is structural: whatever the comparator answers, each call
    # halves the search range
    i = data.draw(st.integers(min_value=0, max_value=na + nb))
    compare = changing_comparator(seed, cap=tight_budget(i, na, nb))
    j, k = co_rank(i, list(range(na)), list(range(na, na + nb)), compare)
    assert j + k == i
    assert 0 <= j <= na and 0 <= k <= nb


def test_paper_co_rank_matches_oracle_within_budget():
    # the bidirectional search the in-place merge runs inline, kept as the
    # merge's test oracle: the same split, within the paper's budget
    rng = random.Random(29)
    for na in range(13):
        for nb in range(13):
            for _ in range(3):
                a = sorted(rng.randrange(4) for _ in range(na))
                b = sorted(rng.randrange(4) for _ in range(nb))
                for i in range(na + nb + 1):
                    stats = SortStats()
                    got = paper_co_rank(i, a, b, counting_comparator(default_compare, stats))
                    assert got == co_rank_by_merge(i, a, b), (a, b, i)
                    budget = 2 * (math.ceil(math.log2(na + nb + 1)) + 2)
                    assert stats.comparisons <= budget, (a, b, i)
