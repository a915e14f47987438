import array
import collections
import itertools
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import sortbench.sorting as sorting_mod
from sortbench.comparator import default_compare
from sortbench.datagen import Distribution, generate
from sortbench.instrumentation import (
    MoveCountingList,
    SortStats,
    TaggedElement,
    key_comparator,
    verify_stable_permutation,
)
from sortbench.merge import PhaseTimes, merge_buffered
from sortbench.sorting import MergeStrategy, mergesort

from helpers import (
    CappedComparator,
    TableComparator,
    changing_comparator,
    insertion_sorted,
    reference_mergesort,
    scripted_comparator,
    stable_merge_oracle,
)


def sort_copy(values, strategy, compare=default_compare, stats=None):
    a = list(values)
    mergesort(a, compare, strategy, stats=stats)
    return a


def test_trivial_inputs():
    for strategy in MergeStrategy:
        assert sort_copy([], strategy) == []
        assert sort_copy([7], strategy) == [7]
        assert sort_copy([3, 1, 2], strategy) == [1, 2, 3]


def test_strategies_agree_with_reference():
    rng = random.Random(5)
    values = [rng.random() for _ in range(10_000)]
    buffered = sort_copy(values, MergeStrategy.BUFFERED)
    inplace = sort_copy(values, MergeStrategy.INPLACE)
    assert buffered == inplace
    assert inplace == sorted(values)


def test_small_sorts_match_insertion_sort():
    rng = random.Random(9)
    for n in range(65):
        values = [rng.randrange(8) for _ in range(n)]
        expected = insertion_sorted(values)
        assert sort_copy(values, MergeStrategy.BUFFERED) == expected
        assert sort_copy(values, MergeStrategy.INPLACE) == expected


def test_stability_on_duplicate_heavy_input():
    rng = random.Random(13)
    tagged = [TaggedElement(float(rng.randrange(8)), t) for t in range(1000)]
    for strategy in MergeStrategy:
        result = sort_copy(tagged, strategy, key_comparator())
        assert verify_stable_permutation(tagged, result)


def test_insertion_sorted_reference():
    assert insertion_sorted([2, 1]) == [1, 2]
    pair = [(1, "a"), (1, "b")]
    assert insertion_sorted(pair, key_comparator()) == pair
    for perm in itertools.permutations([3, 1, 4, 1, 5, 9]):
        assert insertion_sorted(list(perm)) == sorted(perm)


def logged_key_comparator(log):
    # compares (key, tag) pairs by key and logs the tags of every call
    def compare(x, y):
        log.append((x[1], y[1]))
        return default_compare(x[0], y[0])

    return compare


def test_per_merge_scratch_mode_identical():
    # the buffered sort reuses one scratch buffer across all merges; a
    # top-down replay whose merges each allocate their own (scratch=None)
    # must ask the same comparisons and give the same output
    def replay(a, lo, n, compare):
        if n > 1:
            mid = n >> 1
            replay(a, lo, mid, compare)
            replay(a, lo + mid, n - mid, compare)
            merge_buffered(a, mid, n - mid, compare, lo, scratch=None)

    rng = random.Random(17)
    tagged = [(rng.randrange(50), t) for t in range(997)]
    reused, per_merge = list(tagged), list(tagged)
    reused_log, per_merge_log = [], []
    mergesort(reused, logged_key_comparator(reused_log), MergeStrategy.BUFFERED)
    replay(per_merge, 0, len(per_merge), logged_key_comparator(per_merge_log))
    assert reused_log == per_merge_log
    assert reused == per_merge == sorted(tagged)


@settings(deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), max_size=70))
def test_inplace_sort_asks_the_comparisons_of_the_plain_recursion(keys):
    # the driver sorts two-element halves without a merge node and the
    # merge runs its search inline; together they must ask the same pairs,
    # in the same order, as helpers.reference_mergesort
    tagged = [(k, t) for t, k in enumerate(keys)]
    got, want = list(tagged), list(tagged)
    got_log, want_log = [], []
    mergesort(got, logged_key_comparator(got_log))
    reference_mergesort(want, logged_key_comparator(want_log))
    assert got_log == want_log
    assert got == want


def test_two_element_sort_records_the_merge_node_depth():
    # a two-element sort is the merge node merge(1, 1): depth 1, and 2 when
    # it exchanges the pair
    for pair, comparisons, depth in (([1, 2], 1, 1), ([1, 1], 1, 1), ([2, 1], 2, 2)):
        stats = SortStats()
        a = list(pair)
        mergesort(a, stats=stats)
        assert a == sorted(pair)
        assert (stats.comparisons, stats.max_merge_depth) == (comparisons, depth), pair


def test_stats_populated():
    rng = random.Random(19)
    values = [rng.random() for _ in range(2048)]
    stats = SortStats()
    result = sort_copy(values, MergeStrategy.INPLACE, stats=stats)
    assert result == sorted(values)
    assert stats.comparisons > 0
    assert stats.wall_seconds > 0.0
    assert 0 < stats.max_merge_depth <= math.ceil(math.log2(2048)) + 2


def test_comparison_counts_deterministic():
    rng = random.Random(23)
    values = [rng.random() for _ in range(4096)]
    counts = set()
    for _ in range(3):
        stats = SortStats()
        sort_copy(values, MergeStrategy.INPLACE, stats=stats)
        counts.add(stats.comparisons)
    assert len(counts) == 1


def test_buffered_comparisons_classic_bound():
    rng = random.Random(29)
    for n in (2, 3, 100, 1000, 4096):
        values = [rng.random() for _ in range(n)]
        stats = SortStats()
        sort_copy(values, MergeStrategy.BUFFERED, stats=stats)
        assert stats.comparisons <= n * math.ceil(math.log2(n))


def test_counting_wrapper_transparent():
    rng = random.Random(31)
    values = [rng.randrange(6) for _ in range(512)]
    plain = sort_copy(values, MergeStrategy.INPLACE)
    counted = sort_copy(values, MergeStrategy.INPLACE, stats=SortStats())
    assert plain == counted


def test_driver_recursion_depth(monkeypatch):
    real = sorting_mod._sort_inplace
    depth = {"current": 0, "peak": 0}

    def wrapped(a, lo, n, compare, gauge):
        depth["current"] += 1
        depth["peak"] = max(depth["peak"], depth["current"])
        try:
            return real(a, lo, n, compare, gauge)
        finally:
            depth["current"] -= 1

    monkeypatch.setattr(sorting_mod, "_sort_inplace", wrapped)
    rng = random.Random(37)
    values = [rng.random() for _ in range(10_000)]
    mergesort(values)
    assert depth["peak"] <= math.ceil(math.log2(10_000)) + 1


@given(st.lists(st.integers(min_value=0, max_value=7), max_size=64), st.booleans())
def test_sorts_are_stable_permutations(keys, use_inplace):
    tagged = [TaggedElement(k, t) for t, k in enumerate(keys)]
    strategy = MergeStrategy.INPLACE if use_inplace else MergeStrategy.BUFFERED
    result = sort_copy(tagged, strategy, key_comparator())
    assert verify_stable_permutation(tagged, result)


@pytest.mark.parametrize(
    "dist, comparisons, moves, max_depth",
    [
        ("uniform", 193880, 343972, 12),
        ("reversed", 24560, 106496, 2),
        ("fewdistinct", 114751, 248178, 7),
        ("sawtooth", 24571, 49152, 2),
    ],
)
def test_inplace_counted_work_is_pinned(dist, comparisons, moves, max_depth):
    # exact counts of the in-place sort; any change to them changes the
    # algorithm's counted work, not just its speed
    arr = MoveCountingList(generate(8192, Distribution(dist), 99))
    stats = SortStats()
    mergesort(arr, stats=stats)
    assert (stats.comparisons, stats.moves, stats.max_merge_depth) == (
        comparisons,
        moves,
        max_depth,
    )


@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(list(MergeStrategy)),
)
def test_sort_terminates_for_any_comparator(n, seed, strategy):
    # a deterministic comparator that is not an ordering: no sorted order to
    # reach, but the sort must still end and leave a permutation
    compare = TableComparator(n, seed, cap=100_000)
    a = list(range(n))
    mergesort(a, compare, strategy)
    assert sorted(a) == list(range(n))


def test_sorts_any_mutable_sequence():
    # item access only: no slice assignment, and no slices that alias
    rng = random.Random(53)
    values = [rng.random() for _ in range(300)]
    for seq in (collections.deque(values), array.array("d", values)):
        mergesort(seq)
        assert list(seq) == sorted(values), type(seq)


def test_sorts_numpy_array():
    np = pytest.importorskip("numpy")
    values = np.random.default_rng(59).random(300)
    seq = values.copy()
    mergesort(seq)
    assert seq.tolist() == sorted(values.tolist())


def test_buffered_rejects_sequence_without_slice_assignment():
    rng = random.Random(61)
    values = [rng.random() for _ in range(50)]
    for seq in (collections.deque(values), array.array("d", values)):
        with pytest.raises(TypeError, match="slice assignment.*INPLACE"):
            mergesort(seq, strategy=MergeStrategy.BUFFERED)
        assert sorted(seq) == sorted(values), type(seq)


class ComparatorFailed(Exception):
    pass


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=48),
    st.sampled_from(list(MergeStrategy)),
    st.data(),
)
def test_raising_comparator_propagates_and_leaves_permutation(keys, strategy, data):
    # the comparator raises on its N-th call, for any N the sort reaches
    counted = SortStats()
    sort_copy(keys, strategy, stats=counted)
    fail_at = data.draw(st.integers(min_value=1, max_value=counted.comparisons))
    calls = 0

    def compare(x, y):
        nonlocal calls
        calls += 1
        if calls == fail_at:
            raise ComparatorFailed(calls)
        return default_compare(x, y)

    a = list(keys)
    with pytest.raises(ComparatorFailed):
        mergesort(a, compare, strategy)
    assert sorted(a) == sorted(keys)


@pytest.mark.parametrize("dist", ["uniform", "fewdistinct"])
def test_phase_times_leave_the_sort_unchanged(dist):
    # the phase timers sit in the merge's one loop, walk included: timing a
    # sort must not change its output or its counted work
    keys = generate(4096, Distribution(dist), 71)
    tagged = [TaggedElement(k, t) for t, k in enumerate(keys)]
    timed = PhaseTimes()
    runs = []
    for phases in (None, timed):
        arr = MoveCountingList(tagged)
        stats = SortStats()
        mergesort(arr, key_comparator(), stats=stats, phases=phases)
        runs.append((list(arr), stats.comparisons, stats.moves, stats.max_merge_depth))
    assert runs[0] == runs[1]
    assert timed.corank_seconds > 0.0 and timed.rotation_seconds > 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(list(MergeStrategy)),
)
def test_sort_terminates_when_answers_change_between_calls(n, seed, strategy):
    # one pair asked twice can get two answers: the merge's walk then stops
    # where the co-rank search would ask again; the sort must still end and
    # leave a permutation
    compare = changing_comparator(seed, cap=100_000)
    a = list(range(n))
    mergesort(a, compare, strategy)
    assert sorted(a) == list(range(n))


def test_sort_terminates_when_the_search_is_asked_one_pair_two_ways():
    # the halves sort honestly; then the top merge's search hears -1, 1, 1
    # and -1 forever, so its first test fires at the search's upper bound
    # again and again, which no deterministic comparator can make it do
    honest = 0
    for half in (list(range(10)), list(range(10, 20))):
        stats = SortStats()
        mergesort(half, stats=stats)
        honest += stats.comparisons
    compare = scripted_comparator([-1, 1, 1], [-1], cap=10_000, honest=honest)
    a = list(range(20))
    mergesort(a, compare)
    assert sorted(a) == list(range(20))
    assert compare.calls < 100


answers = st.lists(st.integers(min_value=-1, max_value=1), max_size=8)
cycles = st.lists(st.integers(min_value=-1, max_value=1), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=200),
    answers,
    cycles,
    st.sampled_from(list(MergeStrategy)),
)
def test_sort_terminates_when_answers_follow_the_call_count(
    n, honest, prefix, cycle, strategy
):
    # answers picked by the call count alone: honest at first, then a
    # script, then a cycle; the sort must still end and leave a permutation
    compare = scripted_comparator(prefix, cycle, cap=100_000, honest=honest)
    a = list(range(n))
    mergesort(a, compare, strategy)
    assert sorted(a) == list(range(n))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(st.floats(), st.just(math.nan)), max_size=48),
    st.sampled_from(list(MergeStrategy)),
)
def test_sort_with_nan_terminates_and_leaves_permutation(values, strategy):
    # NaN is unordered against everything: no sorted order exists, but the
    # sort ends, leaves a permutation, and the default comparator's path
    # (operator.lt) makes the same moves as a three-way comparator
    a = list(values)
    mergesort(a, CappedComparator(default_compare, cap=100_000), strategy)
    b = list(values)
    mergesort(b, strategy=strategy)
    assert sorted(map(id, a)) == sorted(map(id, values))
    assert list(map(id, b)) == list(map(id, a))


def test_distinct_sequences_sort_concurrently():
    # the README's claim: distinct sequences may be sorted from several
    # threads at once; a short switch interval interleaves them finely
    rng = random.Random(73)
    jobs = [
        ([rng.random() for _ in range(2000)], strategy)
        for strategy in MergeStrategy
        for _ in range(2)
    ]
    expected = []
    for values, strategy in jobs:
        stats = SortStats()
        sort_copy(values, strategy, stats=stats)
        expected.append((sorted(values), stats.comparisons))
    results = [None] * len(jobs)

    def work(i):
        values, strategy = jobs[i]
        stats = SortStats()
        results[i] = (sort_copy(values, strategy, stats=stats), stats.comparisons)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected
