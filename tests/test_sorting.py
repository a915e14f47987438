import array
import collections
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import sortbench.merge as merge_mod
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
from sortbench.merge import (
    PhaseTimes,
    count_inplace_merge_comparisons,
    merge_buffered,
    merge_inplace,
)
from sortbench.sorting import MergeStrategy, mergesort

from helpers import (
    CappedComparator,
    DepthPeak,
    LessBy,
    RecordingList,
    TableComparator,
    changing_comparator,
    elements_asking,
    erratic_comparators,
    erratic_recipes,
    insertion_sorted,
    logged_comparator,
    logged_tag_comparator,
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
    # top-down replay whose merges each allocate their own must ask the same
    # comparisons and give the same output
    def replay(a, lo, n, compare):
        if n > 1:
            mid = n >> 1
            replay(a, lo, mid, compare)
            replay(a, lo + mid, n - mid, compare)
            merge_buffered(a, mid, n - mid, compare, lo)

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
    # in the same order, as helpers.reference_mergesort, and reach its peak
    # merge depth, timed through phases or counted through stats alone
    tagged = [(k, t) for t, k in enumerate(keys)]
    got, counted, want = list(tagged), list(tagged), list(tagged)
    got_log, counted_log, want_log = [], [], []
    phases, stats, peak = PhaseTimes(), SortStats(), DepthPeak()
    mergesort(got, logged_key_comparator(got_log), phases=phases)
    mergesort(counted, logged_key_comparator(counted_log), stats=stats)
    reference_mergesort(want, logged_key_comparator(want_log), peak=peak)
    assert got_log == counted_log == want_log
    assert got == counted == want
    assert phases.peak == stats.max_merge_depth == peak.peak


@settings(deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), max_size=80),
    st.sampled_from(["drawn", "sorted", "reversed"]),
)
def test_default_comparator_sort_matches_the_instrumented_sort(keys, order):
    # an unobserved default-comparator sort runs sorting._sort_lt, which
    # compares with the elements' own <; it must ask the pairs, make the
    # writes and give the output of _sort with a three-way comparator
    if order != "drawn":
        keys = sorted(keys, reverse=order == "reversed")
    assert_sorts_match(keys)


def assert_sorts_match(keys, container=RecordingList):
    # a RecordingList logs the writes too; an exact list cannot
    runs = []
    for fast in (True, False):
        log = []
        compare = logged_tag_comparator(log)
        a = container(LessBy(k, t, compare) for t, k in enumerate(keys))
        if fast:
            ran = AssertionError("the instrumented driver ran")
            with mock.patch.object(sorting_mod, "_sort", side_effect=ran):
                mergesort(a)
        else:
            mergesort(a, compare)
        runs.append((log, getattr(a, "writes", None), [x.tag for x in a]))
    assert runs[0] == runs[1]


SCALE_DISTRIBUTIONS = [
    Distribution("uniform"),
    Distribution("reversed"),
    Distribution("sawtooth", period=8),
    Distribution("fewdistinct", universe=4),
]


@pytest.mark.parametrize("dist", SCALE_DISTRIBUTIONS, ids=Distribution.label)
def test_default_comparator_sort_matches_the_instrumented_sort_at_scale(dist):
    # the hypothesis pins stop at 80 items; 2^11 items reach exchanges of 8
    # pairs and more, and merges nested deeper than any of theirs
    assert_sorts_match(generate(2048, dist, 12))


@pytest.mark.parametrize("n", [2048, 5000])
@pytest.mark.parametrize("dist", SCALE_DISTRIBUTIONS, ids=Distribution.label)
def test_default_comparator_sort_of_an_exact_list_matches_the_instrumented_sort(
    dist, n
):
    # a list subclass such as RecordingList exchanges one pair at a time;
    # an exact list exchanges large middle blocks by slices, which must
    # leave the comparisons and the output order as they were
    assert_sorts_match(generate(n, dist, 12), list)


def reversed_sort_peaks(sort, exponents=range(10, 17)):
    # the tracemalloc peak of sort(a) over reversed floats, n = 2^e
    peaks = []
    for e in exponents:
        a = [float(x) for x in range(2**e, 0, -1)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sort(a)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert a == [float(x) for x in range(1, 2**e + 1)]
    return peaks


def test_default_comparator_sort_peak_grows_slowly_with_n():
    # at its peak a sort holds little but one exchange's slices and the ints
    # in its frames, 32 B each above 256.  Frames that pass their own ints
    # down as bounds add at most two of them per doubling of n
    peaks = reversed_sort_peaks(mergesort)
    assert max(b - a for a, b in zip(peaks, peaks[1:])) <= 64, peaks


# a fresh interpreter's first sort, of reversed floats, n = argv[1]: its
# tracemalloc peak, and whether the list ends sorted
FIRST_SORT_PEAK = """
import sys, tracemalloc
from sortbench import mergesort

def peak(a):
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    mergesort(a)
    return tracemalloc.get_traced_memory()[1] - base

a = [float(x) for x in range(int(sys.argv[1]), 0, -1)]
print(peak(a), a == sorted(a))
"""


def test_default_comparator_sort_peak_is_one_slice_exchange_at_small_n():
    # up to n = 256 every index is a cached small int, so an exact list's
    # peak is a slice swap's three 16-slot arrays (384 B).  A fresh
    # interpreter's first sort finds the float free list empty, so a clock
    # reading (24 B) held across it would show, as would an int (32 B) or a
    # range iterator (48 B)
    env = {**os.environ, "PYTHONPATH": str(Path(sorting_mod.__file__).parents[1])}
    for n in (64, 128, 256):
        result = subprocess.run(
            [sys.executable, "-c", FIRST_SORT_PEAK, str(n)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.split() == [str(3 * 16 * 8), "True"], (n, result.stdout)


def test_counted_sort_peak_grows_slowly_with_n():
    # a stats= sort runs the instrumented driver and node, which pass bounds
    # too and drop their run lengths before recursing; a frame holding its
    # own lengths across its call adds about 96 B per doubling of n
    peaks = reversed_sort_peaks(lambda a: mergesort(a, stats=SortStats()))
    assert max(b - a for a, b in zip(peaks, peaks[1:])) <= 64, peaks


def twin_and_instrumented_runs(entry, n1, n2, make_compare):
    # one unobserved default-comparator sort or merge of n1 + n2 elements
    # whose < asks a comparator from make_compare(), and one instrumented
    # sort or merge asking another from make_compare() directly: each run's
    # comparator calls, writes and output order
    def run(a, *compare):
        if entry == "sort":
            mergesort(a, *compare)
        else:
            merge_inplace(a, n1, n2, *compare)

    fast_log, slow_log = [], []
    fast = RecordingList(
        elements_asking(logged_comparator(make_compare(), fast_log), n1 + n2)
    )
    ran = AssertionError("the instrumented node ran")
    with mock.patch.object(sorting_mod, "_sort", side_effect=ran):
        with mock.patch.object(merge_mod, "_merge_inplace", side_effect=ran):
            run(fast)
    slow = RecordingList(range(n1 + n2))
    run(slow, logged_comparator(make_compare(), slow_log))
    fast_run = (fast_log, fast.writes, [x.tag for x in fast])
    return fast_run, (slow_log, slow.writes, list(slow))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["sort", "merge"]),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    erratic_recipes,
)
def test_default_comparator_twins_match_the_instrumented_node_when_less_than_is_erratic(
    entry, n1, n2, recipe
):
    # sorting._sort_lt and merge._merge_lt must make the instrumented node's
    # decisions for any answers, not only for an order's: two copies of one
    # erratic comparator hear the same calls, and both paths make the same
    # writes and leave the same order
    factory, args = recipe
    fast, slow = twin_and_instrumented_runs(entry, n1, n2, lambda: factory(*args))
    assert fast == slow


@pytest.mark.parametrize("n1, n2", [(2, 2), (2, 3), (3, 2)])
def test_default_comparator_merge_matches_the_instrumented_merge_after_the_m2_fallback(
    n1, n2
):
    # with a shorter run of 2 the search asks test 1, then test 2 on the
    # node's first pair; -1, 1, 1 fires test 2 there, which only an erratic
    # comparator can do, and the search goes on from k = 0 with test 1 at
    # k = 0 and at k = 1
    fast, slow = twin_and_instrumented_runs(
        "merge", n1, n2, lambda: scripted_comparator([-1, 1, 1], [-1], cap=100)
    )
    assert fast == slow
    first, test_1 = (n1, n1 - 1), (n1 + 1, n1 - 2)
    assert fast[0][:5] == [first, test_1, first, first, test_1]


BLOCKS_OF_FOUR = list(itertools.product(range(4), repeat=4))


@pytest.mark.parametrize("container", [RecordingList, list], ids=["recording", "list"])
def test_default_comparator_sort_of_four_matches_the_instrumented_sort(container):
    # _sort_lt sorts a block of four in straight-line code; on every order
    # of four keys with ties it must ask the pairs, make the writes and
    # give the output of the two pair sorts and merge(2, 2)
    for keys in BLOCKS_OF_FOUR:
        assert_sorts_match(keys, container)


@pytest.mark.parametrize(
    "script, prefix, writes",
    [
        # the third ask of the first pair is false: k = 0, nothing written
        ([1, 1, -1, 1, 1, 1], [(1, 0), (3, 2), (2, 1), (3, 0), (2, 1), (2, 1)], []),
        # it is true and test 1 at k = 1 fails: test 2 at k = 1, then k = 1
        (
            [1, 1, -1, 1, 1, -1, 1, 1],
            [(1, 0), (3, 2), (2, 1), (3, 0), (2, 1), (2, 1), (3, 0), (2, 1)],
            [1, 2],
        ),
    ],
    ids=["k0", "k1"],
)
def test_default_comparator_sort_of_four_matches_after_the_m2_fallback(
    script, prefix, writes
):
    # the pair sorts decline, the first test fires, test 1 and its re-ask
    # of the first pair decline: only an erratic comparator gets here, and
    # the block's written-out search goes on from k = 0
    fast, slow = twin_and_instrumented_runs(
        "sort", 2, 2, lambda: scripted_comparator(script, [1], cap=100)
    )
    assert fast == slow
    assert fast[0][: len(prefix)] == prefix
    assert fast[1][: len(writes)] == writes
    if not writes:
        assert fast[0] == prefix and fast[1] == []


@pytest.mark.parametrize("n", [4, 8, 1024])
def test_default_comparator_sort_merges_no_block_of_four(n):
    # a block of four is sorted without a merge node; the old route through
    # _merge_lt(a, lo, lo + 2, lo + 4) would pass every other pin
    rng = random.Random(n)
    a = [rng.random() for _ in range(n)]
    want = sorted(a)
    with mock.patch.object(sorting_mod, "_merge_lt", wraps=merge_mod._merge_lt) as m:
        mergesort(a)
    assert a == want
    assert all(c.args[3] - c.args[1] != 4 for c in m.call_args_list)
    assert m.call_count == n // 4 - 1


def test_two_element_sort_records_the_merge_node_depth():
    # a two-element sort is the merge node merge(1, 1): depth 1, and 2 when
    # it exchanges the pair
    for pair, comparisons, depth in (([1, 2], 1, 1), ([1, 1], 1, 1), ([2, 1], 2, 2)):
        stats = SortStats()
        a = list(pair)
        mergesort(a, stats=stats)
        assert a == sorted(pair)
        assert (stats.comparisons, stats.max_merge_depth) == (comparisons, depth), pair


def test_stats_describe_one_sort_and_phases_every_sort_it_observed():
    # a counted sort reads its own depth, not the peak of a reused phases,
    # and phases keeps that peak and gains the counted sort's seconds
    rng = random.Random(43)
    phases = PhaseTimes()
    mergesort([rng.random() for _ in range(1000)], phases=phases)
    deep = phases.peak
    assert deep > 2
    stats = SortStats()
    mergesort([3, 1, 2], strategy=MergeStrategy.BUFFERED, stats=stats, phases=phases)
    assert stats.max_merge_depth == 0
    assert phases.peak == deep
    fresh = SortStats()
    mergesort([1, 2, 3, 4], stats=fresh)
    corank_before = phases.corank_seconds
    stats = SortStats()
    mergesort([1, 2, 3, 4], stats=stats, phases=phases)
    assert stats.max_merge_depth == fresh.max_merge_depth == 1
    assert phases.peak == deep
    assert phases.corank_seconds > corank_before


def test_only_a_callers_phase_times_run_the_merge_timers(monkeypatch):
    # a counted sort or merge gets its depth from the merge node's return
    # value and calls no merge timer; a caller's PhaseTimes still runs them
    def timer():
        raise AssertionError("a merge timer ran")

    rng = random.Random(53)
    uniform = [rng.random() for _ in range(512)]
    monkeypatch.setattr(merge_mod, "perf_counter", timer)
    for data in (uniform, sorted(uniform, reverse=True)):
        for compare in ((), (lambda x, y: (x > y) - (x < y),)):
            stats = SortStats()
            a = list(data)
            mergesort(a, *compare, stats=stats)
            assert a == sorted(data) and stats.max_merge_depth > 1
        runs = sorted(data[:256]) + sorted(data[256:])
        assert count_inplace_merge_comparisons(runs, 256, 256) > 0
        assert runs == sorted(data)
    monkeypatch.undo()
    phases = PhaseTimes()
    mergesort(list(uniform), phases=phases)
    assert phases.corank_seconds + phases.rotation_seconds > 0


@pytest.mark.parametrize(
    "kwargs, node",
    [
        ({"strategy": MergeStrategy.BUFFERED}, "_merge_buffered"),
        ({"strategy": MergeStrategy.BUFFERED, "stats": SortStats()}, "_merge_buffered"),
        ({"stats": SortStats()}, "_merge_inplace"),
        ({"phases": PhaseTimes()}, "_merge_inplace"),
        ({}, None),
    ],
    ids=["buffered", "buffered-stats", "stats", "phases", "unobserved"],
)
def test_one_driver_runs_the_buffered_and_the_observed_sorts(kwargs, node):
    # both strategies share sorting._sort, which enters no one-element half:
    # 1,023 calls for 1,024 items, each with its strategy's merge node.  An
    # unobserved float sort runs _sort_lt and never enters _sort
    rng = random.Random(59)
    a = [rng.random() for _ in range(1024)]
    want = sorted(a)
    with mock.patch.object(sorting_mod, "_sort", wraps=sorting_mod._sort) as m:
        mergesort(a, **kwargs)
    assert a == want
    if node is None:
        assert m.call_count == 0
        return
    assert m.call_count == 1023
    assert {c.args[3] for c in m.call_args_list} == {getattr(merge_mod, node)}
    assert all(c.args[2] - c.args[1] >= 2 for c in m.call_args_list)


@pytest.mark.parametrize("strategy", ["buffered", "inplace", "bogus", None])
def test_a_strategy_that_is_not_a_merge_strategy_raises_value_error(strategy):
    # a value's name is not the strategy: no work is done, nothing is sorted
    a = [3, 1, 2]
    with pytest.raises(ValueError, match=repr(strategy)):
        mergesort(a, strategy=strategy)
    assert a == [3, 1, 2]


@pytest.mark.parametrize("data, moves", [(range(1024), 5120), (range(1024, 0, -1), 10240)])
def test_buffered_sort_leaves_a_tail_in_place(data, moves):
    # each merge writes back what precedes the second run's remaining tail:
    # the first run alone for sorted input, both runs for reversed input
    arr = MoveCountingList(data)
    stats = SortStats()
    mergesort(arr, strategy=MergeStrategy.BUFFERED, stats=stats)
    assert list(arr) == sorted(data)
    assert (stats.comparisons, stats.moves) == (5120, moves)


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
    # an unobserved default-comparator sort runs _sort_lt, an observed one
    # _sort: wrap the driver each call runs, which must be entered
    rng = random.Random(37)
    values = [rng.random() for _ in range(10_000)]
    for name, kwargs in (("_sort_lt", {}), ("_sort", {"phases": PhaseTimes()})):
        real = getattr(sorting_mod, name)
        depth = {"current": 0, "peak": 0}

        def wrapped(*args):
            depth["current"] += 1
            depth["peak"] = max(depth["peak"], depth["current"])
            try:
                return real(*args)
            finally:
                depth["current"] -= 1

        monkeypatch.setattr(sorting_mod, name, wrapped)
        mergesort(list(values), **kwargs)
        assert 1 <= depth["peak"] <= math.ceil(math.log2(10_000)) + 1, name


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
    for strategy in MergeStrategy:
        for seq in (collections.deque(values), array.array("d", values)):
            mergesort(seq, strategy=strategy)
            assert list(seq) == sorted(values), (strategy, type(seq))


def test_sorts_numpy_array():
    np = pytest.importorskip("numpy")
    values = np.random.default_rng(59).random(300)
    for strategy in MergeStrategy:
        seq = values.copy()
        mergesort(seq, strategy=strategy)
        assert seq.tolist() == sorted(values.tolist()), strategy


def test_buffered_sort_allocates_one_array():
    # the buffered reference's one large allocation is its n-slot scratch
    # buffer, 8 B per element: its merges copy single items, never slices
    n = 10_000
    values = generate(n, Distribution("uniform"), 88)
    arr = list(values)
    tracemalloc.start()
    try:
        mergesort(arr, strategy=MergeStrategy.BUFFERED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert arr == sorted(values)
    assert 8 * n <= peak < 9 * n, peak / n


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


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=48),
    st.data(),
)
def test_raising_less_than_propagates_and_leaves_permutation(keys, data):
    # the default-comparator sort compares with the elements' <, which
    # raises on its N-th call, for any N the sort reaches
    counted = SortStats()
    sort_copy(keys, MergeStrategy.INPLACE, stats=counted)
    fail_at = data.draw(st.integers(min_value=1, max_value=counted.comparisons))
    calls = 0

    def compare(x, y):
        nonlocal calls
        calls += 1
        if calls == fail_at:
            raise ComparatorFailed(calls)
        return default_compare(x.key, y.key)

    a = [LessBy(k, t, compare) for t, k in enumerate(keys)]
    with pytest.raises(ComparatorFailed):
        mergesort(a)
    assert sorted(x.tag for x in a) == list(range(len(keys)))


def _halves(a):
    return len(a) // 2, len(a) - len(a) // 2


# the entry points that must notice a resized sequence; the "<", stats and
# phases ones pass the default comparator, so the elements' own < asks it
RESIZE_CHECKED = {
    "buffered sort": lambda a, compare: mergesort(a, compare, MergeStrategy.BUFFERED),
    "inplace sort": lambda a, compare: mergesort(a, compare),
    "inplace sort, <": lambda a, compare: mergesort(a),
    "inplace sort, stats": lambda a, compare: mergesort(a, stats=SortStats()),
    "inplace sort, phases": lambda a, compare: mergesort(a, phases=PhaseTimes()),
    "buffered merge": lambda a, compare: merge_buffered(a, *_halves(a), compare),
    "inplace merge": lambda a, compare: merge_inplace(a, *_halves(a), compare),
    "inplace merge, <": lambda a, compare: merge_inplace(a, *_halves(a)),
    "counted inplace merge": lambda a, compare: count_inplace_merge_comparisons(
        a, *_halves(a), compare
    ),
}


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=48),
    st.sampled_from(sorted(RESIZE_CHECKED)),
    st.sampled_from(["append", "pop"]),
    st.data(),
)
def test_resizing_comparator_raises_value_error(keys, entry, resize, data):
    # the comparator appends or pops an item at its N-th call, for any N
    # the call reaches; whether or not an index then runs off the end, the
    # sort or merge raises a ValueError that names the resize
    run = RESIZE_CHECKED[entry]
    if "merge" in entry:
        h = len(keys) // 2
        keys = sorted(keys[:h]) + sorted(keys[h:])
    resize_at = calls = 0
    a = []

    def compare(x, y):
        nonlocal calls
        calls += 1
        if calls == resize_at and resize == "append":
            a.append(a[0])
        elif calls == resize_at:
            a.pop()
        return default_compare(x.key, y.key)

    a[:] = [LessBy(k, t, compare) for t, k in enumerate(keys)]
    run(a, compare)
    resize_at = data.draw(st.integers(min_value=1, max_value=calls))
    calls = 0
    a[:] = [LessBy(k, t, compare) for t, k in enumerate(keys)]
    with pytest.raises(ValueError, match="resized"):
        run(a, compare)


@pytest.mark.parametrize("resize", ["append", "pop"])
@pytest.mark.parametrize("entry", ["inplace merge, <", "inplace sort, <"])
def test_resize_before_a_sliced_exchange_raises_value_error(entry, resize):
    # keys [1]*16 + [0]*16 make the top node exchange k = 16 pairs, which an
    # exact list does by slices; a pop at the search's last call must not
    # let a short slice and a full one restore the length.  Every call N
    assert_every_resize_raises(RESIZE_CHECKED[entry], [1] * 16 + [0] * 16, resize)


@pytest.mark.parametrize("resize", ["append", "pop"])
def test_resizing_less_than_in_a_sort_of_four_raises_value_error(resize):
    # every order of four keys, and every call N of its straight-line sort
    for keys in BLOCKS_OF_FOUR:
        assert_every_resize_raises(RESIZE_CHECKED["inplace sort, <"], keys, resize)


def assert_every_resize_raises(run, keys, resize):
    # the comparator appends or pops an item at its N-th call, for every N
    # that run(a, compare) reaches on keys; each run raises the resize error
    resize_at = calls = 0
    a = []

    def compare(x, y):
        nonlocal calls
        calls += 1
        if calls == resize_at and resize == "append":
            a.append(a[0])
        elif calls == resize_at:
            a.pop()
        return default_compare(x.key, y.key)

    a[:] = [LessBy(k, t, compare) for t, k in enumerate(keys)]
    run(a, compare)
    for resize_at in range(1, calls + 1):
        calls = 0
        a[:] = [LessBy(k, t, compare) for t, k in enumerate(keys)]
        with pytest.raises(ValueError, match="resized"):
            run(a, compare)


def test_raising_less_than_in_a_sort_of_four_leaves_permutation():
    # every order of four keys, and every call N of its straight-line sort
    for keys in BLOCKS_OF_FOUR:
        fail_at = calls = 0

        def compare(x, y):
            nonlocal calls
            calls += 1
            if calls == fail_at:
                raise ComparatorFailed(calls)
            return default_compare(x.key, y.key)

        mergesort([LessBy(k, t, compare) for t, k in enumerate(keys)])
        for fail_at in range(1, calls + 1):
            calls = 0
            a = [LessBy(k, t, compare) for t, k in enumerate(keys)]
            with pytest.raises(ComparatorFailed):
                mergesort(a)
            assert sorted(x.tag for x in a) == [0, 1, 2, 3]


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


def test_default_comparator_sort_terminates_when_one_pair_is_answered_two_ways():
    # the same script through the elements' <, which sorting._sort_lt and
    # merge._merge_lt ask
    honest = 0
    for half in (list(range(10)), list(range(10, 20))):
        stats = SortStats()
        mergesort(half, stats=stats)
        honest += stats.comparisons
    compare = scripted_comparator([-1, 1, 1], [-1], cap=10_000, honest=honest)
    a = elements_asking(compare, 20)
    mergesort(a)
    assert sorted(x.tag for x in a) == list(range(20))
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


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=40), erratic_comparators)
def test_default_comparator_sort_terminates_when_less_than_is_erratic(n, erratic):
    # elements whose < answers from a script, a cycle or a changing draw:
    # the default-comparator sort must still end and leave a permutation
    a = elements_asking(erratic, n)
    mergesort(a)
    assert sorted(x.tag for x in a) == list(range(n))


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
