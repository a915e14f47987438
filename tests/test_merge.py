import itertools
import math
import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import sortbench.merge as merge_mod
from sortbench.comparator import default_compare
from sortbench.instrumentation import SortStats, counting_comparator
from sortbench.merge import (
    MergeDepthGauge,
    PhaseTimes,
    count_inplace_merge_comparisons,
    merge_buffered,
    merge_inplace,
)
from sortbench.sorting import mergesort

from helpers import (
    DepthPeak,
    LessBy,
    RecordingList,
    elements_asking,
    erratic_comparators,
    logged_tag_comparator,
    reference_merge_inplace,
    scripted_comparator,
    sorted_random_run,
    stable_merge_oracle,
)

KEY = lambda x, y: default_compare(x[0], y[0])


def both_merges(base, n1, n2, compare=default_compare):
    buffered = list(base)
    inplace = list(base)
    merge_buffered(buffered, n1, n2, compare)
    merge_inplace(inplace, n1, n2, compare)
    return buffered, inplace


def test_small_example():
    buffered, inplace = both_merges([2, 4, 1, 3], 2, 2)
    assert buffered == [1, 2, 3, 4]
    assert inplace == [1, 2, 3, 4]


def test_empty_run_is_noop():
    for n1, n2 in ((0, 3), (3, 0), (0, 0)):
        base = [5, 1, 4][: n1 + n2]
        buffered, inplace = both_merges(base, n1, n2)
        assert buffered == base
        assert inplace == base


def test_tagged_stability_example():
    base = [(1, "a0"), (2, "a1"), (1, "b0"), (2, "b1")]
    expected = stable_merge_oracle(base[:2], base[2:], KEY)
    assert expected == [(1, "a0"), (1, "b0"), (2, "a1"), (2, "b1")]
    buffered, inplace = both_merges(base, 2, 2, KEY)
    assert buffered == expected
    assert inplace == expected


def test_all_ties_keep_first_run_first():
    base = [(5, "a0"), (5, "a1"), (5, "b0"), (5, "b1")]
    buffered, inplace = both_merges(base, 2, 2, KEY)
    assert buffered == base
    assert inplace == base


def test_bad_runs_rejected():
    with pytest.raises(ValueError):
        merge_inplace([1, 2, 3], 2, 2)
    with pytest.raises(ValueError):
        merge_buffered([1, 2, 3], -1, 2)
    # the runs are checked before the n1-slot buffer is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            merge_buffered([1, 2], 10**6, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_strategies_agree_on_random_runs():
    rng = random.Random(23)
    for trial in range(200):
        n = rng.randrange(0, 257)
        n1 = rng.choice([0, n, rng.randint(0, n), rng.randint(0, n)])
        universe = rng.choice([None, 2, 5])
        run1 = sorted_random_run(rng, n1, universe)
        run2 = sorted_random_run(rng, n - n1, universe)
        tagged = [(k, t) for t, k in enumerate(run1 + run2)]
        buffered, inplace = both_merges(tagged, n1, n - n1, KEY)
        assert inplace == buffered, (trial, n1, n)
        assert Counter(inplace) == Counter(tagged)


def test_buffered_comparison_budget():
    rng = random.Random(29)
    for _ in range(50):
        n1, n2 = rng.randrange(40), rng.randrange(40)
        base = sorted_random_run(rng, n1, 4) + sorted_random_run(rng, n2, 4)
        stats = SortStats()
        merge_buffered(base, n1, n2, counting_comparator(default_compare, stats))
        assert stats.comparisons <= max(0, n1 + n2 - 1)


def test_middle_block_even_and_rotated_by_half():
    # every middle block a[x:x+2k] is rotated by k, an exchange of its halves,
    # whether the merge swaps a single pair or loops over k pairs: the
    # writes are k pairs (x+t, x+t+k), t = 0..k-1, one block after another
    rng = random.Random(37)
    start = 7
    runs = sorted_random_run(rng, 300, 6) + sorted_random_run(rng, 200, 6)
    base = RecordingList([-1.0] * start + runs)
    merge_inplace(base, 300, 200, start=start)
    writes = base.writes
    assert writes and len(writes) % 2 == 0
    blocks = 0
    p = 0
    while p < len(writes):
        x, k = writes[p], writes[p + 1] - writes[p]
        assert k >= 1, writes[p : p + 2]
        assert start <= x and x + 2 * k <= start + 500
        expected = [i for t in range(k) for i in (x + t, x + t + k)]
        assert writes[p : p + 2 * k] == expected
        p += 2 * k
        blocks += 1
    assert blocks > 1
    assert list(base) == [-1.0] * start + sorted(runs)


def test_depth_gauge_stays_logarithmic():
    rng = random.Random(41)
    cases = []
    for _ in range(30):
        n = rng.randrange(2, 2049)
        n1 = rng.randint(0, n)
        cases.append(
            (sorted_random_run(rng, n1, 3), sorted_random_run(rng, n - n1, 3))
        )
    # skew: one element against a long run, in both directions
    long_run = list(range(4096))
    cases.append(([4096.5], [float(x) for x in long_run]))
    cases.append(([float(x) for x in long_run], [-1.0]))
    cases.append(([2048.5], [float(x) for x in long_run]))
    for run1, run2 in cases:
        base = list(run1) + list(run2)
        n = len(base)
        gauge = MergeDepthGauge()
        merge_inplace(base, len(run1), len(run2), gauge=gauge)
        assert gauge.peak <= math.ceil(math.log2(max(n, 2))) + 2, (len(run1), len(run2))
        assert base == sorted(base)


def test_gauge_reused_after_a_raising_merge_reads_a_fresh_peak():
    # a merge or sort that a comparator aborts records no depth in the gauge,
    # so the next one through it reads its own peak
    def raising(x, y):
        raise RuntimeError("comparator failed")

    for run in (
        lambda a, gauge, *compare: merge_inplace(a, 2, 2, *compare, gauge=gauge),
        lambda a, gauge, *compare: mergesort(a, *compare, phases=gauge),
    ):
        reused = MergeDepthGauge()
        with pytest.raises(RuntimeError):
            run([3, 4, 1, 2], reused, raising)
        assert reused.peak == 0
        fresh = MergeDepthGauge()
        for gauge in (reused, fresh):
            base = [3, 4, 1, 2]
            run(base, gauge)
            assert base == [1, 2, 3, 4]
        assert reused.peak == fresh.peak == 2


def test_comparison_probe_tiny_cases():
    assert count_inplace_merge_comparisons([], 0, 0) == 0
    assert count_inplace_merge_comparisons([3, 7, 5], 3, 0) == 0
    for pair in ([1, 2], [2, 1], [1, 1]):
        assert count_inplace_merge_comparisons(list(pair), 1, 1) <= 4


def test_comparisons_scale_linearly_two_sizes():
    rng = random.Random(43)
    per_element = []
    for n in (1 << 10, 1 << 15):
        base = sorted_random_run(rng, n // 2, None) + sorted_random_run(
            rng, n - n // 2, None
        )
        count = count_inplace_merge_comparisons(base, n // 2, n - n // 2)
        per_element.append(count / n)
    assert per_element[1] <= per_element[0] * 1.15


def test_phase_times_accumulate():
    rng = random.Random(47)
    base = sorted_random_run(rng, 500, None) + sorted_random_run(rng, 500, None)
    phases = PhaseTimes()
    merge_inplace(base, 500, 500, gauge=phases)
    assert phases.corank_seconds > 0.0
    assert phases.rotation_seconds > 0.0
    assert base == sorted(base)


runs = st.lists(st.integers(min_value=0, max_value=6), max_size=32).map(sorted)


@given(runs, runs)
def test_inplace_equals_buffered(run1, run2):
    tagged = [(k, t) for t, k in enumerate(run1 + run2)]
    buffered, inplace = both_merges(tagged, len(run1), len(run2), KEY)
    assert inplace == buffered


dup_runs = st.lists(st.integers(min_value=0, max_value=4), max_size=40).map(sorted)


@given(dup_runs, dup_runs, st.integers(min_value=0, max_value=3))
def test_inplace_asks_the_comparisons_of_co_rank_and_rotate(run1, run2, start):
    # the merge runs the paper's co-rank search inline; it must ask the same
    # pairs, in the same order, as helpers.paper_co_rank on the same slices,
    # and its gauge must read the plain recursion's peak depth
    def logged(log):
        def compare(x, y):
            log.append((x[1], y[1]))
            return default_compare(x[0], y[0])

        return compare

    prefix = [(-1, -1 - t) for t in range(start)]
    tagged = prefix + [(k, t) for t, k in enumerate(run1 + run2)]
    got, want = list(tagged), list(tagged)
    got_log, want_log = [], []
    gauge, peak = MergeDepthGauge(), DepthPeak()
    merge_inplace(got, len(run1), len(run2), logged(got_log), start, gauge)
    reference_merge_inplace(want, start, len(run1), len(run2), logged(want_log), peak)
    assert got_log == want_log
    assert got == want
    assert gauge.peak == peak.peak


@settings(deadline=None)
@given(
    dup_runs,
    dup_runs,
    st.sampled_from([0, 5, -5]),
    st.integers(min_value=0, max_value=3),
)
def test_default_comparator_merge_matches_the_instrumented_merge(
    run1, run2, shift, start
):
    # an unobserved default-comparator merge runs merge._merge_lt, which
    # compares with the elements' own <; it must ask the pairs, make the
    # writes and give the output of _merge_inplace with a three-way
    # comparator.  shift 5 puts the runs in order, -5 reverses them
    keys = [-10] * start + run1 + [k + shift for k in run2]
    runs = []
    for fast in (True, False):
        log = []
        compare = logged_tag_comparator(log)
        a = RecordingList(LessBy(k, t, compare) for t, k in enumerate(keys))
        if fast:
            ran = AssertionError("the instrumented node ran")
            with mock.patch.object(merge_mod, "_merge_inplace", side_effect=ran):
                merge_inplace(a, len(run1), len(run2), start=start)
        else:
            merge_inplace(a, len(run1), len(run2), compare, start)
        runs.append((log, a.writes, [x.tag for x in a]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("start", [0, 5])
def test_exact_list_merge_exchanges_every_block_size_as_a_list_subclass_does(start):
    # an exact list exchanges a large middle block by slices and the pairs
    # left over one at a time; a list subclass such as RecordingList takes
    # the element loop.  Runs A + B and C + D with A < C < B < D make the
    # top node exchange B and C, k pairs, for every k up to 64: every
    # remainder of a slice of 12 or 16.  Both lists must end the same
    rng = random.Random(start)

    def keys(low, count):
        return sorted(rng.randrange(low, low + 8) for _ in range(count))

    for k, (p, q) in itertools.product(range(1, 65), [(0, 0), (3, 7), (9, 2)]):
        run1 = keys(0, p) + keys(20, k)
        run2 = keys(10, k) + keys(30, q)
        tagged = [(-1, -1 - t) for t in range(start)] + [
            (key, t) for t, key in enumerate(run1 + run2)
        ]
        key_less = lambda x, y: default_compare(x.key, y.key)
        exact = [LessBy(key, t, key_less) for key, t in tagged]
        recorded = RecordingList(exact)
        merge_inplace(exact, p + k, k + q, start=start)
        merge_inplace(recorded, p + k, k + q, start=start)
        first = sorted(recorded.writes[: 2 * k])
        assert first == list(range(start + p, start + p + 2 * k)), k
        assert [x.tag for x in exact] == [x.tag for x in recorded], (k, p, q)
        stable = [t for _, t in sorted(tagged, key=lambda x: x[0])]
        assert [x.tag for x in exact] == stable, (k, p, q)


def single_element_walks():
    # a single element merged into every run of keys {0, 1, 2} up to length
    # 12, from the left (n1 = 1) and from the right (n2 = 1): every insertion
    # position, with ties.  Yields the keys and n1
    runs = [
        [0] * zeros + [1] * ones + [2] * (length - zeros - ones)
        for length in range(13)
        for zeros in range(length + 1)
        for ones in range(length - zeros + 1)
    ]
    for run, key, from_left in itertools.product(runs, (0, 1, 2), (True, False)):
        yield ([key] + run, 1) if from_left else (run + [key], len(run))


@pytest.mark.parametrize("start", [0, 3])
def test_single_element_walk_matches_reference(start):
    # every single-element walk: the comparator calls, the output and the
    # depth must be the plain recursion's
    def logged(log):
        def compare(x, y):
            log.append((x[1], y[1]))
            return default_compare(x[0], y[0])

        return compare

    prefix = [(-1, -1 - t) for t in range(start)]
    for keys, n1 in single_element_walks():
        n2 = len(keys) - n1
        tagged = prefix + [(k, t) for t, k in enumerate(keys)]
        got, want = list(tagged), list(tagged)
        got_log, want_log = [], []
        gauge = MergeDepthGauge()
        merge_inplace(got, n1, n2, logged(got_log), start, gauge)
        reference_merge_inplace(want, start, n1, n2, logged(want_log))
        assert got_log == want_log, (keys, n1)
        assert got == want, (keys, n1)
        assert gauge.peak == (2 if got != tagged else 1), (keys, n1)


@pytest.mark.parametrize("container", [RecordingList, list], ids=["recording", "list"])
@pytest.mark.parametrize("start", [0, 3])
def test_default_comparator_single_element_walk_matches_the_instrumented_walk(
    start, container
):
    # merge._merge_lt walks one element right (n1 = 1) and left (n2 = 1) in
    # two loops that step p = mid - 1 beside mid; on every walk it must ask
    # each pair twice, as the instrumented node does, and make its writes
    # and its output
    ran = AssertionError("the instrumented node ran")
    for keys, n1 in single_element_walks():
        keys = [-1] * start + keys
        n2 = len(keys) - start - n1
        runs = []
        for fast in (True, False):
            log = []
            compare = logged_tag_comparator(log)
            a = container(LessBy(k, t, compare) for t, k in enumerate(keys))
            if fast:
                with mock.patch.object(merge_mod, "_merge_inplace", side_effect=ran):
                    merge_inplace(a, n1, n2, start=start)
            else:
                merge_inplace(a, n1, n2, compare, start)
            runs.append((log, getattr(a, "writes", None), [x.tag for x in a]))
        assert runs[0] == runs[1], (keys, n1)


def test_phase_times_accumulate_in_a_walk():
    # one element larger than the whole run walks through all of it
    rng = random.Random(53)
    base = [2.0] + sorted_random_run(rng, 500, None)
    phases = PhaseTimes()
    merge_inplace(base, 1, 500, gauge=phases)
    assert phases.corank_seconds > 0.0
    assert phases.rotation_seconds > 0.0
    assert base == sorted(base)


def test_search_terminates_when_one_pair_is_answered_two_ways():
    # -1, 1, 1, then -1 forever: the search's first test fires at its upper
    # bound k_high again and again, which no deterministic comparator can
    # make it do; the merge must end there and leave a permutation
    compare = scripted_comparator([-1, 1, 1], [-1], cap=10_000)
    a = list(range(20))
    merge_inplace(a, 10, 10, compare)
    assert sorted(a) == list(range(20))
    assert compare.calls < 100


def test_default_comparator_search_terminates_when_one_pair_is_answered_two_ways():
    # the same script through the elements' <, which merge._merge_lt asks
    compare = scripted_comparator([-1, 1, 1], [-1], cap=10_000)
    a = elements_asking(compare, 20)
    merge_inplace(a, 10, 10)
    assert sorted(x.tag for x in a) == list(range(20))
    assert compare.calls < 100


answers = st.lists(st.integers(min_value=-1, max_value=1), max_size=8)
cycles = st.lists(st.integers(min_value=-1, max_value=1), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
    answers,
    cycles,
)
def test_inplace_terminates_when_answers_follow_the_call_count(n1, n2, prefix, cycle):
    # answers picked by the call count alone, a script and then a cycle:
    # every search and walk must end, and the runs stay a permutation
    compare = scripted_comparator(prefix, cycle, cap=100_000)
    a = list(range(n1 + n2))
    merge_inplace(a, n1, n2, compare)
    assert sorted(a) == list(range(n1 + n2))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
    erratic_comparators,
)
def test_default_comparator_merge_terminates_when_less_than_is_erratic(n1, n2, erratic):
    # elements whose < answers from a script, a cycle or a changing draw:
    # every search and walk of merge._merge_lt must end, and the runs stay a
    # permutation
    a = elements_asking(erratic, n1 + n2)
    merge_inplace(a, n1, n2)
    assert sorted(x.tag for x in a) == list(range(n1 + n2))
