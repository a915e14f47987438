import pytest

from sortbench.comparator import default_compare
from sortbench.instrumentation import (
    MoveCountingList,
    SortStats,
    TaggedElement,
    counting_comparator,
    key_comparator,
    verify_sorted,
    verify_stable_permutation,
)
from sortbench.sorting import MergeStrategy, mergesort

from helpers import insertion_sorted


def test_counting_comparator_counts_each_call():
    stats = SortStats()
    cmp = counting_comparator(default_compare, stats)
    for _ in range(5):
        cmp(1, 2)
    assert stats.comparisons == 5


def test_empty_sort_needs_no_comparisons():
    stats = SortStats()
    mergesort([], stats=stats)
    assert stats.comparisons == 0


def test_two_element_buffered_sort_uses_one_comparison():
    stats = SortStats()
    mergesort([2, 1], strategy=MergeStrategy.BUFFERED, stats=stats)
    assert stats.comparisons == 1


def test_stats_instances_are_independent():
    first, second = SortStats(), SortStats()
    cmp1 = counting_comparator(default_compare, first)
    cmp2 = counting_comparator(default_compare, second)
    cmp1(0, 1)
    cmp1(0, 1)
    cmp2(0, 1)
    assert (first.comparisons, second.comparisons) == (2, 1)


def test_verify_sorted():
    assert verify_sorted([1, 2, 2, 3])
    assert not verify_sorted([2, 1])
    assert verify_sorted([])
    assert verify_sorted(insertion_sorted([5, 3, 8, 3, 1]))


def test_verify_stable_permutation_accepts_stable_output():
    tagged = [TaggedElement(1, 0), TaggedElement(1, 1)]
    assert verify_stable_permutation(tagged, tagged)
    shuffled = [TaggedElement(2, 0), TaggedElement(1, 1), TaggedElement(1, 2)]
    assert verify_stable_permutation(
        shuffled, insertion_sorted(shuffled, key_comparator())
    )


def test_verify_stable_permutation_rejects_violations():
    tagged = [TaggedElement(1, 0), TaggedElement(1, 1)]
    assert not verify_stable_permutation(tagged, list(reversed(tagged)))
    # not a permutation: an element was duplicated
    assert not verify_stable_permutation(tagged, [tagged[0], tagged[0]])
    # unsorted output
    unsorted = [TaggedElement(2, 0), TaggedElement(1, 1)]
    assert not verify_stable_permutation(unsorted, unsorted)
    # length mismatch
    assert not verify_stable_permutation(tagged, tagged[:1])


def test_move_counting_list_counts_writes():
    a = MoveCountingList([0, 0, 0, 0])
    a[1] = 5
    a[2] = 6
    assert a.move_count == 2
    a[0:4] = [9, 9, 9, 9]
    assert a.move_count == 6
    assert list(a) == [9, 9, 9, 9]
    a[0:4:2] = iter([7, 8])  # an iterator is read once, then counted
    assert a == [7, 9, 8, 9] and a.move_count == 8
    # a write that raises leaves the list as it was, and counts nothing
    with pytest.raises(IndexError):
        a[5] = 0
    with pytest.raises(ValueError):
        a[0:3:2] = [7, 8, 9]  # an extended slice of 2 items takes exactly 2
    assert a == [7, 9, 8, 9] and a.move_count == 8
