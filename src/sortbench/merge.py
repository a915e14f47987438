"""Merging two adjacent sorted runs inside one sequence.

:func:`merge_buffered` is the classic merge through a buffer as long as the
first run.  :func:`merge_inplace` needs no buffer: O(n) comparisons, O(n log
n) moves, and a depth kept logarithmic by recursing into the smaller half.
Both give the same stable output on any mutable sequence, reading and
writing single items; only ``_merge_lt`` swaps 16 or more pairs in an exact
``list`` by slices of 16 (a list subclass may log single writes; a numpy
array's slices are views that would alias).  A raising comparator leaves a
permutation; a resizing one gets a ValueError.

The in-place node runs the paper's bidirectional co-rank search inline
(``tests/helpers.paper_co_rank``), not the lower bound of :mod:`coranking`,
so its counted work is the paper's.  Its two twins run over bounds ``lo,
mid, hi`` that a child shares with its parent, and make the same decisions:
``_merge_inplace`` takes a predicate and optional :class:`PhaseTimes` and
returns its depth; ``_merge_lt`` asks the elements' own ``<``, runs exactly
when the predicate is ``operator.lt`` and no gauge is given, and writes the
search for a shorter run of 2 and exchanges of 2 or 3 pairs as straight-line
code.  ``tests/test_merge.py`` pins the twins to the same comparisons and
writes.  Only a caller's gauge runs the timers.

``_merge_lt`` builds each index once, from ``mid`` and ``p = mid - 1``: an
int above 256 is a heap object, and each addition allocates one.  The nodes
zero their ints before they recurse, and ``p`` before a looped exchange.
"""

from __future__ import annotations

import operator
from time import perf_counter
from typing import Any, MutableSequence

from .comparator import Comparator, Less, as_less, default_compare
from .instrumentation import SortStats, counting_comparator


class MergeDepthGauge:
    """Observer of in-place merging: peak recursion depth, and the wall time
    spent co-ranking vs exchanging middle blocks."""

    __slots__ = ("peak", "corank_seconds", "rotation_seconds")

    def __init__(self) -> None:
        self.peak = 0
        self.corank_seconds = 0.0
        self.rotation_seconds = 0.0


# one observer, two names: perfbench builds PhaseTimes, acceptance MergeDepthGauge
PhaseTimes = MergeDepthGauge


def _check_length(seq: MutableSequence[Any], n: int) -> None:
    # a comparator that resizes the sequence leaves every index stale
    if len(seq) != n:
        raise ValueError(f"sequence resized from {n} to {len(seq)} items")


def _run_merge(
    seq: MutableSequence[Any], n1: int, n2: int, start: int, node: Any, *args: Any
) -> Any:
    n = len(seq)
    if n1 < 0 or n2 < 0 or start < 0 or start + n1 + n2 > n:
        raise ValueError(
            f"runs of {n1} and {n2} items at {start} do not fit a sequence of "
            f"{n} items"
        )
    try:
        result = node(seq, start, start + n1, start + n1 + n2, *args)
    except IndexError:
        _check_length(seq, n)
        raise
    _check_length(seq, n)
    return result


def merge_buffered(
    seq: MutableSequence[Any],
    n1: int,
    n2: int,
    compare: Comparator = default_compare,
    start: int = 0,
) -> None:
    """Stably merge the sorted runs ``seq[start:start+n1]`` and
    ``seq[start+n1:start+n1+n2]`` using a scratch buffer.

    Allocates one ``n1``-slot buffer; a MemoryError from that allocation
    propagates.  Equal keys keep first-run elements ahead of second-run
    elements; a second-run tail already in place is not written.
    """
    _run_merge(seq, n1, n2, start, _merge_buffered, as_less(compare), [None] * n1)


def _merge_buffered(
    seq: MutableSequence[Any],
    lo: int,
    mid: int,
    hi: int,
    less: Less,
    scratch: list[Any],
) -> int:
    # the first run goes out to scratch[0:n1] one item at a time (a slice
    # copy would allocate a second buffer).  The merge writes seq[t] with
    # t < q, so it never overwrites an unread second-run item.
    if lo == mid or mid == hi:
        return 0
    n1 = mid - lo
    for p in range(n1):
        scratch[p] = seq[lo + p]
    p = 0
    q = mid
    t = lo
    try:
        while p < n1 and q < hi:
            if less(seq[q], scratch[p]):
                seq[t] = seq[q]
                q += 1
            else:
                seq[t] = scratch[p]
                p += 1
            t += 1
    finally:
        # the first run's rest fills seq[t:q], also after a raising
        # comparator; the second run's rest seq[q:hi] is in place
        while p < n1:
            seq[t] = scratch[p]
            p += 1
            t += 1
    return 0


def merge_inplace(
    seq: MutableSequence[Any],
    n1: int,
    n2: int,
    compare: Comparator = default_compare,
    start: int = 0,
    gauge: MergeDepthGauge | None = None,
) -> None:
    """Stably merge two adjacent sorted runs without a scratch buffer.

    Output is identical, element for element, to :func:`merge_buffered` on
    the same input.  ``gauge``, when given, accumulates co-ranking vs
    rotation wall time and, if the merge completes, keeps its peak depth.
    """
    less = as_less(compare)
    if less is operator.lt and gauge is None:
        _run_merge(seq, n1, n2, start, _merge_lt)
    else:
        depth = _run_merge(seq, n1, n2, start, _merge_inplace, less, gauge)
        if gauge is not None and depth > gauge.peak:
            gauge.peak = depth


def _merge_inplace(
    a: MutableSequence[Any],
    lo: int,
    mid: int,
    hi: int,
    less: Less,
    phases: PhaseTimes | None,
) -> int:
    # returns its depth: 1 + the deepest child, one under each fired first test
    below = 0
    while lo < mid < hi:
        if phases is not None:
            t0 = perf_counter()
        # co-rank i = n1 over a[lo:mid] and a[mid:hi], inline: the
        # paper's bidirectional search (tests/helpers.paper_co_rank), asking
        # its two tests in the same order, but tracking k alone.  j = n1 - k,
        # so A[j] is a[mid-k], and the bound j_low becomes
        # k_high = n1 - j_low, which starts at min(n1, n2).
        # Its first test, at k = 0, is peeled: if it does not fire, the runs
        # are already in order and both halves are base cases.
        if not less(a[mid], a[mid - 1]):
            if phases is not None:
                phases.corank_seconds += perf_counter() - t0
            break
        n1, n2 = mid - lo, hi - mid
        if n1 == 1 or n2 == 1:
            # one element walks through the other run, one node per step:
            # the search's second test (k = 1) asks the first test's pair
            # again, the pair is exchanged, and the side with an empty run
            # needs no node.  The walk ends at the run's end or at the next
            # first test that finds the pair in order; a comparator that
            # answers the second test otherwise also ends it.
            step, stop = (1, hi) if n1 == 1 else (-1, lo)
            while less(a[mid], a[mid - 1]):
                if phases is not None:
                    t1 = perf_counter()
                    phases.corank_seconds += t1 - t0
                a[mid - 1], a[mid] = a[mid], a[mid - 1]
                if phases is not None:
                    t0 = perf_counter()
                    phases.rotation_seconds += t0 - t1
                mid += step
                if mid == stop or not less(a[mid], a[mid - 1]):
                    break
            if phases is not None:
                phases.corank_seconds += perf_counter() - t0
            return (below or 1) + 1
        # the search goes on where the first test, having fired, leaves it
        m = n1 if n1 < n2 else n2
        k_low = 0
        k_high = m
        k = (m + 1) >> 1
        # A test fires when its branch below is taken.  Once k reaches
        # k_high, a deterministic comparator fires neither test 1 (the if)
        # nor test 2 (the elif): test 1 there was asked and failed (or
        # k_high = m), and k got there by test 1 firing at k_high - 1, whose
        # pair test 2 asks again.  Ending the search when a test fires at
        # k == k_high so leaves the counted work alone, and ends it for any
        # comparator: every other firing narrows [k_low, k_high], except
        # test 1 at k_low, after which k > k_low and the next firing must.
        while True:
            if k < m and less(a[mid + k], a[mid - k - 1]):
                if k == k_high:
                    break
                k_low = k
                k += (k_high - k + 1) >> 1
            elif k > 0 and not less(a[mid + k - 1], a[mid - k]):
                if k == k_high:
                    break
                k_high = k
                k -= (k - k_low + 1) >> 1
            else:
                break
        # ints above 256 are heap objects: drop them before recursing, or
        # every frame on the stack keeps its own (tracemalloc sees them)
        k_low = k_high = m = 0
        # the search's end: the exchange's start
        if phases is not None:
            t1 = perf_counter()
            phases.corank_seconds += t1 - t0
        # middle block a[mid-k : mid+k]: exchange its halves (a comparator
        # that answers one pair two ways can leave k = 0: nothing moves)
        for x in range(mid - k, mid):
            y = x + k
            a[x], a[y] = a[y], a[x]
        x = y = 0
        if phases is not None:
            phases.rotation_seconds += perf_counter() - t1
        # halves are independent: recurse into the smaller, loop on the
        # larger; a side with an empty run needs no node
        d = 1
        if n1 <= n2:
            if k < n1:
                n1 = n2 = 0
                d = _merge_inplace(a, lo, mid - k, mid, less, phases)
            lo, mid = mid, mid + k
        else:
            if k < n2:
                n1 = n2 = 0
                d = _merge_inplace(a, mid, mid + k, hi, less, phases)
            mid, hi = mid - k, mid
        if d > below:
            below = d
    return below + 1


def _merge_lt(a: MutableSequence[Any], lo: int, mid: int, hi: int) -> None:
    # _merge_inplace's twin over a[lo:mid] and a[mid:hi], with the elements' <;
    # it builds each index once, from mid and p = mid - 1 (module docstring)
    while lo < mid < hi:
        p = mid - 1
        if not a[mid] < a[p]:
            return
        n1, n2 = mid - lo, hi - mid
        if n1 == 1:
            while a[mid] < a[p]:
                a[p], a[mid] = a[mid], a[p]
                p = mid
                mid += 1
                if mid == hi or not a[mid] < a[p]:
                    return
            return
        if n2 == 1:
            while a[mid] < a[p]:
                a[p], a[mid] = a[mid], a[p]
                mid = p
                p -= 1
                if mid == lo or not a[mid] < a[p]:
                    return
            return
        m = n1 if n1 < n2 else n2
        if m == 2 and a[mid + 1] < a[p - 1]:
            # the search's tests at k = 1, straight-line: test 1 fires, and
            # at k = k_high = 2 test 2 asks this pair again, then it ends
            a[mid + 1] < a[p - 1]
            k = 2
        elif m == 2 and a[mid] < a[p]:
            k = 1
        else:
            # at m = 2 only an erratic < fires test 2: go on from k = 0
            k_low = 0
            k_high = 1 if m == 2 else m
            k = 0 if m == 2 else (m + 1) >> 1
            while True:
                if k < m and a[mid + k] < a[p - k]:
                    if k == k_high:
                        break
                    k_low = k
                    k += (k_high - k + 1) >> 1
                elif k > 0 and not a[p + k] < a[mid - k]:
                    if k == k_high:
                        break
                    k_high = k
                    k -= (k - k_low + 1) >> 1
                else:
                    break
            k_low = k_high = m = 0
        if k == 1:
            a[p], a[mid] = a[mid], a[p]
        elif k == 2:
            a[p - 1], a[mid] = a[mid], a[p - 1]
            a[p], a[mid + 1] = a[mid + 1], a[p]
        elif k == 3:
            a[p - 2], a[mid] = a[mid], a[p - 2]
            a[p - 1], a[mid + 1] = a[mid + 1], a[p - 1]
            a[p], a[mid + 2] = a[mid + 2], a[p]
        else:
            p = 0  # an int held across the slices adds 32 B to a sort's peak
            s = mid - k
            if k >= 16 and type(a) is list and mid + k <= len(a):
                # only full slices of 16: a shrunk list takes the loop, raising
                s = mid - k % 16
                for x in range(mid - k, s, 16):
                    y = x + k
                    a[x:x + 16], a[y:y + 16] = a[y:y + 16], a[x:x + 16]
            for x in range(s, mid):
                y = x + k
                a[x], a[y] = a[y], a[x]
            x = y = s = 0
        if n1 <= n2:
            if k < n1:
                n1 = n2 = p = 0
                _merge_lt(a, lo, mid - k, mid)
            lo, mid = mid, mid + k
        else:
            if k < n2:
                n1 = n2 = p = 0
                _merge_lt(a, mid, mid + k, hi)
            mid, hi = mid - k, mid


def count_inplace_merge_comparisons(
    seq: MutableSequence[Any],
    n1: int,
    n2: int,
    compare: Comparator = default_compare,
    start: int = 0,
) -> int:
    """Run :func:`merge_inplace`'s instrumented node, counting each
    comparison, and return the number of comparator invocations.  The
    acceptance suite counts a merge's comparisons with it."""
    stats = SortStats()
    less = counting_comparator(as_less(compare), stats)
    _run_merge(seq, n1, n2, start, _merge_inplace, less, None)
    return stats.comparisons
