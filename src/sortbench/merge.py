"""Merging two adjacent sorted runs inside one sequence.

Two strategies with identical (stable) output:

* :func:`merge_buffered` is the classic two-pointer merge through a scratch
  buffer of the combined run length: O(n) time, O(n) extra space, at most
  ``n - 1`` comparisons.

* :func:`merge_inplace` needs no scratch buffer.  It co-ranks the middle
  rank ``i = n1``, exchanges the two halves of the middle block so that
  everything preceding rank ``i`` sits left of it, and recurses on the two
  independent halves.  Comparisons stay O(n); element moves make it
  O(n log n) time.  Recursing into the smaller half and iterating on the
  larger keeps the stack depth (and hence extra space) logarithmic even for
  adversarially skewed splits.

Both merges compare through the less-than predicate of
:func:`comparator.as_less`, built once per public call.

A merge node of the in-place merge makes no Python call but its recursion.
It runs the paper's bidirectional co-rank search inline (the search that
``tests/helpers.paper_co_rank`` replays, not the one-test lower bound of
:mod:`coranking`).  The middle block has even length 2k and is rotated by k,
a block exchange of its halves with 2k writes: one tuple swap for a single
pair (about two-thirds of all exchanges in a uniform sort), else a loop of
pair swaps.  A side with an empty run gets no node, only the depth that node
would have reached.  Two searches skip the search's set-up: runs already in
order end the node at the search's first test, and a run of one element
walks through the other run pair by pair, asking at each step the search's
two tests of the same pair.  Comparisons, moves and peak depth are those of
the plain recursion.  One optional observer, :class:`MergeDepthGauge`
(also named ``PhaseTimes``), records the peak depth and times co-ranking vs
exchange; each node gets its depth as an argument, so nothing needs undoing
when a comparator raises.  The buffered merge rejects a sequence without list
slice assignment (a ``deque``, an ``array.array``) with a TypeError that
says so.
"""

from __future__ import annotations

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


# the same observer, named for the phase times it accumulates
PhaseTimes = MergeDepthGauge


def _check_runs(seq: MutableSequence[Any], n1: int, n2: int, start: int) -> None:
    if n1 < 0 or n2 < 0:
        raise ValueError("run lengths must be nonnegative")
    if start < 0 or start + n1 + n2 > len(seq):
        raise ValueError(
            f"runs [{start}, {start}+{n1}+{n2}) out of bounds for sequence of "
            f"length {len(seq)}"
        )


def merge_buffered(
    seq: MutableSequence[Any],
    n1: int,
    n2: int,
    compare: Comparator = default_compare,
    start: int = 0,
    scratch: list[Any] | None = None,
) -> None:
    """Stably merge the sorted runs ``seq[start:start+n1]`` and
    ``seq[start+n1:start+n1+n2]`` using a scratch buffer.

    Allocates one ``n1 + n2``-slot buffer unless ``scratch`` (of at least that
    length) is supplied; a MemoryError from that allocation propagates.  Equal
    keys keep first-run elements ahead of second-run elements.
    """
    _check_runs(seq, n1, n2, start)
    _merge_buffered(seq, start, n1, n2, as_less(compare), scratch)


def _merge_buffered(
    seq: MutableSequence[Any],
    start: int,
    n1: int,
    n2: int,
    less: Less,
    scratch: list[Any] | None,
) -> None:
    if n1 == 0 or n2 == 0:
        return
    n = n1 + n2
    if scratch is None:
        scratch = [None] * n
    p = start
    q = start + n1
    end1 = q
    end2 = start + n
    t = 0
    while p < end1 and q < end2:
        if less(seq[q], seq[p]):
            scratch[t] = seq[q]
            q += 1
        else:
            scratch[t] = seq[p]
            p += 1
        t += 1
    while p < end1:
        scratch[t] = seq[p]
        p += 1
        t += 1
    while q < end2:
        scratch[t] = seq[q]
        q += 1
        t += 1
    try:
        seq[start:end2] = scratch[:n]
    except TypeError as exc:
        raise TypeError(
            f"the buffered merge copies back by slice assignment of a list, "
            f"which {type(seq).__name__} does not accept; sort it with "
            f"MergeStrategy.INPLACE, which writes single items"
        ) from exc


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
    the same input.  ``gauge``, when given, records the peak recursion depth
    and accumulates co-ranking vs rotation wall time.
    """
    _check_runs(seq, n1, n2, start)
    _merge_inplace(seq, start, n1, n2, as_less(compare), gauge, 1)


def _merge_inplace(
    a: MutableSequence[Any],
    lo: int,
    n1: int,
    n2: int,
    less: Less,
    gauge: MergeDepthGauge | None,
    depth: int,
) -> None:
    if gauge is not None and depth > gauge.peak:
        gauge.peak = depth
    while n1 > 0 and n2 > 0:
        mid = lo + n1
        if gauge is not None:
            t0 = perf_counter()
        # co-rank i = n1 over a[lo:mid] and a[mid:mid+n2], inline: the
        # paper's bidirectional search (tests/helpers.paper_co_rank), asking
        # its two tests in the same order, but tracking k alone.  j = n1 - k,
        # so A[j] is a[mid-k], and the bound j_low becomes
        # k_high = n1 - j_low, which starts at min(n1, n2).
        # Its first test, at k = 0, is peeled: if it does not fire, the runs
        # are already in order and both halves are base cases.
        if not less(a[mid], a[mid - 1]):
            if gauge is not None:
                gauge.corank_seconds += perf_counter() - t0
            break
        if n1 == 1 or n2 == 1:
            # one element walks through the other run, one node per step:
            # the search's second test (k = 1) asks the first test's pair
            # again, the pair is exchanged, and the side with an empty run
            # needs no node.  The walk ends at the run's end or at the next
            # first test that finds the pair in order; a comparator that
            # answers the second test otherwise also ends it.
            step, stop = (1, mid + n2) if n1 == 1 else (-1, lo)
            while less(a[mid], a[mid - 1]):
                if gauge is not None:
                    t1 = perf_counter()
                    gauge.corank_seconds += t1 - t0
                a[mid - 1], a[mid] = a[mid], a[mid - 1]
                if gauge is not None:
                    t0 = perf_counter()
                    gauge.rotation_seconds += t0 - t1
                    if depth >= gauge.peak:
                        gauge.peak = depth + 1
                mid += step
                if mid == stop or not less(a[mid], a[mid - 1]):
                    break
            if gauge is not None:
                gauge.corank_seconds += perf_counter() - t0
            break
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
        j = n1 - k
        # ints above 256 are heap objects: drop them before recursing, or
        # every frame on the stack keeps its own (tracemalloc sees them)
        k_low = k_high = m = 0
        # the search's end is the exchange's start
        if gauge is not None:
            t1 = perf_counter()
            gauge.corank_seconds += t1 - t0
        # middle block a[mid-k : mid+k]: exchange its halves (a comparator
        # that answers one pair two ways can leave k = 0: nothing moves)
        if k == 1:
            a[mid - 1], a[mid] = a[mid], a[mid - 1]
        else:
            for x in range(mid - k, mid):
                y = x + k
                a[x], a[y] = a[y], a[x]
            x = y = 0
        if gauge is not None:
            gauge.rotation_seconds += perf_counter() - t1
        # halves are independent: recurse into the smaller, loop on the
        # larger; a side with an empty run needs no node, only its depth
        if n1 <= n2:
            if j > 0:
                _merge_inplace(a, lo, j, k, less, gauge, depth + 1)
            elif gauge is not None and depth >= gauge.peak:
                gauge.peak = depth + 1
            lo = mid
            n1, n2 = k, n2 - k
        else:
            if k < n2:
                _merge_inplace(a, mid, k, n2 - k, less, gauge, depth + 1)
            elif gauge is not None and depth >= gauge.peak:
                gauge.peak = depth + 1
            n1, n2 = j, k


def count_inplace_merge_comparisons(
    seq: MutableSequence[Any],
    n1: int,
    n2: int,
    compare: Comparator = default_compare,
    start: int = 0,
) -> int:
    """Run :func:`merge_inplace` with a counting comparator and return the
    number of comparator invocations."""
    stats = SortStats()
    merge_inplace(seq, n1, n2, counting_comparator(compare, stats), start)
    return stats.comparisons
