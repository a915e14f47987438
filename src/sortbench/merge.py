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

The middle block always has even length 2k and must be rotated by k: a
block exchange of its two halves, which :func:`rotation._swap_halves` does
directly with 2k writes.  Both merges compare through the less-than
predicate of :func:`comparator.as_less`, built once per public call.
"""

from __future__ import annotations

import time
from typing import Any, MutableSequence

from .comparator import Comparator, Less, as_less, default_compare
from .coranking import _co_rank_spans
from .rotation import _swap_halves


class MergeDepthGauge:
    """Tracks current and peak recursion depth of in-place merging."""

    __slots__ = ("current", "peak")

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0


class PhaseTimes:
    """Wall-time attribution of in-place merging: co-ranking vs rotation."""

    __slots__ = ("corank_seconds", "rotation_seconds")

    def __init__(self) -> None:
        self.corank_seconds = 0.0
        self.rotation_seconds = 0.0


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
    seq[start:end2] = scratch[:n]


def merge_inplace(
    seq: MutableSequence[Any],
    n1: int,
    n2: int,
    compare: Comparator = default_compare,
    start: int = 0,
    gauge: MergeDepthGauge | None = None,
    phases: PhaseTimes | None = None,
) -> None:
    """Stably merge two adjacent sorted runs without a scratch buffer.

    Output is identical, element for element, to :func:`merge_buffered` on
    the same input.  ``gauge``, when given, records recursion depth;
    ``phases`` accumulates co-ranking vs rotation wall time.
    """
    _check_runs(seq, n1, n2, start)
    _merge_inplace(seq, start, n1, n2, as_less(compare), gauge, phases)


def _merge_inplace(
    a: MutableSequence[Any],
    lo: int,
    n1: int,
    n2: int,
    less: Less,
    gauge: MergeDepthGauge | None,
    phases: PhaseTimes | None,
) -> None:
    if gauge is not None:
        depth = gauge.current + 1
        gauge.current = depth
        if depth > gauge.peak:
            gauge.peak = depth
    while n1 > 0 and n2 > 0:
        i = n1
        mid = lo + n1
        if phases is None:
            j, k = _co_rank_spans(i, a, lo, n1, a, mid, n2, less)
        else:
            t0 = time.perf_counter()
            j, k = _co_rank_spans(i, a, lo, n1, a, mid, n2, less)
            phases.corank_seconds += time.perf_counter() - t0
        if k == 0:
            # runs already in order at this node: both halves are base cases
            break
        # middle block a[lo+j : lo+j+2k], offset n1 - j == k: swap its halves
        if phases is None:
            _swap_halves(a, lo + j, k)
        else:
            t0 = time.perf_counter()
            _swap_halves(a, lo + j, k)
            phases.rotation_seconds += time.perf_counter() - t0
        # halves are independent: recurse into the smaller, loop on the larger
        if n1 <= n2:
            _merge_inplace(a, lo, j, n1 - j, less, gauge, phases)
            lo = mid
            n1, n2 = k, n2 - k
        else:
            _merge_inplace(a, mid, k, n2 - k, less, gauge, phases)
            n1, n2 = j, n1 - j
    if gauge is not None:
        gauge.current -= 1


def count_inplace_merge_comparisons(
    seq: MutableSequence[Any],
    n1: int,
    n2: int,
    compare: Comparator = default_compare,
    start: int = 0,
) -> int:
    """Run :func:`merge_inplace` with a counting comparator and return the
    number of comparator invocations."""
    calls = 0

    def counted(x: Any, y: Any) -> int:
        nonlocal calls
        calls += 1
        return compare(x, y)

    merge_inplace(seq, n1, n2, counted, start)
    return calls
