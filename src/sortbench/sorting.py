"""Top-down mergesort drivers, parameterized by merge strategy.

Both strategies split at ``mid = n // 2`` on every level and produce
identical, stable output; they differ only in how adjacent runs are merged:

* ``MergeStrategy.BUFFERED``: classic mergesort, O(n) scratch space.  The
  scratch buffer is allocated once per sort and reused across merge levels;
  a merge leaves the second run's tail where it already is.
* ``MergeStrategy.INPLACE``: no scratch buffer; extra space is the O(log n)
  recursion bookkeeping of sort driver plus in-place merge.

No small-array cutoff to another sort: these are deliberately plain
implementations so measured comparison counts reflect the algorithms
themselves.  The in-place driver sorts a two-element half without a driver
call or a merge node, but that is the merge node ``merge(1, 1)`` done inline,
with its comparisons, moves and depth, not another sort.  The driver hands
one optional observer (:class:`merge.MergeDepthGauge`) to every merge it
starts, at depth 1: a counted sort's own gauge, else the caller's ``phases``.
"""

from __future__ import annotations

from enum import Enum
from time import perf_counter
from typing import Any, MutableSequence

from .comparator import Comparator, Less, as_less, default_compare
from .instrumentation import SortStats, counting_comparator
from .merge import MergeDepthGauge, PhaseTimes, _merge_buffered, _merge_inplace


class MergeStrategy(Enum):
    BUFFERED = "buffered"
    INPLACE = "inplace"


def mergesort(
    seq: MutableSequence[Any],
    compare: Comparator = default_compare,
    strategy: MergeStrategy = MergeStrategy.INPLACE,
    stats: SortStats | None = None,
    phases: PhaseTimes | None = None,
) -> None:
    """Stably sort ``seq`` in place, ascending under ``compare``.

    ``stats`` describes this one sort: the comparator is wrapped to count
    calls, and its wall time, peak merge depth (0 for BUFFERED) and, if
    ``seq`` counts its writes (see MoveCountingList), moves are recorded.
    ``phases``, a :class:`PhaseTimes`, covers every sort it observed: their
    summed co-ranking vs exchange wall time and their largest merge depth.
    """
    n = len(seq)
    gauge = MergeDepthGauge() if stats is not None else phases
    if stats is not None:
        compare = counting_comparator(compare, stats)
    less = as_less(compare)
    moves_before = getattr(seq, "move_count", 0)
    t0 = perf_counter()
    if strategy is MergeStrategy.BUFFERED:
        _sort_buffered(seq, 0, n, less, [None] * n)
    elif n > 1:
        _sort_inplace(seq, 0, n, less, gauge)
    elapsed = perf_counter() - t0
    if stats is not None:
        stats.wall_seconds = elapsed
        stats.max_merge_depth = gauge.peak
        stats.moves = getattr(seq, "move_count", 0) - moves_before
        if phases is not None:
            phases.peak = max(phases.peak, gauge.peak)
            phases.corank_seconds += gauge.corank_seconds
            phases.rotation_seconds += gauge.rotation_seconds


def _sort_inplace(
    a: MutableSequence[Any],
    lo: int,
    n: int,
    less: Less,
    gauge: MergeDepthGauge | None,
) -> None:
    # callers guarantee n >= 2, so both halves are nonempty
    mid = n >> 1
    if mid > 2:
        _sort_inplace(a, lo, mid, less, gauge)
    elif mid == 2:
        _sort_pair(a, lo, less, gauge)
    if n - mid > 2:
        _sort_inplace(a, lo + mid, n - mid, less, gauge)
    elif n - mid == 2:
        _sort_pair(a, lo + mid, less, gauge)
    _merge_inplace(a, lo, mid, n - mid, less, gauge, 1)


def _sort_pair(
    a: MutableSequence[Any],
    lo: int,
    less: Less,
    gauge: MergeDepthGauge | None,
) -> None:
    # the merge node merge(1, 1) of a[lo:lo+2], inline: its first test, the
    # walk's repeat of the same test, and a swap only if both fire; depth 1,
    # or 2 when it swaps, and the same co-rank/rotation split of wall time
    if gauge is not None:
        gauge.peak = max(gauge.peak, 1)
        t0 = perf_counter()
    if less(a[lo + 1], a[lo]) and less(a[lo + 1], a[lo]):
        if gauge is not None:
            t1 = perf_counter()
            gauge.corank_seconds += t1 - t0
        a[lo], a[lo + 1] = a[lo + 1], a[lo]
        if gauge is not None:
            t0 = perf_counter()
            gauge.rotation_seconds += t0 - t1
            gauge.peak = max(gauge.peak, 2)
    if gauge is not None:
        gauge.corank_seconds += perf_counter() - t0


def _sort_buffered(
    a: MutableSequence[Any],
    lo: int,
    n: int,
    less: Less,
    scratch: list[Any],
) -> None:
    if n > 1:
        mid = n >> 1
        _sort_buffered(a, lo, mid, less, scratch)
        _sort_buffered(a, lo + mid, n - mid, less, scratch)
        _merge_buffered(a, lo, mid, n - mid, less, scratch)
