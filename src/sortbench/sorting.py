"""Top-down mergesort drivers, parameterized by merge strategy.

Both strategies split at ``mid = n // 2`` on every level and produce
identical, stable output; they differ only in how adjacent runs are merged:

* ``MergeStrategy.BUFFERED``: classic mergesort, O(n) scratch space.  The
  scratch buffer is allocated once per sort and reused across merge levels.
* ``MergeStrategy.INPLACE``: no scratch buffer; extra space is the O(log n)
  recursion bookkeeping of sort driver plus in-place merge.

No small-array cutoff to another sort: these are deliberately plain
implementations so measured comparison counts reflect the algorithms
themselves.  The in-place driver sorts a two-element half without a driver
call or a merge node, but that is the merge node ``merge(1, 1)`` done inline,
with its comparisons, moves and depth, not another sort.
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

    When ``stats`` is given, the comparator is wrapped to count invocations
    and the run's wall time, peak merge recursion depth, and (if ``seq``
    counts its own writes, see MoveCountingList) element moves are recorded.
    ``phases`` is forwarded to the in-place merges for wall-time attribution.
    """
    n = len(seq)
    gauge: MergeDepthGauge | None = None
    if stats is not None:
        compare = counting_comparator(compare, stats)
        if strategy is MergeStrategy.INPLACE:
            gauge = MergeDepthGauge()
    less = as_less(compare)
    moves_before = getattr(seq, "move_count", 0)
    t0 = perf_counter()
    if strategy is MergeStrategy.BUFFERED:
        _sort_buffered(seq, 0, n, less, [None] * n)
    elif n > 2:
        _sort_inplace(seq, 0, n, less, gauge, phases)
    elif n == 2:
        _sort_pair(seq, 0, less, gauge, phases)
    elapsed = perf_counter() - t0
    if stats is not None:
        stats.wall_seconds = elapsed
        stats.max_merge_depth = gauge.peak if gauge is not None else 0
        stats.moves = getattr(seq, "move_count", 0) - moves_before


def _sort_inplace(
    a: MutableSequence[Any],
    lo: int,
    n: int,
    less: Less,
    gauge: MergeDepthGauge | None,
    phases: PhaseTimes | None,
) -> None:
    # callers guarantee n > 2, so both halves are nonempty
    mid = n >> 1
    if mid > 2:
        _sort_inplace(a, lo, mid, less, gauge, phases)
    elif mid == 2:
        _sort_pair(a, lo, less, gauge, phases)
    if n - mid > 2:
        _sort_inplace(a, lo + mid, n - mid, less, gauge, phases)
    elif n - mid == 2:
        _sort_pair(a, lo + mid, less, gauge, phases)
    _merge_inplace(a, lo, mid, n - mid, less, gauge, phases)


def _sort_pair(
    a: MutableSequence[Any],
    lo: int,
    less: Less,
    gauge: MergeDepthGauge | None,
    phases: PhaseTimes | None,
) -> None:
    # the merge node merge(1, 1) of a[lo:lo+2], inline: its first test, the
    # walk's repeat of the same test, and a swap only if both fire; depth 1,
    # or 2 when it swaps, and the same co-rank/rotation split of wall time
    if gauge is not None:
        depth = gauge.current + 1
        if depth > gauge.peak:
            gauge.peak = depth
    if phases is not None:
        t0 = perf_counter()
    if less(a[lo + 1], a[lo]) and less(a[lo + 1], a[lo]):
        if phases is not None:
            t1 = perf_counter()
            phases.corank_seconds += t1 - t0
        a[lo], a[lo + 1] = a[lo + 1], a[lo]
        if phases is not None:
            t0 = perf_counter()
            phases.rotation_seconds += t0 - t1
        if gauge is not None and depth >= gauge.peak:
            gauge.peak = depth + 1
    if phases is not None:
        phases.corank_seconds += perf_counter() - t0


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
