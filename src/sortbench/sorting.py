"""Top-down mergesort drivers, parameterized by merge strategy.

Both strategies split at ``mid = n // 2`` on every level and produce
identical, stable output; they differ only in how adjacent runs are merged:

* ``MergeStrategy.BUFFERED``: classic mergesort, O(n) scratch space.  The
  scratch buffer is allocated once per sort and reused across merge levels;
  pass ``per_merge_scratch=True`` to allocate and release it inside every
  merge call instead.
* ``MergeStrategy.INPLACE``: no scratch buffer; extra space is the O(log n)
  recursion bookkeeping of sort driver plus in-place merge.

No small-array cutoff to another sort: these are deliberately plain
implementations so measured comparison counts reflect the algorithms
themselves.
"""

from __future__ import annotations

import time
from enum import Enum
from typing import Any, MutableSequence, Sequence

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
    per_merge_scratch: bool = False,
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
    t0 = time.perf_counter()
    if strategy is MergeStrategy.BUFFERED:
        scratch = None if per_merge_scratch else [None] * n
        _sort_buffered(seq, 0, n, less, scratch)
    elif n > 1:
        _sort_inplace(seq, 0, n, less, gauge, phases)
    elapsed = time.perf_counter() - t0
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
    # callers guarantee n > 1, so both halves are nonempty
    mid = n >> 1
    if mid > 1:
        _sort_inplace(a, lo, mid, less, gauge, phases)
    if n - mid > 1:
        _sort_inplace(a, lo + mid, n - mid, less, gauge, phases)
    _merge_inplace(a, lo, mid, n - mid, less, gauge, phases)


def _sort_buffered(
    a: MutableSequence[Any],
    lo: int,
    n: int,
    less: Less,
    scratch: list[Any] | None,
) -> None:
    if n > 1:
        mid = n >> 1
        _sort_buffered(a, lo, mid, less, scratch)
        _sort_buffered(a, lo + mid, n - mid, less, scratch)
        _merge_buffered(a, lo, mid, n - mid, less, scratch)


def insertion_sorted(
    seq: Sequence[Any], compare: Comparator = default_compare
) -> list[Any]:
    """Return a stably sorted copy via insertion sort.

    O(n^2) reference oracle: trivially stable, independent of the merge path.
    """
    out: list[Any] = []
    for x in seq:
        pos = len(out)
        while pos > 0 and compare(out[pos - 1], x) > 0:
            pos -= 1
        out.insert(pos, x)
    return out
