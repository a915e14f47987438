"""Top-down mergesort over the merge nodes of :mod:`merge`.

There is no small-array cutoff to another sort: the drivers are plain on
purpose, so that measured comparison counts reflect the algorithms
themselves.  ``_sort`` runs a buffered sort, and an in-place sort with a
comparator or an observer; an unobserved in-place sort with the default
comparator runs its twin ``_sort_lt`` (the :mod:`merge` docstring says why).
"""

from __future__ import annotations

import operator
from enum import Enum
from time import perf_counter
from typing import Any, Callable, MutableSequence

from .comparator import Comparator, Less, as_less, default_compare
from .instrumentation import SortStats, counting_comparator
from .merge import PhaseTimes, _guarded, _merge_buffered, _merge_inplace, _merge_lt


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

    ``stats`` describes this one sort: its comparisons are counted, and its
    wall time, peak merge depth (0 for BUFFERED) and, if ``seq`` counts its
    writes (see MoveCountingList), moves are recorded.
    ``phases``, a :class:`PhaseTimes`, covers every sort it observed: their
    summed co-ranking vs exchange wall time and the largest merge depth of
    those that completed.  Raises ValueError if ``strategy`` is not a
    MergeStrategy or if the comparator resizes ``seq``.
    """
    if not isinstance(strategy, MergeStrategy):
        raise ValueError(f"strategy {strategy!r} is not a MergeStrategy")
    n = len(seq)
    less = as_less(compare)
    if stats is not None:
        less = counting_comparator(less, stats)
        moves_before = getattr(seq, "move_count", 0)
        t0 = perf_counter()
    peak = 0
    if n > 1:
        if strategy is MergeStrategy.BUFFERED:
            _guarded(seq, n, _sort, 0, n, _merge_buffered, less, [None] * n)
        elif less is operator.lt and phases is None:
            _guarded(seq, n, _sort_lt)
        else:
            peak = _guarded(seq, n, _sort, 0, n, _merge_inplace, less, phases)
    if phases is not None and peak > phases.peak:
        phases.peak = peak
    if stats is not None:
        stats.wall_seconds = perf_counter() - t0
        stats.max_merge_depth = peak
        stats.moves = getattr(seq, "move_count", 0) - moves_before


def _sort(
    a: MutableSequence[Any],
    lo: int,
    hi: int,
    node: Callable[..., int],
    less: Less,
    extra: Any,
) -> int:
    # a[lo:hi], hi - lo >= 2, skipping one-element halves; node returns its
    # depth (_merge_buffered, given the scratch buffer as extra, returns 0)
    mid = (lo + hi) >> 1
    peak = _sort(a, lo, mid, node, less, extra) if mid - lo > 1 else 0
    if hi - mid > 1:
        d = _sort(a, mid, hi, node, less, extra)
        if d > peak:
            peak = d
    d = node(a, lo, mid, hi, less, extra)
    return d if d > peak else peak


def _sort_lt(a: MutableSequence[Any], lo: int, hi: int) -> None:
    # twin of _sort over _merge_inplace; a two-element half is merge(1, 1)
    # inline, and so is a block of four: two of them, then merge(2, 2) with
    # _merge_lt's calls and writes, which halves the driver's _merge_lt calls
    mid = (lo + hi) >> 1
    if hi - lo == 4:
        l1, m1 = lo + 1, mid + 1
        if a[l1] < a[lo] and a[l1] < a[lo]:
            a[lo], a[l1] = a[l1], a[lo]
        if a[m1] < a[mid] and a[m1] < a[mid]:
            a[mid], a[m1] = a[m1], a[mid]
        if not a[mid] < a[l1]:
            return
        if a[m1] < a[lo]:
            a[m1] < a[lo]  # test 2 at k = k_high = 2 asks test 1's pair again
            a[lo], a[mid] = a[mid], a[lo]
            a[l1], a[m1] = a[m1], a[l1]
            return
        if not a[mid] < a[l1]:
            # only an erratic < gets here: the search goes on from k = 0
            if not a[mid] < a[l1]:
                return
            a[m1] < a[lo] or a[mid] < a[l1]  # tests 1 and 2 at k = 1
        a[l1], a[mid] = a[mid], a[l1]  # k = 1, then merge(1, 1) on each side
        if a[l1] < a[lo] and a[l1] < a[lo]:
            a[lo], a[l1] = a[l1], a[lo]
        if a[m1] < a[mid] and a[m1] < a[mid]:
            a[mid], a[m1] = a[m1], a[mid]
        return
    if mid - lo > 2:
        _sort_lt(a, lo, mid)
    elif mid - lo == 2 and a[lo + 1] < a[lo] and a[lo + 1] < a[lo]:
        a[lo], a[lo + 1] = a[lo + 1], a[lo]
    if hi - mid > 2:
        _sort_lt(a, mid, hi)
    elif hi - mid == 2 and a[mid + 1] < a[mid] and a[mid + 1] < a[mid]:
        a[mid], a[mid + 1] = a[mid + 1], a[mid]
    _merge_lt(a, lo, mid, hi)
