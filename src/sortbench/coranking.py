"""Co-ranking: split a rank in the merged view of two sorted sequences.

For sorted A and B and a rank ``i`` into their stable merge C (never
materialized), the co-ranks are the unique ``(j, k)`` with ``j + k = i``
such that the first ``i`` elements of C are ``A[0:j]`` and ``B[0:k]``:

* ``j == 0`` or ``k == len(B)`` or ``A[j-1]`` precedes-or-equals ``B[k]``
* ``k == 0`` or ``j == len(A)`` or ``B[k-1]`` strictly precedes ``A[j]``

The asymmetry (``<=`` on the A side, ``<`` on the B side) makes the split
stable: equal keys come from A first.

The search is a lower bound over ``j`` for the test "``B[i-j-1]`` strictly
precedes ``A[j]``", which is false below the co-rank and true from it on.
It costs at most ``ceil(log2(min(i, nA, nB, nA + nB - i) + 1))`` comparator
calls.  Its range shrinks at every step whatever the comparator answers, so
a comparator that is not an ordering also ends it within that many calls,
though the split then has no meaning.
"""

from __future__ import annotations

from typing import Any, Sequence

from .comparator import Comparator, Less, as_less, default_compare


def co_rank(
    rank: int,
    first: Sequence[Any],
    second: Sequence[Any],
    compare: Comparator = default_compare,
) -> tuple[int, int]:
    """Return the co-ranks ``(j, k)`` of ``rank`` in sorted ``first``/``second``.

    Requires ``0 <= rank <= len(first) + len(second)`` and both inputs sorted
    under ``compare``; raises ValueError for an out-of-range rank.
    """
    if not 0 <= rank <= len(first) + len(second):
        raise ValueError(f"rank {rank} not in [0, {len(first) + len(second)}]")
    j = _co_rank(rank, first, second, as_less(compare))
    return j, rank - j


def _co_rank(i: int, a: Sequence[Any], b: Sequence[Any], less: Less) -> int:
    # Callers guarantee 0 <= i <= len(a) + len(b) and bind neither length: the
    # loop never reads one, and above 256 each is an int on the heap, so each
    # is read once to set the lower bound's range [lo, hi).  There k = i - j
    # lies in [1, len(b)], so b[i - j - 1] and a[j] exist.  The paper's
    # bidirectional search runs inline in merge._merge_inplace instead.
    lo = i - len(b)
    if lo < 0:
        lo = 0
    hi = len(a)
    if hi > i:
        hi = i
    while lo < hi:
        j = (lo + hi) >> 1
        if less(b[i - j - 1], a[j]):
            hi = j
        else:
            lo = j + 1
    return lo


def select_merged(
    rank: int,
    first: Sequence[Any],
    second: Sequence[Any],
    compare: Comparator = default_compare,
) -> Any:
    """Return element ``rank`` of the stable merge of two sorted sequences.

    Runs in O(log n) comparisons: co-rank the split, then pick whichever head
    element comes next (ties go to ``first``).
    """
    if not 0 <= rank < len(first) + len(second):
        raise ValueError(f"rank {rank} not in [0, {len(first) + len(second)})")
    less = as_less(compare)
    j = _co_rank(rank, first, second, less)
    k = rank - j
    if j < len(first) and k < len(second):
        return second[k] if less(second[k], first[j]) else first[j]
    return first[j] if j < len(first) else second[k]


def co_rank_by_merge(
    rank: int,
    first: Sequence[Any],
    second: Sequence[Any],
    compare: Comparator = default_compare,
) -> tuple[int, int]:
    """Brute-force co-ranks: walk a stable two-pointer merge for ``rank`` steps
    and count how many elements each input contributed.  O(rank) time, used as
    an independent cross-check of :func:`co_rank`.
    """
    na = len(first)
    nb = len(second)
    if not 0 <= rank <= na + nb:
        raise ValueError(f"rank {rank} not in [0, {na + nb}]")
    j = 0
    k = 0
    while j + k < rank:
        if j < na and (k == nb or compare(first[j], second[k]) <= 0):
            j += 1
        else:
            k += 1
    return j, k
