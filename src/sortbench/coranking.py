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
    na = len(first)
    nb = len(second)
    if not 0 <= rank <= na + nb:
        raise ValueError(f"rank {rank} not in [0, {na + nb}]")
    return _co_rank(rank, first, na, second, nb, as_less(compare))


def _co_rank(
    i: int, a: Sequence[Any], na: int, b: Sequence[Any], nb: int, less: Less
) -> tuple[int, int]:
    # Callers pass na = len(a), nb = len(b) (the ints they already hold: a
    # second len() of a long run allocates two more) and guarantee
    # 0 <= i <= na + nb.  Lower bound over j in [lo, hi): for lo <= j < hi,
    # k = i - j lies in [1, nb], so b[i - j - 1] and a[j] both exist.
    # merge._merge_inplace does not use this search: it runs the paper's
    # bidirectional co-rank inline, pinned to tests/helpers.paper_co_rank.
    lo = i - nb if i > nb else 0
    hi = i if i < na else na
    while lo < hi:
        j = (lo + hi) >> 1
        if less(b[i - j - 1], a[j]):
            hi = j
        else:
            lo = j + 1
    return lo, i - lo


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
    na = len(first)
    nb = len(second)
    if not 0 <= rank < na + nb:
        raise ValueError(f"rank {rank} not in [0, {na + nb})")
    less = as_less(compare)
    j, k = _co_rank(rank, first, na, second, nb, less)
    if j < na and k < nb:
        return second[k] if less(second[k], first[j]) else first[j]
    return first[j] if j < na else second[k]


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
