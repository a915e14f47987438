"""Co-ranking: split a rank in the merged view of two sorted sequences.

Given sorted sequences A and B and a rank ``i`` into their (never
materialized) stable merge C, the co-ranks are the unique pair ``(j, k)``
with ``j + k = i`` such that the first ``i`` elements of C are exactly
``A[0:j]`` and ``B[0:k]``.  They satisfy:

* ``j == 0`` or ``k == len(B)`` or ``A[j-1]`` precedes-or-equals ``B[k]``
* ``k == 0`` or ``j == len(A)`` or ``B[k-1]`` strictly precedes ``A[j]``

The asymmetry (``<=`` on the A side, ``<`` on the B side) is what makes the
split stable: equal keys are drawn from A before B.

The search converges in a binary-search fashion, maintaining ``j + k == i``
throughout, and costs at most ``2 * (ceil(log2(nA + nB + 1)) + 2)`` comparator
calls.  Range checks short-circuit ahead of every comparison, so the
comparator is never invoked with an out-of-range index.

Both tests of the search ask one kind of question, "does ``B[i-t-1]``
strictly precede ``A[t]``?", through the less-than predicate of
:func:`as_less`.  The test that lowers ``j`` from ``t + 1`` and the test that
raises it from ``t`` ask it of the same pair, so they cannot both fire.  Even
a deterministic comparator that is not an ordering therefore cannot send the
search back and forth forever: it terminates within the budget above and
returns ``j + k == i`` in range, though the split then has no meaning.
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
    # 0 <= i <= na + nb.  merge._merge_inplace runs this search inline for
    # i = na, with the first test peeled and a walk for a run of one element
    # (where the two tests ask one pair); keep the two copies alike.  In
    # tests/test_merge.py, test_inplace_asks_the_comparisons_of_co_rank_and_rotate
    # (hypothesis) pins both, and test_single_element_walk_matches_reference
    # pins the walk exhaustively.
    j = i if i < na else na
    k = i - j
    j_low = i - nb if i > nb else 0
    k_low = i - na if i > na else 0
    while True:
        if j > 0 and k < nb and less(b[k], a[j - 1]):
            # too many taken from a: give half the slack back
            delta = (j - j_low + 1) >> 1
            k_low = k
            j -= delta
            k += delta
        elif k > 0 and j < na and not less(b[k - 1], a[j]):
            # too many taken from b (ties must come from a first)
            delta = (k - k_low + 1) >> 1
            j_low = j
            j += delta
            k -= delta
        else:
            return j, k


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
