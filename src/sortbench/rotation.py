"""In-place sequence rotation by cycle-following.

Rotating left by ``r`` moves the element at index ``(s + r) mod n`` to index
``s``.  The permutation has ``gcd(n, r)`` cycles, and the rotation walks each
of them directly, so every element is written exactly once (n writes total)
and the only extra storage is one temporary slot per cycle.

One loop serves every offset.  Rotating a span of even length by half of it
is a block exchange (Gries & Mills, "Swapping sections", 1981): its cycles
all have length 2, so the loop writes ``a[s]``, then ``a[s + r]``, for
ascending ``s``, which are a pairwise swap's writes in the same order.  The
loop indexes one element at a time, never slices, so it works on every
mutable sequence (a ``deque`` has no slice assignment, and a numpy slice is
a view).

Rotation never compares elements; it only moves them.
"""

from __future__ import annotations

from math import gcd
from typing import Any, MutableSequence, Sequence


def rotate_left(
    seq: MutableSequence[Any],
    offset: int,
    start: int = 0,
    length: int | None = None,
) -> None:
    """Rotate ``seq[start:start+length]`` left by ``offset``, in place.

    ``length`` defaults to the rest of the sequence.  Requires
    ``0 <= offset < length``; spans of length 0 or 1 are no-ops regardless
    of offset.  A right rotation by ``r`` is a left rotation by
    ``(length - r) % length``.
    """
    n = len(seq) - start if length is None else length
    if start < 0 or n < 0 or start + n > len(seq):
        raise ValueError(
            f"span [{start}, {start}+{n}) out of bounds for sequence of "
            f"length {len(seq)}"
        )
    if n <= 1 or offset == 0:
        return
    if not 0 < offset < n:
        raise ValueError(f"offset {offset} not in [0, {n})")
    hi = start + n
    # a cycle starts at s < start + gcd(n, offset) <= hi - offset, so its
    # first step never wraps
    for s in range(start, start + gcd(n, offset)):
        first = seq[s]
        i = s
        nxt = s + offset
        while nxt != s:
            seq[i] = seq[nxt]
            i = nxt
            nxt += offset
            if nxt >= hi:
                nxt -= n
        seq[i] = first


def rotated_copy(seq: Sequence[Any], offset: int) -> list[Any]:
    """Return a fresh list equal to ``seq`` rotated left by ``offset``.

    Brute-force reference built with O(n) scratch; used to cross-check
    :func:`rotate_left`.
    """
    n = len(seq)
    if n <= 1:
        return list(seq)
    if not 0 <= offset < n:
        raise ValueError(f"offset {offset} not in [0, {n})")
    return list(seq[offset:]) + list(seq[:offset])
