"""In-place sequence rotation by cycle-following, and block exchange.

Rotating left by ``r`` moves the element at index ``(s + r) mod n`` to index
``s``.  The rotation walks the permutation cycles directly, so every element
is written exactly once (n writes total) and the only extra storage is one
temporary slot per cycle.  No gcd is computed: a cycle is detected by the
index returning to its starting position, and a remaining-work counter tells
the outer loop when all cycles are done.

Rotating a span of even length by half of it is a block exchange (Gries &
Mills, "Swapping sections", 1981): its cycles all have length 2, so
the rotation swaps the two halves element by element instead, still with
exactly n writes and no allocation.  The in-place merge rotates only such
blocks and runs the same swap loop inline, so it calls nothing here.  The
swap indexes one element at a time, never slices, so it works on every
mutable sequence (a ``deque`` has no slice assignment, and a numpy slice is
a view).

Rotation never compares elements; it only moves them.
"""

from __future__ import annotations

from typing import Any, MutableSequence, Sequence


def normalize_offset(offset: int, length: int) -> int:
    """Map an arbitrary (possibly negative) offset into ``[0, length)``.

    Returns 0 for an empty sequence.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return 0
    return offset % length


def _span(seq: Sequence[Any], start: int, length: int | None) -> int:
    if length is None:
        length = len(seq) - start
    if start < 0 or length < 0 or start + length > len(seq):
        raise ValueError(
            f"span [{start}, {start}+{length}) out of bounds for sequence of "
            f"length {len(seq)}"
        )
    return length


def rotate_left(
    seq: MutableSequence[Any],
    offset: int,
    start: int = 0,
    length: int | None = None,
) -> None:
    """Rotate ``seq[start:start+length]`` left by ``offset``, in place.

    Requires ``0 <= offset < length`` (use :func:`normalize_offset` first for
    raw offsets).  Spans of length 0 or 1 are no-ops regardless of offset.
    """
    n = _span(seq, start, length)
    if n <= 1:
        return
    if not 0 <= offset < n:
        raise ValueError(f"offset {offset} not in [0, {n})")
    _rotate(seq, offset, start, n)


def rotate_right(
    seq: MutableSequence[Any],
    offset: int,
    start: int = 0,
    length: int | None = None,
) -> None:
    """Rotate right by ``offset``; equivalent to a left rotation by ``n - offset``."""
    n = _span(seq, start, length)
    if n <= 1:
        return
    if not 0 <= offset < n:
        raise ValueError(f"offset {offset} not in [0, {n})")
    _rotate(seq, (n - offset) % n, start, n)


def _rotate(a: MutableSequence[Any], r: int, lo: int, n: int) -> None:
    # Core juggling loop. Callers guarantee 0 <= r < n and valid bounds.
    if r == 0:
        return
    if 2 * r == n:
        # block exchange of a[lo:lo+r] and a[lo+r:lo+n]: n writes, no allocation
        for x in range(lo, lo + r):
            y = x + r
            a[x], a[y] = a[y], a[x]
        return
    hi = lo + n
    work = n  # elements still to move
    s = lo
    while work > 0:
        i = s
        first = a[s]  # keep old first element of the cycle
        nxt = i + r
        if nxt >= hi:
            nxt -= n
        while nxt != s:
            a[i] = a[nxt]
            i = nxt
            nxt += r
            if nxt >= hi:
                nxt -= n
            work -= 1
        a[i] = first  # cycle completed
        work -= 1
        s += 1


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
