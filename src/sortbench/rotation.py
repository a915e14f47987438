"""In-place sequence rotation by cycle-following.

Rotating left by ``r`` moves the element at index ``(s + r) mod n`` to index
``s``.  The rotation walks the permutation cycles directly, so every element
is written exactly once (n writes total) and the only extra storage is one
temporary slot per cycle.  No gcd is computed: a cycle is detected by the
index returning to its starting position, and a remaining-work counter tells
the outer loop when all cycles are done.  Cycles start below
``lo + gcd(n, r)``, so the first step of a cycle never wraps.

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
    if n <= 1:
        return
    if not 0 <= offset < n:
        raise ValueError(f"offset {offset} not in [0, {n})")
    _rotate(seq, offset, start, n)


def _rotate(a: MutableSequence[Any], r: int, lo: int, n: int) -> None:
    # Core juggling loop. Callers guarantee 0 <= r < n and valid bounds.
    if r == 0:
        return
    hi = lo + n
    work = n  # elements still to move
    s = lo
    while work > 0:
        i = s
        first = a[s]  # keep old first element of the cycle
        # no wrap yet: a cycle starts at s < lo + gcd(n, r) <= lo + n - r
        nxt = i + r
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
