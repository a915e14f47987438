"""Counters and verifiers: comparison counting, move counting, and the
sortedness / stability / permutation checks applied to every benchmark run.

All counters are per-instance; nothing here touches global state, so
concurrent runs with separate stats objects never interfere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple, Sequence

from .comparator import Comparator, default_compare


@dataclass(slots=True)
class SortStats:
    """Tally for one sort run."""

    comparisons: int = 0
    moves: int = 0
    max_merge_depth: int = 0
    wall_seconds: float = 0.0


class TaggedElement(NamedTuple):
    """A key paired with its original input index, for stability checks."""

    key: Any
    tag: int


def counting_comparator(inner: Comparator, stats: SortStats) -> Comparator:
    """Wrap ``inner``, a comparator or a less-than predicate, so every
    invocation bumps ``stats.comparisons``."""

    def compare(a: Any, b: Any) -> int:
        stats.comparisons += 1
        return inner(a, b)

    return compare


def key_comparator(compare: Comparator = default_compare) -> Comparator:
    """Comparator over tagged elements that looks only at the key, never the
    tag.  Sorting tagged input with it exposes stability violations."""

    def by_key(a: Any, b: Any) -> int:
        return compare(a[0], b[0])

    return by_key


class MoveCountingList(list):
    """List that counts element writes through item and slice assignment.

    Test/bench instrumentation only: lets callers observe how many element
    moves an in-place algorithm performed without touching its hot path.
    """

    def __init__(self, iterable: Iterable[Any] = ()) -> None:
        super().__init__(iterable)
        self.move_count = 0

    def __setitem__(self, index: Any, value: Any) -> None:
        moved = 1
        if isinstance(index, slice):
            value = list(value)
            moved = len(value)
        super().__setitem__(index, value)  # a write that raises moves nothing
        self.move_count += moved


def verify_sorted(seq: Sequence[Any], compare: Comparator = default_compare) -> bool:
    """True iff no adjacent pair is out of order (equal keys allowed)."""
    for t in range(len(seq) - 1):
        if compare(seq[t], seq[t + 1]) > 0:
            return False
    return True


def verify_stable_permutation(
    original: Sequence[TaggedElement],
    result: Sequence[TaggedElement],
    compare: Comparator = default_compare,
) -> bool:
    """Check that ``result`` is a stably sorted permutation of ``original``.

    ``compare`` orders keys (not whole elements).  Requires the tags in
    ``original`` to be unique and the elements hashable.  True iff ``result``
    has the same element multiset, is sorted by key, and tags strictly
    increase within every run of equal keys.
    """
    if len(original) != len(result):
        return False
    if Counter(original) != Counter(result):
        return False
    for t in range(len(result) - 1):
        c = compare(result[t][0], result[t + 1][0])
        if c > 0:
            return False
        if c == 0 and result[t][1] >= result[t + 1][1]:
            return False
    return True
