"""Three-way comparators: the ordering contract every other module builds on.

A comparator is a callable ``cmp(a, b)`` returning a negative int when ``a``
precedes ``b``, zero when their keys are equal, and a positive int when ``a``
succeeds ``b``.  It must implement a strict weak ordering and be deterministic
within a run; the library documents but does not detect violations.
Outside the contract every function still terminates, and a sort leaves a
permutation: the in-place merge's co-rank search ends where a test fires at
its upper bound, and its walk of a one-element run ends where a pair asked
twice gets two answers, neither of which a deterministic comparator can do.

The public API takes three-way comparators; internally every module compares
through a less-than predicate built once per call by :func:`as_less`.  The
default comparator becomes ``operator.lt`` (the elements' native ``<``, which
an unobserved in-place sort or merge asks directly), and any other
comparator is still called exactly once per comparison.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

Comparator = Callable[[Any, Any], int]
Less = Callable[[Any, Any], bool]


def default_compare(a: Any, b: Any) -> int:
    """Ascending three-way comparison using the elements' native ``<``."""
    if a < b:
        return -1
    if b < a:
        return 1
    return 0


def as_less(compare: Comparator) -> Less:
    """Return the strict "precedes" predicate of ``compare``.

    ``as_less(compare)(a, b)`` is ``compare(a, b) < 0``, computed with one
    call of ``compare``; for :func:`default_compare` it is ``operator.lt``.
    """
    if compare is default_compare:
        return operator.lt
    return lambda a, b: compare(a, b) < 0
