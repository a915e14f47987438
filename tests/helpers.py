"""Shared oracles and fixtures for the test suite.

The oracles deliberately stay brute force (insertion sort, two-pointer
merges, full copies) so they remain independent of the code paths they
check.  The one exception is ``paper_co_rank``, a copy of the search the
in-place merge runs inline, kept here so the merge's comparator calls can be
replayed exactly.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from hypothesis import strategies as st

from sortbench.comparator import Comparator, default_compare
from sortbench.instrumentation import TaggedElement
from sortbench.rotation import rotate_left


def insertion_sorted(
    seq: Sequence[Any], compare: Comparator = default_compare
) -> list[Any]:
    """Return a stably sorted copy via insertion sort: O(n^2), trivially
    stable, independent of the merge path."""
    out: list[Any] = []
    for x in seq:
        pos = len(out)
        while pos > 0 and compare(out[pos - 1], x) > 0:
            pos -= 1
        out.insert(pos, x)
    return out


def stable_merge_oracle(
    a: Sequence[Any], b: Sequence[Any], compare: Comparator = default_compare
) -> list[Any]:
    """Plain two-pointer stable merge into a fresh list; ties taken from a."""
    out = []
    j = k = 0
    while j < len(a) and k < len(b):
        if compare(b[k], a[j]) < 0:
            out.append(b[k])
            k += 1
        else:
            out.append(a[j])
            j += 1
    out.extend(a[j:])
    out.extend(b[k:])
    return out


class RecordingList(list):
    """List that logs the index of every single-item write."""

    def __init__(self, iterable=()):
        super().__init__(iterable)
        self.writes: list[int] = []

    def __setitem__(self, index, value):
        if not isinstance(index, slice):
            self.writes.append(index)
        super().__setitem__(index, value)


class LessBy:
    """Element whose ``<`` answers ``compare(self, other) < 0``.  Sorted
    with the default comparator, it makes the library compare with ``<``
    and still ask ``compare``: one that logs, raises or follows a script."""

    __slots__ = ("key", "tag", "compare")

    def __init__(self, key: Any, tag: int, compare: Comparator) -> None:
        self.key = key
        self.tag = tag
        self.compare = compare

    def __lt__(self, other: "LessBy") -> bool:
        return self.compare(self, other) < 0


def elements_asking(compare: Comparator, n: int) -> list[LessBy]:
    """Elements with keys and tags ``0 .. n-1`` whose ``<`` asks
    ``compare`` about their keys."""
    return [LessBy(t, t, lambda x, y: compare(x.key, y.key)) for t in range(n)]


def logged_tag_comparator(log: list) -> Comparator:
    """Three-way comparator over ``LessBy`` keys that logs the tags of
    every call."""

    def compare(x: LessBy, y: LessBy) -> int:
        log.append((x.tag, y.tag))
        return default_compare(x.key, y.key)

    return compare


class NoCompare:
    """Object that refuses every ordering comparison."""

    def _refuse(self, other):
        raise AssertionError("element was compared")

    __lt__ = __le__ = __gt__ = __ge__ = _refuse


class RampSequence:
    """Read-only sorted sequence computed on demand: ``base + (t // block) * step``.

    Lets co-ranking tests cover million-element instances without
    materializing them; ``block`` controls duplicate-run length.
    """

    __slots__ = ("n", "base", "block", "step")

    def __init__(self, n: int, base: float, block: int, step: float):
        if n < 0 or block < 1:
            raise ValueError("need n >= 0 and block >= 1")
        self.n = n
        self.base = base
        self.block = block
        self.step = step

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, t: int) -> float:
        if not 0 <= t < self.n:
            raise IndexError(t)
        return self.base + (t // self.block) * self.step


def sorted_random_run(rng: random.Random, n: int, universe: int | None = None) -> list[float]:
    """Sorted run of n keys: floats, or duplicates from a small universe."""
    if universe is None:
        return sorted(rng.random() for _ in range(n))
    return sorted(float(rng.randrange(universe)) for _ in range(n))


def tagged_runs(
    rng: random.Random, n1: int, n2: int, universe: int
) -> list[TaggedElement]:
    """Two adjacent sorted runs of tagged duplicate-heavy keys, tags 0..n-1."""
    keys1 = sorted_random_run(rng, n1, universe)
    keys2 = sorted_random_run(rng, n2, universe)
    return [TaggedElement(k, i) for i, k in enumerate(keys1 + keys2)]


class CallCapExceeded(Exception):
    """Raised by TableComparator once it has been called more than its cap."""


class TableComparator:
    """Deterministic three-way comparator over the ids ``0 .. n-1`` that is
    not an ordering: each ordered pair ``(x, y)`` gets its own seeded answer
    in {-1, 0, 1}, independent of ``(y, x)``.  Counts its calls and raises
    CallCapExceeded past ``cap``, so a search that would loop forever fails
    instead of hanging."""

    def __init__(self, n: int, seed: int, cap: int) -> None:
        self.n = n
        self.table = random.Random(seed).choices((-1, 0, 1), k=n * n)
        self.cap = cap
        self.calls = 0

    def __call__(self, x: int, y: int) -> int:
        self.calls += 1
        if self.calls > self.cap:
            raise CallCapExceeded(f"more than {self.cap} comparator calls")
        return self.table[x * self.n + y]


class CappedComparator:
    """Wraps a three-way comparator, counts its calls and raises
    CallCapExceeded past ``cap``, so a sort that would not end fails."""

    def __init__(self, compare: Comparator, cap: int) -> None:
        self.compare = compare
        self.cap = cap
        self.calls = 0

    def __call__(self, x: Any, y: Any) -> int:
        self.calls += 1
        if self.calls > self.cap:
            raise CallCapExceeded(f"more than {self.cap} comparator calls")
        return self.compare(x, y)


def changing_comparator(seed: int, cap: int) -> CappedComparator:
    """Comparator whose answers change from call to call: each call draws
    -1, 0 or 1 from a seeded generator, whatever its arguments."""
    rng = random.Random(seed)
    return CappedComparator(lambda x, y: rng.choice((-1, 0, 1)), cap)


def scripted_comparator(
    prefix: Sequence[int], cycle: Sequence[int], cap: int, honest: int = 0
) -> CappedComparator:
    """Comparator whose answer depends only on its call count, whatever its
    arguments: the first ``honest`` calls answer as ``default_compare``,
    the next ones read ``prefix`` in turn, and then ``cycle`` repeats
    forever.  Raises CallCapExceeded past ``cap``."""
    calls = 0

    def compare(x: Any, y: Any) -> int:
        nonlocal calls
        calls += 1
        if calls <= honest:
            return default_compare(x, y)
        t = calls - honest - 1
        if t < len(prefix):
            return prefix[t]
        return cycle[(t - len(prefix)) % len(cycle)]

    return CappedComparator(compare, cap)


_answers = st.lists(st.integers(min_value=-1, max_value=1), max_size=8)
_cycles = st.lists(st.integers(min_value=-1, max_value=1), min_size=1, max_size=8)

# capped comparators outside the contract: answers that change between
# calls, or that follow the call count (honest, then a script, then a cycle),
# drawn as (factory, args): two copies built from one recipe answer one
# sequence of calls alike
erratic_recipes = st.one_of(
    st.tuples(
        st.just(changing_comparator),
        st.tuples(st.integers(0, 2**32 - 1), st.just(100_000)),
    ),
    st.tuples(
        st.just(scripted_comparator),
        st.tuples(_answers, _cycles, st.just(100_000), st.integers(0, 200)),
    ),
)
erratic_comparators = erratic_recipes.map(lambda recipe: recipe[0](*recipe[1]))


def logged_comparator(compare: Comparator, log: list) -> Comparator:
    """``compare``, logging the arguments of every call."""

    def logged(x: Any, y: Any) -> int:
        log.append((x, y))
        return compare(x, y)

    return logged


def paper_co_rank(
    i: int, a: Sequence[Any], b: Sequence[Any], compare: Comparator
) -> tuple[int, int]:
    """The paper's bidirectional co-rank search (Siebert & Traeff), which the
    in-place merge runs inline.  It starts at ``j = min(i, len(a))`` and
    moves the split by half the remaining slack in either direction: one
    test lowers ``j``, a second raises it back.  Both ask "does ``b[i-t-1]``
    strictly precede ``a[t]``?" as ``compare(x, y) < 0``, so its comparator
    calls are the ones the merge's search must make.  A test that fires at
    ``j == j_low`` ends the search, as in the merge: a deterministic
    comparator never fires one there, and any other cannot loop."""
    na = len(a)
    nb = len(b)
    j = i if i < na else na
    k = i - j
    j_low = i - nb if i > nb else 0
    k_low = i - na if i > na else 0
    while True:
        if j > 0 and k < nb and compare(b[k], a[j - 1]) < 0:
            if j == j_low:
                return j, k
            # too many taken from a: give half the slack back
            delta = (j - j_low + 1) >> 1
            k_low = k
            j -= delta
            k += delta
        elif k > 0 and j < na and not compare(b[k - 1], a[j]) < 0:
            if j == j_low:
                return j, k
            # too many taken from b (ties must come from a first)
            delta = (k - k_low + 1) >> 1
            j_low = j
            j += delta
            k -= delta
        else:
            return j, k


class DepthPeak:
    """Largest depth the reference recursion entered."""

    def __init__(self) -> None:
        self.peak = 0

    def enter(self, depth: int) -> None:
        if depth > self.peak:
            self.peak = depth


def reference_merge_inplace(
    seq: list[Any],
    lo: int,
    n1: int,
    n2: int,
    compare: Comparator,
    peak: DepthPeak | None = None,
    depth: int = 1,
) -> None:
    """The in-place merge rebuilt from plain layers: co-rank ``i = n1`` with
    ``paper_co_rank`` on copies of the two runs, rotate the middle block with
    ``rotate_left`` on a copy, recurse into the smaller side (empty or not)
    and loop on the larger.  Its comparator calls are the ones the merge
    must make, and ``peak``, when given, records each call's ``depth`` on
    entry: the peak depth the merge's gauge must read."""
    if peak is not None:
        peak.enter(depth)
    while n1 > 0 and n2 > 0:
        mid = lo + n1
        j, k = paper_co_rank(n1, seq[lo:mid], seq[mid : mid + n2], compare)
        if k == 0:
            return
        block = seq[lo + j : mid + k]
        rotate_left(block, k)
        seq[lo + j : mid + k] = block
        if n1 <= n2:
            reference_merge_inplace(seq, lo, j, n1 - j, compare, peak, depth + 1)
            lo = mid
            n1, n2 = k, n2 - k
        else:
            reference_merge_inplace(seq, mid, k, n2 - k, compare, peak, depth + 1)
            n1, n2 = j, n1 - j


def reference_mergesort(
    seq: list[Any],
    compare: Comparator,
    lo: int = 0,
    n: int | None = None,
    peak: DepthPeak | None = None,
) -> None:
    """Top-down mergesort of ``seq[lo:lo+n]`` split at ``n >> 1``, merging
    with ``reference_merge_inplace`` at depth 1: the plain recursion whose
    comparator calls and peak merge depth the in-place sort must have."""
    if n is None:
        n = len(seq) - lo
    if n > 1:
        mid = n >> 1
        reference_mergesort(seq, compare, lo, mid, peak)
        reference_mergesort(seq, compare, lo + mid, n - mid, peak)
        reference_merge_inplace(seq, lo, mid, n - mid, compare, peak)
