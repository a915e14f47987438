import math
import random

import pytest
from hypothesis import given, strategies as st

from sortbench.instrumentation import MoveCountingList
from sortbench.rotation import rotate_left, rotated_copy

from helpers import NoCompare, RecordingList


def test_rotate_left_twelve_by_three():
    a = list("abcdefghijkl")
    rotate_left(a, 3)
    assert a == list("defghijklabc")


def test_rotate_left_identity():
    a = [5, 1, 9]
    rotate_left(a, 0)
    assert a == [5, 1, 9]
    rotate_left([], 0)
    single = [7]
    rotate_left(single, 3)  # length-1 spans ignore the offset
    assert single == [7]


def test_rotate_left_offset_out_of_range():
    with pytest.raises(ValueError):
        rotate_left([1, 2, 3], 3)
    with pytest.raises(ValueError):
        rotate_left([1, 2, 3], -1)
    with pytest.raises(ValueError):
        rotate_left([1, 2, 3], 1, start=1, length=5)


def test_single_cycle_visit_order():
    # offset 5 on 12 elements walks one cycle through all positions
    a = RecordingList(range(12))
    rotate_left(a, 5)
    assert a.writes == [0, 5, 10, 3, 8, 1, 6, 11, 4, 9, 2, 7]
    assert list(a) == rotated_copy(list(range(12)), 5)


def test_three_cycles_visit_order():
    # offset 3 on 12 elements: gcd(12, 3) = 3 cycles of 4 positions each
    a = RecordingList(range(12))
    rotate_left(a, 3)
    assert a.writes == [0, 3, 6, 9, 1, 4, 7, 10, 2, 5, 8, 11]


@pytest.mark.parametrize("start", [0, 3])
def test_half_rotation_makes_the_block_exchange_writes(start):
    # rotating 2k items by k has k cycles of length 2: the juggling loop
    # writes a[s], then a[s + k], for ascending s, as a pairwise swap does
    for k in range(1, 40):
        a = RecordingList(range(start + 2 * k + 2))
        rotate_left(a, k, start, 2 * k)
        swapped = list(range(start + 2 * k + 2))
        pairs = []
        for x in range(start, start + k):
            swapped[x], swapped[x + k] = swapped[x + k], swapped[x]
            pairs += [x, x + k]
        assert a.writes == pairs, k
        assert list(a) == swapped, k


@pytest.mark.parametrize("start", [0, 3])
def test_writes_follow_the_gcd_cycles(start):
    # rotating n items by r > 0 has g = gcd(n, r) cycles; the one from s
    # writes s, s + r, s + 2r, ... (mod n), and the cycles run for s = 0 .. g-1
    for n in range(40):
        for r in range(max(1, n)):
            a = RecordingList(range(start + n + 2))
            rotate_left(a, r, start, n)
            g = math.gcd(n, r)
            cycles = [
                start + (s + t * r) % n for s in range(g) for t in range(n // g)
            ]
            assert a.writes == (cycles if r else []), (n, r)
            span = rotated_copy(list(range(start, start + n)), r)
            assert list(a) == [*range(start), *span, start + n, start + n + 1]


def test_matches_oracle_small_exhaustive():
    rng = random.Random(0)
    for n in range(17):
        base = [rng.randrange(100) for _ in range(n)]
        for r in range(max(1, n)):
            a = list(base)
            rotate_left(a, r)
            assert a == rotated_copy(base, r), (n, r)


def test_move_count_is_exactly_n():
    rng = random.Random(1)
    for n in (2, 3, 12, 37, 64):
        for r in sorted({1, n // 2, n - 1, rng.randrange(1, n)}):
            a = MoveCountingList(range(n))
            rotate_left(a, r)
            assert a.move_count == n, (n, r)
    a = MoveCountingList(range(10))
    rotate_left(a, 0)
    assert a.move_count == 0


def test_rotation_never_compares():
    a = [NoCompare() for _ in range(12)]
    snapshot = list(a)
    rotate_left(a, 5)
    assert a == [snapshot[(s + 5) % 12] for s in range(12)]


def test_subrange_rotation_leaves_bounds_alone():
    a = list(range(10))
    rotate_left(a, 2, start=3, length=5)  # rotate a[3:8] only
    assert a == [0, 1, 2, 5, 6, 7, 3, 4, 8, 9]
    rotate_left(a, 3, start=3, length=5)  # and back
    assert a == list(range(10))


def test_half_rotation_direction_is_irrelevant():
    # on a block of length 2k, left by k and right by k are the same permutation
    rng = random.Random(2)
    for k in (1, 2, 5, 16):
        base = [rng.randrange(50) for _ in range(2 * k)]
        left = list(base)
        rotate_left(left, k)
        assert left == base[-k:] + base[:-k]


def test_rotated_copy_basics():
    assert rotated_copy([1, 2, 3], 1) == [2, 3, 1]
    assert rotated_copy(["x"], 0) == ["x"]
    assert rotated_copy([], 0) == []


@given(
    st.lists(st.integers(min_value=0, max_value=9), max_size=64),
    st.integers(min_value=0, max_value=200),
)
def test_round_trip_restores_input(items, raw):
    n = len(items)
    r = raw % n if n else 0
    a = list(items)
    rotate_left(a, r)
    assert a == rotated_copy(items, r)
    rotate_left(a, (n - r) % n if n else 0)
    assert a == items
