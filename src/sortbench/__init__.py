"""Stable, comparison-optimal, in-place mergesort.

The sort needs only two building blocks: an O(n)-move, O(1)-space array
rotation and a logarithmic co-ranking search that splits a rank in the merged
view of two sorted sequences.  Merging rotates the middle block into place
and recurses; the resulting sort is stable, uses O(n log n) comparisons and
O(log n) extra space, at the cost of O(n log^2 n) element moves.

A benchmark harness (``sortbench`` CLI) measures comparison counts and wall
times and fits complexity constants.
"""

from .comparator import Comparator, default_compare
from .coranking import co_rank, co_rank_by_merge, select_merged
from .datagen import Distribution, generate, tag
from .instrumentation import (
    MoveCountingList,
    SortStats,
    TaggedElement,
    counting_comparator,
    key_comparator,
    verify_sorted,
    verify_stable_permutation,
)
from .merge import (
    MergeDepthGauge,
    PhaseTimes,
    count_inplace_merge_comparisons,
    merge_buffered,
    merge_inplace,
)
from .rotation import rotate_left, rotated_copy
from .sorting import MergeStrategy, mergesort

__version__ = "0.1.0"
