"""Benchmark harness: run sorts, verify every result, time and count work,
fit complexity constants, and serialize records as CSV or JSON.

A timing is never reported for an unverified run: verification failure raises
:class:`VerificationError` carrying the diagnostic record instead.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cmp_to_key
from statistics import median_low
from typing import Any, Callable, Sequence

from .comparator import default_compare
from .datagen import Distribution, generate, tag
from .instrumentation import (
    MoveCountingList,
    SortStats,
    counting_comparator,
    key_comparator,
    verify_sorted,
    verify_stable_permutation,
)
from .merge import PhaseTimes
from .sorting import MergeStrategy, mergesort

ALGORITHMS = ("inplace", "buffered", "system")
FORMATS = ("csv", "json")
MODELS = ("nlogn", "nlog2n")

@dataclass(frozen=True)
class BenchConfig:
    """One benchmark cell: algorithm, input shape, and measurement flags."""

    algorithm: str = "inplace"
    n: int = 0
    dist: Distribution = field(default_factory=lambda: Distribution("uniform"))
    seed: int = 42
    reps: int = 1
    count_mode: bool = False
    attribute_phases: bool = False
    fixed_seed: bool = False
    tagged: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.attribute_phases and self.algorithm != "inplace":
            raise ValueError(
                f"--attribute-phases needs --algo inplace, not {self.algorithm}"
            )
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")


@dataclass
class BenchRecord:
    """One measured run (or the median summary row of a rep group).

    The fields are a report's columns, in order.  A field that defaults to
    ``None`` is ``None`` (an empty CSV cell, JSON ``null``) when the run did
    not measure it.  ``comparisons`` is measured in count mode; ``moves``
    too, except for ``system`` (``list.sort`` writes past the counting
    list); ``max_depth`` only for ``inplace`` in count mode;
    ``corank_seconds``/``rotation_seconds`` in phase-attribution mode, which
    only ``inplace`` accepts.  A summary row holds the median of
    ``seconds`` and of each of these fields.
    """

    algo: str
    n: int
    dist: str
    seed: int
    rep: int | str
    seconds: float
    comparisons: int | None = None
    moves: int | None = None
    max_depth: int | None = None
    verified: bool = False
    corank_seconds: float | None = None
    rotation_seconds: float | None = None


CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))
_REQUIRED_COLUMNS = tuple(f.name for f in fields(BenchRecord) if f.default is MISSING)
# how a report cell reads back, by column; algo and dist stay text
_CSV_PARSE: dict[str, Callable[[str], Any]] = {
    **dict.fromkeys(("n", "seed", "comparisons", "moves", "max_depth"), int),
    **dict.fromkeys(("seconds", "corank_seconds", "rotation_seconds"), float),
    "rep": lambda text: text if text == "median" else int(text),
    "verified": lambda text: text == "true",
}
_MEDIAN_FIELDS = (
    "seconds",
    *(f.name for f in fields(BenchRecord) if f.default is None),
)


@dataclass(frozen=True)
class FitResult:
    """Least-squares constant for y = c * x with x derived from the model."""

    c: float
    residual: float
    model: str


class VerificationError(Exception):
    """A sort produced an incorrect result; carries the diagnostic record."""

    def __init__(self, record: BenchRecord):
        super().__init__(
            f"verification failed: {record.algo} n={record.n} dist={record.dist} "
            f"seed={record.seed} rep={record.rep}"
        )
        self.record = record


def run_benchmark(config: BenchConfig) -> list[BenchRecord]:
    """Run every rep of one benchmark cell and append a median summary row.

    Each rep regenerates its input from ``seed ^ rep`` (or the base seed when
    ``fixed_seed`` is set), sorts, verifies, and records counters and wall
    time.  Raises :class:`VerificationError` on an incorrect result and lets
    MemoryError (buffered scratch allocation) propagate.
    """
    records = []
    for rep in range(config.reps):
        rep_seed = config.seed if config.fixed_seed else config.seed ^ rep
        record = _run_once(config, rep, rep_seed)
        if not record.verified:
            raise VerificationError(record)
        records.append(record)
    records.append(_median_summary(records))
    return records


def _run_once(config: BenchConfig, rep: int, rep_seed: int) -> BenchRecord:
    values = generate(config.n, config.dist, rep_seed)
    original: Sequence[Any]
    if config.tagged:
        original = tag(values)
        compare = key_comparator()
    else:
        original = values
        compare = default_compare

    arr: list[Any] = (
        MoveCountingList(original) if config.count_mode else list(original)
    )
    stats = SortStats() if config.count_mode else None
    phases = PhaseTimes() if config.attribute_phases else None

    t0 = time.perf_counter()
    if config.algorithm == "system":
        # timing reference: the native sort runs at full speed unless counting
        key = None if stats is None else cmp_to_key(counting_comparator(compare, stats))
        arr.sort(key=key)
    else:
        strategy = MergeStrategy(config.algorithm)
        mergesort(arr, compare, strategy, stats=stats, phases=phases)
    seconds = time.perf_counter() - t0

    if config.tagged:
        verified = verify_stable_permutation(original, arr)
    else:
        verified = verify_sorted(arr, compare) and Counter(arr) == Counter(original)

    return BenchRecord(
        algo=config.algorithm,
        n=config.n,
        dist=config.dist.label(),
        seed=rep_seed,
        rep=rep,
        seconds=seconds,
        comparisons=stats.comparisons if stats is not None else None,
        moves=(
            stats.moves
            if stats is not None and config.algorithm != "system"
            else None
        ),
        max_depth=(
            stats.max_merge_depth
            if stats is not None and config.algorithm == "inplace"
            else None
        ),
        verified=verified,
        corank_seconds=phases.corank_seconds if phases is not None else None,
        rotation_seconds=phases.rotation_seconds if phases is not None else None,
    )


def _median_summary(records: list[BenchRecord]) -> BenchRecord:
    # a field is summarized only when every rep measured it; run_benchmark
    # passes only verified records
    medians = {}
    for name in _MEDIAN_FIELDS:
        values = [getattr(r, name) for r in records]
        medians[name] = None if None in values else median_low(values)
    return replace(records[0], rep="median", **medians)


def geometric_sizes(n_min: int, n_max: int, steps: int) -> list[int]:
    """Geometric ladder of ``steps`` sizes from ``n_min`` to ``n_max``,
    rounded to integers and deduplicated."""
    if n_min < 1 or n_max < n_min or steps < 1 or (steps == 1 and n_min < n_max):
        raise ValueError("need 1 <= n_min <= n_max, and steps >= 2 when n_min < n_max")
    if n_min == n_max:
        return [n_min]
    ratio = (n_max / n_min) ** (1.0 / (steps - 1))
    sizes = {n_min, n_max}
    for t in range(1, steps - 1):
        sizes.add(min(n_max, max(n_min, round(n_min * ratio**t))))
    return sorted(sizes)


def fit_constant(points: Sequence[tuple[int, float]], model: str) -> FitResult:
    """Least-squares fit of y = c * x over (n, y) points.

    x is ``n * log2(n)`` for model "nlogn" and ``n * log2(n)**2`` for
    "nlog2n"; c = sum(y*x) / sum(x*x) and the residual is the RMS of the
    relative errors (y - c*x) / y.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if len(points) < 2:
        raise ValueError("need at least 2 points to fit")
    xs = []
    ys = []
    for n, y in points:
        if n < 2:
            raise ValueError("all n must be >= 2")
        if y <= 0:
            raise ValueError("all y values must be positive")
        lg = math.log2(n)
        xs.append(n * lg if model == "nlogn" else n * lg * lg)
        ys.append(y)
    c = sum(y * x for x, y in zip(xs, ys)) / sum(x * x for x in xs)
    residual = math.sqrt(
        sum(((y - c * x) / y) ** 2 for x, y in zip(xs, ys)) / len(xs)
    )
    return FitResult(c=c, residual=residual, model=model)


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit_report(records: Sequence[BenchRecord], output_format: str) -> str:
    """Serialize records as CSV (fixed column order) or a JSON array.

    All numbers are rendered in locale-independent form; a field that was
    not measured is an empty CSV cell or JSON ``null``.
    """
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_cell(getattr(r, column)) for column in CSV_COLUMNS])
        return buf.getvalue()
    if output_format == "json":
        return json.dumps([asdict(r) for r in records], indent=2) + "\n"
    raise ValueError(f"unknown format {output_format!r}")


def parse_report(text: str) -> list[BenchRecord]:
    """Parse a report produced by :func:`emit_report` back into records:
    JSON when its first non-blank character is ``[``, else CSV.  Each JSON
    value reads back as its CSV cell.  An unknown column, a required one
    without a value, or a value that does not parse raises ValueError."""
    if not text.lstrip().startswith("["):
        return [_record(row) for row in csv.DictReader(io.StringIO(text))]
    objs = json.loads(text)
    if not all(isinstance(obj, dict) for obj in objs):
        raise ValueError("a JSON report is an array of objects")
    return [_record({key: _cell(value) for key, value in obj.items()}) for obj in objs]


def _record(row: dict[str, str | None]) -> BenchRecord:
    values = {}
    for column, cell in row.items():
        if column not in CSV_COLUMNS:
            raise ValueError(f"unknown column {column!r} in report")
        if cell:
            try:
                values[column] = _CSV_PARSE.get(column, str)(cell)
            except ValueError:
                raise ValueError(f"{column!r} value {cell!r} in report") from None
    for column in _REQUIRED_COLUMNS:
        if column not in values:
            raise ValueError(f"no {column!r} value in a report row")
    return BenchRecord(**values)
