#!/usr/bin/env python3
"""Benchmark for the sortbench library: sort time, extra space and select latency.

Drives the library from outside, through its public functions only, on three
closed-loop, single-process, single-thread workloads (see README.md here):

    python3 perfbench/run.py --workload random --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is a separate run
that records spans and reports the per-layer split.  Every timed operation's
output is checked outside its timed interval.  Standard output carries a
human-readable report, then the full record as one JSON line, and last one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the metrics that BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import platform
import random
import statistics
import sys
import timeit
import traceback
import tracemalloc
from collections import deque
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

SCHEMA_VERSION = 1
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("random", "reversed", "select")
# sort workloads: datagen distribution and elements per sort
SORTS = {"random": ("uniform", 1 << 15), "reversed": ("reversed", 1 << 17)}
SELECT_RUN = 1 << 20  # elements in each of the two sorted runs of `select`
STRATEGIES = ("inplace", "buffered")
LAYERS = ("sorting", "merge", "coranking", "rotation", "comparator", "datagen", "instrumentation")

SETUP_REPS = 5  # setup_s is the median of at least this many imports plus generations
SETUP_MIN_S = 1.0  # ... repeated for at least this many seconds
COUNT_QUERIES = 4000  # select queries in the counting and tracemalloc passes
BLOCK = 256  # select queries between two blocks of as many reference searches
SPAN_LIMIT = 100_000  # a traced run keeps this many spans and counts the rest
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# layer ladder: size of each of the two runs co-ranked, and half-block k of
# rotate_left(seq, k, 0, 2k)
CORANK_RUNS = {"r16": 16, "r1k": 1 << 10, "r64k": 1 << 16}
ROTATION_HALVES = {"b2": 1, "b8": 4, "b64": 32, "b1k": 512, "b64k": 1 << 15}
LADDER_BATCH_S = 0.02  # a ladder batch lasts at least this long; 5 batches per rung
MERGE_SAMPLE = 1 << 15  # elements taken from each select run for the merge ladder


def input_seed(seed: int, index: int) -> int:
    """Seed of the workload's input number ``index``."""
    return seed * 1_000_003 + index


def load_library() -> SimpleNamespace:
    """Import sortbench afresh from this checkout's src/; return its layers by name."""
    for name in [m for m in sys.modules if m == "sortbench" or m.startswith("sortbench.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"sortbench.{name}") for name in LAYERS}
    )


def setup(workload: str, seed: int) -> tuple[SimpleNamespace, object, float, float]:
    """Import sortbench and generate the workload's first input.

    Returns the library, the input (a list to sort, or the two sorted runs of
    ``select``), the seconds spent importing plus generating, and the seconds
    spent generating alone.
    """
    t0 = perf_counter()
    lib = load_library()
    t1 = perf_counter()
    generate = lib.datagen.generate
    if workload == "select":
        runs = lib.datagen.Distribution("sorted")
        data = (
            generate(SELECT_RUN, runs, input_seed(seed, 0)),
            generate(SELECT_RUN, runs, input_seed(seed, 1)),
        )
    else:
        dist, n = SORTS[workload]
        data = generate(n, lib.datagen.Distribution(dist), input_seed(seed, 0))
    t2 = perf_counter()
    return lib, data, t2 - t0, t2 - t1


def reference_compare(a, b) -> int:
    return (a > b) - (a < b)


def reference_sort(seq: list) -> None:
    """The benchmark's own yardstick: a textbook mergesort without a buffer.

    Each merge finds by binary search the k elements at the left run's tail
    that belong after the right run's first k, swaps those two blocks, and
    merges the two halves this leaves: the smaller by recursion, the larger
    in a loop, so the stack stays O(log n) deep.  Library-independent, so a
    change to sortbench never moves it, but shaped like the sort it measures.
    """

    def merge(lo: int, mid: int, hi: int) -> None:
        while lo < mid < hi:
            low, high = 0, min(mid - lo, hi - mid)
            while low < high:
                k = (low + high) >> 1
                if reference_compare(seq[mid + k], seq[mid - 1 - k]) < 0:
                    low = k + 1
                else:
                    high = k
            if low == 0:
                return
            for t in range(mid - low, mid):
                seq[t], seq[t + low] = seq[t + low], seq[t]
            # recurse into the smaller half, loop on the larger
            if mid - lo <= hi - mid:
                merge(lo, mid - low, mid)
                lo, mid = mid, mid + low
            else:
                merge(mid, mid + low, hi)
                mid, hi = mid - low, mid

    def sort(lo: int, hi: int) -> None:
        if hi - lo > 1:
            mid = (lo + hi) >> 1
            sort(lo, mid)
            sort(mid, hi)
            merge(lo, mid, hi)

    sort(0, len(seq))


def reference_search(run: list, x) -> int:
    """The yardstick for a query: index of the first element of the sorted
    ``run`` not below ``x``, by binary search through reference_compare."""
    lo, hi = 0, len(run)
    while lo < hi:
        mid = (lo + hi) >> 1
        if reference_compare(run[mid], x) < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


def reference_sort_seconds(data: list) -> float:
    out = list(data)
    t0 = perf_counter()
    reference_sort(out)
    return perf_counter() - t0


def reference_block_seconds(block: list, merged: list) -> float:
    """Seconds of reference searches for the elements a block of queries asks for."""
    spent = 0.0
    for rank, first, _ in block:
        x = merged[rank]
        t0 = perf_counter()
        reference_search(first, x)
        spent += perf_counter() - t0
    return spent


class Tally:
    """Operations attempted and failed, with the first failure's explanation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def fail(self, why: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = why

    def check(self, ok: bool, why: str) -> None:
        """Count one operation whose output was checked; ``why`` explains a failure."""
        self.attempted += 1
        if not ok:
            self.fail(why)


def sort_inputs(lib, workload: str, seed: int, first: list, deadline: float):
    """Yield (index, input, expected output) until ``deadline``; at least one."""
    dist, n = SORTS[workload]
    kind = lib.datagen.Distribution(dist)
    data, i = first, 0
    while True:
        yield i, data, sorted(data)
        i += 1
        if perf_counter() >= deadline:
            return
        data = lib.datagen.generate(n, kind, input_seed(seed, i))


def sort_pass(lib, workload: str, seed: int, seconds: float, first: list, tally: Tally):
    """Closed loop of untraced sorts: the reference sorts every input, then
    both strategies do, and one more reference sort closes the loop.

    Returns, by strategy, (seconds, seconds / reference seconds) of each
    correct sort, where the reference seconds are the mean of the reference
    sorts just before and just after it; and the reference seconds.  A sort
    that raises or whose output differs from ``sorted(input)`` counts as
    failed and its time is dropped.
    """
    mergesort = lib.sorting.mergesort
    strategy = {name: lib.sorting.MergeStrategy(name) for name in STRATEGIES}
    timed: dict[str, list[tuple[float, int]]] = {name: [] for name in STRATEGIES}
    refs: list[float] = []
    for i, data, expected in sort_inputs(lib, workload, seed, first, perf_counter() + seconds):
        refs.append(reference_sort_seconds(data))
        for name in STRATEGIES if i % 2 == 0 else STRATEGIES[::-1]:
            out = list(data)
            tally.attempted += 1
            try:
                t0 = perf_counter()
                mergesort(out, strategy=strategy[name])
                elapsed = perf_counter() - t0
            except Exception:
                tally.fail(traceback.format_exc())
                continue
            if out == expected:
                timed[name].append((elapsed, i))
            else:
                tally.fail(f"{name} sort of input {i} is not sorted(input)")
    refs.append(reference_sort_seconds(data))
    times = {
        name: [(t, 2 * t / (refs[i] + refs[i + 1])) for t, i in samples]
        for name, samples in timed.items()
    }
    return times, refs


def queries(seed: int, runs: tuple[list, list]):
    """The select workload's endless, seeded stream of (rank, first, second).

    Ranks are uniformly random.  The two runs swap places on every other query:
    co-ranking costs one comparison per halving step in one direction and two
    in the other, so with a fixed order the runs' chance offset (which run
    holds more of the smallest i elements) would bias the cost per query by a
    tenth from seed to seed.
    """
    rng = random.Random(input_seed(seed, 2))
    total = len(runs[0]) + len(runs[1])
    swapped = runs[::-1]
    while True:
        yield rng.randrange(total), *runs
        yield rng.randrange(total), *swapped


def select_pass(lib, runs, merged: list, seed: int, seconds: float, tally: Tally):
    """Closed loop of untraced ``select_merged`` queries in blocks of BLOCK,
    with a block of reference searches before each block and after the last.

    Returns the seconds of each correct query; for each block without a
    failure, its seconds over the mean of the reference blocks around it; and
    the seconds of each reference search.
    """
    select = lib.coranking.select_merged
    times: list[float] = []
    ratios: list[float] = []
    stream = queries(seed, runs)
    block = [next(stream) for _ in range(BLOCK)]
    ref_before = reference_block_seconds(block, merged)
    refs = [ref_before]
    deadline = perf_counter() + seconds
    while True:
        spent, complete = 0.0, True
        for rank, first, second in block:
            tally.attempted += 1
            try:
                t0 = perf_counter()
                got = select(rank, first, second)
                elapsed = perf_counter() - t0
            except Exception:
                tally.fail(traceback.format_exc())
                complete = False
                continue
            if got == merged[rank]:
                times.append(elapsed)
                spent += elapsed
            else:
                tally.fail(f"select_merged({rank}) returned {got!r}, not {merged[rank]!r}")
                complete = False
        block = [next(stream) for _ in range(BLOCK)]
        ref_after = reference_block_seconds(block, merged)
        refs.append(ref_after)
        if complete:
            ratios.append(2 * spent / (ref_before + ref_after))
        ref_before = ref_after
        if perf_counter() >= deadline:
            return times, ratios, [ref / BLOCK for ref in refs]


def count_sorts(lib, data: list, tally: Tally) -> dict[str, dict[str, int]]:
    """Counting pass: comparisons, element writes and peak merge depth of one
    sort of ``data`` per strategy.  Deterministic for a given input."""
    expected = sorted(data)
    counts = {}
    for name in STRATEGIES:
        seq = lib.instrumentation.MoveCountingList(data)
        stats = lib.instrumentation.SortStats()
        lib.sorting.mergesort(seq, strategy=lib.sorting.MergeStrategy(name), stats=stats)
        tally.check(list(seq) == expected, f"counted {name} sort is not sorted(input)")
        counts[name] = {
            "comparisons": stats.comparisons,
            "moves": stats.moves,
            "peak_depth": stats.max_merge_depth,
        }
    return counts


def count_queries(lib, runs, merged: list, seed: int, tally: Tally) -> int:
    """Counting pass: comparator calls of the first COUNT_QUERIES queries."""
    stats = lib.instrumentation.SortStats()
    compare = lib.instrumentation.counting_comparator(lib.comparator.default_compare, stats)
    stream = queries(seed, runs)
    for _ in range(COUNT_QUERIES):
        rank, first, second = next(stream)
        got = lib.coranking.select_merged(rank, first, second, compare)
        tally.check(got == merged[rank], f"counted select_merged({rank}) is wrong")
    return stats.comparisons


def peak_bytes(fn, *args) -> int:
    """Peak bytes traced while ``fn(*args)`` runs, above those live before it."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    fn(*args)
    return tracemalloc.get_traced_memory()[1] - base


def space_pass(lib, workload: str, data, seed: int, tally: Tally) -> dict:
    """tracemalloc pass: peak extra bytes of one sort per strategy, or the
    largest peak over COUNT_QUERIES select queries."""
    tracemalloc.start()
    try:
        if workload == "select":
            stream = queries(seed, data)
            peak = 0
            for _ in range(COUNT_QUERIES):
                query = next(stream)
                peak = max(peak, peak_bytes(lib.coranking.select_merged, *query))
            # the answers were checked in the counting pass, on the same queries
            return {"select": peak}
        peaks = {}
        expected = sorted(data)
        for name in STRATEGIES:
            out = list(data)
            strategy = lib.sorting.MergeStrategy(name)
            peaks[name] = peak_bytes(
                lib.sorting.mergesort, out, lib.comparator.default_compare, strategy
            )
            tally.check(out == expected, f"{name} sort under tracemalloc is not sorted(input)")
        return peaks
    finally:
        tracemalloc.stop()


class Tracer:
    """Spans [id, name, start, end, parent id] kept in memory and written out
    at the end.  A span's parent is the span that caused it (-1 for none).
    Past SPAN_LIMIT spans are still timed the same way but only counted."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.dropped = 0

    def begin(self, name: str, parent: list | None = None) -> list:
        span = [len(self.spans), name, perf_counter(), 0.0, -1 if parent is None else parent[0]]
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def end(self, span: list) -> float:
        """Close ``span``; return its duration."""
        span[3] = perf_counter()
        return span[3] - span[2]

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def traced_sort_pass(lib, workload, seed, seconds, first, tracer: Tracer, tally: Tally):
    """Closed loop of in-place sorts, each input sorted once untraced and once
    traced (a span plus ``phases=PhaseTimes()``), in alternating order.

    Returns the untraced seconds and (traced seconds, co-ranking seconds,
    rotation seconds) of each correct sort.
    """
    mergesort = lib.sorting.mergesort
    untraced: list[float] = []
    traced: list[tuple[float, float, float]] = []
    for i, data, expected in sort_inputs(lib, workload, seed, first, perf_counter() + seconds):
        op = tracer.begin(f"{workload}.input")
        for with_trace in (i % 2 == 0, i % 2 == 1):
            out = list(data)
            tally.attempted += 1
            try:
                if with_trace:
                    phases = lib.merge.PhaseTimes()
                    span = tracer.begin("sorting.mergesort", op)
                    mergesort(out, phases=phases)
                    sample = (tracer.end(span), phases.corank_seconds, phases.rotation_seconds)
                else:
                    t0 = perf_counter()
                    mergesort(out)
                    sample = perf_counter() - t0
            except Exception:
                tally.fail(traceback.format_exc())
                continue
            if out != expected:
                tally.fail(f"traced-run sort of input {i} is not sorted(input)")
            elif with_trace:
                traced.append(sample)
            else:
                untraced.append(sample)
        tracer.end(op)
    return untraced, traced


def traced_select_pass(lib, runs, merged, seed, seconds, tracer: Tracer, tally: Tally):
    """Closed loop of queries, each rank answered once untraced and once inside
    a span, in alternating order.  Returns (untraced, traced) seconds."""
    select = lib.coranking.select_merged
    untraced: list[float] = []
    traced: list[float] = []
    deadline = perf_counter() + seconds
    for i, (rank, first, second) in enumerate(queries(seed, runs)):
        if perf_counter() >= deadline:
            return untraced, traced
        for with_trace in (i % 4 < 2, i % 4 >= 2):
            tally.attempted += 1
            try:
                if with_trace:
                    span = tracer.begin("coranking.select_merged")
                    got = select(rank, first, second)
                    elapsed = tracer.end(span)
                else:
                    t0 = perf_counter()
                    got = select(rank, first, second)
                    elapsed = perf_counter() - t0
            except Exception:
                tally.fail(traceback.format_exc())
                continue
            if got != merged[rank]:
                tally.fail(f"traced-run select_merged({rank}) is wrong")
            else:
                (traced if with_trace else untraced).append(elapsed)


def per_call(fn, *args) -> float:
    """Median seconds per ``fn(*args)`` over 5 batches of at least LADDER_BATCH_S."""
    timer = timeit.Timer(functools.partial(fn, *args))
    number = 1
    while timer.timeit(number) < LADDER_BATCH_S:
        number *= 2
    return statistics.median(timer.repeat(5, number)) / number


def layer_ladder(lib, workload: str, data, seed: int, tracer: Tracer, tally: Tally) -> dict:
    """Per-layer timings of the public functions on their own, one span per
    rung, each rung's output checked after it is timed.

    The co-ranking and rotation rungs are data-independent; the comparator,
    merge and verifier rungs use the workload's own data.
    """
    ladder: dict[str, dict] = {}

    def rung(name: str, fn, *args) -> float:
        span = tracer.begin(f"ladder.{name}")
        seconds = per_call(fn, *args)
        tracer.end(span)
        return seconds

    runs = lib.datagen.Distribution("sorted")
    for label, size in CORANK_RUNS.items():
        a = lib.datagen.generate(size, runs, input_seed(seed, 3))
        b = lib.datagen.generate(size, runs, input_seed(seed, 4))
        seconds = rung(f"coranking.co_rank.{label}", lib.coranking.co_rank, size, a, b)
        ladder[f"coranking.us_per_call.{label}"] = value(1e6 * seconds, "us")
        j, k = lib.coranking.co_rank(size, a, b)
        below = sorted(a + b)[:size]
        tally.check(sorted(a[:j] + b[:k]) == below, f"co_rank({size}) split is wrong")
    for label, k in ROTATION_HALVES.items():
        seq = list(range(2 * k))
        seconds = rung(f"rotation.rotate_left.{label}", lib.rotation.rotate_left, seq, k, 0, 2 * k)
        ladder[f"rotation.ns_per_elem.{label}"] = value(1e9 * seconds / (2 * k), "ns")
        # rotating by half the block is its own inverse: either state is right
        states = (list(range(2 * k)), list(range(k, 2 * k)) + list(range(k)))
        tally.check(seq in states, f"rotate_left by {k} of {2 * k} is wrong")

    if workload == "select":
        left, right = data[0][:MERGE_SAMPLE], data[1][:MERGE_SAMPLE]
        xs, ys, output = data[0][:4096], data[1][:4096], data[0]
    else:
        half = len(data) // 2
        left, right = sorted(data[:half]), sorted(data[half:])
        xs, ys, output = data[:4096], data[1:4097], sorted(data)
    consume = deque(maxlen=0).extend
    compare = lib.comparator.default_compare
    seconds = rung("comparator.default_compare", lambda: consume(map(compare, xs, ys)))
    ladder["comparator.ns_per_call"] = value(1e9 * seconds / len(xs), "ns")
    signs = [(x > y) - (x < y) for x, y in zip(xs, ys)]
    tally.check(list(map(compare, xs, ys)) == signs, "default_compare is wrong")

    halves = left + right
    for name in ("merge_inplace", "merge_buffered"):
        merge = getattr(lib.merge, name)
        span = tracer.begin(f"ladder.merge.{name}")
        times = []
        for _ in range(3):
            seq = list(halves)
            t0 = perf_counter()
            merge(seq, len(left), len(right))
            times.append(perf_counter() - t0)
            tally.check(seq == sorted(halves), f"{name} of the presorted halves is wrong")
        tracer.end(span)
        ladder[f"{name}.ns_per_elem"] = value(1e9 * statistics.median(times) / len(halves), "ns")

    seconds = rung("instrumentation.verify_sorted", lib.instrumentation.verify_sorted, output)
    ladder["instrumentation.verify_s"] = value(seconds, "s")
    tally.check(lib.instrumentation.verify_sorted(output), "verify_sorted rejects sorted data")
    return ladder


def machine_probe() -> float:
    """Median seconds of a fixed, library-independent sort through cmp_to_key.

    A record field beside each run, not a metric: it makes a slow host visible.
    """
    rng = random.Random(0)
    data = [rng.random() for _ in range(1 << 14)]
    key = functools.cmp_to_key(lambda a, b: (a > b) - (a < b))
    times = []
    for _ in range(5):
        t0 = perf_counter()
        sorted(data, key=key)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def git_revision() -> str | None:
    """The checkout's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values: list[float], p: float) -> float | None:
    """Nearest-rank ``p``th percentile, or None unless 10 samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(p / 100 * len(ordered))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def value(x: float, unit: str, **fields) -> dict:
    return {"value": x, "unit": unit, **fields}


def timing(values: list[float], unit: str, scale: float = 1.0) -> dict | None:
    """Median of ``values`` with its sample count, minimum and tail, or None
    without samples.  The tail is the highest of PERCENTILES with at least 10
    samples beyond it."""
    if not values:
        return None
    metric = value(
        scale * statistics.median(values), unit, samples=len(values), min=scale * min(values)
    )
    for p in reversed(PERCENTILES):
        high = percentile(values, p)
        if high is not None:
            metric["tail"] = {"percentile": p, "value": scale * high}
            break
    return metric


def end_to_end(lib, workload: str, data, merged, seed: int, seconds: float, tally: Tally):
    """Untraced pass, then the counting pass, then the tracemalloc pass."""
    if workload == "select":
        times, ratios, refs = select_pass(lib, data, merged, seed, seconds, tally)
        p99 = percentile(times, 99)
        calls = count_queries(lib, data, merged, seed, tally)
        space = space_pass(lib, workload, data, seed, tally)
        return {
            "select.query_us": timing(times, "us", 1e6),
            "select.query_us.p99": None if p99 is None else value(
                1e6 * p99, "us", samples=len(times)
            ),
            "select.query_rel": timing(ratios, "ratio"),
            "reference.search_us": timing(refs, "us", 1e6),
            "select.cmp_per_query": value(calls / COUNT_QUERIES, "count", samples=COUNT_QUERIES),
            "select.extra_bytes_per_query": value(space["select"], "B", samples=COUNT_QUERIES),
        }
    n = len(data)
    times, refs = sort_pass(lib, workload, seed, seconds, data, tally)
    counts = count_sorts(lib, data, tally)
    space = space_pass(lib, workload, data, seed, tally)
    metrics = {}
    for name in STRATEGIES:
        metrics[f"{name}.sort_s"] = timing([t for t, _ in times[name]], "s")
        metrics[f"{name}.sort_rel"] = timing([r for _, r in times[name]], "ratio")
        metrics[f"{name}.cmp_per_elem"] = value(counts[name]["comparisons"] / n, "count", samples=1)
        metrics[f"{name}.moves_per_elem"] = value(counts[name]["moves"] / n, "count", samples=1)
        metrics[f"{name}.extra_bytes_per_elem"] = value(space[name] / n, "B", samples=1)
    metrics["reference.sort_s"] = timing(refs, "s")
    return metrics


def per_layer(lib, workload: str, data, merged, seed: int, seconds: float, tally: Tally,
              tracer: Tracer):
    """Traced pass: the layer ladder, then the workload's operations traced and
    untraced in turn, then the counting pass for the per-comparison figures."""
    metrics = layer_ladder(lib, workload, data, seed, tracer, tally)
    if workload == "select":
        untraced, traced = traced_select_pass(lib, data, merged, seed, seconds, tracer, tally)
        calls = count_queries(lib, data, merged, seed, tally) / COUNT_QUERIES
        if traced:
            corank_s = statistics.median(traced)  # a query is all co-ranking
            metrics["coranking.s"] = value(corank_s, "s", samples=len(traced))
            metrics["coranking.ns_per_cmp"] = value(1e9 * corank_s / calls, "ns")
    else:
        untraced, samples = traced_sort_pass(lib, workload, seed, seconds, data, tracer, tally)
        traced = [sample[0] for sample in samples]
        counts = count_sorts(lib, data, tally)["inplace"]
        metrics["merge.peak_depth"] = value(counts["peak_depth"], "count")
        if samples:
            # the split of the median traced sort, so that its parts add up exactly
            sort_s, corank_s, rotation_s = sorted(samples)[(len(samples) - 1) // 2]
            metrics["traced.sort_s"] = value(sort_s, "s", samples=len(samples))
            metrics["coranking.s"] = value(corank_s, "s")
            metrics["coranking.ns_per_cmp"] = value(1e9 * corank_s / counts["comparisons"], "ns")
            metrics["rotation.s"] = value(rotation_s, "s")
            metrics["rotation.ns_per_move"] = value(1e9 * rotation_s / counts["moves"], "ns")
            metrics["merge.self_s"] = value(sort_s - corank_s - rotation_s, "s")
    if traced and untraced:
        overhead = statistics.median(traced) / statistics.median(untraced)
        metrics["trace_overhead"] = value(overhead, "ratio")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tracer]:
    """Run one workload; return its record and the spans it traced."""
    setups, generates = [], []
    start = perf_counter()
    while len(setups) < SETUP_REPS or perf_counter() - start < SETUP_MIN_S:
        lib = data = None  # let the previous repetition's inputs go first
        lib, data, setup_s, generate_s = setup(workload, seed)
        setups.append(setup_s)
        generates.append(generate_s)
    # the stable merge of two sorted runs is their sorted concatenation
    merged = sorted(data[0] + data[1]) if workload == "select" else None
    tally = Tally()
    tracer = Tracer()
    probe_before = machine_probe()
    if trace:
        metrics = per_layer(lib, workload, data, merged, seed, seconds, tally, tracer)
        metrics["datagen.generate_s"] = timing(generates, "s")
    else:
        metrics = end_to_end(lib, workload, data, merged, seed, seconds, tally)
        metrics["setup_s"] = timing(setups, "s")
    metrics["failed_ratio"] = value(
        tally.failed / max(tally.attempted, 1), "ratio", attempted=tally.attempted
    )
    record = {
        "schema": SCHEMA_VERSION,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": {
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "git_revision": git_revision(),
        },
        "probe_s": {"before": probe_before, "after": machine_probe()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "first_failure": tally.first_failure,
        "spans": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "metrics": {name: m for name, m in metrics.items() if m is not None},
    }
    return record, tracer


# BENCHMARK.json gates only metrics that every workload reports, so the
# end-to-end metrics it names are those of the no-scratch path under names
# that fit both a sort and a query: the record field each is on the sort
# workloads and on select.
HEADLINE = {
    "op_time_rel": ("inplace.sort_rel", "select.query_rel"),
    "cmp_per_elem": ("inplace.cmp_per_elem", "select.cmp_per_query"),
    "extra_bytes_per_elem": ("inplace.extra_bytes_per_elem", "select.extra_bytes_per_query"),
    "setup_s": ("setup_s", "setup_s"),
}
# per-layer metrics that every workload reports
LAYER_HEADLINE = (
    "coranking.s",
    "coranking.ns_per_cmp",
    *(f"coranking.us_per_call.{label}" for label in CORANK_RUNS),
    *(f"rotation.ns_per_elem.{label}" for label in ROTATION_HALVES),
    "merge_inplace.ns_per_elem",
    "merge_buffered.ns_per_elem",
    "comparator.ns_per_call",
    "instrumentation.verify_s",
    "datagen.generate_s",
    "trace_overhead",
)


def headline(record: dict) -> dict:
    """The metrics BENCHMARK.json names, as {name: {"value", "unit"}}."""
    metrics = record["metrics"]
    if record["trace"]:
        sources = {name: name for name in LAYER_HEADLINE}
    else:
        select = record["workload"] == "select"
        sources = {name: fields[select] for name, fields in HEADLINE.items()}
    return {
        name: {"value": metrics[source]["value"], "unit": metrics[source]["unit"]}
        for name, source in sources.items()
        if source in metrics
    }


def report(record: dict) -> str:
    """One line per metric: name, value, unit and how it was sampled."""
    lines = [
        f"sortbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"attempted={record['attempted']} failed={record['failed']}"
    ]
    for name, m in record["metrics"].items():
        keys = ("samples", "attempted", "min")
        extra = "".join(f" {key}={m[key]:.6g}" for key in keys if key in m)
        if "tail" in m:
            extra += f" p{m['tail']['percentile']}={m['tail']['value']:.6g}"
        lines.append(f"  {name:34s} {m['value']:>14.6g} {m['unit']}{extra}")
    return "\n".join(lines)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "sortbench" / "__init__.py").is_file():
        print(f"perfbench: no sortbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    metrics = headline(record)
    complete = len(metrics) == len(LAYER_HEADLINE if args.trace else HEADLINE)
    print(report(record))
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0 and complete,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
