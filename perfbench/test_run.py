"""Tests of the benchmark itself, at tiny sizes:

    python3 -m pytest -q perfbench/test_run.py
"""

import json
import random
import sys
from bisect import bisect_left
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

sys.path.insert(0, str(bench.SRC))

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

SORT_METRICS = {
    f"{strategy}.{metric}": unit
    for strategy in bench.STRATEGIES
    for metric, unit in (
        ("sort_s", "s"),
        ("sort_rel", "ratio"),
        ("cmp_per_elem", "count"),
        ("moves_per_elem", "count"),
        ("extra_bytes_per_elem", "B"),
    )
}
SORT_METRICS["reference.sort_s"] = "s"
SELECT_METRICS = {
    "select.query_us": "us",
    "select.query_us.p99": "us",
    "select.query_rel": "ratio",
    "reference.search_us": "us",
    "select.cmp_per_query": "count",
    "select.extra_bytes_per_query": "B",
}
SHARED_METRICS = {"setup_s": "s", "failed_ratio": "ratio"}
LAYER_METRICS = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
SORT_LAYER_METRICS = {
    "traced.sort_s": "s",
    "rotation.s": "s",
    "rotation.ns_per_move": "ns",
    "merge.self_s": "s",
    "merge.peak_depth": "count",
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and ladder rung so a run takes about a second."""
    monkeypatch.setattr(bench, "SORTS", {"random": ("uniform", 64), "reversed": ("reversed", 64)})
    monkeypatch.setattr(bench, "SELECT_RUN", 600)
    monkeypatch.setattr(bench, "MERGE_SAMPLE", 32)
    monkeypatch.setattr(bench, "SETUP_REPS", 2)
    monkeypatch.setattr(bench, "COUNT_QUERIES", 20)
    monkeypatch.setattr(bench, "BLOCK", 4)
    monkeypatch.setattr(bench, "LADDER_BATCH_S", 0.001)
    monkeypatch.setattr(bench, "CORANK_RUNS", dict.fromkeys(bench.CORANK_RUNS, 16))
    monkeypatch.setattr(bench, "ROTATION_HALVES", dict.fromkeys(bench.ROTATION_HALVES, 4))
    monkeypatch.setattr(bench, "RESULTS", tmp_path)


def run_main(capsys, *argv):
    assert bench.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_emits_every_metric_with_units(tiny, capsys, workload):
    expected = {**SHARED_METRICS, **(SELECT_METRICS if workload == "select" else SORT_METRICS)}
    record, result = run_main(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.3")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in record["metrics"].items()} == expected
    assert record["metrics"]["failed_ratio"]["value"] == 0
    gated = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == gated
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("schema", "env", "seed", "probe_s"):
        assert record[key]
    assert set(record["env"]) == {"python", "platform", "nproc", "git_revision"}

    record, result = run_main(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", "1"
    )
    expected = {**LAYER_METRICS, "failed_ratio": "ratio"}
    if workload != "select":
        expected.update(SORT_LAYER_METRICS)
    assert {name: m["unit"] for name, m in record["metrics"].items()} == expected
    assert {name: m["unit"] for name, m in result["metrics"].items()} == LAYER_METRICS
    assert result["correct"] and record["spans"] > 0
    assert (bench.RESULTS / f"{workload}-seed3-trace1.spans.jsonl").is_file()
    if workload != "select":
        m = record["metrics"]
        parts = m["coranking.s"]["value"] + m["rotation.s"]["value"] + m["merge.self_s"]["value"]
        assert parts == pytest.approx(m["traced.sort_s"]["value"], rel=1e-9)


def test_same_seed_gives_identical_counts(tiny):
    counts = []
    for _ in range(2):
        lib, data, _, _ = bench.setup("random", 5)
        counts.append(bench.count_sorts(lib, data, bench.Tally()))
    assert counts[0] == counts[1]
    assert all(isinstance(v, int) for c in counts[0].values() for v in c.values())


def library_with_mergesort(wrap):
    """The library with sorting.mergesort replaced by ``wrap(the real one)``."""
    lib, data, _, _ = bench.setup("random", 1)
    sorting = SimpleNamespace(
        mergesort=wrap(lib.sorting.mergesort), MergeStrategy=lib.sorting.MergeStrategy
    )
    return SimpleNamespace(**{**vars(lib), "sorting": sorting}), data


def test_wrong_sort_counts_as_failed_never_timed(tiny):
    lib, data = library_with_mergesort(lambda real: lambda seq, *args, **kwargs: seq.reverse())
    tally = bench.Tally()
    times, refs = bench.sort_pass(lib, "random", 1, 0.05, data, tally)
    assert times == {"inplace": [], "buffered": []}
    assert tally.failed == tally.attempted >= 2
    assert len(refs) == tally.attempted // 2 + 1


def test_raising_sort_counts_as_failed(tiny):
    def broken(seq, *args, **kwargs):
        raise RuntimeError("broken sort")

    lib, data = library_with_mergesort(lambda real: broken)
    tally = bench.Tally()
    times, _ = bench.sort_pass(lib, "random", 1, 0.0, data, tally)
    assert times == {"inplace": [], "buffered": []}
    assert tally.failed == tally.attempted == 2
    assert "broken sort" in tally.first_failure


def test_end_to_end_pass_passes_no_stats_or_phases(tiny):
    calls = []

    def spy(real):
        def mergesort(seq, *args, **kwargs):
            calls.append(kwargs)
            return real(seq, *args, **kwargs)

        return mergesort

    lib, data = library_with_mergesort(spy)
    bench.sort_pass(lib, "random", 1, 0.05, data, bench.Tally())
    assert calls and not any({"stats", "phases"} & set(kw) for kw in calls)


def test_wrong_select_counts_as_failed_and_drops_its_block(tiny, monkeypatch):
    lib, runs, _, _ = bench.setup("select", 2)
    merged = sorted(runs[0] + runs[1])
    answers = iter(range(10**6))
    monkeypatch.setattr(
        lib.coranking,
        "select_merged",
        lambda rank, first, second: merged[rank] if next(answers) != 1 else None,
    )
    tally = bench.Tally()
    times, ratios, refs = bench.select_pass(lib, runs, merged, 2, 0.0, tally)
    assert tally.attempted == bench.BLOCK and tally.failed == 1
    assert len(times) == bench.BLOCK - 1 and ratios == [] and len(refs) == 2


@pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 101])
def test_reference_sort_and_search(n):
    rng = random.Random(n)
    data = [rng.randrange(20) for _ in range(n)]
    out = list(data)
    bench.reference_sort(out)
    assert out == sorted(data)
    for x in range(-1, 21):
        assert bench.reference_search(out, x) == bisect_left(out, x)


def test_percentile_needs_ten_samples_beyond_it():
    assert bench.percentile(list(range(999)), 99) is None
    assert bench.percentile(list(range(1000)), 99) == 989
    assert bench.timing(list(range(20)), "s")["tail"] == {"percentile": 50, "value": 9}


def test_missing_sources_exit_nonzero_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "random", "--seed", "1"]) != 0
    assert capsys.readouterr().out == ""
