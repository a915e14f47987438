import json
import math

import pytest

import sortbench.bench as bench_mod
from sortbench.bench import (
    BenchConfig,
    BenchRecord,
    VerificationError,
    emit_report,
    fit_constant,
    geometric_sizes,
    parse_report,
    run_benchmark,
)
from sortbench.datagen import Distribution


def config(**kwargs):
    return BenchConfig(**{"algorithm": "inplace", "n": 1000, "seed": 7, **kwargs})


def test_config_validation():
    with pytest.raises(ValueError):
        config(algorithm="bogo")
    with pytest.raises(ValueError):
        config(n=-1)
    with pytest.raises(ValueError):
        config(reps=0)
    records = run_benchmark(config(n=10))
    with pytest.raises(ValueError):
        emit_report(records, "xml")


def test_empty_input_record():
    records = run_benchmark(config(n=0, count_mode=True))
    assert len(records) == 2  # one rep plus the median row
    rec = records[0]
    assert rec.comparisons == 0
    assert rec.verified
    assert rec.seconds >= 0.0
    assert records[1].rep == "median"


def test_per_rep_seeds_differ_unless_fixed():
    records = run_benchmark(config(reps=3, count_mode=True))
    seeds = [r.seed for r in records if r.rep != "median"]
    assert len(set(seeds)) == 3
    fixed = run_benchmark(config(reps=3, count_mode=True, fixed_seed=True))
    assert {r.seed for r in fixed} == {7}


def test_fixed_seed_counts_are_identical():
    records = run_benchmark(config(n=10_000, reps=3, count_mode=True, fixed_seed=True))
    counts = {r.comparisons for r in records if r.rep != "median"}
    moves = {r.moves for r in records if r.rep != "median"}
    assert len(counts) == 1
    assert len(moves) == 1


def test_all_algorithms_verify():
    for algo in ("inplace", "buffered", "system"):
        records = run_benchmark(config(algorithm=algo, n=2000, count_mode=True))
        assert all(r.verified for r in records)
        assert records[0].comparisons > 0


def test_comparison_ratio_inplace_vs_buffered():
    n = 100_000
    inplace = run_benchmark(config(n=n, count_mode=True, fixed_seed=True))[0]
    buffered = run_benchmark(
        config(algorithm="buffered", n=n, count_mode=True, fixed_seed=True)
    )[0]
    ratio = inplace.comparisons / buffered.comparisons
    assert 1.8 <= ratio <= 3.2, ratio


def test_phase_attribution_only_for_inplace():
    rec = run_benchmark(config(n=4000, attribute_phases=True))[0]
    assert rec.corank_seconds is not None and rec.corank_seconds > 0.0
    assert rec.rotation_seconds is not None and rec.rotation_seconds > 0.0
    for algo in ("buffered", "system"):
        with pytest.raises(ValueError, match=f"needs --algo inplace, not {algo}"):
            config(algorithm=algo, attribute_phases=True)


def test_tagged_mode_checks_stability():
    records = run_benchmark(
        config(n=3000, dist=Distribution("fewdistinct", universe=4), tagged=True)
    )
    assert all(r.verified for r in records)


def test_verification_failure_raises(monkeypatch):
    def sabotage(seq, *args, **kwargs):
        if len(seq) > 1:
            seq[0], seq[1] = seq[1], seq[0]

    monkeypatch.setattr(bench_mod, "mergesort", sabotage)
    with pytest.raises(VerificationError) as info:
        run_benchmark(config(n=100, dist=Distribution("reversed")))
    assert not info.value.record.verified


def test_median_selection_lower_median():
    # the summary row holds the true median of an odd count of reps, and
    # the lower median of an even count: a value some rep measured
    def summary_seconds(values):
        records = [
            BenchRecord(
                algo="inplace", n=10, dist="uniform", seed=1, rep=rep,
                seconds=v, verified=True,
            )
            for rep, v in enumerate(values)
        ]
        return bench_mod._median_summary(records).seconds

    assert summary_seconds([3.0, 1.0, 2.0]) == 2.0
    assert summary_seconds([4.0, 1.0, 2.0, 3.0]) == 2.0
    assert summary_seconds([5.0]) == 5.0


def test_geometric_sizes():
    sizes = geometric_sizes(100, 100_000, 4)
    assert sizes[0] == 100 and sizes[-1] == 100_000
    assert sizes == sorted(set(sizes))
    assert geometric_sizes(5, 5, 3) == geometric_sizes(5, 5, 1) == [5]
    with pytest.raises(ValueError):
        geometric_sizes(10, 5, 3)
    # one step cannot reach both ends of a range
    with pytest.raises(ValueError):
        geometric_sizes(100, 1000, 1)


def test_fit_exact_model_recovers_constant():
    for model, x in (
        ("nlogn", lambda n: n * math.log2(n)),
        ("nlog2n", lambda n: n * math.log2(n) ** 2),
    ):
        points = [(n, 3.5 * x(n)) for n in (2**10, 2**12, 2**14, 2**16)]
        result = fit_constant(points, model)
        assert abs(result.c - 3.5) / 3.5 < 1e-12
        assert result.residual < 1e-12
        assert result.model == model


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_constant([(1024, 1.0)], "nlogn")
    with pytest.raises(ValueError):
        fit_constant([(1, 1.0), (1024, 1.0)], "nlogn")
    with pytest.raises(ValueError):
        fit_constant([(16, 0.0), (1024, 1.0)], "nlogn")
    with pytest.raises(ValueError):
        fit_constant([(16, 1.0), (1024, 2.0)], "cubic")


def sample_records():
    return [
        BenchRecord(
            algo="inplace",
            n=1000,
            dist="uniform",
            seed=7,
            rep=0,
            seconds=0.25,
            comparisons=19000,
            moves=52000,
            max_depth=11,
            verified=True,
            corank_seconds=0.08,
            rotation_seconds=0.11,
        ),
        BenchRecord(
            algo="buffered",
            n=1000,
            dist="sawtooth(2)",
            seed=8,
            rep="median",
            seconds=0.125,
            verified=True,
        ),
    ]


def test_csv_shape():
    assert emit_report([], "csv").splitlines() == [
        "algo,n,dist,seed,rep,seconds,comparisons,moves,max_depth,verified,"
        "corank_seconds,rotation_seconds"
    ]
    lines = emit_report(sample_records()[:1], "csv").splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("inplace,1000,uniform,7,0,0.25,19000,52000,11,true,")


def test_report_round_trips():
    records = sample_records()
    for fmt in ("csv", "json"):
        assert parse_report(emit_report(records, fmt)) == records


@pytest.mark.parametrize("algo", ["inplace", "buffered", "system"])
def test_counters_are_none_without_count_mode(algo):
    for rec in run_benchmark(config(algorithm=algo, n=500, reps=2)):
        assert rec.comparisons is None
        assert rec.moves is None
        assert rec.max_depth is None


def test_count_mode_leaves_unmeasured_counters_none():
    inplace, buffered, system = (
        run_benchmark(config(algorithm=algo, n=500, count_mode=True, reps=2))
        for algo in ("inplace", "buffered", "system")
    )
    for rec in inplace:
        assert rec.comparisons > 0 and rec.moves > 0 and rec.max_depth > 0
    # the buffered strategy has no merge recursion to gauge
    for rec in buffered:
        assert rec.comparisons > 0 and rec.moves > 0
        assert rec.max_depth is None
    # list.sort writes past MoveCountingList.__setitem__ and has no merge depth
    for rec in system:
        assert rec.comparisons > 0
        assert rec.moves is None
        assert rec.max_depth is None


def test_unmeasured_fields_are_empty_csv_cells_and_json_null():
    records = run_benchmark(config(algorithm="system", n=100, count_mode=True))
    line = emit_report(records[:1], "csv").splitlines()[1].split(",")
    comparisons, moves, max_depth = line[6:9]
    assert int(comparisons) > 0
    assert moves == "" and max_depth == ""
    obj = json.loads(emit_report(records[:1], "json"))[0]
    assert obj["moves"] is None and obj["max_depth"] is None
    for fmt in ("csv", "json"):
        assert parse_report(emit_report(records, fmt)) == records


def test_median_summary_keeps_unmeasured_fields_none():
    def rec(rep, comparisons):
        return BenchRecord(
            algo="buffered", n=10, dist="uniform", seed=1, rep=rep,
            seconds=0.5 + rep, comparisons=comparisons, verified=True,
        )

    summary = bench_mod._median_summary([rec(0, 30), rec(1, 10), rec(2, 20)])
    assert summary.comparisons == 20
    assert summary.moves is None and summary.max_depth is None
    assert summary.corank_seconds is None
    # one rep that did not measure a field leaves it unsummarized
    summary = bench_mod._median_summary([rec(0, 30), rec(1, None), rec(2, 20)])
    assert summary.comparisons is None and summary.seconds == 1.5
