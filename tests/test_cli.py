import dataclasses
import json

import pytest

import sortbench.bench as bench_mod
import sortbench.cli as cli
from sortbench.bench import parse_report


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_emits_csv(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--n", "500", "--seed", "3", "--reps", "2", "--count"
    )
    assert code == 0
    records = parse_report(out)
    assert len(records) == 3  # 2 reps + median
    assert {r.rep for r in records} == {0, 1, "median"}
    assert all(r.verified for r in records)
    assert records[0].comparisons > 0


def test_run_writes_json_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "run", "--n", "200", "--algo", "buffered", "--dist", "fewdistinct",
        "--universe", "3", "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    assert out == ""
    records = parse_report(out_file.read_text())
    assert records[0].algo == "buffered"
    assert records[0].dist == "fewdistinct(3)"


def test_sweep_ladder(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--n-min", "64", "--n-max", "512", "--steps", "3", "--count",
    )
    assert code == 0
    records = parse_report(out)
    assert sorted({r.n for r in records}) == [64, 181, 512]


def test_sweep_of_one_step_over_a_range_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--n-min", "100", "--n-max", "1000", "--steps", "1"
    )
    assert (code, out) == (2, "")
    assert "steps" in err


def test_fit_roundtrip(tmp_path, capsys):
    report = tmp_path / "counts.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--n-min", "1024", "--n-max", "16384", "--steps", "3",
        "--algo", "buffered", "--count", "--out", str(report),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "fit", "--input", str(report), "--column", "comparisons", "--model", "nlogn",
    )
    assert code == 0
    result = json.loads(out)
    assert 0.80 <= result["c"] <= 1.10
    assert result["model"] == "nlogn"
    assert result["points"] == 3


def test_fit_detects_json_from_content(tmp_path, capsys):
    # the format comes from the report's text, not from the file's extension
    as_json = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--n-min", "256", "--n-max", "2048", "--steps", "3",
        "--algo", "buffered", "--count", "--format", "json", "--out", str(as_json),
    )
    assert code == 0
    as_txt = tmp_path / "report.txt"
    as_txt.write_text(as_json.read_text())
    fits = []
    for path in (as_json, as_txt):
        code, out, _ = run_cli(
            capsys,
            "fit", "--input", str(path), "--column", "comparisons", "--model", "nlogn",
        )
        assert code == 0
        fits.append(json.loads(out))
    assert fits[0] == fits[1]
    assert fits[0]["points"] == 3


def test_verify_ok(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "2000", "--dist", "sawtooth", "--seed", "1"
    )
    assert code == 0
    assert "verified" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    def sabotage(seq, *args, **kwargs):
        if len(seq) > 1:
            seq[0], seq[1] = seq[1], seq[0]

    monkeypatch.setattr(bench_mod, "mergesort", sabotage)
    code, _, err = run_cli(capsys, "verify", "--n", "50", "--dist", "reversed")
    assert code == 1
    assert "verification failed" in err
    # the diagnostic record accompanies the failure
    assert "false" in err


def test_allocation_failure_exit_code(capsys, monkeypatch):
    def exploding(seq, *args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(bench_mod, "mergesort", exploding)
    code, _, err = run_cli(capsys, "run", "--n", "10", "--algo", "buffered")
    assert code == 3
    assert "allocation" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["run"])  # missing --n
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--n", "10", "--algo", "bogosort"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


def test_bad_fit_input_reports_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code, _, err = run_cli(
        capsys, "fit", "--input", str(missing), "--column", "seconds",
        "--model", "nlogn",
    )
    assert code == 2
    assert "error" in err


COUNTED_CSV = (
    "algo,n,dist,seed,rep,seconds,comparisons,moves,max_depth,verified,"
    "corank_seconds,rotation_seconds\n"
    "buffered,256,uniform,42,median,0.001,1700,2048,,true,,\n"
    "buffered,512,uniform,42,median,0.002,3900,4608,,true,,\n"
)


def _csv_without(column):
    # the column dropped from the header and from every row
    def edit(text):
        lines = [line.split(",") for line in text.splitlines()]
        at = lines[0].index(column)
        return "".join(",".join(c[:at] + c[at + 1 :]) + "\n" for c in lines)

    return edit


def _csv_set(column, cell):
    # the column's cell in the first row replaced by cell
    def edit(text):
        lines = [line.split(",") for line in text.splitlines()]
        lines[1][lines[0].index(column)] = cell
        return "".join(",".join(c) + "\n" for c in lines)

    return edit


def _json_first(change):
    # the report as a JSON array whose first entry change(entry) edits
    def edit(text):
        objs = [dataclasses.asdict(r) for r in parse_report(text)]
        change(objs[0])
        return json.dumps(objs)

    return edit


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda text: text.replace(",moves,", ",writes,", 1), "'writes'"),
        (_csv_without("n"), "'n'"),
        (_csv_set("n", ""), "'n'"),
        (_csv_set("seconds", ""), "'seconds'"),
        (_csv_set("n", "abc"), "'n'"),
        (_json_first(lambda obj: obj.pop("seconds")), "'seconds'"),
        (_json_first(lambda obj: obj.update(n="abc")), "'n'"),
        (_json_first(lambda obj: obj.update(n=256.5)), "'n'"),
        (_json_first(lambda obj: obj.update(comparisons=[1])), "'comparisons'"),
        (lambda text: "[5]", "a JSON report is an array of objects"),
    ],
    ids=[
        "unknown column", "missing column", "empty n", "empty seconds", "csv n abc",
        "json entry", "json n abc", "json n 256.5", "json comparisons [1]",
        "json entry 5",
    ],
)
def test_fit_of_a_malformed_report_names_the_column(tmp_path, capsys, edit, named):
    # a report with a column fit cannot map, without a value every record
    # has, or with a value that does not parse is a usage error that names
    # the column, not a TypeError
    report = tmp_path / "report.txt"
    report.write_text(edit(COUNTED_CSV))
    code, out, err = run_cli(
        capsys,
        "fit", "--input", str(report), "--column", "comparisons", "--model", "nlogn",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and named in err, err


def test_fit_refuses_rows_without_comparisons(tmp_path, capsys):
    report = tmp_path / "timed.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--n-min", "64", "--n-max", "256", "--steps", "3",
        "--algo", "buffered", "--out", str(report),
    )
    assert code == 0
    code, out, err = run_cli(
        capsys,
        "fit", "--input", str(report), "--column", "comparisons", "--model", "nlogn",
    )
    assert code == 2
    assert out == ""
    assert "no comparisons value in 3 row(s)" in err
    for n in (64, 128, 256):
        assert f"buffered n={n} dist=uniform seed=42 rep=median" in err
    # seconds are always measured, so the same report fits on them
    code, out, _ = run_cli(
        capsys,
        "fit", "--input", str(report), "--column", "seconds", "--model", "nlogn",
    )
    assert code == 0
    assert json.loads(out)["points"] == 3


def test_fit_refuses_seconds_of_count_mode_rows(tmp_path, capsys):
    # a --count run times the counting wrapper too, so its seconds do not
    # fit the sort's time; its comparisons do
    report = tmp_path / "counted.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--n-min", "64", "--n-max", "256", "--steps", "3",
        "--algo", "buffered", "--count", "--out", str(report),
    )
    assert code == 0
    code, out, err = run_cli(
        capsys,
        "fit", "--input", str(report), "--column", "seconds", "--model", "nlogn",
    )
    assert code == 2
    assert out == ""
    assert "3 row(s) timed with --count" in err
    for n in (64, 128, 256):
        assert f"buffered n={n} dist=uniform seed=42 rep=median" in err
    code, out, _ = run_cli(
        capsys,
        "fit", "--input", str(report), "--column", "comparisons", "--model", "nlogn",
    )
    assert code == 0
    assert json.loads(out)["points"] == 3


def test_fit_refuses_seconds_of_phase_attributed_rows(tmp_path, capsys):
    # an --attribute-phases run times the in-place merge's phase timers too,
    # so its rows' seconds do not fit the sort's time
    report = tmp_path / "inplace.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--n-min", "64", "--n-max", "256", "--steps", "3",
        "--attribute-phases", "--out", str(report),
    )
    assert code == 0
    code, out, err = run_cli(
        capsys,
        "fit", "--input", str(report), "--column", "seconds", "--model", "nlogn",
    )
    assert code == 2
    assert out == ""
    assert "3 row(s) timed with --count or --attribute-phases" in err
    for n in (64, 128, 256):
        assert f"inplace n={n} dist=uniform seed=42 rep=median" in err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "flags, note",
    [
        ((), ""),
        (("--count",), "note: seconds include the counting wrapper\n"),
        (("--attribute-phases",), "note: seconds include the phase timers\n"),
        (("--algo", "buffered", "--attribute-phases"), None),
        (("--algo", "system", "--attribute-phases"), None),
        (
            ("--count", "--attribute-phases"),
            "note: seconds include the counting wrapper and the phase timers\n",
        ),
    ],
    ids=[
        "plain", "count", "phases", "buffered-phases", "system-phases", "count-phases"
    ],
)
def test_observed_runs_say_on_stderr_what_their_seconds_include(
    tmp_path, capsys, command, flags, note
):
    # a --count or --attribute-phases run times its observers too; one
    # stderr line says so, and the report itself stays as it was.  Only the
    # in-place merge has phase timers: with another --algo the flag is a
    # usage error that names the flag and the algorithm
    sizes = ("--n", "128")
    if command == "sweep":
        sizes = ("--n-min", "64", "--n-max", "128", "--steps", "2")
    if note is None:
        report = tmp_path / "report.csv"
        code, out, err = run_cli(capsys, command, *sizes, *flags, "--out", str(report))
        assert (code, out) == (2, "")
        algo = flags[1]
        assert err == f"error: --attribute-phases needs --algo inplace, not {algo}\n"
        assert not report.exists()
        return
    for fmt in ("csv", "json"):
        code, out, err = run_cli(capsys, command, *sizes, *flags, "--format", fmt)
        assert (code, err) == (0, note)
        assert "note" not in out
        records = parse_report(out)
        assert all(r.verified for r in records)
        assert out == bench_mod.emit_report(records, fmt)
    report = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, command, *sizes, *flags, "--out", str(report))
    assert (code, out, err) == (0, "", note)
