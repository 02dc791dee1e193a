"""CLI surface: compute/verify/sweep commands, formats, exit codes, guards."""

import copy
import csv
import io
import json
import sys

import pytest

from qapery import checks, cli, qcombinatorics
from qapery.cli import SweepSpec, UsageError, main, run_sweep
from qapery.qcombinatorics import q_binomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_elapsed(document):
    document = copy.deepcopy(document)
    document["summary"].pop("elapsed_ms", None)
    document["summary"].pop("wall_ms", None)
    for row in document["results"]:
        row.pop("elapsed_ms", None)
    return document


class TestCompute:
    def test_apery(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "apery", "2")
        assert code == 0 and out == "73\n"

    def test_qbinom(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "qbinom", "4", "2")
        assert code == 0 and out == "1 + q + 2*q^2 + q^3 + q^4\n"

    @pytest.mark.parametrize("n, k", [(0, 0), (7, 3), (12, 5), (30, 14), (9, 12), (5, -1)])
    def test_qbinom_is_qbin_and_equals_the_cyclotomic_oracle(self, capsys, monkeypatch, n, k):
        monkeypatch.setattr(qcombinatorics, "_QBIN_CACHE", {})
        code, out, _ = run_cli(capsys, "compute", "qbinom", str(n), str(k))
        assert code == 0 and out == "%s\n" % q_binomial(n, k, "cyclotomic")
        assert list(qcombinatorics._QBIN_CACHE) == ([(n, k)] if 0 <= k <= n else [])

    def test_cyclotomic(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "cyclotomic", "6")
        assert code == 0 and out == "1 - q + q^2\n"

    def test_zheng(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "zheng", "1")
        assert code == 0 and out == "q^-1 + 3 + q\n"

    def test_multivariate(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "multivariate", "1", "1", "1", "2")
        assert code == 0 and out == "8\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "apery-q", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == {"0": "1", "1": "3", "2": "1"}

    def test_json_integer_value(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "az", "4", "--json")
        assert code == 0
        assert json.loads(out)["value"] == "-279"

    def test_bad_arity(self, capsys):
        code, _, err = run_cli(capsys, "compute", "apery")
        assert code == 2 and "error" in err

    def test_unknown_target(self, capsys):
        code, _, _ = run_cli(capsys, "compute", "zeta", "3")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("zheng", "-1"), ("apery", "-1"), ("az", "-1"), ("cyclotomic", "0"),
        ("qbinom", "-1", "0"), ("multivariate", "-1", "0", "0", "0"),
    ])
    def test_out_of_domain_argument_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "compute", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv, value", [
        (("apery", "450"), lambda: cli.apery(450)),
        (("az", "700"), lambda: cli.almkvist_zudilin(700)),
        (("multivariate", "500", "500", "500", "500"),
         lambda: cli.apery_multivariate((500, 500, 500, 500))),
    ], ids=["apery", "az", "multivariate"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
    def test_integers_past_the_str_digit_limit_are_printed_exactly(self, capsys, argv, value,
                                                                    as_json):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            digits = str(value())
            assert len(digits.lstrip("-")) > 640
            sys.set_int_max_str_digits(640)
            code, out, err = run_cli(capsys, "compute", *argv, *(["--json"] if as_json else []))
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0 and err == ""
        want = digits if as_json else digits + "\n"
        assert (json.loads(out)["value"] if as_json else out) == want

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "value.txt"
        code, out, _ = run_cli(capsys, "compute", "apery", "3", "--output", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == "1445\n"


class TestVerify:
    def test_holds_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ljunggren", "--n", "2", "--a", "2", "--b", "1")
        assert code == 0 and "holds" in out

    def test_corollary(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "corollary", "--m", "2", "--n", "1")
        assert code == 0

    def test_lucas(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "lucas", "--n", "2", "--a", "2", "--b", "1", "--r", "1", "--s", "0")
        assert code == 0

    def test_json_row_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "wolstenholme-q", "--n", "3", "--format", "json")
        assert code == 0
        row = json.loads(out)
        assert list(row) == ["check", "params", "modulus", "holds", "residue_at_one", "elapsed_ms",
                             "first_residue_coeff"]
        assert row["holds"] is True and row["first_residue_coeff"] is None

    def test_json_row_of_a_failing_statement(self, capsys, monkeypatch):
        # the corollary with its correction raised by one fails, and its row
        # carries the first nonzero coefficient of the residue as a string
        correction = checks.correction_R_lambda_mu
        monkeypatch.setattr(checks, "correction_R_lambda_mu", lambda *a: correction(*a) + 1)
        report = checks.check_corollary(3, 2)
        assert not report.holds and report.first_residue_coeff not in (None, 0)
        code, out, _ = run_cli(capsys, "verify", "corollary", "--m", "3", "--n", "2",
                               "--format", "json")
        row = json.loads(out)
        assert code == 1 and row["holds"] is False
        assert row["first_residue_coeff"] == str(report.first_residue_coeff)
        assert row["residue_at_one"] == str(report.residue_at_one)

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "ljunggren", "--n", "2", "--a", "3", "--b", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = rows[0]
        assert (row["check"], row["n"], row["a"], row["b"]) == ("ljunggren", "2", "3", "1")
        assert row["holds"] == "True"

    def test_unknown_check_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "riemann", "--n", "2")
        assert code == 2

    def test_missing_parameter(self, capsys):
        code, _, err = run_cli(capsys, "verify", "ljunggren", "--n", "2")
        assert code == 2 and "missing required parameter" in err

    def test_invalid_tuple_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "lucas", "--n", "2", "--a", "1", "--b", "5", "--r", "0", "--s", "0")
        assert code == 2 and "bad parameters" in err


class TestSweep:
    def test_ljunggren_grid_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "ljunggren", "--n", "1..3", "--a", "0..3", "--b", "0..3",
            "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["summary"]["failed"] == 0
        assert document["summary"]["total"] == 48
        assert document["tool_version"]
        assert document["spec"]["check"] == "ljunggren"

    def test_summary_reports_wall_time(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "wolstenholme-q", "--n", "1..3", "--format", "json")
        summary = json.loads(out)["summary"]
        assert code == 0
        assert list(summary) == ["total", "held", "failed", "skipped", "elapsed_ms", "wall_ms"]
        assert isinstance(summary["wall_ms"], int) and summary["wall_ms"] >= 0

    def test_skipped_instances(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "lucas", "--n", "2..3", "--a", "1", "--b", "0..3",
            "--r", "1", "--s", "0", "--format", "json")
        assert code == 0
        document = json.loads(out)
        # b >= n tuples are rejected by the checker and counted as skipped
        assert document["summary"]["skipped"] == 3
        assert document["summary"]["failed"] == 0

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "wolstenholme-q", "--n", "1..4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,n,modulus,holds,residue_at_one,elapsed_ms"
        assert len(lines) == 6  # header + 4 rows + summary comment

    def test_range_with_step(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "wolstenholme-q", "--n", "1..9..4", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert [row["params"]["n"] for row in document["results"]] == [1, 5, 9]

    def test_alpha_choices(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "main", "--m", "1..2", "--n1", "0..1", "--n2", "0..1",
            "--n3", "0..1", "--n4", "0..1", "--alpha", "ksq,kn23", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["summary"]["total"] == 64
        assert document["summary"]["failed"] == 0

    def test_bad_range_syntax(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "wolstenholme-q", "--n", "1..x")
        assert code == 2 and "bad range" in err

    def test_bad_alpha_name(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "main", "--m", "1", "--n1", "0", "--n2", "0",
            "--n3", "0", "--n4", "0", "--alpha", "bogus")
        assert code == 2 and "bad value" in err

    def test_alpha_arity_filtering(self, capsys):
        # scalar-index weights are rejected for the four-index check ...
        code, _, err = run_cli(
            capsys, "sweep", "main", "--m", "1", "--n1", "0", "--n2", "0",
            "--n3", "0", "--n4", "0", "--alpha", "nksq")
        assert code == 2 and "bad value" in err
        # ... but accepted for the single-index family
        code, _, _ = run_cli(
            capsys, "verify", "generalized", "--m", "2", "--n", "1",
            "--lambda", "2", "--mu", "2", "--alpha", "nksq")
        assert code == 0

    def test_instance_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("QCONG_GUARD", "10")
        code, _, err = run_cli(capsys, "sweep", "wolstenholme-q", "--n", "1..11")
        assert code == 2 and "guard" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "sweep", "wolstenholme-q", "--n", "1..2", "--format", "json",
            "--output", str(path))
        assert code == 0 and out == ""
        document = json.loads(path.read_text())
        assert document["summary"]["total"] == 2


@pytest.mark.parametrize("argv", [
    ("compute", "apery", "3"),
    ("verify", "wolstenholme-q", "--n", "3"),
    ("sweep", "wolstenholme-q", "--n", "1..2"),
])
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--output", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ") and "Traceback" not in err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ("verify", "wolstenholme-q", "--n", "3"),
    ("sweep", "wolstenholme-q", "--n", "1..40"),
])
def test_unwritable_output_fails_before_any_work(capsys, tmp_path, monkeypatch, argv):
    def no_work(name, params):
        raise AssertionError("ran %s %r" % (name, params))

    monkeypatch.setattr(cli, "run_named_check", no_work)
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--output", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write %s: " % path)


# a refused run of each command, past the ``--output`` check: over the work
# budget, out of the target's domain, and over the instance guard
REFUSED = [
    ("verify", "corollary", "--m", "16", "--n", "2000"),
    ("compute", "apery-q", "-3"),
    ("sweep", "wolstenholme-q", "--n", "1..11"),
]


@pytest.mark.parametrize("argv", REFUSED, ids=[a[0] for a in REFUSED])
@pytest.mark.parametrize("existing", [None, b"kept \x00 bytes\n"], ids=["new", "existing"])
def test_a_refused_run_leaves_the_output_path_as_it_was(capsys, tmp_path, monkeypatch, argv,
                                                        existing):
    monkeypatch.setenv("QCONG_GUARD", "10")
    path = tmp_path / "out.txt"
    if existing is not None:
        path.write_bytes(existing)
    code, out, err = run_cli(capsys, *argv, "--output", str(path))
    assert code == 2 and out == "" and err.startswith("error:")
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing


class TestSweepLibrary:
    def test_parallel_equals_serial(self):
        base = dict(
            check_name="lucas",
            ranges={"n": (2, 4, 1), "a": (0, 2, 1), "b": (0, 2, 1),
                    "r": (0, 2, 1), "s": (0, 1, 1)},
        )
        serial = strip_elapsed(run_sweep(SweepSpec(jobs=1, **base)))
        parallel = strip_elapsed(run_sweep(SweepSpec(jobs=2, **base)))
        assert serial["results"] == parallel["results"]
        assert serial["summary"] == parallel["summary"]

    def test_deterministic_output(self):
        spec = lambda: SweepSpec(
            check_name="ljunggren", ranges={"n": (1, 3, 1), "a": (0, 2, 1), "b": (0, 2, 1)})
        first = run_sweep(spec())
        second = run_sweep(spec())
        assert strip_elapsed(first) == strip_elapsed(second)
        assert json.dumps(strip_elapsed(first)) == json.dumps(strip_elapsed(second))

    def test_ordering_by_parameter_tuple(self):
        document = run_sweep(SweepSpec(
            check_name="ljunggren", ranges={"n": (1, 2, 1), "a": (0, 1, 1), "b": (0, 1, 1)}))
        keys = [(r["params"]["a"], r["params"]["b"], r["params"]["n"])
                for r in document["results"]]
        assert keys == sorted(keys)

    def test_unknown_check(self):
        with pytest.raises(UsageError):
            run_sweep(SweepSpec(check_name="riemann", ranges={"n": (1, 2, 1)}))

    def test_guard_parameter(self, monkeypatch):
        monkeypatch.setenv("QCONG_GUARD", "5")
        with pytest.raises(UsageError):
            run_sweep(SweepSpec(check_name="wolstenholme-q", ranges={"n": (1, 100, 1)}))


class TestListing:
    def test_list_checks(self, capsys):
        code, out, _ = run_cli(capsys, "list-checks")
        assert code == 0
        assert "ljunggren" in out and "zheng-identity" in out

    def test_list_alphas(self, capsys):
        code, out, _ = run_cli(capsys, "list-alphas")
        assert code == 0
        assert "ksq" in out and "k^2" in out


class TestSweepInputs:
    def test_csv_mixed_parameter_sets(self, capsys):
        # only the lambda-mu family takes --lambda/--mu, so the rows differ
        code, out, _ = run_cli(
            capsys, "sweep", "classical-sc", "--p", "5", "--n", "1",
            "--family", "lambda-mu,apery", "--lambda", "2", "--mu", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "check" and "lambda" in header and "mu" in header
        rows = [dict(zip(header, line.split(","))) for line in lines[1:-1]]
        assert {row["family"] for row in rows} == {"lambda-mu", "apery"}
        for row in rows:
            assert len(row) == len(header)
            if row["family"] == "apery":
                assert row["lambda"] == "" and row["mu"] == ""
            else:
                assert row["lambda"] == "2" and row["mu"] == "1"

    def test_bad_guard_value(self, capsys, monkeypatch):
        monkeypatch.setenv("QCONG_GUARD", "abc")
        code, out, err = run_cli(capsys, "sweep", "corollary", "--m", "1", "--n", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "QCONG_GUARD" in err


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs serially."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


class TestJobsCap:
    @pytest.fixture
    def executor(self, monkeypatch):
        import qapery.cli

        _RecordingExecutor.created = []
        monkeypatch.setattr(qapery.cli, "ProcessPoolExecutor", _RecordingExecutor)
        return _RecordingExecutor

    def sweep(self, jobs, count):
        return run_sweep(SweepSpec(
            check_name="wolstenholme-q", ranges={"n": (1, count, 1)}, jobs=jobs))

    def test_capped_by_instances(self, executor, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        document = self.sweep(jobs=10 ** 6, count=3)
        assert executor.created == [3]
        assert document["summary"]["total"] == 3
        assert document["spec"]["jobs"] == 10 ** 6

    def test_capped_by_cpu_count(self, executor, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        self.sweep(jobs=10 ** 6, count=12)
        assert executor.created == [4]

    def test_unknown_cpu_count_runs_serially(self, executor, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: None)
        document = self.sweep(jobs=8, count=5)
        assert executor.created == []
        assert document["summary"]["total"] == 5
