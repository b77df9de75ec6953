"""CLI contract: grammar, grid expansion, formats, determinism, exit codes."""

import csv
import errno
import io
import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys

import pytest

import qtrinom.cli as cli_module
from qtrinom.cli import (
    CSV_COLUMNS,
    OBJECTS,
    UsageError,
    build_parser,
    expand_tasks,
    main,
    parse_int_list,
    report_from_json,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_verify,
)
from qtrinom.congruence import TARGETS, CongruenceReport, VerificationTask, run_task, verify
from qtrinom.polyring import LaurentPoly, NegativeExponent, NonExactDivision, NotMonic
from qtrinom.trinomials import InvalidParameters


def test_parse_int_list():
    assert parse_int_list("1..6", "--n") == [1, 2, 3, 4, 5, 6]
    assert parse_int_list("3,5,7", "--p") == [3, 5, 7]
    assert parse_int_list("4", "--a") == [4]
    assert parse_int_list("1..3,9", "--n") == [1, 2, 3, 9]
    assert parse_int_list(" 4 ", "--a") == [4]
    assert parse_int_list("4..4", "--a") == [4]
    assert parse_int_list("-3..-1", "--k") == [-3, -2, -1]
    for spec, message in [
        ("x..3", "bad range 'x..3' for --n"),
        ("1;2", "bad integer '1;2' for --n"),
        ("", "bad integer '' for --n"),
        ("5..1", "empty range '5..1' for --n"),
    ]:
        with pytest.raises(UsageError) as excinfo:
            parse_int_list(spec, "--n")
        assert str(excinfo.value) == message


def test_expand_tasks_theorem_grid():
    tasks, warnings = expand_tasks(["theorem-a"], {"n": [1, 2], "a": [2], "b": [1]})
    assert [t.params for t in tasks] == [{"a": 2, "b": 1, "n": 1}, {"a": 2, "b": 1, "n": 2}]
    assert warnings == []


def test_expand_tasks_skips_with_warnings():
    tasks, warnings = expand_tasks(["theorem-a"], {"n": [0, 1], "a": [2, 1], "b": [1]})
    assert [t.params for t in tasks] == [{"a": 2, "b": 1, "n": 1}]
    assert len(warnings) == 3  # (2,1,0), (1,1,0), (1,1,1)
    assert all("skipping" in w for w in warnings)


def test_expand_tasks_prime_filtering():
    tasks, warnings = expand_tasks(["babbage"], {"p": [2, 3, 4, 5]})
    assert [t.params["p"] for t in tasks] == [3, 5]
    assert len(warnings) == 2


def test_expand_tasks_lemma_k_defaults():
    tasks, _ = expand_tasks(["lemma-2.1"], {"n": [4]})
    assert [t.params["k"] for t in tasks] == [1, 2, 3]
    tasks, warnings = expand_tasks(["lemma-2.1"], {"n": [4], "k": [2, 9]})
    assert [t.params["k"] for t in tasks] == [2]
    assert len(warnings) == 1


def test_expand_tasks_straub_filter():
    tasks, warnings = expand_tasks(["straub-q"], {"n": [5, 6], "a": [2], "b": [1]})
    assert [t.params["n"] for t in tasks] == [5]
    assert "gcd" in warnings[0]


def test_expand_tasks_deduplicates_and_sorts():
    tasks, _ = expand_tasks(
        ["babbage", "theorem-a", "babbage"], {"n": [2, 1], "a": [2], "b": [1], "p": [5, 3, 5]}
    )
    keys = [t.sort_key() for t in tasks]
    assert keys == sorted(keys)
    assert len(tasks) == 4  # 2 babbage + 2 theorem-a


def test_expand_tasks_skips_exactly_what_run_task_rejects():
    # the grid includes invalid points for every target; a point must be
    # skipped iff running it raises, and the warning must quote the exception
    values = {"a": range(-1, 5), "b": range(-1, 5), "n": range(-1, 8), "p": range(1, 14), "k": range(0, 8)}
    grid = {name: list(v) for name, v in values.items()}
    for target in TARGETS:
        tasks, warnings = expand_tasks([target], grid)
        names = TARGETS[target].params
        kept, expected_warnings = [], []
        for point in itertools.product(*(values[name] for name in names)):
            task = VerificationTask(target, dict(zip(names, point)))
            try:
                run_task(task)
            except InvalidParameters as exc:
                pretty = " ".join(f"{k}={v}" for k, v in sorted(task.params.items()))
                expected_warnings.append(f"skipping {target} {pretty}: {exc}")
            else:
                kept.append(task)
        assert tasks == sorted(kept, key=VerificationTask.sort_key), target
        assert warnings == expected_warnings, target
        assert tasks and warnings, target  # the grid exercises both outcomes


def test_expand_tasks_errors():
    with pytest.raises(UsageError):
        expand_tasks(["theorem-a"], {"n": [1]})  # no --a
    with pytest.raises(UsageError):
        expand_tasks(["no-such-target"], {"n": [1]})


# ---- serialization ----


def _sample_reports():
    return [
        verify("theorem-a", a=2, b=1, n=2),
        verify("theorem-f", a=2, b=1, n=3),
        verify("lemma-theta", n=7),  # modulus is None
        verify("lemma-upsilon-inv", n=4),  # nonzero cleared_shift
        run_task_report("cor-plain", a=2, b=1, p=3),  # holds=False, residual 3
        run_task_report("straub-q", a=3, b=2, n=5),
    ]


def run_task_report(target, **params):
    return run_task(VerificationTask(target, params))


def test_json_round_trip_identical_fields():
    reports = _sample_reports()
    assert any(r.cleared_shift > 0 for r in reports)
    assert any(not r.holds for r in reports)
    for report in reports:
        line = report_to_json(report)
        parsed = report_from_json(line)
        assert parsed == report
        # keys exactly as the interface promises
        obj = json.loads(line)
        assert set(obj) == {
            "target",
            "params",
            "holds",
            "cleared_shift",
            "residual",
            "modulus",
            "elapsed_ms",
        }


def test_csv_lines_are_what_the_csv_module_writes():
    # report_to_csv joins its fields with bare commas; the csv module quotes
    # any field that needs it, so equal lines mean no field needed quoting
    grid = {"n": [2, 3, 5], "a": [2], "b": [1], "p": [3, 5], "k": [1]}
    tasks, _ = expand_tasks(list(TARGETS), grid)
    first = {}
    for task in tasks:
        first.setdefault(task.target, task)
    assert set(first) == set(TARGETS)
    reports = [run_task(task) for task in first.values()]
    assert any(not r.holds for r in reports) and any(r.cleared_shift for r in reports)

    def written(fields):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow(fields)
        return out.getvalue()

    assert ",".join(CSV_COLUMNS) + "\n" == written(CSV_COLUMNS)
    for r in reports:
        params = ";".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        fields = [r.target, params, "true" if r.holds else "false", r.cleared_shift, r.elapsed_ms]
        assert report_to_csv(r) + "\n" == written(fields), r


def test_json_residual_is_zero_string_when_holds():
    report = verify("theorem-a", a=2, b=1, n=2)
    assert json.loads(report_to_json(report))["residual"] == "0"


def test_text_rendering_and_elision():
    line = report_to_text(run_task_report("cor-plain", a=2, b=1, p=3))
    assert line.startswith("FAIL cor-plain a=2 b=1 p=3")
    assert "residual=3" in line and "mod=3^2" in line

    ok_line = report_to_text(verify("theorem-a", a=2, b=1, n=2))
    assert ok_line.startswith("ok   theorem-a a=2 b=1 n=2")
    assert "mod=Phi(2)^2" in ok_line

    big = CongruenceReport(
        target="theorem-a",
        params={"n": 1},
        holds=False,
        residual=LaurentPoly(0, [1] * 60),
        cleared_shift=0,
        modulus=(1, 2),
        elapsed_ms=1,
    )
    assert "residual=<degree 59, 60 terms>" in report_to_text(big)


# ---- verify end-to-end ----


def _verify_args(*argv):
    """verify's arguments parsed as main parses them."""
    return build_parser().parse_args(["verify", *argv])


def test_run_verify_json_stream():
    args = _verify_args("--target", "theorem-a", "--n", "1..6", "--a", "2", "--b", "1", "--format", "json")
    out = io.StringIO()
    code = run_verify(args, stream=out, err=io.StringIO())
    assert code == 0
    lines = out.getvalue().strip().splitlines()
    assert len(lines) == 6
    reports = [report_from_json(line) for line in lines]
    assert all(r.holds for r in reports)
    assert [r.params["n"] for r in reports] == [1, 2, 3, 4, 5, 6]


def test_run_verify_warns_and_skips():
    args = _verify_args("--target", "theorem-a", "--n", "0,1", "--a", "2", "--b", "1")
    out, err = io.StringIO(), io.StringIO()
    assert run_verify(args, stream=out, err=err) == 0
    assert len(out.getvalue().strip().splitlines()) == 1
    assert "warning: skipping theorem-a" in err.getvalue()


def test_run_verify_exit_one_on_failure():
    args = _verify_args("--target", "cor-plain", "--a", "2", "--b", "1", "--p", "3,5")
    out = io.StringIO()
    assert run_verify(args, stream=out, err=io.StringIO()) == 1
    lines = out.getvalue().strip().splitlines()
    assert len(lines) == 2  # both reports still emitted without --fail-fast


def test_run_verify_fail_fast_stops():
    args = _verify_args("--target", "cor-plain", "--a", "2,4", "--b", "1,3", "--p", "3", "--fail-fast")
    out = io.StringIO()
    assert run_verify(args, stream=out, err=io.StringIO()) == 1
    lines = out.getvalue().strip().splitlines()
    assert len(lines) == 1  # stopped at the first failing report


def test_run_verify_csv_format():
    args = _verify_args("--target", "babbage", "--p", "3,5", "--format", "csv")
    out = io.StringIO()
    assert run_verify(args, stream=out, err=io.StringIO()) == 0
    rows = list(csv.reader(io.StringIO(out.getvalue())))
    assert rows[0] == CSV_COLUMNS
    assert rows[1][0] == "babbage" and rows[1][1] == "p=3" and rows[1][2] == "true"
    assert len(rows) == 3


def test_run_verify_deterministic_across_jobs():
    def run(jobs):
        args = _verify_args("--target", "theorem-b,lemma-2.1,babbage", "--n", "1..4", "--a", "2,3",
                            "--b", "1,2", "--p", "3,5,7", "--format", "json", "--jobs", str(jobs))
        out = io.StringIO()
        assert run_verify(args, stream=out, err=io.StringIO()) == 0
        return [report_from_json(l) for l in out.getvalue().strip().splitlines()]

    sequential = run(1)
    parallel = run(4)
    strip = lambda rs: [
        (r.target, tuple(sorted(r.params.items())), r.holds, r.cleared_shift, r.residual, r.modulus)
        for r in rs
    ]
    assert strip(sequential) == strip(parallel)
    keys = [r.sort_key() for r in sequential]
    assert keys == sorted(keys)


def test_run_verify_clamps_jobs(monkeypatch):
    created = []

    class RecordingPool:
        def __init__(self, processes):
            created.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)

    def run(jobs, primes):
        args = _verify_args("--target", "babbage", "--p", ",".join(map(str, primes)), "--jobs", str(jobs))
        assert run_verify(args, stream=io.StringIO(), err=io.StringIO()) == 0

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    run(8, [3, 5])  # two tasks
    run(8, [3, 5, 7, 11, 13])  # three CPUs
    run(2, [3, 5, 7])
    run(8, [3])  # one task: no pool
    run(1, [3, 5, 7])
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU
    run(8, [3, 5, 7])
    assert created == [2, 3, 2]


# ---- main() and compute ----


def test_main_compute_examples(capsys):
    assert main(["compute", "--object", "cyclotomic", "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "q^2 - q + 1"

    assert main(["compute", "--object", "qbinom", "--n", "4", "--m", "2"]) == 0
    assert capsys.readouterr().out.strip() == "q^4 + q^3 + 2*q^2 + q + 1"

    assert main(["compute", "--object", "qbinom", "--n", "2", "--m", "1", "--base", "2"]) == 0
    assert capsys.readouterr().out.strip() == "q^2 + 1"

    assert main(["compute", "--object", "theta", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "-q"

    assert main(["compute", "--object", "vartheta", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "-q^-1"

    assert main(["compute", "--object", "trinomial", "--n", "2", "--m", "0"]) == 0
    assert capsys.readouterr().out.strip() == "3"

    assert main(["compute", "--object", "qtrinomial", "--kind", "round", "--n", "2", "--m", "0"]) == 0
    assert capsys.readouterr().out.strip() == "q^2 + q + 1"

    assert main(
        ["compute", "--object", "truncated", "--kind", "T0", "--a", "2", "--b", "1", "--n", "1"]
    ) == 0
    assert capsys.readouterr().out.strip() == "-q^2 - 1"


def test_main_compute_usage_errors(capsys):
    assert main(["compute", "--object", "qbinom", "--n", "4"]) == 2  # missing --m
    assert "error" in capsys.readouterr().err
    assert main(["compute", "--object", "cyclotomic", "--n", "0"]) == 2
    capsys.readouterr()
    assert main(["compute", "--object", "qtrinomial", "--n", "2", "--m", "0"]) == 2  # no kind
    capsys.readouterr()
    # the theorem hypothesis, worded as verify's skip warning words it
    assert main(["compute", "--object", "truncated", "--kind", "T0", "--a", "1", "--b", "1", "--n", "1"]) == 2
    assert capsys.readouterr().err == "qtrinom: error: requires a > b >= 1\n"
    assert main(["compute", "--object", "truncated", "--kind", "T0", "--a", "2", "--b", "1", "--n", "0"]) == 2
    assert capsys.readouterr().err == "qtrinom: error: requires n >= 1\n"


# a valid value for each flag an object can require
_COMPUTE_VALUES = {"kind": "T0", "n": "2", "m": "1", "a": "2", "b": "1"}


@pytest.mark.parametrize("obj, missing", [(obj, flag) for obj, (flags, _) in OBJECTS.items() for flag in flags])
def test_main_compute_names_each_missing_flag(capsys, obj, missing):
    argv = ["compute", "--object", obj]
    for flag in OBJECTS[obj][0]:
        if flag != missing:
            argv += [f"--{flag}", _COMPUTE_VALUES[flag]]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"qtrinom: error: --object {obj} requires --{missing}\n"
    # the listed flags are all the object needs
    assert main([*argv, f"--{missing}", _COMPUTE_VALUES[missing]]) == 0


def test_main_compute_rejects_base_zero(capsys):
    assert main(["compute", "--object", "qbinom", "--n", "4", "--m", "2", "--base", "0"]) == 2
    assert "base power must be positive" in capsys.readouterr().err


def test_main_verify_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-4"):
        assert main(["verify", "--target", "babbage", "--p", "3", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qtrinom: error: --jobs must be at least 1, got {jobs}\n"


def test_main_verify_rejects_empty_target_list(capsys):
    for argv in (["--target", ""], ["--target", ","], ["--target", "", "--target", ",,"]):
        assert main(["verify", *argv, "--p", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qtrinom: error: --target names no target\n"


def test_main_compute_rejects_power_zero(capsys):
    assert main(["compute", "--object", "cyclotomic", "--n", "6", "--k", "0"]) == 2
    assert "power must be positive" in capsys.readouterr().err


def test_main_verify_spec_example(capsys):
    code = main(
        ["verify", "--target", "theorem-a", "--n", "1..6", "--a", "2", "--b", "1",
         "--format", "json"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert all(json.loads(l)["holds"] for l in lines)


def test_main_verify_text_targets_comma_split(capsys):
    code = main(["verify", "--target", "babbage,wolstenholme", "--p", "5,7", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4
    assert all(line.startswith("ok  ") for line in out)


def test_main_verify_usage_error_exit_2(capsys):
    assert main(["verify", "--target", "theorem-a", "--n", "1..3"]) == 2
    assert "requires --a" in capsys.readouterr().err
    assert main(["verify", "--target", "bogus", "--n", "1"]) == 2
    capsys.readouterr()
    assert main(["verify", "--target", "theorem-a", "--n", "3..1", "--a", "2", "--b", "1"]) == 2
    capsys.readouterr()


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["verify", "--target", "babbage"], "--p", "-3..-1"),
        (["verify", "--target", "babbage"], "--p", "-3,5"),
        (["verify", "--target", "theorem-a", "--a", "2", "--b", "1"], "--n", "-1..2"),
        (["verify", "--target", "theorem-a", "--n", "2", "--b", "1"], "--a", "-2..2"),
        (["verify", "--target", "theorem-a", "--n", "2", "--a", "2"], "--b", "-1..1"),
        (["verify", "--target", "lemma-2.1", "--n", "4"], "--k", "-1..2"),
        (["verify", "--target", "lemma-2.1", "--n", "4"], "--k", "-x..2"),
        (["verify", "--target", "babbage"], "--p", "-3"),
    ],
)
def test_grid_values_starting_with_minus_parse_the_same_either_way(capsys, argv, flag, value):
    # `--p -3..-1` and `--p=-3..-1` give the same stdout, stderr and exit code
    apart = _outcome(capsys, [*argv, flag, value, "--format", "json"])
    joined = _outcome(capsys, [*argv, f"{flag}={value}", "--format", "json"])
    assert apart == joined
    assert "expected one argument" not in apart[2]


def test_main_argparse_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # --target is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--object", "weird"])
    assert exc.value.code == 2


def test_main_out_file(tmp_path, capsys):
    out_file = tmp_path / "reports.json"
    code = main(
        ["verify", "--target", "lemma-theta", "--n", "0..5", "--format", "json",
         "--out", str(out_file)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 6
    assert all(json.loads(l)["modulus"] is None for l in lines)


def test_main_out_file_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys):
    out_file = tmp_path / "missing" / "reports.json"
    assert main(["verify", "--target", "babbage", "--p", "3", "--out", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qtrinom: error: cannot write --out {out_file}: {os.strerror(errno.ENOENT)}\n"
    assert not out_file.parent.exists()


# ---- internal faults ----


@pytest.mark.parametrize(
    "fault",
    [NotMonic("modulus must be monic"), NegativeExponent("dividend has negative exponents"),
     NonExactDivision("nonzero remainder"), ArithmeticError("exponent 3 is not even"),
     # a task's own OSError is a fault, not an output that cannot be written
     OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))],
)
def test_main_verify_internal_fault_exit_3(monkeypatch, capsys, fault):
    # an internal fault is not a usage error: the reports before it stay in
    # the stream and the failing task is named
    calls = []

    def second_raises(task):
        calls.append(task)
        if len(calls) == 2:
            raise fault
        return run_task(task)

    monkeypatch.setattr(cli_module, "run_task", second_raises)
    code = main(["verify", "--target", "theorem-a", "--n", "1..3", "--a", "2", "--b", "1",
                 "--format", "json", "--jobs", "1"])
    assert code == 3
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 1 and report_from_json(lines[0]).params["n"] == 1
    assert captured.err == (
        f"qtrinom: internal error in theorem-a a=2 b=1 n=2: {type(fault).__name__}: {fault}\n"
    )


def test_main_verify_hypothesis_failure_in_task_stays_exit_2(monkeypatch, capsys):
    def rejects(task):
        raise InvalidParameters("requires a > b >= 1")

    monkeypatch.setattr(cli_module, "run_task", rejects)
    assert main(["verify", "--target", "babbage", "--p", "3"]) == 2
    assert capsys.readouterr().err == "qtrinom: error: requires a > b >= 1\n"


def _cli_env():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_closed_stdout_pipe_exits_141_without_traceback(jobs):
    # `verify ... | head -1`: the reader leaves while the sweep is still
    # writing, which is not a failed check (exit 1) but a SIGPIPE-style 141
    argv = [sys.executable, "-m", "qtrinom.cli", "verify", "--target", "theorem-a", "--n", "1..40",
            "--a", "4", "--b", "1..3", "--format", "json", "--jobs", jobs]
    with subprocess.Popen(argv, env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert report_from_json(proc.stdout.readline()).holds
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv, where",
    [
        (["verify", "--target", "babbage", "--p", "3,5", "--jobs", "1"], "stdout"),
        (["verify", "--target", "babbage", "--p", "3,5,7", "--jobs", "2"], "stdout"),
        (["verify", "--target", "babbage", "--p", "3,5", "--format", "csv", "--out", "/dev/full"],
         "--out /dev/full"),
        (["compute", "--object", "qbinom", "--n", "4", "--m", "2"], "stdout"),
    ],
)
def test_unwritable_output_exits_2_without_traceback(argv, where):
    # a full device is bad output, like an --out that cannot be opened: not a
    # failed check (1), and not the interpreter's failed final flush (120).
    # The child runs under faulthandler, so if it hangs, SIGABRT makes it
    # print every thread's stack, and the test fails with that stderr
    argv = [sys.executable, "-X", "faulthandler", "-m", "qtrinom.cli", *argv]
    with open("/dev/full", "w") as full, subprocess.Popen(
        argv, env=_cli_env(), stdout=full, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            _, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.send_signal(signal.SIGABRT)
            _, stderr = proc.communicate(timeout=60)
            pytest.fail(f"no exit within 60 s; stderr after SIGABRT:\n{stderr}")
    # one comparison, so a wrong exit code is reported with the stderr beside it
    expected = f"qtrinom: error: cannot write {where}: {os.strerror(errno.ENOSPC)}\n"
    assert (proc.returncode, stderr) == (2, expected)


def test_verify_imports_only_what_the_run_uses():
    # a cold `verify` pays for no module it does not use: no dataclasses (and
    # the inspect, ast and dis it imports), never logging, not even for
    # theorem-b at b != n, never csv (its lines need no quoting),
    # multiprocessing only for --jobs > 1, and neither array nor struct for
    # the Kronecker word decode, which the theorem-a rhs product at n=12
    # reaches.  -S keeps site-packages' .pth hooks out of what is measured
    script = (
        "import runpy, sys\n"
        "fmt = sys.argv[1]\n"
        "theorem = ['--n', '12', '--a', '3', '--b', '1']\n"
        "for args in (['--target', 'babbage', '--p', '3'], ['--target', 'theorem-a', *theorem],\n"
        "             ['--target', 'theorem-b', *theorem]):\n"
        "    sys.argv = ['qtrinom', 'verify', *args, '--format', fmt]\n"
        "    try:\n"
        "        runpy.run_module('qtrinom.cli', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "unused = ('dataclasses', 'inspect', 'logging', 'csv', 'multiprocessing', 'array', 'struct')\n"
        "print(*(name for name in unused if name in sys.modules), file=sys.stderr)\n"
    )
    for fmt in ("json", "csv"):
        proc = subprocess.run([sys.executable, "-S", "-c", script, fmt], env=_cli_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        if fmt == "json":
            reports = [json.loads(line) for line in proc.stdout.splitlines()]
            assert [(r["target"], r["holds"]) for r in reports] == [
                ("babbage", True), ("theorem-a", True), ("theorem-b", True)]
        else:
            rows = list(csv.reader(io.StringIO(proc.stdout)))
            assert rows[0::2] == [CSV_COLUMNS] * 3
            assert [row[:3] for row in rows[1::2]] == [
                ["babbage", "p=3", "true"], ["theorem-a", "a=3;b=1;n=12", "true"], ["theorem-b", "a=3;b=1;n=12", "true"]]
        assert proc.stderr == "\n", fmt
