"""Command-line harness: parameter sweeps over verification targets plus
one-off exact computations.

    qtrinom verify --target theorem-a --n 1..6 --a 2 --b 1 --format json
    qtrinom compute --object cyclotomic --n 6

Ranges are written lo..hi (inclusive) or as comma lists.  Reports stream in
a deterministic order (target, then params) regardless of --jobs; exit code
is 0 when every check holds, 1 when any fails, 2 on usage errors and when
the output cannot be written (a full device, say), 3 when a task hits an
internal fault (the reports before it are still emitted), and 141
(128 + SIGPIPE) when the reader closes stdout early, as in `| head -1`.

Every format writes one line per report (csv adds a header line) through
the same write and flush calls.  No csv field can hold a comma, a quote or
a line break, so a csv line is its fields joined by commas.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import IO, Iterable

from .congruence import INT, TARGETS, CongruenceReport, VerificationTask, run_task
from .cyclotomic import cyclotomic, cyclotomic_power
from .polyring import from_text, to_text
from .qcombinatorics import q_binomial_base
from .trinomials import (
    InvalidParameters,
    TrinomialKind,
    classical_trinomial,
    q_trinomial,
    theta,
    truncated_q_trinomial,
    vartheta,
)

_TEXT_RESIDUAL_DEGREE_CAP = 40


class UsageError(Exception):
    pass


class WriteFailed(Exception):
    """The output stream refused a write, flush or close, as a full device does."""


def _params_text(params: dict[str, int]) -> str:
    """A task's parameters as the reports and messages word them: a=2 b=1 n=3."""
    return " ".join(f"{k}={v}" for k, v in sorted(params.items()))


class TaskFailed(Exception):
    """A verification task raised something other than a hypothesis failure:
    an internal fault, reported with the task it happened in."""

    def __init__(self, task: VerificationTask, exc: BaseException):
        super().__init__(f"{task.target} {_params_text(task.params)}: {type(exc).__name__}: {exc}")


# verify's grid flags and their help; each one's values are keyed by its
# name in TargetSpec.params
GRID_FLAGS = {
    "n": "n values: lo..hi or comma list",
    "a": "a values: lo..hi or comma list",
    "b": "b values: lo..hi or comma list",
    "p": "primes: comma list or lo..hi",
    "k": "k values for lemma-2.1 (default: all 1..n-1)",
}
_GRID_OPTIONS = {f"--{name}" for name in GRID_FLAGS}


def parse_int_list(spec: str, flag: str) -> list[int]:
    """Parse a comma list of 'lo..hi' (inclusive) ranges; a single integer
    'a' is the range 'a..a'."""
    values: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        lo_s, dots, hi_s = part.partition("..")
        try:
            lo, hi = map(int, (lo_s, hi_s if dots else lo_s))
        except ValueError:
            raise UsageError(f"bad {'range' if dots else 'integer'} {part!r} for {flag}")
        if hi < lo:
            raise UsageError(f"empty range {part!r} for {flag}")
        values.extend(range(lo, hi + 1))
    return values


def _grid(grid: dict[str, list[int]], target: str, name: str) -> list[int]:
    values = grid.get(name)
    if not values:
        raise UsageError(f"target {target} requires --{name}")
    return values


def expand_tasks(targets: list[str], grid: dict[str, list[int]]) -> tuple[list[VerificationTask], list[str]]:
    """Expand the parameter grid per target, skipping invalid combinations.

    Each target's grid is the product of its parameters' values, and a point
    is skipped when the target's hypothesis check rejects it.  Returns the
    deduplicated, deterministically sorted task list plus one warning line
    per skipped combination.
    """
    if not targets:
        raise UsageError("--target names no target")
    tasks: dict = {}
    warnings: list[str] = []
    for target in targets:
        spec = TARGETS.get(target)
        if spec is None:
            raise UsageError(
                f"unknown target {target!r}; choose from: {', '.join(TARGETS)}"
            )
        if "k" in spec.params and not grid.get("k"):
            # the one default grid: k (lemma-2.1) runs over every valid 1..n-1
            points = ((n, k) for n in _grid(grid, target, "n") for k in range(1, n))
        else:
            points = itertools.product(*(_grid(grid, target, name) for name in spec.params))
        for point in points:
            params = dict(zip(spec.params, point))
            try:
                spec.check(**params)
            except InvalidParameters as exc:
                warnings.append(f"skipping {target} {_params_text(params)}: {exc}")
                continue
            task = VerificationTask(target, params)
            tasks[task.sort_key()] = task
    ordered = [tasks[key] for key in sorted(tasks)]
    return ordered, warnings


# ---- report serialization ----


def report_to_json(report: CongruenceReport) -> str:
    obj = {
        "target": report.target,
        "params": dict(sorted(report.params.items())),
        "holds": report.holds,
        "cleared_shift": report.cleared_shift,
        "residual": to_text(report.residual),
        "modulus": None
        if report.modulus is None
        else {"n": report.modulus[0], "k": report.modulus[1]},
        "elapsed_ms": report.elapsed_ms,
    }
    return json.dumps(obj)


def report_from_json(line: str) -> CongruenceReport:
    obj = json.loads(line)
    modulus = obj["modulus"]
    return CongruenceReport(
        target=obj["target"],
        params={k: int(v) for k, v in obj["params"].items()},
        holds=bool(obj["holds"]),
        residual=from_text(obj["residual"]),
        cleared_shift=int(obj["cleared_shift"]),
        modulus=None if modulus is None else (int(modulus["n"]), int(modulus["k"])),
        elapsed_ms=int(obj["elapsed_ms"]),
    )


def _modulus_text(report: CongruenceReport) -> str:
    if report.modulus is None:
        return "exact"
    n, k = report.modulus
    spec = TARGETS.get(report.target)
    if spec is not None and spec.modulus == INT:
        return f"{n}^{k}"
    return f"Phi({n})^{k}"


def report_to_text(report: CongruenceReport) -> str:
    status = "ok  " if report.holds else "FAIL"
    line = f"{status} {report.target} {_params_text(report.params)} mod={_modulus_text(report)}"
    if report.cleared_shift:
        line += f" shift={report.cleared_shift}"
    if not report.holds:
        residual = report.residual
        if residual.degree - min(0, residual.min_exponent) > _TEXT_RESIDUAL_DEGREE_CAP:
            span = f"degree {residual.degree}, {sum(1 for c in residual.coeffs if c)} terms"
            line += f" residual=<{span}>"
        else:
            line += f" residual={to_text(residual)}"
    return line + f" ({report.elapsed_ms}ms)"


def report_to_csv(report: CongruenceReport) -> str:
    params = ";".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    holds = "true" if report.holds else "false"
    return f"{report.target},{params},{holds},{report.cleared_shift},{report.elapsed_ms}"


CSV_COLUMNS = ["target", "params", "holds", "cleared_shift", "elapsed_ms"]


# ---- execution ----


def _name_faults(tasks: list[VerificationTask], reports: Iterable[CongruenceReport]):
    """Yield reports in task order; a task that raises an internal fault is
    named in a TaskFailed.  Results arrive in task order under --jobs too, so
    the task being fetched is the one that raised."""
    reports = iter(reports)
    for task in tasks:
        try:
            yield next(reports)
        except InvalidParameters:
            raise
        except Exception as exc:
            raise TaskFailed(task, exc) from exc


def _on_stream(op, *args):
    """Run one write, flush or close of the output stream.  An OSError other
    than a closed pipe (which main reports as 141) becomes WriteFailed."""
    try:
        return op(*args)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise WriteFailed(exc.strerror or exc) from None


def _emit_stream(reports: Iterable[CongruenceReport], fmt: str, stream: IO[str], fail_fast: bool) -> int:
    any_failed = False
    if fmt == "csv":
        _on_stream(stream.write, ",".join(CSV_COLUMNS) + "\n")
    for report in reports:
        # each renderer is looked up by name per report, so a wrapper
        # installed on the module (as perfbench's tracer does) sees every call
        line = (report_to_json(report) if fmt == "json"
                else report_to_csv(report) if fmt == "csv" else report_to_text(report))
        _on_stream(stream.write, line + "\n")
        _on_stream(stream.flush)
        if not report.holds:
            any_failed = True
            if fail_fast:
                break
    return 1 if any_failed else 0


def run_verify(args: argparse.Namespace, stream: IO[str] | None = None, err: IO[str] | None = None) -> int:
    """Expand, execute, and emit; returns the process exit code."""
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    err = err if err is not None else sys.stderr
    targets = [t for chunk in args.target for t in chunk.split(",") if t]
    grid = {name: parse_int_list(spec, f"--{name}") for name in GRID_FLAGS if (spec := getattr(args, name))}
    tasks, warnings = expand_tasks(targets, grid)
    for line in warnings:
        print(f"qtrinom: warning: {line}", file=err)
    close_stream = False
    if stream is None:
        if args.out:
            try:
                stream = open(args.out, "w")
            except OSError as exc:
                raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from None
            close_stream = True
        else:
            stream = sys.stdout
    # more workers than tasks or CPUs only adds start-up cost
    jobs = min(args.jobs, len(tasks), os.cpu_count() or 1)
    try:
        if jobs > 1:
            import multiprocessing

            with multiprocessing.Pool(processes=jobs) as pool:
                # imap preserves submission order, which is already the
                # deterministic sorted order
                reports = pool.imap(run_task, tasks, chunksize=1)
                return _emit_stream(_name_faults(tasks, reports), args.format, stream, args.fail_fast)
        return _emit_stream(_name_faults(tasks, map(run_task, tasks)), args.format, stream, args.fail_fast)
    finally:
        if close_stream:
            _on_stream(stream.close)


# ---- compute ----


# each object: the flags it needs, in the order a missing one is reported,
# and how it is built from the parsed arguments (an int or a LaurentPoly)
OBJECTS = {
    "qbinom": (("n", "m"), lambda x: q_binomial_base(x.n, x.m, 1 if x.base is None else x.base)),
    "cyclotomic": (("n",), lambda x: cyclotomic(x.n) if x.k is None else cyclotomic_power(x.n, x.k).poly),
    "trinomial": (("n", "m"), lambda x: classical_trinomial(x.n, x.m)),
    "qtrinomial": (("kind", "n", "m"), lambda x: q_trinomial(TrinomialKind(x.kind), x.n, x.m)),
    "truncated": (("kind", "a", "b", "n"),
                  lambda x: truncated_q_trinomial(TrinomialKind(x.kind), x.a, x.b, x.n)),
    "theta": (("n",), lambda x: theta(x.n)),
    "vartheta": (("n",), lambda x: vartheta(x.n)),
}


def run_compute(args: argparse.Namespace) -> int:
    flags, build = OBJECTS[args.object]
    for name in flags:
        if getattr(args, name) is None:
            raise UsageError(f"--object {args.object} requires --{name}")
    _on_stream(sys.stdout.write, f"{build(args)}\n")
    _on_stream(sys.stdout.flush)
    return 0


# ---- argument parsing ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtrinom",
        description="exact verification of truncated q-trinomial congruences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification sweeps over parameter grids")
    v.add_argument("--target", action="append", required=True,
                   help="verification target (repeatable, comma lists allowed)")
    for name, text in GRID_FLAGS.items():
        v.add_argument(f"--{name}", help=text)
    v.add_argument("--format", choices=("text", "json", "csv"), default="text")
    v.add_argument("--jobs", type=int, default=1, help="worker processes")
    v.add_argument("--fail-fast", action="store_true", help="stop at first failure")
    v.add_argument("--out", help="write the report stream to FILE")

    c = sub.add_parser("compute", help="print one exact polynomial or integer")
    c.add_argument("--object", required=True, choices=OBJECTS)
    c.add_argument("--kind", choices=[k.value for k in TrinomialKind])
    c.add_argument("--n", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--a", type=int)
    c.add_argument("--b", type=int)
    c.add_argument("--base", type=int, help="binomial base power (qbinom)")
    c.add_argument("--k", type=int, help="cyclotomic power (cyclotomic)")
    return parser


def _join_grid_values(argv: list[str]) -> list[str]:
    """`--p -3..-1` as `--p=-3..-1`: argparse reads a separate word that
    starts with `-` and is not a plain negative number as an option.  A word
    that starts with `--` stays an option, so a missing value is named."""
    joined: list[str] = []
    for word in argv:
        if joined and joined[-1] in _GRID_OPTIONS and word[:1] == "-" and word[:2] != "--":
            joined[-1] += "=" + word
        else:
            joined.append(word)
    return joined


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_grid_values(sys.argv[1:] if argv is None else argv))
    try:
        return run_verify(args) if args.command == "verify" else run_compute(args)
    except TaskFailed as exc:
        print(f"qtrinom: internal error in {exc}", file=sys.stderr)
        return 3
    except (BrokenPipeError, WriteFailed) as exc:
        # the output is gone: send what is still buffered to devnull so the
        # interpreter's final flush is silent.  A closed pipe exits as a shell
        # reports a process killed by SIGPIPE, any other write error as bad
        # output, like an --out that cannot be opened
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141
        where = f"--out {args.out}" if getattr(args, "out", None) else "stdout"
        print(f"qtrinom: error: cannot write {where}: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        # InvalidParameters (NotPrime is one) is a ValueError, as are compute's
        # argument errors; a task's other ValueErrors arrive as TaskFailed
        print(f"qtrinom: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
