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
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from dataclasses import dataclass, field
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


class TaskFailed(Exception):
    """A verification task raised something other than a hypothesis failure:
    an internal fault, reported with the task it happened in."""

    def __init__(self, task: VerificationTask, exc: BaseException):
        params = " ".join(f"{k}={v}" for k, v in sorted(task.params.items()))
        super().__init__(f"{task.target} {params}: {type(exc).__name__}: {exc}")


@dataclass
class RunConfig:
    targets: list[str]
    # each grid parameter's values, keyed by its name in TargetSpec.params
    grid: dict[str, list[int]] = field(default_factory=dict)
    format: str = "text"
    jobs: int = 1
    fail_fast: bool = False
    out: str | None = None


def parse_int_list(spec: str, flag: str) -> list[int]:
    """Parse 'lo..hi' (inclusive) or a comma list of integers."""
    values: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo_s, _, hi_s = part.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise UsageError(f"bad range {part!r} for {flag}")
            if hi < lo:
                raise UsageError(f"empty range {part!r} for {flag}")
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(part))
            except ValueError:
                raise UsageError(f"bad integer {part!r} for {flag}")
    return values


def _grid(cfg: RunConfig, target: str, name: str) -> list[int]:
    values = cfg.grid.get(name)
    if not values:
        raise UsageError(f"target {target} requires --{name}")
    return values


def expand_tasks(cfg: RunConfig) -> tuple[list[VerificationTask], list[str]]:
    """Expand the parameter grid per target, skipping invalid combinations.

    Each target's grid is the product of its parameters' values, and a point
    is skipped when the target's hypothesis check rejects it.  Returns the
    deduplicated, deterministically sorted task list plus one warning line
    per skipped combination.
    """
    if not cfg.targets:
        raise UsageError("--target names no target")
    tasks: dict = {}
    warnings: list[str] = []
    for target in cfg.targets:
        spec = TARGETS.get(target)
        if spec is None:
            raise UsageError(
                f"unknown target {target!r}; choose from: {', '.join(TARGETS)}"
            )
        if "k" in spec.params and not cfg.grid.get("k"):
            # the one default grid: k (lemma-2.1) runs over every valid 1..n-1
            points = ((n, k) for n in _grid(cfg, target, "n") for k in range(1, n))
        else:
            points = itertools.product(*(_grid(cfg, target, name) for name in spec.params))
        for point in points:
            params = dict(zip(spec.params, point))
            try:
                spec.check(**params)
            except InvalidParameters as exc:
                pretty = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
                warnings.append(f"skipping {target} {pretty}: {exc}")
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
    params = " ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    status = "ok  " if report.holds else "FAIL"
    line = f"{status} {report.target} {params} mod={_modulus_text(report)}"
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


def report_to_csv_row(report: CongruenceReport) -> list[str]:
    params = ";".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    return [
        report.target,
        params,
        "true" if report.holds else "false",
        str(report.cleared_shift),
        str(report.elapsed_ms),
    ]


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
    writer = csv.writer(stream, lineterminator="\n")
    if fmt == "csv":
        _on_stream(writer.writerow, CSV_COLUMNS)
    for report in reports:
        if fmt == "csv":
            _on_stream(writer.writerow, report_to_csv_row(report))
        else:
            line = report_to_json(report) if fmt == "json" else report_to_text(report)
            _on_stream(stream.write, line + "\n")
        _on_stream(stream.flush)
        if not report.holds:
            any_failed = True
            if fail_fast:
                break
    return 1 if any_failed else 0


def run_verify(cfg: RunConfig, stream: IO[str] | None = None, err: IO[str] | None = None) -> int:
    """Expand, execute, and emit; returns the process exit code."""
    err = err if err is not None else sys.stderr
    tasks, warnings = expand_tasks(cfg)
    for line in warnings:
        print(f"qtrinom: warning: {line}", file=err)
    close_stream = False
    if stream is None:
        if cfg.out:
            try:
                stream = open(cfg.out, "w")
            except OSError as exc:
                raise UsageError(f"cannot write --out {cfg.out}: {exc.strerror}") from None
            close_stream = True
        else:
            stream = sys.stdout
    # more workers than tasks or CPUs only adds start-up cost
    jobs = min(cfg.jobs, len(tasks), os.cpu_count() or 1)
    try:
        if jobs > 1:
            import multiprocessing

            with multiprocessing.Pool(processes=jobs) as pool:
                # imap preserves submission order, which is already the
                # deterministic sorted order
                reports = pool.imap(run_task, tasks, chunksize=1)
                return _emit_stream(_name_faults(tasks, reports), cfg.format, stream, cfg.fail_fast)
        return _emit_stream(_name_faults(tasks, map(run_task, tasks)), cfg.format, stream, cfg.fail_fast)
    finally:
        if close_stream:
            _on_stream(stream.close)


# ---- compute ----


def run_compute(args: argparse.Namespace) -> int:
    def need(name: str) -> int:
        value = getattr(args, name)
        if value is None:
            raise UsageError(f"--object {args.object} requires --{name}")
        return value

    obj = args.object
    if obj == "qbinom":
        result = q_binomial_base(need("n"), need("m"), 1 if args.base is None else args.base)
    elif obj == "cyclotomic":
        n = need("n")
        if n < 1:
            raise UsageError("cyclotomic needs n >= 1")
        result = cyclotomic(n) if args.k is None else cyclotomic_power(n, args.k).poly
    elif obj == "trinomial":
        result = classical_trinomial(need("n"), need("m"))
    elif obj == "qtrinomial":
        result = q_trinomial(_parse_kind(args), need("n"), need("m"))
    elif obj == "truncated":
        result = truncated_q_trinomial(_parse_kind(args), need("a"), need("b"), need("n"))
    elif obj == "theta":
        result = theta(need("n"))
    elif obj == "vartheta":
        result = vartheta(need("n"))
    else:  # pragma: no cover - argparse choices prevent this
        raise UsageError(f"unknown object {obj!r}")
    text = str(result) if obj == "trinomial" else to_text(result)
    _on_stream(sys.stdout.write, text + "\n")
    _on_stream(sys.stdout.flush)
    return 0


def _parse_kind(args: argparse.Namespace) -> TrinomialKind:
    if not args.kind:
        raise UsageError(f"--object {args.object} requires --kind")
    return TrinomialKind(args.kind)


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
    v.add_argument("--n", help="n values: lo..hi or comma list")
    v.add_argument("--a", help="a values: lo..hi or comma list")
    v.add_argument("--b", help="b values: lo..hi or comma list")
    v.add_argument("--p", help="primes: comma list or lo..hi")
    v.add_argument("--k", help="k values for lemma-2.1 (default: all 1..n-1)")
    v.add_argument("--format", choices=("text", "json", "csv"), default="text")
    v.add_argument("--jobs", type=int, default=1, help="worker processes")
    v.add_argument("--fail-fast", action="store_true", help="stop at first failure")
    v.add_argument("--out", help="write the report stream to FILE")

    c = sub.add_parser("compute", help="print one exact polynomial or integer")
    c.add_argument("--object", required=True,
                   choices=("qbinom", "cyclotomic", "trinomial", "qtrinomial",
                            "truncated", "theta", "vartheta"))
    c.add_argument("--kind", choices=[k.value for k in TrinomialKind])
    c.add_argument("--n", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--a", type=int)
    c.add_argument("--b", type=int)
    c.add_argument("--base", type=int, help="binomial base power (qbinom)")
    c.add_argument("--k", type=int, help="cyclotomic power (cyclotomic)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            if args.jobs < 1:
                raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
            cfg = RunConfig(
                targets=[t for chunk in args.target for t in chunk.split(",") if t],
                grid={name: parse_int_list(spec, f"--{name}")
                      for name in ("n", "a", "b", "p", "k") if (spec := getattr(args, name))},
                format=args.format,
                jobs=args.jobs,
                fail_fast=args.fail_fast,
                out=args.out,
            )
            return run_verify(cfg)
        return run_compute(args)
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
