"""Command-line harness: parameter sweeps over verification targets plus
one-off exact computations.

    qtrinom verify --target theorem-a --n 1..6 --a 2 --b 1 --format json
    qtrinom compute --object cyclotomic --n 6

Ranges are written lo..hi (inclusive) or as comma lists.  Reports stream in
a deterministic order (target, then params) regardless of --jobs; exit code
is 0 when every check holds, 1 when any fails, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from typing import IO, Iterable

from .congruence import (
    ALL_TARGETS,
    KIND_BY_TARGET,
    CongruenceReport,
    VerificationTask,
    run_task,
)
from .congruence import theta, vartheta
from .cyclotomic import cyclotomic, cyclotomic_power
from .polyring import from_text, to_text
from .qcombinatorics import q_binomial_base
from .trinomials import (
    InvalidParameters,
    TrinomialKind,
    classical_trinomial,
    is_prime,
    q_trinomial,
    truncated_q_trinomial,
)

# targets whose modulus is an integer p^k rather than a cyclotomic power
_INT_MOD_TARGETS = {"cor-plain", "cor-star", "babbage", "wolstenholme", "ljunggren"}

_TEXT_RESIDUAL_DEGREE_CAP = 40


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    targets: list[str]
    n_range: list[int] | None = None
    a_range: list[int] | None = None
    b_range: list[int] | None = None
    p_list: list[int] | None = None
    k_range: list[int] | None = None
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


def _require(cfg_value: list[int] | None, target: str, flag: str) -> list[int]:
    if not cfg_value:
        raise UsageError(f"target {target} requires {flag}")
    return cfg_value


def _odd_prime_reason(p: int, minimum: int) -> str | None:
    if not is_prime(p):
        return f"p={p} is not prime"
    if p == 2:
        return "p must be odd"
    if p < minimum:
        return f"p must be >= {minimum}"
    return None


def expand_tasks(cfg: RunConfig) -> tuple[list[VerificationTask], list[str]]:
    """Expand the parameter grid per target, skipping invalid combinations.

    Returns the deduplicated, deterministically sorted task list plus one
    warning line per skipped combination.
    """
    tasks: dict = {}
    warnings: list[str] = []

    def add(target: str, reason: str | None = None, **params: int) -> None:
        if reason is not None:
            pretty = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
            warnings.append(f"skipping {target} {pretty}: {reason}")
            return
        task = VerificationTask(target, params)
        tasks[task.sort_key()] = task

    for target in cfg.targets:
        if target in KIND_BY_TARGET:
            for a in _require(cfg.a_range, target, "--a"):
                for b in _require(cfg.b_range, target, "--b"):
                    for n in _require(cfg.n_range, target, "--n"):
                        reason = None
                        if not (a > b >= 1):
                            reason = "requires a > b >= 1"
                        elif n < 1:
                            reason = "requires n >= 1"
                        add(target, reason, a=a, b=b, n=n)
        elif target in ("cor-plain", "cor-star"):
            for a in _require(cfg.a_range, target, "--a"):
                for b in _require(cfg.b_range, target, "--b"):
                    for p in _require(cfg.p_list, target, "--p"):
                        reason = None
                        if not (a > b >= 1):
                            reason = "requires a > b >= 1"
                        else:
                            reason = _odd_prime_reason(p, 3)
                        add(target, reason, a=a, b=b, p=p)
        elif target == "lemma-2.1":
            for n in _require(cfg.n_range, target, "--n"):
                ks = cfg.k_range if cfg.k_range else range(1, max(n, 1))
                for k in ks:
                    reason = None if 1 <= k <= n - 1 else "requires 1 <= k <= n-1"
                    add(target, reason, n=n, k=k)
        elif target in ("lemma-theta", "lemma-vartheta"):
            for n in _require(cfg.n_range, target, "--n"):
                add(target, None if n >= 0 else "requires n >= 0", n=n)
        elif target in ("lemma-theta-inv", "lemma-upsilon-inv"):
            for n in _require(cfg.n_range, target, "--n"):
                add(target, None if n >= 1 else "requires n >= 1", n=n)
        elif target in ("babbage", "andrews-q"):
            for p in _require(cfg.p_list, target, "--p"):
                add(target, _odd_prime_reason(p, 3), p=p)
        elif target == "wolstenholme":
            for p in _require(cfg.p_list, target, "--p"):
                add(target, _odd_prime_reason(p, 5), p=p)
        elif target == "ljunggren":
            for a in _require(cfg.a_range, target, "--a"):
                for b in _require(cfg.b_range, target, "--b"):
                    for p in _require(cfg.p_list, target, "--p"):
                        reason = _odd_prime_reason(p, 5)
                        if reason is None and (a < 0 or b < 0):
                            reason = "requires a, b >= 0"
                        add(target, reason, a=a, b=b, p=p)
        elif target == "straub-q":
            for a in _require(cfg.a_range, target, "--a"):
                for b in _require(cfg.b_range, target, "--b"):
                    for n in _require(cfg.n_range, target, "--n"):
                        reason = None
                        if not (a >= b >= 0):
                            reason = "requires a >= b >= 0"
                        elif n < 1 or math.gcd(n, 6) != 1:
                            reason = "requires n >= 1 with gcd(n, 6) = 1"
                        add(target, reason, a=a, b=b, n=n)
        else:
            raise UsageError(
                f"unknown target {target!r}; choose from: {', '.join(ALL_TARGETS)}"
            )
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
    if report.target in _INT_MOD_TARGETS:
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


def _emit_stream(reports: Iterable[CongruenceReport], fmt: str, stream: IO[str], fail_fast: bool) -> int:
    any_failed = False
    writer = None
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
    for report in reports:
        if fmt == "json":
            stream.write(report_to_json(report) + "\n")
        elif fmt == "csv":
            writer.writerow(report_to_csv_row(report))
        else:
            stream.write(report_to_text(report) + "\n")
        stream.flush()
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
            stream = open(cfg.out, "w")
            close_stream = True
        else:
            stream = sys.stdout
    try:
        if cfg.jobs > 1 and len(tasks) > 1:
            import multiprocessing

            with multiprocessing.Pool(processes=cfg.jobs) as pool:
                # imap preserves submission order, which is already the
                # deterministic sorted order
                return _emit_stream(
                    pool.imap(run_task, tasks, chunksize=1), cfg.format, stream, cfg.fail_fast
                )
        return _emit_stream(map(run_task, tasks), cfg.format, stream, cfg.fail_fast)
    finally:
        if close_stream:
            stream.close()


# ---- compute ----


def run_compute(args: argparse.Namespace) -> int:
    def need(name: str) -> int:
        value = getattr(args, name)
        if value is None:
            raise UsageError(f"--object {args.object} requires --{name}")
        return value

    obj = args.object
    if obj == "qbinom":
        result = q_binomial_base(need("n"), need("m"), args.base or 1)
    elif obj == "cyclotomic":
        n = need("n")
        if n < 1:
            raise UsageError("cyclotomic needs n >= 1")
        result = cyclotomic_power(n, args.k).poly if args.k else cyclotomic(n)
    elif obj == "trinomial":
        print(classical_trinomial(need("n"), need("m")))
        return 0
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
    print(to_text(result))
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
            targets: list[str] = []
            for chunk in args.target:
                targets.extend(t for t in chunk.split(",") if t)
            cfg = RunConfig(
                targets=targets,
                n_range=parse_int_list(args.n, "--n") if args.n else None,
                a_range=parse_int_list(args.a, "--a") if args.a else None,
                b_range=parse_int_list(args.b, "--b") if args.b else None,
                p_list=parse_int_list(args.p, "--p") if args.p else None,
                k_range=parse_int_list(args.k, "--k") if args.k else None,
                format=args.format,
                jobs=max(1, args.jobs),
                fail_fast=args.fail_fast,
                out=args.out,
            )
            return run_verify(cfg)
        return run_compute(args)
    except (UsageError, InvalidParameters, ValueError) as exc:
        print(f"qtrinom: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
