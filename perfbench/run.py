"""Benchmark for the qtrinom verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seconds S
    python3 perfbench/run.py --record

Run it from the repository root.  Each measured sweep is a fresh
`python -m qtrinom.cli verify ... --format json` child, which is how a user
pays for a sweep: cold q-binomial memo, cold cyclotomic cache.  The harness
itself never imports qtrinom; it times the streamed reports from outside,
takes CPU time and peak RSS of each child from os.wait4, and checks every
stream against the report count, SHA-256 digest (elapsed_ms stripped) and
skip-warning count stored in perfbench/expected.json.

--trace 0 repeats the sweep for S seconds and reports the end-to-end metrics.
The host is shared: the speed of one vCPU for the same code moves by up to
about 1.6x within seconds, and the two vCPUs move independently, so raw times
of the same code jump between runs.  Each measured child therefore takes turns
of TURN_S with a child of a frozen reference, perfbench/reference/qtrinom (a
copy of the package as it was when this benchmark was defined) running the
same grid: both are pinned to one CPU and only one runs at a time (the other
is stopped with SIGSTOP), so both see the same host.  A child's clock runs
only during its own turns.  Each time is reported as the measured time over
the reference's same time in the same run, times what the reference measures
on a 2-vCPU Xeon host in its fast phase (REFERENCE).  The reference never
changes with the code under test, so a slower program still reads slower; raw
times go to the result file in perfbench/out/.  At --jobs 1 each step of the
stream (spawn to first report, report to report, last report to exit) is the
same verdict in every sweep, and wall_s is the sum of each step's median over
the run's sweeps; at --jobs 2 reports come in bursts, children are not pinned
and wall_s is the mean over sweeps.  The verdict percentiles are taken over
the gaps between reports of all the run's sweeps, and cpu_s is wall_s times
the run's total child CPU over total child wall time (os.wait4).
--trace 1 reports the per-layer metrics instead: kernel microbenchmarks
(perfbench/micro.py), one untraced sweep, one sweep at --jobs 1 with span
wrappers around every module (perfbench/traced_child.py) and one
sweep at --jobs 2 (at most nproc) with wrappers in the parent process only,
which gives the cli metrics of the multiprocessing path.

The seed only permutes the order in which the steps of a run execute; the
grids are fixed.  The last stdout line is the JSON result; a copy with
machine facts goes to perfbench/out/.  --record rewrites expected.json from
the current code and must only be used when the expected output changes
deliberately.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import re
import select
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
# frozen copy of src/qtrinom that every measured child is compared with
REFERENCE_SRC = os.path.join(HERE, "reference")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "out")
# every child is killed at this many seconds after the run started, so a run
# ends well inside the 180 s a caller allows it
RUN_DEADLINE_S = 170
_STARTED = perf_counter()

THEOREMS = "theorem-a,theorem-b,theorem-c,theorem-d,theorem-e,theorem-f"
LEMMA_INTRO = (
    "lemma-2.1,lemma-theta,lemma-vartheta,lemma-theta-inv,lemma-upsilon-inv,"
    "babbage,wolstenholme,ljunggren,andrews-q,straub-q,cor-plain,cor-star"
)
THEOREM_GRID = ("--target", THEOREMS, "--n", "1..20", "--a", "2..4", "--b", "1..3")

# name -> (verify flags without --jobs, --jobs).  Why each one exists:
#  theorem-grid     the paper's 720-case acceptance grid; Kronecker pack/unpack
#                   dominates, so a polyring kernel gain shows here
#  ladder           18 huge tasks; the big-int product and memo rows (peak RSS)
#                   dominate, so the quotient-ring path shows here
#  lemma-intro      1214 tiny tasks; Pascal adds, exact_div, rem_monic and
#                   serialisation, and none of the theorem lhs/rhs code
#  theorem-grid-j2  the only workload on the cli multiprocessing path
# ladder and theorem-grid-j2 are gated and runnable but left out of
# BENCHMARK.json.  A third workload would cut every run to about 44 s, which on
# a slow host leaves time for one theorem-grid sweep per role, and the verdict
# percentiles of one sweep spread too much between runs.  The children of
# theorem-grid-j2 use both CPUs, so its turns with the reference are not pinned
# to one CPU.  The --jobs 2 path is still traced in every --trace 1 run (cli.*
# metrics).
WORKLOADS = {
    "theorem-grid": (THEOREM_GRID, 1),
    "ladder": (("--target", THEOREMS, "--n", "24,30,36", "--a", "4", "--b", "1"), 1),
    "lemma-intro": (
        ("--target", LEMMA_INTRO, "--n", "0..40", "--a", "2..4", "--b", "1..3",
         "--p", "5,7,11,13,17,19,23"),
        1,
    ),
    "theorem-grid-j2": (THEOREM_GRID, 2),
}
# verify --target babbage --p 3: interpreter start, package import and one
# trivial verdict; timed over and over, in turns with the reference, for
# this share of a run's seconds, and the median reported
SETUP_FLAGS = ("--target", "babbage", "--p", "3")
SETUP_SHARE = 0.05
# tiny grid on which every traced span fires (see selftest.py)
SELFTEST_FLAGS = ("--target", THEOREMS + ",lemma-theta-inv", "--n", "1..8", "--a", "2..3", "--b", "1..2")

SPANS = (
    "polyring.mul",
    "polyring.kronecker",
    "polyring.schoolbook",
    "polyring.add",
    "polyring.rem_monic_sparse",
    "polyring.rem_monic_dense",
    "polyring.exact_div",
    "cyclotomic.cyclotomic",
    "cyclotomic.cyclotomic_power",
    "qcombinatorics.q_binomial",
    "qcombinatorics.q_binomial_base",
    "trinomials.truncated_q_trinomial",
    "congruence.rhs_theorem",
    "congruence.congruent",
    "congruence.run_task",
)
CLI_SPANS = ("cli.expand_tasks", "cli.serialize", "cli.emit_stream")
# the inclusive time of these spans is the phase a verdict spends in
PHASES = {
    "trinomials.truncated_q_trinomial": "phase.lhs_s",
    "congruence.rhs_theorem": "phase.rhs_s",
    "congruence.congruent": "phase.reduce_s",
}

NO_SPAN = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}

_ELAPSED = re.compile(rb', "elapsed_ms": -?\d+\}$')


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a child hung, ...)."""


# ---- children ----


@dataclass
class Sweep:
    """One child process: its stream, timing and resource usage."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    lines: list[bytes]
    stamps: list[float]
    warnings: int
    gate: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for line in self.lines:
            h.update(_ELAPSED.sub(b"}", line.rstrip(b"\n")) + b"\n")
        return h.hexdigest()

    def all_hold(self) -> bool:
        try:
            return all(json.loads(line)["holds"] is True for line in self.lines)
        except (ValueError, KeyError, TypeError):
            return False

    def steps_s(self) -> list[float]:
        """Durations of the sweep's steps: spawn to the first report, each
        report to the next, and the last report to exit."""
        marks = [0.0, *self.stamps, self.wall_s]
        return [b - a for a, b in zip(marks, marks[1:])]

    def verdict_gaps_ms(self) -> list[float]:
        """Gaps between consecutive reports; the CLI flushes each report, so a
        gap is the time one more verdict took to reach the reader."""
        s = self.stamps
        return [(b - a) * 1e3 for a, b in zip(s, s[1:])]

    def failures(self, expected: dict) -> int:
        """Verdicts lost by this sweep: all of them when anything in the gate
        differs, since a changed stream cannot be trusted line by line."""
        self.gate = {
            "reports": len(self.lines),
            "sha256": self.digest(),
            "warnings": self.warnings,
            "exit_code": self.exit_code,
            "all_hold": self.all_hold(),
        }
        ok = (
            self.exit_code == 0
            and self.gate["all_hold"]
            and all(self.gate[key] == expected[key] for key in ("reports", "sha256", "warnings"))
        )
        return 0 if ok else expected["reports"]


def child_env(src: str | None = None) -> dict:
    env = dict(os.environ)
    src = src or os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Child:
    """A child process whose stdout lines are stamped as they arrive, by a
    clock that starts at spawn and runs only while the child is not stopped,
    so that stamps and wall time read as if it had run alone.

    The child leads its own process group, so that it and its pool workers
    can be stopped, continued and killed together; stderr goes to a file so
    it never blocks.  The package is imported from `src` (default: ./src)."""

    def __init__(self, argv: list[str], src: str | None, err_path: str, cpu: int | None):
        self.err = open(err_path, "wb")
        self.err_path = err_path
        self.t0 = perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self.err, env=child_env(src), start_new_session=True
        )
        if cpu is not None:
            # pool workers inherit it
            with contextlib.suppress(OSError):
                os.sched_setaffinity(self.proc.pid, {cpu})
        self.fd = self.proc.stdout.fileno()
        self.paused_s = 0.0
        self.stopped_at: float | None = None
        self.pending = b""
        self.lines: list[bytes] = []
        self.stamps: list[float] = []

    def clock(self) -> float:
        now = self.stopped_at if self.stopped_at is not None else perf_counter()
        return now - self.t0 - self.paused_s

    def stop(self) -> None:
        # a child that has just exited is read to its end on its next turn
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGSTOP)
        self.stopped_at = perf_counter()

    def resume(self) -> None:
        self.paused_s += perf_counter() - self.stopped_at
        self.stopped_at = None
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGCONT)

    def read(self) -> bool:
        """Read what the child wrote; False at end of file."""
        data = os.read(self.fd, 1 << 16)
        stamp = self.clock()
        *complete, self.pending = (self.pending + data).split(b"\n")
        if not data and self.pending:
            # a last line without a newline
            complete.append(self.pending)
        for line in complete:
            self.lines.append(line + b"\n")
            self.stamps.append(stamp)
        return bool(data)

    def finish(self) -> Sweep:
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = self.clock()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.close()
        if self.proc.returncode == -signal.SIGKILL:
            raise BenchError(f"child killed (out of memory?): {' '.join(self.proc.args)}")
        with open(self.err_path, "rb") as err:
            warnings = sum(1 for line in err if line.startswith(b"qtrinom: warning:"))
        return Sweep(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024,
            exit_code=self.proc.returncode,
            lines=self.lines,
            stamps=self.stamps,
            warnings=warnings,
        )

    def kill(self) -> None:
        """Kill the child unless it has been waited for."""
        if self.proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.close()

    def close(self) -> None:
        self.proc.stdout.close()
        self.err.close()


def spawn(argv: list[str], err_path: str, src: str | None = None) -> Sweep:
    """Run argv to completion."""
    child = Child(argv, src, err_path, None)
    try:
        while (left := _STARTED + RUN_DEADLINE_S - perf_counter()) > 0:
            ready, _, _ = select.select([child.fd], [], [], left)
            if ready and not child.read():
                return child.finish()
        raise BenchError(f"run deadline passed: {' '.join(argv)}")
    finally:
        child.kill()


def verify_argv(flags, jobs: int) -> list[str]:
    return [sys.executable, "-m", "qtrinom.cli", "verify", *flags, "--jobs", str(jobs), "--format", "json"]


def traced_argv(flags, jobs: int, mode: str, spans_path: str) -> list[str]:
    return [
        sys.executable, os.path.join(HERE, "traced_child.py"), spans_path, mode,
        "verify", *flags, "--jobs", str(jobs), "--format", "json",
    ]


def workload_jobs(jobs: int) -> int:
    # load comes from one child at a time and never asks for more than nproc
    return max(1, min(jobs, os.cpu_count() or 1))


# ---- measured and reference children, taking turns ----

# What the frozen reference (perfbench/reference) measures on a 2-vCPU Xeon
# host in its fast phase.  Each end-to-end time is the measured time over the
# reference's same time in the same run, times the value here, so that each is
# normalised by a reference of its own kind: whole sweeps by whole sweeps,
# short verdicts by short verdicts (which a loaded host slows differently).
REFERENCE = {
    "theorem-grid": {"wall_s": 3.1, "verdict_ms_p50": 1.36, "verdict_ms_p90": 12.6},
    "ladder": {"wall_s": 4.4, "verdict_ms_p50": 198.0, "verdict_ms_p90": 529.0},
    "lemma-intro": {"wall_s": 1.24, "verdict_ms_p50": 0.0412, "verdict_ms_p90": 1.06},
    "theorem-grid-j2": {"wall_s": 1.78, "verdict_ms_p50": 0.0067, "verdict_ms_p90": 9.0},
    "setup": {"wall_s": 0.07},
}
# a turn lasts this long; the host's speed drifts over half a second and more
TURN_S = 0.05


def child_cpu() -> tuple[int, bool]:
    """The CPU to pin children to, so that turns of both roles run under the
    same conditions of the host, and whether this process could move off it."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[1:])
    return cpus[0], len(cpus) > 1


def take_turns(roles: dict, seconds: float, order: list[str], err_path, cpu: int | None, spin: bool) -> dict:
    """Run each role's child in turns of TURN_S, in `order`, starting a new
    child of a role when its last one ends, for `seconds` and until every
    role has ended at least one child.  roles maps a role to (argv, src);
    returns the finished Sweeps of each role.  Children still running at
    the end are killed and not counted, so every counted child ran in turns
    with the others.  With `spin` this process polls the pipe instead of
    sleeping on it: it then needs no wake-up per report, whose cost on a
    virtual CPU varies and would land in the short verdicts; only use it when
    this process has a CPU of its own."""
    done: dict[str, list[Sweep]] = {role: [] for role in roles}
    live: dict[str, Child] = {}
    end = perf_counter() + seconds
    turn = 0
    try:
        while perf_counter() < end or not all(done.values()):
            role = order[turn % len(order)]
            turn += 1
            child = live.get(role)
            if child is None:
                child = live[role] = Child(*roles[role], err_path(), cpu)
            else:
                child.resume()
            turn_end = perf_counter() + TURN_S
            while (left := turn_end - perf_counter()) > 0:
                if perf_counter() > _STARTED + RUN_DEADLINE_S:
                    raise BenchError("run deadline passed before every child finished")
                ready, _, _ = select.select([child.fd], [], [], 0 if spin else left)
                if ready and not child.read():
                    done[role].append(live.pop(role).finish())
                    break
            else:
                child.stop()
    finally:
        for child in live.values():
            child.kill()
    return done


def stream_times(sweeps: list[Sweep], jobs: int) -> dict:
    """wall_s of the typical sweep among `sweeps`, and percentiles of the
    gaps between reports of all of them."""
    if jobs == 1:
        # reports arrive in task order, so step i is the same verdict in
        # every sweep: the typical sweep is each step's median
        wall = sum(statistics.median(step) for step in zip(*(s.steps_s() for s in sweeps)))
    else:
        # Pool.imap delivers reports in bursts, so steps do not line up
        wall = statistics.mean(s.wall_s for s in sweeps)
    gaps = [g for s in sweeps for g in s.verdict_gaps_ms()]
    return {
        "wall_s": wall,
        "verdict_ms_p50": statistics.median(gaps),
        "verdict_ms_p90": statistics.quantiles(gaps, n=10)[8],
    }


# ---- runs ----


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: int):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.flags, jobs = WORKLOADS[workload]
        self.jobs = workload_jobs(jobs)
        self.rng = random.Random(seed)
        self.expected = load_expected()
        self.tag = f"{workload}-seed{seed}-trace{trace}"
        self.attempted = 0
        self.failed = 0
        self.gates: list[dict] = []
        self.extra: dict = {}
        self._children = 0
        # children's CPU, and whether this process polls their pipes
        self.cpu: int | None = None
        self.spin = False

    def _err_path(self) -> str:
        self._children += 1
        return os.path.join(OUT_DIR, f"{self.tag}-child{self._children}.stderr")

    def checked(self, sweep: Sweep, expected: dict) -> Sweep:
        self.attempted += expected["reports"]
        self.failed += sweep.failures(expected)
        self.gates.append(sweep.gate)
        return sweep

    def sweep(self, flags=None, jobs=None, key=None) -> Sweep:
        flags = self.flags if flags is None else flags
        jobs = self.jobs if jobs is None else jobs
        sweep = spawn(verify_argv(flags, jobs), self._err_path())
        return self.checked(sweep, self.expected[key or self.workload])

    def traced(self, mode: str, jobs: int) -> tuple[Sweep, dict]:
        spans_path = os.path.join(OUT_DIR, f"{self.tag}-{mode}-spans.json")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        sweep = spawn(traced_argv(self.flags, jobs, mode, spans_path), self._err_path())
        self.checked(sweep, self.expected[self.workload])
        try:
            with open(spans_path) as fh:
                spans = json.load(fh)
        except (OSError, ValueError):
            spans = None
        if spans is None:
            self.failed += 1
            self.attempted += 1
            spans = {"spans": {}, "counters": {}, "missing": ["spans file"]}
        return sweep, spans

    def turns(self, flags, jobs: int, key: str, seconds: float) -> tuple[list[Sweep], list[Sweep]]:
        """Measured and reference children of one grid, taking turns; returns
        the finished sweeps of each."""
        argv = verify_argv(flags, jobs)
        order = ["measured", "reference"]
        self.rng.shuffle(order)
        done = take_turns(
            {"measured": (argv, None), "reference": (argv, REFERENCE_SRC)},
            seconds, order, self._err_path, self.cpu, self.spin,
        )
        for sweep in done["reference"]:
            # the frozen reference must run cleanly, or the benchmark is broken
            if sweep.exit_code != 0 or not sweep.lines or not sweep.all_hold():
                raise BenchError(f"reference sweep failed (exit {sweep.exit_code}); see {OUT_DIR}")
        return [self.checked(s, self.expected[key]) for s in done["measured"]], done["reference"]

    # ---- --trace 0 ----

    def end_to_end(self) -> dict:
        if self.jobs == 1:
            self.cpu, self.spin = child_cpu()
        started = perf_counter()
        # untimed probes first, so bytecode compilation is not timed
        self.sweep(SETUP_FLAGS, 1, "setup")
        spawn(verify_argv(SETUP_FLAGS, 1), self._err_path(), REFERENCE_SRC)
        setup_s = SETUP_SHARE * self.seconds
        setup_first = self.rng.random() < 0.5
        if setup_first:
            setup, ref_setup = self.turns(SETUP_FLAGS, 1, "setup", setup_s)
        sweeps, reference = self.turns(
            self.flags, self.jobs, self.workload, self.seconds - setup_s - (perf_counter() - started)
        )
        if not setup_first:
            setup, ref_setup = self.turns(SETUP_FLAGS, 1, "setup", setup_s)
        raw = {"measured": stream_times(sweeps, self.jobs), "reference": stream_times(reference, self.jobs)}
        times = {
            name: value / raw["reference"][name] * REFERENCE[self.workload][name]
            for name, value in raw["measured"].items()
        }
        setup_ratio = statistics.median(s.wall_s for s in setup) / statistics.median(s.wall_s for s in ref_setup)
        cpu_share = sum(s.cpu_s for s in sweeps) / sum(s.wall_s for s in sweeps)
        self.extra = {
            "sweeps": len(sweeps), "reference_sweeps": len(reference), "raw": raw, "cpu_share": cpu_share,
            "sweep_wall_s": [s.wall_s for s in sweeps], "reference_wall_s": [s.wall_s for s in reference],
            "setup_wall_s": [s.wall_s for s in setup], "reference_setup_wall_s": [s.wall_s for s in ref_setup],
        }
        return {
            "tasks_per_s": (len(sweeps[0].lines) / times["wall_s"], "1/s"),
            "wall_s": (times["wall_s"], "s"),
            "verdict_ms_p50": (times["verdict_ms_p50"], "ms"),
            "verdict_ms_p90": (times["verdict_ms_p90"], "ms"),
            "cpu_s": (times["wall_s"] * cpu_share, "s"),
            "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in sweeps), "MiB"),
            "setup_s": (setup_ratio * REFERENCE["setup"]["wall_s"], "s"),
        }

    # ---- --trace 1 ----

    def per_layer(self) -> dict:
        steps = ["micro", "untraced", "traced"]
        self.rng.shuffle(steps)
        done = {}
        for step in steps:
            if step == "micro":
                done[step] = self.micro()
            elif step == "untraced":
                done[step] = self.sweep()
            else:
                # full wrappers only work in one process; at --jobs 2 the
                # module spans would stay in the pool workers
                done[step] = self.traced("full", 1)
                done["parent"] = self.traced("cli", workload_jobs(2))
        untraced = done["untraced"]
        full, spans = done["traced"]
        parent, cli_spans = done["parent"]
        metrics = dict(done["micro"])
        metrics.update(span_metrics(spans))
        metrics.update(cli_metrics(cli_spans))
        # the comparable traced run is the one at the workload's own --jobs
        traced = full if self.jobs == 1 else parent
        overhead = traced.wall_s - untraced.wall_s
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_ratio"] = (overhead / untraced.wall_s, "ratio")
        self.extra = {
            "untraced_wall_s": untraced.wall_s,
            "traced_wall_s": full.wall_s,
            "parent_traced_wall_s": parent.wall_s,
            "parent_traced_jobs": workload_jobs(2),
            "missing_patch_points": sorted(set(spans["missing"]) | set(cli_spans["missing"])),
        }
        return metrics

    def micro(self) -> dict:
        err_path = self._err_path()
        with open(err_path, "wb") as err:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "micro.py"), str(self.seed)],
                stdout=subprocess.PIPE, stderr=err, env=child_env(),
                timeout=max(1.0, _STARTED + RUN_DEADLINE_S - perf_counter()),
            )
        self.attempted += 1
        try:
            result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            raise BenchError(f"microbenchmarks printed no result; see {err_path}")
        if proc.returncode != 0 or not result["ok"]:
            self.failed += 1
        return {name: tuple(pair) for name, pair in result["metrics"].items()}


def span_metrics(summary: dict) -> dict:
    spans, counters = summary["spans"], summary["counters"]
    metrics = {}
    for name in SPANS:
        stat = spans.get(name, NO_SPAN)
        metrics[f"{name}.calls"] = (stat["calls"], "count")
        metrics[PHASES.get(name, f"{name}.incl_s")] = (stat["incl_s"], "s")
        metrics[f"{name}.self_s"] = (stat["self_s"], "s")
    lookups = counters.get("memo.lookups", 0)
    metrics.update({
        "polyring.kronecker.coeffs_in": (counters.get("kronecker.coeffs_in", 0), "count"),
        "polyring.kronecker.coeff_bits_max": (counters.get("kronecker.coeff_bits_max", 0), "bits"),
        "cyclotomic.cache_entries": (counters.get("cyclotomic.cache_entries", 0), "count"),
        "qcombinatorics.memo_entries": (counters.get("qcombinatorics.memo_entries", 0), "count"),
        "qcombinatorics.memo_hit_ratio": (
            counters.get("memo.hits", 0) / lookups if lookups else 0.0, "ratio"),
    })
    return metrics


def cli_metrics(summary: dict) -> dict:
    spans = summary["spans"]
    serialize = spans.get("cli.serialize", NO_SPAN)
    emit = spans.get("cli.emit_stream", NO_SPAN)
    return {
        "cli.expand_tasks_s": (spans.get("cli.expand_tasks", NO_SPAN)["incl_s"], "s"),
        "cli.serialize.calls": (serialize["calls"], "count"),
        "cli.serialize.s": (serialize["incl_s"], "s"),
        # the emitter's time not spent serialising: waiting for the next
        # report (the pool at --jobs 2, the task itself at --jobs 1) and writing
        "cli.pool_wait_s": (emit["incl_s"] - serialize["incl_s"], "s"),
    }


# ---- expected outputs ----


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def record() -> None:
    """Rewrite expected.json from one sweep of every grid with the current code."""
    grids = {name: flags for name, (flags, _) in WORKLOADS.items()}
    grids.update(setup=SETUP_FLAGS, selftest=SELFTEST_FLAGS)
    expected = {}
    for name, flags in grids.items():
        sweep = spawn(verify_argv(flags, 1), os.path.join(OUT_DIR, f"record-{name}.stderr"))
        if sweep.exit_code != 0 or not sweep.all_hold():
            raise BenchError(f"{name}: exit {sweep.exit_code}, not every report holds")
        expected[name] = {"reports": len(sweep.lines), "sha256": sweep.digest(), "warnings": sweep.warnings}
        print(f"{name}: {expected[name]}")
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=2)
        fh.write("\n")


# ---- output ----


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": model}


def run_all(seed: int, seconds: int) -> int:
    """Every workload, end-to-end and then per-layer, each in its own process."""
    code = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.Popen([
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ])
            try:
                code = proc.wait() or code
            finally:
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait()
    return code


def _terminate(signum, frame):
    # unwinds through spawn(), which kills the running child's process group
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    parser.add_argument("--all", action="store_true", help="run every workload at --trace 0 and 1")
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join("src", "qtrinom", "cli.py")):
            raise BenchError("run from the repository root: src/qtrinom/cli.py not found")
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.record:
            record()
            return 0
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            parser.error("--workload is required")
        if not os.path.isfile(EXPECTED_PATH):
            raise BenchError(f"{EXPECTED_PATH} not found; run --record first")
        run = Run(args.workload, args.seed, args.seconds, args.trace)
        metrics = run.per_layer() if args.trace else run.end_to_end()
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    facts = machine_facts()
    with open(os.path.join(OUT_DIR, f"{run.tag}.json"), "w") as fh:
        json.dump(dict(result, workload=run.workload, seed=run.seed, seconds=run.seconds,
                       trace=run.trace, jobs=run.jobs, machine=facts, details=run.extra,
                       gates=run.gates), fh, indent=1)
    print(f"# {run.tag}: nproc={facts['nproc']} python={facts['python']} cpu={facts['cpu_model']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':48s} {run.failed / run.attempted:14.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
