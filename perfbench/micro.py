"""Kernel microbenchmarks for qtrinom's layers, run in a fresh process.

    python perfbench/micro.py SEED

Times each multiplication kernel, the two rem_monic reductions, a Pascal-row
build, cyclotomic() and JSON emit/parse on inputs drawn from SEED, checks each
result against a reference, and prints one JSON object on stdout:
{"ok": bool, "metrics": {name: [value, unit]}}.
"""
from __future__ import annotations

import json
import math
import os
import random
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import qtrinom.cli  # noqa: E402

polyring = sys.modules["qtrinom.polyring"]
cyclotomic = sys.modules["qtrinom.cyclotomic"]
qcombinatorics = sys.modules["qtrinom.qcombinatorics"]
congruence = sys.modules["qtrinom.congruence"]
cli = sys.modules["qtrinom.cli"]

MUL_SIZES = (64, 256, 1024, 4096, 8192)
COEFF_BITS = {"small": 16, "1kbit": 1024}
# Schoolbook cost is exactly rows * len(b) multiply-adds, so a product larger
# than this many multiply-adds is timed on a prefix of its rows and scaled.
SCHOOLBOOK_WORK = 1 << 17
# square products of these lengths bracket the schoolbook/Kronecker crossover
CROSSOVER_LENGTHS = (4, 6, 8, 11, 16, 23, 32, 45, 64)


def clear_cache(module, name: str) -> None:
    """Empty a module-level memo so the next build starts cold; a memo that a
    later version no longer has needs no clearing."""
    cache = getattr(module, name, None)
    if cache is not None:
        cache.clear()


def per_call(fn, budget=0.02, reps=3) -> float:
    """Median seconds per call of fn(), looping cheap calls up to the budget."""
    t0 = perf_counter()
    fn()
    first = perf_counter() - t0
    if first > 0.25:
        return first
    number = max(1, int(budget / max(first, 1e-7)))
    samples = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        samples.append((perf_counter() - t0) / number)
    return statistics.median(samples)


def signed(rng: random.Random, bits: int, count: int) -> list[int]:
    return [rng.getrandbits(bits) - (1 << (bits - 1)) or 1 for _ in range(count)]


def bench_mul(rng, metrics, failures):
    kron, school = polyring._mul_kronecker, polyring._mul_schoolbook
    for label, bits in COEFF_BITS.items():
        for n in MUL_SIZES:
            a, b = signed(rng, bits, n), signed(rng, bits, n)
            rows = min(n, max(1, SCHOOLBOOK_WORK // n))
            if kron(a[:rows], b) != school(a[:rows], b):
                failures.append(f"kronecker != schoolbook at {n} {label}")
            metrics[f"micro.mul.kronecker.{n}.{label}_ms"] = (per_call(lambda: kron(a, b)) * 1e3, "ms")
            metrics[f"micro.mul.schoolbook.{n}.{label}_ms"] = (
                per_call(lambda: school(a[:rows], b)) * n / rows * 1e3,
                "ms",
            )
        # the smallest len(a)*len(b) from which Kronecker stays the faster
        # kernel; the top of the bracket when it never wins inside it
        crossover = CROSSOVER_LENGTHS[-1] ** 2
        for length in reversed(CROSSOVER_LENGTHS):
            a, b = signed(rng, bits, length), signed(rng, bits, length)
            if per_call(lambda: kron(a, b)) >= per_call(lambda: school(a, b)):
                break
            crossover = length * length
        metrics[f"micro.mul.crossover_terms.{label}"] = (crossover, "count")
    metrics["micro.mul.schoolbook_limit"] = (getattr(polyring, "_SCHOOLBOOK_LIMIT", -1), "count")


def bench_rem_monic(rng, metrics, failures):
    n, k = 35, 2
    x = polyring.LaurentPoly(0, signed(rng, 16, 20000))
    sparse = (polyring.monomial(n) - polyring.ONE) ** k
    dense = cyclotomic.cyclotomic_power(n, k).poly
    if polyring.rem_monic(polyring.rem_monic(x, sparse), dense) != polyring.rem_monic(x, dense):
        failures.append("sparse pre-fold changes the rem_monic residual")
    metrics["micro.rem_monic.sparse_ms"] = (per_call(lambda: polyring.rem_monic(x, sparse)) * 1e3, "ms")
    metrics["micro.rem_monic.dense_ms"] = (per_call(lambda: polyring.rem_monic(x, dense)) * 1e3, "ms")


def bench_pascal(metrics, failures):
    top = 60

    def build():
        clear_cache(qcombinatorics, "_QBINOM")
        clear_cache(qcombinatorics, "_QBINOM_BASE")
        return [qcombinatorics.q_binomial(top, m) for m in range(top + 1)]

    if [polyring.eval_at_one(p) for p in build()] != [math.comb(top, m) for m in range(top + 1)]:
        failures.append("q_binomial row does not evaluate to binomials at q=1")
    metrics["micro.pascal_row_ms"] = (per_call(build) * 1e3, "ms")


def totient(n: int) -> int:
    return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)


def bench_cyclotomic(metrics, failures):
    top = 300

    def build():
        clear_cache(cyclotomic, "_CACHE")
        return [cyclotomic.cyclotomic(n) for n in range(1, top + 1)]

    if [p.degree for p in build()] != [totient(n) for n in range(1, top + 1)]:
        failures.append("cyclotomic degree differs from Euler's totient")
    metrics["micro.cyclotomic_ms"] = (per_call(build) * 1e3, "ms")


def bench_json(metrics, failures):
    tasks = [
        congruence.VerificationTask(target, {"a": 3, "b": 1, "n": n})
        for target in congruence.TARGET_BY_KIND.values()
        for n in range(1, 13)
    ]
    reports = [congruence.run_task(t) for t in tasks]
    lines = [cli.report_to_json(r) for r in reports]
    if [cli.report_from_json(line) for line in lines] != reports:
        failures.append("JSON round trip changes a report")
    emit = per_call(lambda: [cli.report_to_json(r) for r in reports])
    parse = per_call(lambda: [cli.report_from_json(line) for line in lines])
    metrics["micro.json.emit_us"] = (emit / len(reports) * 1e6, "us")
    metrics["micro.json.parse_us"] = (parse / len(reports) * 1e6, "us")


def main(seed: int) -> int:
    rng = random.Random(seed)
    metrics: dict[str, tuple] = {}
    failures: list[str] = []
    bench_mul(rng, metrics, failures)
    bench_rem_monic(rng, metrics, failures)
    bench_pascal(metrics, failures)
    bench_cyclotomic(metrics, failures)
    bench_json(metrics, failures)
    for line in failures:
        print(f"micro: {line}", file=sys.stderr)
    print(json.dumps({"ok": not failures, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
