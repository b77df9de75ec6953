"""Run `qtrinom verify` in this process with span wrappers around each layer.

    python perfbench/traced_child.py SPANS_OUT full|cli verify --target ... --format json

The report stream goes to stdout exactly as the CLI writes it.  When the run
ends, the aggregated spans are written to SPANS_OUT as JSON.

`full` wraps the public functions of every module (polyring, cyclotomic,
qcombinatorics, trinomials, congruence, cli); it is meant for --jobs 1.
`cli` wraps only the parent-side functions of `qtrinom.cli`, so a --jobs 2
run records the parent's serialisation and wait time and nothing else (the
forked workers inherit the wrappers but never call them).

Every module binds its imports with `from ... import`, so each wrapper is
installed on the name where it is looked up, not where it is defined.
`qtrinom.cyclotomic` resolves to the re-exported function, so modules are
reached through sys.modules.
"""
from __future__ import annotations

import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import qtrinom.cli  # noqa: E402  (loads every submodule into sys.modules)

polyring = sys.modules["qtrinom.polyring"]
cyclotomic = sys.modules["qtrinom.cyclotomic"]
qcombinatorics = sys.modules["qtrinom.qcombinatorics"]
trinomials = sys.modules["qtrinom.trinomials"]
congruence = sys.modules["qtrinom.congruence"]
cli = sys.modules["qtrinom.cli"]

class Tracer:
    """Aggregates spans in memory: calls, inclusive time, time in child spans."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive s, child s]
        self.counters = {
            "kronecker.coeffs_in": 0,
            "kronecker.coeff_bits_max": 0,
            "memo.lookups": 0,
            "memo.hits": 0,
        }
        self.missing: list[str] = []
        self._open: list[float] = []  # child time accumulated by each open span

    def _record(self, stat, fn, args, kwargs):
        open_spans = self._open
        open_spans.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = open_spans.pop()
            stat[0] += 1
            stat[1] += dt
            stat[2] += child
            if open_spans:
                open_spans[-1] += dt

    def wrap(self, name, fn):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        record = self._record

        def traced(*args, **kwargs):
            return record(stat, fn, args, kwargs)

        return traced

    def patch(self, owner, attr, wrapper_factory):
        """Replace owner.attr by wrapper_factory(original); a missing name is
        recorded instead of failing, so the run still yields the other spans."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, wrapper_factory(original))

    # ---- wrappers with per-call counters ----

    def kronecker(self, fn):
        traced = self.wrap("polyring.kronecker", fn)
        counters = self.counters

        open_spans = self._open

        def wrapper(a, b):
            t0 = perf_counter()
            counters["kronecker.coeffs_in"] += len(a) + len(b)
            bits = max(max(map(abs, a)).bit_length(), max(map(abs, b)).bit_length())
            if bits > counters["kronecker.coeff_bits_max"]:
                counters["kronecker.coeff_bits_max"] = bits
            if open_spans:
                # counting is tracer work: keep it out of the caller's self time
                open_spans[-1] += perf_counter() - t0
            return traced(a, b)

        return wrapper

    def rem_monic(self, fn):
        # a modulus with at most half of its coefficients nonzero, such as
        # (q^n - 1)^k, counts as sparse; Phi_n^k counts as dense
        sparse = self.wrap("polyring.rem_monic_sparse", fn)
        dense = self.wrap("polyring.rem_monic_dense", fn)

        def wrapper(x, m):
            nonzero = sum(1 for c in m.coeffs if c)
            return (sparse if 2 * nonzero <= len(m.coeffs) else dense)(x, m)

        return wrapper

    def q_binomial(self, fn):
        traced = self.wrap("qcombinatorics.q_binomial", fn)
        counters = self.counters
        memo = getattr(qcombinatorics, "_QBINOM", {})

        def wrapper(n, m):
            if 0 <= m <= n:
                counters["memo.lookups"] += 1
                if (n, min(m, n - m)) in memo:
                    counters["memo.hits"] += 1
            return traced(n, m)

        return wrapper

    def q_binomial_base(self, fn):
        traced = self.wrap("qcombinatorics.q_binomial_base", fn)
        counters = self.counters
        memo = getattr(qcombinatorics, "_QBINOM_BASE", {})

        def wrapper(n, m, s):
            # s == 1 delegates to q_binomial, which counts its own lookup
            if s > 1 and 0 <= m <= n:
                counters["memo.lookups"] += 1
                if (n, min(m, n - m), s) in memo:
                    counters["memo.hits"] += 1
            return traced(n, m, s)

        return wrapper

    def span(self, name):
        return lambda fn: self.wrap(name, fn)

    @staticmethod
    def shared(factory):
        """A factory that wraps the first original it sees and hands the same
        wrapper to every later name bound to that function."""
        made = []

        def once(fn):
            if not made:
                made.append(factory(fn))
            return made[0]

        return once

    # ---- installation ----

    def install_cli(self):
        self.patch(cli, "expand_tasks", self.span("cli.expand_tasks"))
        self.patch(cli, "report_to_json", self.span("cli.serialize"))
        self.patch(cli, "_emit_stream", self.span("cli.emit_stream"))

    def install_full(self):
        mul = self.shared(self.span("polyring.mul"))
        self.patch(polyring.LaurentPoly, "__mul__", mul)
        self.patch(polyring.LaurentPoly, "__rmul__", mul)
        self.patch(polyring.LaurentPoly, "__add__", self.span("polyring.add"))
        self.patch(polyring, "_mul_kronecker", self.kronecker)
        self.patch(polyring, "_mul_schoolbook", self.span("polyring.schoolbook"))
        self.patch(congruence, "rem_monic", self.rem_monic)
        exact_div = self.shared(self.span("polyring.exact_div"))
        self.patch(cyclotomic, "exact_div", exact_div)
        self.patch(congruence, "exact_div", exact_div)

        self.patch(cyclotomic, "cyclotomic", self.span("cyclotomic.cyclotomic"))
        self.patch(congruence, "cyclotomic_power", self.span("cyclotomic.cyclotomic_power"))

        q_binomial = self.shared(self.q_binomial)
        for owner in (qcombinatorics, trinomials, congruence):
            self.patch(owner, "q_binomial", q_binomial)
        q_binomial_base = self.shared(self.q_binomial_base)
        for owner in (trinomials, congruence):
            self.patch(owner, "q_binomial_base", q_binomial_base)

        self.patch(congruence, "truncated_q_trinomial", self.span("trinomials.truncated_q_trinomial"))
        self.patch(congruence, "rhs_theorem", self.span("congruence.rhs_theorem"))
        self.patch(congruence, "congruent", self.span("congruence.congruent"))
        self.patch(cli, "run_task", self.span("congruence.run_task"))
        self.install_cli()

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": calls, "incl_s": incl, "self_s": incl - child}
                for name, (calls, incl, child) in self.spans.items()
            },
            "counters": dict(
                self.counters,
                **{
                    "cyclotomic.cache_entries": len(getattr(cyclotomic, "_CACHE", ())),
                    "qcombinatorics.memo_entries": len(getattr(qcombinatorics, "_QBINOM", ()))
                    + len(getattr(qcombinatorics, "_QBINOM_BASE", ())),
                },
            ),
            "missing": self.missing,
        }


def main(argv: list[str]) -> int:
    spans_out, mode, verify_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    if mode == "full":
        tracer.install_full()
    elif mode == "cli":
        tracer.install_cli()
    else:
        raise SystemExit(f"unknown trace mode {mode!r}")
    code = cli.main(verify_argv)
    with open(spans_out, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
