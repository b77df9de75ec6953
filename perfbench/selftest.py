"""Self-test of the traced run, on a tiny grid.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that every span wrapper in
traced_child.py fires (calls > 0) and that the traced report stream has the
same digest as the untraced CLI stream and as expected.json.  Exits 1 on any
failure.
"""
from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    expected = run.load_expected()["selftest"]
    spans_path = os.path.join(run.OUT_DIR, "selftest-spans.json")
    untraced = run.spawn(run.verify_argv(run.SELFTEST_FLAGS, 1), os.path.join(run.OUT_DIR, "selftest-untraced.stderr"))
    traced = run.spawn(
        run.traced_argv(run.SELFTEST_FLAGS, 1, "full", spans_path),
        os.path.join(run.OUT_DIR, "selftest-traced.stderr"),
    )
    with open(spans_path) as fh:
        summary = json.load(fh)
    problems = []
    for name, sweep in (("untraced", untraced), ("traced", traced)):
        if sweep.failures(expected):
            problems.append(f"{name} stream fails the output gate: {sweep.gate}")
    if traced.digest() != untraced.digest():
        problems.append("traced digest differs from untraced digest")
    problems += [f"patch point not found: {name}" for name in summary["missing"]]
    for name in run.SPANS + run.CLI_SPANS:
        calls = summary["spans"].get(name, {}).get("calls", 0)
        print(f"{name:40s} calls={calls}")
        if calls <= 0:
            problems.append(f"span {name} never fired")
    for name, value in summary["counters"].items():
        print(f"{name:40s} {value}")
        if value <= 0:
            problems.append(f"counter {name} stayed at zero")
    for line in problems:
        print(f"FAIL {line}")
    print("PASS" if not problems else f"FAIL ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
