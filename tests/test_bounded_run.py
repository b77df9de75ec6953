"""tests/bounded_run.py, the CI's bounded-run check: it passes a sweep that
holds within its bounds, and fails on a nonzero exit and on a bound."""

import os
import subprocess
import sys

import bounded_run

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "bounded_run.py")
PYTHONPATH = os.pathsep.join(filter(None, [os.path.join(HERE, os.pardir, "src"), os.environ.get("PYTHONPATH")]))


def _run(*args):
    return subprocess.run([sys.executable, SCRIPT, *args], env=dict(os.environ, PYTHONPATH=PYTHONPATH),
                          capture_output=True, text=True, timeout=60)


def test_sweep_within_bounds_exits_0_with_a_reading():
    proc = _run("--target", "babbage", "--p", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("--target babbage --p 3: exit code 0, peak RSS ")
    assert " MiB (floor " in proc.stdout and " CPU " in proc.stdout


def test_failed_check_exits_1_and_names_the_exit_code():
    # cor-plain does not hold at (a, b, p) = (2, 1, 3)
    proc = _run("--target", "cor-plain", "--a", "2", "--b", "1", "--p", "3")
    assert proc.returncode == 1
    assert "exit code 1" in proc.stdout
    assert "verify exited with 1" in proc.stderr


def test_peak_rss_above_the_bound_fails(monkeypatch, capsys):
    monkeypatch.setattr(bounded_run, "MAX_RSS_MIB", 1)
    monkeypatch.setenv("PYTHONPATH", PYTHONPATH)
    assert bounded_run.main(["--target", "babbage", "--p", "3"]) == 1
    assert "above the 1 MiB bound" in capsys.readouterr().err
