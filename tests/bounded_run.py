"""Run one `qtrinom verify` sweep in a child process and hold it to the CI's
resource bounds:

    PYTHONPATH=src python tests/bounded_run.py --target lemma-2.1 --n 100

runs `python -m qtrinom verify ARGS --format json` with stdout sent to
/dev/null and stderr inherited, prints the child's exit code, peak RSS and
CPU time (user plus system) from os.wait4, and exits 1 if the child exited
nonzero or went above MAX_RSS_MIB or MAX_CPU_S.  These two constants are the
only place the CI bounds are written; every bounded step uses them.

Linux carries a process's high-water RSS through fork and exec into its
child's ru_maxrss, so no child can read a peak below this script's own.
This script therefore imports only os, resource and sys, and prints its own
peak as the `floor` of every reading.  That reading also holds any peak
this script's own parent carried into it, which does not pass on to the
child, so it is the child's floor only when the script starts from a small
process such as a shell.
"""

import os
import resource
import sys

MAX_RSS_MIB = 100
MAX_CPU_S = 60


def main(args):
    argv = [sys.executable, "-m", "qtrinom", "verify", *args, "--format", "json"]
    pid = os.posix_spawn(sys.executable, argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    peak_mib = usage.ru_maxrss / 1024
    floor_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cpu_s = usage.ru_utime + usage.ru_stime
    print(f"{' '.join(args)}: exit code {code}, peak RSS {peak_mib:.1f} MiB (floor {floor_mib:.1f} MiB),"
          f" CPU {cpu_s:.1f} s", flush=True)
    failures = []
    if code:
        failures.append(f"verify exited with {code}")
    if peak_mib > MAX_RSS_MIB:
        failures.append(f"peak RSS {peak_mib:.1f} MiB is above the {MAX_RSS_MIB} MiB bound")
    if cpu_s > MAX_CPU_S:
        failures.append(f"CPU time {cpu_s:.1f} s is above the {MAX_CPU_S} s bound")
    for failure in failures:
        print(f"bounded_run: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
