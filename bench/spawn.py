"""Run one command; report its exit code, wall time (with its perf_counter start
and end) and its own peak RSS.

    python3 bench/spawn.py <report.json> <program> [args...]

Linux folds the memory high-water mark of the process that forks into the
child's ``ru_maxrss`` when the child execs.  A child started straight from
the benchmark process, which holds traces and parsed CSVs, would report
that process's memory instead of its own.  This small process sits in between,
so the figure is the program's own.  The command inherits stdout and
stderr.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w") as handle:
        json.dump({"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                   "start": start, "end": start + wall}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
