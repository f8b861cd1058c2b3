"""Start a command, wait for it, and write its wall time and rusage as JSON.

    python3 -S bench/spawn.py RESULT_JSON PROGRAM ARGS...

PROGRAM is an absolute path; the command inherits stdin, stdout, stderr and
the environment.  ``ru_maxrss`` counts the memory a process had before it
called exec, so a command started straight from the benchmark harness would
report the harness's peak whenever that is the larger.  Started from this
small process instead, it reports its own.
"""

import json
import os
import sys
import time


def main() -> int:
    result_path, cmd = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(result_path, "w") as fh:
        json.dump({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "exit_code": os.waitstatus_to_exitcode(status),
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
