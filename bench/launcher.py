"""Start benchmark child processes from a small interpreter.

Linux folds the resident set of the process that starts a child into that
child's peak RSS: at exec the old address space's high-water mark is kept.
The benchmark's driving process holds numpy, scipy and the reference data
(well over 100 MB), so its children are started from this launcher, which
imports nothing heavy, and their peak RSS reads as their own.

Protocol: one JSON request per stdin line, {"argv": [...], "stdout": path
or null, "stderr": path or null}; one JSON reply per stdout line,
{"wall": seconds, "rss_mb": peak RSS, "code": exit code}. The launcher
exits at end of input, after the child in progress has ended.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"] or os.devnull, "wb") as out, \
                open(req["stderr"] or os.devnull, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                          "code": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
