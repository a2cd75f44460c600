"""Runs the benchmark's child processes one at a time and reports on each.

Reads one JSON request per line on stdin: {"argv", "stdout", "stderr",
"timeout"}.  Writes one JSON line per request: wall seconds, the child's own
peak RSS in MiB from os.wait4, and its exit code.  A child still running
after `timeout` seconds is killed.

On Linux a child forked from a process reports that process's memory
high-water mark as its own ru_maxrss, until it execs.  The benchmark process
grows large (it replays the workload in-process), so its children are forked
from this small process instead and report only their own peak.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], stdout_path: str, stderr_path: str, timeout: float) -> dict:
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit_code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["stdout"], req["stderr"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
