"""Run one command; write its wall time, peak RSS and exit code as JSON.

    python spawn.py --report OUT.json --timeout SECONDS -- COMMAND...

Linux carries the spawning process's RSS high-water mark into the
child's ``ru_maxrss``, so the benchmark spawns each program call through
this small process instead of from its own, larger one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import threading
from time import perf_counter


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--timeout", type=float, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    start = perf_counter()
    proc = subprocess.Popen(command)
    watchdog = threading.Timer(args.timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump({"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "exit": proc.returncode}, handle)


if __name__ == "__main__":
    main()
